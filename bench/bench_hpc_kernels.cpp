// HPC kernel-phase makespans under the four network configurations.
//
// Runs the HPCC-derived kernel kinds (modeled on pc2/HPCC_FPGA) to
// delivered-byte completion on the 16-node R(1,4,4) system:
//  * ptrans       — bursty transpose episodes with compute gaps: the
//                   classic "reconfigure during the quiet period" case.
//  * fft          — log2(N) XOR butterfly stages per episode: each stage
//                   lights a different wavelength set.
//  * randomaccess — fine-grained single-flit uniform updates: maximally
//                   unstructured, the DBR's worst case.
//  * beff         — b_eff message-size sweep at constant byte volume:
//                   how per-packet overheads eat effective bandwidth.
#include "workload_common.hpp"

int main() {
  return erapid::bench::workload_main(
      {erapid::workload::WorkloadKind::Ptrans, erapid::workload::WorkloadKind::Fft,
       erapid::workload::WorkloadKind::RandomAccess,
       erapid::workload::WorkloadKind::Beff},
      "HPC kernels");
}
