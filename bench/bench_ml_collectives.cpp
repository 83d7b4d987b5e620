// ML collective makespans under the four network configurations.
//
// Runs the phase-structured collective kinds to delivered-byte completion
// on the 16-node R(1,4,4) system:
//  * allreduce — ring all-reduce, 2(N-1) neighbor phases per episode: the
//    canonical data-parallel training step. Neighbor permutations are
//    exactly where per-phase bandwidth reconfiguration should win.
//  * alltoall  — N-1 shifted permutations per episode: expert-parallel /
//    tensor-parallel exchange, the densest schedule.
//
// Shape to check: predictive modes (P-*) must not stretch the makespan by
// more than the reconfiguration penalty budget, and P-B should show the
// lowest active power for the same delivered bytes.
#include "workload_common.hpp"

int main() {
  return erapid::bench::workload_main(
      {erapid::workload::WorkloadKind::AllReduce,
       erapid::workload::WorkloadKind::AllToAll},
      "ML collectives");
}
