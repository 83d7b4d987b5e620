// Reproduces Figure 6 (top half): BUTTERFLY traffic (swap MSB/LSB of the
// node address) on the 64-node E-RAPID.
//
// Paper shape to check against (§4.2):
//  * NP-B / P-B improve throughput ≈ 25% over the static network;
//  * NP-B ≈ 2x the static power; P-B ≈ 1.5x.
#include "figure_common.hpp"

int main() {
  return erapid::bench::figure_main(erapid::traffic::PatternKind::Butterfly,
                                    "Figure 6 / butterfly");
}
