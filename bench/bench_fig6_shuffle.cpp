// Reproduces Figure 6 (bottom half): PERFECT SHUFFLE traffic (rotate the
// node address left by one) on the 64-node E-RAPID.
//
// Paper shape to check against (§4.2):
//  * NP-B / P-B improve throughput ≈ 1.7x over the static network;
//  * power rises ≈ 70% (NP-B) vs ≈ 25% (P-B).
#include "figure_common.hpp"

int main() {
  return erapid::bench::figure_main(erapid::traffic::PatternKind::PerfectShuffle,
                                    "Figure 6 / perfect shuffle");
}
