// Reproduces Figure 5 (bottom half): COMPLEMENT traffic — the worst case
// for E-RAPID's static RWA (every node of board s targets board B-1-s, so
// one wavelength carries a whole board's load).
//
// Paper shape to check against (§4.2):
//  * NP-NB and P-NB saturate at very low load (~N_c/8 here);
//  * NP-B / P-B reach ≈ 4x the static throughput;
//  * NP-B burns ≈ 3x the static power; P-B ≈ 25% less than NP-B.
#include "figure_common.hpp"

int main() {
  return erapid::bench::figure_main(erapid::traffic::PatternKind::Complement,
                                    "Figure 5 / complement");
}
