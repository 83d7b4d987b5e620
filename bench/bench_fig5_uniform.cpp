// Reproduces Figure 5 (top half): throughput, latency and power vs offered
// load for UNIFORM traffic on the 64-node E-RAPID, four network configs.
//
// Paper shape to check against (§4.2):
//  * NP-NB ≈ NP-B in throughput and latency (nothing to reconfigure);
//  * P-NB degrades throughput < 3%, P-B < 8%;
//  * P-NB saves ≈ 16% power, P-B ≈ 50%.
#include "figure_common.hpp"

int main() {
  return erapid::bench::figure_main(erapid::traffic::PatternKind::Uniform,
                                    "Figure 5 / uniform");
}
