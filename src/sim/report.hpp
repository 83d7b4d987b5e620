// Machine-readable result export.
//
// SimResult → JSON, for downstream plotting or regression tracking without
// scraping the console tables, and the erapid-bench-1 point that every
// campaign worker prints (DESIGN.md §8, "Bench artifacts"). Hand-rolled
// emitter (flat structs only; a JSON library dependency is not warranted).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sim/simulation.hpp"

namespace erapid::sim {

/// JSON object for one result.
[[nodiscard]] std::string to_json(const SimResult& r, int indent = 0);

/// JSON document: {"results": [{"name": ..., ...result fields...}, ...]}.
[[nodiscard]] std::string results_to_json(
    const std::vector<std::pair<std::string, SimResult>>& named);

/// Writes results_to_json to a file (throws ModelInvariantError on I/O).
void write_results_json(const std::string& path,
                        const std::vector<std::pair<std::string, SimResult>>& named);

/// Point-key fields of one erapid-bench-1 point, in output order. They are
/// the point's identity: compare_runs.py matches points on them.
using BenchKey =
    std::vector<std::pair<std::string, std::variant<std::string, double, std::uint64_t>>>;

/// One erapid-bench-1 point: what only the caller knows (key, wall time
/// measured in the harness) plus the result that fills in the rest.
struct BenchPoint {
  BenchKey key;
  const SimResult* result = nullptr;
  double wall_ms = 0.0;
};

/// One point as a single-line JSON object: the key fields, then the
/// result-driven fields, then wall_ms.
[[nodiscard]] std::string bench_point_json(const BenchPoint& p);

}  // namespace erapid::sim
