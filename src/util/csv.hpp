// Minimal CSV writer used by examples/power_sweep to dump the series behind
// a figure (one row per (config, load) point).
#pragma once

#include <cstddef>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

namespace erapid::util {

/// Streams rows to a CSV file. Values containing separators are quoted.
class CsvWriter {
 public:
  /// Opens `path` for writing and emits the header row.
  CsvWriter(const std::string& path, std::vector<std::string> header);

  /// True when the output file opened successfully.
  [[nodiscard]] bool ok() const { return static_cast<bool>(out_); }

  /// Writes one row; the number of cells must match the header width.
  void row(const std::vector<std::string>& cells);

  /// Convenience: formats arithmetic values with full precision.
  template <typename... Ts>
  void row_values(const Ts&... vals) {
    std::vector<std::string> cells;
    cells.reserve(sizeof...(vals));
    (cells.push_back(format(vals)), ...);
    row(cells);
  }

 private:
  template <typename T>
  static std::string format(const T& v) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(v);
    } else {
      std::ostringstream os;
      os.precision(10);
      os << v;
      return os.str();
    }
  }

  static std::string escape(const std::string& cell);

  std::ofstream out_;
  std::size_t width_;
};

}  // namespace erapid::util
