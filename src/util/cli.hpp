// Tiny command-line flag parser for examples and bench binaries.
//
// Supports `--key=value`, `--key value` and boolean `--flag` forms; anything
// it does not recognize is left in `positional()` (google-benchmark flags
// pass through untouched because benches call parse() on a filtered copy).
// Numeric getters parse the whole value and throw std::invalid_argument
// naming the flag on malformed text, so `--seed abc` never runs seed 0.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace erapid::util {

/// Parsed command line: key/value flags plus positional arguments.
class Cli {
 public:
  Cli() = default;

  /// Parses argv; unknown tokens that do not start with "--" are positional.
  static Cli parse(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const { return flags_.count(key) > 0; }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key, const std::string& def) const;
  /// The flag as an unsigned T, or `def` when absent. Throws
  /// std::invalid_argument when the value is not one whole unsigned number
  /// that fits in T ("abc", "-1", "12x", 2^32 for a uint32_t).
  template <class T>
  [[nodiscard]] T get_uint(const std::string& key, T def) const {
    static_assert(std::is_unsigned_v<T>, "get_uint parses unsigned types only");
    const auto v = get(key);
    return v ? static_cast<T>(parse_uint(key, *v, std::numeric_limits<T>::max())) : def;
  }
  /// The flag as a double, or `def` when absent; throws like get_uint when
  /// the value is not one whole number ("0.5x").
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  static std::uint64_t parse_uint(const std::string& key, const std::string& text,
                                  std::uint64_t max);

  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace erapid::util
