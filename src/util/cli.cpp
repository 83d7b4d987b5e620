#include "util/cli.hpp"

#include <charconv>
#include <stdexcept>

namespace erapid::util {

Cli Cli::parse(int argc, const char* const* argv) {
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.rfind("--", 0) != 0) {
      cli.positional_.push_back(tok);
      continue;
    }
    tok = tok.substr(2);
    auto eq = tok.find('=');
    if (eq != std::string::npos) {
      cli.flags_[tok.substr(0, eq)] = tok.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      cli.flags_[tok] = argv[++i];
    } else {
      cli.flags_[tok] = "true";
    }
  }
  return cli;
}

std::optional<std::string> Cli::get(const std::string& key) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get_or(const std::string& key, const std::string& def) const {
  return get(key).value_or(def);
}

std::uint64_t Cli::parse_uint(const std::string& key, const std::string& text,
                              std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v > max) {
    throw std::invalid_argument("--" + key + ": '" + text +
                                "' is not an unsigned integer in [0, " +
                                std::to_string(max) + "]");
  }
  return v;
}

double Cli::get_double(const std::string& key, double def) const {
  const auto v = get(key);
  if (!v) return def;
  double out = 0.0;
  const char* end = v->data() + v->size();
  const auto [ptr, ec] = std::from_chars(v->data(), end, out);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument("--" + key + ": '" + *v + "' is not a number");
  }
  return out;
}

bool Cli::get_bool(const std::string& key, bool def) const {
  auto v = get(key);
  if (!v) return def;
  return *v == "true" || *v == "1" || *v == "yes" || *v == "on";
}

}  // namespace erapid::util
