// SimOptions ⇄ INI config files.
//
// A full experiment point (system shape, Table-1 timing overrides,
// reconfiguration policy, workload) round-trips through a plain INI file,
// so experiments are reproducible from checked-in configs:
//
//   [system]
//   boards = 8
//   nodes_per_board = 8
//   [reconfig]
//   mode = P-B            ; NP-NB | P-NB | NP-B | P-B
//   window = 2000
//   dpm_strategy = threshold  ; threshold | hysteresis | ewma
//   [workload]
//   pattern = complement
//   load = 0.6
//   seed = 1
//
// Values are parsed strictly; anything else throws ModelInvariantError:
//   * unknown keys and empty values are rejected (typos must not silently
//     fall back to defaults);
//   * integers are plain unsigned decimals that fit the field ("-1", "2.5",
//     "8x" and out-of-width values are rejected, never wrapped), and window
//     lengths, queue depths and hop latencies are >= 1;
//   * reals are finite decimals ("nan", "inf", "0.5x" are rejected); the
//     unit weight reconfig.ewma_alpha is in (0, 1], and the load and
//     monitor thresholds are >= 0;
//   * flags are true|false|1|0|yes|no|on|off;
//   * named values (modes, patterns, kinds, policies, ...) must be known.
// Cross-field rules (workload kind vs phases, degrade policies vs armed
// monitors) run after every key is read.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sim/simulation.hpp"
#include "util/ini.hpp"

namespace erapid::sim {

/// Builds options from a parsed INI; keys not present keep defaults.
[[nodiscard]] SimOptions options_from_ini(const util::Ini& ini);

/// Convenience: load_file + options_from_ini.
[[nodiscard]] SimOptions load_options(const std::string& path);

/// Serializes the full option set (every knob, current values). Doubles
/// are written with the fewest digits (6 or more) that read back exactly.
[[nodiscard]] util::Ini options_to_ini(const SimOptions& opts);

/// Writes options_to_ini to a file.
void save_options(const std::string& path, const SimOptions& opts);

/// Every config key ("section.key"), in the order options_from_ini applies
/// them.
[[nodiscard]] std::vector<std::string_view> option_keys();

}  // namespace erapid::sim
