#include "sim/options_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/expect.hpp"
#include "workload/spec.hpp"

namespace erapid::sim {

namespace {

// ---- value codecs ------------------------------------------------------------

/// Strict number parse: the whole text must be one number inside
/// [lo, hi]. Integer width comes from T, so an out-of-width value fails
/// instead of wrapping; NaN fails the range comparison.
template <class T>
T parse_number(std::string_view key, const std::string& text, T lo, T hi) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  ERAPID_EXPECT(ec == std::errc() && ptr == end && v >= lo && v <= hi,
                "config key '" << key << "': '" << text << "' is not "
                               << (std::is_integral_v<T> ? "an integer" : "a finite number")
                               << " in [" << lo << ", " << hi << "]");
  return v;
}

/// Shortest "%g" text at precision >= 6 that reads back bit-exactly. At
/// precision 6 this is what `std::ostream << double` prints.
std::string format_real(double v) {
  std::array<char, 32> buf{};
  for (int precision = 6;; ++precision) {
    const auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v,
                                   std::chars_format::general, precision);
    double back = 0.0;
    std::from_chars(buf.data(), res.ptr, back);
    if (back == v || precision >= 17) return std::string(buf.data(), res.ptr);
  }
}

std::optional<bool> parse_flag(const std::string& text) {
  for (const char* yes : {"true", "1", "yes", "on"}) {
    if (text == yes) return true;
  }
  for (const char* no : {"false", "0", "no", "off"}) {
    if (text == no) return false;
  }
  return std::nullopt;
}
std::string_view flag_text(bool v) { return v ? "true" : "false"; }

/// Choice parsers either return the value (throwing on their own) or an
/// optional that is empty for an unknown name.
template <class T>
T known(std::string_view, const std::string&, T&& v) {
  return std::forward<T>(v);
}
template <class T>
T known(std::string_view key, const std::string& text, std::optional<T> v) {
  ERAPID_EXPECT(v.has_value(), "config key '" << key << "': unknown value '" << text << "'");
  return std::move(*v);
}

std::optional<reconfig::NetworkMode> parse_mode(const std::string& text) {
  for (const auto& mode : {reconfig::NetworkMode::np_nb(), reconfig::NetworkMode::p_nb(),
                           reconfig::NetworkMode::np_b(), reconfig::NetworkMode::p_b()}) {
    if (mode.name == text) return mode;
  }
  return std::nullopt;
}
std::string_view mode_name(const reconfig::NetworkMode& m) { return m.name; }

std::optional<reconfig::DpmStrategyKind> parse_strategy(const std::string& text) {
  using reconfig::DpmStrategyKind;
  for (const auto kind :
       {DpmStrategyKind::Threshold, DpmStrategyKind::Hysteresis, DpmStrategyKind::Ewma}) {
    if (reconfig::to_string(kind) == text) return kind;
  }
  return std::nullopt;
}

std::vector<fault::FaultEvent> parse_events(const std::string& text) {
  return fault::FaultPlan::parse_events(text).events;
}
std::string format_events(const std::vector<fault::FaultEvent>& events) {
  fault::FaultPlan plan;
  plan.events = events;
  return plan.format_events();
}

const std::string& same(const std::string& text) { return text; }

std::string policy_text(const std::optional<resilience::ResponsePolicy>& p) {
  return p ? resilience::policy_name(*p) : "";
}

// ---- the key table -------------------------------------------------------------

/// One INI key: `read` applies a (non-empty) value to the options, `write`
/// renders the current value. An empty rendering means "omit the key".
struct Key {
  std::string_view name;
  void (*read)(std::string_view key, SimOptions& o, const std::string& text);
  std::string (*write)(const SimOptions& o);
};

/// `Get` is a captureless accessor lambda usable on const and mutable
/// options alike; `Field<Get>` is the member type it exposes.
template <class Get>
using Field = std::remove_cvref_t<decltype(Get{}(std::declval<SimOptions&>()))>;

#define FIELD(member) [](auto& o) -> auto& { return o.member; }

/// Unsigned integer bounded by its field's width and an optional floor.
template <std::uint64_t Lo = 0, class Get>
constexpr Key integer(std::string_view name, Get) {
  using T = Field<Get>;
  return {name,
          [](std::string_view key, SimOptions& o, const std::string& text) {
            Get{}(o) = parse_number<T>(key, text, static_cast<T>(Lo),
                                       std::numeric_limits<T>::max());
          },
          [](const SimOptions& o) { return std::to_string(Get{}(o)); }};
}

constexpr double kMaxReal = std::numeric_limits<double>::max();
/// Closed lower bound for "strictly positive" reals.
constexpr double kPositive = std::numeric_limits<double>::denorm_min();

/// Finite real in the closed range [Lo, Hi].
template <double Lo = -kMaxReal, double Hi = kMaxReal, class Get>
constexpr Key real(std::string_view name, Get) {
  return {name,
          [](std::string_view key, SimOptions& o, const std::string& text) {
            Get{}(o) = parse_number<double>(key, text, Lo, Hi);
          },
          [](const SimOptions& o) { return format_real(Get{}(o)); }};
}

/// Named value: `Parse` maps text to the field (or to an optional of it),
/// `Format` maps the field back to text.
template <auto Parse, auto Format, class Get>
constexpr Key choice(std::string_view name, Get) {
  return {name,
          [](std::string_view key, SimOptions& o, const std::string& text) {
            Get{}(o) = known(key, text, Parse(text));
          },
          [](const SimOptions& o) { return std::string(Format(Get{}(o))); }};
}

/// true|false|1|0|yes|no|on|off, written as true|false.
template <class Get>
constexpr Key flag(std::string_view name, Get get) {
  return choice<parse_flag, flag_text>(name, get);
}

/// Free-form path; an empty path is off and is not written.
template <class Get>
constexpr Key path(std::string_view name, Get get) {
  return choice<same, same>(name, get);
}

/// Optional degrade policy; an unset policy is not written.
template <class Get>
constexpr Key policy(std::string_view name, Get get) {
  return choice<resilience::parse_policy, policy_text>(name, get);
}

// Rows are applied in order: `reconfig.mode` resets the whole DPM/DBR
// policy, so the threshold keys that override it come after it. Every
// `degrade.*` row is written only when a degrade policy is set.
const Key kKeys[] = {
    integer("system.boards", FIELD(system.boards)),
    integer("system.nodes_per_board", FIELD(system.nodes_per_board)),
    integer<1>("system.channel_width_bits", FIELD(system.channel_width_bits)),
    integer<8>("system.flit_bits", FIELD(system.flit_bits)),
    integer("system.packet_flits", FIELD(system.packet_flits)),
    integer("system.num_vcs", FIELD(system.num_vcs)),
    integer("system.vc_buffer_flits", FIELD(system.vc_buffer_flits)),
    integer("system.credit_delay", FIELD(system.credit_delay)),
    integer<1>("system.tx_queue_packets", FIELD(system.tx_queue_packets)),
    integer<1>("system.rx_queue_packets", FIELD(system.rx_queue_packets)),
    integer("system.fiber_delay_cycles", FIELD(system.fiber_delay_cycles)),
    integer<1>("system.tx_feed_cycles_per_flit", FIELD(system.tx_feed_cycles_per_flit)),
    choice<parse_mode, mode_name>("reconfig.mode", FIELD(reconfig.mode)),
    integer<1>("reconfig.window", FIELD(reconfig.window)),
    integer<1>("reconfig.ring_hop_cycles", FIELD(reconfig.ring_hop_cycles)),
    integer<1>("reconfig.lc_hop_cycles", FIELD(reconfig.lc_hop_cycles)),
    choice<parse_strategy, reconfig::to_string>("reconfig.dpm_strategy",
                                               FIELD(reconfig.dpm_strategy)),
    integer<1>("reconfig.hysteresis_windows", FIELD(reconfig.dpm_params.hysteresis_windows)),
    real<kPositive, 1.0>("reconfig.ewma_alpha", FIELD(reconfig.dpm_params.ewma_alpha)),
    real("reconfig.l_min", FIELD(reconfig.mode.dpm.l_min)),
    real("reconfig.l_max", FIELD(reconfig.mode.dpm.l_max)),
    real("reconfig.b_max", FIELD(reconfig.mode.dpm.b_max)),
    real("reconfig.dbr_b_min", FIELD(reconfig.mode.dbr.b_min)),
    real("reconfig.dbr_b_max", FIELD(reconfig.mode.dbr.b_max)),
    integer("reconfig.max_lanes_per_flow", FIELD(reconfig.mode.dbr.max_lanes_per_flow)),
    flag("reconfig.shutdown_idle", FIELD(reconfig.mode.dpm.shutdown_idle)),
    integer("reconfig.ctrl_retry_limit", FIELD(reconfig.ctrl_retry_limit)),
    integer<1>("reconfig.rc_watchdog_cycles", FIELD(reconfig.rc_watchdog_cycles)),
    integer("link.arq_retry_limit", FIELD(system.arq_retry_limit)),
    integer("link.arq_backoff_cycles", FIELD(system.arq_backoff_cycles)),
    integer("link.arq_nak_cycles", FIELD(system.arq_nak_cycles)),
    choice<parse_events, format_events>("fault.events", FIELD(fault.events)),
    real("fault.ctrl_drop_prob", FIELD(fault.ctrl_drop_prob)),
    integer("fault.seed", FIELD(fault.seed)),
    choice<traffic::parse_pattern, traffic::pattern_name>("workload.pattern", FIELD(pattern)),
    real("workload.hotspot_fraction", FIELD(hotspot_fraction)),
    integer("workload.hotspot_node", FIELD(hotspot_node)),
    real<0.0>("workload.load", FIELD(load_fraction)),
    integer("workload.seed", FIELD(seed)),
    integer("workload.warmup_cycles", FIELD(warmup_cycles)),
    integer<1>("workload.measure_cycles", FIELD(measure_cycles)),
    integer("workload.drain_limit", FIELD(drain_limit)),
    choice<workload::parse_kind, workload::kind_name>("workload.kind", FIELD(workload.kind)),
    integer("workload.episodes", FIELD(workload.episodes)),
    integer("workload.volume_packets", FIELD(workload.volume_packets)),
    real("workload.phase_rate", FIELD(workload.phase_rate)),
    integer("workload.gap_cycles", FIELD(workload.gap_cycles)),
    choice<workload::parse_phase_specs, workload::format_phase_specs>("workload.phases",
                                                                    FIELD(workload.phases)),
    integer("workload.tenants", FIELD(workload.tenants)),
    real("workload.tenant_load", FIELD(workload.tenant_load)),
    choice<workload::parse_pattern_mix, workload::format_pattern_mix>(
        "workload.tenant_mix", FIELD(workload.tenant_mix)),
    integer("workload.session_cycles", FIELD(workload.session_cycles)),
    integer("workload.session_gap_mean", FIELD(workload.session_gap_mean)),
    integer("workload.horizon_cycles", FIELD(workload.horizon_cycles)),
    path("workload.trace_file", FIELD(workload.trace_file)),
    flag("obs.enabled", FIELD(obs.enabled)),
    path("obs.trace", FIELD(obs.trace_path)),
    integer<1>("obs.counter_interval", FIELD(obs.counter_interval)),
    flag("obs.trace_events", FIELD(obs.trace_events)),
    flag("obs.monitor_fail_fast", FIELD(obs.monitor_fail_fast)),
    path("obs.telemetry", FIELD(obs.telemetry_path)),
    integer<1>("obs.telemetry_window", FIELD(obs.telemetry_window)),
    integer("obs.flight_recorder_depth", FIELD(obs.flight_recorder_depth)),
    path("obs.flight_recorder", FIELD(obs.flight_recorder_path)),
    real<0.0>("monitor.power_cap_mw", FIELD(obs.monitors.power_cap_mw)),
    real<0.0>("monitor.throughput_floor", FIELD(obs.monitors.throughput_floor)),
    real<0.0>("monitor.p99_latency_ceiling", FIELD(obs.monitors.p99_latency_ceiling)),
    integer("monitor.quiescence_deadline", FIELD(obs.monitors.quiescence_deadline)),
    integer("monitor.max_recovery_cycles", FIELD(obs.monitors.max_recovery_cycles)),
    integer("monitor.workload_deadline", FIELD(obs.monitors.workload_deadline)),
    policy("degrade.power_cap", FIELD(degrade.power_cap)),
    policy("degrade.throughput_floor", FIELD(degrade.throughput_floor)),
    policy("degrade.p99_ceiling", FIELD(degrade.p99_ceiling)),
    policy("degrade.recovery_deadline", FIELD(degrade.recovery_deadline)),
    integer("degrade.cooldown_cycles", FIELD(degrade.cooldown_cycles)),
    real("degrade.recover_margin", FIELD(degrade.recover_margin)),
    integer("degrade.recover_cycles", FIELD(degrade.recover_cycles)),
    integer("degrade.shed_step", FIELD(degrade.shed_step)),
    real("degrade.max_shed_fraction", FIELD(degrade.max_shed_fraction)),
};

#undef FIELD

}  // namespace

SimOptions options_from_ini(const util::Ini& ini) {
  // Reject typos loudly: every present key must be known.
  for (const auto& [key, value] : ini.entries()) {
    ERAPID_EXPECT(std::any_of(std::begin(kKeys), std::end(kKeys),
                              [&](const Key& k) { return k.name == key; }),
                  "unknown config key: '" + key + "'");
  }
  SimOptions o;
  for (const Key& k : kKeys) {
    if (const auto text = ini.get(std::string(k.name))) {
      ERAPID_EXPECT(!text->empty(), "config key '" << k.name << "' has an empty value");
      k.read(k.name, o, *text);
    }
  }
  // Cross-field validation (the system shape, workload kind vs
  // phases/trace_file, degrade policies vs armed monitors, the run window)
  // rejects a bad sweep config at parse time, before any simulation runs.
  o.validate();
  return o;
}

SimOptions load_options(const std::string& path) {
  return options_from_ini(util::Ini::load_file(path));
}

util::Ini options_to_ini(const SimOptions& o) {
  util::Ini ini;
  for (const Key& k : kKeys) {
    if (k.name.starts_with("degrade.") && !o.degrade.any()) continue;
    if (auto text = k.write(o); !text.empty()) ini.set(std::string(k.name), text);
  }
  return ini;
}

std::vector<std::string_view> option_keys() {
  std::vector<std::string_view> keys;
  for (const Key& k : kKeys) keys.push_back(k.name);
  return keys;
}

void save_options(const std::string& path, const SimOptions& opts) {
  options_to_ini(opts).save_file(path);
}

}  // namespace erapid::sim
