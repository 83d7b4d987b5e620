#include "obs/monitor.hpp"

#include <algorithm>

#include "util/expect.hpp"

namespace erapid::obs {

MonitorSet::MonitorSet(const MonitorConfig& cfg, bool fail_fast, ChromeTraceWriter* trace,
                       TrackId track)
    : fail_fast_(fail_fast), trace_(trace), track_(track) {
  ERAPID_REQUIRE(cfg.any(), "MonitorSet built with no check configured");
  ERAPID_REQUIRE(cfg.power_cap_mw >= 0.0 && cfg.throughput_floor >= 0.0 &&
                     cfg.p99_latency_ceiling >= 0.0,
                 "monitor thresholds must be non-negative");

  power_ = {"power_cap_mw", cfg.power_cap_mw, cfg.power_cap_mw > 0.0, 0.0, false, 0, 0};
  throughput_ = {"throughput_floor", cfg.throughput_floor, cfg.throughput_floor > 0.0,
                 0.0, false, 0, 0};
  p99_ = {"p99_latency_ceiling", cfg.p99_latency_ceiling, cfg.p99_latency_ceiling > 0.0,
          0.0, false, 0, 0};
  quiescence_ = {"quiescence_deadline", static_cast<double>(cfg.quiescence_deadline),
                 cfg.quiescence_deadline > 0, 0.0, false, 0, 0};
  recovery_ = {"max_recovery_cycles", static_cast<double>(cfg.max_recovery_cycles),
               cfg.max_recovery_cycles > 0, 0.0, false, 0, 0};
  workload_ = {"workload_deadline", static_cast<double>(cfg.workload_deadline),
               cfg.workload_deadline > 0, 0.0, false, 0, 0};
}

void MonitorSet::fire(Check& c, Cycle now, double value) {
  if (c.violations == 0) c.first_violation = now;
  ++c.violations;
  if (trace_ != nullptr) {
    Args args;
    args.add("threshold", c.threshold).add("value", value);
    trace_->instant(track_, (std::string("monitor.") + c.name).c_str(), now, args.str());
  }
  // The flight recorder (via the Hub's hook) must see the violation before
  // fail-fast unwinds: the dump is the point of the post-mortem.
  if (violation_hook_) violation_hook_(c.name, now, value, c.threshold);
  // The actuation hook (degradation controller) rules on survival *after*
  // the violation is fully recorded, so a suppressed breach still shows in
  // verdicts, traces, and the flight recorder.
  ActuationDecision decision = ActuationDecision::Default;
  if (actuation_hook_) decision = actuation_hook_(c.name, now, value, c.threshold);
  if (decision == ActuationDecision::Suppress) return;
  if (decision == ActuationDecision::Abort) {
    ERAPID_EXPECT(false, "monitor " << c.name << " violated at cycle " << now
                                    << ": value " << value << " vs threshold "
                                    << c.threshold << " (degrade policy: abort)");
  }
  // Fail-fast rides the contract layer: the throw unwinds out of the DES
  // event (or the finalize call) into Simulation::run's caller, exactly
  // like a model-invariant violation would.
  ERAPID_EXPECT(!fail_fast_, "monitor " << c.name << " violated at cycle " << now
                                        << ": value " << value << " vs threshold "
                                        << c.threshold << " (obs.monitor_fail_fast)");
}

void MonitorSet::check_ceiling(Check& c, Cycle now, double value) {
  if (!c.enabled) return;
  if (!c.observed || value > c.worst) c.worst = value;
  c.observed = true;
  if (value > c.threshold) fire(c, now, value);
}

void MonitorSet::check_floor(Check& c, Cycle now, double value) {
  if (!c.enabled) return;
  if (!c.observed || value < c.worst) c.worst = value;
  c.observed = true;
  if (value < c.threshold) fire(c, now, value);
}

void MonitorSet::sample_power(Cycle now, double mw) {
  ERAPID_REQUIRE(!finalized_, "power sample observed after finalize()");
  check_ceiling(power_, now, mw);
}

void MonitorSet::recovery(Cycle now, CycleDelta took) {
  ERAPID_REQUIRE(!finalized_, "recovery observed after finalize()");
  check_ceiling(recovery_, now, static_cast<double>(took));
}

void MonitorSet::dbr_resolve(Cycle now) {
  ERAPID_REQUIRE(!finalized_, "reconfig resolve observed after finalize()");
  if (quiescence_.enabled) pending_resolves_.push_back(now);
}

void MonitorSet::dbr_quiesced(Cycle resolve_at, Cycle last_settle) {
  ERAPID_REQUIRE(!finalized_, "quiescence observed after finalize()");
  ERAPID_EXPECT(last_settle >= resolve_at,
                "quiescence cannot settle before its resolve");
  if (!quiescence_.enabled) return;
  const auto it =
      std::find(pending_resolves_.begin(), pending_resolves_.end(), resolve_at);
  if (it != pending_resolves_.end()) pending_resolves_.erase(it);
  check_ceiling(quiescence_, last_settle,
                static_cast<double>(last_settle - resolve_at));
}

void MonitorSet::finalize(const FinalSample& fin) {
  ERAPID_REQUIRE(!finalized_, "MonitorSet finalized twice");
  finalized_ = true;
  check_floor(throughput_, fin.now, fin.accepted_fraction);
  check_ceiling(p99_, fin.now, fin.latency_p99);
  if (fin.workload_ran) {
    if (fin.workload_completed) {
      check_ceiling(workload_, fin.now, static_cast<double>(fin.workload_completion));
    } else if (workload_.enabled) {
      // Hit the horizon without completing: no finite makespan can ever
      // satisfy the deadline, so the end cycle stands in as the worst
      // value and the check fires unconditionally.
      const auto value = static_cast<double>(fin.now);
      if (!workload_.observed || value > workload_.worst) workload_.worst = value;
      workload_.observed = true;
      fire(workload_, fin.now, value);
    }
  }
  // Re-solves whose grants never settled count as unconverged once the
  // run outlived their deadline (a grant chained on a lane that never
  // went dark, or a run ending mid-reconfiguration).
  for (const Cycle at : pending_resolves_) {
    if (fin.now > at && fin.now - at > static_cast<Cycle>(quiescence_.threshold)) {
      check_ceiling(quiescence_, fin.now, static_cast<double>(fin.now - at));
    }
  }
  pending_resolves_.clear();
}

std::uint64_t MonitorSet::violations() const {
  return power_.violations + throughput_.violations + p99_.violations +
         quiescence_.violations + recovery_.violations + workload_.violations;
}

std::vector<std::pair<std::string, std::string>> MonitorSet::report() const {
  std::vector<std::pair<std::string, std::string>> out;
  const Check* checks[] = {&power_,      &throughput_, &p99_,
                           &quiescence_, &recovery_,   &workload_};
  for (const Check* c : checks) {
    if (!c->enabled) continue;
    std::string v = "{\"threshold\": " + format_trace_value(c->threshold) +
                    ", \"worst\": " + format_trace_value(c->observed ? c->worst : 0.0) +
                    ", \"violations\": " + std::to_string(c->violations) +
                    ", \"first_violation\": " + std::to_string(c->first_violation) +
                    ", \"ok\": " + (c->violations == 0 ? "true" : "false") + "}";
    out.emplace_back(c->name, std::move(v));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace erapid::obs
