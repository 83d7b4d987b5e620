// perfbench — the E-RAPID benchmark program. One workload per process, one
// thread. See WORKLOADS.md for why each workload exists and which layer
// metric should move which end-to-end metric.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//
// --trace 0 times untraced passes and prints the end-to-end metrics;
// --trace 1 times passes with the per-tag dispatch profiler installed
// (alternating with untraced ones for the overhead ratio), runs the layer
// probes and prints the per-layer metrics. Either way the last stdout
// line is one JSON object {correct, attempted, failed, metrics}.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "probes.hpp"
#include "profiler.hpp"
#include "sim/report.hpp"
#include "sim/simulation.hpp"

namespace perfbench {
namespace {

using namespace erapid;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

/// One simulation point of a workload.
struct Point {
  std::string label;
  sim::SimOptions opts;
  /// Offered load at or past saturation: the labelled tail grows with the
  /// measurement window, so the point's p99 is printed but not gated.
  bool saturated = false;
};

/// The paper's Fig. 5 setup (bench/figure_common.hpp) under P-B.
sim::SimOptions figure_options(std::uint64_t seed) {
  sim::SimOptions o;  // R(1,8,8)
  o.warmup_cycles = 10000;
  o.measure_cycles = 15000;
  o.drain_limit = 50000;
  o.seed = seed;
  o.reconfig.mode = reconfig::NetworkMode::p_b();
  return o;
}

/// Points of a workload, in the fixed order they run; empty for an
/// unknown name. WORKLOADS.md gives the reasons for each choice.
std::vector<Point> make_points(const std::string& workload, std::uint64_t seed,
                               const std::string& workdir) {
  std::vector<Point> pts;
  if (workload == "uniform_pb_sweep") {
    // 0.6 N_c is left out: P-B fails to drain it on some seeds (a model
    // bug; see WORKLOADS.md). A 40k-cycle window holds the 0.3 point's
    // p99 steady across seeds.
    for (const double load : {0.3, 0.9}) {
      sim::SimOptions o = figure_options(seed);
      o.measure_cycles = 40000;
      o.pattern = traffic::PatternKind::Uniform;
      o.load_fraction = load;
      std::ostringstream label;
      label << "uniform/P-B/load=" << load;
      pts.push_back({label.str(), o, load >= 0.9});
    }
  } else if (workload == "allreduce_obs") {
    // One episode: a second one repeats the first cycle for cycle and
    // would halve the timed passes that fit in a run.
    sim::SimOptions o = figure_options(seed);
    o.workload.kind = workload::WorkloadKind::AllReduce;
    o.workload.volume_packets = 8;
    o.workload.episodes = 1;
    o.workload.phase_rate = 0.6;
    o.workload.horizon_cycles = 400000;
    o.obs.enabled = true;
    o.obs.telemetry_path = workdir + "/perfbench_allreduce_obs.telemetry.jsonl";
    pts.push_back({"allreduce/P-B/rate=0.6/obs+telemetry", o});
  } else if (workload == "complement_b16") {
    sim::SimOptions o = figure_options(seed);
    o.system.boards = 16;
    o.system.nodes_per_board = 4;
    o.pattern = traffic::PatternKind::Complement;
    o.load_fraction = 0.5;
    pts.push_back({"complement/R(1,16,4)/P-B/load=0.5", o});
  }
  return pts;
}

/// How a point is run.
enum class Mode {
  Plain,   ///< as configured, no profiler
  Traced,  ///< as configured, TagProfiler installed after construction
  ObsOff,  ///< obs forced off, no profiler (the obs overhead baseline)
};

/// One pass over one point.
struct PointRun {
  bool ok = false;
  std::string why;             ///< failure reason when !ok
  std::string digest;          ///< sim::to_json of the result
  sim::SimResult result;
  double setup_cpu_s = 0.0;    ///< Simulation ctor
  double run_cpu_s = 0.0;      ///< Simulation::run()
  double wall_s = 0.0;         ///< ctor + run()
  double run_wall_s = 0.0;     ///< run() alone, on the profiler's clock
  Cycle cycles = 0;            ///< simulated cycles executed by run()
  std::uint64_t packets = 0;   ///< packets delivered by the network
  std::vector<TagProfiler::Bucket> tags;  ///< Traced only
  std::uint64_t events = 0;               ///< Traced only
  std::uint64_t depth_sum = 0;            ///< Traced only
  std::size_t depth_max = 0;              ///< Traced only
};

PointRun run_point(const Point& p, Mode mode) {
  PointRun out;
  sim::SimOptions opts = p.opts;
  if (mode == Mode::ObsOff) opts.obs = obs::ObsConfig{};
  try {
    const std::int64_t w0 = wall_ns();
    const std::int64_t c0 = thread_cpu_ns();
    sim::Simulation s(opts);
    const std::int64_t c1 = thread_cpu_ns();
    const std::int64_t w_run = wall_ns();
    std::unique_ptr<TagProfiler> prof;
    if (mode == Mode::Traced) {
      prof = std::make_unique<TagProfiler>(s.hub());
      s.engine().set_dispatch_hook(prof.get());
    }
    out.result = s.run();
    const std::int64_t c2 = thread_cpu_ns();
    const std::int64_t w1 = wall_ns();
    out.setup_cpu_s = static_cast<double>(c1 - c0) * 1e-9;
    out.run_cpu_s = static_cast<double>(c2 - c1) * 1e-9;
    out.wall_s = static_cast<double>(w1 - w0) * 1e-9;
    out.run_wall_s = static_cast<double>(w1 - w_run) * 1e-9;
    out.cycles = s.engine().now();
    out.packets = s.network().packets_delivered();
    if (prof) {
      out.tags = prof->buckets();
      out.events = prof->events();
      out.depth_sum = prof->depth_sum();
      out.depth_max = prof->depth_max();
    }
  } catch (const std::exception& e) {
    out.why = std::string("threw: ") + e.what();
    return out;
  }
  const sim::SimResult& r = out.result;
  out.digest = sim::to_json(r);
  const std::uint64_t dead = r.workload.active() ? r.workload.packets_dead : 0;
  if (r.workload.active() && !r.workload.completed) {
    out.why = "workload not completed";
  } else if (!r.drained) {
    out.why = "labelled packets not drained";
  } else if (r.labelled_delivered + dead != r.labelled_generated) {
    out.why = "labelled accounting broken: delivered + dead != generated";
  } else {
    out.ok = true;
  }
  return out;
}

std::string fmt(double v, int prec = 6) {
  std::ostringstream s;
  s.precision(prec);
  s << v;
  return s.str();
}

/// Median (the mean of the two middle samples for an even count).
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Runs passes over the workload's points and keeps the books: digests
/// per point (every later pass must reproduce the first), failure counts,
/// and the human-readable per-point digest lines.
class Runner {
 public:
  explicit Runner(std::vector<Point> points)
      : points_(std::move(points)), reference_(points_.size()) {}

  /// Runs every point once in `mode`; returns the runs in point order.
  std::vector<PointRun> pass(Mode mode) {
    std::vector<PointRun> runs;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      PointRun r = run_point(points_[i], mode);
      ++attempted_;
      if (r.ok && mode != Mode::ObsOff) {
        // The first run of a point is the reference: every later run,
        // traced or not, must give byte-identical statistics.
        if (reference_[i].empty()) {
          reference_[i] = r.digest;
          print_digest(points_[i], r);
        } else if (r.digest != reference_[i]) {
          r.ok = false;
          r.why = "statistics differ from the point's first run (traced and untraced "
                  "runs and every pass must agree)";
        }
      }
      if (!r.ok) {
        ++failed_;
        std::cout << "FAIL " << points_[i].label << ": " << r.why << "\n";
      }
      runs.push_back(std::move(r));
    }
    return runs;
  }

  [[nodiscard]] const std::vector<Point>& points() const { return points_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  static void print_digest(const Point& p, const PointRun& r) {
    const sim::SimResult& s = r.result;
    std::cout << "digest " << p.label << ": throughput_xNc=" << fmt(s.accepted_fraction, 10)
              << " p99_cycles=" << fmt(s.latency_p99, 10)
              << " active_power_mw=" << fmt(s.active_power_avg_mw, 10)
              << " end_cycle=" << s.end_cycle << " labelled_generated=" << s.labelled_generated
              << " labelled_delivered=" << s.labelled_delivered
              << " dead=" << (s.workload.active() ? s.workload.packets_dead : 0)
              << " lane_grants=" << s.control.lane_grants
              << " level_changes=" << s.control.level_changes << "\n";
  }

  std::vector<Point> points_;
  std::vector<std::string> reference_;  ///< per point; "" until its first good run
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

bool all_ok(const std::vector<PointRun>& runs) {
  return std::all_of(runs.begin(), runs.end(), [](const PointRun& r) { return r.ok; });
}

/// Peak resident set of this process image, in MiB. VmHWM, not
/// getrusage: Linux carries the parent's pre-exec peak into the child's
/// ru_maxrss, which would charge run.py's interpreter to the simulator.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Thread-CPU seconds of one Simulation ctor (the destructor is not timed).
double setup_sample(const Point& p) {
  const std::int64_t c0 = thread_cpu_ns();
  const sim::Simulation s(p.opts);
  return static_cast<double>(thread_cpu_ns() - c0) * 1e-9;
}

constexpr int kExtraSetupSamples = 20;

/// End-to-end metrics from untraced passes.
std::vector<Metric> end_to_end(Runner& runner, double seconds) {
  // The traced pass is the reference every timed untraced pass must
  // reproduce, and the warm-up.
  runner.pass(Mode::Traced);
  std::cout << "timing: the first pass (traced, the reference) is a warm-up and is not "
               "timed\n";

  std::vector<double> rate, wall, setup;
  std::vector<PointRun> last;
  const std::int64_t start = wall_ns();
  while (rate.size() < 3 || static_cast<double>(wall_ns() - start) * 1e-9 < seconds) {
    std::vector<PointRun> runs = runner.pass(Mode::Plain);
    if (!all_ok(runs)) break;  // the result is already incorrect
    double cycles = 0.0, cpu = 0.0, w = 0.0;
    for (const PointRun& r : runs) {
      cycles += static_cast<double>(r.cycles);
      cpu += r.run_cpu_s;
      w += r.wall_s;
      setup.push_back(r.setup_cpu_s);
    }
    rate.push_back(cycles / cpu);
    wall.push_back(w);
    std::cout << "pass " << rate.size() << ": sim_cycles_per_s=" << fmt(rate.back())
              << " run_cpu_s=" << fmt(cpu) << " wall_s=" << fmt(w) << "\n";
    // A ctor costs well under a millisecond, so each pass adds extra
    // ctor-only samples to steady the median.
    for (const Point& p : runner.points()) {
      for (int k = 0; k < kExtraSetupSamples; ++k) setup.push_back(setup_sample(p));
    }
    last = std::move(runs);
  }
  std::cout << "timed passes: " << rate.size() << " (ctor samples: " << setup.size() << ")\n";

  double thru = 0.0, p99 = 0.0, power = 0.0, makespan = 0.0;
  for (std::size_t i = 0; i < last.size(); ++i) {
    const sim::SimResult& r = last[i].result;
    thru += r.accepted_fraction;
    if (!runner.points()[i].saturated) p99 = std::max(p99, r.latency_p99);
    power += r.active_power_avg_mw;
    makespan += static_cast<double>(r.end_cycle);
  }
  const auto n = static_cast<double>(std::max<std::size_t>(last.size(), 1));
  return {
      {"sim_cycles_per_s", median(rate), "cycles/s"},
      {"wall_s", median(wall), "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"model_throughput_xNc", thru / n, "xNc"},
      {"model_latency_p99_cycles", p99, "cycles"},
      {"model_active_power_mw", power / n, "mW"},
      {"model_makespan_cycles", makespan, "cycles"},
  };
}

/// Per-tag (calls, ns) of a traced pass, summed over its points, with the
/// pass's run() time on the profiler's clock.
struct TagTotals {
  std::map<std::string, std::pair<std::uint64_t, std::int64_t>> tag;
  double run_ns = 0.0;
};

TagTotals tag_totals(const std::vector<PointRun>& runs) {
  TagTotals t;
  for (const PointRun& r : runs) {
    for (const TagProfiler::Bucket& b : r.tags) {
      t.tag[b.tag].first += b.calls;
      t.tag[b.tag].second += b.ns;
    }
    t.run_ns += r.run_wall_s * 1e9;
  }
  return t;
}

/// Per-layer metrics of one traced pass (summed over its points).
std::map<std::string, double> layer_metrics(const std::vector<PointRun>& runs) {
  const auto [tag, run_ns] = tag_totals(runs);
  double events = 0.0, depth_sum = 0.0, depth_max = 0.0, packets = 0.0;
  double grants = 0.0, levels = 0.0;
  for (const PointRun& r : runs) {
    events += static_cast<double>(r.events);
    depth_sum += static_cast<double>(r.depth_sum);
    depth_max = std::max(depth_max, static_cast<double>(r.depth_max));
    packets += static_cast<double>(r.packets);
    grants += static_cast<double>(r.result.control.lane_grants);
    levels += static_cast<double>(r.result.control.level_changes);
  }
  const auto calls = [&](const std::string& t) {
    const auto it = tag.find(t);
    return it == tag.end() ? 0.0 : static_cast<double>(it->second.first);
  };
  const auto per_call = [&](const std::string& t) {
    const auto it = tag.find(t);
    return it == tag.end() || it->second.first == 0
               ? 0.0
               : static_cast<double>(it->second.second) /
                     static_cast<double>(it->second.first);
  };
  // Share of run() time spent in events whose tag starts with one of
  // `prefixes` ("" matches untagged events only).
  const auto share = [&](std::initializer_list<std::string> prefixes) {
    double ns = 0.0;
    for (const auto& [t, v] : tag) {
      for (const std::string& p : prefixes) {
        if (p.empty() ? t.empty() : t.rfind(p, 0) == 0) {
          ns += static_cast<double>(v.second);
          break;
        }
      }
    }
    return run_ns > 0.0 ? ns / run_ns : 0.0;
  };
  double dispatch_ns = 0.0;
  for (const auto& [t, v] : tag) dispatch_ns += static_cast<double>(v.second);

  return {
      {"router.tick_calls", calls("clock.tick")},
      {"router.tick_ns_per_call", per_call("clock.tick")},
      {"router.tick_share", share({"clock.tick"})},
      {"des.events", events},
      {"des.events_per_packet", packets > 0.0 ? events / packets : 0.0},
      {"des.queue_depth_avg", events > 0.0 ? depth_sum / events : 0.0},
      {"des.queue_depth_max", depth_max},
      {"des.overhead_ns_per_event", events > 0.0 ? (run_ns - dispatch_ns) / events : 0.0},
      {"des.untagged_calls", calls("")},
      {"des.untagged_ns_per_call", per_call("")},
      {"des.untagged_share", share({""})},
      {"optical.tx_done_ns_per_call", per_call("lane.tx_done")},
      {"optical.deliver_ns_per_call", per_call("lane.deliver")},
      {"optical.share", share({"lane.", "optical."})},
      {"reconfig.window_ns_per_call", per_call("reconfig.window")},
      {"reconfig.dbr_resolve_ns_per_call", per_call("reconfig.dbr_resolve")},
      {"reconfig.share", share({"reconfig."})},
      {"reconfig.lane_grants", grants},
      {"reconfig.level_changes", levels},
      {"workload.inject_ns_per_call", per_call("workload.inject")},
      {"workload.share", share({"workload."})},
      {"obs.telemetry_window_ns_per_call", per_call("obs.telemetry_window")},
      {"obs.recorder_sample_ns_per_call", per_call("recorder.sample")},
      {"obs.share", share({"obs.", "recorder."})},
  };
}

void print_tag_table(const std::vector<PointRun>& runs) {
  const auto [tag, run_ns] = tag_totals(runs);
  std::cout << "per-tag breakdown of one traced pass (monotonic clock, share of run()):\n";
  for (const auto& [t, v] : tag) {
    std::cout << "  " << (t.empty() ? "(untagged)" : t) << ": calls=" << v.first
              << " ns_per_call=" << fmt(static_cast<double>(v.second) /
                                        static_cast<double>(std::max<std::uint64_t>(v.first, 1)))
              << " share=" << fmt(static_cast<double>(v.second) / run_ns, 4) << "\n";
  }
}

double run_cpu(const std::vector<PointRun>& runs) {
  double s = 0.0;
  for (const PointRun& r : runs) s += r.run_cpu_s;
  return s;
}

/// Per-layer metrics from traced passes plus the layer probes.
std::vector<Metric> per_layer(Runner& runner, double seconds, std::uint64_t seed) {
  const bool has_obs = runner.points().front().opts.obs.enabled;
  runner.pass(Mode::Plain);  // warm-up and reference; not timed
  std::cout << "timing: first pass is a warm-up and is not timed\n";

  std::map<std::string, std::vector<double>> samples;
  std::vector<double> traced_cpu, plain_cpu, obs_off_cpu;
  std::vector<PointRun> first_traced;
  const std::int64_t start = wall_ns();
  while (traced_cpu.size() < 2 || static_cast<double>(wall_ns() - start) * 1e-9 < seconds) {
    std::vector<PointRun> traced = runner.pass(Mode::Traced);
    std::vector<PointRun> plain = runner.pass(Mode::Plain);
    std::vector<PointRun> off;
    if (has_obs) off = runner.pass(Mode::ObsOff);
    if (!all_ok(traced) || !all_ok(plain) || !all_ok(off)) break;  // already incorrect
    for (const auto& [k, v] : layer_metrics(traced)) samples[k].push_back(v);
    traced_cpu.push_back(run_cpu(traced));
    plain_cpu.push_back(run_cpu(plain));
    if (has_obs) obs_off_cpu.push_back(run_cpu(off));
    if (first_traced.empty()) first_traced = std::move(traced);
  }
  std::cout << "traced passes: " << traced_cpu.size() << "\n";
  if (!first_traced.empty()) print_tag_table(first_traced);

  std::vector<Metric> out;
  const auto unit_of = [](const std::string& k) -> std::string {
    if (k.find("ns_per") != std::string::npos) return "ns";
    if (k.find("share") != std::string::npos) return "fraction";
    if (k == "des.events_per_packet") return "events/packet";
    return "count";
  };
  for (const auto& [k, v] : samples) out.push_back({k, median(v), unit_of(k)});

  const double traced = median(traced_cpu);
  const double plain = median(plain_cpu);
  out.push_back({"trace.overhead_ratio", plain > 0.0 ? traced / plain : 0.0, "ratio"});
  // With obs off in the configuration, "as configured" is "obs off".
  out.push_back({"obs.overhead_ratio",
                 has_obs && median(obs_off_cpu) > 0.0 ? plain / median(obs_off_cpu) : 1.0,
                 "ratio"});

  // Layer probes, at the traced mean calendar depth for the hold model.
  const double depth_avg = samples.count("des.queue_depth_avg") != 0
                               ? median(samples["des.queue_depth_avg"])
                               : 64.0;
  const auto depth = static_cast<std::size_t>(std::max(1.0, depth_avg + 0.5));
  const std::uint64_t hold_events = 2000000;
  std::vector<double> heap, cal;
  for (int i = 0; i < 3; ++i) {
    heap.push_back(hold_ns_per_event(des::QueueKind::Heap, depth, hold_events, seed));
    cal.push_back(hold_ns_per_event(des::QueueKind::Calendar, depth, hold_events, seed));
  }
  out.push_back({"des.heap_ns_per_event", median(heap), "ns"});
  out.push_back({"des.calendar_ns_per_event", median(cal), "ns"});
  for (const std::uint32_t b : {8u, 16u, 32u, 64u}) {
    out.push_back({"reconfig.allocate_lanes_ns.B" + std::to_string(b),
                   allocate_lanes_ns(b, 0.05), "ns"});
  }
  out.push_back({"router.flits_per_s", router_flits_per_s(0.3), "flits/s"});
  std::sort(out.begin(), out.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  return out;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") return false;
        a.trace = v == "1";
      } else if (k == "--workdir") {
        a.workdir = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <uniform_pb_sweep|allreduce_obs|complement_b16> "
                 "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]\n";
    return 2;
  }
  std::vector<Point> points = make_points(args.workload, args.seed, args.workdir);
  if (points.empty()) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const std::string telemetry = points.front().opts.obs.telemetry_path;
  std::cout << "workload " << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << (args.trace ? 1 : 0)
            << " points=" << points.size() << "\n";

  Runner runner(std::move(points));
  const std::vector<Metric> metrics = args.trace
                                          ? per_layer(runner, args.seconds, args.seed)
                                          : end_to_end(runner, args.seconds);
  if (!telemetry.empty()) std::remove(telemetry.c_str());

  const double fail_frac = static_cast<double>(runner.failed()) /
                           static_cast<double>(std::max<std::uint64_t>(runner.attempted(), 1));
  std::cout << "fail_frac=" << fail_frac << " (" << runner.failed() << " failed / "
            << runner.attempted() << " point runs attempted)\n";
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << fmt(m.value, 10) << " " << m.unit << "\n";
  }

  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (runner.failed() == 0 ? "true" : "false")
     << ", \"attempted\": " << runner.attempted() << ", \"failed\": " << runner.failed()
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": "
       << metrics[i].value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}
