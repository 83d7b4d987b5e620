#include "sim/simulation.hpp"

#include <algorithm>

#include "obs/probe.hpp"
#include "power/components.hpp"
#include "workload/collectives.hpp"
#include "workload/hpc_kernels.hpp"
#include "workload/phase.hpp"
#include "workload/tenants.hpp"

namespace erapid::sim {

namespace {

/// The one place that maps workload.kind to its traffic driver.
std::unique_ptr<workload::Driver> make_driver(const SimOptions& opts, double capacity,
                                              des::Engine& engine, obs::Hub* hub,
                                              const workload::InjectFn& inject) {
  const auto& wl = opts.workload;
  const std::uint32_t n = opts.system.num_nodes();
  const std::uint32_t flit_bytes = opts.system.flit_bits / 8;
  const double rate = wl.phase_rate * capacity;
  util::Rng master(opts.seed);
  const auto phase_engine = [&](workload::Schedule schedule) {
    workload::PhaseEngineConfig pc;
    pc.num_nodes = n;
    pc.default_packet_flits = opts.system.packet_flits;
    pc.flit_bytes = flit_bytes;
    pc.seed = opts.seed;
    pc.kind = workload::kind_name(wl.kind);
    return std::make_unique<workload::PhaseEngine>(engine, std::move(schedule), pc, inject,
                                                   hub);
  };
  switch (wl.kind) {
    case workload::WorkloadKind::Bernoulli:
      return std::make_unique<workload::BernoulliDriver>(
          engine,
          traffic::TrafficPattern(opts.pattern, n, opts.hotspot_fraction,
                                  NodeId{opts.hotspot_node}),
          opts.system.packet_flits, opts.load_fraction * capacity, master, inject);
    case workload::WorkloadKind::Tenants: {
      workload::TenantFleetConfig tc;
      tc.num_nodes = n;
      tc.tenants = wl.tenants;
      tc.packet_flits = opts.system.packet_flits;
      tc.flit_bytes = flit_bytes;
      tc.session_rate_pkt_cycle = wl.tenant_load * capacity * n;
      tc.session_cycles = wl.session_cycles;
      tc.session_gap_mean = wl.session_gap_mean;
      tc.hotspot_fraction = opts.hotspot_fraction;
      tc.hotspot_node = opts.hotspot_node;
      return std::make_unique<workload::TenantFleet>(engine, tc, wl.tenant_mix, master, inject,
                                                     hub);
    }
    case workload::WorkloadKind::Trace:
      return std::make_unique<workload::TraceDriver>(
          engine, traffic::Trace::load_file(wl.trace_file, n), opts.system.packet_flits,
          flit_bytes, inject);
    case workload::WorkloadKind::AllReduce:
      return phase_engine(workload::make_allreduce(n, wl.volume_packets, rate, wl.episodes));
    case workload::WorkloadKind::AllToAll:
      return phase_engine(workload::make_alltoall(n, wl.volume_packets, rate, wl.episodes));
    case workload::WorkloadKind::Phases:
      return phase_engine(workload::make_phase_schedule(wl.phases, n, capacity, wl.phase_rate,
                                                        wl.episodes, opts.hotspot_fraction,
                                                        opts.hotspot_node));
    case workload::WorkloadKind::Ptrans:
      return phase_engine(
          workload::make_ptrans(n, wl.volume_packets, rate, wl.episodes, wl.gap_cycles));
    case workload::WorkloadKind::Fft:
      return phase_engine(workload::make_fft(n, wl.volume_packets, rate, wl.episodes));
    case workload::WorkloadKind::RandomAccess:
      return phase_engine(workload::make_randomaccess(n, wl.volume_packets, rate, wl.episodes));
    case workload::WorkloadKind::Beff:
      return phase_engine(workload::make_beff(n, wl.volume_packets, rate, wl.episodes,
                                              opts.system.packet_flits));
  }
  ERAPID_UNREACHABLE("unknown workload kind " << static_cast<int>(wl.kind));
}

}  // namespace

Simulation::Simulation(const SimOptions& opts)
    : opts_(opts),
      engine_(opts.des_queue),
      capacity_(topology::CapacityModel(opts.system).uniform_capacity()),
      completion_bounded_(opts.workload.completion_bounded()) {
  // Programmatically built SimOptions get the same cross-field validation
  // as INI-loaded ones.
  opts_.workload.validate();
  opts_.degrade.validate(opts_.obs, opts_.reconfig.mode.bandwidth_reconfig);
  // With obs off the hub stays null and every probe site reduces to one
  // branch: the event stream (and golden fixture) is untouched.
  if (opts_.obs.enabled) {
    hub_ = std::make_unique<obs::Hub>(opts_.obs);
    engine_.set_dispatch_hook(hub_.get());
    m_latency_ = hub_->metrics().series("sim.packet_latency");
    m_latency_hist_ = hub_->metrics().histogram("sim.packet_latency_hist");
    m_delivered_ = hub_->metrics().counter("sim.packets_delivered");
  }
  // The degradation controller exists only with a policy configured (and
  // validate() above guarantees obs is on then), so policy-free runs stay
  // byte-identical to builds without the resilience subsystem.
  if (opts_.degrade.any()) {
    degrade_ctrl_ = std::make_unique<resilience::DegradeController>(
        opts_.degrade, opts_.obs.monitors.power_cap_mw, hub_.get());
    if (auto* mon = hub_->monitors()) {
      mon->set_actuation_hook(
          [this](const char* name, Cycle now, double value, double threshold) {
            return degrade_ctrl_->on_violation(name, now, value, threshold);
          });
    }
  }
  network_ = std::make_unique<Network>(engine_, opts_.system, opts_.reconfig,
                                       opts_.power_model, hub_.get(),
                                       degrade_ctrl_.get());
  if (hub_ != nullptr) {
    recorder_ = std::make_unique<Recorder>(engine_, *network_, opts_.obs.counter_interval,
                                           hub_.get());
  }

  std::vector<optical::OpticalTerminal*> terminals;
  terminals.reserve(opts_.system.num_boards_total());
  for (std::uint32_t b = 0; b < opts_.system.num_boards_total(); ++b) {
    terminals.push_back(&network_->terminal(BoardId{b}));
  }
  std::vector<optical::Receiver*> receivers;
  receivers.reserve(static_cast<std::size_t>(opts_.system.num_boards_total()) *
                    opts_.system.num_wavelengths());
  for (std::uint32_t b = 0; b < opts_.system.num_boards_total(); ++b) {
    for (std::uint32_t w = 0; w < opts_.system.num_wavelengths(); ++w) {
      receivers.push_back(&network_->receiver(BoardId{b}, WavelengthId{w}));
    }
  }
  injector_ = std::make_unique<fault::FaultInjector>(
      engine_, network_->config(), network_->lane_map(), network_->reconfig_manager(),
      std::move(terminals), opts_.fault, hub_.get(), std::move(receivers));
  injector_->arm();

  if (hub_ != nullptr && opts_.obs.telemetry_on()) {
    const std::uint32_t boards = opts_.system.num_boards_total();
    hub_->init_telemetry(engine_, boards,
                         [this](Cycle now) { return sample_telemetry(now); });
    telemetry_ = hub_->telemetry();
    obs::EnergyLedger* ledger = hub_->ledger();
    // Component split per DVS level: the quoted level total divides by the
    // analytic model's transmitter/receiver ratio at that operating point.
    const power::ComponentModel comp;
    const auto& pm = network_->power_model();
    for (const power::PowerLevel l : power::LinkPowerModel::kActiveLevels) {
      const double level_mw = pm.power_mw(l).value();
      const double tx = comp.transmitter_mw(pm.supply_v(l), pm.bitrate_gbps(l)).value();
      const double rx = comp.receiver_mw(pm.supply_v(l), pm.bitrate_gbps(l)).value();
      const double laser = tx + rx > 0.0 ? level_mw * (tx / (tx + rx)) : 0.0;
      ledger->set_laser_share(level_mw, laser);
    }
    // Tag every lane's meter slot with its owning board. Terminals hold no
    // self-row (a board never transmits to itself), so d == b is skipped.
    const std::uint32_t W = opts_.system.num_wavelengths();
    for (std::uint32_t b = 0; b < boards; ++b) {
      auto& term = network_->terminal(BoardId{b});
      for (std::uint32_t d = 0; d < boards; ++d) {
        if (d == b) continue;
        for (std::uint32_t w = 0; w < W; ++w) {
          ledger->tag_source(term.lane(BoardId{d}, WavelengthId{w}).meter_source(), b);
        }
      }
    }
    // Attach before any lane lights up (Network::start): from the first
    // power update on, the ledger mirrors the meter bitwise.
    network_->meter().attach_ledger(ledger);
  }

  network_->set_dead_letter_callback([this](const router::Packet& p, Cycle now) {
    if (p.labelled) ++labelled_dead_;
    driver_->on_dead_letter(p, now);
  });

  // Upper edge must exceed post-saturation latencies (complement on a
  // static network queues labelled packets for ~100k cycles) or the
  // reported quantiles silently saturate at the histogram edge.
  latency_hist_ = std::make_unique<stats::Histogram>(0.0, 1048576.0, 8192);

  network_->set_delivery_callback([this](const router::Packet& p, Cycle now) {
    if (in_measurement_) ++delivered_measured_;
    ERAPID_COUNTER(hub_.get(), m_delivered_, 1);
    // Traffic-matrix feed: payload bytes per (src board, dst board).
    if (telemetry_ != nullptr) {
      telemetry_->on_packet(opts_.system.board_of(p.src).value(),
                            opts_.system.board_of(p.dst).value(),
                            static_cast<std::uint64_t>(p.flits) *
                                (opts_.system.flit_bits / 8));
    }
    if (p.labelled) {
      ++labelled_delivered_;
      const auto lat = static_cast<double>(now - p.created);
      latency_.add(lat);
      latency_hist_->add(lat);
      ERAPID_OBSERVE(hub_.get(), m_latency_, lat);
      ERAPID_OBSERVE(hub_.get(), m_latency_hist_, lat);
    }
    driver_->on_delivered(p, now);
  });

  driver_ = make_driver(opts_, capacity_, engine_, hub_.get(),
                        [this](const router::Packet& p, Cycle now) {
                          if (p.labelled) ++labelled_generated_;
                          network_->inject(p, now);
                        });
}

SimResult Simulation::run() {
  SimResult r;
  r.capacity_pkt_node_cycle = capacity_;

  network_->start();
  // Same-cycle events fire in schedule order, so where the driver starts is
  // observable (and pinned by the goldens): open-loop sources start ahead
  // of the recorder and telemetry, completion-bounded drivers after them
  // and after the meter checkpoint.
  if (!completion_bounded_) driver_->start();
  if (recorder_ != nullptr) recorder_->start();
  if (telemetry_ != nullptr) telemetry_->start();

  // Power is averaged from the meter checkpoint to the end of the window:
  // the measurement interval (open loop) or the whole run (completion-
  // bounded), whose length `cycles` normalises the active power.
  units::MilliwattCycles active_energy_start{};
  const auto open_window = [&] {
    network_->meter().checkpoint(engine_.now());
    active_energy_start = network_->active_energy_mw_cycles();
    in_measurement_ = true;
  };
  const auto close_window = [&](double cycles) {
    in_measurement_ = false;
    r.power_avg_mw = network_->meter().average_mw(engine_.now()).value();
    r.active_power_avg_mw =
        units::average_power(network_->active_energy_mw_cycles() - active_energy_start,
                             cycles)
            .value();
  };
  double window = 0.0;  // cycles accepted throughput is normalised over
  if (completion_bounded_) {
    // Offered load of a completion-bounded workload is its injection pace.
    r.offered_fraction = opts_.workload.phase_rate;
    open_window();
    ERAPID_TRACE_INSTANT(hub_.get(), hub_->track_engine(), "phase.workload",
                         engine_.now(), "");
    driver_->start();

    // ---- run to delivered-byte completion (or the horizon cap) ----
    const Cycle horizon = opts_.workload.horizon_cycles;
    while (!driver_->done() && engine_.now() < horizon) {
      engine_.run_until(std::min<Cycle>(engine_.now() + 1000, horizon));
    }
    close_window(std::max<double>(1.0, static_cast<double>(engine_.now())));
    r.workload = driver_->stats();
    r.drained = r.workload.completed;
    // The run *ends* at completion; engine_.now() overshoots to the next
    // 1000-cycle polling boundary, which is a harness artifact, not a result.
    r.end_cycle = r.workload.completed ? r.workload.completion_cycle : engine_.now();
    window = std::max<double>(1.0, static_cast<double>(r.end_cycle));
  } else {
    r.offered_fraction = opts_.load_fraction;

    // ---- warmup ----
    ERAPID_TRACE_SPAN(hub_.get(), hub_->track_engine(), "phase.warmup", engine_.now(),
                      opts_.warmup_cycles, "");
    engine_.run_until(opts_.warmup_cycles);

    // ---- measurement ----
    ERAPID_TRACE_SPAN(hub_.get(), hub_->track_engine(), "phase.measure", engine_.now(),
                      opts_.measure_cycles, "");
    open_window();
    driver_->set_labelling(true);
    const Cycle measure_end = opts_.warmup_cycles + opts_.measure_cycles;
    engine_.run_until(measure_end);
    driver_->set_labelling(false);
    close_window(static_cast<double>(opts_.measure_cycles));

    // ---- drain: run until every labelled packet arrives (or the cap) ----
    ERAPID_TRACE_INSTANT(hub_.get(), hub_->track_engine(), "phase.drain", engine_.now(),
                         "");
    const Cycle drain_end = measure_end + opts_.drain_limit;
    // Dead-lettered labelled packets can never arrive; waiting for them
    // would turn every ARQ exhaustion into a full drain-limit stall.
    while (labelled_delivered_ + labelled_dead_ < labelled_generated_ &&
           engine_.now() < drain_end) {
      engine_.run_until(std::min<Cycle>(engine_.now() + 1000, drain_end));
    }
    r.drained = labelled_delivered_ + labelled_dead_ >= labelled_generated_;
    driver_->stop();
    r.workload = driver_->stats();
    r.end_cycle = engine_.now();
    window = static_cast<double>(opts_.measure_cycles);
  }
  r.offered_pkt_node_cycle = r.offered_fraction * capacity_;

  // ---- metrics ----
  const auto nodes = static_cast<double>(opts_.system.num_nodes());
  r.accepted_pkt_node_cycle = static_cast<double>(delivered_measured_) / (nodes * window);
  r.accepted_fraction = r.accepted_pkt_node_cycle / capacity_;

  r.latency_avg = latency_.mean();
  r.latency_p50 = latency_hist_->quantile(0.50);
  r.latency_p95 = latency_hist_->quantile(0.95);
  r.latency_p99 = latency_hist_->quantile(0.99);
  r.latency_max = latency_.max();

  r.packets_generated = driver_->generated();
  r.packets_delivered_measured = delivered_measured_;
  r.labelled_generated = labelled_generated_;
  r.labelled_delivered = labelled_delivered_;
  r.control = network_->reconfig_manager().counters();
  r.fault = injector_->stats();
  if (hub_ != nullptr) {
    if (recorder_ != nullptr) recorder_->stop();
    if (telemetry_ != nullptr) {
      telemetry_->finish(engine_.now(),
                         network_->meter().energy_mw_cycles(engine_.now()).value());
    }
    // Finalize the monitors before the snapshot so the monitor.violations
    // counter covers the end-of-run checks too.
    if (auto* mon = hub_->monitors()) {
      obs::FinalSample fin;
      fin.now = engine_.now();
      fin.accepted_fraction = r.accepted_fraction;
      fin.latency_p99 = r.latency_p99;
      fin.workload_ran = completion_bounded_;
      fin.workload_completed = r.workload.completed;
      fin.workload_completion = r.workload.completion_cycle;
      mon->finalize(fin);
      r.monitors = mon->report();
      r.monitor_violations = mon->violations();
    }
    fill_resilience_summary(r, engine_.now());
    fill_telemetry_summary(r);
    r.metrics = hub_->metrics().snapshot(engine_.now());
    hub_->close(engine_.now());
  }
  return r;
}

obs::WindowObservables Simulation::sample_telemetry(Cycle now) {
  obs::WindowObservables o;
  const std::uint64_t delivered = network_->packets_delivered();
  const std::uint64_t in_window = delivered - tele_last_delivered_;
  tele_last_delivered_ = delivered;
  const auto nodes = static_cast<double>(opts_.system.num_nodes());
  const auto window = static_cast<double>(opts_.obs.telemetry_window);
  // Utilization = delivered packets per node-cycle, as a fraction of the
  // analytic capacity N_c — the same normalization the figures use.
  o.utilization =
      capacity_ > 0.0 ? static_cast<double>(in_window) / (nodes * window * capacity_) : 0.0;
  o.delivered = delivered;
  o.lanes_lit = network_->lane_map().lit_count();
  o.lanes_total = opts_.system.num_boards_total() * opts_.system.num_wavelengths();
  o.queue_depth = network_->total_source_backlog();
  o.power_mw = network_->meter().instantaneous_mw().value();
  o.energy_mw_cycles = network_->meter().energy_mw_cycles(now).value();
  o.workload_phase = driver_->active_phase();
  return o;
}

void Simulation::fill_resilience_summary(SimResult& r, Cycle now) {
  if (degrade_ctrl_ == nullptr) return;
  degrade_ctrl_->finalize(now);
  const auto& st = degrade_ctrl_->stats();
  auto& out = r.resilience;
  out.active = true;
  out.engaged = st.engaged;
  out.peak_stage = resilience::stage_name(st.peak_stage);
  out.steps_down = st.steps_down;
  out.steps_up = st.steps_up;
  out.lanes_shed = st.lanes_shed;
  out.lanes_restored = st.lanes_restored;
  out.lanes_slept = st.lanes_slept;
  out.episodes = st.episodes;
  out.time_degraded = st.time_degraded;
  out.suppressed_violations = st.suppressed_violations;
}

void Simulation::fill_telemetry_summary(SimResult& r) {
  if (hub_ == nullptr) return;
  auto& t = r.telemetry;
  if (const auto* fr = hub_->flight()) {
    t.active = true;
    t.flight_events = fr->events_recorded();
    t.flight_dumps = fr->dumps();
  }
  if (telemetry_ != nullptr) {
    t.active = true;
    t.windows = telemetry_->windows();
    t.phase_changes = telemetry_->phase_changes();
    t.final_phase = telemetry_->phase_id();
    const auto& tm = telemetry_->tm();
    t.tm_bytes = tm.total_bytes();
    t.tm_packets = tm.total_packets();
    t.tm_flows = tm.flows();
    t.tm_skew = tm.total_skew();
    const Cycle now = engine_.now();
    obs::EnergyLedger* ledger = hub_->ledger();
    t.energy_total_mw_cycles = ledger->total_mw_cycles(now);
    for (std::uint32_t b = 0; b < ledger->boards(); ++b) {
      const obs::BoardEnergy e = ledger->board_energy(b, now);
      t.energy_laser_mw_cycles += e.laser_mw_cycles;
      t.energy_serdes_mw_cycles += e.serdes_mw_cycles;
    }
  }
}

ModeComparison compare_modes(SimOptions base) {
  ModeComparison out;
  auto run_mode = [&](const reconfig::NetworkMode& mode) {
    SimOptions o = base;
    o.reconfig.mode = mode;
    Simulation sim(o);
    return sim.run();
  };
  out.np_nb = run_mode(reconfig::NetworkMode::np_nb());
  out.p_nb = run_mode(reconfig::NetworkMode::p_nb());
  out.np_b = run_mode(reconfig::NetworkMode::np_b());
  out.p_b = run_mode(reconfig::NetworkMode::p_b());
  return out;
}

}  // namespace erapid::sim
