#include "workload/tenants.hpp"

#include <string>
#include <utility>

#include "obs/probe.hpp"
#include "traffic/generator.hpp"
#include "util/expect.hpp"

namespace erapid::workload {

namespace {

/// Zero-padded tenant tag ("07") so metric names sort numerically.
std::string tenant_tag(std::uint32_t t) {
  return (t < 10 ? "0" : "") + std::to_string(t);
}

}  // namespace

TenantFleet::TenantFleet(des::Engine& engine, TenantFleetConfig cfg,
                         std::vector<traffic::PatternKind> mix, util::Rng master,
                         InjectFn inject, obs::Hub* hub)
    : engine_(engine), cfg_(cfg), inject_(std::move(inject)), hub_(hub) {
  ERAPID_REQUIRE(cfg_.num_nodes >= 2, "tenant fleet needs >= 2 nodes");
  ERAPID_REQUIRE(cfg_.tenants >= 1, "tenant fleet needs >= 1 tenant");
  ERAPID_REQUIRE(cfg_.packet_flits >= 1 && cfg_.flit_bytes >= 1,
                 "packet geometry must be non-degenerate");
  ERAPID_REQUIRE(cfg_.session_rate_pkt_cycle > 0.0, "session rate must be positive");
  ERAPID_REQUIRE(cfg_.session_cycles >= 1 && cfg_.session_gap_mean >= 1,
                 "session shape must be non-degenerate");
  ERAPID_REQUIRE(!mix.empty(), "tenant fleet needs a non-empty pattern mix");
  ERAPID_REQUIRE(static_cast<bool>(inject_), "tenant fleet needs an inject callback");
  patterns_.reserve(mix.size());
  for (const traffic::PatternKind k : mix) {
    patterns_.push_back(std::make_unique<traffic::TrafficPattern>(
        k, cfg_.num_nodes, cfg_.hotspot_fraction, NodeId{cfg_.hotspot_node}));
  }
  tenants_.reserve(cfg_.tenants);
  tenant_bytes_.assign(cfg_.tenants, 0);
  for (std::uint32_t t = 0; t < cfg_.tenants; ++t) {
    // Forked in tenant order: tenant t's stream depends only on (seed, t).
    tenants_.push_back(Tenant{master.fork(), {}, 0});
  }
  if (hub_ != nullptr && hub_->enabled()) {
    m_tenant_bytes_.reserve(cfg_.tenants);
    for (std::uint32_t t = 0; t < cfg_.tenants; ++t) {
      m_tenant_bytes_.push_back(
          hub_->metrics().counter("workload.tenant" + tenant_tag(t) + ".bytes"));
    }
    m_tenant_series_ = hub_->metrics().series("workload.tenant_bytes");
  }
}

void TenantFleet::start() {
  ERAPID_REQUIRE(!started_, "TenantFleet started twice");
  started_ = true;
  for (std::uint32_t t = 0; t < cfg_.tenants; ++t) schedule_arrival(t);
}

void TenantFleet::stop() {
  ERAPID_REQUIRE(started_, "TenantFleet stopped before start");
  for (Tenant& t : tenants_) t.next_arrival.cancel();
  for (auto& s : sessions_) {
    // Truncated sessions do not count as completed.
    s->active = false;
    s->next_inject.cancel();
    s->end_event.cancel();
  }
  // Delivered-bytes distribution: one sample per tenant, in tenant order.
  for (const std::uint64_t b : tenant_bytes_) {
    ERAPID_OBSERVE(hub_, m_tenant_series_, static_cast<double>(b));
  }
}

void TenantFleet::schedule_arrival(std::uint32_t tenant) {
  const CycleDelta gap = traffic::geometric_gap(
      tenants_[tenant].rng, 1.0 / static_cast<double>(cfg_.session_gap_mean));
  tenants_[tenant].next_arrival = engine_.schedule(
      gap,
      [this, tenant] {
        begin_session(tenant);
        schedule_arrival(tenant);
      },
      "workload.arrival");
}

void TenantFleet::begin_session(std::uint32_t tenant) {
  auto session = std::make_unique<Session>();
  session->tenant = tenant;
  session->rng = tenants_[tenant].rng.fork();
  session->pattern =
      static_cast<std::size_t>(tenants_[tenant].rng.next_below(patterns_.size()));
  session->active = true;
  ++tenants_[tenant].sessions_started;
  const std::size_t idx = sessions_.size();
  sessions_.push_back(std::move(session));
  sessions_[idx]->end_event = engine_.schedule(
      cfg_.session_cycles, [this, idx] { end_session(idx); }, "workload.session_end");
  schedule_inject(idx);
}

void TenantFleet::end_session(std::size_t session) {
  Session& s = *sessions_[session];
  s.active = false;
  s.next_inject.cancel();
  ++sessions_completed_;
}

void TenantFleet::schedule_inject(std::size_t session) {
  Session& s = *sessions_[session];
  const CycleDelta gap = traffic::geometric_gap(s.rng, cfg_.session_rate_pkt_cycle);
  s.next_inject =
      engine_.schedule(gap, [this, session] { inject(session); }, "workload.tenant_inject");
}

void TenantFleet::inject(std::size_t session) {
  Session& s = *sessions_[session];
  if (!s.active) return;
  const Cycle now = engine_.now();
  router::Packet p;
  p.seq = next_seq_++;
  p.src = NodeId{static_cast<std::uint32_t>(s.rng.next_below(cfg_.num_nodes))};
  p.dst = patterns_[s.pattern]->destination(p.src, s.rng);
  p.flits = cfg_.packet_flits;
  p.created = now;
  p.labelled = labelling_;
  p.tenant = s.tenant;
  ++generated_;
  inject_(p, now);
  schedule_inject(session);
}

void TenantFleet::on_delivered(const router::Packet& p, Cycle now) {
  ERAPID_REQUIRE(p.tenant < tenant_bytes_.size(),
                 "delivered packet names unknown tenant " << p.tenant << " at cycle " << now);
  const auto bytes = static_cast<std::uint64_t>(p.flits) * cfg_.flit_bytes;
  tenant_bytes_[p.tenant] += bytes;
  ++delivered_;
  if (!m_tenant_bytes_.empty()) ERAPID_COUNTER(hub_, m_tenant_bytes_[p.tenant], bytes);
}

WorkloadStats TenantFleet::stats() const {
  WorkloadStats st;
  st.kind = "tenants";
  st.tenants = cfg_.tenants;
  for (const Tenant& t : tenants_) st.sessions_started += t.sessions_started;
  st.sessions_completed = sessions_completed_;
  st.packets_injected = generated_;
  st.packets_delivered = delivered_;
  st.tenant_delivered_bytes = tenant_bytes_;
  for (const std::uint64_t b : tenant_bytes_) st.bytes_delivered += b;
  return st;
}

}  // namespace erapid::workload
