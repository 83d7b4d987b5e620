#include "router/router.hpp"

#include <algorithm>

namespace erapid::router {

Router::Router(des::Engine& /*engine*/, des::ClockDomain& domain, std::string name,
               std::uint32_t num_inputs, std::uint32_t vcs_per_input,
               std::uint32_t vc_depth_flits, std::uint32_t credit_delay, RouteFn route)
    : domain_(domain),
      name_(std::move(name)),
      vcs_per_input_(vcs_per_input),
      vc_depth_(vc_depth_flits),
      credit_delay_(credit_delay),
      route_(std::move(route)) {
  ERAPID_EXPECT(num_inputs > 0 && vcs_per_input > 0 && vc_depth_flits > 0,
                "router needs inputs, VCs and buffers");
  inputs_.resize(num_inputs);
  for (auto& in : inputs_) in.vcs.resize(vcs_per_input_);
  ring_.resize(std::size_t{num_inputs} * vcs_per_input_ * vc_depth_);
  input_sa_arb_.reserve(num_inputs);
  for (std::uint32_t i = 0; i < num_inputs; ++i) input_sa_arb_.emplace_back(vcs_per_input_);
  domain_.add(*this);
}

std::uint32_t Router::add_output(const OutputPortConfig& cfg) {
  ERAPID_EXPECT(cfg.sink != nullptr, "output port needs a sink");
  ERAPID_EXPECT(cfg.vcs > 0 && cfg.credits_per_vc > 0, "output port needs downstream buffers");
  ERAPID_EXPECT(cfg.cycles_per_flit > 0, "channel serialization must take >= 1 cycle");
  ERAPID_REQUIRE(counters_.flits_in == 0,
                 "output added to " << name_ << " after the first flit arrived");
  outputs_.emplace_back(cfg, static_cast<std::uint32_t>(inputs_.size()) * vcs_per_input_,
                        static_cast<std::uint32_t>(inputs_.size()));
  return static_cast<std::uint32_t>(outputs_.size() - 1);
}

void Router::set_credit_return(std::uint32_t in_port, CreditFn fn) {
  inputs_[in_port].credit_return = std::move(fn);
}

void Router::accept_flit(std::uint32_t in_port, std::uint32_t vc, const Flit& f, Cycle now) {
  auto& ch = inputs_[in_port].vcs[vc];
  ERAPID_EXPECT(ch.count < vc_depth_,
                "upstream overran input buffer credits on " + name_);
  if (ch.state == VcState::Idle) {  // Idle implies an empty buffer
    ERAPID_EXPECT(f.head, "a body flit reached an idle VC (wormhole order broken)");
    ch.state = VcState::Routing;
    ch.state_since = now;
    ++inputs_[in_port].active_vcs;
    ++active_vcs_;
  }
  std::uint32_t at = ch.head + ch.count;
  if (at >= vc_depth_) at -= vc_depth_;
  ring_[std::size_t{flat(in_port, vc)} * vc_depth_ + at] = f;
  ++ch.count;
  ++counters_.flits_in;
  domain_.wake();
}

void Router::return_credit(std::uint32_t out_port, std::uint32_t vc) {
  auto& out = outputs_[out_port];
  ++out.credits[vc];
  ERAPID_EXPECT(out.credits[vc] <= out.cfg.credits_per_vc,
                "downstream returned more credits than granted on " + name_);
  domain_.wake();
}

void Router::tick(Cycle now) {
  if (active_vcs_ == 0) return;
  if (scratch_.nominee.empty()) size_scratch();  // outputs are final once a flit arrived
  collect_requests(now);
  stage_vc_alloc(now);
  stage_switch(now);
}

void Router::size_scratch() {
  const std::size_t nin = inputs_.size();
  const std::size_t nout = outputs_.size();
  scratch_.va.assign(nout * nin * vcs_per_input_, 0);
  scratch_.va_count.assign(nout, 0);
  scratch_.sa.assign(nout * nin, 0);
  scratch_.sa_count.assign(nout, 0);
  scratch_.nominee.assign(nin, RoundRobinArbiter::kNoGrant);
  scratch_.ready.assign(vcs_per_input_, 0);
}

// One pass over the input VCs runs route computation and collects the VA
// requests and the input-first SA nominations. This equals running the
// stages one after another: each stage only considers VCs whose state is
// older than this cycle (now > state_since), and every transition stamps
// state_since = now, so no stage can see another's same-tick transition.
// Requests are appended in ascending VC order, as grant() requires. A port
// with no non-Idle VC is skipped: the scan would find nothing to do there.
void Router::collect_requests(Cycle now) {
  auto& s = scratch_;
  const std::uint32_t ninputs = static_cast<std::uint32_t>(inputs_.size());
  const std::uint32_t nflat = ninputs * vcs_per_input_;
  std::fill(s.va_count.begin(), s.va_count.end(), 0);
  std::fill(s.sa_count.begin(), s.sa_count.end(), 0);
  for (std::uint32_t i = 0; i < ninputs; ++i) {
    if (inputs_[i].active_vcs == 0) {
      s.nominee[i] = RoundRobinArbiter::kNoGrant;
      continue;
    }
    std::uint32_t nready = 0;
    for (std::uint32_t v = 0; v < vcs_per_input_; ++v) {
      auto& ch = inputs_[i].vcs[v];
      if (ch.state == VcState::Idle || now <= ch.state_since) continue;
      if (ch.state == VcState::Routing) {
        const Flit& head = front(i, v);
        ERAPID_EXPECT(head.head, "RC saw a non-head flit at the front of a routing VC");
        ch.out_port = route_(head);
        ERAPID_EXPECT(ch.out_port < outputs_.size(), "route function returned bad port");
        ch.state = VcState::VcAlloc;
        ch.state_since = now;
        ++counters_.packets_routed;
      } else if (ch.state == VcState::VcAlloc) {
        s.va[ch.out_port * nflat + s.va_count[ch.out_port]++] = flat(i, v);
      } else if (ch.count > 0) {  // Active
        const auto& out = outputs_[ch.out_port];
        if (out.credits[ch.out_vc] == 0) continue;  // downstream buffer full
        if (out.busy_until > now) continue;         // channel serializing
        s.ready[nready++] = v;
      }
    }
    s.nominee[i] = input_sa_arb_[i].grant({s.ready.data(), nready});
    if (s.nominee[i] == RoundRobinArbiter::kNoGrant) continue;
    const std::uint32_t o = inputs_[i].vcs[s.nominee[i]].out_port;
    s.sa[o * ninputs + s.sa_count[o]++] = i;
  }
}

void Router::stage_vc_alloc(Cycle now) {
  const std::uint32_t nflat = static_cast<std::uint32_t>(inputs_.size()) * vcs_per_input_;
  for (std::uint32_t o = 0; o < outputs_.size(); ++o) {
    std::uint32_t n = scratch_.va_count[o];
    if (n == 0) continue;
    auto& out = outputs_[o];
    std::uint32_t* const req = &scratch_.va[o * nflat];
    for (std::uint32_t dv = 0; dv < out.cfg.vcs && n > 0; ++dv) {
      if (out.vc_taken[dv]) continue;
      const std::uint32_t winner = out.vc_arb.grant({req, n});
      std::uint32_t* const pos = std::find(req, req + n, winner);
      std::copy(pos + 1, req + n, pos);  // drop the winner, keep the order
      --n;
      auto& ch = inputs_[winner / vcs_per_input_].vcs[winner % vcs_per_input_];
      ch.state = VcState::Active;
      ch.state_since = now;
      ch.out_vc = dv;
      out.vc_taken[dv] = 1;
      ++counters_.va_grants;
    }
  }
}

void Router::stage_switch(Cycle now) {
  // Output-first phase: each output port grants one nominating input.
  const std::uint32_t ninputs = static_cast<std::uint32_t>(inputs_.size());
  for (std::uint32_t o = 0; o < outputs_.size(); ++o) {
    const std::uint32_t nreq = scratch_.sa_count[o];
    if (nreq == 0) continue;
    auto& out = outputs_[o];
    const std::uint32_t wi = out.sa_arb.grant({&scratch_.sa[o * ninputs], nreq});
    counters_.sa_conflicts += nreq - 1;
    ++counters_.sa_grants;

    // Switch traversal for the winner.
    const std::uint32_t vc = scratch_.nominee[wi];
    auto& ch = inputs_[wi].vcs[vc];
    const Flit f = front(wi, vc);
    if (++ch.head == vc_depth_) ch.head = 0;
    --ch.count;
    ++counters_.flits_out;

    --out.credits[ch.out_vc];
    out.busy_until = now + out.cfg.cycles_per_flit;

    // Deliver after channel serialization + wire delay.
    const Cycle arrive = now + out.cfg.cycles_per_flit + out.cfg.wire_delay;
    FlitReceiver* sink = out.cfg.sink;
    const std::uint32_t dvc = ch.out_vc;
    domain_.post(arrive, [sink, f, dvc, arrive] { sink->receive_flit(f, dvc, arrive); });

    // Return one input-buffer credit upstream.
    if (inputs_[wi].credit_return) {
      const Cycle freed = now + credit_delay_;
      domain_.post(freed, [this, wi, vc, freed] { inputs_[wi].credit_return(vc, freed); });
    }

    if (f.tail) {
      out.vc_taken[ch.out_vc] = 0;
      if (ch.count == 0) {
        ch.state = VcState::Idle;
        --inputs_[wi].active_vcs;
        --active_vcs_;
      } else {
        ERAPID_EXPECT(front(wi, vc).head, "flit after tail must be a head (wormhole order)");
        ch.state = VcState::Routing;
      }
      ch.state_since = now;
    }
  }
}

bool Router::quiescent() const { return active_vcs_ == 0; }

}  // namespace erapid::router
