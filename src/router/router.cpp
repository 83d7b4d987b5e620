#include "router/router.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace erapid::router {

namespace {

constexpr std::uint32_t kWordBits = 64;

/// Words of a bitset over `n` indices.
std::size_t words_for(std::size_t n) { return (n + kWordBits - 1) / kWordBits; }

/// Index of the lowest set bit of `bits`, the `word`-th word of a bitset.
std::uint32_t lowest_index(std::size_t word, std::uint64_t bits) {
  return static_cast<std::uint32_t>(word * kWordBits) +
         static_cast<std::uint32_t>(std::countr_zero(bits));
}

void set_bit(std::vector<std::uint64_t>& bits, std::uint32_t i) {
  bits[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
}

void clear_bit(std::vector<std::uint64_t>& bits, std::uint32_t i) {
  bits[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
}

}  // namespace

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
  ERAPID_EXPECT(vcs_per_input <= kMaxVcsPerInput,
                "router " << name_ << " has " << vcs_per_input << " VCs per input, more than "
                          << kMaxVcsPerInput);
  inputs_.resize(num_inputs);
  live_ports_.assign(words_for(num_inputs), 0);
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
    set_live(in_port, vc);
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

void Router::set_live(std::uint32_t in_port, std::uint32_t vc) {
  inputs_[in_port].live |= std::uint64_t{1} << vc;
  set_bit(live_ports_, in_port);
}

void Router::clear_live(std::uint32_t in_port, std::uint32_t vc) {
  auto& in = inputs_[in_port];
  in.live &= ~(std::uint64_t{1} << vc);
  if (in.live == 0) clear_bit(live_ports_, in_port);
}

void Router::tick(Cycle now) {
  if (quiescent()) return;
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
  scratch_.va_outs.assign(words_for(nout), 0);
  scratch_.sa.assign(nout * nin, 0);
  scratch_.sa_count.assign(nout, 0);
  scratch_.sa_outs.assign(words_for(nout), 0);
  scratch_.nominee.assign(nin, RoundRobinArbiter::kNoGrant);
  scratch_.ready.assign(vcs_per_input_, 0);
}

// One pass over the live input VCs runs route computation and collects
// the VA requests and the input-first SA nominations. This equals running
// the stages one after another: each stage only considers VCs whose state
// is older than this cycle (now > state_since), and every transition
// stamps state_since = now, so no stage can see another's same-tick
// transition. Ports and VCs are walked in ascending bit order, so requests
// are appended in ascending VC order, as grant() requires; an Idle port or
// VC has nothing to do, so walking only the live ones changes nothing.
void Router::collect_requests(Cycle now) {
  auto& s = scratch_;
  const std::uint32_t ninputs = static_cast<std::uint32_t>(inputs_.size());
  const std::uint32_t nflat = ninputs * vcs_per_input_;
  for (std::size_t w = 0; w < live_ports_.size(); ++w) {
    for (std::uint64_t ports = live_ports_[w]; ports != 0; ports &= ports - 1) {
      const std::uint32_t i = lowest_index(w, ports);
      auto& in = inputs_[i];
      std::uint32_t nready = 0;
      for (std::uint64_t vcs = in.live; vcs != 0; vcs &= vcs - 1) {
        const std::uint32_t v = lowest_index(0, vcs);
        auto& ch = in.vcs[v];
        if (now <= ch.state_since) continue;
        if (ch.state == VcState::Routing) {
          const Flit& head = front(i, v);
          ERAPID_EXPECT(head.head, "RC saw a non-head flit at the front of a routing VC");
          ch.out_port = route_(head);
          ERAPID_EXPECT(ch.out_port < outputs_.size(), "route function returned bad port");
          ch.state = VcState::VcAlloc;
          ch.state_since = now;
          ++counters_.packets_routed;
        } else if (ch.state == VcState::VcAlloc) {
          const std::uint32_t o = ch.out_port;
          if (s.va_count[o] == 0) set_bit(s.va_outs, o);
          s.va[o * nflat + s.va_count[o]++] = flat(i, v);
        } else if (ch.count > 0) {  // Active
          const auto& out = outputs_[ch.out_port];
          if (out.credits[ch.out_vc] == 0) continue;  // downstream buffer full
          if (out.busy_until > now) continue;         // channel serializing
          s.ready[nready++] = v;
        }
      }
      s.nominee[i] = input_sa_arb_[i].grant({s.ready.data(), nready});
      if (s.nominee[i] == RoundRobinArbiter::kNoGrant) continue;
      const std::uint32_t o = in.vcs[s.nominee[i]].out_port;
      if (s.sa_count[o] == 0) set_bit(s.sa_outs, o);
      s.sa[o * ninputs + s.sa_count[o]++] = i;
    }
  }
}

// Visits, in ascending order, only the outputs collect_requests gave a VA
// request; consuming a list resets its count for the next tick.
void Router::stage_vc_alloc(Cycle now) {
  auto& s = scratch_;
  const std::uint32_t nflat = static_cast<std::uint32_t>(inputs_.size()) * vcs_per_input_;
  for (std::size_t w = 0; w < s.va_outs.size(); ++w) {
    for (std::uint64_t outs = std::exchange(s.va_outs[w], 0); outs != 0; outs &= outs - 1) {
      const std::uint32_t o = lowest_index(w, outs);
      std::uint32_t n = std::exchange(s.va_count[o], 0);
      auto& out = outputs_[o];
      std::uint32_t* const req = &s.va[o * nflat];
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
}

void Router::stage_switch(Cycle now) {
  // Output-first phase: each output port with a nomination grants one
  // nominating input, in ascending output order.
  auto& s = scratch_;
  const std::uint32_t ninputs = static_cast<std::uint32_t>(inputs_.size());
  for (std::size_t w = 0; w < s.sa_outs.size(); ++w) {
    for (std::uint64_t outs = std::exchange(s.sa_outs[w], 0); outs != 0; outs &= outs - 1) {
      const std::uint32_t o = lowest_index(w, outs);
      const std::uint32_t nreq = std::exchange(s.sa_count[o], 0);
      auto& out = outputs_[o];
      const std::uint32_t wi = out.sa_arb.grant({&s.sa[o * ninputs], nreq});
      counters_.sa_conflicts += nreq - 1;
      ++counters_.sa_grants;

      // Switch traversal for the winner.
      const std::uint32_t vc = s.nominee[wi];
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
          clear_live(wi, vc);
        } else {
          ERAPID_EXPECT(front(wi, vc).head, "flit after tail must be a head (wormhole order)");
          ch.state = VcState::Routing;
        }
        ch.state_since = now;
      }
    }
  }
}

bool Router::quiescent() const {
  return std::all_of(live_ports_.begin(), live_ports_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

}  // namespace erapid::router
