#include "sim/node_interface.hpp"

namespace erapid::sim {

NodeInterface::NodeInterface(des::Engine& engine, router::Router& router,
                             std::uint32_t in_port, std::uint32_t vcs,
                             std::uint32_t credits_per_vc, std::uint32_t cycles_per_flit)
    : injector_(engine, router, in_port, vcs, credits_per_vc, cycles_per_flit) {
  injector_.set_idle_callback([this](Cycle now) { pump(now); });
}

void NodeInterface::submit(const router::Packet& p, Cycle now) {
  queue_.push_back(p);
  pump(now);
}

void NodeInterface::pump(Cycle now) {
  if (queue_.empty() || injector_.busy()) return;
  const bool ok = injector_.try_start(queue_.front(), now);
  ERAPID_EXPECT(ok, "idle NI injector refused a packet");
  queue_.pop_front();
}

}  // namespace erapid::sim
