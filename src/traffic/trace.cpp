#include "traffic/trace.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/expect.hpp"

namespace erapid::traffic {

void Trace::add(Cycle cycle, NodeId src, NodeId dst) {
  if (!events_.empty() && cycle < events_.back().cycle) sorted_ = false;
  events_.push_back({cycle, src, dst});
}

void Trace::finalize(std::uint32_t num_nodes) {
  if (!sorted_) {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const TraceEvent& a, const TraceEvent& b) { return a.cycle < b.cycle; });
    sorted_ = true;
  }
  for (const auto& e : events_) {
    ERAPID_EXPECT(e.src.value() < num_nodes && e.dst.value() < num_nodes,
                  "trace event references a node outside the system");
    ERAPID_EXPECT(e.src != e.dst, "trace event sends a node to itself");
  }
}

void Trace::save(std::ostream& out) const {
  out << "# erapid-trace v1\n";
  for (const auto& e : events_) {
    out << e.cycle << ' ' << e.src.value() << ' ' << e.dst.value() << '\n';
  }
}

void Trace::save_file(const std::string& path) const {
  std::ofstream out(path);
  ERAPID_EXPECT(static_cast<bool>(out), "cannot open trace file for writing: " + path);
  save(out);
  out.close();
  ERAPID_EXPECT(static_cast<bool>(out), "trace file write failed: " + path);
}

Trace Trace::load(std::istream& in, std::uint32_t num_nodes) {
  Trace t;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::uint64_t cycle = 0;
    std::uint32_t src = 0, dst = 0;
    ls >> cycle >> src >> dst;
    ERAPID_EXPECT(!ls.fail(),
                  "malformed trace line " + std::to_string(lineno) + ": '" + line + "'");
    t.add(cycle, NodeId{src}, NodeId{dst});
  }
  t.finalize(num_nodes);
  return t;
}

Trace Trace::load_file(const std::string& path, std::uint32_t num_nodes) {
  std::ifstream in(path);
  ERAPID_EXPECT(static_cast<bool>(in), "cannot open trace file: " + path);
  return load(in, num_nodes);
}

Trace make_stencil_trace(std::uint32_t num_nodes, std::uint32_t steps, Cycle period,
                         Cycle start) {
  ERAPID_EXPECT(num_nodes >= 2, "stencil needs >= 2 nodes");
  Trace t;
  for (std::uint32_t step = 0; step < steps; ++step) {
    const Cycle when = start + static_cast<Cycle>(step) * period;
    for (std::uint32_t n = 0; n < num_nodes; ++n) {
      if (n + 1 < num_nodes) t.add(when, NodeId{n}, NodeId{n + 1});
      if (n > 0) t.add(when, NodeId{n}, NodeId{n - 1});
    }
  }
  t.finalize(num_nodes);
  return t;
}

Trace make_alltoall_trace(std::uint32_t num_nodes, std::uint32_t rounds, Cycle period,
                          Cycle stagger, Cycle start) {
  ERAPID_EXPECT(num_nodes >= 2, "all-to-all needs >= 2 nodes");
  Trace t;
  for (std::uint32_t r = 0; r < rounds; ++r) {
    const Cycle when = start + static_cast<Cycle>(r) * period;
    for (std::uint32_t n = 0; n < num_nodes; ++n) {
      for (std::uint32_t k = 1; k < num_nodes; ++k) {
        // Rotating destination order spreads the burst across lanes.
        const std::uint32_t d = (n + k) % num_nodes;
        t.add(when + static_cast<Cycle>(k - 1) * stagger, NodeId{n}, NodeId{d});
      }
    }
  }
  t.finalize(num_nodes);
  return t;
}

Trace make_master_worker_trace(std::uint32_t num_nodes, std::uint32_t iterations,
                               Cycle compute, Cycle start) {
  ERAPID_EXPECT(num_nodes >= 2, "master/worker needs >= 2 nodes");
  Trace t;
  Cycle when = start;
  for (std::uint32_t it = 0; it < iterations; ++it) {
    for (std::uint32_t w = 1; w < num_nodes; ++w) {
      t.add(when, NodeId{0}, NodeId{w});  // scatter
    }
    when += compute;
    for (std::uint32_t w = 1; w < num_nodes; ++w) {
      t.add(when, NodeId{w}, NodeId{0});  // gather
    }
    when += compute;
  }
  t.finalize(num_nodes);
  return t;
}

}  // namespace erapid::traffic
