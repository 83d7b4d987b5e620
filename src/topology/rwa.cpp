#include "topology/rwa.hpp"

namespace erapid::topology {

LaneMap::LaneMap(const SystemConfig& cfg, const Rwa& rwa)
    : boards_(cfg.num_boards_total()), wavelengths_(cfg.num_wavelengths()), rwa_(&rwa) {
  own_.resize(static_cast<std::size_t>(boards_) * wavelengths_);
  failed_.assign(own_.size(), 0);
  shed_.assign(own_.size(), 0);
  reset_static();
}

void LaneMap::reset_static() {
  for (auto& o : own_) o = BoardId{};
  for (std::uint32_t d = 0; d < boards_; ++d) {
    for (std::uint32_t s = 0; s < boards_; ++s) {
      if (s == d) continue;
      const WavelengthId w = rwa_->wavelength_for(BoardId{s}, BoardId{d});
      if (is_failed(BoardId{d}, w)) continue;  // failed lanes stay dark
      own_[index(BoardId{d}, w)] = BoardId{s};
    }
  }
}

void LaneMap::grant(BoardId d, WavelengthId w, BoardId s) {
  ERAPID_REQUIRE(s.valid() && s != d,
                 "lane owner must be a remote board: s=" << s.value() << " d=" << d.value());
  ERAPID_REQUIRE(!is_failed(d, w), "granting a failed lane: d=" << d.value() << " w=" << w.value());
  ERAPID_REQUIRE(!is_shed(d, w), "granting a shed lane: d=" << d.value() << " w=" << w.value());
  auto& slot = own_[index(d, w)];
  // Lane <-> wavelength bijection: at most one transmitter per (coupler,
  // wavelength) pair, ever.
  ERAPID_INVARIANT(!slot.valid(), "wavelength collision: lane d=" << d.value() << " w="
                                      << w.value() << " already owned by board "
                                      << slot.value());
  slot = s;
}

void LaneMap::release(BoardId d, WavelengthId w) {
  auto& slot = own_[index(d, w)];
  ERAPID_REQUIRE(slot.valid(),
                 "releasing a lane that is already dark: d=" << d.value() << " w=" << w.value());
  slot = BoardId{};
}

void LaneMap::mark_failed(BoardId d, WavelengthId w) {
  const std::size_t i = index(d, w);
  failed_[i] = 1;
  own_[i] = BoardId{};
}

void LaneMap::repair(BoardId d, WavelengthId w) {
  const std::size_t i = index(d, w);
  ERAPID_REQUIRE(failed_[i] != 0,
                 "repairing a lane that is not failed: d=" << d.value() << " w=" << w.value());
  failed_[i] = 0;
  ERAPID_INVARIANT(!own_[i].valid(), "failed lane had an owner");
}

std::uint32_t LaneMap::failed_count() const {
  std::uint32_t n = 0;
  for (const auto f : failed_) {
    if (f) ++n;
  }
  return n;
}

void LaneMap::shed(BoardId d, WavelengthId w) {
  const std::size_t i = index(d, w);
  ERAPID_REQUIRE(shed_[i] == 0,
                 "shedding a lane that is already shed: d=" << d.value() << " w=" << w.value());
  shed_[i] = 1;
}

void LaneMap::unshed(BoardId d, WavelengthId w) {
  const std::size_t i = index(d, w);
  ERAPID_REQUIRE(shed_[i] != 0,
                 "unshedding a lane that is not shed: d=" << d.value() << " w=" << w.value());
  shed_[i] = 0;
}

std::vector<WavelengthId> LaneMap::lanes_of(BoardId s, BoardId d) const {
  std::vector<WavelengthId> out;
  for (std::uint32_t w = 0; w < wavelengths_; ++w) {
    if (owner(d, WavelengthId{w}) == s) out.push_back(WavelengthId{w});
  }
  return out;
}

std::uint32_t LaneMap::lane_count(BoardId s, BoardId d) const {
  std::uint32_t n = 0;
  for (std::uint32_t w = 0; w < wavelengths_; ++w) {
    if (owner(d, WavelengthId{w}) == s) ++n;
  }
  return n;
}

std::uint32_t LaneMap::lit_count() const {
  std::uint32_t n = 0;
  for (const auto& o : own_) {
    if (o.valid()) ++n;
  }
  return n;
}

}  // namespace erapid::topology
