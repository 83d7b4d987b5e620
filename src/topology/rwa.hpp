// Static routing and wavelength assignment (RWA) — paper §2.1.
//
// For source board s and destination board d the statically assigned
// wavelength is λ_{B-(d-s)} when d > s and λ_{(d-s)} when s > d, i.e.
//
//     w_static(s, d) = (s - d) mod B
//
// which also yields the inverse map: the static owner of wavelength w at
// destination d's coupler is board (d + w) mod B. Wavelength 0 would be the
// board talking to itself; the static RWA never uses it, so every coupler
// has one spare λ_0 "lane" that DBR may grant (it starts switched off).
//
// A *lane* is the unit of reconfigurable bandwidth: the (destination
// coupler, wavelength) pair. Exactly one board may drive a lane at a time
// (two transmitters lighting the same λ into one coupler would collide);
// LaneMap tracks that ownership and is the mutable state DBR rewrites.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topology/config.hpp"
#include "util/expect.hpp"
#include "util/types.hpp"

namespace erapid::topology {

/// Identifies a lane: wavelength `w` arriving at board `dest`'s coupler.
struct LaneRef {
  BoardId dest;
  WavelengthId wavelength;

  friend bool operator==(const LaneRef&, const LaneRef&) = default;
};

/// Pure static-RWA arithmetic (paper §2.1).
class Rwa {
 public:
  explicit Rwa(std::uint32_t boards) : boards_(boards) {
    ERAPID_REQUIRE(boards >= 2, "RWA needs >= 2 boards, got " << boards);
  }

  /// λ index board `s` uses to reach board `d` under the static assignment.
  [[nodiscard]] WavelengthId wavelength_for(BoardId s, BoardId d) const {
    ERAPID_REQUIRE(s != d, "no wavelength is assigned for self-communication");
    const std::uint32_t w = (s.value() + boards_ - d.value()) % boards_;
    return WavelengthId{w};
  }

  /// Board that statically owns wavelength `w` at destination `d`'s coupler.
  /// For w == 0 this returns `d` itself (the unused self slot).
  [[nodiscard]] BoardId static_owner(BoardId d, WavelengthId w) const {
    return BoardId{(d.value() + w.value()) % boards_};
  }

  /// Destination reached when board `s` lights wavelength `w` (inverse of
  /// wavelength_for for w != 0).
  [[nodiscard]] BoardId static_destination(BoardId s, WavelengthId w) const {
    return BoardId{(s.value() + boards_ - w.value()) % boards_};
  }

  [[nodiscard]] std::uint32_t boards() const { return boards_; }

 private:
  std::uint32_t boards_;
};

/// Mutable lane-ownership matrix own[dest][wavelength] ∈ {BoardId, kFree}.
///
/// Invariants enforced on every mutation:
///  * a lane has at most one owner (coupler wavelength-collision freedom);
///  * the owner is never the destination itself (a board does not transmit
///    optically to its own coupler);
///  * a failed lane (fault injection) is permanently dark: it can never be
///    granted again, so the allocator re-solves around it.
class LaneMap {
 public:
  LaneMap(const SystemConfig& cfg, const Rwa& rwa);

  /// Owner of lane (d, w); !valid() means the lane is dark (laser off).
  [[nodiscard]] BoardId owner(BoardId d, WavelengthId w) const {
    return own_[index(d, w)];
  }

  [[nodiscard]] bool is_free(BoardId d, WavelengthId w) const { return !owner(d, w).valid(); }

  /// Grants lane (d, w) to `s`. The lane must currently be free.
  void grant(BoardId d, WavelengthId w, BoardId s);

  /// Releases lane (d, w); it must currently be owned.
  void release(BoardId d, WavelengthId w);

  /// Permanently fails lane (d, w): evicts the current owner (if any) and
  /// bars all future grants. Idempotent.
  void mark_failed(BoardId d, WavelengthId w);

  /// Repairs a failed lane: grants are allowed again. The lane comes back
  /// free (dark); DBR re-admits it at the next bandwidth window.
  void repair(BoardId d, WavelengthId w);

  /// True if the lane has been marked failed by fault injection.
  [[nodiscard]] bool is_failed(BoardId d, WavelengthId w) const {
    return failed_[index(d, w)] != 0;
  }

  /// Number of lanes marked failed network-wide.
  [[nodiscard]] std::uint32_t failed_count() const;

  /// Sheds lane (d, w): the degradation controller withdrew it from the
  /// DBR pool to cut power. A shed lane is healthy — distinct from failed
  /// (fault injection may still fail/repair it independently) — but the
  /// allocator must not grant it until unshed. Not idempotent: shedding a
  /// shed lane is a controller bug.
  void shed(BoardId d, WavelengthId w);

  /// Re-admits a shed lane into the DBR pool (the hysteresis recovery
  /// path). The lane stays dark until the next bandwidth window grants it.
  void unshed(BoardId d, WavelengthId w);

  /// True if the lane is currently withdrawn by the degradation controller.
  [[nodiscard]] bool is_shed(BoardId d, WavelengthId w) const {
    return shed_[index(d, w)] != 0;
  }

  /// All wavelengths board `s` currently drives toward destination `d`.
  [[nodiscard]] std::vector<WavelengthId> lanes_of(BoardId s, BoardId d) const;

  /// Count of lanes board `s` drives toward `d`.
  [[nodiscard]] std::uint32_t lane_count(BoardId s, BoardId d) const;

  /// Resets to the static RWA: lane (d, w_static(s,d)) owned by s for every
  /// ordered pair, λ_0 lanes free.
  void reset_static();

  [[nodiscard]] std::uint32_t boards() const { return boards_; }
  [[nodiscard]] std::uint32_t wavelengths() const { return wavelengths_; }

  /// Total lit lanes (for power sanity checks).
  [[nodiscard]] std::uint32_t lit_count() const;

 private:
  [[nodiscard]] std::size_t index(BoardId d, WavelengthId w) const {
    ERAPID_REQUIRE(d.value() < boards_ && w.value() < wavelengths_,
                   "lane out of range: d=" << d.value() << " w=" << w.value());
    return static_cast<std::size_t>(d.value()) * wavelengths_ + w.value();
  }

  std::uint32_t boards_;
  std::uint32_t wavelengths_;
  const Rwa* rwa_;
  std::vector<BoardId> own_;
  std::vector<char> failed_;  ///< 1 = lane permanently failed (never granted)
  std::vector<char> shed_;    ///< 1 = lane withdrawn by the degradation controller
};

}  // namespace erapid::topology
