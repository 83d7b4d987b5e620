// Round-robin arbiter.
//
// The separable VC and switch allocators (router.cpp) are built from these:
// each output (or input) keeps one arbiter; the grant pointer advances past
// the winner so every requester is served within N grants (strong
// fairness). Deterministic: no randomness, state advances only on grants.
//
// Requests arrive as an ascending list of requester indices, which callers
// collect into reusable scratch storage, so a grant never allocates and its
// cost scales with the number of requesters, not the arbiter width.
#pragma once

#include <cstdint>
#include <span>

#include "util/expect.hpp"

namespace erapid::router {

/// Rotating-priority single-winner arbiter over `n` requesters.
class RoundRobinArbiter {
 public:
  explicit RoundRobinArbiter(std::uint32_t n) : n_(n) {
    ERAPID_EXPECT(n > 0, "arbiter needs at least one requester");
  }

  static constexpr std::uint32_t kNoGrant = UINT32_MAX;

  /// Grants the first requester at/after the pointer, wrapping past n-1 to
  /// the lowest requester, and advances the pointer past the winner.
  /// `requesters` must be strictly ascending indices below size(); returns
  /// kNoGrant (pointer unchanged) when it is empty.
  std::uint32_t grant(std::span<const std::uint32_t> requesters) {
    if (requesters.empty()) return kNoGrant;
    ERAPID_EXPECT(requesters.back() < n_, "requester " << requesters.back()
                                                       << " out of range for width " << n_);
    std::uint32_t winner = requesters.front();
    for (const std::uint32_t r : requesters) {
      if (r >= ptr_) {
        winner = r;
        break;
      }
    }
    ptr_ = winner + 1 == n_ ? 0 : winner + 1;
    return winner;
  }

  [[nodiscard]] std::uint32_t size() const { return n_; }
  [[nodiscard]] std::uint32_t pointer() const { return ptr_; }
  void reset() { ptr_ = 0; }

 private:
  std::uint32_t n_;
  std::uint32_t ptr_ = 0;
};

}  // namespace erapid::router
