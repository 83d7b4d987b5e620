// Arena allocation for the simulator hot path.
//
// The DES core used to pay one heap allocation per scheduled event (the
// shared cancellation flag) and one per large event closure; at millions of
// events per run that is a measurable slice of the `engine dispatch cost`
// histogram. Arena removes it: a chunked bump allocator. allocate() is a
// pointer increment; nothing is freed individually. reset() rewinds every
// chunk for reuse (capacity is retained), which suits strictly run-scoped
// lifetimes: one Simulation owns one Arena, and everything allocated from
// it dies with the run. Requests larger than the chunk size fall back to a
// dedicated exact-size chunk (still arena-owned, still freed with it).
//
// Lifetime rules (see DESIGN.md §11): Arena::reset() invalidates every
// object allocated from the arena at once — callers reset only between
// runs, never mid-run. Arena is not thread-safe; in a sharded campaign
// each worker owns its whole simulation, arena included.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/expect.hpp"

namespace erapid::util {

/// Chunked bump allocator with run-scoped lifetime.
class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes) : chunk_bytes_(chunk_bytes) {
    ERAPID_EXPECT(chunk_bytes > 0, "arena chunk size must be positive");
  }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two no
  /// stronger than std::max_align_t). Never returns nullptr; grows by one
  /// chunk when the current chunk is exhausted, and gives oversized
  /// requests a dedicated exact-size chunk (the out-of-arena fallback).
  void* allocate(std::size_t bytes, std::size_t align = alignof(std::max_align_t)) {
    ERAPID_EXPECT(align > 0 && (align & (align - 1)) == 0 && align <= alignof(std::max_align_t),
                  "arena alignment must be a power of two <= max_align_t");
    if (bytes == 0) bytes = 1;
    if (bytes > chunk_bytes_) {
      // Oversized: dedicated chunk, inserted *behind* the active chunk so
      // the bump pointer keeps filling the normal-size one.
      Chunk big(bytes);
      big.used = bytes;
      bytes_served_ += bytes;
      chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(active_), std::move(big));
      ++active_;
      return chunks_[active_ - 1].data.get();
    }
    if (active_ == chunks_.size()) chunks_.emplace_back(chunk_bytes_);
    Chunk* c = &chunks_[active_];
    std::size_t at = align_up(c->used, align);
    if (at + bytes > c->size) {
      ++active_;
      if (active_ == chunks_.size()) chunks_.emplace_back(chunk_bytes_);
      c = &chunks_[active_];
      at = align_up(c->used, align);
    }
    c->used = at + bytes;
    bytes_served_ += bytes;
    return c->data.get() + at;
  }

  /// Rewinds every chunk for reuse. All objects previously allocated from
  /// this arena are invalidated at once; capacity is retained.
  void reset() {
    for (auto& c : chunks_) c.used = 0;
    active_ = 0;
    bytes_served_ = 0;
  }

  /// Total bytes handed out since construction/reset (excludes padding).
  [[nodiscard]] std::size_t bytes_served() const { return bytes_served_; }

  /// Number of chunks currently owned (normal + oversized).
  [[nodiscard]] std::size_t chunk_count() const { return chunks_.size(); }

  /// Total bytes of backing storage owned.
  [[nodiscard]] std::size_t capacity_bytes() const {
    std::size_t total = 0;
    for (const auto& c : chunks_) total += c.size;
    return total;
  }

 private:
  struct Chunk {
    explicit Chunk(std::size_t n) : data(new std::byte[n]), size(n) {}
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  static std::size_t align_up(std::size_t n, std::size_t align) {
    return (n + align - 1) & ~(align - 1);
  }

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< index of the chunk the bump pointer lives in
  std::size_t chunk_bytes_;
  std::size_t bytes_served_ = 0;
};

}  // namespace erapid::util
