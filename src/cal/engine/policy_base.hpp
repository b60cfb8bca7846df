// Shared plumbing of the engine policies (engine/{cal,interval}_policy,
// incremental.cpp's StreamPolicy and sched/explorer.cpp's ExplorePolicy).
//
// Each of these policies is a template over `bool kShared`: the false
// instantiation is what the sequential driver runs (plain counters, the
// node-based StepMemo), the true instantiation is safe to share across the
// parallel driver's workers (relaxed atomic counters, the striped-lock
// ShardedStepMemo). These aliases keep that choice in one place so the
// policies themselves contain only search semantics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "cal/engine/visited.hpp"
#include "cal/history_index.hpp"
#include "cal/step_cache.hpp"

namespace cal::engine {

/// The spec-step memo matching the driver: per-search node-based map for
/// the sequential driver, sharded striped-lock map for the parallel one.
/// Both hand out references that stay valid across the recursion.
template <bool kShared, typename Outcome>
using StepMemoFor =
    std::conditional_t<kShared, ShardedStepMemo<Outcome>, StepMemo<Outcome>>;

/// A diagnostic counter matching the driver.
template <bool kShared>
using Counter =
    std::conditional_t<kShared, std::atomic<std::size_t>, std::size_t>;

inline void bump(std::size_t& c) noexcept { ++c; }
inline void bump(std::atomic<std::size_t>& c) noexcept {
  c.fetch_add(1, std::memory_order_relaxed);
}

/// Raises a high-water mark to `value`.
inline void raise_to(std::size_t& c, std::size_t value) noexcept {
  if (value > c) c = value;
}
inline void raise_to(std::atomic<std::size_t>& c, std::size_t value) noexcept {
  std::size_t seen = c.load(std::memory_order_relaxed);
  while (value > seen &&
         !c.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

inline std::size_t read_counter(const std::size_t& c) noexcept { return c; }
inline std::size_t read_counter(const std::atomic<std::size_t>& c) noexcept {
  return c.load(std::memory_order_relaxed);
}

/// The (spec state, fired/closed masks...) node encoding every checker
/// policy dedups on: a length-prefixed state followed by the mask words.
/// `out` is a reusable scratch buffer.
inline void encode_state_and_masks(const SpecState& state,
                                   std::initializer_list<const StateMask*>
                                       masks,
                                   NodeKey& out) {
  out.clear();
  std::size_t mask_words = 0;
  for (const StateMask* m : masks) mask_words += m->size();
  out.reserve(state.size() + mask_words + 1);
  out.push_back(static_cast<std::int64_t>(state.size()));
  out.insert(out.end(), state.begin(), state.end());
  for (const StateMask* m : masks) {
    for (std::uint64_t w : *m) out.push_back(static_cast<std::int64_t>(w));
  }
}

}  // namespace cal::engine
