// Shared plumbing of the checker policies (engine/{cal,interval}_policy and
// incremental.cpp's StreamPolicy). They run on the sequential driver only,
// with plain counters, per-depth scratch and the node-based StepMemo; the
// one policy the parallel driver shares between workers is
// sched/explorer.cpp's ExplorePolicy<kShared>.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cal/engine/visited.hpp"
#include "cal/history_index.hpp"

namespace cal::engine {

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
