// Memoization in front of pure spec transition functions.
//
// Specifications are pure state machines: `CaSpec::step`, the sequential
// `SequentialSpec::step`, and `IntervalSpec::round` depend only on their
// arguments. The searches, however, reach the same (state, candidate
// element) query along many different paths — the fired-mask differs while
// the abstract state recurs (stateless specs like the exchanger recur
// maximally: *every* node shares one state). A per-search memo table keyed
// by the exact query therefore trades one hash probe for re-running the
// spec's (allocating) transition enumeration.
//
// Keys are flat `std::vector<int64_t>` encodings built by each checker:
// operations are identified by their index in the search's fixed operation
// array, so the key pins the query exactly without serializing Values.
// Cached outcome vectors are never modified after insertion and the maps
// are node-based, so returned references stay valid across later inserts —
// callers may hold them through recursion.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cal/spec.hpp"

namespace cal {

using StepKey = std::vector<std::int64_t>;

struct StepKeyHash {
  std::size_t operator()(const StepKey& k) const noexcept {
    return hash_state(k);
  }
};

/// Single-threaded memo table of one search.
template <typename Outcome>
class StepMemo {
 public:
  /// The cached outcomes for `key`, or nullptr on a miss.
  [[nodiscard]] const std::vector<Outcome>* find(const StepKey& key) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    return &it->second;
  }

  /// Stores `outcomes` under `key` and returns the stored vector.
  const std::vector<Outcome>& insert(StepKey&& key,
                                     std::vector<Outcome>&& outcomes) {
    return map_.emplace(std::move(key), std::move(outcomes)).first->second;
  }

  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }

 private:
  std::unordered_map<StepKey, std::vector<Outcome>, StepKeyHash> map_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace cal
