// Visited-set policies of the unified search engine.
//
// Every search in this library deduplicates flat `std::vector<int64_t>`
// node encodings, in one of two modes: *exact* (the full encoding is
// stored — zero false-prune risk, and the mode the explorer's sound state
// merging requires) or *fingerprint* (128-bit two-chain fingerprints,
// cal/fingerprint.hpp — 16 bytes per node at a ~2^-64 per-pair false-prune
// risk). VisitedSet puts both modes behind one insert() so the sequential
// driver (engine/search_engine.hpp) never branches on the mode. The
// parallel driver, which only the explorer runs, shares the exact
// par::ShardedStateSet between its workers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "cal/fingerprint.hpp"
#include "cal/parallel/sharded_set.hpp"
#include "cal/spec.hpp"

namespace cal::engine {

using NodeKey = std::vector<std::int64_t>;

/// Single-threaded visited set: exact stored keys or 128-bit fingerprints
/// behind one runtime switch.
class VisitedSet {
 public:
  explicit VisitedSet(bool exact) : exact_(exact) {}

  /// Dedups `key`; true iff it was new. The key is only copied when stored
  /// (exact mode, first sighting), so callers can reuse a scratch buffer.
  bool insert(const NodeKey& key) {
    if (exact_) {
      if (!exact_set_.insert(key).second) return false;
      exact_bytes_ += par::ShardedStateSet::key_bytes(key);
      return true;
    }
    return fp_set_.insert(fingerprint_key(key));
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return exact_ ? exact_set_.size() : fp_set_.size();
  }

  /// Bytes held by the table; the set only grows, so this is its peak
  /// (estimated key+node footprint in exact mode, table bytes otherwise).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return exact_ ? exact_bytes_ : fp_set_.bytes();
  }

 private:
  struct KeyHash {
    std::size_t operator()(const NodeKey& k) const noexcept {
      return hash_state(k);
    }
  };

  bool exact_;
  std::unordered_set<NodeKey, KeyHash> exact_set_;
  std::size_t exact_bytes_ = 0;
  FingerprintSet fp_set_;
};

}  // namespace cal::engine
