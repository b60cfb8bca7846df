// A sharded, striped-lock deduplication set for search-state keys.
//
// The engine's parallel driver (the explorer's, over World::encode) dedups
// flat `std::vector<int64_t>` encodings keyed by cal::hash_state, with
// many workers inserting concurrently; striping the table over independently
// locked shards keeps the visited check off the contention critical path
// without resorting to a lock-free table (the shards also keep TSan
// happy). The shard index and the bucket hash reuse the same hash value,
// computed once per insert.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "cal/spec.hpp"

namespace cal::par {

class ShardedStateSet {
 public:
  using Key = std::vector<std::int64_t>;

  /// `shard_count` is rounded up to a power of two (default 64 — enough
  /// stripes that a dozen workers rarely collide).
  explicit ShardedStateSet(std::size_t shard_count = 64) {
    std::size_t n = 1;
    while (n < shard_count) n <<= 1;
    mask_ = n - 1;
    shards_ = std::make_unique<Shard[]>(n);
  }

  /// Inserts `key`; returns true iff it was not already present. Thread
  /// safe; exactly one of any set of racing inserts of equal keys wins.
  bool insert(const Key& key) {
    const std::size_t h = hash_state(key);
    Shard& shard = shards_[shard_of(h)];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.set.insert(key).second) return false;
    shard.bytes += key_bytes(key);
    return true;
  }

  /// As above, destructively (spares the copy when the key is new).
  bool insert(Key&& key) {
    const std::size_t h = hash_state(key);
    const std::size_t kb = key_bytes(key);
    Shard& shard = shards_[shard_of(h)];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.set.insert(std::move(key)).second) return false;
    shard.bytes += kb;
    return true;
  }

  [[nodiscard]] bool contains(const Key& key) const {
    const std::size_t h = hash_state(key);
    const Shard& shard = shards_[shard_of(h)];
    std::lock_guard<std::mutex> lock(shard.mu);
    return shard.set.count(key) != 0;
  }

  /// Total elements. Exact once concurrent inserters have quiesced.
  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (std::size_t i = 0; i <= mask_; ++i) {
      std::lock_guard<std::mutex> lock(shards_[i].mu);
      total += shards_[i].set.size();
    }
    return total;
  }

  /// Estimated bytes held by the stored keys (payload + per-node overhead);
  /// the set only grows, so this is also its peak.
  [[nodiscard]] std::size_t bytes() const {
    std::size_t total = 0;
    for (std::size_t i = 0; i <= mask_; ++i) {
      std::lock_guard<std::mutex> lock(shards_[i].mu);
      total += shards_[i].bytes;
    }
    return total;
  }

  /// Estimated footprint of one stored key: payload, vector header, and
  /// eight pointers of per-node overhead — hash-node link + cached hash,
  /// the bucket slot (with growth slack), and the two 16-byte-aligned heap
  /// chunk headers (node + vector data) a node-based table really pays.
  [[nodiscard]] static std::size_t key_bytes(const Key& key) noexcept {
    return key.size() * sizeof(std::int64_t) + sizeof(Key) +
           8 * sizeof(void*);
  }

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return hash_state(k);
    }
  };
  struct alignas(64) Shard {  // own cache line: no lock false-sharing
    mutable std::mutex mu;
    std::unordered_set<Key, KeyHash> set;
    std::size_t bytes = 0;
  };

  // Buckets inside a shard use the hash's low bits; pick the shard from
  // the high bits so the two partitions stay independent.
  [[nodiscard]] std::size_t shard_of(std::size_t h) const noexcept {
    return (h >> 48 ^ h >> 24) & mask_;
  }

  std::unique_ptr<Shard[]> shards_;
  std::size_t mask_ = 0;
};

}  // namespace cal::par
