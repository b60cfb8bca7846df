// Classical linearizability checker (Herlihy & Wing; Wing–Gong search with
// Lowe-style memoization).
//
// This is the notion CAL generalizes (§3 of the paper): a history is
// linearizable w.r.t. a sequential spec iff some completion can be explained
// by a *sequential* history — equivalently, iff it is CAL w.r.t. the
// degenerate CA-spec whose elements are all singletons. That is how it is
// decided: LinChecker runs CalChecker over SeqAsCaSpec(spec) and returns
// the singleton witness as a linearization. Tests check both against a
// brute-force enumeration of linearizations on small random histories.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "cal/ca_trace.hpp"
#include "cal/history.hpp"
#include "cal/spec.hpp"

namespace cal {

/// The CalCheckOptions fields of the same names.
struct LinCheckOptions {
  std::size_t max_visited = 0;  ///< 0 = unlimited
  bool complete_pending = true;
  bool exact_visited = false;
};

struct LinCheckResult {
  bool ok = false;
  bool exhausted = false;
  /// On success: a witness linearization (sequence of completed operations).
  std::optional<std::vector<Operation>> witness;
  /// The CalCheckResult counters of the same names.
  std::size_t visited_states = 0;
  std::size_t visited_bytes = 0;
  std::size_t step_cache_hits = 0;
  std::size_t step_cache_misses = 0;

  explicit operator bool() const noexcept { return ok; }
};

class LinChecker {
 public:
  explicit LinChecker(const SequentialSpec& spec, LinCheckOptions options = {})
      : spec_(spec), options_(options) {}

  [[nodiscard]] LinCheckResult check(const History& history) const;
  [[nodiscard]] LinCheckResult check(const std::vector<OpRecord>& ops) const;

 private:
  const SequentialSpec& spec_;
  LinCheckOptions options_;
};

}  // namespace cal
