#include "cal/lin_checker.hpp"

#include <memory>

#include "cal/cal_checker.hpp"

namespace cal {

namespace {

/// CalChecker over a non-owning singleton adapter of `spec`, with the
/// singleton witness read back as a linearization.
template <typename Input>
LinCheckResult check_via_cal(const SequentialSpec& spec,
                             const LinCheckOptions& o, const Input& input) {
  const SeqAsCaSpec adapter(
      std::shared_ptr<const SequentialSpec>(std::shared_ptr<void>(), &spec));
  const CalCheckResult r =
      CalChecker(adapter, {.max_visited = o.max_visited,
                           .complete_pending = o.complete_pending,
                           .exact_visited = o.exact_visited})
          .check(input);
  LinCheckResult result{.ok = r.ok,
                        .exhausted = r.exhausted,
                        .witness = std::nullopt,
                        .visited_states = r.visited_states,
                        .visited_bytes = r.visited_bytes,
                        .step_cache_hits = r.step_cache_hits,
                        .step_cache_misses = r.step_cache_misses};
  if (r.witness) {
    result.witness.emplace().reserve(r.witness->size());
    for (const CaElement& element : r.witness->elements()) {
      result.witness->push_back(element.ops().front());
    }
  }
  return result;
}

}  // namespace

LinCheckResult LinChecker::check(const std::vector<OpRecord>& ops) const {
  return check_via_cal(spec_, options_, ops);
}

LinCheckResult LinChecker::check(const History& history) const {
  return check_via_cal(spec_, options_, history);
}

}  // namespace cal
