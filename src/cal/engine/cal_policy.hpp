// CAL membership (Def. 6) as a search-engine policy.
//
// Nodes are Wing–Gong states (spec state, fired-set, #completed fired);
// successors fire one CA-element: a non-empty subset of enabled operations
// of one object (enabled = every real-time predecessor already fired, so
// candidate sets are automatically ≺H-antichains), enumerated largest
// first with CaSpec::compatible pruning partial subsets together with all
// their supersets, and each subset stepped through the per-search spec
// memo. Pending invocations participate only when completion is allowed.
// The goal is every completed operation fired. Labels are the fired
// CA-elements (pointers into the memo), so an accept-mode witness is
// exactly a trace T ∈ 𝒯 with H^c ⊑CAL T. successors() is the library's one
// CA-element successor relation: the streaming window search
// (engine/incremental.cpp) and LinChecker (over SeqAsCaSpec) run on it.
//
// The expansion order replicates the pre-engine checker line for line —
// with exact dedup this policy is bit-for-bit the historical CalChecker,
// witness included. It runs on the sequential driver only (plain counters,
// one scratch buffer set per depth).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cal/ca_trace.hpp"
#include "cal/engine/policy_base.hpp"
#include "cal/engine/search_engine.hpp"
#include "cal/history.hpp"
#include "cal/history_index.hpp"
#include "cal/spec.hpp"
#include "cal/step_cache.hpp"

namespace cal::engine {

/// Memo key for spec.step(state, object, element): the chosen operations
/// are identified by their indices in the search's fixed array, so the key
/// pins the query exactly without serializing Values (cal/step_cache.hpp).
inline void encode_cal_step_key(const SpecState& state, Symbol object,
                                const std::vector<std::size_t>& chosen,
                                StepKey& out) {
  out.clear();
  out.reserve(2 + chosen.size() + state.size());
  out.push_back(static_cast<std::int64_t>(object.id()));
  out.push_back(static_cast<std::int64_t>(chosen.size()));
  for (std::size_t i : chosen) {
    out.push_back(static_cast<std::int64_t>(i));
  }
  out.insert(out.end(), state.begin(), state.end());
}

class CalPolicy {
 public:
  struct Node {
    SpecState state;
    StateMask fired;
    std::size_t fired_completed;
  };
  using Label = const CaElement*;  ///< into the memo, which never erases

  CalPolicy(const std::vector<OpRecord>& ops, const CaSpec& spec,
            bool complete_pending, bool symmetry = false)
      : ops_(ops),
        spec_(spec),
        complete_pending_(complete_pending),
        index_(ops) {
    if (symmetry) build_groups();
    // Every element fires an unfired operation, so depth <= ops.size().
    scratch_.resize(ops.size() + 1);
  }

  std::vector<Node> roots() const {
    return {Node{spec_.initial(), StateMask((ops_.size() + 63) / 64, 0), 0}};
  }

  bool is_goal(const Node& n) const {
    return n.fired_completed == index_.completed();
  }

  /// With symmetry groups, the dedup key identifies nodes up to swapping
  /// fired/unfired status *within* a group: grouped bits are cleared from
  /// the fired mask and replaced by per-group fired counts. Sound because
  /// group members are spec-interchangeable (CaSpec::symmetry_class) and
  /// have identical real-time constraints in both directions — the same
  /// predecessor prefix and the same successor set — so any within-group
  /// permutation maps enabled candidate sets to enabled candidate sets and
  /// spec steps to equal spec steps (DESIGN.md).
  void encode(const Node& n, NodeKey& out) const {
    if (groups_.empty()) {
      encode_state_and_masks(n.state, {&n.fired}, out);
      return;
    }
    StateMask masked = n.fired;
    for (std::size_t w = 0; w < masked.size(); ++w) {
      masked[w] &= ~grouped_mask_[w];
    }
    encode_state_and_masks(n.state, {&masked}, out);
    for (const std::vector<std::size_t>& members : groups_) {
      std::int64_t fired = 0;
      for (std::size_t i : members) {
        if (mask_test(n.fired, i)) ++fired;
      }
      out.push_back(fired);
    }
  }

  void on_enter(const Node&, std::size_t) {}

  /// Dedup-hit attribution (engine hook): a hit on a node where some group
  /// is *partially* fired may have merged a genuinely distinct fired set —
  /// an upper bound on the merges classic dedup would have missed.
  void on_dedup(const Node& n) {
    if (groups_.empty()) return;
    for (const std::vector<std::size_t>& members : groups_) {
      std::size_t fired = 0;
      for (std::size_t i : members) {
        if (mask_test(n.fired, i)) ++fired;
      }
      if (fired != 0 && fired != members.size()) {
        ++symmetry_merged_;
        return;
      }
    }
  }

  template <typename Emit>
  void expand(const Node& node, std::size_t depth,
              const std::vector<Label>& /*prefix*/, Emit&& emit) {
    successors(node, depth,
               [&emit](Node&& next, const std::vector<std::size_t>&,
                       const CaElement& element) {
                 return emit(std::move(next), &element);
               });
  }

  /// Calls fire(Node&& next, chosen, element) for each CA-element successor
  /// of `node` (at `depth`), in expansion order: `chosen` are the fired
  /// operations' indices, `element` the memoized spec element with its
  /// decided returns. A false return stops.
  template <typename Fire>
  void successors(const Node& node, std::size_t depth, Fire&& fire) {
    Scratch& scratch = scratch_[depth];
    // Collect enabled operations. Pending invocations participate only
    // when completion is allowed.
    std::vector<std::size_t>& enabled = scratch.enabled;
    enabled.clear();
    const std::size_t prefix = index_.fired_prefix(node.fired);
    bool one_object = true;
    for (std::size_t i = 0, end = index_.scan_end(prefix); i < end; ++i) {
      if (!index_.enabled(i, node.fired, prefix)) continue;
      if (ops_[i].is_pending() && !complete_pending_) continue;
      one_object = one_object && (enabled.empty() ||
                                  ops_[i].op.object ==
                                      ops_[enabled.front()].op.object);
      enabled.push_back(i);
    }
    if (enabled.empty()) return;

    // Each object's candidates are enumerated on their own. One object —
    // the common case — needs no grouping map.
    if (one_object) {
      fire_object(node, ops_[enabled.front()].op.object, enabled, scratch,
                  fire);
      return;
    }
    std::unordered_map<Symbol, std::vector<std::size_t>> by_object;
    for (std::size_t i : enabled) by_object[ops_[i].op.object].push_back(i);
    for (const auto& [object, candidates] : by_object) {
      if (!fire_object(node, object, candidates, scratch, fire)) return;
    }
  }

  [[nodiscard]] std::size_t fired_elements() const { return fired_elements_; }
  [[nodiscard]] std::size_t pruned_subsets() const { return pruned_subsets_; }
  [[nodiscard]] std::size_t symmetry_merged() const {
    return symmetry_merged_;
  }
  [[nodiscard]] std::size_t step_cache_hits() const { return memo_.hits(); }
  [[nodiscard]] std::size_t step_cache_misses() const {
    return memo_.misses();
  }

 private:
  /// Partitions the completed operations into interchangeability groups.
  /// Two operations may share a group only when
  ///   * the spec declares them interchangeable (equal nonzero
  ///     symmetry_class for their object),
  ///   * they have the same real-time predecessors (equal pred-prefix
  ///     length — predecessor lists are prefixes of one response-sorted
  ///     order), and
  ///   * they constrain the same successors: their positions in the
  ///     response-sorted order fall on the same side of every distinct
  ///     predecessor-count threshold.
  /// Groups of size 1 are dropped — they reduce nothing.
  void build_groups() {
    const std::size_t n = ops_.size();
    // Each completed op's position in the response-sorted order.
    std::vector<std::size_t> pos(n, 0);
    const std::span<const std::size_t> by_res = index_.by_response();
    for (std::size_t p = 0; p < by_res.size(); ++p) pos[by_res[p]] = p;
    // Successor bucket: how many distinct thresholds lie at or below the
    // op's response-sorted position (ops in the same bucket are
    // predecessors of exactly the same set of operations).
    std::vector<std::size_t> thresholds(n);
    for (std::size_t i = 0; i < n; ++i) thresholds[i] = index_.pred_count(i);
    std::sort(thresholds.begin(), thresholds.end());
    thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                     thresholds.end());
    auto bucket = [&thresholds](std::size_t p) {
      return static_cast<std::size_t>(
          std::upper_bound(thresholds.begin(), thresholds.end(), p) -
          thresholds.begin());
    };
    // Group by (object, class, pred_count, bucket), in first-seen order.
    std::map<std::tuple<std::uint32_t, std::uint64_t, std::size_t,
                        std::size_t>,
             std::size_t>
        group_of;
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < n; ++i) {
      if (ops_[i].is_pending()) continue;
      const std::uint64_t cls =
          spec_.symmetry_class(ops_[i].op.object, ops_[i].op);
      if (cls == 0) continue;
      const auto [it, fresh] = group_of.try_emplace(
          {ops_[i].op.object.id(), cls, index_.pred_count(i), bucket(pos[i])},
          groups.size());
      if (fresh) groups.emplace_back();
      groups[it->second].push_back(i);
    }
    grouped_mask_.assign((n + 63) / 64, 0);
    for (std::vector<std::size_t>& g : groups) {
      if (g.size() < 2) continue;
      for (std::size_t i : g) mask_set(grouped_mask_, i);
      groups_.push_back(std::move(g));
    }
  }

  /// Buffers reused by every expansion at one depth.
  struct Scratch {
    std::vector<std::size_t> enabled;
    std::vector<std::size_t> chosen;
    std::vector<Operation> chosen_ops;
  };

  /// Enumerates the non-empty subsets of one object's candidates, largest
  /// first (multi-operation CA-elements are the common witness shape for
  /// CA-objects, e.g. exchanger swaps). False = the search asked to stop.
  template <typename Fire>
  bool fire_object(const Node& node, Symbol object,
                   const std::vector<std::size_t>& candidates,
                   Scratch& scratch, Fire& fire) {
    const std::size_t cap =
        spec_.max_element_size() == 0
            ? candidates.size()
            : std::min(spec_.max_element_size(), candidates.size());
    for (std::size_t size = cap; size >= 1; --size) {
      scratch.chosen.clear();
      scratch.chosen_ops.clear();
      if (!try_subsets(node, object, candidates, 0, size, scratch.chosen,
                       scratch.chosen_ops, fire)) {
        return false;
      }
    }
    return true;
  }

  /// False = the driver asked to stop (goal found / cancelled).
  template <typename Fire>
  bool try_subsets(const Node& node, Symbol object,
                   const std::vector<std::size_t>& candidates,
                   std::size_t from, std::size_t remaining,
                   std::vector<std::size_t>& chosen,
                   std::vector<Operation>& chosen_ops, Fire& fire) {
    if (remaining == 0) {
      return step_element(node, object, chosen, chosen_ops, fire);
    }
    for (std::size_t i = from; i + remaining <= candidates.size(); ++i) {
      chosen.push_back(candidates[i]);
      chosen_ops.push_back(ops_[candidates[i]].op);
      bool keep_going = true;
      if (!spec_.compatible(object, chosen_ops)) {
        ++pruned_subsets_;
      } else {
        keep_going = try_subsets(node, object, candidates, i + 1,
                                 remaining - 1, chosen, chosen_ops, fire);
      }
      chosen.pop_back();
      chosen_ops.pop_back();
      if (!keep_going) return false;
    }
    return true;
  }

  /// spec_.step through the memo; the returned reference stays valid
  /// across the recursion (node-based map, never erased).
  const std::vector<CaStepResult>& stepped(
      const SpecState& state, Symbol object,
      const std::vector<std::size_t>& chosen,
      const std::vector<Operation>& element_ops) {
    StepKey key;
    encode_cal_step_key(state, object, chosen, key);
    if (const auto* cached = memo_.find(key)) return *cached;
    return memo_.insert(std::move(key),
                        spec_.step(state, object, element_ops));
  }

  template <typename Fire>
  bool step_element(const Node& node, Symbol object,
                    const std::vector<std::size_t>& chosen,
                    const std::vector<Operation>& element_ops, Fire& fire) {
    std::size_t newly_completed = 0;
    for (std::size_t i : chosen) {
      if (!ops_[i].is_pending()) ++newly_completed;
    }
    for (const CaStepResult& sr :
         stepped(node.state, object, chosen, element_ops)) {
      ++fired_elements_;
      Node next{sr.next, node.fired, node.fired_completed + newly_completed};
      for (std::size_t i : chosen) mask_set(next.fired, i);
      if (!fire(std::move(next), chosen, sr.element)) return false;
    }
    return true;
  }

  const std::vector<OpRecord>& ops_;
  const CaSpec& spec_;
  bool complete_pending_;
  HistoryIndex index_;
  /// Interchangeability groups (≥ 2 members each) and the bit-mask of all
  /// grouped operations; both empty when symmetry is off or inapplicable.
  std::vector<std::vector<std::size_t>> groups_;
  StateMask grouped_mask_;
  StepMemo<CaStepResult> memo_;
  std::vector<Scratch> scratch_;  ///< one per search depth
  std::size_t fired_elements_ = 0;
  std::size_t pruned_subsets_ = 0;
  std::size_t symmetry_merged_ = 0;
};

}  // namespace cal::engine
