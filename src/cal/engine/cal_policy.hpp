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
// CA-elements, so an accept-mode witness is exactly a trace T ∈ 𝒯 with
// H^c ⊑CAL T.
//
// The expansion order replicates the pre-engine checker line for line —
// with the sequential driver and exact dedup this policy is bit-for-bit
// the historical CalChecker, witness included.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cal/ca_trace.hpp"
#include "cal/engine/policy_base.hpp"
#include "cal/engine/search_engine.hpp"
#include "cal/history.hpp"
#include "cal/history_index.hpp"
#include "cal/spec.hpp"

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

template <bool kShared>
class CalPolicy {
 public:
  struct Node {
    SpecState state;
    StateMask fired;
    std::size_t fired_completed;
  };
  using Label = CaElement;

  CalPolicy(const std::vector<OpRecord>& ops, const CaSpec& spec,
            bool complete_pending, bool symmetry = false)
      : ops_(ops),
        spec_(spec),
        complete_pending_(complete_pending),
        index_(ops) {
    if (symmetry) build_groups();
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
        bump(symmetry_merged_);
        return;
      }
    }
  }

  template <typename Emit>
  void expand(const Node& node, std::size_t /*depth*/,
              const std::vector<Label>& /*prefix*/, Emit&& emit) {
    // Collect enabled operations, grouped by object. Pending invocations
    // participate only when completion is allowed.
    std::unordered_map<Symbol, std::vector<std::size_t>> by_object;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (!index_.enabled(i, node.fired)) continue;
      if (ops_[i].is_pending() && !complete_pending_) continue;
      by_object[ops_[i].op.object].push_back(i);
    }

    // Enumerate non-empty subsets of each object's candidates, largest
    // first (multi-operation CA-elements are the common witness shape for
    // CA-objects, e.g. exchanger swaps).
    std::vector<std::size_t> chosen;
    std::vector<Operation> chosen_ops;
    for (const auto& [object, candidates] : by_object) {
      const std::size_t cap =
          spec_.max_element_size() == 0
              ? candidates.size()
              : std::min(spec_.max_element_size(), candidates.size());
      for (std::size_t size = cap; size >= 1; --size) {
        chosen.clear();
        chosen_ops.clear();
        if (!try_subsets(node, object, candidates, 0, size, chosen,
                         chosen_ops, emit)) {
          return;
        }
      }
    }
  }

  [[nodiscard]] std::size_t fired_elements() const {
    return read_counter(fired_elements_);
  }
  [[nodiscard]] std::size_t pruned_subsets() const {
    return read_counter(pruned_subsets_);
  }
  [[nodiscard]] std::size_t symmetry_merged() const {
    return read_counter(symmetry_merged_);
  }
  /// Operations actually covered by a symmetry group (diagnostic).
  [[nodiscard]] std::size_t symmetric_ops() const {
    std::size_t n = 0;
    for (const auto& g : groups_) n += g.size();
    return n;
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
  /// The last two conditions are recomputed here from the raw indices the
  /// same way HistoryIndex computes them (it exposes only the combined
  /// `enabled` query). Groups of size 1 are dropped — they reduce nothing.
  void build_groups() {
    const std::size_t n = ops_.size();
    // Response-sorted order of completed ops, and each op's position in it.
    std::vector<std::size_t> by_res;
    for (std::size_t i = 0; i < n; ++i) {
      if (!ops_[i].is_pending()) by_res.push_back(i);
    }
    std::sort(by_res.begin(), by_res.end(),
              [this](std::size_t a, std::size_t b) {
                return *ops_[a].res_index < *ops_[b].res_index;
              });
    std::vector<std::size_t> pos(n, 0);
    for (std::size_t p = 0; p < by_res.size(); ++p) pos[by_res[p]] = p;
    // Predecessor-prefix length per op (HistoryIndex's sweep).
    std::vector<std::size_t> by_inv(n);
    for (std::size_t i = 0; i < n; ++i) by_inv[i] = i;
    std::sort(by_inv.begin(), by_inv.end(),
              [this](std::size_t a, std::size_t b) {
                return ops_[a].inv_index < ops_[b].inv_index;
              });
    std::vector<std::size_t> pred_count(n, 0);
    std::size_t k = 0;
    for (std::size_t i : by_inv) {
      while (k < by_res.size() &&
             *ops_[by_res[k]].res_index < ops_[i].inv_index) {
        ++k;
      }
      pred_count[i] = k;
    }
    // Successor bucket: how many distinct thresholds lie at or below the
    // op's response-sorted position (ops in the same bucket are
    // predecessors of exactly the same set of operations).
    std::vector<std::size_t> thresholds(pred_count);
    std::sort(thresholds.begin(), thresholds.end());
    thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                     thresholds.end());
    auto bucket = [&thresholds](std::size_t p) {
      return static_cast<std::size_t>(
          std::upper_bound(thresholds.begin(), thresholds.end(), p) -
          thresholds.begin());
    };
    // Group by (object, class, pred_count, bucket).
    struct GroupKey {
      std::uint32_t object;
      std::uint64_t cls;
      std::size_t preds;
      std::size_t bucket;
      bool operator==(const GroupKey&) const = default;
    };
    std::vector<std::pair<GroupKey, std::size_t>> found;  // key -> group idx
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t i = 0; i < n; ++i) {
      if (ops_[i].is_pending()) continue;
      const std::uint64_t cls =
          spec_.symmetry_class(ops_[i].op.object, ops_[i].op);
      if (cls == 0) continue;
      const GroupKey key{ops_[i].op.object.id(), cls, pred_count[i],
                         bucket(pos[i])};
      std::size_t g = groups.size();
      for (const auto& [fk, fg] : found) {
        if (fk == key) {
          g = fg;
          break;
        }
      }
      if (g == groups.size()) {
        found.emplace_back(key, g);
        groups.emplace_back();
      }
      groups[g].push_back(i);
    }
    grouped_mask_.assign((n + 63) / 64, 0);
    for (std::vector<std::size_t>& g : groups) {
      if (g.size() < 2) continue;
      for (std::size_t i : g) mask_set(grouped_mask_, i);
      groups_.push_back(std::move(g));
    }
  }

  /// False = the driver asked to stop (goal found / cancelled).
  template <typename Emit>
  bool try_subsets(const Node& node, Symbol object,
                   const std::vector<std::size_t>& candidates,
                   std::size_t from, std::size_t remaining,
                   std::vector<std::size_t>& chosen,
                   std::vector<Operation>& chosen_ops, Emit& emit) {
    if (remaining == 0) {
      return fire(node, object, chosen, chosen_ops, emit);
    }
    for (std::size_t i = from; i + remaining <= candidates.size(); ++i) {
      chosen.push_back(candidates[i]);
      chosen_ops.push_back(ops_[candidates[i]].op);
      bool keep_going = true;
      if (!spec_.compatible(object, chosen_ops)) {
        bump(pruned_subsets_);
      } else {
        keep_going = try_subsets(node, object, candidates, i + 1,
                                 remaining - 1, chosen, chosen_ops, emit);
      }
      chosen.pop_back();
      chosen_ops.pop_back();
      if (!keep_going) return false;
    }
    return true;
  }

  /// spec_.step through the memo; the returned reference stays valid
  /// across the recursion (node-based / sharded map, never erased).
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

  template <typename Emit>
  bool fire(const Node& node, Symbol object,
            const std::vector<std::size_t>& chosen,
            const std::vector<Operation>& element_ops, Emit& emit) {
    std::size_t newly_completed = 0;
    for (std::size_t i : chosen) {
      if (!ops_[i].is_pending()) ++newly_completed;
    }
    for (const CaStepResult& sr :
         stepped(node.state, object, chosen, element_ops)) {
      bump(fired_elements_);
      Node next{sr.next, node.fired, node.fired_completed + newly_completed};
      for (std::size_t i : chosen) mask_set(next.fired, i);
      if (!emit(std::move(next), CaElement(sr.element))) return false;
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
  StepMemoFor<kShared, CaStepResult> memo_;
  Counter<kShared> fired_elements_{0};
  Counter<kShared> pruned_subsets_{0};
  Counter<kShared> symmetry_merged_{0};
};

}  // namespace cal::engine
