#include "cal/engine/incremental.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

#include "cal/engine/cal_policy.hpp"
#include "cal/engine/search_engine.hpp"

namespace cal::engine {

namespace {

/// One window of the streaming search: the CAL policy over the *active*
/// operations only (local indices), keeping its goal test and successor
/// enumeration, with two extensions — multiple roots (one per frontier
/// entry, remembered in Node::root for witness stitching) and
/// pending-return tracking (Node::pending_rets records the value the spec
/// chose for each fired-while-pending operation, and participates in the
/// node encoding so explanations differing only in a guess stay distinct).
/// Goals — nodes with every completed active operation fired — are
/// collect-mode sinks: their pending-only continuations stay reachable from
/// them in the next window, so not expanding them loses nothing.
class StreamPolicy : public CalPolicy {
 public:
  struct Node : CalPolicy::Node {
    /// (local index, committed return) for fired pending ops, ascending.
    std::vector<std::pair<std::uint32_t, Value>> pending_rets;
    /// Index of the frontier entry this search state grew from (not part
    /// of the node identity — any root reaching a state explains it).
    std::uint32_t root;
  };

  /// Pending operations are always candidates mid-stream, even with
  /// complete_pending off: an operation pending *now* may complete later,
  /// and the batch verdict (complete_pending=false) only excludes ops that
  /// never complete. finish() discards explanations that fired one.
  StreamPolicy(const std::vector<OpRecord>& ops, const CaSpec& spec,
               const std::vector<FrontierEntry>& frontier,
               const std::unordered_map<std::size_t, std::size_t>& local_of)
      : CalPolicy(ops, spec, /*complete_pending=*/true),
        ops_(ops),
        frontier_(frontier),
        local_of_(local_of) {}

  std::vector<Node> roots() const {
    const std::size_t words = (ops_.size() + 63) / 64;
    std::vector<Node> out;
    out.reserve(frontier_.size());
    for (std::uint32_t e = 0; e < frontier_.size(); ++e) {
      const FrontierEntry& fe = frontier_[e];
      Node n{{fe.state, StateMask(words, 0), 0}, {}, e};
      for (std::size_t gid : fe.fired) {
        const std::size_t l = local_of_.at(gid);
        mask_set(n.fired, l);
        if (!ops_[l].is_pending()) ++n.fired_completed;
      }
      n.pending_rets.reserve(fe.pending_rets.size());
      for (const auto& [gid, v] : fe.pending_rets) {
        n.pending_rets.emplace_back(
            static_cast<std::uint32_t>(local_of_.at(gid)), v);
      }
      // fe lists are ascending by global id and local order preserves
      // global order, so n.pending_rets is already sorted.
      out.push_back(std::move(n));
    }
    return out;
  }

  void encode(const Node& n, NodeKey& out) const {
    encode_state_and_masks(n.state, {&n.fired}, out);
    out.push_back(static_cast<std::int64_t>(n.pending_rets.size()));
    for (const auto& [l, v] : n.pending_rets) {
      out.push_back(static_cast<std::int64_t>(l));
      out.push_back(static_cast<std::int64_t>(v.hash()));
    }
  }

  template <typename Emit>
  void expand(const Node& node, std::size_t depth,
              const std::vector<Label>& /*prefix*/, Emit&& emit) {
    successors(
        node, depth,
        [&](CalPolicy::Node&& fired,
            const std::vector<std::size_t>& chosen, const CaElement& element) {
          Node next{std::move(fired), node.pending_rets, node.root};
          commit_pending_returns(next, chosen, element);
          return emit(std::move(next), &element);
        });
  }

 private:
  /// Commits to the return values the spec chose for the element's pending
  /// participants (matched by thread: co-fired operations overlap in real
  /// time, so their threads are distinct).
  void commit_pending_returns(Node& next,
                              const std::vector<std::size_t>& chosen,
                              const CaElement& element) const {
    for (std::size_t i : chosen) {
      if (!ops_[i].is_pending()) continue;
      for (const Operation& op : element.ops()) {
        if (op.tid != ops_[i].op.tid || !op.ret.has_value()) continue;
        const auto entry =
            std::make_pair(static_cast<std::uint32_t>(i), *op.ret);
        next.pending_rets.insert(
            std::upper_bound(next.pending_rets.begin(),
                             next.pending_rets.end(), entry,
                             [](const auto& a, const auto& b) {
                               return a.first < b.first;
                             }),
            entry);
        break;
      }
    }
  }

  const std::vector<OpRecord>& ops_;
  const std::vector<FrontierEntry>& frontier_;
  const std::unordered_map<std::size_t, std::size_t>& local_of_;
};

}  // namespace

IncrementalChecker::IncrementalChecker(const CaSpec& spec,
                                       IncrementalOptions options)
    : spec_(spec), options_(std::move(options)) {
  if (options_.window == 0) options_.window = 1;
  FrontierEntry root;
  root.state = spec_.initial();
  frontier_.push_back(std::move(root));
}

void IncrementalChecker::fail(std::string reason) {
  status_.ok = false;
  if (status_.violation_window == 0) {
    status_.violation_window = status_.windows_checked;
  }
  status_.reason = std::move(reason);
}

void IncrementalChecker::push(const Action& action) {
  if (!status_.ok || status_.finished) return;
  const std::size_t idx = status_.actions_consumed++;
  if (action.is_invoke()) {
    if (open_.count(action.tid) != 0) {
      fail("not well-formed: invocation while thread " +
           std::to_string(action.tid) + " has an open call");
      return;
    }
    OpRecord rec;
    rec.op = Operation{action.tid, action.object, action.method,
                       action.payload, std::nullopt};
    rec.inv_index = idx;
    open_[action.tid] = ops_.size();
    ops_.push_back(std::move(rec));
    retired_.push_back(false);
    ++status_.operations;
  } else {
    const auto it = open_.find(action.tid);
    if (it == open_.end()) {
      fail("not well-formed: response without an open call on thread " +
           std::to_string(action.tid));
      return;
    }
    OpRecord& rec = ops_[it->second];
    if (rec.op.object != action.object || rec.op.method != action.method) {
      fail("not well-formed: response does not match the open call on "
           "thread " +
           std::to_string(action.tid));
      return;
    }
    rec.op.ret = action.payload;
    rec.res_index = idx;
    newly_completed_.push_back(it->second);
    open_.erase(it);
    ++status_.completed;
  }
  if (++buffered_ >= options_.window) check_window();
}

void IncrementalChecker::push(const History& history) {
  for (const Action& a : history.actions()) push(a);
}

void IncrementalChecker::finish() {
  if (status_.finished) return;
  if (status_.ok && buffered_ > 0) check_window();
  if (status_.ok && !options_.complete_pending) {
    // Without completion-by-extension, only explanations that fired no
    // never-completed operation count (window searches fire pending ops
    // speculatively, since mid-stream "pending" may still complete).
    std::vector<FrontierEntry> kept;
    kept.reserve(frontier_.size());
    for (FrontierEntry& entry : frontier_) {
      bool fired_pending = false;
      for (std::size_t gid : entry.fired) {
        if (ops_[gid].is_pending()) {
          fired_pending = true;
          break;
        }
      }
      if (!fired_pending) kept.push_back(std::move(entry));
    }
    frontier_ = std::move(kept);
    status_.frontier_size = frontier_.size();
    if (frontier_.empty()) {
      fail("violation: every explanation fires an operation that never "
           "completed");
    }
  }
  status_.finished = true;
}

std::optional<CaTrace> IncrementalChecker::witness() const {
  if (!status_.ok || frontier_.empty()) return std::nullopt;
  return CaTrace(frontier_.front().witness);
}

void IncrementalChecker::apply_responses() {
  if (newly_completed_.empty()) return;
  std::vector<FrontierEntry> kept;
  kept.reserve(frontier_.size());
  for (FrontierEntry& entry : frontier_) {
    bool alive = true;
    for (std::size_t gid : newly_completed_) {
      const auto it = std::lower_bound(
          entry.pending_rets.begin(), entry.pending_rets.end(), gid,
          [](const auto& p, std::size_t g) { return p.first < g; });
      if (it == entry.pending_rets.end() || it->first != gid) continue;
      if (!(it->second == *ops_[gid].op.ret)) {
        alive = false;  // guessed a different return than the real one
        break;
      }
      entry.pending_rets.erase(it);  // confirmed; now an ordinary fired op
    }
    if (alive) kept.push_back(std::move(entry));
  }
  frontier_ = std::move(kept);
  newly_completed_.clear();
  if (frontier_.empty()) {
    fail("violation: every explanation committed to a different return "
         "value than the one observed");
  }
}

void IncrementalChecker::check_window() {
  buffered_ = 0;
  ++status_.windows_checked;
  apply_responses();
  if (!status_.ok) return;

  // The window problem ranges over the active (non-retired) operations,
  // re-indexed densely.
  std::vector<std::size_t> active;
  std::vector<OpRecord> local_ops;
  std::unordered_map<std::size_t, std::size_t> local_of;
  for (std::size_t gid = 0; gid < ops_.size(); ++gid) {
    if (retired_[gid]) continue;
    local_of.emplace(gid, active.size());
    active.push_back(gid);
    local_ops.push_back(ops_[gid]);
  }

  SearchOptions sopts;
  sopts.max_visited = options_.max_visited;
  sopts.exact_visited = options_.exact_visited;

  std::vector<FrontierEntry> next;
  const auto sink = [&](const StreamPolicy::Node& node,
                        const std::vector<const CaElement*>& prefix,
                        std::uint64_t) {
    FrontierEntry entry;
    entry.state = node.state;
    for (std::size_t l = 0; l < active.size(); ++l) {
      if (mask_test(node.fired, l)) entry.fired.push_back(active[l]);
    }
    entry.pending_rets.reserve(node.pending_rets.size());
    for (const auto& [l, v] : node.pending_rets) {
      entry.pending_rets.emplace_back(active[l], v);
    }
    entry.witness = frontier_[node.root].witness;
    for (const CaElement* element : prefix) entry.witness.push_back(*element);
    next.push_back(std::move(entry));
  };

  StreamPolicy policy(local_ops, spec_, frontier_, local_of);
  SequentialSearch<StreamPolicy> driver(policy, sopts);
  const SearchStats stats = driver.run_collect(sink);
  status_.visited_states += stats.visited_states;

  if (stats.exhausted) {
    status_.exhausted = true;
    fail("window search exhausted: max_visited cap hit");
    return;
  }
  if (next.empty()) {
    fail("violation: no explanation fires every completed operation");
    return;
  }
  frontier_ = std::move(next);
  retire();
  status_.frontier_size = frontier_.size();
  status_.active_ops = ops_.size() - status_.retired_ops;
}

void IncrementalChecker::retire() {
  std::unordered_map<std::size_t, std::size_t> fired_in;
  for (const FrontierEntry& entry : frontier_) {
    for (std::size_t gid : entry.fired) {
      if (!ops_[gid].is_pending()) ++fired_in[gid];
    }
  }
  bool any = false;
  for (const auto& [gid, count] : fired_in) {
    if (count == frontier_.size()) {
      retired_[gid] = true;
      ++status_.retired_ops;
      any = true;
    }
  }
  if (!any) return;
  for (FrontierEntry& entry : frontier_) {
    entry.fired.erase(
        std::remove_if(entry.fired.begin(), entry.fired.end(),
                       [this](std::size_t gid) { return retired_[gid]; }),
        entry.fired.end());
  }
}

}  // namespace cal::engine
