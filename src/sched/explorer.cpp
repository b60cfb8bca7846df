#include "sched/explorer.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "cal/engine/incremental.hpp"
#include "cal/engine/policy_base.hpp"
#include "cal/engine/search_engine.hpp"
#include "cal/parallel/task_pool.hpp"

namespace cal::sched {

namespace {

/// Serializes a history for terminal deduplication.
std::vector<std::int64_t> encode_history(const History& h) {
  std::vector<std::int64_t> out;
  out.reserve(h.size() * 5);
  for (const Action& a : h.actions()) {
    out.push_back(a.is_invoke() ? 1 : 2);
    out.push_back(a.tid);
    out.push_back(a.object.id());
    out.push_back(a.method.id());
    out.push_back(static_cast<std::int64_t>(a.payload.hash()));
  }
  return out;
}

struct KeyHash {
  std::size_t operator()(const std::vector<std::int64_t>& k) const noexcept {
    return hash_state(k);
  }
};

// --- partial-order reduction: sleep sets over step footprints -------------
//
// A sleep entry records a thread whose next step was already explored from
// an earlier sibling branch, together with that step's footprint. The
// footprint of a thread's next step is a function of its own context and
// frozen cells only, and stays valid while the thread sleeps: every
// executed step is independent of it (a dependent step removes the entry),
// so it cannot change the cell the sleeping step touches, the step's
// control path, or its purity. See DESIGN.md for the full argument.

struct SleepEntry {
  std::size_t thread = 0;
  StepFootprint fp;
};
using SleepSet = std::vector<SleepEntry>;

bool is_sleeping(const SleepSet& sleep, std::size_t thread) {
  for (const SleepEntry& e : sleep) {
    if (e.thread == thread) return true;
  }
  return false;
}

std::uint64_t sleep_mask_of(const SleepSet& sleep) {
  std::uint64_t m = 0;
  for (const SleepEntry& e : sleep) m |= (1ull << (e.thread & 63u));
  return m;
}

/// The sleep set a successor inherits: every entry independent of the
/// executed step `g` stays asleep; dependent entries wake.
SleepSet inherit_sleep(const SleepSet& cur, const StepFootprint& g) {
  SleepSet out;
  out.reserve(cur.size());
  for (const SleepEntry& e : cur) {
    if (footprints_independent(e.fp, g)) out.push_back(e);
  }
  return out;
}

/// Visited-set key: canonical (symmetry) encoding when a canonicalizer is
/// attached, else World::encode; under POR the sleep mask is part of the
/// key, making the reduced successor set a function of the key — which is
/// what keeps sleep sets sound under state merging. When `por`, the mask
/// is always the *last* element (SleepSubsumption peels it back off).
void encode_world_key(const World& world, const WorldCanon* canon, bool por,
                      std::uint64_t sleep_mask,
                      std::vector<std::int64_t>& out, bool& renamed) {
  out.clear();
  renamed = false;
  if (canon != nullptr) {
    canon->encode(world, por ? sleep_mask : 0, out, renamed);
  } else {
    world.encode(out);
    if (por) out.push_back(static_cast<std::int64_t>(sleep_mask));
  }
}

/// Sleep-mask subsumption (sleep sets with state matching, Godefroid
/// style): exact (state, mask) dedup alone *splits* states — the same
/// world re-entered under an incomparable sleep mask is a fresh key — so
/// on top of it, a node's expansion is pruned outright when the same state
/// was already expanded with a *subset* mask: fewer sleeping threads means
/// the earlier expansion explored a superset of this node's successor
/// closure. Re-visits under incomparable masks still re-expand, which is
/// what keeps the reduction sound (DESIGN.md). Striped-lock sharded so the
/// parallel driver's workers can share one instance; the sequential driver
/// uses the same type with the locks uncontended.
class SleepSubsumption {
 public:
  /// True iff `key` was already expanded with a recorded mask ⊆ `mask`.
  /// Otherwise records `mask` (dropping recorded supersets, which it now
  /// covers) and returns false.
  bool covered(const std::vector<std::int64_t>& key, std::uint64_t mask) {
    Shard& s = shards_[hash_state(key) % kShards];
    std::lock_guard<std::mutex> lock(s.mu);
    std::vector<std::uint64_t>& masks = s.map[key];
    for (std::uint64_t m : masks) {
      if ((m & ~mask) == 0) return true;
    }
    std::erase_if(masks,
                  [mask](std::uint64_t m) { return (mask & ~m) == 0; });
    masks.push_back(mask);
    return false;
  }

 private:
  static constexpr std::size_t kShards = 64;
  struct Shard {
    std::mutex mu;
    std::unordered_map<std::vector<std::int64_t>, std::vector<std::uint64_t>,
                       KeyHash>
        map;
  };
  std::array<Shard, kShards> shards_;
};

/// A diagnostic counter of ExplorePolicy<kShared>: atomic when the
/// parallel driver's workers share the policy, plain otherwise.
template <bool kShared>
using Counter =
    std::conditional_t<kShared, std::atomic<std::size_t>, std::size_t>;

void bump(std::size_t& c) noexcept { ++c; }
void bump(std::atomic<std::size_t>& c) noexcept {
  c.fetch_add(1, std::memory_order_relaxed);
}

/// Raises a high-water mark to `value`.
void raise_to(std::size_t& c, std::size_t value) noexcept {
  if (value > c) c = value;
}
void raise_to(std::atomic<std::size_t>& c, std::size_t value) noexcept {
  std::size_t seen = c.load(std::memory_order_relaxed);
  while (value > seen &&
         !c.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

std::size_t read_counter(const std::size_t& c) noexcept { return c; }
std::size_t read_counter(const std::atomic<std::size_t>& c) noexcept {
  return c.load(std::memory_order_relaxed);
}

/// The exploration as an engine policy: worlds are nodes, schedule steps
/// are labels, terminal worlds are goals (collect-mode sinks), violations
/// are reports. Per-step audits (transition guarantee, state invariant,
/// choice protocol) run in expand() *before* a successor is emitted, so
/// violating worlds never enter the search. The engine owns state merging,
/// the max_states cap, depth, the schedule prefix, and the order of the
/// violations; this policy owns transitions/events accounting. kShared
/// selects the instantiation the parallel driver's workers share: atomic
/// counters, and a sleep-subsumption table that is striped-locked either
/// way.
template <bool kShared>
class ExplorePolicy {
 public:
  /// A node is a world plus its sleep set (empty when POR is off); the
  /// sleep set travels with the node because the engine recurses inside
  /// emit, and it joins the dedup key via encode().
  struct Node {
    World world;
    SleepSet sleep;
    /// Set by encode(): the key came from a non-identity thread renaming.
    /// on_dedup() reads it back on the same node, which belongs to one
    /// worker, so it needs no lock.
    mutable bool renamed = false;
  };
  using Label = ScheduleStep;
  using Report = ScheduleViolation;

  ExplorePolicy(const WorldConfig& config,
                const std::vector<std::unique_ptr<SimObject>>& objects,
                const ExploreOptions& options,
                const TransitionAuditor* auditor, const WorldCanon* canon,
                bool por)
      : config_(config),
        objects_(objects),
        options_(options),
        auditor_(auditor),
        canon_(canon),
        por_(por) {
    // Subsumption only matters under state merging: without it the walk
    // is a plain tree DFS, where sleep sets alone are the classic (sound)
    // reduction.
    if (por_ && options_.merge_states) {
      subsume_ = std::make_unique<SleepSubsumption>();
    }
  }

  std::vector<Node> roots() {
    World initial(config_);
    for (const auto& obj : objects_) obj->init(initial);
    std::vector<Node> out;
    out.push_back(Node{std::move(initial), {}});
    return out;
  }

  [[nodiscard]] bool is_goal(const Node& node) const {
    return node.world.all_done();
  }

  void encode(const Node& node, engine::NodeKey& out) {
    encode_world_key(node.world, canon_, por_, sleep_mask_of(node.sleep),
                     out, node.renamed);
  }

  /// Engine dedup-hit hook: a hit whose key was produced by a non-identity
  /// renaming is a merge only the canonicalizer could have made.
  void on_dedup(const Node& node) {
    if (node.renamed) bump(symmetry_merged_);
  }

  void on_enter(const Node& node, std::size_t /*depth*/) {
    const std::uint64_t events = node.world.events();
    if constexpr (kShared) {
      // Read first: the bits are almost always known already.
      if ((events_.load(std::memory_order_relaxed) & events) != events) {
        events_.fetch_or(events, std::memory_order_relaxed);
      }
    } else {
      events_ |= events;
    }
    raise_to(buffered_max_, node.world.memory().buffered_total());
    raise_to(recycled_allocs_, node.world.recycled_allocs());
    raise_to(retired_max_, node.world.retired().size());
  }

  template <typename Emit>
  void expand(const Node& node, std::size_t /*depth*/,
              const std::vector<ScheduleStep>& prefix, Emit&& emit) {
    const World& world = node.world;
    // Entries accumulate as siblings are explored: a later thread's child
    // inherits every earlier pure sibling step it is independent of.
    SleepSet cur = node.sleep;
    for (std::size_t i = 0; i < world.threads().size(); ++i) {
      const ThreadCtx& t = world.threads()[i];
      if (t.done(config_.programs[t.program].calls.size())) continue;
      if (por_ && is_sleeping(node.sleep, i)) {
        bump(por_pruned_);
        continue;
      }
      const Call& call = config_.programs[t.program].calls[t.call_idx];
      const SimObject& object = *objects_[call.object];
      bump(transitions_);

      World next = world;  // branch
      next.begin_step();
      ThreadCtx& nt = next.threads()[i];
      StepResult sr = object.step(next, nt);

      if (sr.kind == StepResult::Kind::kChoice) {
        // Fork one successor per choice value; the machine consumes the
        // choice on its next step. The step only joins sibling sleep sets
        // if every branch is pure (a single emitting branch makes the
        // whole step order-sensitive).
        bool all_pure = true;
        for (std::int32_t c = 0; c < sr.nchoices; ++c) {
          World branch = world;
          branch.begin_step();
          ThreadCtx& bt = branch.threads()[i];
          bt.choice = c;
          StepResult inner = object.step(branch, bt);
          bt.choice = -1;
          if (inner.kind == StepResult::Kind::kChoice) {
            branch.report_violation(
                "machine asked for a choice twice in a row");
          }
          audit_transition(world, branch, bt.tid);
          const StepFootprint fp = branch.footprint();
          all_pure = all_pure && fp.pure();
          SleepSet child = por_ ? inherit_sleep(cur, fp) : SleepSet{};
          if (!offer(Node{std::move(branch), std::move(child)},
                     ScheduleStep{t.tid, c}, prefix, emit)) {
            return;
          }
        }
        if (por_ && all_pure) {
          cur.push_back(SleepEntry{
              i, StepFootprint{StepFootprint::Kind::kLocal, kNull, false}});
        }
      } else {
        audit_transition(world, next, nt.tid);
        const StepFootprint fp = next.footprint();
        SleepSet child = por_ ? inherit_sleep(cur, fp) : SleepSet{};
        if (!offer(Node{std::move(next), std::move(child)},
                   ScheduleStep{t.tid, -1}, prefix, emit)) {
          return;
        }
        if (por_ && fp.pure()) cur.push_back(SleepEntry{i, fp});
      }
    }

    // TSO flush transitions: one per thread with a buffered write, offered
    // for completed threads too (terminal states must be drained). Flush
    // steps are never slept and never enter sleep sets — strictly less
    // reduction, trivially sound (DESIGN.md, "The memory-model layer") —
    // but their store footprint does wake dependent sleepers in the child.
    for (std::size_t i = 0; i < world.threads().size(); ++i) {
      if (!world.flushable(i)) continue;
      bump(transitions_);
      World next = world;
      next.begin_step();
      next.flush_one(i);
      bump(flush_steps_);
      audit_transition(world, next, next.threads()[i].tid);
      const StepFootprint fp = next.footprint();
      SleepSet child = por_ ? inherit_sleep(cur, fp) : SleepSet{};
      if (!offer(Node{std::move(next), std::move(child)},
                 ScheduleStep{world.threads()[i].tid, -1, /*flush=*/true},
                 prefix, emit)) {
        return;
      }
    }
  }

  /// Copies the policy's counters into `result`.
  void fill(ExploreResult& result) const {
    result.transitions = read_counter(transitions_);
    result.events = events_;
    result.por_pruned = read_counter(por_pruned_);
    result.symmetry_merged = read_counter(symmetry_merged_);
    result.flush_steps = read_counter(flush_steps_);
    result.buffered_max = read_counter(buffered_max_);
    result.recycled_allocs = read_counter(recycled_allocs_);
    result.retired_max = read_counter(retired_max_);
  }

 private:
  void audit_transition(const World& pre, World& post, ThreadId actor) const {
    if (auditor_ == nullptr || post.violated()) return;
    if (auto why = auditor_->check_transition(pre, post, actor)) {
      post.report_violation("guarantee: " + *why);
    }
  }

  /// Audits a freshly stepped world and either reports its violation or
  /// hands it to the driver; false stops this node's expansion.
  template <typename Emit>
  bool offer(Node&& node, ScheduleStep step,
             const std::vector<ScheduleStep>& prefix, Emit& emit) {
    if (!node.world.violated() && auditor_ != nullptr) {
      if (auto why = auditor_->check_invariant(node.world)) {
        node.world.report_violation("invariant: " + *why);
      }
    }
    if (node.world.violated()) {
      std::vector<ScheduleStep> schedule = prefix;
      schedule.push_back(step);
      return emit.report(
          ScheduleViolation{node.world.violation().value_or("unknown"),
                            std::move(schedule)},
          options_.stop_on_first_violation);
    }
    // Sleep-mask subsumption happens at child-generation time so a covered
    // revisit never enters the engine (and is never counted as a state).
    // Terminals are exempt: their final step is global, so they always
    // carry an empty sleep set and the exact visited key already dedups
    // them — keeping them out keeps the table small.
    if (subsume_ != nullptr && !node.world.all_done()) {
      engine::NodeKey key;
      bool renamed = false;
      encode_world_key(node.world, canon_, /*por=*/true,
                       sleep_mask_of(node.sleep), key, renamed);
      const auto mask = static_cast<std::uint64_t>(key.back());
      key.pop_back();
      if (subsume_->covered(key, mask)) {
        bump(por_pruned_);
        return true;
      }
    }
    return emit(std::move(node), std::move(step));
  }

  const WorldConfig& config_;
  const std::vector<std::unique_ptr<SimObject>>& objects_;
  const ExploreOptions& options_;
  const TransitionAuditor* auditor_;
  const WorldCanon* canon_;
  const bool por_;
  std::unique_ptr<SleepSubsumption> subsume_;

  Counter<kShared> transitions_{0};
  std::conditional_t<kShared, std::atomic<std::uint64_t>, std::uint64_t>
      events_{0};
  Counter<kShared> por_pruned_{0};
  Counter<kShared> symmetry_merged_{0};
  Counter<kShared> flush_steps_{0};
  Counter<kShared> buffered_max_{0};
  Counter<kShared> recycled_allocs_{0};
  Counter<kShared> retired_max_{0};
};

/// Distinct terminal histories, each kept from its first terminal in
/// (rank, arrival) order: the sequential DFS order at any pool size.
struct TerminalLog {
  struct Terminal {
    std::pair<std::uint64_t, std::size_t> order;  // (rank, arrival)
    History history;
    CaTrace trace;
  };
  std::vector<Terminal> kept;
  std::unordered_map<std::vector<std::int64_t>, std::size_t, KeyHash> seen;

  void add(std::uint64_t rank, std::size_t arrival, const World& world) {
    const std::pair order{rank, arrival};
    const auto [it, fresh] =
        seen.try_emplace(encode_history(world.history()), kept.size());
    if (fresh || order < kept[it->second].order) {
      Terminal t{order, world.history(), world.trace()};
      if (fresh) kept.push_back(std::move(t));
      else kept[it->second] = std::move(t);
    }
  }
};

/// Runs one exploration of `policy` on `search` (either driver).
template <typename Policy, typename Search>
ExploreResult explore(Policy& policy, Search& search,
                      bool collect_terminals) {
  ExploreResult result;
  TerminalLog terminals;
  engine::SearchStats stats = search.run_collect(
      [&](const typename Policy::Node& node, const std::vector<ScheduleStep>&,
          std::uint64_t rank) {
        const std::size_t arrival = result.terminals++;
        if (collect_terminals) terminals.add(rank, arrival, node.world);
      });
  std::sort(terminals.kept.begin(), terminals.kept.end(),
            [](const auto& a, const auto& b) { return a.order < b.order; });
  for (TerminalLog::Terminal& t : terminals.kept) {
    result.histories.push_back(std::move(t.history));
    result.traces.push_back(std::move(t.trace));
  }

  result.states = stats.visited_states;
  result.merged = stats.dedup_hits;
  result.max_depth = stats.max_depth;
  result.exhausted = stats.exhausted;
  policy.fill(result);
  result.violations = search.reports();
  return result;
}

}  // namespace

Explorer::Explorer(const WorldConfig& config,
                   std::vector<std::unique_ptr<SimObject>> objects,
                   ExploreOptions options)
    : config_(config), objects_(std::move(objects)), options_(options) {}

ExploreResult Explorer::run() {
  // Both reductions are gated off while an auditor is attached: the
  // auditor's per-transition and per-state checks must observe every
  // transition, including the ones a reduction would skip (DESIGN.md).
  // POR also needs one sleep-mask bit per thread, so >64 threads fall
  // back to the plain walk rather than alias mask bits.
  const bool por = options_.por && auditor_ == nullptr &&
                   config_.programs.size() <= 64;
  std::unique_ptr<WorldCanon> canon_storage;
  const WorldCanon* canon = nullptr;
  if (options_.symmetry && auditor_ == nullptr) {
    canon_storage = std::make_unique<WorldCanon>(config_);
    if (canon_storage->active()) canon = canon_storage.get();
  }

  engine::SearchOptions sopts;
  sopts.max_visited = options_.max_states;
  sopts.exact_visited = true;  // state merging must be sound, not probable
  sopts.dedup = options_.merge_states;

  ExploreResult result;
  const std::size_t threads = par::resolve_threads(options_.threads);
  if (threads > 1) {
    ExplorePolicy<true> policy(config_, objects_, options_, auditor_, canon,
                               por);
    engine::ParallelSearch<ExplorePolicy<true>> search(policy, sopts,
                                                       threads);
    result = explore(policy, search, options_.collect_terminals);
  } else {
    ExplorePolicy<false> policy(config_, objects_, options_, auditor_, canon,
                                por);
    engine::SequentialSearch<ExplorePolicy<false>> search(policy, sopts);
    result = explore(policy, search, options_.collect_terminals);
  }
  check_collected(result);
  return result;
}

void Explorer::check_collected(ExploreResult& result) const {
  if (options_.check_spec == nullptr || result.histories.empty()) return;
  result.history_verdicts.reserve(result.histories.size());
  for (std::size_t i = 0; i < result.histories.size(); ++i) {
    engine::IncrementalOptions iopts;
    iopts.window = options_.check_window;
    engine::IncrementalChecker checker(*options_.check_spec, iopts);
    checker.push(result.histories[i]);
    checker.finish();
    result.history_verdicts.push_back(checker.ok());
    if (!checker.ok()) {
      result.check_failures.push_back(
          "history " + std::to_string(i) + ": " + checker.status().reason);
    }
  }
}

std::ostream& operator<<(std::ostream& os, const ScheduleStep& step) {
  os << 't' << step.tid;
  if (step.flush) os << "!flush";
  if (step.choice >= 0) os << '#' << step.choice;
  return os;
}

std::string ScheduleViolation::to_string() const {
  std::ostringstream out;
  out << what << "\nschedule:";
  for (const ScheduleStep& step : schedule) out << ' ' << step;
  return out.str();
}

World Explorer::replay(const std::vector<ScheduleStep>& schedule,
                       bool record) {
  // The returned World keeps a pointer to its config, so the
  // recording-enabled copy must outlive it. One owned copy is kept per
  // replay call (never reused): a second replay() must not destroy the
  // config a previously returned World still references.
  const WorldConfig* cfg = &config_;
  if (record) {
    auto owned = std::make_unique<WorldConfig>(config_);
    owned->record_history = true;
    owned->record_trace = true;
    replay_configs_.push_back(std::move(owned));
    cfg = replay_configs_.back().get();
  }
  World world(*cfg);
  for (auto& obj : objects_) obj->init(world);

  for (const ScheduleStep& step : schedule) {
    if (world.violated()) break;
    ThreadCtx* ctx = nullptr;
    for (ThreadCtx& t : world.threads()) {
      if (t.tid == step.tid) ctx = &t;
    }
    if (ctx == nullptr) {
      world.report_violation("replay: unknown thread t" +
                             std::to_string(step.tid));
      break;
    }
    if (step.flush) {
      if (!world.flushable(ctx->program)) {
        world.report_violation("replay: t" + std::to_string(step.tid) +
                               " has no buffered write to flush");
        break;
      }
      world.begin_step();
      world.flush_one(ctx->program);
      continue;
    }
    if (ctx->done(config_.programs[ctx->program].calls.size())) {
      world.report_violation("replay: thread t" + std::to_string(step.tid) +
                             " cannot act");
      break;
    }
    const Call& call = config_.programs[ctx->program].calls[ctx->call_idx];
    world.begin_step();
    ctx->choice = step.choice;
    StepResult sr = objects_[call.object]->step(world, *ctx);
    ctx->choice = -1;
    if (sr.kind == StepResult::Kind::kChoice) {
      world.report_violation(
          "replay: step needs a choice but none was recorded");
      break;
    }
  }
  return world;
}

}  // namespace cal::sched
