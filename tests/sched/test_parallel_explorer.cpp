// Parallel-vs-sequential equivalence for the schedule explorer: identical
// verdicts at threads ∈ {1, 2, 8} on the exchanger and elimination-stack
// model-checking workloads, equal state/terminal/transition counts on
// clean explorations, violations reported in the sequential order, and
// identical terminal-history lists, in order, in enumerating mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cal/cal_checker.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "sched/explorer.hpp"
#include "sched/sim_objects.hpp"
#include "sched/rg.hpp"

namespace cal::sched {
namespace {

Value iv(std::int64_t x) { return Value::integer(x); }

struct ExchangerWorld {
  WorldConfig config;
  ExchangerSpec spec{Symbol{"E"}, Symbol{"exchange"}};
  const SimExchanger* machine = nullptr;
  std::vector<std::unique_ptr<SimObject>> objects;
};

ExchangerWorld make_exchanger_world(std::size_t n_threads,
                                    std::size_t ops_per_thread,
                                    bool record = false) {
  ExchangerWorld w;
  auto machine = std::make_unique<SimExchanger>(Symbol{"E"});
  w.machine = machine.get();
  w.objects.push_back(std::move(machine));
  for (std::size_t i = 0; i < n_threads; ++i) {
    ThreadProgram p;
    p.tid = static_cast<ThreadId>(i);
    for (std::size_t k = 0; k < ops_per_thread; ++k) {
      p.calls.push_back(Call{0, Symbol{"exchange"},
                             iv(static_cast<std::int64_t>(i * 100 + k))});
    }
    w.config.programs.push_back(std::move(p));
  }
  w.config.object_names = {Symbol{"E"}};
  w.config.spec = &w.spec;
  w.config.record_trace = true;
  if (record) w.config.record_history = true;
  w.config.heap_cells = 8;
  w.config.global_cells = 8;
  return w;
}

ExploreResult explore(std::size_t pool_threads, std::size_t n_threads,
                      std::size_t ops, ExploreOptions opts = {},
                      bool with_auditor = false, bool record = false) {
  ExchangerWorld w = make_exchanger_world(n_threads, ops, record);
  opts.threads = pool_threads;
  Explorer ex(w.config, std::move(w.objects), opts);
  std::unique_ptr<ExchangerRgAuditor> auditor;
  if (with_auditor) {
    auditor = std::make_unique<ExchangerRgAuditor>(*w.machine);
    ex.set_auditor(auditor.get());
  }
  return ex.run();
}

TEST(ParallelExplorerEquivalence, CleanExplorationCountersMatch) {
  // No violations, no caps, merging on: every engine must visit exactly
  // the same reachable state set, so the counters agree exactly.
  const ExploreResult seq = explore(1, 3, 1);
  for (std::size_t pool : {std::size_t{2}, std::size_t{8}}) {
    const ExploreResult par = explore(pool, 3, 1);
    EXPECT_EQ(seq.ok(), par.ok()) << "pool=" << pool;
    EXPECT_TRUE(par.ok());
    EXPECT_EQ(seq.states, par.states) << "pool=" << pool;
    EXPECT_EQ(seq.terminals, par.terminals) << "pool=" << pool;
    EXPECT_EQ(seq.transitions, par.transitions) << "pool=" << pool;
    EXPECT_EQ(seq.events, par.events) << "pool=" << pool;
  }
}

TEST(ParallelExplorerEquivalence, NoMergeCountersMatch) {
  ExploreOptions opts;
  opts.merge_states = false;
  const ExploreResult seq = explore(1, 2, 2, opts);
  for (std::size_t pool : {std::size_t{2}, std::size_t{8}}) {
    const ExploreResult par = explore(pool, 2, 2, opts);
    EXPECT_EQ(seq.ok(), par.ok());
    EXPECT_EQ(seq.states, par.states) << "pool=" << pool;
    EXPECT_EQ(seq.terminals, par.terminals) << "pool=" << pool;
    EXPECT_EQ(seq.transitions, par.transitions) << "pool=" << pool;
  }
}

TEST(ParallelExplorerEquivalence, RgAuditedExplorationStaysClean) {
  // The full Fig. 4 rely/guarantee audit runs inside every walker; the
  // verified exchanger must stay violation-free at every thread count.
  for (std::size_t pool :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const ExploreResult r = explore(pool, 2, 2, {}, /*with_auditor=*/true);
    EXPECT_TRUE(r.ok()) << "pool=" << pool << ": "
                        << (r.violations.empty()
                                ? ""
                                : r.violations.front().to_string());
    EXPECT_GT(r.states, 0u);
  }
}

TEST(ParallelExplorerEquivalence, TerminalHistorySetsMatch) {
  ExploreOptions opts;
  opts.merge_states = false;
  opts.collect_terminals = true;
  auto collect_sorted = [&](std::size_t pool) {
    const ExploreResult r = explore(pool, 2, 1, opts, false, /*record=*/true);
    std::vector<std::string> out;
    out.reserve(r.histories.size());
    for (const History& h : r.histories) out.push_back(h.to_string());
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto seq = collect_sorted(1);
  ASSERT_FALSE(seq.empty());
  EXPECT_EQ(seq, collect_sorted(2));
  EXPECT_EQ(seq, collect_sorted(8));
}

TEST(ParallelExplorerEquivalence, TerminalHistoriesFollowTheSequentialOrder) {
  // Collected terminals are ranked like violations, so without state
  // merging the parallel history list equals the sequential one in order
  // (and with it the "history i" numbering of check_failures).
  ExploreOptions opts;
  opts.merge_states = false;
  opts.collect_terminals = true;
  auto collect = [&](std::size_t pool) {
    const ExploreResult r = explore(pool, 2, 1, opts, false, /*record=*/true);
    std::vector<std::string> out;
    out.reserve(r.histories.size());
    for (const History& h : r.histories) out.push_back(h.to_string());
    EXPECT_EQ(r.traces.size(), r.histories.size());
    return out;
  };
  const auto seq = collect(1);
  ASSERT_GT(seq.size(), 1u);
  for (std::size_t pool : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    EXPECT_EQ(collect(pool), seq) << "pool=" << pool;
  }
}

/// Flags an invariant violation at every terminal state — a deterministic,
/// machine-independent way to seed violations deep in the schedule tree.
class TerminalFlagAuditor final : public TransitionAuditor {
 public:
  [[nodiscard]] std::optional<std::string> check_transition(
      const World&, const World&, ThreadId) const override {
    return std::nullopt;
  }
  [[nodiscard]] std::optional<std::string> check_invariant(
      const World& world) const override {
    if (world.all_done()) return "terminal reached";
    return std::nullopt;
  }
};

TEST(ParallelExplorerViolations, FirstViolationIsDeterministicAndReplayable) {
  ExploreOptions opts;
  opts.merge_states = false;  // branch-local search: fully deterministic
  std::vector<ScheduleStep> first_schedule;
  for (int run = 0; run < 3; ++run) {
    ExchangerWorld w = make_exchanger_world(2, 1);
    opts.threads = 8;
    TerminalFlagAuditor auditor;
    Explorer ex(w.config, std::move(w.objects), opts);
    ex.set_auditor(&auditor);
    ExploreResult r = ex.run();
    ASSERT_FALSE(r.ok());
    ASSERT_EQ(r.violations.size(), 1u);
    const auto& v = r.violations.front();
    EXPECT_EQ(v.what, "invariant: terminal reached");
    // Replaying the reported schedule must reach the flagged state.
    World replayed = ex.replay(v.schedule);
    EXPECT_TRUE(replayed.all_done()) << v.to_string();
    if (run == 0) {
      first_schedule = v.schedule;
    } else {
      EXPECT_EQ(first_schedule, v.schedule) << "run " << run
                                            << " chose a different violation";
    }
  }
}

TEST(ParallelExplorerViolations, AllViolationsModeFindsEveryTerminal) {
  ExploreOptions opts;
  opts.merge_states = false;
  opts.stop_on_first_violation = false;
  auto count = [&](std::size_t pool) {
    ExchangerWorld w = make_exchanger_world(2, 1);
    opts.threads = pool;
    TerminalFlagAuditor auditor;
    Explorer ex(w.config, std::move(w.objects), opts);
    ex.set_auditor(&auditor);
    return ex.run().violations.size();
  };
  const std::size_t seq = count(1);
  ASSERT_GT(seq, 0u);
  EXPECT_EQ(seq, count(2));
  EXPECT_EQ(seq, count(8));
}

/// The violations of an audited enumeration (every terminal flagged).
std::vector<ScheduleViolation> flagged_violations(std::size_t pool,
                                                  std::size_t n_threads,
                                                  std::size_t ops,
                                                  bool stop_on_first) {
  ExchangerWorld w = make_exchanger_world(n_threads, ops);
  ExploreOptions opts;
  opts.merge_states = false;
  opts.stop_on_first_violation = stop_on_first;
  opts.threads = pool;
  TerminalFlagAuditor auditor;
  Explorer ex(w.config, std::move(w.objects), opts);
  ex.set_auditor(&auditor);
  return ex.run().violations;
}

TEST(ParallelExplorerViolations, ViolationsFollowTheSequentialOrder) {
  // Without state merging nothing the parallel driver prunes depends on
  // worker timing, so ranking violations by their place in the sequential
  // DFS makes the parallel report equal the sequential one: the same
  // first violation, and in all-violations mode the same list in order.
  // The full list is compared on 2x1 (330 violations); 2x2 and 3x1 flag
  // 296 804 and 2.3 M terminals, too many for a unit test.
  struct Shape {
    std::size_t threads;
    std::size_t ops;
  };
  for (const Shape shape : {Shape{2, 1}, Shape{2, 2}, Shape{3, 1}}) {
    const bool compare_all = shape.threads == 2 && shape.ops == 1;
    const auto seq_first = flagged_violations(1, shape.threads, shape.ops,
                                              /*stop_on_first=*/true);
    ASSERT_EQ(seq_first.size(), 1u);
    std::vector<ScheduleViolation> seq_all;
    if (compare_all) {
      seq_all = flagged_violations(1, shape.threads, shape.ops,
                                   /*stop_on_first=*/false);
      ASSERT_GT(seq_all.size(), 1u);
    }
    for (std::size_t pool : {std::size_t{2}, std::size_t{3}, std::size_t{8}}) {
      SCOPED_TRACE("shape " + std::to_string(shape.threads) + "x" +
                   std::to_string(shape.ops) + ", pool " +
                   std::to_string(pool));
      const auto first = flagged_violations(pool, shape.threads, shape.ops,
                                            /*stop_on_first=*/true);
      ASSERT_EQ(first.size(), 1u);
      EXPECT_EQ(first.front().schedule, seq_first.front().schedule);
      if (!compare_all) continue;

      const auto all = flagged_violations(pool, shape.threads, shape.ops,
                                          /*stop_on_first=*/false);
      ASSERT_EQ(all.size(), seq_all.size());
      for (std::size_t i = 0; i < all.size(); ++i) {
        ASSERT_EQ(all[i].schedule, seq_all[i].schedule) << "violation " << i;
      }
    }
  }
}

TEST(ParallelExplorerViolations, MaxStatesCapTripsExhausted) {
  ExploreOptions opts;
  opts.max_states = 10;
  opts.threads = 8;
  ExchangerWorld w = make_exchanger_world(3, 2);
  Explorer ex(w.config, std::move(w.objects), opts);
  ExploreResult r = ex.run();
  EXPECT_TRUE(r.exhausted);
}

TEST(ParallelExplorerStress, RepeatedRunsStayConsistent) {
  // Back-to-back full-pool explorations of the 3-thread configuration:
  // shared visited-set contention plus walker cancellation paths.
  const ExploreResult seq = explore(1, 3, 1);
  for (int round = 0; round < 4; ++round) {
    const ExploreResult par = explore(8, 3, 1);
    EXPECT_TRUE(par.ok());
    EXPECT_EQ(seq.states, par.states);
    EXPECT_EQ(seq.terminals, par.terminals);
  }
}

}  // namespace
}  // namespace cal::sched
