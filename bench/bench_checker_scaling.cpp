// Experiment T-CHECK — cost of the contributed decision procedures: the
// CAL membership checker vs the classical Wing–Gong linearizability
// checker, as history length and overlap width grow.
//
// Series regenerated:
//   * CAL checker on exchanger histories vs #operations (valid histories
//     from the known-good generator used in the property tests);
//   * classical checker on stack histories of the same lengths, and on
//     seeded overlapping stack histories (mostly refutations);
//   * CAL checker vs overlap width (all operations concurrent — the
//     adversarial case for the subset enumeration);
//   * the Def. 5 agreement check (linear pass) as the baseline primitive.
#include <benchmark/benchmark.h>

#include <optional>
#include <random>
#include <vector>

#include "cal/agree.hpp"
#include "cal/cal_checker.hpp"
#include "cal/lin_checker.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/stack_spec.hpp"

namespace {

using namespace cal;  // NOLINT: bench file

Value iv(std::int64_t x) { return Value::integer(x); }

/// Valid exchanger run: pairs of adjacent threads overlap and swap; one in
/// four operations fails. Deterministic by construction.
History exchanger_history(std::size_t n_ops) {
  HistoryBuilder b;
  std::int64_t v = 1;
  ThreadId t = 1;
  for (std::size_t i = 0; i + 1 < n_ops; i += 2) {
    if (i % 8 == 6) {
      b.op(t, "E", "exchange", iv(v), Value::pair(false, v));
      b.op(t + 1, "E", "exchange", iv(v + 1), Value::pair(false, v + 1));
    } else {
      b.call(t, "E", "exchange", iv(v));
      b.call(t + 1, "E", "exchange", iv(v + 1));
      b.ret(t, Value::pair(true, v + 1));
      b.ret(t + 1, Value::pair(true, v));
    }
    v += 2;
    t = (t % 6) + 1;
  }
  return b.history();
}

/// Fully-overlapping failures: worst case for candidate-set enumeration.
History wide_overlap_history(std::size_t width) {
  HistoryBuilder b;
  for (ThreadId t = 1; t <= width; ++t) {
    b.call(t, "E", "exchange", iv(t));
  }
  for (ThreadId t = 1; t <= width; ++t) {
    b.ret(t, Value::pair(false, t));
  }
  return b.history();
}

/// Valid stack history: per-thread push-then-pop rounds, overlapping.
History stack_history(std::size_t n_ops) {
  HistoryBuilder b;
  std::int64_t v = 1;
  for (std::size_t i = 0; i + 1 < n_ops; i += 2) {
    const ThreadId t = static_cast<ThreadId>(i / 2 % 3 + 1);
    b.op(t, "S", "push", iv(v), Value::boolean(true));
    b.op(t, "S", "pop", Value::unit(), Value::pair(true, v));
    ++v;
  }
  return b.history();
}

void BM_CalChecker_ExchangerHistory(benchmark::State& state) {
  const History h = exchanger_history(static_cast<std::size_t>(state.range(0)));
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  CalChecker checker(spec);
  std::size_t visited = 0;
  for (auto _ : state) {
    CalCheckResult r = checker.check(h);
    benchmark::DoNotOptimize(r.ok);
    visited = r.visited_states;
  }
  state.counters["ops"] = static_cast<double>(h.operations().size());
  state.counters["visited"] = static_cast<double>(visited);
}
BENCHMARK(BM_CalChecker_ExchangerHistory)
    ->ArgName("ops")
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128);

/// Copies a check's compression counters onto the benchmark series (T-MEM:
/// visited-set bytes is the headline; cache/pruning explain the speedups).
void record_compression(benchmark::State& state, const CalCheckResult& r) {
  state.counters["visited"] = static_cast<double>(r.visited_states);
  state.counters["visited_bytes"] = static_cast<double>(r.visited_bytes);
  state.counters["step_hits"] = static_cast<double>(r.step_cache_hits);
  state.counters["step_misses"] = static_cast<double>(r.step_cache_misses);
  state.counters["pruned"] = static_cast<double>(r.pruned_subsets);
}

void BM_CalChecker_OverlapWidth(benchmark::State& state) {
  // exact=1 stores full visited keys (CalCheckOptions::exact_visited)
  // instead of 128-bit fingerprints — the T-MEM before/after axis.
  const History h = wide_overlap_history(static_cast<std::size_t>(state.range(0)));
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  CalCheckOptions opts;
  opts.exact_visited = state.range(1) != 0;
  CalChecker checker(spec, opts);
  CalCheckResult r;
  for (auto _ : state) {
    r = checker.check(h);
    benchmark::DoNotOptimize(r.ok);
  }
  record_compression(state, r);
}
BENCHMARK(BM_CalChecker_OverlapWidth)
    ->ArgNames({"width", "exact"})
    ->Args({2, 0})
    ->Args({4, 0})
    ->Args({6, 0})
    ->Args({6, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({10, 0})
    ->Args({10, 1})
    ->Args({12, 0})
    ->Args({12, 1});

void BM_CalChecker_OverlapWidth_Reject(benchmark::State& state) {
  // Rejection needs full exhaustion, so this is the series where the
  // visited set peaks (T-MEM's headline numbers).
  History h = wide_overlap_history(static_cast<std::size_t>(state.range(0)));
  std::vector<Action> actions = h.actions();
  actions.back().payload = Value::pair(true, 424242);  // impossible swap
  const History bad{std::move(actions)};
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  CalCheckOptions opts;
  opts.exact_visited = state.range(1) != 0;
  CalChecker checker(spec, opts);
  CalCheckResult r;
  for (auto _ : state) {
    r = checker.check(bad);
    benchmark::DoNotOptimize(r.ok);
  }
  record_compression(state, r);
}
BENCHMARK(BM_CalChecker_OverlapWidth_Reject)
    ->ArgNames({"width", "exact"})
    ->Args({7, 0})
    ->Args({7, 1})
    ->Args({8, 0})
    ->Args({8, 1});

void BM_LinChecker_StackHistory(benchmark::State& state) {
  const History h = stack_history(static_cast<std::size_t>(state.range(0)));
  StackSpec spec(Symbol{"S"});
  LinChecker checker(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.check(h).ok);
  }
}
BENCHMARK(BM_LinChecker_StackHistory)
    ->ArgName("ops")
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128);

/// Overlapping stack history: `threads` threads each run ops/threads
/// push/pop calls, interleaved at random (seeded), each taking effect at
/// its invocation, so the history is linearizable. With `corrupt`, the
/// last pop to respond instead claims another value that was pushed,
/// which the checker can only refute after trying the interleavings
/// before it.
History overlap_stack_history(std::mt19937& rng, std::size_t threads,
                              std::size_t n_ops, bool corrupt) {
  auto rnd = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  std::vector<Action> actions;
  std::vector<std::size_t> left(threads, n_ops / threads);
  std::vector<std::optional<Value>> open(threads);  // return of the open op
  std::vector<std::int64_t> stack;
  std::int64_t next = 1;
  const Symbol s{"S"};
  const Symbol push{"push"};
  const Symbol pop{"pop"};
  std::size_t last_pop = 0;
  for (;;) {
    std::vector<std::size_t> live;
    for (std::size_t t = 0; t < threads; ++t) {
      if (open[t] || left[t] > 0) live.push_back(t);
    }
    if (live.empty()) break;
    const std::size_t t = live[rnd(live.size())];
    const auto tid = static_cast<ThreadId>(t + 1);
    if (open[t]) {
      const bool is_pop = open[t]->kind() == Value::Kind::kPair;
      if (is_pop) last_pop = actions.size();
      actions.push_back(
          Action::respond(tid, s, is_pop ? pop : push, *open[t]));
      open[t].reset();
    } else if (stack.empty() || rnd(2) == 0) {
      actions.push_back(Action::invoke(tid, s, push, iv(next)));
      stack.push_back(next++);
      open[t] = Value::boolean(true);
      --left[t];
    } else {
      actions.push_back(Action::invoke(tid, s, pop, Value::unit()));
      open[t] = Value::pair(true, stack.back());
      stack.pop_back();
      --left[t];
    }
  }
  if (corrupt && last_pop != 0 && next > 2) {
    const std::int64_t claimed = actions[last_pop].payload.pair_int();
    actions[last_pop].payload =
        Value::pair(true, claimed == 1 ? 2 : claimed - 1);
  }
  return History{std::move(actions)};
}

void BM_LinChecker_OverlapStackHistory(benchmark::State& state) {
  // 40 seeded histories per iteration, three in four corrupted.
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto n_ops = static_cast<std::size_t>(state.range(1));
  std::mt19937 rng(14);
  std::vector<History> histories;
  for (int i = 0; i < 40; ++i) {
    histories.push_back(
        overlap_stack_history(rng, threads, n_ops, /*corrupt=*/i % 4 != 0));
  }
  StackSpec spec(Symbol{"S"});
  LinChecker checker(spec);
  std::size_t accepted = 0;
  std::size_t visited = 0;
  for (auto _ : state) {
    accepted = 0;
    visited = 0;
    for (const History& h : histories) {
      const LinCheckResult r = checker.check(h);
      accepted += r.ok ? 1 : 0;
      visited += r.visited_states;
    }
  }
  state.counters["accepted"] = static_cast<double>(accepted);
  state.counters["visited_states"] = static_cast<double>(visited);
}
BENCHMARK(BM_LinChecker_OverlapStackHistory)
    ->ArgNames({"threads", "ops"})
    ->Args({3, 40})
    ->Args({4, 40})
    ->Unit(benchmark::kMillisecond);

void BM_Agree_Def5(benchmark::State& state) {
  const History h = exchanger_history(static_cast<std::size_t>(state.range(0)));
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  CalChecker checker(spec);
  const CaTrace witness = *checker.check(h).witness;
  for (auto _ : state) {
    benchmark::DoNotOptimize(agrees_with(h, witness).agrees);
  }
}
BENCHMARK(BM_Agree_Def5)->ArgName("ops")->Arg(16)->Arg(64)->Arg(256);

void BM_CalChecker_RejectsCorrupted(benchmark::State& state) {
  // Rejection cost: corrupt the last successful response; the checker must
  // exhaust the search space to answer "no".
  History h = exchanger_history(static_cast<std::size_t>(state.range(0)));
  std::vector<Action> actions = h.actions();
  for (auto it = actions.rbegin(); it != actions.rend(); ++it) {
    if (it->is_respond() && it->payload.kind() == Value::Kind::kPair &&
        it->payload.pair_ok()) {
      it->payload = Value::pair(true, 999999);
      break;
    }
  }
  const History bad{std::move(actions)};
  ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  CalChecker checker(spec);
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.check(bad).ok);
  }
}
BENCHMARK(BM_CalChecker_RejectsCorrupted)
    ->ArgName("ops")
    ->Arg(8)
    ->Arg(16)
    ->Arg(32);

}  // namespace

