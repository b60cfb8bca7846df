// The live workloads: three worker threads drive a real CA-object with
// recording on, while the main thread polls the Recorder cursor into an
// IncrementalChecker until finish() seals the verdict.
//
//   exchanger_live  — objects::Exchanger wrapped in Recorder::invoke/respond,
//                     checked against ExchangerSpec.
//   elimstack_live  — objects::EliminationStack, which records itself,
//                     checked against SeqAsCaSpec(StackSpec).
//
// Both are closed loop: a worker issues its next call only after the
// previous one returned.
#include <memory>
#include <optional>

#include "cal/engine/incremental.hpp"
#include "cal/replay.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "calperf/common.hpp"
#include "objects/elimination_stack.hpp"
#include "objects/exchanger.hpp"
#include "runtime/recorder.hpp"
#include "runtime/reclaim/ebr_reclaimer.hpp"

namespace calperf {
namespace {

using namespace cal;  // NOLINT: benchmark file

constexpr std::size_t kWorkers = 3;

/// What a worker leaves behind for the reader side to analyse after join.
struct WorkerLog {
  /// When each call returned to the worker (the lag clock's start).
  std::vector<std::int64_t> return_ns;
  SpanLog spans;
  std::uint64_t successes = 0;  ///< successful swaps (exchanger)
};

/// A window whose check consumed at least one response.
struct Window {
  ThreadId tid = 0;
  std::size_t call = 0;  ///< the call of the newest response it consumed
  std::int64_t checked_ns = 0;  ///< when the push/finish checking it returned
};

struct Pipeline {
  std::int64_t start_ns = 0;
  std::int64_t verdict_ns = 0;
  std::vector<WorkerLog> workers = std::vector<WorkerLog>(kWorkers);
  SpanLog reader;
  std::vector<Window> windows;
  std::size_t polls = 0;
  std::size_t empty_polls = 0;
  std::size_t backlog_max = 0;
  std::size_t frontier_max = 0;
  std::size_t active_max = 0;
};

/// Runs `call(w, k, log)` for k < calls on each of kWorkers threads while
/// the calling thread streams `rec` into `inc` and then finishes it.
template <typename Call>
Pipeline run_pipeline(const runtime::Recorder& rec,
                      engine::IncrementalChecker& inc, std::size_t calls,
                      bool traced, Call call) {
  Pipeline out;
  for (WorkerLog& log : out.workers) {
    log.return_ns.assign(calls, 0);
    if (traced) log.spans.reserve(3 * calls);
  }
  std::atomic<std::size_t> done{0};
  const auto body = [&](std::size_t w) {
    for (std::size_t k = 0; k < calls; ++k) call(w, k, out.workers[w]);
    done.fetch_add(1, std::memory_order_release);
  };
  const auto reader = [&] {
    runtime::Recorder::Cursor cursor = rec.cursor();
    std::vector<Action> batch;
    batch.reserve(1 << 12);
    std::size_t responses[kWorkers] = {};
    std::optional<Window> newest;  // newest response since the last window
    const auto close_window = [&](std::int64_t at) {
      const engine::IncrementalStatus& s = inc.status();
      out.frontier_max = std::max(out.frontier_max, s.frontier_size);
      out.active_max = std::max(out.active_max, s.active_ops);
      if (newest) {
        newest->checked_ns = at;
        out.windows.push_back(*newest);
        newest.reset();
      }
    };
    for (;;) {
      const bool finished = done.load(std::memory_order_acquire) == kWorkers;
      out.backlog_max =
          std::max(out.backlog_max, rec.size() - cursor.position());
      batch.clear();
      const std::int64_t p0 = traced ? now_ns() : 0;
      const std::size_t n =
          cursor.poll([&batch](const Action& a) { batch.push_back(a); });
      if (traced) out.reader.add(SpanKind::kPoll, p0, now_ns());
      ++out.polls;
      if (n == 0) ++out.empty_polls;
      for (const Action& a : batch) {
        if (a.is_respond()) newest = Window{a.tid, responses[a.tid]++, 0};
        const std::size_t before = inc.status().windows_checked;
        const std::int64_t t0 = traced ? now_ns() : 0;
        inc.push(a);
        const bool window = inc.status().windows_checked != before;
        if (window || traced) {
          const std::int64_t t1 = now_ns();
          if (window) close_window(t1);
          if (traced) {
            out.reader.add(window ? SpanKind::kPushWindow : SpanKind::kPush,
                           t0, t1);
          }
        }
      }
      if (!inc.ok()) break;
      if (n == 0 && finished && cursor.position() == rec.size()) break;
    }
    const std::size_t before = inc.status().windows_checked;
    const std::int64_t f0 = now_ns();
    inc.finish();
    out.verdict_ns = now_ns();
    if (inc.status().windows_checked != before) close_window(out.verdict_ns);
    if (traced) out.reader.add(SpanKind::kFinish, f0, out.verdict_ns);
  };
  out.start_ns = run_workers(kWorkers, body, reader);
  return out;
}

std::size_t calls_per_worker(std::size_t full, double scale) {
  return std::max<std::size_t>(
      8, static_cast<std::size_t>(static_cast<double>(full) * scale));
}

/// The output checks, end-to-end figures and per-layer figures shared by
/// both live workloads. Runs after the verdict, outside the timed region.
void summarise(const Pipeline& pl, const runtime::Recorder& rec,
               const engine::IncrementalChecker& inc, const CaSpec& spec,
               const runtime::EbrReclaimer& reclaimer, bool traced, Trial& t) {
  const engine::IncrementalStatus& s = inc.status();
  t.check(s.finished && s.ok && !s.exhausted, "incremental verdict rejected");
  t.check(rec.dropped() == 0, "recorder dropped actions");
  t.check(s.actions_consumed == rec.size(),
          "checker consumed a different number of actions than recorded");
  const std::optional<CaTrace> witness = inc.witness();
  t.check(witness.has_value() && replay_ca(*witness, spec).ok,
          "witness does not replay against the spec");

  t.operations = kWorkers * pl.workers[0].return_ns.size();
  t.verdict_s = seconds_between(pl.start_ns, pl.verdict_ns);
  t.actions_per_s = static_cast<double>(s.actions_consumed) / t.verdict_s;
  std::vector<double> worker_s;
  for (const WorkerLog& w : pl.workers) {
    std::int64_t previous = pl.start_ns;
    for (std::int64_t r : w.return_ns) {
      t.longest_call_s =
          std::max(t.longest_call_s, seconds_between(previous, r));
      previous = r;
    }
    worker_s.push_back(seconds_between(pl.start_ns, previous));
  }
  set_worker_times(worker_s, t);
  for (const Window& w : pl.windows) {
    const std::int64_t returned = pl.workers[w.tid].return_ns[w.call];
    t.lag_ms.push_back(static_cast<double>(w.checked_ns - returned) * 1e-6);
  }

  const std::int64_t snap0 = now_ns();
  const History h = rec.snapshot();
  const std::int64_t snap1 = now_ns();
  auto& m = t.layer;
  m["objects.overlap_mean"] = overlap_mean(h);
  m["objects.worker_max_ms"] = t.worker_max_s * 1e3;
  m["runtime.snapshot_ms"] = static_cast<double>(snap1 - snap0) * 1e-6;
  m["runtime.dropped"] = static_cast<double>(rec.dropped());
  m["runtime.backlog_max"] = static_cast<double>(pl.backlog_max);
  m["runtime.poll_empty_frac"] =
      static_cast<double>(pl.empty_polls) / static_cast<double>(pl.polls);
  m["runtime.retired_high_water"] =
      static_cast<double>(reclaimer.stats().retired_high_water);
  m["incremental.windows"] = static_cast<double>(s.windows_checked);
  m["incremental.visited_states"] = static_cast<double>(s.visited_states);
  m["incremental.visited_per_window"] =
      static_cast<double>(s.visited_states) /
      static_cast<double>(std::max<std::size_t>(1, s.windows_checked));
  m["incremental.frontier_max"] = static_cast<double>(pl.frontier_max);
  m["incremental.active_ops_max"] = static_cast<double>(pl.active_max);
  m["incremental.retired_ops"] = static_cast<double>(s.retired_ops);
  if (!traced) return;

  std::vector<double> op_ns;
  std::vector<double> record_ns;
  for (const WorkerLog& w : pl.workers) {
    append(op_ns, w.spans.durations(SpanKind::kObjectOp));
    append(record_ns, w.spans.durations(SpanKind::kRecord));
  }
  m["objects.op_ns_p50"] = percentile(op_ns, 0.5);
  m["objects.op_ns_p99"] = percentile(op_ns, 0.99);
  if (!record_ns.empty()) {
    m["runtime.record_ns_p50"] = percentile(record_ns, 0.5);
    m["runtime.record_ns_p99"] = percentile(record_ns, 0.99);
  }
  const std::vector<double> poll = pl.reader.durations(SpanKind::kPoll);
  const std::vector<double> win = pl.reader.durations(SpanKind::kPushWindow);
  const std::vector<double> push = pl.reader.durations(SpanKind::kPush);
  const std::vector<double> fin = pl.reader.durations(SpanKind::kFinish);
  m["runtime.poll_busy_s"] = sum(poll) * 1e-9;
  m["incremental.window_busy_s"] = sum(win) * 1e-9;
  m["incremental.window_ns_p50"] = percentile(win, 0.5);
  m["incremental.window_ns_p99"] = percentile(win, 0.99);
  m["incremental.push_ns_p50"] = percentile(push, 0.5);
  m["incremental.finish_ms"] = sum(fin) * 1e-6;
  if (win.size() >= 10) {
    const auto tenth = static_cast<std::ptrdiff_t>(win.size() / 10);
    m["incremental.window_growth"] =
        median({win.end() - tenth, win.end()}) /
        median({win.begin(), win.begin() + tenth});
  }
  m["trace.reader_coverage"] =
      (sum(poll) + sum(win) + sum(push) + sum(fin)) * 1e-9 / t.verdict_s;
}

/// Everything an exchanger_live trial builds before its workers start.
struct ExchangerSetup {
  explicit ExchangerSetup(std::size_t capacity) : rec(capacity) {}

  runtime::EpochDomain domain;
  runtime::EbrReclaimer reclaimer{domain};
  runtime::Recorder rec;
  objects::Exchanger ex{reclaimer, Symbol("E")};
  ExchangerSpec spec{ex.name(), ex.method()};
  engine::IncrementalChecker inc{spec};
};

/// Everything an elimstack_live trial builds before its workers start.
struct ElimStackSetup {
  explicit ElimStackSetup(std::size_t capacity) : rec(capacity) {}

  runtime::EpochDomain domain;
  runtime::EbrReclaimer reclaimer{domain};
  runtime::Recorder rec;
  objects::EliminationStack es{reclaimer, Symbol("ES"), /*width=*/1,
                               /*trace=*/nullptr, &rec};
  SeqAsCaSpec spec{std::make_shared<StackSpec>(es.name())};
  engine::IncrementalChecker inc{spec};
};

}  // namespace

Trial run_exchanger_live(const TrialParams& p) {
  // 9 000 actions: long enough for the per-window cost to grow with the
  // history (incremental.window_growth about 8), short enough for a run to
  // hold some 200 trials, so that its figures hold still on a noisy host.
  const std::size_t calls = calls_per_worker(1500, p.scale);
  Rng rng(p.seed);
  const std::vector<std::int64_t> values =
      rng.permutation(1 + static_cast<std::int64_t>(rng.below(1 << 20)),
                      kWorkers * calls);

  Trial t;
  const auto s = timed_setup(
      [&] { return std::make_unique<ExchangerSetup>(2 * kWorkers * calls); },
      t.setup_s);
  const bool traced = p.traced;
  const Symbol name = s->ex.name();
  const Symbol method = s->ex.method();
  const Pipeline pl = run_pipeline(
      s->rec, s->inc, calls, traced,
      [&](std::size_t w, std::size_t k, WorkerLog& log) {
        const auto tid = static_cast<ThreadId>(w);
        const std::int64_t v = values[w * calls + k];
        const std::int64_t t0 = traced ? now_ns() : 0;
        s->rec.invoke(tid, name, method, Value::integer(v));
        const std::int64_t t1 = traced ? now_ns() : 0;
        const objects::ExchangeResult r = s->ex.exchange(tid, v);
        const std::int64_t t2 = traced ? now_ns() : 0;
        s->rec.respond(tid, name, method, Value::pair(r.ok, r.value));
        const std::int64_t t3 = now_ns();
        log.return_ns[k] = t3;
        log.successes += r.ok ? 1 : 0;
        if (traced) {
          log.spans.add(SpanKind::kRecord, t0, t1);
          log.spans.add(SpanKind::kObjectOp, t1, t2);
          log.spans.add(SpanKind::kRecord, t2, t3);
        }
      });

  summarise(pl, s->rec, s->inc, s->spec, s->reclaimer, traced, t);
  std::uint64_t swaps = 0;
  for (const WorkerLog& w : pl.workers) swaps += w.successes;
  t.layer["objects.exchange_pair_ratio"] =
      static_cast<double>(swaps) / static_cast<double>(t.operations);
  return t;
}

Trial run_elimstack_live(const TrialParams& p) {
  // 3 600 actions, sized like exchanger_live (window_growth about 2.4).
  // The workload is not listed in BENCHMARK.json: its history shape does
  // not repeat from run to run on a busy host (README.md).
  const std::size_t calls = calls_per_worker(600, p.scale);
  // Per worker: seeded bursts of b pushes followed by b pops, b in
  // [1, kMaxBurst], and distinct seeded push values. No prefix holds more
  // pops than pushes, so every pop finds an element (Fig. 2's pop never
  // reports empty; it would spin), and each worker's net contribution to
  // the stack returns to zero after every burst. That bounds the stack and
  // with it the orders of concurrently pushed values the checker must
  // carry: with an unbounded random walk, buried values keep every order
  // of their concurrent pushes alive and the frontier grows without bound.
  constexpr std::size_t kMaxBurst = 2;
  Rng rng(p.seed);
  std::vector<std::vector<bool>> is_push(kWorkers);
  std::vector<std::size_t> next_value(kWorkers + 1, 0);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    std::vector<bool>& pattern = is_push[w];
    while (pattern.size() + 2 <= calls) {
      const std::size_t b = std::min<std::size_t>(
          1 + rng.below(kMaxBurst), (calls - pattern.size()) / 2);
      pattern.insert(pattern.end(), b, true);
      pattern.insert(pattern.end(), b, false);
    }
    pattern.resize(calls, true);  // an odd remainder is one last push
    next_value[w + 1] =
        next_value[w] + static_cast<std::size_t>(
                            std::count(pattern.begin(), pattern.end(), true));
  }
  const std::vector<std::int64_t> values =
      rng.permutation(1 + static_cast<std::int64_t>(rng.below(1 << 20)),
                      next_value[kWorkers]);

  Trial t;
  const auto s = timed_setup(
      [&] { return std::make_unique<ElimStackSetup>(2 * kWorkers * calls); },
      t.setup_s);
  const bool traced = p.traced;
  const Pipeline pl = run_pipeline(
      s->rec, s->inc, calls, traced,
      [&](std::size_t w, std::size_t k, WorkerLog& log) {
        const auto tid = static_cast<ThreadId>(w);
        const std::int64_t t0 = traced ? now_ns() : 0;
        if (is_push[w][k]) {
          s->es.push(tid, values[next_value[w]++]);
        } else {
          (void)s->es.pop(tid);
        }
        const std::int64_t t1 = now_ns();
        log.return_ns[k] = t1;
        if (traced) log.spans.add(SpanKind::kObjectOp, t0, t1);
      });

  summarise(pl, s->rec, s->inc, s->spec, s->reclaimer, traced, t);
  // The share of calls completed by an elimination-array swap.
  t.layer["objects.exchange_pair_ratio"] =
      static_cast<double>(s->es.eliminations()) /
      static_cast<double>(t.operations);
  return t;
}

double overlap_mean(const History& h) {
  std::map<ThreadId, bool> open;
  std::size_t pending = 0;
  std::size_t invokes = 0;
  double total = 0;
  for (const Action& a : h.actions()) {
    if (a.is_invoke()) {
      total += static_cast<double>(pending);
      ++invokes;
      ++pending;
      open[a.tid] = true;
    } else if (open[a.tid]) {
      open[a.tid] = false;
      --pending;
    }
  }
  return invokes == 0 ? 0.0 : total / static_cast<double>(invokes);
}

}  // namespace calperf
