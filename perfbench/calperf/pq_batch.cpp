// The batch priority-queue workloads: three workers insert seeded distinct
// priorities into the real objects::BucketPriorityQueue and call deleteMin,
// each call wrapped in Recorder::invoke/respond. After the join the history
// is taken with Recorder::snapshot and decided by one
// CalChecker(PriorityQueueCaSpec) check, which the Bouajjani–Enea–Wang
// order path decides without the incremental engine.
//
//   pq_batch   — each worker's inserts and deleteMins in a seeded order, so
//                deleteMins run beside inserts. The queue fails its check
//                here (README.md); the workload is the reproduction.
//   pq_phased  — each worker inserts all its priorities, the workers meet
//                at a barrier, then each calls deleteMin as often as it
//                inserted. Only deleteMins run beside each other, and
//                every one of them finds an element.
#include <memory>

#include "cal/cal_checker.hpp"
#include "cal/specs/priority_queue_spec.hpp"
#include "calperf/common.hpp"
#include "objects/priority_queue.hpp"
#include "runtime/recorder.hpp"
#include "runtime/reclaim/ebr_reclaimer.hpp"

namespace calperf {

using namespace cal;  // NOLINT: benchmark file

namespace {

/// Everything a pq_batch trial builds before its workers start.
struct PqSetup {
  PqSetup(std::size_t capacity, std::size_t buckets)
      : rec(capacity), pq(domain, Symbol("P"), buckets) {}

  runtime::EpochDomain domain;
  runtime::EbrReclaimer reclaimer{domain};  // reads the shared domain's stats
  runtime::Recorder rec;
  objects::BucketPriorityQueue pq;
  PriorityQueueCaSpec spec{pq.name()};
  CalChecker checker{spec};
};

Trial run_pq(const TrialParams& p, bool phased) {
  constexpr std::size_t kWorkers = 3;
  const std::size_t inserts = std::max<std::size_t>(
      4, static_cast<std::size_t>(4000 * p.scale));  // per worker
  const std::size_t calls = 2 * inserts;

  // Per worker: `inserts` inserts and as many deleteMins, in a seeded order
  // or inserts first; the priorities are a seeded permutation of
  // [0, kWorkers * inserts).
  Rng rng(p.seed);
  const std::vector<std::int64_t> priorities =
      rng.permutation(0, kWorkers * inserts);
  std::vector<std::vector<bool>> is_insert(kWorkers);
  for (std::vector<bool>& pattern : is_insert) {
    pattern.assign(calls, false);
    std::fill(pattern.begin(), pattern.begin() + inserts, true);
    for (std::size_t i = phased ? 0 : calls; i > 1; --i) {
      std::vector<bool>::swap(pattern[i - 1], pattern[rng.below(i)]);
    }
  }

  Trial t;
  const auto s = timed_setup(
      [&] {
        return std::make_unique<PqSetup>(2 * kWorkers * calls,
                                         priorities.size());
      },
      t.setup_s);
  const Symbol name = s->pq.name();
  const Symbol insert("insert");
  const Symbol delete_min("deleteMin");

  struct Worker {
    std::int64_t last_return_ns = 0;
    std::vector<std::int64_t> deleted;
    SpanLog spans;
  };
  std::vector<Worker> workers(kWorkers);
  std::atomic<std::size_t> inserted{0};  // workers done with their inserts
  const bool traced = p.traced;
  const auto body = [&](std::size_t w) {
    Worker& me = workers[w];
    if (traced) me.spans.reserve(3 * calls);
    me.deleted.reserve(inserts);
    const auto tid = static_cast<ThreadId>(w);
    std::size_t next = w * inserts;
    for (std::size_t k = 0; k < calls; ++k) {
      if (phased && k == inserts) {
        inserted.fetch_add(1, std::memory_order_acq_rel);
        while (inserted.load(std::memory_order_acquire) < kWorkers) {
        }
      }
      const std::int64_t t0 = traced ? now_ns() : 0;
      std::int64_t t1 = 0;
      std::int64_t t2 = 0;
      if (is_insert[w][k]) {
        const std::int64_t v = priorities[next++];
        s->rec.invoke(tid, name, insert, Value::integer(v));
        t1 = traced ? now_ns() : 0;
        const bool ok = s->pq.insert(tid, v);
        t2 = traced ? now_ns() : 0;
        s->rec.respond(tid, name, insert, Value::boolean(ok));
      } else {
        s->rec.invoke(tid, name, delete_min);
        t1 = traced ? now_ns() : 0;
        const objects::PopResult r = s->pq.delete_min(tid);
        t2 = traced ? now_ns() : 0;
        s->rec.respond(tid, name, delete_min, Value::pair(r.ok, r.value));
        if (r.ok) me.deleted.push_back(r.value);
      }
      const std::int64_t t3 = now_ns();
      me.last_return_ns = t3;
      if (traced) {
        me.spans.add(SpanKind::kRecord, t0, t1);
        me.spans.add(SpanKind::kObjectOp, t1, t2);
        me.spans.add(SpanKind::kRecord, t2, t3);
      }
    }
  };
  // The main thread only waits: the check starts after the join.
  const std::int64_t start_ns =
      run_workers(kWorkers, body, [] {});

  const std::int64_t snap0 = now_ns();
  const History h = s->rec.snapshot();
  const std::int64_t check0 = now_ns();
  const CalCheckResult r = s->checker.check(h);
  const std::int64_t verdict_ns = now_ns();

  // Output checks, outside the timed region.
  t.check(r.ok, "batch verdict rejected");
  t.check(r.order_checked, "verdict did not come from the order check");
  t.check(s->rec.dropped() == 0, "recorder dropped actions");
  t.check(h.size() == 2 * kWorkers * calls, "history is missing actions");
  std::vector<char> seen(priorities.size(), 0);
  bool conserved = true;
  for (const Worker& w : workers) {
    for (std::int64_t v : w.deleted) {
      const bool inserted =
          v >= 0 && static_cast<std::size_t>(v) < priorities.size();
      conserved = conserved && inserted && seen[static_cast<std::size_t>(v)] == 0;
      if (inserted) seen[static_cast<std::size_t>(v)] = 1;
    }
  }
  t.check(conserved, "a deleted value was never inserted or deleted twice");
  if (phased) {
    std::size_t deleted = 0;
    for (const Worker& w : workers) deleted += w.deleted.size();
    t.check(deleted == priorities.size(), "a deleteMin found the queue empty");
  }

  std::int64_t last_return = start_ns;
  std::vector<double> worker_s;
  for (const Worker& w : workers) {
    last_return = std::max(last_return, w.last_return_ns);
    worker_s.push_back(seconds_between(start_ns, w.last_return_ns));
  }
  t.operations = kWorkers * calls;
  t.verdict_s = seconds_between(start_ns, verdict_ns);
  t.actions_per_s = static_cast<double>(h.size()) / t.verdict_s;
  set_worker_times(worker_s, t);
  // One window per trial: the whole history, ready once the last worker
  // returned.
  t.lag_ms.push_back(static_cast<double>(verdict_ns - last_return) * 1e-6);

  auto& m = t.layer;
  m["objects.overlap_mean"] = overlap_mean(h);
  m["objects.worker_max_ms"] = t.worker_max_s * 1e3;
  m["runtime.snapshot_ms"] = static_cast<double>(check0 - snap0) * 1e-6;
  m["runtime.dropped"] = static_cast<double>(s->rec.dropped());
  m["runtime.retired_high_water"] =
      static_cast<double>(s->reclaimer.stats().retired_high_water);
  m["checker.check_ms"] = static_cast<double>(verdict_ns - check0) * 1e-6;
  m["checker.order_checked"] = r.order_checked ? 1.0 : 0.0;
  m["checker.order_values"] = static_cast<double>(r.order_values);
  m["checker.order_zones"] = static_cast<double>(r.order_zones);
  m["checker.order_bumps"] = static_cast<double>(r.order_bumps);
  m["checker.visited_states"] = static_cast<double>(r.visited_states);
  if (traced) {
    std::vector<double> op_ns;
    std::vector<double> record_ns;
    for (const Worker& w : workers) {
      append(op_ns, w.spans.durations(SpanKind::kObjectOp));
      append(record_ns, w.spans.durations(SpanKind::kRecord));
    }
    m["objects.op_ns_p50"] = percentile(op_ns, 0.5);
    m["objects.op_ns_p99"] = percentile(op_ns, 0.99);
    m["runtime.record_ns_p50"] = percentile(record_ns, 0.5);
    m["runtime.record_ns_p99"] = percentile(record_ns, 0.99);
  }
  return t;
}

}  // namespace

Trial run_pq_batch(const TrialParams& p) { return run_pq(p, false); }

Trial run_pq_phased(const TrialParams& p) { return run_pq(p, true); }

}  // namespace calperf
