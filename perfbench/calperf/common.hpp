// Shared vocabulary of the calperf benchmark: clocks, seeded inputs,
// spans recorded around calls into the library's public functions, and
// the per-trial result every workload returns.
//
// A *trial* is one complete workload instance: set-up, the measured run
// from the start barrier to the final verdict, then the output checks.
// main.cpp repeats trials for the requested number of seconds and reports
// medians over them.
#pragma once

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace cal {
class History;
}

namespace calperf {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// splitmix64: the only randomness source, so a seed fixes every input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

  /// A seeded permutation of first, first+1, ..., first+n-1.
  std::vector<std::int64_t> permutation(std::int64_t first, std::size_t n) {
    std::vector<std::int64_t> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = first + static_cast<std::int64_t>(i);
    }
    for (std::size_t i = n; i > 1; --i) std::swap(out[i - 1], out[below(i)]);
    return out;
  }

 private:
  std::uint64_t state_;
};

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(xs.size() - 1) + 0.5);
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank),
                   xs.end());
  return xs[rank];
}

inline double median(const std::vector<double>& xs) {
  return percentile(xs, 0.5);
}

/// Span kinds, one per call into a layer's public function.
enum class SpanKind : std::uint8_t {
  kRecord,      // runtime: Recorder::invoke / Recorder::respond
  kObjectOp,    // objects: one operation on the real object
  kPoll,        // runtime: Cursor::poll
  kPush,        // incremental: push() that did not close a window
  kPushWindow,  // incremental: push() during which windows_checked advanced
  kFinish,      // incremental: finish()
};

struct Span {
  SpanKind kind;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

/// One thread's spans, kept in memory and summarised after the trial.
/// Single-writer: each thread owns its log.
class SpanLog {
 public:
  void reserve(std::size_t n) { spans_.reserve(n); }
  void add(SpanKind kind, std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back(Span{kind, start_ns, end_ns});
  }

  /// Durations (ns) of every span of `kind`, in recording order.
  [[nodiscard]] std::vector<double> durations(SpanKind kind) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.kind == kind) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns));
      }
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
};

inline double sum(const std::vector<double>& xs) {
  double total = 0;
  for (double x : xs) total += x;
  return total;
}

/// Appends every element of `more` to `into`.
inline void append(std::vector<double>& into, const std::vector<double>& more) {
  into.insert(into.end(), more.begin(), more.end());
}

/// Resets the process's peak resident set to its current one, after handing
/// free heap memory back to the system.
inline void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set since the last reset_peak_rss(), in MiB; the process
/// peak where the kernel offers no VmHWM.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Resets the peak resident set, then builds `make()` and stores the
/// build's time in `setup_s`. The heap is trimmed first, so each trial's
/// set-up faults its memory in as a fresh process would, and the trial's
/// peak covers its built state and its run.
template <typename Make>
auto timed_setup(Make make, double& setup_s) {
  reset_peak_rss();
  const std::int64_t t0 = now_ns();
  auto state = make();
  setup_s = seconds_between(t0, now_ns());
  return state;
}

/// Runs `body(w)` for w < workers on threads released together by a start
/// barrier, then `reader()` on the calling thread, and joins.
/// Returns the release time. When the process may use more CPUs than there are
/// threads, the caller is pinned to one CPU for the duration and each
/// worker to its own: threads left to the scheduler were seen starting on
/// one shared CPU and staying there for about a second (README.md).
template <typename Body, typename Reader>
std::int64_t run_workers(std::size_t workers, Body body, Reader reader) {
  cpu_set_t caller_mask;
  CPU_ZERO(&caller_mask);
  sched_getaffinity(0, sizeof caller_mask, &caller_mask);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &caller_mask)) cpus.push_back(c);
  }
  const bool pin = cpus.size() > workers;
  const auto pin_to = [](int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
  };
  if (pin) pin_to(cpus[0]);

  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::int64_t start_ns = 0;
  {
    std::vector<std::jthread> threads;
    try {
      for (std::size_t w = 0; w < workers; ++w) {
        threads.emplace_back([&, w] {
          if (pin) pin_to(cpus[w + 1]);
          ready.fetch_add(1, std::memory_order_acq_rel);
          while (!go.load(std::memory_order_acquire)) {
          }
          body(w);
        });
      }
    } catch (...) {
      go.store(true, std::memory_order_release);  // lets the joins finish
      throw;
    }
    while (ready.load(std::memory_order_acquire) < workers) {
    }
    start_ns = now_ns();
    go.store(true, std::memory_order_release);
    reader();
  }  // joins the workers
  if (pin) sched_setaffinity(0, sizeof caller_mask, &caller_mask);
  return start_ns;
}

struct TrialParams {
  std::uint64_t seed = 0;
  /// Record spans (the per-layer run); untraced trials time only what the
  /// end-to-end metrics need.
  bool traced = false;
  /// Multiplies every workload size (the smoke test runs at a tiny scale).
  double scale = 1.0;
};

/// What one trial measured. Per-layer values are keyed by their names in
/// BENCHMARK.json; a layer the workload does not exercise is left out and
/// reported as 0.
struct Trial {
  bool ok = true;
  std::string failure;  ///< the first output check that failed
  std::size_t operations = 0;
  double setup_s = 0;           ///< building the trial's state
  double verdict_s = 0;         ///< start barrier → final verdict
  double peak_rss_mb = 0;       ///< peak resident set during the trial
  double actions_per_s = 0;
  double worker_ops_per_s = 0;
  double worker_max_s = 0;    ///< slowest worker, barrier → its last return
  /// Longest single call seen by a worker, from its previous return (or
  /// the barrier) to its return: tells one stalled call from a slow run.
  double longest_call_s = 0;
  std::vector<double> lag_ms;  ///< verdict latency, one sample per window
  std::map<std::string, double> layer;

  void check(bool cond, const char* what) {
    if (!cond && ok) {
      ok = false;
      failure = what;
    }
  }
};

/// Sets worker_max_s and worker_ops_per_s from each worker's time, from the
/// start barrier to its last return: the trial's calls over the slowest
/// worker's time.
inline void set_worker_times(const std::vector<double>& worker_s, Trial& t) {
  t.worker_max_s = *std::max_element(worker_s.begin(), worker_s.end());
  t.worker_ops_per_s = static_cast<double>(t.operations) / t.worker_max_s;
}

Trial run_exchanger_live(const TrialParams& p);
Trial run_elimstack_live(const TrialParams& p);
Trial run_pq_batch(const TrialParams& p);
Trial run_pq_phased(const TrialParams& p);
Trial run_explore_elimstack(const TrialParams& p);

/// Mean number of other operations pending when each operation of `h` is
/// invoked: 0 for a sequential history, at most workers - 1.
double overlap_mean(const cal::History& h);

}  // namespace calperf
