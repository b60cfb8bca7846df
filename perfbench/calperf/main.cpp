// calperf — the end-to-end CAL benchmark program.
//
//   calperf --workload NAME --seed N --seconds S --trace 0|1 [--scale F]
//
// Repeats trials of one workload for S seconds (at least three), checks
// every trial's outputs, and prints one JSON object as the last line of
// standard output: the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1. A traced run alternates untraced and traced
// trials so that it can report the tracing overhead. Lines before the
// JSON start with '#' and carry the host stamp and per-trial detail.
// See perfbench/README.md for the workloads and what each metric means.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "calperf/common.hpp"

#ifndef CALPERF_BUILD_TYPE
#define CALPERF_BUILD_TYPE "unknown"
#endif

namespace calperf {
namespace {

constexpr rlim_t kMemoryLimit = rlim_t{4} << 30;

struct MetricDef {
  const char* name;
  const char* unit;
};

struct Metric {
  MetricDef def;
  double value;
};

constexpr MetricDef kPerLayer[] = {
    {"objects.op_ns_p50", "ns"},
    {"objects.op_ns_p99", "ns"},
    {"objects.exchange_pair_ratio", "ratio"},
    {"objects.overlap_mean", "count"},
    {"objects.worker_max_ms", "ms"},
    {"runtime.record_ns_p50", "ns"},
    {"runtime.record_ns_p99", "ns"},
    {"runtime.dropped", "count"},
    {"runtime.backlog_max", "count"},
    {"runtime.poll_busy_s", "s"},
    {"runtime.poll_empty_frac", "ratio"},
    {"runtime.snapshot_ms", "ms"},
    {"runtime.retired_high_water", "count"},
    {"incremental.windows", "count"},
    {"incremental.window_busy_s", "s"},
    {"incremental.window_ns_p50", "ns"},
    {"incremental.window_ns_p99", "ns"},
    {"incremental.push_ns_p50", "ns"},
    {"incremental.finish_ms", "ms"},
    {"incremental.window_growth", "ratio"},
    {"incremental.visited_states", "count"},
    {"incremental.visited_per_window", "count"},
    {"incremental.frontier_max", "count"},
    {"incremental.active_ops_max", "count"},
    {"incremental.retired_ops", "count"},
    {"checker.check_ms", "ms"},
    {"checker.order_checked", "count"},
    {"checker.order_values", "count"},
    {"checker.order_zones", "count"},
    {"checker.order_bumps", "count"},
    {"checker.visited_states", "count"},
    {"sched.states", "count"},
    {"sched.transitions", "count"},
    {"sched.merged", "count"},
    {"sched.terminals", "count"},
    {"sched.states_per_s", "1/s"},
    {"sched.merge_frac", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.reader_coverage", "ratio"},
};

struct Workload {
  const char* name;
  Trial (*run)(const TrialParams&);
};

constexpr Workload kWorkloads[] = {
    {"exchanger_live", run_exchanger_live},
    {"elimstack_live", run_elimstack_live},
    {"pq_batch", run_pq_batch},
    {"pq_phased", run_pq_phased},
    {"explore_elimstack", run_explore_elimstack},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "calperf: %s\nusage: calperf --workload NAME --seed N "
               "--seconds S --trace 0|1 [--scale F]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) usage("missing flag value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, value) == 0) a.workload = &w;
      }
      if (a.workload == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(value, "1") == 0;
      if (!a.trace && std::strcmp(value, "0") != 0) usage("bad --trace");
    } else if (flag == "--scale") {
      a.scale = std::strtod(value, &end);
    } else {
      usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') usage("bad number");
  }
  if (a.workload == nullptr) usage("--workload is required");
  if (!(a.seconds > 0) || !(a.scale > 0)) usage("bad --seconds or --scale");
  return a;
}

std::uint64_t trial_seed(std::uint64_t seed, std::size_t trial) {
  Rng rng(seed ^ (0x5851f42d4c957f2dULL * (trial + 1)));
  return rng.next();
}

std::vector<double> values_of(const std::vector<Trial>& trials,
                              double Trial::*field) {
  std::vector<double> xs;
  for (const Trial& t : trials) xs.push_back(t.*field);
  return xs;
}

double median_of(const std::vector<Trial>& trials, double Trial::*field) {
  return median(values_of(trials, field));
}

/// worker_ops_per_s is the 90th percentile over the run's trials, where
/// every other end-to-end metric is the median. The workers' phase of a
/// live trial lasts a few milliseconds, and in busy stretches of a shared
/// host most trials lose one of their CPUs for a scheduler slice or more;
/// such stalls only ever lower the rate. The fast tenth of the trials
/// shows the program's own cost; the per-layer objects.worker_max_ms and
/// the trial lines show the stalls (README.md, "Host noise").
constexpr double kWorkerRateQuantile = 0.9;

std::string json_number(double x) {
  if (!std::isfinite(x)) x = 0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string trial_line(std::size_t i, bool traced, const Trial& t) {
  const auto layer = [&t](const char* key) {
    const auto it = t.layer.find(key);
    return it == t.layer.end() ? 0.0 : it->second;
  };
  char buf[640];
  std::snprintf(buf, sizeof buf,
                "# trial %zu%s %s verdict_s=%.4f worker_max_ms=%.3f "
                "longest_call_ms=%.3f setup_ms=%.4f peak_rss_mb=%.1f "
                "lag_p50_ms=%.3f lag_p99_ms=%.3f "
                "windows=%zu overlap_mean=%.4f exchange_pair_ratio=%.4f "
                "visited_per_window=%.2f",
                i, traced ? " traced" : "", t.ok ? "ok" : "FAILED",
                t.verdict_s, t.worker_max_s * 1e3, t.longest_call_s * 1e3,
                t.setup_s * 1e3, t.peak_rss_mb, percentile(t.lag_ms, 0.5),
                percentile(t.lag_ms, 0.99), t.lag_ms.size(),
                layer("objects.overlap_mean"),
                layer("objects.exchange_pair_ratio"),
                layer("incremental.visited_per_window"));
  std::string line = buf;
  if (!t.ok) line += " (" + t.failure + ")";
  return line;
}

int run(const Args& a) {
#ifndef NDEBUG
  const bool release = false;
#else
  const bool release = std::strcmp(CALPERF_BUILD_TYPE, "Release") == 0;
#endif
  if (!release) {
    std::fprintf(stderr,
                 "calperf: refusing to report from a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 CALPERF_BUILD_TYPE);
    return 3;
  }
  // A checker whose frontier explodes must fail this run with bad_alloc,
  // not exhaust the memory of the machine it shares. Sanitizer builds
  // reserve terabytes of shadow address space, so they run without it.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  const rlimit address_space{kMemoryLimit, kMemoryLimit};
  setrlimit(RLIMIT_AS, &address_space);
#endif
  std::printf("# calperf workload=%s seed=%llu seconds=%g trace=%d scale=%g\n",
              a.workload->name, static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, a.scale);
  std::printf("# host nproc=%u compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), compiler().c_str(),
              CALPERF_BUILD_TYPE);

  const std::size_t min_trials = 3;
  std::vector<Trial> plain;
  std::vector<Trial> traced;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const std::int64_t begin = now_ns();
  for (std::size_t i = 0;; ++i) {
    const bool elapsed = seconds_between(begin, now_ns()) >= a.seconds;
    if (elapsed && plain.size() >= min_trials &&
        (!a.trace || traced.size() >= min_trials)) {
      break;
    }
    TrialParams p;
    p.seed = trial_seed(a.seed, i);
    p.traced = a.trace && i % 2 == 1;
    p.scale = a.scale;
    Trial t = a.workload->run(p);
    t.peak_rss_mb = peak_rss_mb();
    std::printf("%s\n", trial_line(i, p.traced, t).c_str());
    std::fflush(stdout);
    attempted += t.operations;
    if (!t.ok) failed += t.operations;
    (p.traced ? traced : plain).push_back(std::move(t));
  }

  std::vector<Metric> metrics;
  const double verdict = median_of(plain, &Trial::verdict_s);
  if (!a.trace) {
    // Each trial's lag percentiles over its windows, then the median over
    // trials, like every other end-to-end metric but worker_ops_per_s.
    std::vector<double> lag_p50;
    std::vector<double> lag_p99;
    std::size_t windows = 0;
    for (const Trial& t : plain) {
      lag_p50.push_back(percentile(t.lag_ms, 0.5));
      lag_p99.push_back(percentile(t.lag_ms, 0.99));
      windows += t.lag_ms.size();
    }
    metrics = {
        {{"setup_s", "s"}, median_of(plain, &Trial::setup_s)},
        {{"actions_per_s", "1/s"}, median_of(plain, &Trial::actions_per_s)},
        {{"lag_p50_ms", "ms"}, median(lag_p50)},
        {{"lag_p99_ms", "ms"}, median(lag_p99)},
        {{"worker_ops_per_s", "1/s"},
         percentile(values_of(plain, &Trial::worker_ops_per_s),
                    kWorkerRateQuantile)},
        {{"verdict_s", "s"}, verdict},
        {{"peak_rss_mb", "MiB"}, median_of(plain, &Trial::peak_rss_mb)},
    };
    std::printf("# samples: trials=%zu lag_windows=%zu\n", plain.size(),
                windows);
  } else {
    const double overhead =
        (median_of(traced, &Trial::verdict_s) / verdict - 1.0) * 100.0;
    for (const MetricDef& d : kPerLayer) {
      std::vector<double> xs;
      for (const Trial& t : traced) {
        const auto it = t.layer.find(d.name);
        if (it != t.layer.end()) xs.push_back(it->second);
      }
      const bool is_overhead = std::strcmp(d.name, "trace.overhead_pct") == 0;
      metrics.push_back({d, is_overhead ? overhead : median(xs)});
    }
    std::printf("# samples: untraced_trials=%zu traced_trials=%zu\n",
                plain.size(), traced.size());
  }
  std::printf("# failed_frac = %s (failed %zu of %zu operations)\n",
              json_number(attempted == 0 ? 0.0
                                         : static_cast<double>(failed) /
                                               static_cast<double>(attempted))
                  .c_str(),
              failed, attempted);

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    json += i == 0 ? "" : ", ";
    json += std::string("\"") + m.def.name + "\": {\"value\": " +
            json_number(m.value) + ", \"unit\": \"" + m.def.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace calperf

int main(int argc, char** argv) {
  try {
    return calperf::run(calperf::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "calperf: %s\n", e.what());
    return 1;
  }
}
