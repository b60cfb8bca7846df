// explore_elimstack: the paper's case study through the model checker.
// sched::Explorer enumerates every schedule of SimElimStack (elimination
// array width 1) with two pushers and two poppers, checking the view
// F_ES of each execution's auxiliary trace against the sequential stack
// spec, on the parallel explorer with three workers.
#include <memory>

#include "cal/specs/elim_views.hpp"
#include "cal/specs/stack_spec.hpp"
#include "calperf/common.hpp"
#include "sched/explorer.hpp"
#include "sched/sim_objects.hpp"

namespace calperf {
namespace {

using namespace cal;         // NOLINT: benchmark file
using namespace cal::sched;  // NOLINT: benchmark file

constexpr std::size_t kExploreThreads = 3;

/// Everything the explorer points into, kept alive together.
struct Exploration {
  SeqAsCaSpec spec{std::make_shared<StackSpec>(Symbol("ES"))};
  std::shared_ptr<const ComposedView> view = make_elimination_stack_view(
      Symbol("ES"), Symbol("ES.S"), Symbol("ES.AR"), 1);
  WorldConfig config;
  std::unique_ptr<Explorer> explorer;
};

std::unique_ptr<Exploration> set_up(const std::vector<std::int64_t>& pushes,
                                    std::size_t pops) {
  auto e = std::make_unique<Exploration>();
  ThreadId tid = 0;
  for (std::int64_t v : pushes) {
    e->config.programs.push_back(
        ThreadProgram{tid++, {Call{0, Symbol("push"), Value::integer(v)}}});
  }
  for (std::size_t i = 0; i < pops; ++i) {
    e->config.programs.push_back(
        ThreadProgram{tid++, {Call{0, Symbol("pop"), Value::unit()}}});
  }
  e->config.object_names = {Symbol("ES")};
  e->config.spec = &e->spec;
  e->config.view = e->view.get();
  e->config.record_trace = true;
  e->config.heap_cells = 24;
  e->config.global_cells = 8;
  std::vector<std::unique_ptr<SimObject>> objects;
  objects.push_back(std::make_unique<SimElimStack>(
      Symbol("ES"), Symbol("ES.S"), Symbol("ES.AR"), /*width=*/1,
      /*retry_bound=*/1));
  ExploreOptions options;
  options.threads = kExploreThreads;
  e->explorer =
      std::make_unique<Explorer>(e->config, std::move(objects), options);
  return e;
}

}  // namespace

Trial run_explore_elimstack(const TrialParams& p) {
  // The full workload is two pushers and two poppers; the smoke scale runs
  // one of each. Terminal counts are the same for any distinct values.
  const bool full = p.scale >= 1.0;
  const std::size_t pushers = full ? 2 : 1;
  const std::size_t poppers = full ? 2 : 1;
  const std::size_t expected_terminals = full ? 5684 : 3;
  Rng rng(p.seed);
  std::vector<std::int64_t> values;
  while (values.size() < pushers) {
    const auto v = static_cast<std::int64_t>(1 + rng.below(1000));
    if (std::find(values.begin(), values.end(), v) == values.end()) {
      values.push_back(v);
    }
  }

  Trial t;
  const auto e =
      timed_setup([&] { return set_up(values, poppers); }, t.setup_s);

  const std::int64_t start_ns = now_ns();
  const ExploreResult r = e->explorer->run();
  const std::int64_t verdict_ns = now_ns();

  t.check(r.ok(), "exploration found a violation");
  t.check(!r.exhausted, "exploration hit its state cap");
  t.check(r.terminals == expected_terminals,
          "unexpected number of terminal states");

  t.operations = r.terminals;
  t.verdict_s = seconds_between(start_ns, verdict_ns);
  t.worker_max_s = t.verdict_s;
  // The explorer's units of work: a transition is one simulated step, a
  // state one distinct world its workers expanded.
  t.actions_per_s = static_cast<double>(r.transitions) / t.verdict_s;
  t.worker_ops_per_s = static_cast<double>(r.states) / t.verdict_s;
  t.lag_ms.push_back(t.verdict_s * 1e3);

  auto& m = t.layer;
  m["sched.states"] = static_cast<double>(r.states);
  m["sched.transitions"] = static_cast<double>(r.transitions);
  m["sched.merged"] = static_cast<double>(r.merged);
  m["sched.terminals"] = static_cast<double>(r.terminals);
  m["sched.states_per_s"] = t.worker_ops_per_s;
  m["sched.merge_frac"] =
      static_cast<double>(r.merged) / static_cast<double>(r.transitions);
  return t;
}

}  // namespace calperf
