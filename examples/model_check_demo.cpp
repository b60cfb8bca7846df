// Exhaustive verification demo: the paper's §5 proofs, run by machine.
//
//   $ ./model_check_demo
//
// Three acts:
//   1. Exhaustively explore every schedule of three concurrent exchanges
//      against the Fig. 1 exchanger, auditing each transition against the
//      Fig. 4 rely/guarantee actions (INIT/CLEAN/PASS/XCHG/FAIL), the
//      invariant J, and the Fig. 1 proof-outline assertions.
//   2. Do the same for the elimination stack composite through the view
//      function 𝔽_ES (modular: the spec at the interface is just the
//      sequential stack).
//   3. Inject a bug (an exchanger that returns its own value) and show the
//      audit produce a counterexample schedule.
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "cal/specs/elim_views.hpp"
#include "cal/specs/exchanger_spec.hpp"
#include "cal/specs/stack_spec.hpp"
#include "objects/treiber_stack.hpp"
#include "runtime/reclaim/ebr_reclaimer.hpp"
#include "runtime/reclaim/hazard.hpp"
#include "runtime/reclaim/tagged.hpp"
#include "sched/explorer.hpp"
#include "sched/rg.hpp"
#include "sched/sim_objects.hpp"

using namespace cal;         // NOLINT: example
using namespace cal::sched;  // NOLINT: example

namespace {

Value iv(std::int64_t x) { return Value::integer(x); }

void report(const char* title, const ExploreResult& r) {
  std::printf("%s\n", title);
  std::printf("  states: %zu, transitions: %zu, merged: %zu, terminals: "
              "%zu, max depth: %zu\n",
              r.states, r.transitions, r.merged, r.terminals, r.max_depth);
  if (r.por_pruned != 0 || r.symmetry_merged != 0) {
    std::printf("  por pruned: %zu, symmetry merged: %zu\n", r.por_pruned,
                r.symmetry_merged);
  }
  if (r.flush_steps != 0 || r.buffered_max != 0) {
    std::printf("  tso flush steps: %zu, buffered high-water: %zu\n",
                r.flush_steps, r.buffered_max);
  }
  if (r.ok()) {
    std::printf("  VERIFIED: no violation in any interleaving\n\n");
  } else {
    std::printf("  VIOLATION: %s\n\n", r.violations[0].to_string().c_str());
  }
}

/// Mutant for act 3: success returns echo the thread's own value,
/// injected as a respond hook on the real exchanger body.
std::unique_ptr<SimExchanger> echo_bug_exchanger(Symbol name) {
  namespace core = cal::objects::core;
  auto object = std::make_unique<SimExchanger>(name);
  SimHooks hooks;
  hooks.respond = [](const ThreadCtx& t, Value ret) {
    if (t.pc == core::ExchangerPc::kSuccessReturnB) {
      return Value::pair(true, t.regs[core::ExchangerReg::kV]);
    }
    return ret;
  };
  object->set_hooks(std::move(hooks));
  return object;
}

WorldConfig exchanger_config(const CaSpec* spec, std::size_t threads) {
  WorldConfig cfg;
  for (std::size_t i = 0; i < threads; ++i) {
    ThreadProgram p;
    p.tid = static_cast<ThreadId>(i);
    p.calls = {Call{0, Symbol{"exchange"},
                    iv(static_cast<std::int64_t>(10 * (i + 1)))}};
    cfg.programs.push_back(std::move(p));
  }
  cfg.object_names = {Symbol{"E"}};
  cfg.spec = spec;
  cfg.record_trace = true;
  cfg.heap_cells = 8;
  cfg.global_cells = 8;
  return cfg;
}

}  // namespace

int main() {
  // Act 1: the exchanger, three concurrent exchanges, full R/G audit.
  {
    ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
    WorldConfig cfg = exchanger_config(&spec, 3);
    auto machine = std::make_unique<SimExchanger>(Symbol{"E"});
    ExchangerRgAuditor auditor(*machine);
    std::vector<std::unique_ptr<SimObject>> objects;
    objects.push_back(std::move(machine));
    Explorer explorer(cfg, std::move(objects));
    explorer.set_auditor(&auditor);
    report("[1] exchanger x3 threads, Fig. 4 rely/guarantee audit + J + "
           "proof outline",
           explorer.run());
  }

  // Act 2: the elimination stack through its view function.
  {
    auto seq = std::make_shared<StackSpec>(Symbol{"ES"});
    SeqAsCaSpec spec(seq);
    auto view = make_elimination_stack_view(Symbol{"ES"}, Symbol{"ES.S"},
                                            Symbol{"ES.AR"}, 1);
    WorldConfig cfg;
    ThreadProgram pusher1{0, {Call{0, Symbol{"push"}, iv(10)}}};
    ThreadProgram pusher2{1, {Call{0, Symbol{"push"}, iv(20)}}};
    ThreadProgram popper{2, {Call{0, Symbol{"pop"}, Value::unit()}}};
    cfg.programs = {pusher1, pusher2, popper};
    cfg.object_names = {Symbol{"ES"}};
    cfg.spec = &spec;
    cfg.view = view.get();
    cfg.record_trace = true;
    cfg.heap_cells = 24;
    cfg.global_cells = 8;
    std::vector<std::unique_ptr<SimObject>> objects;
    objects.push_back(std::make_unique<SimElimStack>(
        Symbol{"ES"}, Symbol{"ES.S"}, Symbol{"ES.AR"}, 1, 2));
    Explorer explorer(cfg, std::move(objects));
    ExploreResult r = explorer.run();
    report("[2] elimination stack (2 pushers + 1 popper) via F_ES against "
           "the sequential stack spec",
           r);
    std::printf("  elimination path reachable: %s\n\n",
                (r.events & (1ull << cal::objects::core::kEventElimination))
                    ? "yes"
                    : "no");
  }

  // Act 3: a seeded bug and its counterexample.
  {
    ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
    WorldConfig cfg = exchanger_config(&spec, 2);
    std::vector<std::unique_ptr<SimObject>> objects;
    objects.push_back(echo_bug_exchanger(Symbol{"E"}));
    Explorer explorer(cfg, std::move(objects));
    report("[3] seeded bug: successful exchange returns its own value",
           explorer.run());
  }

  // Act 4: partial-order + symmetry reduction. Four identically-programmed
  // exchangers (tids drawn outside the address range, as the symmetry
  // discipline requires), explored plain and reduced: the verdict and the
  // reachable events are identical, the state count is not.
  {
    ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
    WorldConfig cfg = exchanger_config(&spec, 4);
    for (std::size_t i = 0; i < cfg.programs.size(); ++i) {
      cfg.programs[i].tid = static_cast<ThreadId>(1000 + i);
      cfg.programs[i].calls[0].arg = iv(7);  // identical offers
    }
    ExploreResult plain;
    {
      std::vector<std::unique_ptr<SimObject>> objects;
      objects.push_back(std::make_unique<SimExchanger>(Symbol{"E"}));
      Explorer explorer(cfg, std::move(objects));
      plain = explorer.run();
    }
    ExploreOptions opts;
    opts.por = true;
    opts.symmetry = true;
    std::vector<std::unique_ptr<SimObject>> objects;
    objects.push_back(std::make_unique<SimExchanger>(Symbol{"E"}));
    Explorer explorer(cfg, std::move(objects), opts);
    ExploreResult reduced = explorer.run();
    report("[4] exchanger x4 identical threads, sleep sets + thread "
           "symmetry",
           reduced);
    std::printf("  plain states: %zu -> reduced states: %zu (verdicts "
                "agree: %s)\n\n",
                plain.states, reduced.states,
                plain.ok() == reduced.ok() ? "yes" : "NO");
  }

  // Act 5: the memory-model axis. The same exchanger explored under
  // x86-TSO (per-thread store buffers, nondeterministic flush steps): the
  // body's annotations use no store weaker than seq_cst, so buffers stay
  // empty, no flush step ever fires, and the result is identical to SC —
  // the machine-checked form of the R/G argument for the annotations.
  {
    ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
    WorldConfig cfg = exchanger_config(&spec, 3);
    ExploreResult sc;
    {
      std::vector<std::unique_ptr<SimObject>> objects;
      objects.push_back(std::make_unique<SimExchanger>(Symbol{"E"}));
      Explorer explorer(cfg, std::move(objects));
      sc = explorer.run();
    }
    cfg.memory_model = MemoryModel::kTso;
    std::vector<std::unique_ptr<SimObject>> objects;
    objects.push_back(std::make_unique<SimExchanger>(Symbol{"E"}));
    Explorer explorer(cfg, std::move(objects));
    ExploreResult tso = explorer.run();
    report("[5] exchanger x3 threads under x86-TSO (memory model: tso)",
           tso);
    std::printf("  sc states: %zu == tso states: %zu (%s), flush steps: "
                "%zu, buffered high-water: %zu\n\n",
                sc.states, tso.states,
                sc.states == tso.states ? "identical" : "DIFFER",
                tso.flush_steps, tso.buffered_max);
  }

  // Act 6: the reclamation axis. First in the model: the central stack
  // explored with address reuse on, under each reclamation policy the
  // world can enforce — every interleaving still verifies, and the
  // counters show reuse actually happened (the ABA surface was searched,
  // not sidestepped). Then for real: the Treiber stack hammered through
  // each runtime Reclaimer backend, with the backend's own accounting.
  {
    std::printf("[6] reclamation axis: central stack with recycled "
                "addresses\n");
    const runtime::ReclaimPolicy policies[] = {runtime::ReclaimPolicy::kEbr,
                                               runtime::ReclaimPolicy::kHp,
                                               runtime::ReclaimPolicy::kTagged};
    for (const auto policy : policies) {
      auto seq = std::make_shared<CentralStackSpec>(Symbol{"S"});
      SeqAsCaSpec spec(seq);
      WorldConfig cfg;
      cfg.programs = {
          ThreadProgram{0, {Call{0, Symbol{"push"}, iv(10)}}},
          ThreadProgram{1, {Call{0, Symbol{"push"}, iv(20)}}},
          ThreadProgram{2, {Call{0, Symbol{"pop"}, Value::unit()}}}};
      cfg.object_names = {Symbol{"S"}};
      cfg.spec = &spec;
      cfg.record_trace = true;
      cfg.heap_cells = 16;
      cfg.global_cells = 4;
      cfg.recycle_addresses = true;
      cfg.reclaim_policy = policy;
      std::vector<std::unique_ptr<SimObject>> objects;
      objects.push_back(std::make_unique<SimCentralStack>(Symbol{"S"}));
      Explorer explorer(cfg, std::move(objects));
      const ExploreResult r = explorer.run();
      std::printf("  sim %-6s: %s, states: %zu, recycled allocs: %zu, "
                  "retired high-water: %zu\n",
                  runtime::reclaim_policy_name(policy),
                  r.ok() ? "VERIFIED" : "VIOLATION", r.states,
                  r.recycled_allocs, r.retired_max);
    }
    for (const auto policy : policies) {
      std::unique_ptr<runtime::Reclaimer> rec;
      switch (policy) {
        case runtime::ReclaimPolicy::kEbr:
          rec = std::make_unique<runtime::EbrReclaimer>();
          break;
        case runtime::ReclaimPolicy::kHp:
          rec = std::make_unique<runtime::HpReclaimer>();
          break;
        case runtime::ReclaimPolicy::kTagged:
          rec = std::make_unique<runtime::TaggedReclaimer>();
          break;
      }
      objects::TreiberStack stack(*rec, Symbol{"S"});
      constexpr int kThreads = 4;
      constexpr int kOps = 2000;
      {
        std::vector<std::jthread> ts;
        for (int i = 0; i < kThreads; ++i) {
          ts.emplace_back([&stack, i] {
            const auto tid = static_cast<ThreadId>(i);
            for (int k = 0; k < kOps; ++k) {
              stack.push(tid, k);
              stack.pop(tid);
            }
          });
        }
      }
      const runtime::ReclaimStats s = rec->stats();
      std::printf("  run %-6s: %d threads x %d push/pop, reclaimed: %zu, "
                  "retired pending: %zu, retired high-water: %zu\n",
                  runtime::reclaim_policy_name(policy), kThreads, kOps,
                  s.reclaimed_total, s.retired_pending, s.retired_high_water);
    }
    std::printf("\n");
  }
  return 0;
}
