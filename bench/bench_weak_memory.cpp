// Experiment T-WMM — the memory-model axis, both directions:
//
//   * Runtime: the annotated core bodies (exchanger, the elimination
//     stack's central Treiber path) through RealEnv with their R/G-weakest
//     orders vs the same bodies with every yield op forced to seq_cst.
//     On x86 the mapping collapses for CAS-dominated paths (acq_rel and
//     seq_cst RMWs are both lock-prefixed; acquire and seq_cst loads are
//     both plain movs), so the expected delta here is ~0 — the honest
//     baseline the EXPERIMENTS.md entry documents. The annotations buy
//     machine-checked *permission* (the TSO exploration proves them
//     sufficient) and real savings only on weakly-ordered ISAs.
//
//   * Model checking: the cost of taking the weaker model seriously —
//     explorer state/transition counts under SC vs TSO for an annotated
//     body (identical: buffers stay empty) and for the store-buffering
//     litmus whose relaxed stores actually buffer (the flush-transition
//     blowup).
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cal/specs/exchanger_spec.hpp"
#include "objects/core/exchanger_core.hpp"
#include "objects/core/stack_core.hpp"
#include "objects/real_env.hpp"
#include "runtime/reclaim/ebr_reclaimer.hpp"
#include "runtime/thread_registry.hpp"
#include "sched/explorer.hpp"
#include "sched/sim_env.hpp"
#include "sched/sim_objects.hpp"

namespace {

using namespace cal::objects;  // NOLINT: bench file
using cal::Symbol;
using cal::Value;
namespace core = cal::objects::core;
namespace runtime = cal::runtime;
namespace sched = cal::sched;

/// RealEnv with the body's order annotations erased: every yield op runs
/// seq_cst, the strongest (pre-annotation) behavior. Same inlining shape
/// as RealEnv so the comparison isolates the memory orders.
class SeqCstEnv {
 public:
  SeqCstEnv(runtime::Reclaimer* rec, runtime::ThreadId tid,
            runtime::TraceLog* trace) noexcept
      : env_(rec, tid, trace) {}

  Word load(Word b, Word o, MemOrder /*mo*/ = MemOrder::kSeqCst) const
      noexcept {
    return env_.load(b, o, MemOrder::kSeqCst);
  }
  void store(Word b, Word o, Word v,
             MemOrder /*mo*/ = MemOrder::kSeqCst) const noexcept {
    env_.store(b, o, v, MemOrder::kSeqCst);
  }
  bool cas(Word b, Word o, Word expected, Word desired,
           MemOrder /*mo*/ = MemOrder::kSeqCst) const noexcept {
    return env_.cas(b, o, expected, desired, MemOrder::kSeqCst);
  }
  Word protect(Word b, Word o, MemOrder /*mo*/ = MemOrder::kSeqCst) const
      noexcept {
    return env_.protect(b, o, MemOrder::kSeqCst);
  }
  void release() const noexcept { env_.release(); }
  bool validate(Word b, Word o) const noexcept { return env_.validate(b, o); }
  ReclaimPolicy reclaim_policy() const noexcept {
    return env_.reclaim_policy();
  }
  Word choose(Word n) const noexcept { return env_.choose(n); }
  Word alloc(Word cells) const { return env_.alloc(cells); }
  Word load_frozen(Word b, Word o) const noexcept {
    return env_.load_frozen(b, o);
  }
  void store_private(Word b, Word o, Word v) const noexcept {
    env_.store_private(b, o, v);
  }
  void retire(Word b, Word c) const { env_.retire(b, c); }
  void retire_grace(Word b, Word c) const { env_.retire_grace(b, c); }
  void free_private(Word b, Word c) const { env_.free_private(b, c); }
  void await(Word b, Word o, unsigned s) const noexcept {
    env_.await(b, o, s);
  }
  template <typename F>
  void emit(F&& make) const {
    env_.emit(std::forward<F>(make));
  }
  void label(std::int32_t pc) const noexcept { env_.label(pc); }
  void note(std::size_t r, Word v) const noexcept { env_.note(r, v); }
  void event(unsigned b) const noexcept { env_.event(b); }

 private:
  RealEnv env_;
};

// ------------------------------------------------------------------ //
// Runtime hot paths: annotated vs forced-seq_cst.

struct ExchangerCells {
  std::atomic<Word> g{0};
  std::atomic<Word> fail[core::kOfferCells] = {};
};

template <class Env>
void BM_WeakMemory_Exchanger(benchmark::State& state) {
  static runtime::EbrReclaimer* rec = nullptr;
  static ExchangerCells* cells = nullptr;
  static core::ExchangerRefs refs;
  if (state.thread_index() == 0) {
    rec = new runtime::EbrReclaimer();
    cells = new ExchangerCells();
    refs.g = RealEnv::ref(&cells->g);
    refs.fail = RealEnv::ref(cells->fail);
  }
  runtime::ThreadIdGuard tid;
  std::int64_t v = 1;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    runtime::Reclaimer::Guard guard(*rec, tid.tid());
    Env env(rec, tid.tid(), /*trace=*/nullptr);
    benchmark::DoNotOptimize(core::exchange(env, refs, Symbol{"E"},
                                            Symbol{"exchange"}, tid.tid(),
                                            v++, /*spins=*/64));
    ++ops;
  }
  state.counters["xchg/s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
  if (state.thread_index() == 0) {
    delete cells;
    delete rec;
    cells = nullptr;
    rec = nullptr;
  }
}
BENCHMARK_TEMPLATE(BM_WeakMemory_Exchanger, RealEnv)
    ->Name("BM_WeakMemory_Exchanger_Annotated")
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();
BENCHMARK_TEMPLATE(BM_WeakMemory_Exchanger, SeqCstEnv)
    ->Name("BM_WeakMemory_Exchanger_SeqCst")
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// The elimination stack's central path: push/pop attempts on one shared
// Treiber top (each thread alternates, retrying like TreiberStack does).
template <class Env>
void BM_WeakMemory_StackCore(benchmark::State& state) {
  static runtime::EbrReclaimer* rec = nullptr;
  static std::atomic<Word>* top = nullptr;
  static core::StackRefs refs;
  if (state.thread_index() == 0) {
    rec = new runtime::EbrReclaimer();
    top = new std::atomic<Word>(0);
    refs.top = RealEnv::ref(top);
  }
  runtime::ThreadIdGuard tid;
  std::int64_t v = 1;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    runtime::Reclaimer::Guard guard(*rec, tid.tid());
    Env env(rec, tid.tid(), /*trace=*/nullptr);
    if ((ops & 1) == 0) {
      while (!core::stack_push_attempt(env, refs, Symbol{"S"}, tid.tid(),
                                       v++)) {
      }
    } else {
      core::StackPopOutcome r;
      do {
        r = core::stack_pop_attempt(env, refs, Symbol{"S"}, tid.tid());
      } while (r.kind == core::StackPop::kLost);
      benchmark::DoNotOptimize(r);
    }
    ++ops;
  }
  state.counters["ops/s"] =
      benchmark::Counter(static_cast<double>(ops), benchmark::Counter::kIsRate);
  if (state.thread_index() == 0) {
    // Drain whatever the pushes left behind before freeing the top cell.
    runtime::ThreadIdGuard drain_tid;
    RealEnv env(rec, drain_tid.tid(), nullptr);
    core::StackPopOutcome r;
    do {
      runtime::Reclaimer::Guard guard(*rec, drain_tid.tid());
      r = core::stack_pop_attempt(env, refs, Symbol{"S"}, drain_tid.tid());
    } while (r.kind != core::StackPop::kEmpty);
    delete top;
    delete rec;
    top = nullptr;
    rec = nullptr;
  }
}
BENCHMARK_TEMPLATE(BM_WeakMemory_StackCore, RealEnv)
    ->Name("BM_WeakMemory_StackCore_Annotated")
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();
BENCHMARK_TEMPLATE(BM_WeakMemory_StackCore, SeqCstEnv)
    ->Name("BM_WeakMemory_StackCore_SeqCst")
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// ------------------------------------------------------------------ //
// Model checking: the state-space cost of TSO.

cal::sched::WorldConfig exchanger_config(const cal::CaSpec* spec,
                                         std::size_t threads) {
  sched::WorldConfig cfg;
  for (std::size_t i = 0; i < threads; ++i) {
    sched::ThreadProgram p;
    p.tid = static_cast<cal::ThreadId>(i);
    p.calls = {sched::Call{0, Symbol{"exchange"},
                           Value::integer(static_cast<std::int64_t>(
                               10 * (i + 1)))}};
    cfg.programs.push_back(std::move(p));
  }
  cfg.object_names = {Symbol{"E"}};
  cfg.spec = spec;
  cfg.record_trace = true;
  cfg.heap_cells = 16;
  cfg.global_cells = 8;
  return cfg;
}

void BM_WeakMemory_Explore_Exchanger(benchmark::State& state) {
  const auto model = state.range(0) == 0 ? sched::MemoryModel::kSc
                                         : sched::MemoryModel::kTso;
  cal::ExchangerSpec spec(Symbol{"E"}, Symbol{"exchange"});
  sched::WorldConfig cfg = exchanger_config(&spec, 3);
  cfg.memory_model = model;
  sched::ExploreResult r;
  for (auto _ : state) {
    std::vector<std::unique_ptr<sched::SimObject>> objects;
    objects.push_back(std::make_unique<sched::SimExchanger>(Symbol{"E"}));
    sched::Explorer ex(cfg, std::move(objects));
    r = ex.run();
    benchmark::DoNotOptimize(r.states);
  }
  state.counters["states"] = static_cast<double>(r.states);
  state.counters["transitions"] = static_cast<double>(r.transitions);
  state.counters["flush_steps"] = static_cast<double>(r.flush_steps);
}
BENCHMARK(BM_WeakMemory_Explore_Exchanger)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("tso");

// The store-buffering litmus (the same machine as the regression suite in
// tests/sched/test_sim_memory.cpp and tools/cal_explore.cpp): sb(i) sets
// flag[i] with `store_order`, reads flag[1-i].
class SimStoreBuffering final : public sched::EnvSimObject {
 public:
  SimStoreBuffering(Symbol name, MemOrder store_order)
      : EnvSimObject(0), name_(name), order_(store_order) {}

  void init(sched::World& world) override {
    flags_ = world.alloc_global(2);
  }

 protected:
  [[nodiscard]] Attempt attempt(sched::SimEnv& env, sched::World& world,
                                sched::ThreadCtx& t) const override {
    static const Symbol kSb{"sb"};
    const sched::Call& call = current_call(world, t);
    const Word me = call.arg.as_int();
    env.store(flags_, me, 1, order_);
    const Word other = env.load(flags_, 1 - me, MemOrder::kAcquire);
    env.emit([&] {
      return cal::CaElement::singleton(
          name_, cal::Operation::make(t.tid, name_, kSb, Value::integer(me),
                                      Value::integer(other)));
    });
    return {Status::kDone, Value::integer(other)};
  }

 private:
  Symbol name_;
  MemOrder order_;
  Word flags_ = kNullRef;
};

// The litmus whose relaxed stores genuinely buffer: every reachable
// buffer configuration becomes state, and the flush interleavings
// multiply transitions — the honest price of the weaker model where it
// actually bites. Explored spec-less (full space, no early stop).
void BM_WeakMemory_Explore_SbLitmus(benchmark::State& state) {
  const auto model = state.range(0) == 0 ? sched::MemoryModel::kSc
                                         : sched::MemoryModel::kTso;
  const auto order = state.range(1) == 0 ? MemOrder::kSeqCst
                                         : MemOrder::kRelaxed;
  sched::WorldConfig cfg;
  cfg.programs = {
      sched::ThreadProgram{0, {sched::Call{0, Symbol{"sb"},
                                           Value::integer(0)}}},
      sched::ThreadProgram{1, {sched::Call{0, Symbol{"sb"},
                                           Value::integer(1)}}}};
  cfg.object_names = {Symbol{"L"}};
  cfg.record_trace = true;
  cfg.heap_cells = 4;
  cfg.global_cells = 4;
  cfg.memory_model = model;
  sched::ExploreResult r;
  for (auto _ : state) {
    std::vector<std::unique_ptr<sched::SimObject>> objects;
    objects.push_back(
        std::make_unique<SimStoreBuffering>(Symbol{"L"}, order));
    sched::Explorer ex(cfg, std::move(objects));
    r = ex.run();
    benchmark::DoNotOptimize(r.states);
  }
  state.counters["states"] = static_cast<double>(r.states);
  state.counters["transitions"] = static_cast<double>(r.transitions);
  state.counters["flush_steps"] = static_cast<double>(r.flush_steps);
  state.counters["buffered_max"] = static_cast<double>(r.buffered_max);
}
BENCHMARK(BM_WeakMemory_Explore_SbLitmus)
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->ArgNames({"tso", "relaxed"});

}  // namespace
