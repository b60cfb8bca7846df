// Brute-force linearizability reference for small histories, and random
// container histories to feed it.
//
// The oracle shares no code with the search engine: for every subset of
// the pending operations it tries every permutation of the completed
// operations plus that subset, keeps the ones that respect the real-time
// order (History::precedes), and replays each through the SequentialSpec,
// backtracking over the spec's outcome choices. It is exponential in
// every direction, so histories stay at kMaxOracleOps operations or fewer.
// LinChecker and CalChecker over SeqAsCaSpec are compared against it.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "cal/cal_checker.hpp"
#include "cal/history.hpp"
#include "cal/lin_checker.hpp"
#include "cal/spec.hpp"
#include "cal/value.hpp"

namespace cal {

inline constexpr std::size_t kMaxOracleOps = 7;

/// Replays `order` (indices into `ops`) through `spec` from `state`; a
/// pending operation takes any return the spec allows.
inline bool oracle_replay(const SequentialSpec& spec, const SpecState& state,
                          const std::vector<OpRecord>& ops,
                          const std::vector<std::size_t>& order,
                          std::size_t at) {
  if (at == order.size()) return true;
  const Operation& op = ops[order[at]].op;
  for (const SeqStepResult& sr :
       spec.step(state, op.tid, op.object, op.method, op.arg, op.ret)) {
    if (oracle_replay(spec, sr.next, ops, order, at + 1)) return true;
  }
  return false;
}

/// True iff some completion of `h` (each pending operation either given a
/// spec-chosen return or dropped; dropped only, without complete_pending)
/// has a real-time-respecting order that replays through `spec`.
inline bool brute_force_linearizable(const SequentialSpec& spec,
                                     const History& h,
                                     bool complete_pending = true) {
  if (!h.well_formed()) return false;
  const std::vector<OpRecord> ops = h.operations();
  EXPECT_LE(ops.size(), kMaxOracleOps) << "oracle input too large";
  std::vector<std::size_t> completed;
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    (ops[i].is_pending() ? pending : completed).push_back(i);
  }
  const std::size_t subsets =
      complete_pending ? std::size_t{1} << pending.size() : 1;
  for (std::size_t subset = 0; subset < subsets; ++subset) {
    std::vector<std::size_t> order = completed;
    for (std::size_t b = 0; b < pending.size(); ++b) {
      if ((subset >> b) & 1u) order.push_back(pending[b]);
    }
    std::sort(order.begin(), order.end());
    do {
      bool real_time = true;
      for (std::size_t a = 0; a < order.size() && real_time; ++a) {
        for (std::size_t b = a + 1; b < order.size(); ++b) {
          if (History::precedes(ops[order[b]], ops[order[a]])) {
            real_time = false;
            break;
          }
        }
      }
      if (real_time && oracle_replay(spec, spec.initial(), ops, order, 0)) {
        return true;
      }
    } while (std::next_permutation(order.begin(), order.end()));
  }
  return false;
}

/// A container object's two methods: `put(v)` returns true, `take()`
/// returns (true, v) or (false, 0) — the stack's push/pop and the queue's
/// enq/deq.
struct ContainerMethods {
  Symbol object;
  Symbol put;
  Symbol take;
};

/// A random history of up to kMaxOracleOps operations on `c` by three
/// threads. Operations are invoked in one sequence and each responds at a
/// random later point (before its thread's next invocation), so intervals
/// overlap. With `legal`, each operation's return is one `spec` allows
/// after its predecessors in that sequence, which makes the history
/// linearizable; otherwise returns are random. With `truncate`, a random
/// suffix of actions is dropped, leaving some operations pending.
inline History random_container_history(std::mt19937& rng,
                                        const SequentialSpec& spec,
                                        const ContainerMethods& c, bool legal,
                                        bool truncate) {
  auto rnd = [&rng](std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
  };
  struct Op {
    ThreadId tid;
    Symbol method;
    Value arg;
    Value ret;
  };
  const std::size_t n_ops = 1 + rnd(kMaxOracleOps);
  std::vector<Op> ops;
  SpecState state = spec.initial();
  for (std::size_t i = 0; i < n_ops; ++i) {
    const ThreadId tid = static_cast<ThreadId>(rnd(3) + 1);
    const bool put = rnd(2) == 0;
    const Symbol method = put ? c.put : c.take;
    const Value arg = put ? Value::integer(static_cast<std::int64_t>(
                                rnd(3) + 1))
                          : Value::unit();
    Value ret;
    if (legal) {
      std::vector<SeqStepResult> outcomes =
          spec.step(state, tid, c.object, method, arg, std::nullopt);
      if (outcomes.empty()) continue;  // e.g. pop on an empty stack
      SeqStepResult& pick = outcomes[rnd(outcomes.size())];
      state = std::move(pick.next);
      ret = pick.ret;
    } else if (put) {
      ret = Value::boolean(true);
    } else {
      ret = rnd(4) == 0 ? Value::pair(false, 0)
                        : Value::pair(true, static_cast<std::int64_t>(
                                            rnd(3) + 1));
    }
    ops.push_back(Op{tid, method, arg, std::move(ret)});
  }

  // Invoke in sequence order; respond each operation at a random later
  // point, but always before its thread invokes again.
  History h;
  std::vector<std::size_t> open;
  auto respond = [&](std::size_t i) {
    h.respond(ops[i].tid, c.object, ops[i].method, ops[i].ret);
  };
  for (std::size_t i = 0; i < ops.size(); ++i) {
    std::vector<std::size_t> still_open;
    for (std::size_t o : open) {
      if (ops[o].tid == ops[i].tid || rnd(2) == 0) {
        respond(o);
      } else {
        still_open.push_back(o);
      }
    }
    open = std::move(still_open);
    h.invoke(ops[i].tid, c.object, ops[i].method, ops[i].arg);
    open.push_back(i);
  }
  std::shuffle(open.begin(), open.end(), rng);
  for (std::size_t o : open) respond(o);

  if (!truncate || h.actions().empty()) return h;
  std::vector<Action> actions = h.actions();
  actions.resize(rnd(actions.size()) + 1);
  return History{std::move(actions)};
}

/// Expects LinChecker(spec) and CalChecker(SeqAsCaSpec(spec)) to decide
/// `h` as the oracle does, with and without complete_pending. Returns the
/// oracle's verdict with completion.
inline bool expect_checkers_match_oracle(
    const std::shared_ptr<const SequentialSpec>& spec, const History& h) {
  const SeqAsCaSpec adapter(spec);
  bool verdict = false;
  for (bool complete_pending : {true, false}) {
    const bool expected = brute_force_linearizable(*spec, h, complete_pending);
    if (complete_pending) verdict = expected;
    LinCheckOptions lopts;
    lopts.complete_pending = complete_pending;
    CalCheckOptions copts;
    copts.complete_pending = complete_pending;
    EXPECT_EQ(LinChecker(*spec, lopts).check(h).ok, expected)
        << "LinChecker, complete_pending=" << complete_pending << "\n"
        << h.to_string();
    EXPECT_EQ(CalChecker(adapter, copts).check(h).ok, expected)
        << "CalChecker over SeqAsCaSpec, complete_pending="
        << complete_pending << "\n"
        << h.to_string();
  }
  return verdict;
}

}  // namespace cal
