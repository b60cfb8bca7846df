// Runtime substrate tests: thread registry, recorder, trace log, EBR, and
// the tagged reclaimer's stats.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "runtime/reclaim/ebr.hpp"
#include "runtime/reclaim/tagged.hpp"
#include "runtime/recorder.hpp"
#include "runtime/thread_registry.hpp"
#include "runtime/trace_log.hpp"

namespace cal::runtime {
namespace {

Value iv(std::int64_t x) { return Value::integer(x); }

TEST(ThreadRegistry, IdsAreDenseAndReused) {
  ThreadRegistry reg;
  const ThreadId a = reg.acquire();
  const ThreadId b = reg.acquire();
  EXPECT_NE(a, b);
  reg.release(a);
  const ThreadId c = reg.acquire();
  EXPECT_EQ(c, a);  // smallest free id
  reg.release(b);
  reg.release(c);
}

TEST(ThreadRegistry, GuardReleasesOnScopeExit) {
  ThreadRegistry reg;
  ThreadId seen;
  {
    ThreadIdGuard g(reg);
    seen = g.tid();
  }
  ThreadIdGuard g2(reg);
  EXPECT_EQ(g2.tid(), seen);
}

TEST(ThreadRegistry, ConcurrentAcquireYieldsUniqueIds) {
  ThreadRegistry reg;
  constexpr int kThreads = 16;
  std::vector<ThreadId> ids(kThreads);
  {
    std::vector<std::jthread> ts;
    std::atomic<int> go{0};
    for (int i = 0; i < kThreads; ++i) {
      ts.emplace_back([&, i] {
        go.fetch_add(1);
        while (go.load() < kThreads) {
        }
        ids[i] = reg.acquire();
      });
    }
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(Recorder, RecordsWellFormedHistory) {
  Recorder rec(1024);
  rec.invoke(1, Symbol{"E"}, Symbol{"exchange"}, iv(3));
  rec.invoke(2, Symbol{"E"}, Symbol{"exchange"}, iv(4));
  rec.respond(2, Symbol{"E"}, Symbol{"exchange"}, Value::pair(true, 3));
  rec.respond(1, Symbol{"E"}, Symbol{"exchange"}, Value::pair(true, 4));
  History h = rec.snapshot();
  EXPECT_EQ(h.size(), 4u);
  EXPECT_TRUE(h.well_formed());
  EXPECT_TRUE(h.complete());
}

TEST(Recorder, OverflowCountsDrops) {
  Recorder rec(2);
  rec.invoke(1, Symbol{"E"}, Symbol{"exchange"});
  rec.respond(1, Symbol{"E"}, Symbol{"exchange"});
  rec.invoke(1, Symbol{"E"}, Symbol{"exchange"});
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.dropped(), 1u);
}

TEST(Recorder, ResetClearsEverything) {
  Recorder rec(16);
  rec.invoke(1, Symbol{"E"}, Symbol{"exchange"});
  rec.reset();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.snapshot().size(), 0u);
}

TEST(Recorder, ConcurrentRecordingStaysWellFormedPerThread) {
  Recorder rec(1 << 16);
  constexpr int kThreads = 8;
  constexpr int kOps = 200;
  {
    std::vector<std::jthread> ts;
    for (int i = 0; i < kThreads; ++i) {
      ts.emplace_back([&rec, i] {
        const Symbol e{"E"};
        const Symbol f{"exchange"};
        for (int k = 0; k < kOps; ++k) {
          rec.invoke(static_cast<ThreadId>(i), e, f, iv(k));
          rec.respond(static_cast<ThreadId>(i), e, f, Value::pair(false, k));
        }
      });
    }
  }
  History h = rec.snapshot();
  EXPECT_EQ(h.size(), static_cast<std::size_t>(kThreads * kOps * 2));
  EXPECT_TRUE(h.well_formed());
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_TRUE(h.project_thread(static_cast<ThreadId>(i)).sequential());
  }
}

TEST(RecordedCall, FinishesWithValue) {
  Recorder rec(16);
  {
    RecordedCall call(rec, 1, Symbol{"S"}, Symbol{"push"}, iv(10));
    call.finish(Value::boolean(true));
  }
  History h = rec.snapshot();
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[1].payload, Value::boolean(true));
}

TEST(RecordedCall, DestructorEmitsUnitResponseIfUnfinished) {
  Recorder rec(16);
  {
    RecordedCall call(rec, 1, Symbol{"S"}, Symbol{"push"}, iv(10));
  }
  History h = rec.snapshot();
  ASSERT_EQ(h.size(), 2u);
  EXPECT_TRUE(h.complete());
}

TEST(TraceLog, AppendsAndSnapshots) {
  TraceLog log(64);
  const Symbol e{"E"};
  log.append(CaElement::swap(e, Symbol{"exchange"}, 1, 3, 2, 4));
  log.append(CaElement::singleton(
      e, Operation::make(3, e, Symbol{"exchange"}, iv(7),
                         Value::pair(false, 7))));
  CaTrace t = log.snapshot();
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].size(), 2u);
}

TEST(TraceLog, ConcurrentAppendsAllLand) {
  TraceLog log(1 << 16);
  constexpr int kThreads = 8;
  constexpr int kOps = 500;
  {
    std::vector<std::jthread> ts;
    for (int i = 0; i < kThreads; ++i) {
      ts.emplace_back([&log, i] {
        const Symbol e{"E"};
        for (int k = 0; k < kOps; ++k) {
          log.append(CaElement::singleton(
              e, Operation::make(static_cast<ThreadId>(i), e,
                                 Symbol{"exchange"}, iv(k),
                                 Value::pair(false, k))));
        }
      });
    }
  }
  EXPECT_EQ(log.snapshot().size(),
            static_cast<std::size_t>(kThreads * kOps));
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(Ebr, RetiredNodeSurvivesWhilePinned) {
  EpochDomain ebr;
  auto* p = new int(42);
  std::atomic<bool> freed{false};
  ebr.pin(0);
  ebr.pin(1);
  struct Probe {
    std::atomic<bool>* flag;
    int* payload;
  };
  auto* probe = new Probe{&freed, p};
  ebr.retire(1, probe, [](void* q) {
    auto* pr = static_cast<Probe*>(q);
    pr->flag->store(true);
    delete pr->payload;
    delete pr;
  });
  // Thread 0 is pinned in the retirement epoch: collection cannot free.
  for (int i = 0; i < 10; ++i) ebr.collect(1);
  EXPECT_FALSE(freed.load());
  ebr.unpin(0);
  ebr.unpin(1);
  // Now epochs can advance twice and the node becomes reclaimable.
  for (int i = 0; i < 10; ++i) ebr.collect(1);
  EXPECT_TRUE(freed.load());
}

TEST(Ebr, DestructorFreesLeftovers) {
  std::atomic<int> frees{0};
  struct Probe {
    std::atomic<int>* counter;
  };
  {
    EpochDomain ebr;
    for (int i = 0; i < 5; ++i) {
      ebr.retire(0, new Probe{&frees}, [](void* q) {
        static_cast<Probe*>(q)->counter->fetch_add(1);
        delete static_cast<Probe*>(q);
      });
    }
  }
  EXPECT_EQ(frees.load(), 5);
}

TEST(Ebr, EpochAdvancesWhenAllQuiescent) {
  EpochDomain ebr;
  const auto e0 = ebr.global_epoch();
  ebr.collect(0);
  EXPECT_GT(ebr.global_epoch(), e0);
}

TEST(Ebr, RetiredCountTracksBacklog) {
  EpochDomain ebr;
  ebr.pin(0);
  for (int i = 0; i < 3; ++i) ebr.retire(0, new int(i));
  EXPECT_EQ(ebr.retired_count(), 3u);
  ebr.unpin(0);
  for (int i = 0; i < 5; ++i) ebr.collect(0);
  EXPECT_EQ(ebr.retired_count(), 0u);
}

TEST(Ebr, StressManyThreadsRetiring) {
  EpochDomain ebr;
  constexpr int kThreads = 8;
  constexpr int kOps = 2000;
  {
    std::vector<std::jthread> ts;
    for (int i = 0; i < kThreads; ++i) {
      ts.emplace_back([&ebr, i] {
        for (int k = 0; k < kOps; ++k) {
          EpochDomain::Guard g(ebr, static_cast<ThreadId>(i));
          ebr.retire(static_cast<ThreadId>(i), new std::int64_t(k));
        }
        ebr.collect(static_cast<ThreadId>(i));
      });
    }
  }
  // After all threads quiesce, a few collection rounds (each advancing the
  // epoch once) must reclaim the entire backlog.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < kThreads; ++i) {
      ebr.collect(static_cast<ThreadId>(i));
    }
  }
  EXPECT_EQ(ebr.retired_count(), 0u);
}

TEST(Ebr, PinnedReaderStallsRepeatedAdvance) {
  // The straggler check: one announced reader caps the epoch at one
  // advance past its announcement, however hard another thread collects.
  EpochDomain ebr;
  ebr.pin(0);
  const auto e0 = ebr.global_epoch();
  for (int i = 0; i < 10; ++i) ebr.collect(1);
  EXPECT_LE(ebr.global_epoch(), e0 + 1);
  ebr.unpin(0);
  for (int i = 0; i < 10; ++i) ebr.collect(1);
  EXPECT_GT(ebr.global_epoch(), e0 + 1);
}

// Regression for the pin() ordering bug (runtime/reclaim/ebr.cpp): the epoch
// announcement used to be a plain seq_cst store, which TSO may reorder
// after the pinned section's first shared load — so a concurrent
// collector could advance twice and reclaim the node a reader had just
// loaded. Readers chase a swapped pointer and validate a magic value the
// deleter poisons before freeing; with the fence missing this trips the
// magic check (or ASan) within a few thousand swaps on real hardware.
TEST(Ebr, StressReadersNeverSeeReclaimedNodes) {
  static constexpr std::int64_t kMagic = 0x5ca1ab1e;
  struct Node {
    std::atomic<std::int64_t> magic{kMagic};
  };
  EpochDomain ebr;
  std::atomic<Node*> current{new Node};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> torn{0};
  constexpr int kReaders = 3;
  constexpr int kSwaps = 4000;
  {
    std::vector<std::jthread> ts;
    for (int r = 0; r < kReaders; ++r) {
      ts.emplace_back([&, r] {
        const auto id = static_cast<ThreadId>(r + 1);
        while (!stop.load(std::memory_order_acquire)) {
          EpochDomain::Guard g(ebr, id);
          Node* n = current.load(std::memory_order_acquire);
          if (n->magic.load(std::memory_order_relaxed) != kMagic) {
            torn.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    ts.emplace_back([&] {
      for (int k = 0; k < kSwaps; ++k) {
        Node* fresh = new Node;
        Node* old = current.exchange(fresh, std::memory_order_acq_rel);
        ebr.retire(0, old, [](void* q) {
          auto* node = static_cast<Node*>(q);
          node->magic.store(0, std::memory_order_relaxed);  // poison
          delete node;
        });
      }
      stop.store(true, std::memory_order_release);
    });
  }
  delete current.load();
  EXPECT_EQ(torn.load(), 0u);
}

// Thread churn: short-lived readers acquire dense ids from a registry,
// pin, read, unpin and exit while a writer keeps swapping and retiring.
// A released slot is immediately reacquired by the next reader generation,
// so a stale epoch announcement left behind by a departing thread would
// either stall reclamation forever or (worse) let the collector advance
// past a new reader that inherited the slot mid-pin.
TEST(Ebr, ThreadChurnReusedSlotsStayCoherent) {
  static constexpr std::int64_t kMagic = 0x5ca1ab1e;
  struct Node {
    std::atomic<std::int64_t> magic{kMagic};
  };
  ThreadRegistry reg;
  const ThreadId writer_id = reg.acquire();  // id 0, held for the run
  EpochDomain ebr;
  std::atomic<Node*> current{new Node};
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> torn{0};
  constexpr int kChurners = 3;
  constexpr int kGenerations = 40;
  constexpr int kReadsPerLife = 200;
  constexpr int kSwaps = 6000;
  {
    std::vector<std::jthread> ts;
    for (int c = 0; c < kChurners; ++c) {
      ts.emplace_back([&] {
        for (int gen = 0; gen < kGenerations && !stop.load(); ++gen) {
          ThreadIdGuard slot(reg);  // a fresh life, likely a reused id
          for (int i = 0; i < kReadsPerLife; ++i) {
            EpochDomain::Guard g(ebr, slot.tid());
            Node* n = current.load(std::memory_order_acquire);
            if (n->magic.load(std::memory_order_relaxed) != kMagic) {
              torn.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    ts.emplace_back([&] {
      for (int k = 0; k < kSwaps; ++k) {
        Node* fresh = new Node;
        Node* old = current.exchange(fresh, std::memory_order_acq_rel);
        ebr.retire(writer_id, old, [](void* q) {
          auto* node = static_cast<Node*>(q);
          node->magic.store(0, std::memory_order_relaxed);  // poison
          delete node;
        });
      }
      stop.store(true, std::memory_order_release);
    });
  }
  reg.release(writer_id);
  delete current.load();
  EXPECT_EQ(torn.load(), 0u);
  // No reader is pinned any more: the backlog must drain completely once
  // the domain collects, proving no departed generation wedged the epoch.
  for (int i = 0; i < 4; ++i) ebr.collect(writer_id);
  EXPECT_EQ(ebr.retired_count(), 0u);
}

TEST(TaggedReclaimer, PrivateDeallocIsNotARetirement) {
  // A node that lost its publishing CAS is freed privately. The block is
  // recycled like a retired one, but it was never retired, so neither
  // counter may move; a real retirement then counts as usual.
  TaggedReclaimer reclaimer;
  const TaggedReclaimer::Word block = reclaimer.alloc(0, 2);
  reclaimer.dealloc(0, block, 2);
  EXPECT_EQ(reclaimer.stats().retired_pending, 0u);
  EXPECT_EQ(reclaimer.stats().reclaimed_total, 0u);

  ASSERT_EQ(reclaimer.alloc(0, 2), block);  // type-stable reuse
  EXPECT_EQ(reclaimer.stats().retired_pending, 0u);
  EXPECT_EQ(reclaimer.stats().reclaimed_total, 0u);

  reclaimer.retire(0, block, 2);
  EXPECT_EQ(reclaimer.stats().retired_pending, 1u);
  ASSERT_EQ(reclaimer.alloc(0, 2), block);
  EXPECT_EQ(reclaimer.stats().retired_pending, 0u);
  EXPECT_EQ(reclaimer.stats().reclaimed_total, 1u);
  reclaimer.dealloc(0, block, 2);  // the destructor frees the bins
}

}  // namespace
}  // namespace cal::runtime
