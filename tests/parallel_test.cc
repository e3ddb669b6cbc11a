// Concurrency suite: the worker pool, ParallelFor, shared-budget
// charging, and — the load-bearing property — bit-identical violation
// graphs from the parallel build at every thread count.

#include <atomic>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/parallel.h"
#include "detect/pattern.h"
#include "detect/violation_graph.h"
#include "gen/error_injector.h"
#include "gen/hosp_gen.h"
#include "gen/tax_gen.h"
#include "test_util.h"

namespace ftrepair {
namespace {

using testing_util::RandomFDTable;

// Scoped setenv/unsetenv so a failing assertion cannot leak the fault
// seam into later tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3);
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      // Count under the lock: the waiter may return (and destroy `mu`
      // and `cv`) as soon as it reads 100, so the last task must be
      // done with both by then.
      std::lock_guard<std::mutex> lock(mu);
      if (done.fetch_add(1, std::memory_order_relaxed) + 1 == 100) {
        cv.notify_one();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done.load(std::memory_order_relaxed) == 100; });
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // join: every submitted task must have run
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
}

TEST(ParallelForTest, EveryShardRunsExactlyOnce) {
  for (int parallelism : {1, 2, 4, 0}) {
    const int kShards = 37;
    std::vector<std::atomic<int>> hits(kShards);
    for (auto& h : hits) h.store(0);
    bool complete = ParallelFor(kShards, parallelism, [&](int s) {
      hits[static_cast<size_t>(s)].fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_TRUE(complete);
    for (int s = 0; s < kShards; ++s) {
      EXPECT_EQ(hits[static_cast<size_t>(s)].load(), 1) << "shard " << s;
    }
  }
}

TEST(ParallelForTest, SerialModeRunsInOrderOnCaller) {
  // parallelism = 1 must be the plain serial loop: caller thread, in
  // shard order — the graph build's threads=1 guarantee rests on this.
  std::vector<int> order;
  std::thread::id caller = std::this_thread::get_id();
  bool complete = ParallelFor(8, 1, [&](int s) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(s);
  });
  EXPECT_TRUE(complete);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ParallelForTest, ZeroShardsIsANoOp) {
  EXPECT_TRUE(ParallelFor(0, 4, [](int) { FAIL(); }));
}

TEST(ParallelForTest, ExhaustedBudgetSkipsRemainingShards) {
  Budget zero(0);  // exhausted from construction
  std::atomic<int> ran{0};
  bool complete = ParallelFor(
      16, 4, [&](int) { ran.fetch_add(1, std::memory_order_relaxed); },
      &zero);
  EXPECT_FALSE(complete);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelForTest, CancellationStopsClaimingShards) {
  Budget budget;  // unlimited, but cancellable
  std::atomic<int> ran{0};
  bool complete = ParallelFor(
      64, 1,
      [&](int s) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (s == 4) budget.Cancel();
      },
      &budget);
  EXPECT_FALSE(complete);
  // Serial mode: shards 0..4 ran, everything after was skipped.
  EXPECT_EQ(ran.load(), 5);
}

TEST(ParallelForTest, NestedCallsCompleteEveryShard) {
  // A pool task calling ParallelFor must never deadlock, even when the
  // outer fan-out saturates every worker: the inner call blocks on
  // shard *completion* and the caller participates, so it can always
  // finish its shards alone. 4 outer x 8 inner at full parallelism.
  const int kOuter = 4;
  const int kInner = 8;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  bool outer_complete = ParallelFor(kOuter, 0, [&](int o) {
    bool inner_complete = ParallelFor(kInner, 0, [&](int i) {
      hits[static_cast<size_t>(o * kInner + i)].fetch_add(
          1, std::memory_order_relaxed);
    });
    EXPECT_TRUE(inner_complete);
  });
  EXPECT_TRUE(outer_complete);
  for (int u = 0; u < kOuter * kInner; ++u) {
    EXPECT_EQ(hits[static_cast<size_t>(u)].load(), 1) << "unit " << u;
  }
}

TEST(ParallelForTest, NestedSerialInnerStaysOrdered) {
  // threads=1 inside an outer fan-out must still be the plain serial
  // loop on whichever thread runs the outer shard.
  const int kOuter = 3;
  std::vector<std::vector<int>> orders(kOuter);
  bool complete = ParallelFor(kOuter, 0, [&](int o) {
    std::thread::id me = std::this_thread::get_id();
    ParallelFor(6, 1, [&, me](int i) {
      EXPECT_EQ(std::this_thread::get_id(), me);
      orders[static_cast<size_t>(o)].push_back(i);
    });
  });
  EXPECT_TRUE(complete);
  for (int o = 0; o < kOuter; ++o) {
    EXPECT_EQ(orders[static_cast<size_t>(o)],
              (std::vector<int>{0, 1, 2, 3, 4, 5}));
  }
}

TEST(BudgetConcurrencyTest, SharedChargeAccountsExactly) {
  // Many threads charging one limited budget must lose no units — the
  // parallel graph build's accounting depends on it.
  Budget budget(1e9);  // limited (so units are tracked) but far away
  const int kThreads = 8;
  const int kChargesEach = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&budget] {
      for (int i = 0; i < kChargesEach; ++i) EXPECT_TRUE(budget.Charge());
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(budget.units_charged(),
            static_cast<uint64_t>(kThreads) * kChargesEach);
}

TEST(BudgetConcurrencyTest, FaultSeamTripsOnceAcrossThreads) {
  ScopedEnv fault("FTREPAIR_FAULT_BUDGET_UNITS", "5000");
  Budget budget(1e9);
  const int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  // Each thread alone charges past the trip point, so every thread is
  // guaranteed to observe the latched failure.
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 6000; ++i) {
        if (!budget.Charge()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(budget.Exhausted());
  EXPECT_EQ(failures.load(), kThreads);  // every thread saw the trip
}

// ---------------------------------------------------------------------
// Parallel graph build determinism.

void ExpectGraphsIdentical(const ViolationGraph& a, const ViolationGraph& b) {
  ASSERT_EQ(a.num_patterns(), b.num_patterns());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.candidates_verified(), b.candidates_verified());
  EXPECT_EQ(a.pairs_length_filtered(), b.pairs_length_filtered());
  EXPECT_EQ(a.truncated(), b.truncated());
  // Bit-identical doubles, not approximately equal: the parallel build
  // promises the exact serial result.
  for (int i = 0; i < a.num_patterns(); ++i) {
    EXPECT_EQ(a.MinEdgeCost(i), b.MinEdgeCost(i)) << "vertex " << i;
    const auto& na = a.Neighbors(i);
    const auto& nb = b.Neighbors(i);
    ASSERT_EQ(na.size(), nb.size()) << "vertex " << i;
    for (size_t k = 0; k < na.size(); ++k) {
      EXPECT_EQ(na[k].to, nb[k].to) << "vertex " << i << " edge " << k;
      EXPECT_EQ(na[k].proj_dist, nb[k].proj_dist)
          << "vertex " << i << " edge " << k;
      EXPECT_EQ(na[k].unit_cost, nb[k].unit_cost)
          << "vertex " << i << " edge " << k;
    }
  }
}

Table MakeDirty(Dataset& ds, uint64_t seed) {
  NoiseOptions noise;
  noise.error_rate = 0.05;
  noise.seed = seed;
  return std::move(InjectErrors(ds.clean, ds.fds, noise, nullptr))
      .ValueOrDie();
}

class ParallelBuildTest : public ::testing::TestWithParam<bool> {
 protected:
  Dataset Generate(int rows) {
    if (GetParam()) {
      return std::move(GenerateHosp({.num_rows = rows, .seed = 13}))
          .ValueOrDie();
    }
    return std::move(GenerateTax({.num_rows = rows, .seed = 13}))
        .ValueOrDie();
  }
};

TEST_P(ParallelBuildTest, ByteIdenticalToSerialOnGenerators) {
  Dataset ds = Generate(600);
  Table dirty = MakeDirty(ds, 29);
  DistanceModel model(dirty);
  for (const FD& fd : ds.fds) {
    std::vector<Pattern> patterns = BuildPatterns(dirty, fd.attrs());
    FTOptions serial{ds.recommended_w_l, ds.recommended_w_r,
                     ds.recommended_tau.at(fd.name()), 1};
    ViolationGraph reference =
        ViolationGraph::Build(patterns, dirty, fd, model, serial);
    for (int threads : {2, 3, 4, 0}) {
      FTOptions opts = serial;
      opts.threads = threads;
      ViolationGraph parallel =
          ViolationGraph::Build(patterns, dirty, fd, model, opts);
      SCOPED_TRACE("fd=" + fd.name() +
                   " threads=" + std::to_string(threads));
      ExpectGraphsIdentical(reference, parallel);
    }
  }
}

TEST(ParallelGraphBuildTest, ByteIdenticalOnRandomTableManyPatterns) {
  // More patterns than one shard (64 rows/shard) so the merge crosses
  // many shard boundaries.
  Table t = RandomFDTable(500, 3, 220, 80, 99);
  FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
  DistanceModel model(t);
  std::vector<Pattern> patterns = BuildPatterns(t, fd.attrs());
  ASSERT_GT(patterns.size(), 128u);
  FTOptions serial{0.5, 0.5, 0.45, 1};
  ViolationGraph reference =
      ViolationGraph::Build(patterns, t, fd, model, serial);
  for (int threads : {2, 4, 7, 0}) {
    FTOptions opts = serial;
    opts.threads = threads;
    ViolationGraph parallel =
        ViolationGraph::Build(patterns, t, fd, model, opts);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectGraphsIdentical(reference, parallel);
  }
}

TEST(ParallelGraphBuildTest, TruncatedParallelBuildIsWellFormed) {
  // Exhaust the budget mid-build on many threads: which pairs ran is
  // nondeterministic, but the graph must be marked truncated and every
  // invariant (symmetric adjacency, i<j edge count) must hold.
  ScopedEnv fault("FTREPAIR_FAULT_BUDGET_UNITS", "2000");
  Table t = RandomFDTable(400, 3, 180, 60, 7);
  FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
  DistanceModel model(t);
  std::vector<Pattern> patterns = BuildPatterns(t, fd.attrs());
  Budget budget(1e9);  // limited, so the fault seam applies
  ViolationGraph g = ViolationGraph::Build(patterns, t, fd, model,
                                           FTOptions{0.5, 0.5, 0.45, 4},
                                           &budget);
  EXPECT_TRUE(g.truncated());
  size_t directed = 0;
  for (int i = 0; i < g.num_patterns(); ++i) {
    for (const ViolationGraph::Edge& e : g.Neighbors(i)) {
      ASSERT_GE(e.to, 0);
      ASSERT_LT(e.to, g.num_patterns());
      ASSERT_NE(e.to, i);
      ++directed;
      // The mirror edge must exist with the same weights.
      bool mirrored = false;
      for (const ViolationGraph::Edge& back : g.Neighbors(e.to)) {
        if (back.to == i && back.proj_dist == e.proj_dist &&
            back.unit_cost == e.unit_cost) {
          mirrored = true;
          break;
        }
      }
      EXPECT_TRUE(mirrored) << i << " -> " << e.to;
    }
  }
  EXPECT_EQ(directed, 2 * g.num_edges());
}

TEST(ParallelGraphBuildTest, PreExhaustedBudgetMarksTruncated) {
  Table t = RandomFDTable(50, 3, 20, 10, 3);
  FD fd = std::move(FD::Make({0}, {1})).ValueOrDie();
  DistanceModel model(t);
  Budget zero(0);
  for (int threads : {1, 4}) {
    ViolationGraph g = ViolationGraph::Build(
        BuildPatterns(t, fd.attrs()), t, fd, model,
        FTOptions{0.5, 0.5, 0.45, threads}, &zero);
    EXPECT_TRUE(g.truncated()) << "threads=" << threads;
    EXPECT_EQ(g.num_edges(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(HospAndTax, ParallelBuildTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Hosp" : "Tax";
                         });

}  // namespace
}  // namespace ftrepair
