#include "common/thread_pool.h"

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace corrob {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), 1000);
  }
}

TEST(ThreadPoolTest, WaitBlocksUntilDone) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&done] {
      // Tiny busy work to give Wait something to wait for.
      volatile int x = 0;
      for (int j = 0; j < 10000; ++j) x = x + j;
      done.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool pool(3);
  pool.Wait();  // Must not deadlock.
  SUCCEED();
}

TEST(ThreadPoolTest, ShutdownDrainsQueue) {
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  for (int i = 0; i < 200; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 200);
  pool.Shutdown();  // Idempotent.
}

TEST(ThreadPoolTest, ClampsThreadCount) {
  ThreadPool pool(-3);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr int64_t kCount = 500;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  ParallelFor(kCount, 8, [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, SequentialFallback) {
  std::vector<int64_t> order;
  ParallelFor(5, 1, [&](int64_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, ZeroAndNegativeCounts) {
  int calls = 0;
  ParallelFor(0, 4, [&](int64_t) { ++calls; });
  ParallelFor(-5, 4, [&](int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, ParallelSumMatchesSequential) {
  constexpr int64_t kCount = 10000;
  std::atomic<int64_t> sum{0};
  ParallelFor(kCount, 8, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), kCount * (kCount - 1) / 2);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsDroppedNoOp) {
  std::atomic<int> counter{0};
  ThreadPool pool(2);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Shutdown();
  // Previously undefined behavior (notified a dead worker set and the
  // task leaked in the queue); now a logged drop.
  pool.Submit([&counter] { counter.fetch_add(100); });
  pool.Wait();  // Must not hang on the dropped task.
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ShutdownIdempotentAfterDroppedSubmit) {
  ThreadPool pool(2);
  pool.Shutdown();
  pool.Submit([] {});
  pool.Shutdown();  // Second shutdown after a dropped submit: no hang.
  SUCCEED();
}

TEST(ThreadPoolTest, WaitWithEmptyQueueAfterShutdown) {
  ThreadPool pool(3);
  pool.Shutdown();
  pool.Wait();  // Nothing in flight; must return immediately.
  SUCCEED();
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  // Each outer iteration spins up its own inner ParallelFor; the
  // pools are independent, so nesting must compose.
  std::atomic<int> hits{0};
  ParallelFor(4, 2, [&](int64_t) {
    ParallelFor(8, 2, [&](int64_t) { hits.fetch_add(1); });
  });
  EXPECT_EQ(hits.load(), 32);
}

TEST(ParallelApplyTest, RangesCoverEveryIndexExactlyOnce) {
  constexpr int64_t kCount = 1000;
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  ParallelApply(&pool, kCount, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (int64_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelApplyTest, NullPoolRunsInlineAsSingleRange) {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  ParallelApply(nullptr, 7, [&](int64_t begin, int64_t end) {
    ranges.emplace_back(begin, end);
  });
  EXPECT_EQ(ranges,
            (std::vector<std::pair<int64_t, int64_t>>{{0, 7}}));
}

TEST(ParallelApplyTest, ZeroAndNegativeCounts) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelApply(&pool, 0, [&](int64_t, int64_t) { ++calls; });
  ParallelApply(nullptr, -3, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelApplyTest, CompleteSweepsReportTrue) {
  ThreadPool pool(2);
  CancellationToken token;
  StopSignal stop(&token, Deadline());
  int64_t covered = 0;
  EXPECT_TRUE(ParallelApply(nullptr, 9,
                            [&](int64_t begin, int64_t end) {
                              covered += end - begin;
                            }));
  EXPECT_EQ(covered, 9);
  std::atomic<int64_t> parallel_covered{0};
  EXPECT_TRUE(ParallelApply(
      &pool, 100,
      [&](int64_t begin, int64_t end) {
        parallel_covered.fetch_add(end - begin);
      },
      &stop));
  EXPECT_EQ(parallel_covered.load(), 100);
}

TEST(ParallelApplyTest, FiredStopCutsTheSweepShort) {
  CancellationToken token;
  token.Cancel();
  StopSignal stop(&token, Deadline());
  // Inline path: a large count would slice into multiple chunks; a
  // pre-fired stop must skip them all and report the incomplete run.
  int64_t calls = 0;
  EXPECT_FALSE(ParallelApply(
      nullptr, 1000000, [&](int64_t, int64_t) { ++calls; }, &stop));
  EXPECT_EQ(calls, 0);

  ThreadPool pool(4);
  std::atomic<int64_t> parallel_calls{0};
  EXPECT_FALSE(ParallelApply(
      &pool, 1000000,
      [&](int64_t, int64_t) { parallel_calls.fetch_add(1); }, &stop));
}

TEST(ParallelApplyTest, DisarmedStopIsTheLegacyPath) {
  // A null stop (and an unarmed one) must not change the chunk
  // geometry: the inline path stays one single range.
  std::vector<std::pair<int64_t, int64_t>> ranges;
  StopSignal unarmed;
  EXPECT_TRUE(ParallelApply(
      nullptr, 7,
      [&](int64_t begin, int64_t end) { ranges.emplace_back(begin, end); },
      &unarmed));
  EXPECT_EQ(ranges,
            (std::vector<std::pair<int64_t, int64_t>>{{0, 7}}));
}

TEST(ParallelApplyTest, ReusableAcrossIterations) {
  // The hot-loop usage pattern: one pool, many sweeps.
  ThreadPool pool(3);
  std::vector<std::atomic<int64_t>> slot(64);
  for (auto& s : slot) s.store(0);
  for (int iter = 0; iter < 50; ++iter) {
    ParallelApply(&pool, 64, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) slot[i].fetch_add(i);
    });
  }
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(slot[i].load(), 50 * i);
  }
}

TEST(MakeSweepPoolTest, NullForSequentialCounts) {
  EXPECT_EQ(MakeSweepPool(0), nullptr);
  EXPECT_EQ(MakeSweepPool(1), nullptr);
  auto pool = MakeSweepPool(3);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), 3);
}

TEST(DefaultThreadCountTest, Positive) {
  EXPECT_GE(DefaultThreadCount(), 1);
}

}  // namespace
}  // namespace corrob
