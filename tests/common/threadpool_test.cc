#include "common/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace omnimatch {
namespace {

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, EmptyAndReversedRangesAreNoops) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, 0, 1, [&](int64_t, int64_t) { ++calls; });
  pool.ParallelFor(10, 5, 1, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPoolTest, SmallRangeRunsInlineAsOneChunk) {
  ThreadPool pool(4);
  std::vector<std::pair<int64_t, int64_t>> chunks;
  // range <= grain: must run as a single [begin, end) call on the caller.
  pool.ParallelFor(3, 7, 16, [&](int64_t b, int64_t e) {
    chunks.emplace_back(b, e);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].first, 3);
  EXPECT_EQ(chunks[0].second, 7);
}

TEST(ThreadPoolTest, WorkBelowSerialLimitRunsInlineAsOneChunk) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  // 100 items of 600 operations: 60,000 < kSerialWorkLimit.
  int calls = 0;
  pool.ParallelFor(0, 100, 1, 600, [&](int64_t b, int64_t e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 100);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls, 1);
  // 100 items of 700 operations reach the limit and are split.
  std::atomic<int> chunks{0};
  std::atomic<int64_t> covered{0};
  pool.ParallelFor(0, 100, 1, 700, [&](int64_t b, int64_t e) {
    chunks.fetch_add(1);
    covered.fetch_add(e - b);
  });
  EXPECT_GT(chunks.load(), 1);
  EXPECT_EQ(covered.load(), 100);
  // A huge per-item estimate must not overflow into "small".
  chunks = 0;
  pool.ParallelFor(0, 1000, 1, INT64_MAX / 2,
                   [&](int64_t, int64_t) { chunks.fetch_add(1); });
  EXPECT_GT(chunks.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  std::vector<int64_t> seen;
  pool.ParallelFor(0, 100, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) seen.push_back(i);
  });
  ASSERT_EQ(seen.size(), 100u);
  for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(seen[static_cast<size_t>(i)], i);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int64_t> total{0};
  pool.ParallelFor(0, 64, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      // Inner call must not deadlock on the single shared job slot.
      pool.ParallelFor(0, 10, 1, [&](int64_t ib, int64_t ie) {
        total.fetch_add(ie - ib);
      });
    }
  });
  EXPECT_EQ(total.load(), 64 * 10);
}

TEST(ThreadPoolTest, ManySmallJobsBackToBack) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(0, 64, 1, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) sum.fetch_add(i);
    });
    ASSERT_EQ(sum.load(), 64 * 63 / 2) << "round " << round;
  }
}

TEST(ThreadPoolTest, ChunkedSumIsThreadCountInvariant) {
  // The library-wide reduction recipe: per-item results into a buffer, then
  // a serial fixed-order combine. Identical for every pool size.
  auto run = [](int threads) {
    ThreadPool pool(threads);
    std::vector<float> parts(513, 0.0f);
    pool.ParallelFor(0, 513, 7, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) {
        parts[static_cast<size_t>(i)] = 1.0f / (1.0f + static_cast<float>(i));
      }
    });
    float total = 0.0f;
    for (float p : parts) total += p;
    return total;
  };
  float t1 = run(1);
  EXPECT_EQ(t1, run(2));
  EXPECT_EQ(t1, run(4));
  EXPECT_EQ(t1, run(7));
}

TEST(ThreadPoolTest, ResizeTakesEffect) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_threads(), 2);
  pool.Resize(3);
  EXPECT_EQ(pool.num_threads(), 3);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 100, 1, [&](int64_t b, int64_t e) {
    sum.fetch_add(e - b);
  });
  EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPoolTest, GlobalSetAndGet) {
  int before = GetNumThreads();
  SetNumThreads(2);
  EXPECT_EQ(GetNumThreads(), 2);
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 50, 1, [&](int64_t b, int64_t e) { sum.fetch_add(e - b); });
  EXPECT_EQ(sum.load(), 50);
  SetNumThreads(before);
}

TEST(ThreadPoolTest, GrainIsRespectedAsMinimumChunk) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<int64_t> sizes;
  pool.ParallelFor(0, 1024, 100, [&](int64_t b, int64_t e) {
    std::lock_guard<std::mutex> lock(mu);
    sizes.push_back(e - b);
  });
  int64_t total = 0;
  for (int64_t s : sizes) total += s;
  EXPECT_EQ(total, 1024);
  // All chunks but possibly the last must be >= grain.
  int undersized = 0;
  for (int64_t s : sizes) {
    if (s < 100) ++undersized;
  }
  EXPECT_LE(undersized, 1);
}

}  // namespace
}  // namespace omnimatch
