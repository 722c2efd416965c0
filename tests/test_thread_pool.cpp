// Tests for the util::ThreadPool behind the parallel scenario engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

namespace netrec::util {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  // for_each submits one task per index on a pool of two or more workers,
  // and runs them in index order on the calling thread otherwise.
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  ThreadPool::for_each(&pool, 100,
                       [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 100);
  ThreadPool single(1);
  for (ThreadPool* serial : {static_cast<ThreadPool*>(nullptr), &single}) {
    std::vector<std::size_t> order;
    ThreadPool::for_each(serial, 5,
                         [&order](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<int> hits(257, 0);
  pool.parallel_for(hits.size(), 1, [&hits](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForZeroIterationsIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, 1, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(16, 1,
                        [&completed](std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  // Every non-throwing iteration still ran.
  EXPECT_EQ(completed.load(), 15);
}

TEST(ThreadPool, ResolveThreadsPrefersExplicitRequest) {
  EXPECT_EQ(ThreadPool::resolve_threads(5), 5u);
}

TEST(ThreadPool, ResolveThreadsRejectsAbsurdCounts) {
  EXPECT_THROW(ThreadPool::resolve_threads(ThreadPool::kMaxThreads + 1),
               std::invalid_argument);
  // A negative --threads cast to size_t lands here too.
  EXPECT_THROW(ThreadPool::resolve_threads(static_cast<std::size_t>(-1)),
               std::invalid_argument);
}

TEST(ThreadPool, AcquirePolicy) {
  std::optional<ThreadPool> storage;
  ThreadPool existing(2);
  EXPECT_EQ(ThreadPool::acquire(storage, 8, &existing), &existing);
  EXPECT_FALSE(storage.has_value());
  EXPECT_EQ(ThreadPool::acquire(storage, 1, nullptr), nullptr);
  EXPECT_FALSE(storage.has_value());
  ThreadPool* owned = ThreadPool::acquire(storage, 3, nullptr);
  ASSERT_TRUE(storage.has_value());
  EXPECT_EQ(owned, &*storage);
  EXPECT_EQ(owned->size(), 3u);
}

TEST(ThreadPool, ResolveThreadsReadsEnvironment) {
  ::setenv("NETREC_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(ThreadPool::resolve_threads(0), 3u);
  EXPECT_EQ(ThreadPool::resolve_threads(2), 2u);  // explicit beats env
  ::setenv("NETREC_THREADS", "bogus", 1);
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
  ::unsetenv("NETREC_THREADS");
  EXPECT_GE(ThreadPool::resolve_threads(0), 1u);
}

}  // namespace
}  // namespace netrec::util
