#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace privateclean {
namespace {

TEST(ExecutionOptionsTest, EffectiveThreads) {
  ExecutionOptions exec;
  EXPECT_EQ(exec.EffectiveThreads(), 1u);  // Default is single-threaded.
  exec.num_threads = 4;
  EXPECT_EQ(exec.EffectiveThreads(), 4u);
  exec.num_threads = 0;  // 0 = hardware concurrency, always >= 1.
  EXPECT_GE(exec.EffectiveThreads(), 1u);
}

TEST(ShardingTest, ShardCountForRows) {
  EXPECT_EQ(ShardCountForRows(0), 1u);  // Always a valid shard count.
  EXPECT_EQ(ShardCountForRows(1), 1u);
  EXPECT_EQ(ShardCountForRows(kRowsPerShard), 1u);
  EXPECT_EQ(ShardCountForRows(kRowsPerShard + 1), 2u);
  EXPECT_EQ(ShardCountForRows(10 * kRowsPerShard), 10u);
}

TEST(ShardingTest, ShardBoundsPartitionExactly) {
  // Shards must tile [0, n) in order, with balanced sizes.
  for (size_t n : {1u, 7u, 100u, 1000u}) {
    for (size_t shards : {1u, 2u, 3u, 7u}) {
      size_t expected_begin = 0;
      for (size_t s = 0; s < shards; ++s) {
        ShardRange range = ShardBounds(n, shards, s);
        EXPECT_EQ(range.begin, expected_begin);
        EXPECT_LE(range.end - range.begin, n / shards + 1);
        EXPECT_GE(range.end - range.begin, n / shards);
        expected_begin = range.end;
      }
      EXPECT_EQ(expected_begin, n);
    }
  }
}

TEST(ThreadPoolTest, RunsScheduledTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Schedule([&] {
      counter.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 100) {
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelForTest, ZeroItemsIsOk) {
  ExecutionOptions exec;
  bool called = false;
  Status st = ParallelFor(0, 4, exec, [&](size_t, size_t, size_t) -> Status {
    called = true;
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, CoversEveryItemExactlyOnce) {
  for (size_t threads : {1u, 2u, 8u}) {
    ExecutionOptions exec;
    exec.num_threads = threads;
    std::vector<std::atomic<int>> touched(1000);
    Status st = ParallelFor(
        1000, 16, exec, [&](size_t, size_t begin, size_t end) -> Status {
          for (size_t i = begin; i < end; ++i) touched[i].fetch_add(1);
          return Status::OK();
        });
    ASSERT_TRUE(st.ok());
    for (size_t i = 0; i < touched.size(); ++i) {
      EXPECT_EQ(touched[i].load(), 1) << "item " << i;
    }
  }
}

TEST(ParallelForTest, ShardArgumentMatchesBounds) {
  ExecutionOptions exec;
  exec.num_threads = 4;
  std::vector<std::atomic<int>> seen(8);
  Status st = ParallelFor(
      800, 8, exec, [&](size_t shard, size_t begin, size_t end) -> Status {
        ShardRange expected = ShardBounds(800, 8, shard);
        EXPECT_EQ(begin, expected.begin);
        EXPECT_EQ(end, expected.end);
        seen[shard].fetch_add(1);
        return Status::OK();
      });
  ASSERT_TRUE(st.ok());
  for (size_t s = 0; s < seen.size(); ++s) EXPECT_EQ(seen[s].load(), 1);
}

TEST(ParallelForTest, InlineErrorStopsAtFirstFailingShard) {
  ExecutionOptions exec;
  exec.num_threads = 1;
  std::vector<size_t> ran;
  Status st = ParallelFor(
      100, 10, exec, [&](size_t shard, size_t, size_t) -> Status {
        ran.push_back(shard);
        if (shard == 3) return Status::InvalidArgument("shard 3 broke");
        return Status::OK();
      });
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("shard 3 broke"), std::string::npos)
      << st.ToString();
  EXPECT_EQ(ran, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ParallelForTest, ConcurrentErrorIsPropagated) {
  ExecutionOptions exec;
  exec.num_threads = 4;
  Status st = ParallelFor(
      100, 10, exec, [&](size_t shard, size_t, size_t) -> Status {
        if (shard % 3 == 0) {
          return Status::InvalidArgument("shard " + std::to_string(shard));
        }
        return Status::OK();
      });
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("shard "), std::string::npos)
      << st.ToString();
}

TEST(ParallelForTest, InlineExecutionRunsShardsInOrder) {
  // With one thread the shards must run sequentially in shard order —
  // this is what lets single-threaded callers observe deterministic
  // side-effect ordering.
  ExecutionOptions exec;
  exec.num_threads = 1;
  std::vector<size_t> order;
  Status st = ParallelFor(100, 10, exec,
                          [&](size_t shard, size_t, size_t) -> Status {
                            order.push_back(shard);
                            return Status::OK();
                          });
  ASSERT_TRUE(st.ok());
  std::vector<size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ParallelForTest, MoreShardsThanItemsClamps) {
  ExecutionOptions exec;
  exec.num_threads = 4;
  std::atomic<size_t> items{0};
  Status st = ParallelFor(3, 100, exec,
                          [&](size_t, size_t begin, size_t end) -> Status {
                            items.fetch_add(end - begin);
                            return Status::OK();
                          });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(items.load(), 3u);
}

TEST(ParallelForTest, ReturnsWhileEveryPoolWorkerIsBlocked) {
  // Park every ThreadPool::Default() worker on a latch, so none of
  // ParallelFor's helpers can start until the latch opens. The loop must
  // still finish on the calling thread alone. The call runs on a side
  // thread under a bounded wait, so a regression fails instead of
  // hanging the suite.
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    size_t parked = 0;
    bool open = false;
  };
  // Shared with the parked tasks, which may still be waking after the
  // test body returns.
  auto latch = std::make_shared<Latch>();
  // Opens the latch on every exit path so the parked workers, and any
  // helpers queued behind them, always drain.
  struct OpenOnExit {
    std::shared_ptr<Latch> latch;
    ~OpenOnExit() {
      {
        std::lock_guard<std::mutex> lock(latch->mu);
        latch->open = true;
      }
      latch->cv.notify_all();
    }
  } open_on_exit{latch};

  ThreadPool* pool = ThreadPool::Default();
  const size_t workers = pool->num_threads();  // <= hardware_concurrency.
  for (size_t i = 0; i < workers; ++i) {
    pool->Schedule([latch] {
      std::unique_lock<std::mutex> lock(latch->mu);
      ++latch->parked;
      latch->cv.notify_all();
      latch->cv.wait(lock, [&] { return latch->open; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(latch->mu);
    ASSERT_TRUE(latch->cv.wait_for(lock, std::chrono::seconds(30), [&] {
      return latch->parked == workers;
    })) << "only " << latch->parked << " of " << workers
        << " pool workers started";
  }

  std::atomic<size_t> covered{0};
  std::promise<Status> promise;
  std::future<Status> result = promise.get_future();
  std::thread caller([&] {
    ExecutionOptions exec;
    exec.num_threads = 4;
    promise.set_value(ParallelFor(
        64, 8, exec, [&](size_t, size_t begin, size_t end) -> Status {
          covered.fetch_add(end - begin);
          return Status::OK();
        }));
  });
  const bool returned = result.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(latch->mu);
    latch->open = true;
  }
  latch->cv.notify_all();
  caller.join();
  EXPECT_TRUE(returned)
      << "ParallelFor waited for helpers no pool worker could start";
  EXPECT_TRUE(result.get().ok());
  EXPECT_EQ(covered.load(), 64u);
}

}  // namespace
}  // namespace privateclean
