#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/check.h"

namespace privateclean {

namespace {

size_t HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<size_t>(n);
}

}  // namespace

size_t ExecutionOptions::EffectiveThreads() const {
  return num_threads == 0 ? HardwareThreads() : num_threads;
}

ThreadPool::ThreadPool(size_t num_threads) {
  size_t n = std::max<size_t>(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Schedule(std::function<void()> task) {
  PCLEAN_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mu_);
    PCLEAN_CHECK(!shutdown_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ with a drained queue.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool* ThreadPool::Default() {
  static ThreadPool* pool = new ThreadPool(HardwareThreads());
  return pool;
}

size_t ShardCountForRows(size_t num_rows) {
  if (num_rows == 0) return 1;
  return (num_rows + kRowsPerShard - 1) / kRowsPerShard;
}

size_t ChunkCountForBytes(size_t num_bytes, size_t bytes_per_chunk) {
  size_t chunk = bytes_per_chunk == 0 ? kBytesPerSplitChunk : bytes_per_chunk;
  if (num_bytes == 0) return 1;
  return (num_bytes + chunk - 1) / chunk;
}

size_t ShardCountForCoarseItems(size_t num_items) {
  return std::max<size_t>(1, std::min(num_items, kMaxCoarseShards));
}

ShardRange ShardBounds(size_t num_items, size_t num_shards, size_t shard) {
  PCLEAN_CHECK(num_shards > 0);
  PCLEAN_CHECK(shard < num_shards);
  // Balanced split: the first (num_items % num_shards) shards get one
  // extra item, so sizes differ by at most one.
  size_t base = num_items / num_shards;
  size_t extra = num_items % num_shards;
  size_t begin = shard * base + std::min(shard, extra);
  size_t end = begin + base + (shard < extra ? 1 : 0);
  return ShardRange{begin, end};
}

Status ParallelFor(
    size_t num_items, size_t num_shards, const ExecutionOptions& options,
    const std::function<Status(size_t shard, size_t begin, size_t end)>& fn) {
  if (num_items == 0) return Status::OK();
  size_t shards = std::max<size_t>(1, std::min(num_shards, num_items));
  size_t threads = std::min(options.EffectiveThreads(), shards);

  if (threads <= 1 || shards == 1) {
    for (size_t s = 0; s < shards; ++s) {
      ShardRange range = ShardBounds(num_items, shards, s);
      PCLEAN_RETURN_NOT_OK(fn(s, range.begin, range.end));
    }
    return Status::OK();
  }

  // Up to `threads` runners drain an atomic shard counter; the caller is
  // one of them, so every shard runs even if no helper is ever dequeued
  // (a saturated pool, or a pool worker that is itself waiting here).
  std::vector<Status> statuses(shards);
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  auto runner = [&] {
    for (;;) {
      size_t s = next.fetch_add(1, std::memory_order_relaxed);
      if (s >= shards || failed.load(std::memory_order_relaxed)) return;
      ShardRange range = ShardBounds(num_items, shards, s);
      Status st = fn(s, range.begin, range.end);
      if (!st.ok()) {
        statuses[s] = std::move(st);
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  // Helpers co-own this state, so one dequeued after the caller returned
  // still has a live mutex to consult. A helper claims a start slot only
  // while the loop is open; once the caller closes it, the caller waits
  // for the helpers that started (they touch `runner`'s stack captures)
  // and for no others — late ones return without running anything.
  struct Helpers {
    std::mutex mu;
    std::condition_variable done_cv;
    bool closed = false;
    size_t running = 0;
  };
  auto helpers = std::make_shared<Helpers>();
  for (size_t t = 0; t + 1 < threads; ++t) {
    ThreadPool::Default()->Schedule([helpers, &runner] {
      {
        std::lock_guard<std::mutex> lock(helpers->mu);
        if (helpers->closed) return;
        ++helpers->running;
      }
      runner();
      {
        std::lock_guard<std::mutex> lock(helpers->mu);
        --helpers->running;
      }
      helpers->done_cv.notify_all();
    });
  }
  runner();
  {
    std::unique_lock<std::mutex> lock(helpers->mu);
    helpers->closed = true;
    helpers->done_cv.wait(lock, [&] { return helpers->running == 0; });
  }

  for (size_t s = 0; s < shards; ++s) {
    if (!statuses[s].ok()) return statuses[s];
  }
  return Status::OK();
}

}  // namespace privateclean
