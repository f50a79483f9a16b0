#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace corrob {

ThreadPool::ThreadPool(int num_threads) {
  int count = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Submit(std::function<void()> task) {
  CORROB_CHECK(task != nullptr) << "null task";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      CORROB_LOG_WARNING
          << "ThreadPool::Submit after Shutdown; dropping the task";
      return;
    }
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

// Justified: std::unique_lock carries no capability annotations (only
// lock_guard/scoped_lock do), so the cv-wait loop would be flagged as
// touching in_flight_ unlocked. The lock discipline here is pinned by
// the TSan job instead.
void ThreadPool::Wait() CORROB_NO_THREAD_SAFETY_ANALYSIS {
  std::unique_lock<std::mutex> lock(mutex_);
  work_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) return;
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

// Justified: same std::unique_lock cv-wait caveat as Wait() above.
void ThreadPool::WorkerLoop() CORROB_NO_THREAD_SAFETY_ANALYSIS {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return !queue_.empty() || shutting_down_; });
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) work_done_.notify_all();
    }
  }
}

void ParallelFor(int64_t count, int num_threads,
                 const std::function<void(int64_t)>& fn) {
  if (count <= 0) return;
  if (num_threads <= 1 || count == 1) {
    for (int64_t i = 0; i < count; ++i) fn(i);
    return;
  }
  ThreadPool pool(static_cast<int>(
      std::min<int64_t>(count, static_cast<int64_t>(num_threads))));
  for (int64_t i = 0; i < count; ++i) {
    pool.Submit([&fn, i] { fn(i); });
  }
  pool.Wait();
}

bool ParallelApply(ThreadPool* pool, int64_t count,
                   const std::function<void(int64_t, int64_t)>& fn,
                   const StopSignal* stop) {
  if (count <= 0) return true;
  if (pool == nullptr || pool->num_threads() <= 1 || count == 1) {
    if (stop == nullptr || !stop->armed()) {
      fn(0, count);
      return true;
    }
    // Inline path with a live stop signal: slice the range so a
    // cancellation or deadline is observed without waiting for the
    // whole sweep. The slicing never changes results — each index is
    // still computed exactly once, in ascending order.
    constexpr int64_t kInlineSlice = 8192;
    for (int64_t begin = 0; begin < count; begin += kInlineSlice) {
      if (stop->ShouldStop()) return false;
      fn(begin, std::min(count, begin + kInlineSlice));
    }
    return true;
  }
  // A few chunks per worker smooths imbalance between ranges without
  // per-index submission overhead. The chunk layout only affects
  // scheduling, never results: fn owns its indices exclusively.
  const int64_t chunks = std::min<int64_t>(
      count, static_cast<int64_t>(pool->num_threads()) * 4);
  const int64_t base = count / chunks;
  const int64_t extra = count % chunks;
  // Counter pointers are stable for the registry's (process) lifetime,
  // so the hot path pays one relaxed add, not a map lookup.
  static obs::Counter* chunks_dispatched =
      obs::MetricsRegistry::Global().GetCounter(
          "corrob.thread_pool.chunks_dispatched");
  chunks_dispatched->Add(chunks);
  // Shared latch for the stop-aware path: a chunk that observes the
  // stop signal sets it so later chunks skip without re-reading the
  // (potentially costlier) deadline clock.
  std::atomic<bool> stopped{false};
  int64_t begin = 0;
  for (int64_t c = 0; c < chunks; ++c) {
    const int64_t end = begin + base + (c < extra ? 1 : 0);
    // The chunk span runs on the worker thread, so the fan-out shows
    // as one slice per worker in the trace viewer.
    if (stop != nullptr && stop->armed()) {
      pool->Submit([&fn, &stopped, stop, begin, end] {
        if (stopped.load(std::memory_order_relaxed) || stop->ShouldStop()) {
          stopped.store(true, std::memory_order_relaxed);
          return;
        }
        CORROB_TRACE_SPAN("ParallelApply::chunk");
        fn(begin, end);
      });
    } else {
      pool->Submit([&fn, begin, end] {
        CORROB_TRACE_SPAN("ParallelApply::chunk");
        fn(begin, end);
      });
    }
    begin = end;
  }
  pool->Wait();
  return !stopped.load(std::memory_order_relaxed);
}

std::unique_ptr<ThreadPool> MakeSweepPool(int num_threads) {
  if (num_threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(num_threads);
}

int DefaultThreadCount() {
  unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 4 : static_cast<int>(hardware);
}

}  // namespace corrob
