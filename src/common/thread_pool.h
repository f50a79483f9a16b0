#ifndef CORROB_COMMON_THREAD_POOL_H_
#define CORROB_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/thread_annotations.h"

namespace corrob {

/// Fixed-size worker pool for embarrassingly parallel experiment
/// sweeps (each Figure 3 cell is an independent generate+run+score).
/// Tasks must not throw; the library is exception-free by convention
/// and a throwing task would terminate the process.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (values < 1 are clamped to 1).
  explicit ThreadPool(int num_threads);

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Calling after Shutdown() is a logged no-op: the
  /// task is dropped, never executed (callers that need the work done
  /// must submit before shutting down).
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished executing.
  void Wait();

  /// Drains and joins. Idempotent; implied by the destructor.
  void Shutdown();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable work_done_;
  std::deque<std::function<void()>> queue_ CORROB_GUARDED_BY(mutex_);
  /// Written only by the constructor and joined by Shutdown(); never
  /// touched by workers, so it needs no mutex_ guard.
  std::vector<std::thread> workers_;
  /// Queued + currently executing.
  int64_t in_flight_ CORROB_GUARDED_BY(mutex_) = 0;
  bool shutting_down_ CORROB_GUARDED_BY(mutex_) = false;
};

/// Runs fn(i) for i in [0, count) across `num_threads` workers and
/// blocks until all iterations complete. `fn` must be safe to call
/// concurrently for distinct i.
void ParallelFor(int64_t count, int num_threads,
                 const std::function<void(int64_t)>& fn);

/// Runs fn(begin, end) over disjoint contiguous ranges covering
/// [0, count) and blocks until every range has been processed. With a
/// null `pool` (or a single-worker pool, or count == 1) the whole
/// range runs inline as fn(0, count) — the sequential legacy path.
/// `fn` must only touch state owned by indices inside its range; under
/// that contract every element is computed exactly as in a sequential
/// loop, so results are bit-identical at any worker count.
///
/// `stop` (optional) is polled at chunk boundaries: once it fires,
/// chunks that have not started are skipped and the call returns
/// false. A sweep cut short this way has written an unspecified
/// subset of its outputs — callers must discard the partial sweep
/// (the fixpoint driver never swaps it in) before handing results
/// out; the determinism contract only covers completed sweeps.
/// Returns true when every range ran.
bool ParallelApply(ThreadPool* pool, int64_t count,
                   const std::function<void(int64_t, int64_t)>& fn,
                   const StopSignal* stop = nullptr);

/// Worker pool for the iterative sweeps: null for num_threads <= 1
/// (the sequential path), otherwise a pool with num_threads workers,
/// created once per Run() and reused across iterations.
std::unique_ptr<ThreadPool> MakeSweepPool(int num_threads);

/// A reasonable worker count for compute-bound sweeps.
int DefaultThreadCount();

}  // namespace corrob

#endif  // CORROB_COMMON_THREAD_POOL_H_
