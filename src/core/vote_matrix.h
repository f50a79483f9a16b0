#ifndef CORROB_CORE_VOTE_MATRIX_H_
#define CORROB_CORE_VOTE_MATRIX_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "common/thread_pool.h"
#include "data/dataset.h"

namespace corrob {

/// Sweep view over a Dataset for the trust fixpoint's hot loops. The
/// sweeps' only caller is the driver in core/fixpoint.h, which
/// TwoEstimate, ThreeEstimate, TruthFinder and Cosine run through
/// (IncEstimate uses MakeSweepPool only). The sweeps read the votes
/// in place through Dataset::VotesOnFact / Dataset::VotesBySource;
/// this view only partitions the fact and source id ranges across a
/// pool and sizes the arrays those sweeps read.
///
/// Non-owning and O(1) to build: `dataset` must outlive the view,
/// which is why binding one to a temporary Dataset does not compile.
/// Immutable; safe to read from any number of threads.
class VoteMatrix {
 public:
  explicit VoteMatrix(const Dataset& dataset) : dataset_(dataset) {}
  VoteMatrix(Dataset&&) = delete;

  int32_t num_facts() const { return dataset_.num_facts(); }
  int32_t num_sources() const { return dataset_.num_sources(); }
  int64_t num_votes() const { return dataset_.num_votes(); }

  /// Parallel per-fact / per-source sweeps: runs fn(i) for every id,
  /// partitioned by output index across `pool` (inline when `pool` is
  /// null — the sequential path). `fn` must only write state owned by
  /// its index; each element is then computed exactly as in the
  /// sequential loop, so results are bit-identical at any thread
  /// count (see docs/PERFORMANCE.md).
  ///
  /// `stop` (optional) is polled at chunk boundaries; a fired signal
  /// skips the remaining chunks and the sweep returns false. The
  /// partial sweep's writes are then inconsistent — they went to the
  /// driver's next buffers, which it discards by not swapping them in
  /// (see RunTrustFixpoint). Returns true when the sweep covered every
  /// id.
  bool ForEachFact(ThreadPool* pool, const std::function<void(FactId)>& fn,
                   const StopSignal* stop = nullptr) const;
  bool ForEachSource(ThreadPool* pool,
                     const std::function<void(SourceId)>& fn,
                     const StopSignal* stop = nullptr) const;

  /// Bytes of the Dataset's CSR/CSC arrays (offsets plus vote
  /// entries, both orientations) that a sweep reads; what
  /// ResourceBudget::max_vote_matrix_bytes is enforced against.
  int64_t ResidentBytes() const;

 private:
  const Dataset& dataset_;
};

/// Worker pool for the iterative sweeps: null for num_threads <= 1
/// (the sequential legacy path), otherwise a pool with num_threads
/// workers, created once per Run() and reused across iterations.
std::unique_ptr<ThreadPool> MakeSweepPool(int num_threads);

}  // namespace corrob

#endif  // CORROB_CORE_VOTE_MATRIX_H_
