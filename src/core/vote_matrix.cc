#include "core/vote_matrix.h"

namespace corrob {

bool VoteMatrix::ForEachFact(ThreadPool* pool,
                             const std::function<void(FactId)>& fn,
                             const StopSignal* stop) const {
  return ParallelApply(
      pool, num_facts(),
      [&fn](int64_t begin, int64_t end) {
        for (int64_t f = begin; f < end; ++f) fn(static_cast<FactId>(f));
      },
      stop);
}

bool VoteMatrix::ForEachSource(ThreadPool* pool,
                               const std::function<void(SourceId)>& fn,
                               const StopSignal* stop) const {
  return ParallelApply(
      pool, num_sources(),
      [&fn](int64_t begin, int64_t end) {
        for (int64_t s = begin; s < end; ++s) fn(static_cast<SourceId>(s));
      },
      stop);
}

int64_t VoteMatrix::ResidentBytes() const {
  const int64_t offsets = (int64_t{num_facts()} + 1 + num_sources() + 1) *
                          static_cast<int64_t>(sizeof(size_t));
  const int64_t entries =
      num_votes() * static_cast<int64_t>(sizeof(SourceVote) + sizeof(FactVote));
  return offsets + entries;
}

std::unique_ptr<ThreadPool> MakeSweepPool(int num_threads) {
  if (num_threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(num_threads);
}

}  // namespace corrob
