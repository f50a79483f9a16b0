#ifndef CORROB_CORE_VOTE_MATRIX_H_
#define CORROB_CORE_VOTE_MATRIX_H_

#include <cstdint>

#include "data/dataset.h"

namespace corrob {

/// O(1) counting view over a Dataset. Nothing in src/ uses it: the
/// fixpoint sweeps partition the Dataset's id ranges themselves
/// (FixpointSweeps in core/fixpoint.h). It remains only because the
/// perfbench `core.vote_matrix_build_ms` layer metric constructs one,
/// and it goes away with that metric (ROADMAP item 4).
///
/// Non-owning: `dataset` must outlive the view, which is why binding
/// one to a temporary Dataset does not compile.
class VoteMatrix {
 public:
  explicit VoteMatrix(const Dataset& dataset) : dataset_(dataset) {}
  VoteMatrix(Dataset&&) = delete;

  int32_t num_facts() const { return dataset_.num_facts(); }
  int32_t num_sources() const { return dataset_.num_sources(); }
  int64_t num_votes() const { return dataset_.num_votes(); }

 private:
  const Dataset& dataset_;
};

}  // namespace corrob

#endif  // CORROB_CORE_VOTE_MATRIX_H_
