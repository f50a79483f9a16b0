#ifndef CORROB_CORE_RUN_CONTEXT_H_
#define CORROB_CORE_RUN_CONTEXT_H_

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/budget.h"

namespace corrob {

class FactGroupIndex;

/// Why a corroboration run stopped. kConverged and kIterationCap are
/// the two historical outcomes; the remaining reasons are early
/// terminations where the run degraded gracefully and returned its
/// best-so-far state (see docs/ROBUSTNESS.md, "Deadlines,
/// cancellation, and budgets").
enum class Termination {
  /// The fixpoint reached its tolerance (or the method is one-shot).
  kConverged = 0,
  /// max_iterations elapsed without convergence.
  kIterationCap = 1,
  /// The RunContext deadline expired (or budget.force_expire fired).
  kDeadlineExceeded = 2,
  /// The CancellationToken fired (or cancel.at_iteration fired).
  kCancelled = 3,
  /// A ResourceBudget cap (rounds, vote-matrix bytes) was hit.
  kBudgetExhausted = 4,
};

/// Stable lowercase name, e.g. "deadline_exceeded".
std::string_view TerminationName(Termination termination);

/// True for the reasons that cut a run short of its natural end
/// (everything but kConverged and kIterationCap).
bool TerminatedEarly(Termination termination);

/// Execution budget of one corroboration run: a cancellation token, a
/// wall-clock deadline, and resource caps, bundled so Corroborator
/// implementations poll one object at their sequential boundaries.
///
/// The context is cooperative and cheap when unbounded: every check
/// short-circuits on a couple of flag loads, so threading it through
/// a hot loop costs nothing measurable until a budget is armed
/// (bench_micro's BM_TwoEstimateSweep* kernels track this; the
/// acceptance bar is <= 2% disarmed overhead).
///
/// Failpoint hooks (checked only at sequential iteration/round
/// boundaries so hit counts are thread-count-independent):
///   - "budget.force_expire"   -> reports kDeadlineExceeded
///   - "cancel.at_iteration"   -> reports kCancelled
/// Arming either with skip=k fires after exactly k completed
/// iterations, which is how the termination-parity tests pin "cancel
/// at iteration k" deterministically.
class RunContext {
 public:
  RunContext() = default;

  /// The shared no-op context: never cancelled, never expires.
  static const RunContext& Unbounded();

  RunContext& WithCancellation(const CancellationToken* token) {
    stop_ = StopSignal(token, stop_.deadline());
    return *this;
  }
  RunContext& WithDeadline(Deadline deadline) {
    stop_ = StopSignal(stop_.cancellation(), deadline);
    return *this;
  }
  RunContext& WithBudget(ResourceBudget budget) {
    budget_ = budget;
    return *this;
  }
  /// A prebuilt fact-group index (core/fact_group.h) of the dataset
  /// the run reads, so IncEstimate does not build its own. It must be
  /// built from that dataset and outlive the run; other methods
  /// ignore it.
  RunContext& WithFactGroups(const FactGroupIndex* index) {
    fact_groups_ = index;
    return *this;
  }

  const StopSignal& stop() const { return stop_; }
  /// The stop signal for sweep-level polling (ParallelApply), or null
  /// when neither cancellation nor deadline is armed — the null keeps
  /// the disarmed sweep on the exact pre-budget code path.
  const StopSignal* sweep_stop() const {
    return stop_.armed() ? &stop_ : nullptr;
  }
  const ResourceBudget& budget() const { return budget_; }
  const FactGroupIndex* fact_groups() const { return fact_groups_; }

  /// The boundary poll: call once per *completed* iteration / round /
  /// Gibbs sweep from sequential code, passing how many have fully
  /// completed. Returns the termination reason when the run should
  /// stop with its current (consistent) state, nullopt to keep going.
  /// Also services the budget.force_expire / cancel.at_iteration
  /// failpoints and records interruption metrics.
  std::optional<Termination> CheckIterationBoundary(
      int64_t completed_iterations) const;

  /// Maps a sweep that ParallelApply cut short (returned false) to
  /// its termination reason. The caller must already have discarded
  /// the partial sweep's writes.
  Termination SweepInterruption() const;

  /// Enforces the vote-matrix byte cap: kBudgetExhausted when
  /// `resident_bytes` exceeds a configured max_vote_matrix_bytes.
  std::optional<Termination> CheckMatrixBytes(int64_t resident_bytes) const;

 private:
  StopSignal stop_;
  ResourceBudget budget_;
  const FactGroupIndex* fact_groups_ = nullptr;
};

}  // namespace corrob

#endif  // CORROB_CORE_RUN_CONTEXT_H_
