#ifndef CORROB_CORE_FIXPOINT_H_
#define CORROB_CORE_FIXPOINT_H_

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/budget.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/corroborator.h"
#include "core/run_context.h"
#include "core/telemetry_util.h"
#include "core/vote_matrix.h"
#include "obs/trace.h"

namespace corrob {

/// The per-fact and per-source sweeps one fixpoint iteration runs:
/// VoteMatrix's partitions bound to the run's pool and stop signal.
/// Each returns false when the stop signal cut the sweep short.
class FixpointSweeps {
 public:
  FixpointSweeps(const VoteMatrix& matrix, ThreadPool* pool,
                 const StopSignal* stop)
      : matrix_(matrix), pool_(pool), stop_(stop) {}

  template <typename Fn>
  bool Facts(const Fn& fn) const {
    return matrix_.ForEachFact(pool_, fn, stop_);
  }
  template <typename Fn>
  bool Sources(const Fn& fn) const {
    return matrix_.ForEachSource(pool_, fn, stop_);
  }

 private:
  const VoteMatrix& matrix_;
  ThreadPool* pool_;
  const StopSignal* stop_;
};

/// One double-buffered per-fact state vector of a fixpoint: a step
/// reads `current` and writes `next`, and the driver swaps the two
/// when an iteration completes. Both start at the same initial value.
struct FixpointState {
  std::vector<double>* current;
  std::vector<double>* next;
};

/// The trust fixpoint shared by TwoEstimate, ThreeEstimate,
/// TruthFinder and Cosine: a truth step and a trust step alternate
/// until the L∞ trust delta falls under `options.tolerance` (paper
/// §2.1). This is the only code in those methods that checks the
/// shared options, builds the sweep view, pool and telemetry, polls
/// the RunContext, measures convergence and assembles the result.
///
/// `options` is any of the four methods' option structs; the driver
/// reads initial_trust, max_iterations, num_threads, tolerance and
/// collect_telemetry. Callers run their own option checks first.
/// `span_name` must be a string literal (see CORROB_TRACE_SPAN).
///
/// `step(sweeps, trust, next_trust)` runs one iteration. It reads
/// `trust` and the current buffer of each `per_fact_state` pair, and
/// writes every slot of each next buffer (a slot that both buffers
/// hold at its initial value for good may be left alone); a later
/// sweep of the same step reads the next buffers. It writes each
/// voting source's slot of `next_trust`; both trust buffers start at
/// initial_trust, so a source without votes keeps it exactly. It
/// returns false when a sweep was cut short. The driver swaps every
/// pair and the trust buffers only after a completed step, so a
/// cut-short iteration's partial writes are never seen: the state
/// handed back is always exactly the last completed iteration's.
///
/// Returns the result with everything but fact_probability filled;
/// source_trust holds the raw trust vector.
template <typename Options, typename Step>
Result<CorroborationResult> RunTrustFixpoint(
    const char* span_name, std::string_view algorithm, const Options& options,
    const Dataset& dataset, const RunContext& context,
    std::initializer_list<FixpointState> per_fact_state, const Step& step) {
  if (options.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (options.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  CORROB_RETURN_NOT_OK(ValidateResourceBudget(context.budget()));

  const obs::TraceSpan span(span_name);
  const VoteMatrix matrix(dataset);
  std::unique_ptr<ThreadPool> pool = MakeSweepPool(options.num_threads);
  const FixpointSweeps sweeps(matrix, pool.get(), context.sweep_stop());
  const size_t sources = static_cast<size_t>(matrix.num_sources());
  std::vector<double> trust(sources, options.initial_trust);
  std::vector<double> next_trust = trust;
  auto telemetry =
      MaybeStartTelemetry(options.collect_telemetry, algorithm, dataset);

  Termination termination = Termination::kIterationCap;
  int iteration = 0;
  const auto over_budget = context.CheckMatrixBytes(matrix.ResidentBytes());
  if (over_budget) termination = *over_budget;
  for (; !over_budget && iteration < options.max_iterations; ++iteration) {
    if (auto interrupt = context.CheckIterationBoundary(iteration)) {
      termination = *interrupt;
      break;
    }
    if (!step(sweeps, trust, next_trust)) {
      // A sweep was cut short: its writes are partial, and they went
      // only to the next buffers, which are left unswapped.
      termination = context.SweepInterruption();
      break;
    }
    double delta = 0.0;
    for (size_t s = 0; s < sources; ++s) {
      delta = std::max(delta, std::fabs(next_trust[s] - trust[s]));
    }
    for (const FixpointState& state : per_fact_state) {
      state.current->swap(*state.next);
    }
    trust.swap(next_trust);
    RecordIteration(telemetry.get(), iteration, delta, trust);
    if (delta < options.tolerance) {
      termination = Termination::kConverged;
      ++iteration;
      break;
    }
  }

  CorroborationResult result;
  result.algorithm = std::string(algorithm);
  result.source_trust = std::move(trust);
  result.iterations = iteration;
  result.termination = termination;
  if (telemetry != nullptr) {
    telemetry->iterations = iteration;
    telemetry->converged = termination == Termination::kConverged;
    result.telemetry = std::move(telemetry);
  }
  return result;
}

}  // namespace corrob

#endif  // CORROB_CORE_FIXPOINT_H_
