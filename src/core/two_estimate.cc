#include "core/two_estimate.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "core/telemetry_util.h"
#include "core/vote_matrix.h"
#include "obs/trace.h"

namespace corrob {

void NormalizeEstimates(Normalization scheme, std::vector<double>* values) {
  switch (scheme) {
    case Normalization::kNone:
      return;
    case Normalization::kRound:
      for (double& v : *values) v = v >= 0.5 ? 1.0 : 0.0;
      return;
    case Normalization::kLinear: {
      if (values->empty()) return;
      auto [lo_it, hi_it] = std::minmax_element(values->begin(), values->end());
      double lo = *lo_it, hi = *hi_it;
      if (hi - lo < 1e-12) return;  // Degenerate span: leave unchanged.
      for (double& v : *values) v = (v - lo) / (hi - lo);
      return;
    }
  }
}

Result<CorroborationResult> TwoEstimateCorroborator::Run(
    const Dataset& dataset, const RunContext& context) const {
  if (options_.initial_trust < 0.0 || options_.initial_trust > 1.0) {
    return Status::InvalidArgument("initial_trust must be in [0,1]");
  }
  if (options_.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (options_.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  CORROB_RETURN_NOT_OK(ValidateResourceBudget(context.budget()));

  CORROB_TRACE_SPAN("TwoEstimate::Run");
  const VoteMatrix matrix(dataset);
  std::unique_ptr<ThreadPool> pool = MakeSweepPool(options_.num_threads);
  const size_t facts = static_cast<size_t>(matrix.num_facts());
  const size_t sources = static_cast<size_t>(matrix.num_sources());
  std::vector<double> trust(sources, options_.initial_trust);
  std::vector<double> probability(facts, 0.5);
  auto telemetry =
      MaybeStartTelemetry(options_.collect_telemetry, name(), dataset);
  // The stop signal is polled inside the sweeps; a mid-sweep
  // interruption rolls back to `snapshot` so the returned state is
  // exactly the last completed iteration's.
  const StopSignal* stop = context.sweep_stop();
  std::vector<double> snapshot;

  Termination termination = Termination::kIterationCap;
  int iteration = 0;
  const auto over_budget = context.CheckMatrixBytes(matrix.ResidentBytes());
  if (over_budget) termination = *over_budget;
  for (; !over_budget && iteration < options_.max_iterations; ++iteration) {
    if (auto interrupt = context.CheckIterationBoundary(iteration)) {
      termination = *interrupt;
      break;
    }
    if (stop != nullptr) snapshot = probability;
    // Corrob step (paper Eq. 6): each fact's score depends only on
    // the previous iteration's trust, so the sweep partitions by
    // fact.
    bool complete = matrix.ForEachFact(
        pool.get(),
        [&](FactId f) {
          probability[static_cast<size_t>(f)] =
              CorrobScore(dataset.VotesOnFact(f), trust);
        },
        stop);
    if (complete) {
      NormalizeEstimates(options_.normalization, &probability);
      // Update step (paper Eq. 7), partitioned by source.
      std::vector<double> next_trust(sources, options_.initial_trust);
      complete = matrix.ForEachSource(
          pool.get(),
          [&](SourceId s) {
            auto voted = dataset.VotesBySource(s);
            if (voted.empty()) return;
            double sum = 0.0;
            for (const FactVote& fv : voted) {
              const double p = probability[static_cast<size_t>(fv.fact)];
              sum += fv.vote == Vote::kTrue ? p : 1.0 - p;
            }
            next_trust[static_cast<size_t>(s)] =
                sum / static_cast<double>(voted.size());
          },
          stop);
      if (complete) {
        double delta = 0.0;
        for (size_t s = 0; s < sources; ++s) {
          delta = std::max(delta, std::fabs(next_trust[s] - trust[s]));
        }
        trust = std::move(next_trust);
        RecordIteration(telemetry.get(), iteration, delta, trust);
        if (delta < options_.tolerance) {
          termination = Termination::kConverged;
          ++iteration;
          break;
        }
        continue;
      }
    }
    // A sweep was cut short: its writes are partial. Restore the
    // pre-iteration probabilities; trust was not yet replaced.
    probability = std::move(snapshot);
    termination = context.SweepInterruption();
    break;
  }

  CorroborationResult result;
  result.algorithm = std::string(name());
  result.fact_probability = std::move(probability);
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
