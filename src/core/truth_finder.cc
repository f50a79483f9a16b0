#include "core/truth_finder.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "core/telemetry_util.h"
#include "core/vote_matrix.h"
#include "obs/trace.h"

namespace corrob {

Result<CorroborationResult> TruthFinderCorroborator::Run(
    const Dataset& dataset, const RunContext& context) const {
  if (options_.initial_trust <= 0.0 || options_.initial_trust >= 1.0) {
    return Status::InvalidArgument("initial_trust must be in (0,1)");
  }
  if (options_.dampening <= 0.0) {
    return Status::InvalidArgument("dampening must be positive");
  }
  if (options_.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (options_.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  CORROB_RETURN_NOT_OK(ValidateResourceBudget(context.budget()));

  CORROB_TRACE_SPAN("TruthFinder::Run");
  const VoteMatrix matrix(dataset);
  std::unique_ptr<ThreadPool> pool = MakeSweepPool(options_.num_threads);
  const size_t facts = static_cast<size_t>(matrix.num_facts());
  const size_t sources = static_cast<size_t>(matrix.num_sources());
  std::vector<double> trust(sources, options_.initial_trust);
  std::vector<double> probability(facts, 0.5);
  auto telemetry =
      MaybeStartTelemetry(options_.collect_telemetry, name(), dataset);

  // `probability` is rewritten in place by the claim sweep; snapshot
  // it so a mid-sweep interruption hands back the last completed
  // iteration.
  const StopSignal* stop = context.sweep_stop();
  std::vector<double> probability_snapshot;

  Termination termination = Termination::kIterationCap;
  int iteration = 0;
  const auto over_budget = context.CheckMatrixBytes(matrix.ResidentBytes());
  if (over_budget) termination = *over_budget;
  for (; !over_budget && iteration < options_.max_iterations; ++iteration) {
    if (auto interrupt = context.CheckIterationBoundary(iteration)) {
      termination = *interrupt;
      break;
    }
    if (stop != nullptr) probability_snapshot = probability;
    // Claim scores and fact confidence, partitioned by fact.
    bool complete = matrix.ForEachFact(
        pool.get(),
        [&](FactId f) {
      auto voters = dataset.VotesOnFact(f);
      if (voters.empty()) {
        probability[static_cast<size_t>(f)] = 0.5;
        return;
      }
      double score_true = 0.0;
      double score_false = 0.0;
      for (const SourceVote& sv : voters) {
        const double tau = -std::log(
            Clamp(1.0 - trust[static_cast<size_t>(sv.source)],
                  options_.epsilon, 1.0));
        (sv.vote == Vote::kTrue ? score_true : score_false) += tau;
      }
      const double adjusted_true =
          score_true - options_.exclusion_weight * score_false;
      const double adjusted_false =
          score_false - options_.exclusion_weight * score_true;
      probability[static_cast<size_t>(f)] = Sigmoid(
          options_.dampening * (adjusted_true - adjusted_false));
        },
        stop);

    // Trust update. Each source reads only `probability` and writes
    // its own slot; the convergence check folds afterwards over the
    // old/new pair so the parallel sweep stays reduction-free.
    std::vector<double> next_trust;
    if (complete) {
      next_trust = trust;
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
    }
    if (!complete) {
      // A sweep was cut short mid-iteration: restore the
      // probabilities of the last completed iteration; trust was not
      // yet replaced.
      probability = std::move(probability_snapshot);
      termination = context.SweepInterruption();
      break;
    }
    double max_change = 0.0;
    for (size_t s = 0; s < sources; ++s) {
      max_change = std::max(max_change, std::fabs(next_trust[s] - trust[s]));
    }
    trust = std::move(next_trust);
    RecordIteration(telemetry.get(), iteration, max_change, trust);
    if (max_change < options_.tolerance) {
      termination = Termination::kConverged;
      ++iteration;
      break;
    }
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
