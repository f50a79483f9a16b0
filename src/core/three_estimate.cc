#include "core/three_estimate.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "core/telemetry_util.h"
#include "core/vote_matrix.h"
#include "obs/trace.h"

namespace corrob {

Result<CorroborationResult> ThreeEstimateCorroborator::Run(
    const Dataset& dataset, const RunContext& context) const {
  if (options_.initial_trust < 0.0 || options_.initial_trust > 1.0) {
    return Status::InvalidArgument("initial_trust must be in [0,1]");
  }
  if (options_.initial_difficulty < 0.0 || options_.initial_difficulty > 1.0) {
    return Status::InvalidArgument("initial_difficulty must be in [0,1]");
  }
  if (options_.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (options_.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  CORROB_RETURN_NOT_OK(ValidateResourceBudget(context.budget()));

  CORROB_TRACE_SPAN("ThreeEstimate::Run");
  const VoteMatrix matrix(dataset);
  std::unique_ptr<ThreadPool> pool = MakeSweepPool(options_.num_threads);
  const size_t facts = static_cast<size_t>(matrix.num_facts());
  const size_t sources = static_cast<size_t>(matrix.num_sources());
  std::vector<double> trust(sources, options_.initial_trust);
  std::vector<double> difficulty(facts, options_.initial_difficulty);
  std::vector<double> probability(facts, 0.5);
  const double delta_smooth = options_.smoothing;
  auto telemetry =
      MaybeStartTelemetry(options_.collect_telemetry, name(), dataset);

  const StopSignal* stop = context.sweep_stop();
  std::vector<double> probability_snapshot;
  std::vector<double> difficulty_snapshot;

  Termination termination = Termination::kIterationCap;
  int iteration = 0;
  const auto over_budget = context.CheckMatrixBytes(matrix.ResidentBytes());
  if (over_budget) termination = *over_budget;
  for (; !over_budget && iteration < options_.max_iterations; ++iteration) {
    if (auto interrupt = context.CheckIterationBoundary(iteration)) {
      termination = *interrupt;
      break;
    }
    // probability is rewritten in place by the first sweep and
    // difficulty is replaced mid-iteration, so both are snapshotted
    // for the mid-sweep rollback path.
    if (stop != nullptr) {
      probability_snapshot = probability;
      difficulty_snapshot = difficulty;
    }
    // Corrob step with difficulty-discounted correctness. Each fact
    // reads only the previous trust and its own difficulty.
    bool complete = matrix.ForEachFact(
        pool.get(),
        [&](FactId f) {
          auto voters = dataset.VotesOnFact(f);
          if (voters.empty()) {
            probability[static_cast<size_t>(f)] = 0.5;
            return;
          }
          const double eps = difficulty[static_cast<size_t>(f)];
          double sum = 0.0;
          for (const SourceVote& sv : voters) {
            const double correct =
                1.0 - eps * (1.0 - trust[static_cast<size_t>(sv.source)]);
            sum += sv.vote == Vote::kTrue ? correct : 1.0 - correct;
          }
          probability[static_cast<size_t>(f)] =
              sum / static_cast<double>(voters.size());
        },
        stop);

    std::vector<double> next_difficulty;
    if (complete) {
      NormalizeEstimates(options_.normalization, &probability);
      // Difficulty update: how much disagreement the decisions leave,
      // attributed to the voters' residual untrustworthiness.
      next_difficulty.assign(facts, options_.initial_difficulty);
      complete = matrix.ForEachFact(
          pool.get(),
          [&](FactId f) {
            auto voters = dataset.VotesOnFact(f);
            if (voters.empty()) return;
            const bool decision = probability[static_cast<size_t>(f)] >= 0.5;
            double wrong = 0.0;
            double capacity = 0.0;
            for (const SourceVote& sv : voters) {
              if ((sv.vote == Vote::kTrue) != decision) wrong += 1.0;
              capacity += 1.0 - trust[static_cast<size_t>(sv.source)];
            }
            next_difficulty[static_cast<size_t>(f)] =
                Clamp((wrong + delta_smooth / 2.0) / (capacity + delta_smooth),
                      0.0, 1.0);
          },
          stop);
    }

    std::vector<double> next_trust;
    if (complete) {
      difficulty = std::move(next_difficulty);
      // Trust update: wrong votes discounted by fact difficulty.
      next_trust.assign(sources, options_.initial_trust);
      complete = matrix.ForEachSource(
          pool.get(),
          [&](SourceId s) {
            auto voted = dataset.VotesBySource(s);
            if (voted.empty()) return;
            double wrong = 0.0;
            double capacity = 0.0;
            for (const FactVote& fv : voted) {
              const bool decision =
                  probability[static_cast<size_t>(fv.fact)] >= 0.5;
              if ((fv.vote == Vote::kTrue) != decision) wrong += 1.0;
              capacity += difficulty[static_cast<size_t>(fv.fact)];
            }
            next_trust[static_cast<size_t>(s)] =
                Clamp(1.0 - (wrong + delta_smooth / 2.0) /
                                (capacity + delta_smooth),
                      0.0, 1.0);
          },
          stop);
    }

    if (!complete) {
      // A sweep was cut short mid-iteration: restore the state of the
      // last completed iteration before handing it out.
      probability = std::move(probability_snapshot);
      difficulty = std::move(difficulty_snapshot);
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
