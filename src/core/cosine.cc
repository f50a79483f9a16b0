#include "core/cosine.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "core/telemetry_util.h"
#include "core/vote_matrix.h"
#include "obs/trace.h"

namespace corrob {

Result<CorroborationResult> CosineCorroborator::Run(
    const Dataset& dataset, const RunContext& context) const {
  if (options_.damping < 0.0 || options_.damping >= 1.0) {
    return Status::InvalidArgument("damping must be in [0,1)");
  }
  if (options_.trust_power <= 0.0) {
    return Status::InvalidArgument("trust_power must be positive");
  }
  if (options_.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (options_.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  CORROB_RETURN_NOT_OK(ValidateResourceBudget(context.budget()));

  CORROB_TRACE_SPAN("Cosine::Run");
  const VoteMatrix matrix(dataset);
  std::unique_ptr<ThreadPool> pool = MakeSweepPool(options_.num_threads);
  const size_t facts = static_cast<size_t>(matrix.num_facts());
  const size_t sources = static_cast<size_t>(matrix.num_sources());
  std::vector<double> trust(sources, options_.initial_trust);
  std::vector<double> value(facts, 0.0);  // V(f) in [-1, 1].
  auto telemetry =
      MaybeStartTelemetry(options_.collect_telemetry, name(), dataset);

  auto vote_sign = [](Vote vote) { return vote == Vote::kTrue ? 1.0 : -1.0; };
  // `value` is rewritten in place by the truth sweep; snapshot it so a
  // mid-sweep interruption hands back the last completed iteration.
  const StopSignal* stop = context.sweep_stop();
  std::vector<double> value_snapshot;

  Termination termination = Termination::kIterationCap;
  int iteration = 0;
  const auto over_budget = context.CheckMatrixBytes(matrix.ResidentBytes());
  if (over_budget) termination = *over_budget;
  for (; !over_budget && iteration < options_.max_iterations; ++iteration) {
    if (auto interrupt = context.CheckIterationBoundary(iteration)) {
      termination = *interrupt;
      break;
    }
    if (stop != nullptr) value_snapshot = value;
    // Truth update, weighted by T(s)^p (negative trust flips votes),
    // partitioned by fact.
    bool complete = matrix.ForEachFact(
        pool.get(),
        [&](FactId f) {
      auto voters = dataset.VotesOnFact(f);
      if (voters.empty()) {
        value[static_cast<size_t>(f)] = 0.0;
        return;
      }
      double numerator = 0.0;
      double denominator = 0.0;
      for (const SourceVote& sv : voters) {
        const double t = trust[static_cast<size_t>(sv.source)];
        const double w = std::copysign(
            std::pow(std::fabs(t), options_.trust_power), t);
        numerator += vote_sign(sv.vote) * w;
        denominator += std::fabs(w);
      }
      value[static_cast<size_t>(f)] =
          denominator > 0.0 ? Clamp(numerator / denominator, -1.0, 1.0)
                            : 0.0;
        },
        stop);

    // Trust update: damped cosine similarity between the source's
    // vote vector and the current estimates, partitioned by source.
    std::vector<double> next_trust;
    if (complete) {
      next_trust = trust;
      complete = matrix.ForEachSource(
          pool.get(),
          [&](SourceId s) {
      auto voted = dataset.VotesBySource(s);
      if (voted.empty()) return;
      double dot = 0.0;
      double value_norm_sq = 0.0;
      for (const FactVote& fv : voted) {
        const double v = value[static_cast<size_t>(fv.fact)];
        dot += vote_sign(fv.vote) * v;
        value_norm_sq += v * v;
      }
      const double vote_norm = std::sqrt(static_cast<double>(voted.size()));
      const double value_norm = std::sqrt(value_norm_sq);
      const double cosine = (vote_norm > 0.0 && value_norm > 0.0)
                                ? dot / (vote_norm * value_norm)
                                : 0.0;
      next_trust[static_cast<size_t>(s)] =
          options_.damping * trust[static_cast<size_t>(s)] +
          (1.0 - options_.damping) * cosine;
          },
          stop);
    }
    if (!complete) {
      // A sweep was cut short mid-iteration: restore the values of
      // the last completed iteration; trust was not yet replaced.
      value = std::move(value_snapshot);
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
  result.fact_probability.resize(facts);
  for (size_t f = 0; f < facts; ++f) {
    result.fact_probability[f] = (value[f] + 1.0) / 2.0;
  }
  // Report trust mapped into [0, 1] for comparability with the other
  // methods (a perfectly anti-correlated source reads 0).
  result.source_trust.resize(sources);
  for (size_t s = 0; s < sources; ++s) {
    result.source_trust[s] = (Clamp(trust[s], -1.0, 1.0) + 1.0) / 2.0;
  }
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
