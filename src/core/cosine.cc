#include "core/cosine.h"

#include <cmath>
#include <vector>

#include "common/math_util.h"
#include "core/fixpoint.h"

namespace corrob {

Result<CorroborationResult> CosineCorroborator::Run(
    const Dataset& dataset, const RunContext& context) const {
  if (options_.damping < 0.0 || options_.damping >= 1.0) {
    return Status::InvalidArgument("damping must be in [0,1)");
  }
  if (options_.trust_power <= 0.0) {
    return Status::InvalidArgument("trust_power must be positive");
  }
  const size_t facts = static_cast<size_t>(dataset.num_facts());
  std::vector<double> value(facts, 0.0);  // V(f) in [-1, 1].
  std::vector<double> next_value = value;
  auto vote_sign = [](Vote vote) { return vote == Vote::kTrue ? 1.0 : -1.0; };
  auto step = [&](const FixpointSweeps& sweep, const std::vector<double>& trust,
                  std::vector<double>& next_trust) {
    // Truth update, weighted by T(s)^p (negative trust flips votes),
    // partitioned by fact.
    if (!sweep.Facts([&](FactId f) {
          auto voters = dataset.VotesOnFact(f);
          if (voters.empty()) {
            next_value[static_cast<size_t>(f)] = 0.0;
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
          next_value[static_cast<size_t>(f)] =
              denominator > 0.0 ? Clamp(numerator / denominator, -1.0, 1.0)
                                : 0.0;
        })) {
      return false;
    }
    // Trust update: damped cosine similarity between the source's
    // vote vector and the current estimates, partitioned by source.
    return sweep.Sources([&](SourceId s) {
      auto voted = dataset.VotesBySource(s);
      if (voted.empty()) return;
      double dot = 0.0;
      double value_norm_sq = 0.0;
      for (const FactVote& fv : voted) {
        const double v = next_value[static_cast<size_t>(fv.fact)];
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
    });
  };
  CORROB_ASSIGN_OR_RETURN(
      CorroborationResult result,
      RunTrustFixpoint("Cosine::Run", name(), options_, dataset, context,
                       {{&value, &next_value}}, step));
  result.fact_probability.resize(facts);
  for (size_t f = 0; f < facts; ++f) {
    result.fact_probability[f] = (value[f] + 1.0) / 2.0;
  }
  // Report trust mapped into [0, 1] for comparability with the other
  // methods (a perfectly anti-correlated source reads 0).
  for (double& trust : result.source_trust) {
    trust = (Clamp(trust, -1.0, 1.0) + 1.0) / 2.0;
  }
  return result;
}

}  // namespace corrob
