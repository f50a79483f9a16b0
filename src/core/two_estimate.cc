#include "core/two_estimate.h"

#include <algorithm>
#include <vector>

#include "common/math_util.h"
#include "core/fixpoint.h"

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
  std::vector<double> probability(static_cast<size_t>(dataset.num_facts()),
                                  0.5);
  std::vector<double> next_probability = probability;
  auto step = [&](const FixpointSweeps& sweep, const std::vector<double>& trust,
                  std::vector<double>& next_trust) {
    // Corrob step (paper Eq. 6): each fact's score depends only on the
    // previous iteration's trust, so the sweep partitions by fact.
    if (!sweep.Facts([&](FactId f) {
          next_probability[static_cast<size_t>(f)] =
              CorrobScore(dataset.VotesOnFact(f), trust);
        })) {
      return false;
    }
    NormalizeEstimates(options_.normalization, &next_probability);
    // Update step (paper Eq. 7), partitioned by source.
    return sweep.Sources([&](SourceId s) {
      auto voted = dataset.VotesBySource(s);
      if (voted.empty()) return;
      double sum = 0.0;
      for (const FactVote& fv : voted) {
        const double p = next_probability[static_cast<size_t>(fv.fact)];
        sum += fv.vote == Vote::kTrue ? p : 1.0 - p;
      }
      next_trust[static_cast<size_t>(s)] =
          sum / static_cast<double>(voted.size());
    });
  };
  CORROB_ASSIGN_OR_RETURN(
      CorroborationResult result,
      RunTrustFixpoint("TwoEstimate::Run", name(), options_, dataset, context,
                       {{&probability, &next_probability}}, step));
  result.fact_probability = std::move(probability);
  return result;
}

}  // namespace corrob
