#include "core/truth_finder.h"

#include <cmath>
#include <vector>

#include "common/math_util.h"
#include "core/fixpoint.h"

namespace corrob {

Result<CorroborationResult> TruthFinderCorroborator::Run(
    const Dataset& dataset, const RunContext& context) const {
  if (options_.initial_trust <= 0.0 || options_.initial_trust >= 1.0) {
    return Status::InvalidArgument("initial_trust must be in (0,1)");
  }
  if (options_.dampening <= 0.0) {
    return Status::InvalidArgument("dampening must be positive");
  }
  std::vector<double> probability(static_cast<size_t>(dataset.num_facts()),
                                  0.5);
  std::vector<double> next_probability = probability;
  auto step = [&](const FixpointSweeps& sweep, const std::vector<double>& trust,
                  std::vector<double>& next_trust) {
    // Claim scores and fact confidence, partitioned by fact.
    if (!sweep.Facts([&](FactId f) {
          auto voters = dataset.VotesOnFact(f);
          if (voters.empty()) {
            next_probability[static_cast<size_t>(f)] = 0.5;
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
          next_probability[static_cast<size_t>(f)] = Sigmoid(
              options_.dampening * (adjusted_true - adjusted_false));
        })) {
      return false;
    }
    // Trust update. Each source reads only `next_probability` and
    // writes its own slot, so the parallel sweep stays reduction-free.
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
      RunTrustFixpoint("TruthFinder::Run", name(), options_, dataset, context,
                       {{&probability, &next_probability}}, step));
  result.fact_probability = std::move(probability);
  return result;
}

}  // namespace corrob
