#include "core/three_estimate.h"

#include <vector>

#include "common/math_util.h"
#include "core/fixpoint.h"

namespace corrob {

Result<CorroborationResult> ThreeEstimateCorroborator::Run(
    const Dataset& dataset, const RunContext& context) const {
  if (options_.initial_trust < 0.0 || options_.initial_trust > 1.0) {
    return Status::InvalidArgument("initial_trust must be in [0,1]");
  }
  if (options_.initial_difficulty < 0.0 || options_.initial_difficulty > 1.0) {
    return Status::InvalidArgument("initial_difficulty must be in [0,1]");
  }
  const size_t facts = static_cast<size_t>(dataset.num_facts());
  std::vector<double> difficulty(facts, options_.initial_difficulty);
  std::vector<double> next_difficulty = difficulty;
  std::vector<double> probability(facts, 0.5);
  std::vector<double> next_probability = probability;
  const double delta_smooth = options_.smoothing;
  auto step = [&](const FixpointSweeps& sweep, const std::vector<double>& trust,
                  std::vector<double>& next_trust) {
    // Corrob step with difficulty-discounted correctness. Each fact
    // reads only the previous trust and its own difficulty.
    if (!sweep.Facts([&](FactId f) {
          auto voters = dataset.VotesOnFact(f);
          if (voters.empty()) {
            next_probability[static_cast<size_t>(f)] = 0.5;
            return;
          }
          const double eps = difficulty[static_cast<size_t>(f)];
          double sum = 0.0;
          for (const SourceVote& sv : voters) {
            const double correct =
                1.0 - eps * (1.0 - trust[static_cast<size_t>(sv.source)]);
            sum += sv.vote == Vote::kTrue ? correct : 1.0 - correct;
          }
          next_probability[static_cast<size_t>(f)] =
              sum / static_cast<double>(voters.size());
        })) {
      return false;
    }
    NormalizeEstimates(options_.normalization, &next_probability);
    // Difficulty update: how much disagreement the decisions leave,
    // attributed to the voters' residual untrustworthiness. A voteless
    // fact keeps initial_difficulty in both buffers.
    if (!sweep.Facts([&](FactId f) {
          auto voters = dataset.VotesOnFact(f);
          if (voters.empty()) return;
          const bool decision =
              next_probability[static_cast<size_t>(f)] >= 0.5;
          double wrong = 0.0;
          double capacity = 0.0;
          for (const SourceVote& sv : voters) {
            if ((sv.vote == Vote::kTrue) != decision) wrong += 1.0;
            capacity += 1.0 - trust[static_cast<size_t>(sv.source)];
          }
          next_difficulty[static_cast<size_t>(f)] =
              Clamp((wrong + delta_smooth / 2.0) / (capacity + delta_smooth),
                    0.0, 1.0);
        })) {
      return false;
    }
    // Trust update: wrong votes discounted by fact difficulty.
    return sweep.Sources([&](SourceId s) {
      auto voted = dataset.VotesBySource(s);
      if (voted.empty()) return;
      double wrong = 0.0;
      double capacity = 0.0;
      for (const FactVote& fv : voted) {
        const bool decision =
            next_probability[static_cast<size_t>(fv.fact)] >= 0.5;
        if ((fv.vote == Vote::kTrue) != decision) wrong += 1.0;
        capacity += next_difficulty[static_cast<size_t>(fv.fact)];
      }
      next_trust[static_cast<size_t>(s)] = Clamp(
          1.0 - (wrong + delta_smooth / 2.0) / (capacity + delta_smooth), 0.0,
          1.0);
    });
  };
  CORROB_ASSIGN_OR_RETURN(
      CorroborationResult result,
      RunTrustFixpoint("ThreeEstimate::Run", name(), options_, dataset,
                       context,
                       {{&probability, &next_probability},
                        {&difficulty, &next_difficulty}},
                       step));
  result.fact_probability = std::move(probability);
  return result;
}

}  // namespace corrob
