#include "core/pasternack.h"

#include <algorithm>
#include <cmath>

#include "common/math_util.h"
#include "core/fixpoint.h"

namespace corrob {

namespace {

/// Max-normalizes a vector in place; no-op for all-zero input.
void MaxNormalize(std::vector<double>* values) {
  double max_value = 0.0;
  for (double v : *values) max_value = std::max(max_value, v);
  if (max_value <= 0.0) return;
  for (double& v : *values) v /= max_value;
}

}  // namespace

Result<CorroborationResult> PasternackCorroborator::Run(
    const Dataset& dataset, const RunContext& context) const {
  if (options_.growth <= 0.0) {
    return Status::InvalidArgument("growth must be positive");
  }
  // The driver settings Pasternack & Roth fix rather than expose:
  // every source starts fully trusted, and the run is sequential and
  // records no telemetry.
  const struct {
    double initial_trust = 1.0;
    int max_iterations;
    int num_threads = 1;
    double tolerance;
    bool collect_telemetry = false;
  } settings{.max_iterations = options_.max_iterations,
             .tolerance = options_.tolerance};

  const size_t facts = static_cast<size_t>(dataset.num_facts());
  const bool invest = options_.variant != PasternackVariant::kAvgLog;
  // Claims are indexed 2f (f-true) and 2f+1 (f-false).
  auto claim_index = [](const FactVote& fv) {
    return 2 * static_cast<size_t>(fv.fact) + (fv.vote == Vote::kTrue ? 0 : 1);
  };
  std::vector<double> belief(2 * facts, 0.0);
  std::vector<double> next_belief = belief;
  // Invest: what each source puts on each of its claims, and each
  // claim's total stake before growth, which the trust update pays
  // the claim's belief back against.
  std::vector<double> invested(
      invest ? static_cast<size_t>(dataset.num_sources()) : 0);
  std::vector<double> stake(invest ? 2 * facts : 0);
  auto step = [&](const FixpointSweeps& sweep, const std::vector<double>& trust,
                  std::vector<double>& next_trust) {
    // Belief update. AvgLog: B(c) = Σ_{s asserts c} T(s). Invest: each
    // source spreads its trust evenly over its claims, then G(x) = x^g
    // grows each claim (Invest) or the claim's share of its
    // mutual-exclusion pool (PooledInvest). The per-fact sweep adds
    // each claim's terms in ascending source order (VotesOnFact's
    // order), which the pinned answers depend on.
    for (size_t s = 0; s < invested.size(); ++s) {
      const auto votes = dataset.VotesBySource(static_cast<SourceId>(s));
      invested[s] =
          votes.empty() ? 0.0 : trust[s] / static_cast<double>(votes.size());
    }
    const std::vector<double>& weight = invest ? invested : trust;
    std::vector<double>& sums = invest ? stake : next_belief;
    if (!sweep.Facts([&](FactId f) {
          double sum_true = 0.0;
          double sum_false = 0.0;
          for (const SourceVote& sv : dataset.VotesOnFact(f)) {
            const double w = weight[static_cast<size_t>(sv.source)];
            if (sv.vote == Vote::kTrue) {
              sum_true += w;
            } else {
              sum_false += w;
            }
          }
          sums[2 * static_cast<size_t>(f)] = sum_true;
          sums[2 * static_cast<size_t>(f) + 1] = sum_false;
        })) {
      return false;
    }
    if (options_.variant == PasternackVariant::kInvest) {
      for (size_t c = 0; c < stake.size(); ++c) {
        next_belief[c] = std::pow(stake[c], options_.growth);
      }
    } else if (options_.variant == PasternackVariant::kPooledInvest) {
      for (size_t c = 0; c < stake.size(); c += 2) {
        const double pool = stake[c] + stake[c + 1];
        if (pool <= 0.0) {
          next_belief[c] = stake[c];
          next_belief[c + 1] = stake[c + 1];
          continue;
        }
        const double grown_true = std::pow(stake[c] / pool, options_.growth);
        const double grown_false =
            std::pow(stake[c + 1] / pool, options_.growth);
        const double grown_pool = grown_true + grown_false;
        next_belief[c] = pool * grown_true / grown_pool;
        next_belief[c + 1] = pool * grown_false / grown_pool;
      }
    }
    MaxNormalize(&next_belief);

    // Trust update, partitioned by source; a source without votes
    // gets 0.
    if (!sweep.Sources([&](SourceId s) {
          auto votes = dataset.VotesBySource(s);
          double& out = next_trust[static_cast<size_t>(s)];
          if (votes.empty()) {
            out = 0.0;
            return;
          }
          const double n = static_cast<double>(votes.size());
          double sum = 0.0;
          if (!invest) {
            // AvgLog: log(1+|C_s|) times the mean belief of s's claims.
            for (const FactVote& fv : votes) {
              sum += next_belief[claim_index(fv)];
            }
            out = std::log1p(n) * sum / n;
            return;
          }
          // Invest: each claim's belief paid back in proportion to the
          // share of its stake that s invested.
          for (const FactVote& fv : votes) {
            const size_t c = claim_index(fv);
            if (stake[c] > 0.0) {
              sum += next_belief[c] * invested[static_cast<size_t>(s)] /
                     stake[c];
            }
          }
          out = sum;
        })) {
      return false;
    }
    MaxNormalize(&next_trust);
    return true;
  };
  CORROB_ASSIGN_OR_RETURN(
      CorroborationResult result,
      RunTrustFixpoint("Pasternack::Run", name(), settings, dataset, context,
                       {{&belief, &next_belief}}, step));
  result.fact_probability.resize(facts, 0.5);
  for (size_t f = 0; f < facts; ++f) {
    double pool = belief[2 * f] + belief[2 * f + 1];
    if (dataset.VotesOnFact(static_cast<FactId>(f)).empty()) {
      result.fact_probability[f] = 0.5;
    } else if (pool <= 0.0) {
      // Voted on, but every asserting source has zero trust.
      result.fact_probability[f] = 0.0;
    } else {
      result.fact_probability[f] = belief[2 * f] / pool;
    }
  }
  return result;
}

}  // namespace corrob
