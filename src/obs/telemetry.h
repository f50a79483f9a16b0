#ifndef CORROB_OBS_TELEMETRY_H_
#define CORROB_OBS_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"

// Convergence telemetry: the structured story of one corroboration
// run. Fixpoint methods (TwoEstimate, ThreeEstimate, TruthFinder,
// Cosine) and the Gibbs sampler (BayesEstimate) record one
// IterationStats per iteration/sweep; IncEstimate additionally
// records one IncRoundEvent per selection round — which groups were
// chosen, how large each side was, the projected ΔH, and how many
// facts committed (the paper's n = min(|FG+|, |FG-|) balanced-commit
// invariant is checkable from the record). Everything here is derived
// purely from the deterministic run state — no clocks, no thread ids
// — so telemetry from two identical seeded runs is byte-identical.

namespace corrob {
namespace obs {

/// Convergence statistics of one iteration (fixpoint sweep, Gibbs
/// sweep, or incremental round).
struct IterationStats {
  int32_t iteration = 0;
  /// L∞ change of the source-trust vector this iteration (0 for
  /// methods without a notion of per-iteration delta).
  double max_delta = 0.0;
  /// Distribution of the trust vector after the iteration.
  double trust_min = 0.0;
  double trust_mean = 0.0;
  double trust_max = 0.0;
  /// Facts evaluated this iteration (incremental methods; 0 else).
  int64_t facts_committed = 0;
};

/// One IncEstimate selection round.
struct IncRoundEvent {
  int32_t round = 0;
  /// "balanced" | "greedy" | "one_sided_positive" |
  /// "one_sided_negative" | "final_ties" | "supervised" |
  /// "interrupted".
  std::string kind;
  /// Selected group ids (-1 when the side selected nothing).
  int32_t positive_group = -1;
  int32_t negative_group = -1;
  /// Vote signatures of the selected groups, e.g. "s1=T,s3=F".
  std::string positive_signature;
  std::string negative_signature;
  /// Remaining facts of the selected groups at selection time —
  /// |FG+| and |FG-| of the paper's balanced commit.
  int64_t fg_positive = 0;
  int64_t fg_negative = 0;
  /// How many groups each part held this round.
  int64_t part_positive = 0;
  int64_t part_negative = 0;
  /// Projected probability σ(FG) of each selected group.
  double prob_positive = 0.0;
  double prob_negative = 0.0;
  /// ΔH(F̄) of each selected group (0 when the strategy did not score
  /// entropy, e.g. greedy IncEstPS rounds).
  double delta_h_positive = 0.0;
  double delta_h_negative = 0.0;
  /// Facts committed per side for balanced rounds — the paper's
  /// n = min(|FG+|, |FG-|). For one-sided/greedy/final rounds this is
  /// the full commit count.
  int64_t committed_n = 0;
  /// Total facts evaluated this round (2n for balanced rounds).
  int64_t facts_committed = 0;
  /// Post-round trust distribution.
  double trust_min = 0.0;
  double trust_mean = 0.0;
  double trust_max = 0.0;
};

/// The full telemetry of one run, attached to CorroborationResult
/// when the corroborator ran with collect_telemetry.
struct RunTelemetry {
  std::string algorithm;
  int64_t num_facts = 0;
  int64_t num_sources = 0;
  int32_t iterations = 0;
  /// Fixpoint methods: stopped on tolerance before the iteration cap.
  bool converged = false;
  std::vector<IterationStats> iteration_stats;
  std::vector<IncRoundEvent> rounds;
};

/// Serialization (schema documented in docs/OBSERVABILITY.md and
/// enforced by tools/obs/validate_trace.py).
JsonValue TelemetryToJson(const RunTelemetry& telemetry);
std::string TelemetryToJsonString(const RunTelemetry& telemetry);

/// Parses telemetry JSON (as produced by TelemetryToJson). On failure
/// returns false and describes the problem in `*error` if non-null.
bool TelemetryFromJson(const JsonValue& json, RunTelemetry* out,
                       std::string* error = nullptr);
bool TelemetryFromJsonString(std::string_view text, RunTelemetry* out,
                             std::string* error = nullptr);

/// Computes min/mean/max of `values` into the three outputs (all 0
/// for an empty vector). Shared by every telemetry recorder.
void TrustDistribution(const std::vector<double>& values, double* min_out,
                       double* mean_out, double* max_out);

}  // namespace obs
}  // namespace corrob

#endif  // CORROB_OBS_TELEMETRY_H_
