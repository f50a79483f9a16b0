#ifndef CORROB_CORE_INC_ESTIMATE_H_
#define CORROB_CORE_INC_ESTIMATE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/corroborator.h"
#include "core/fact_group.h"

namespace corrob {

/// Fact-selection strategies for IncEstimate (paper §5.1 / §6.1.1).
enum class IncSelectStrategy {
  /// IncEstHeu: entropy-driven, balanced positive/negative selection.
  kHeuristic,
  /// IncEstPS: greedily commits the group with the highest projected
  /// probability each round.
  kProbability,
};

struct IncEstimateOptions {
  /// Default trust σ0(s); the paper uses 0.9 and observes any value
  /// above 0.5 yields identical results (§6.1.1).
  double initial_trust = 0.9;
  /// Strength of the prior behind the Eq. 8 trust update, in
  /// pseudo-observations at `initial_trust`:
  ///   σ_i(s) = (correct(s) + w·σ0) / (evaluated(s) + w).
  /// With w = 0 the update is exactly the paper's sample average —
  /// which lets a source crash to 0 (or rise to 1) from a single
  /// evaluated fact; that is what the §2.3 walkthrough shows on 12
  /// facts, but at corpus scale one early mis-commit then drags every
  /// co-voting source across the 0.5 line and snowballs (see
  /// DESIGN.md). The default damps the first few observations and
  /// converges to the paper's average as evidence accumulates.
  double trust_prior_weight = 8.0;
  /// Deferral band for IncEstHeu's *positive* part: a group joins it
  /// only with σ(FG) > 0.5 + tie_margin. The paper's partition is
  /// strict ("above 0.5" / "below 0.5"), which defers exact ties;
  /// the band widens that on the positive side only. Rationale: a
  /// weak positive commit overrides deliberate F votes on coin-flip
  /// evidence and corrupts the F-casters' trust, while a weak
  /// *negative* commit (the paper's own walkthrough commits r5 at
  /// σ=0.45) is the mechanism that exposes unreliable sources — so
  /// the negative part keeps the strict σ(FG) < 0.5 rule. Groups
  /// between the bounds stay unevaluated until trust moves them;
  /// whatever remains at the end commits at the Eq. 2 threshold.
  double tie_margin = 0.05;
  /// Confidence-first processing: within each part, only groups whose
  /// projected probability lies within this band of the part's
  /// extreme (max σ(FG) for the positive part, min for the negative)
  /// are ΔH candidates. This reproduces the paper's walkthrough —
  /// round 1 picks r9 (σ=0.9, the positive extreme) and r12 (σ=0.37,
  /// the negative extreme) with ΔH deciding among equals — and
  /// prevents the ΔH objective from preferring low-confidence mixed
  /// groups, whose commit direction is unreliable and whose
  /// "entropy-raising" effect is source-trust corruption (see
  /// DESIGN.md). Set to 1.0 to rank every group in the part by ΔH
  /// alone (the literal Algorithm 2).
  double extreme_band = 0.05;
  /// Ablation knob: when true, positive groups containing a source
  /// whose current trust is below 0.5 are withheld from the positive
  /// part (a positive commit would count the suspect's vote as
  /// correct and rehabilitate it instantly). The paper's Figure 2(b)
  /// trajectories show trust *recovering* mid-run, i.e. no such
  /// quarantine; measurements agree that leaving rehabilitation on
  /// evaluates better (bench_ablation), so the default is off.
  bool quarantine_suspect_groups = false;
  IncSelectStrategy strategy = IncSelectStrategy::kHeuristic;
  /// IncEstHeu evaluates the exact ΔH score for at most this many
  /// candidate groups per part (ranked by remaining size, ties by
  /// group index). 0 means exact evaluation of every active group —
  /// quadratic in group count, matching the paper's description; the
  /// default keeps large synthetic sweeps tractable. Experiments with
  /// fewer groups than the cap are always exact.
  int max_candidate_groups = 64;
  /// When true, CorroborationResult::trajectory records σ_i(S) per
  /// time point (Figure 2).
  bool record_trajectory = false;
  /// Supervision: facts whose labels are already known (e.g. a
  /// hand-checked golden subset). They are committed at time point
  /// t0 with σ(f) = 0/1 before any selection round, so the very
  /// first trust estimates are grounded in verified evidence instead
  /// of the default prior — the paper's golden set used as seed
  /// knowledge rather than only for evaluation. Duplicate or
  /// out-of-range fact ids fail the run.
  std::vector<std::pair<FactId, bool>> known_labels;
  /// Worker threads for the per-round group-projection scan and the
  /// ΔH candidate evaluation; 1 = sequential legacy path. Results
  /// are bit-identical at any value (the parallel scans write
  /// disjoint slots and the argmax folds in fixed group order).
  int num_threads = 1;
  /// Record a per-round IncRoundEvent stream (selected groups, their
  /// signatures, |FG+|/|FG-|, projected ΔH, committed n, post-round
  /// trust distribution) into CorroborationResult::telemetry
  /// (docs/OBSERVABILITY.md). Purely additive: selection is unchanged.
  bool collect_telemetry = false;
};

/// Per-thread scratch for IncrementalEngine::EntropyDelta: the
/// projected-trust vector and the visitation stamps that keep the
/// shared-source walk from double-counting a group. One scratch per
/// concurrent caller makes the scan thread-safe without locks.
struct EntropyScratch {
  std::vector<double> projected;
  std::vector<int64_t> visit_stamp;
  int64_t stamp = 0;
};

/// One round's projection of every group under the current trust:
/// σ(FG) (paper Eq. 5 generalized to F votes) and its binary entropy,
/// the "before" side of every ΔH evaluated in the round.
struct GroupProjection {
  std::vector<double> probability;
  std::vector<double> entropy;
};

/// The mutable state of one incremental corroboration run, exposed so
/// that callers can script their own selection policies (the paper's
/// Section 2.3 walkthrough is reproduced in tests this way). The
/// IncEstimate strategies are thin drivers over this engine.
///
/// The fact groups come from a FactGroupIndex, which the engine only
/// reads; the run's own state is the per-group commit cursors and a
/// copy of the index's flat member array, which supervised commits
/// reorder.
///
/// Lifecycle: construct over a dataset, repeatedly commit facts via
/// CommitGroup/CommitAllRemaining, then call Finish().
class IncrementalEngine {
 public:
  /// Borrows `index`, which must be built from `dataset` and outlive
  /// the engine; a null `index` makes the engine build its own.
  IncrementalEngine(const Dataset& dataset, const FactGroupIndex* index,
                    const IncEstimateOptions& options);
  IncrementalEngine(const Dataset& dataset, const IncEstimateOptions& options)
      : IncrementalEngine(dataset, nullptr, options) {}

  /// Groups (shared signatures) of the dataset; indices are stable.
  const FactGroupIndex& index() const { return *index_; }
  /// Facts of group `g` not yet committed.
  size_t remaining(int32_t g) const {
    return index_->size(g) - committed_[static_cast<size_t>(g)];
  }

  /// Current multi-value trust σ_i(s): the fraction of s's votes on
  /// committed facts that agreed with the committed decision, or the
  /// initial default while s has no evaluated votes (paper Eq. 8).
  const std::vector<double>& trust() const { return trust_; }

  /// Projected probability of group `g` under the current trust
  /// (paper Eq. 5 generalized to F votes).
  double GroupProbability(int32_t g) const;

  /// True once at least one of s's votes has been evaluated — i.e.
  /// σ_i(s) is evidence-based rather than the initial default.
  bool SourceEvaluated(SourceId s) const {
    return total_[static_cast<size_t>(s)] > 0.0;
  }

  /// ΔH(F̄) score of committing all remaining facts of group `g`: the
  /// total entropy change over the other active groups (paper Eq. 9).
  /// Projects every group under the current trust first, then runs
  /// the same code as the overload below; single-threaded callers
  /// only.
  double EntropyDelta(int32_t g) const;

  /// Re-entrant variant for parallel ΔH scans: `projection` is this
  /// round's ProjectGroups output (the trust it was taken under must
  /// still be current) and all mutable state lives in `scratch`, so
  /// distinct scratches may evaluate distinct groups concurrently.
  double EntropyDelta(int32_t g, const GroupProjection& projection,
                      EntropyScratch* scratch) const;

  /// σ(FG) of every group (committed ones included) under the current
  /// trust, and H(σ(FG)) too when `with_entropy` (only ΔH reads it) —
  /// the per-round projection scan, partitioned by group across `pool`
  /// (inline when null). When a `stop` signal fires mid-scan, returns
  /// false and `projection` holds partial garbage the caller must
  /// discard; returns true when every slot was written.
  [[nodiscard]] bool ProjectGroups(ThreadPool* pool,
                                   GroupProjection* projection,
                                   bool with_entropy,
                                   const StopSignal* stop = nullptr) const;

  /// Commits up to `n` remaining facts of group `g` with the group's
  /// current probability; returns how many facts were committed.
  /// Trust is NOT recomputed until EndRound() so that facts selected
  /// within one time point are all evaluated with σ_i(S).
  int64_t CommitGroup(int32_t g, int64_t n);

  /// Commits one specific fact with an externally known label
  /// (supervision). The fact must be uncommitted; its probability is
  /// recorded as exactly 0 or 1 and its votes update the counters
  /// against the given label. Fails on out-of-range or already
  /// committed facts.
  [[nodiscard]] Status CommitKnownFact(FactId fact, bool label);

  /// Commits every remaining fact of every group (used when only
  /// maximum-entropy ties remain, and by callers that want the §5.1
  /// wholesale commit).
  int64_t CommitAllRemaining();

  /// Recomputes trust from the accumulated counters and records a
  /// trajectory point. Call once per time point after the commits.
  void EndRound(int64_t facts_committed);

  int64_t remaining_facts() const { return remaining_facts_; }
  int rounds() const { return rounds_; }

  /// Finalizes: packages probabilities, trust and trajectory.
  /// The engine must have no remaining facts.
  CorroborationResult Finish(std::string algorithm_name) &&;

 private:
  IncEstimateOptions options_;
  std::unique_ptr<const FactGroupIndex> owned_index_;
  const FactGroupIndex* index_;
  // Per-run copy of index_->member_facts(): group g's committed
  // members lead its slice.
  std::vector<FactId> members_;
  std::vector<size_t> committed_;  // per group
  std::vector<double> trust_;
  std::vector<double> correct_;  // per source
  std::vector<double> total_;    // per source
  std::vector<double> fact_probability_;
  std::vector<int32_t> fact_round_;
  int64_t remaining_facts_ = 0;
  int rounds_ = 0;
  std::vector<TrajectoryPoint> trajectory_;
  // Scratch for the single-threaded EntropyDelta overload.
  mutable EntropyScratch scratch_;
  mutable GroupProjection projection_;
};

/// IncEstimate (paper Algorithm 1) with a pluggable selection
/// strategy: IncEstHeu (Algorithm 2) or IncEstPS.
class IncEstimateCorroborator final : public Corroborator {
 public:
  explicit IncEstimateCorroborator(IncEstimateOptions options = {})
      : options_(options) {}

  std::string_view name() const override {
    return options_.strategy == IncSelectStrategy::kHeuristic ? "IncEstHeu"
                                                              : "IncEstPS";
  }
  using Corroborator::Run;
  [[nodiscard]] Result<CorroborationResult> Run(
      const Dataset& dataset, const RunContext& context) const override;

  const IncEstimateOptions& options() const { return options_; }

 private:
  /// Returns the part's group with the highest ΔH among the
  /// extreme-band candidates (see IncEstimateOptions::extreme_band).
  /// `projection` holds this round's σ(FG) and H(σ(FG)) of every
  /// group; the ΔH candidates are evaluated across `pool` (inline when
  /// null) with per-chunk scratch and the argmax folds in fixed
  /// candidate order.
  /// When `best_delta_out` is non-null it receives the winner's ΔH
  /// (telemetry readout; does not affect the pick). When `stop` fires
  /// mid-scan the partial deltas are discarded and -1 is returned;
  /// the caller must abandon the round.
  int32_t PickBestGroup(const IncrementalEngine& engine,
                        const std::vector<int32_t>& part, bool is_positive,
                        const GroupProjection& projection,
                        ThreadPool* pool, const StopSignal* stop = nullptr,
                        double* best_delta_out = nullptr) const;

  IncEstimateOptions options_;
};

}  // namespace corrob

#endif  // CORROB_CORE_INC_ESTIMATE_H_
