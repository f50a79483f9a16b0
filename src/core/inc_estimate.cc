#include "core/inc_estimate.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <span>

#include "common/logging.h"
#include "common/math_util.h"
#include "core/telemetry_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace corrob {

namespace {

/// Eq. 5 score of a signature under a given trust assignment.
double SignatureScore(std::span<const SourceVote> signature,
                      const std::vector<double>& trust) {
  if (signature.empty()) return 0.5;
  double sum = 0.0;
  for (const SourceVote& sv : signature) {
    double t = trust[static_cast<size_t>(sv.source)];
    sum += sv.vote == Vote::kTrue ? t : 1.0 - t;
  }
  return sum / static_cast<double>(signature.size());
}

/// Renders a group signature as "s1=T,s2=F" (source names from the
/// dataset) for the telemetry stream and `corrob explain`.
std::string RenderSignature(const Dataset& dataset,
                            std::span<const SourceVote> signature) {
  std::string out;
  for (const SourceVote& sv : signature) {
    if (!out.empty()) out.push_back(',');
    out += dataset.source_name(sv.source);
    out += sv.vote == Vote::kTrue ? "=T" : "=F";
  }
  return out;
}

}  // namespace

IncrementalEngine::IncrementalEngine(const Dataset& dataset,
                                     const FactGroupIndex* index,
                                     const IncEstimateOptions& options)
    : options_(options),
      owned_index_(index == nullptr
                       ? std::make_unique<const FactGroupIndex>(dataset)
                       : nullptr),
      index_(index == nullptr ? owned_index_.get() : index),
      members_(index_->member_facts()),
      committed_(static_cast<size_t>(index_->num_groups()), 0),
      trust_(static_cast<size_t>(dataset.num_sources()),
             options.initial_trust),
      correct_(static_cast<size_t>(dataset.num_sources()), 0.0),
      total_(static_cast<size_t>(dataset.num_sources()), 0.0),
      fact_probability_(static_cast<size_t>(dataset.num_facts()), 0.5),
      fact_round_(static_cast<size_t>(dataset.num_facts()), -1),
      remaining_facts_(dataset.num_facts()) {
  if (options_.record_trajectory) {
    trajectory_.push_back(TrajectoryPoint{trust_, 0});
  }
}

double IncrementalEngine::GroupProbability(int32_t g) const {
  return SignatureScore(index_->signature(g), trust_);
}

bool IncrementalEngine::ProjectGroups(ThreadPool* pool,
                                      GroupProjection* projection,
                                      bool with_entropy,
                                      const StopSignal* stop) const {
  const size_t num_groups = static_cast<size_t>(index_->num_groups());
  projection->probability.resize(num_groups);
  projection->entropy.resize(with_entropy ? num_groups : 0);
  return ParallelApply(
      pool, static_cast<int64_t>(num_groups),
      [this, projection, with_entropy](int64_t begin, int64_t end) {
        for (int64_t g = begin; g < end; ++g) {
          const double p =
              SignatureScore(index_->signature(static_cast<int32_t>(g)),
                             trust_);
          projection->probability[static_cast<size_t>(g)] = p;
          if (with_entropy) {
            projection->entropy[static_cast<size_t>(g)] = BinaryEntropy(p);
          }
        }
      },
      stop);
}

double IncrementalEngine::EntropyDelta(int32_t g) const {
  CORROB_CHECK(ProjectGroups(nullptr, &projection_, /*with_entropy=*/true));
  return EntropyDelta(g, projection_, &scratch_);
}

double IncrementalEngine::EntropyDelta(int32_t g,
                                       const GroupProjection& projection,
                                       EntropyScratch* scratch) const {
  if (remaining(g) == 0) return 0.0;

  // Decision the commit would take, under the current trust.
  const double p = projection.probability[static_cast<size_t>(g)];
  const bool decision = p >= kDecisionThreshold;
  const double committed = static_cast<double>(remaining(g));

  // Tentative trust for the sources in the candidate's signature,
  // under the same smoothed Eq. 8 update EndRound applies.
  const double w = options_.trust_prior_weight;
  const std::span<const SourceVote> signature = index_->signature(g);
  scratch->projected = trust_;
  for (const SourceVote& sv : signature) {
    size_t s = static_cast<size_t>(sv.source);
    bool vote_correct = (sv.vote == Vote::kTrue) == decision;
    double new_total = total_[s] + committed + w;
    double new_correct = correct_[s] + (vote_correct ? committed : 0.0) +
                         w * options_.initial_trust;
    scratch->projected[s] = new_correct / new_total;
  }

  // Sum entropy changes over the other active groups that share a
  // source with the candidate; disjoint groups are unaffected.
  const size_t num_groups = static_cast<size_t>(index_->num_groups());
  if (scratch->visit_stamp.size() != num_groups) {
    scratch->visit_stamp.assign(num_groups, -1);
    scratch->stamp = 0;
  }
  double delta = 0.0;
  ++scratch->stamp;
  for (const SourceVote& sv : signature) {
    for (int32_t other : index_->groups_of_source(sv.source)) {
      if (other == g) continue;
      size_t oi = static_cast<size_t>(other);
      if (scratch->visit_stamp[oi] == scratch->stamp) continue;
      scratch->visit_stamp[oi] = scratch->stamp;
      const size_t other_remaining = remaining(other);
      if (other_remaining == 0) continue;
      double after =
          SignatureScore(index_->signature(other), scratch->projected);
      delta += static_cast<double>(other_remaining) *
               (BinaryEntropy(after) - projection.entropy[oi]);
    }
  }
  return delta;
}

int64_t IncrementalEngine::CommitGroup(int32_t g, int64_t n) {
  int64_t take = std::min<int64_t>(n, static_cast<int64_t>(remaining(g)));
  if (take <= 0) return 0;

  const std::span<const SourceVote> signature = index_->signature(g);
  const double p = SignatureScore(signature, trust_);
  const bool decision = p >= kDecisionThreshold;
  size_t& committed_members = committed_[static_cast<size_t>(g)];
  const size_t first = index_->member_offset(g) + committed_members;
  for (int64_t i = 0; i < take; ++i) {
    FactId f = members_[first + static_cast<size_t>(i)];
    fact_probability_[static_cast<size_t>(f)] = p;
    fact_round_[static_cast<size_t>(f)] = rounds_;
  }
  committed_members += static_cast<size_t>(take);
  remaining_facts_ -= take;

  const double committed = static_cast<double>(take);
  for (const SourceVote& sv : signature) {
    size_t s = static_cast<size_t>(sv.source);
    bool vote_correct = (sv.vote == Vote::kTrue) == decision;
    total_[s] += committed;
    if (vote_correct) correct_[s] += committed;
  }
  return take;
}

Status IncrementalEngine::CommitKnownFact(FactId fact, bool label) {
  if (fact < 0 || fact >= static_cast<FactId>(fact_probability_.size())) {
    return Status::OutOfRange("fact id " + std::to_string(fact) +
                              " out of range");
  }
  if (fact_round_[static_cast<size_t>(fact)] >= 0) {
    return Status::FailedPrecondition("fact " + std::to_string(fact) +
                                      " is already committed");
  }
  const int32_t g = index_->group_of_fact(fact);
  // Move the fact to the committed frontier of its group.
  size_t& committed_members = committed_[static_cast<size_t>(g)];
  const auto frontier = members_.begin() +
                        static_cast<std::ptrdiff_t>(index_->member_offset(g) +
                                                    committed_members);
  const auto end = members_.begin() +
                   static_cast<std::ptrdiff_t>(index_->member_offset(g + 1));
  auto it = std::find(frontier, end, fact);
  CORROB_CHECK(it != end);
  std::swap(*it, *frontier);
  ++committed_members;
  --remaining_facts_;

  fact_probability_[static_cast<size_t>(fact)] = label ? 1.0 : 0.0;
  fact_round_[static_cast<size_t>(fact)] = rounds_;
  for (const SourceVote& sv : index_->signature(g)) {
    size_t s = static_cast<size_t>(sv.source);
    bool vote_correct = (sv.vote == Vote::kTrue) == label;
    total_[s] += 1.0;
    if (vote_correct) correct_[s] += 1.0;
  }
  return Status::OK();
}

int64_t IncrementalEngine::CommitAllRemaining() {
  int64_t committed = 0;
  for (int32_t g = 0; g < index_->num_groups(); ++g) {
    committed += CommitGroup(g, std::numeric_limits<int64_t>::max());
  }
  return committed;
}

void IncrementalEngine::EndRound(int64_t facts_committed) {
  const double w = options_.trust_prior_weight;
  for (size_t s = 0; s < trust_.size(); ++s) {
    if (total_[s] > 0.0) {
      trust_[s] =
          (correct_[s] + w * options_.initial_trust) / (total_[s] + w);
    }
  }
  ++rounds_;
  if (options_.record_trajectory) {
    trajectory_.push_back(TrajectoryPoint{trust_, facts_committed});
  }
}

CorroborationResult IncrementalEngine::Finish(std::string algorithm_name) && {
  CORROB_CHECK(remaining_facts_ == 0)
      << "Finish() with " << remaining_facts_ << " facts unevaluated";
  CorroborationResult result;
  result.algorithm = std::move(algorithm_name);
  result.fact_probability = std::move(fact_probability_);
  result.source_trust = std::move(trust_);
  result.iterations = rounds_;
  result.trajectory = std::move(trajectory_);
  result.fact_commit_round = std::move(fact_round_);
  return result;
}

int32_t IncEstimateCorroborator::PickBestGroup(
    const IncrementalEngine& engine, const std::vector<int32_t>& part,
    bool is_positive, const GroupProjection& projection,
    ThreadPool* pool, const StopSignal* stop, double* best_delta_out) const {
  CORROB_TRACE_SPAN("IncEstimate::PickBestGroup");
  // Confidence-first filter: keep only groups within extreme_band of
  // the part's most extreme probability, so ΔH chooses among the most
  // confidently decidable groups (as in the paper's walkthrough,
  // which picks r9 at σ=0.9 and r12 at σ=0.37).
  double extreme = is_positive ? 0.0 : 1.0;
  for (int32_t g : part) {
    double p = projection.probability[static_cast<size_t>(g)];
    extreme = is_positive ? std::max(extreme, p) : std::min(extreme, p);
  }
  std::vector<int32_t> candidates;
  for (int32_t g : part) {
    double p = projection.probability[static_cast<size_t>(g)];
    if (is_positive ? p >= extreme - options_.extreme_band
                    : p <= extreme + options_.extreme_band) {
      candidates.push_back(g);
    }
  }
  // Candidate capping for large group counts: rank by remaining size
  // (descending, ties by index) and keep the top slice; the exact ΔH
  // then decides among candidates.
  if (options_.max_candidate_groups > 0 &&
      static_cast<int>(candidates.size()) > options_.max_candidate_groups) {
    std::partial_sort(
        candidates.begin(), candidates.begin() + options_.max_candidate_groups,
        candidates.end(), [&](int32_t a, int32_t b) {
          size_t ra = engine.remaining(a);
          size_t rb = engine.remaining(b);
          if (ra != rb) return ra > rb;
          return a < b;
        });
    candidates.resize(static_cast<size_t>(options_.max_candidate_groups));
  }
  // ΔH scan: candidates evaluate independently (per-chunk scratch),
  // and the argmax folds sequentially in candidate order afterwards —
  // same first-maximum tie-break as the sequential loop, so the pick
  // is identical at any thread count.
  static obs::Counter* scans = obs::MetricsRegistry::Global().GetCounter(
      "corrob.inc_est.delta_h_scans");
  static obs::Histogram* scan_width =
      obs::MetricsRegistry::Global().GetHistogram(
          "corrob.inc_est.delta_h_candidates");
  scans->Add(1);
  scan_width->Record(static_cast<int64_t>(candidates.size()));
  std::vector<double> deltas(candidates.size());
  const bool complete = ParallelApply(
      pool, static_cast<int64_t>(candidates.size()),
      [&engine, &projection, &candidates, &deltas](int64_t begin,
                                                   int64_t end) {
        EntropyScratch scratch;
        for (int64_t i = begin; i < end; ++i) {
          deltas[static_cast<size_t>(i)] = engine.EntropyDelta(
              candidates[static_cast<size_t>(i)], projection, &scratch);
        }
      },
      stop);
  // A cut-short scan leaves holes in `deltas`; any argmax over it
  // would depend on which chunks ran. Abandon the round instead.
  if (!complete) return -1;
  int32_t best = candidates[0];
  double best_delta = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (deltas[i] > best_delta) {
      best_delta = deltas[i];
      best = candidates[i];
    }
  }
  if (best_delta_out != nullptr) *best_delta_out = best_delta;
  return best;
}

Result<CorroborationResult> IncEstimateCorroborator::Run(
    const Dataset& dataset, const RunContext& context) const {
  if (options_.initial_trust < 0.0 || options_.initial_trust > 1.0) {
    return Status::InvalidArgument("initial_trust must be in [0,1]");
  }
  if (options_.max_candidate_groups < 0) {
    return Status::InvalidArgument("max_candidate_groups must be >= 0");
  }
  if (options_.trust_prior_weight < 0.0) {
    return Status::InvalidArgument("trust_prior_weight must be >= 0");
  }
  if (options_.tie_margin < 0.0 || options_.tie_margin >= 0.5) {
    return Status::InvalidArgument("tie_margin must be in [0, 0.5)");
  }
  if (options_.extreme_band < 0.0) {
    return Status::InvalidArgument("extreme_band must be >= 0");
  }
  if (options_.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  CORROB_RETURN_NOT_OK(ValidateResourceBudget(context.budget()));
  const FactGroupIndex* shared_index = context.fact_groups();
  if (shared_index != nullptr &&
      (shared_index->num_facts() != dataset.num_facts() ||
       shared_index->num_sources() != dataset.num_sources())) {
    return Status::InvalidArgument(
        "fact-group index was built from a different dataset");
  }

  CORROB_TRACE_SPAN("IncEstimate::Run");
  IncrementalEngine engine(dataset, shared_index, options_);
  const int32_t num_groups = engine.index().num_groups();
  std::unique_ptr<ThreadPool> pool = MakeSweepPool(options_.num_threads);
  // σ(FG) and H(σ(FG)) of every group, refreshed once per round; the
  // selection logic below reads only this snapshot, never live
  // probabilities.
  GroupProjection projection;
  auto telemetry =
      MaybeStartTelemetry(options_.collect_telemetry, name(), dataset);

  int round = 0;
  // The one round-end path: EndRound turns the time point's commits
  // into trust, then the round's telemetry record is pushed with the
  // post-round σ_i(S). Only balanced rounds commit on two sides and
  // pass the paper's per-side n; for every other kind n is the whole
  // commit.
  auto end_round = [&](const char* kind, int64_t committed,
                       obs::IncRoundEvent event = {}, int64_t n = 0) {
    engine.EndRound(committed);
    if (telemetry == nullptr) return;
    event.round = round;
    event.kind = kind;
    event.committed_n = n > 0 ? n : committed;
    event.facts_committed = committed;
    obs::TrustDistribution(engine.trust(), &event.trust_min,
                           &event.trust_mean, &event.trust_max);
    telemetry->rounds.push_back(std::move(event));
  };
  // Telemetry readout of one selected side, taken before the commit so
  // |FG| is the group's remaining size at selection time.
  auto describe_side = [&](bool positive, int32_t g, double delta_h,
                           obs::IncRoundEvent* event) {
    if (telemetry == nullptr) return;
    std::string signature =
        RenderSignature(dataset, engine.index().signature(g));
    const int64_t fg = static_cast<int64_t>(engine.remaining(g));
    const double prob = projection.probability[static_cast<size_t>(g)];
    if (positive) {
      event->positive_group = g;
      event->positive_signature = std::move(signature);
      event->fg_positive = fg;
      event->prob_positive = prob;
      event->delta_h_positive = delta_h;
    } else {
      event->negative_group = g;
      event->negative_signature = std::move(signature);
      event->fg_negative = fg;
      event->prob_negative = prob;
      event->delta_h_negative = delta_h;
    }
  };

  // Supervision: seed the trust state with the known labels as time
  // point t0, before any selection round.
  if (!options_.known_labels.empty()) {
    for (const auto& [fact, label] : options_.known_labels) {
      CORROB_RETURN_NOT_OK(engine.CommitKnownFact(fact, label));
    }
    end_round("supervised",
              static_cast<int64_t>(options_.known_labels.size()));
  }

  // Interruption support: boundary checks fire between rounds (with
  // `round` completed selection rounds behind us, so a run cancelled
  // at round k matches a budgeted max_rounds=k run bit-for-bit), and
  // the projection / ΔH scans poll the stop signal at chunk
  // boundaries. A round abandoned mid-scan leaves the engine's trust
  // and commit state untouched — only the scan's scratch output is
  // discarded — so graceful degradation below projects the remaining
  // facts with exactly the trust of the last completed round.
  const StopSignal* stop = context.sweep_stop();
  Termination termination = Termination::kConverged;
  bool mid_round = false;
  // max_facts_per_round caps what one *selection* round may commit
  // (at least one fact, so rounds make progress); terminal wholesale
  // commits are exempt.
  const int64_t fact_cap = context.budget().max_facts_per_round;
  const int64_t round_cap =
      fact_cap > 0 ? fact_cap : std::numeric_limits<int64_t>::max();

  while (engine.remaining_facts() > 0) {
    if (auto interrupt = context.CheckIterationBoundary(round)) {
      termination = *interrupt;
      break;
    }
    ++round;
    if (!engine.ProjectGroups(
            pool.get(), &projection,
            options_.strategy == IncSelectStrategy::kHeuristic, stop)) {
      termination = context.SweepInterruption();
      mid_round = true;
      break;
    }
    if (options_.strategy == IncSelectStrategy::kProbability) {
      // IncEstPS: the group with the highest projected probability.
      int32_t best = -1;
      double best_p = -1.0;
      for (int32_t g = 0; g < num_groups; ++g) {
        if (engine.remaining(g) == 0) continue;
        double p = projection.probability[static_cast<size_t>(g)];
        if (p > best_p) {
          best_p = p;
          best = g;
        }
      }
      CORROB_CHECK(best >= 0);
      obs::IncRoundEvent event;
      describe_side(true, best, 0.0, &event);
      end_round("greedy", engine.CommitGroup(best, round_cap),
                std::move(event));
      continue;
    }

    // IncEstHeu (Algorithm 2): positive part (probability above 0.5)
    // and negative part (below 0.5); groups at or near 0.5 carry
    // maximum entropy and no reliable decision direction, so they
    // belong to neither part and are deferred until a trust update
    // moves them out of the band (see tie_margin).
    std::vector<int32_t> positive;
    std::vector<int32_t> negative;
    for (int32_t g = 0; g < num_groups; ++g) {
      if (engine.remaining(g) == 0) continue;
      const std::span<const SourceVote> signature =
          engine.index().signature(g);
      double p = projection.probability[static_cast<size_t>(g)];
      if (p > kDecisionThreshold + options_.tie_margin) {
        // Optional quarantine (ablation knob): hold back positive
        // groups containing a currently negative source, so a
        // positive commit cannot rehabilitate it mid-discovery. In
        // practice the concurrent rehabilitation matches the paper's
        // Figure 2(b) recovery and evaluates better on both workloads
        // (see bench_ablation), so the default leaves this off.
        bool has_suspect_voter = false;
        if (options_.quarantine_suspect_groups) {
          for (const SourceVote& sv : signature) {
            if (engine.trust()[static_cast<size_t>(sv.source)] <
                kDecisionThreshold) {
              has_suspect_voter = true;
              break;
            }
          }
        }
        if (!has_suspect_voter) positive.push_back(g);
      } else if (p < kDecisionThreshold) {
        // A negative commit marks every T voter wrong. With an
        // explicit F vote in the signature that is corroborated
        // dissent; without one it is justified only when no
        // *evidence-based* positive source vouches for the fact (in
        // the §2.3 walkthrough, r5 commits false while s1's 0.9 is
        // still the unevaluated default). Otherwise one distrusted
        // co-voter would drag facts endorsed by known-good sources
        // into the negative part and the collapse would cascade.
        bool has_f_vote = false;
        bool trusted_backer = false;
        for (const SourceVote& sv : signature) {
          if (sv.vote == Vote::kFalse) {
            has_f_vote = true;
          } else if (engine.SourceEvaluated(sv.source) &&
                     engine.trust()[static_cast<size_t>(sv.source)] >
                         kDecisionThreshold) {
            trusted_backer = true;
          }
        }
        if (has_f_vote || !trusted_backer) negative.push_back(g);
      }
    }
    obs::IncRoundEvent event;
    event.part_positive = static_cast<int64_t>(positive.size());
    event.part_negative = static_cast<int64_t>(negative.size());

    if (positive.empty() && negative.empty()) {
      // Only maximum-entropy groups remain; no further trust update
      // can be extracted. Commit them all at the Eq. 2 threshold.
      end_round("final_ties", engine.CommitAllRemaining(), std::move(event));
      break;
    }
    if (positive.empty() || negative.empty()) {
      // §5.1 special case: every committable fact is projected to the
      // same side. Stay incremental: evaluate the side's best group
      // in full at this time point ("aggressively selects all
      // listings that are projected to be corrupt", §2.3), then
      // re-partition — the trust update may move deferred groups
      // into a part or revive the other side.
      const bool is_positive = negative.empty();
      double best_delta = 0.0;
      const int32_t best =
          PickBestGroup(engine, is_positive ? positive : negative,
                        is_positive, projection, pool.get(), stop,
                        &best_delta);
      if (best < 0) {
        termination = context.SweepInterruption();
        mid_round = true;
        break;
      }
      describe_side(is_positive, best, best_delta, &event);
      const int64_t committed = engine.CommitGroup(best, round_cap);
      CORROB_CHECK(committed > 0);
      end_round(is_positive ? "one_sided_positive" : "one_sided_negative",
                committed, std::move(event));
      continue;
    }

    double delta_positive = 0.0;
    double delta_negative = 0.0;
    int32_t best_positive = PickBestGroup(engine, positive, true, projection,
                                          pool.get(), stop, &delta_positive);
    int32_t best_negative =
        best_positive < 0 ? -1
                          : PickBestGroup(engine, negative, false, projection,
                                          pool.get(), stop, &delta_negative);
    if (best_positive < 0 || best_negative < 0) {
      termination = context.SweepInterruption();
      mid_round = true;
      break;
    }
    // The paper's balanced commit: n = min(|FG+|, |FG-|) facts from
    // each side, recorded so the invariant is directly checkable.
    int64_t n = static_cast<int64_t>(std::min(
        engine.remaining(best_positive), engine.remaining(best_negative)));
    // Balanced rounds commit n facts per side, so the per-round cap
    // splits across the two commits.
    n = std::min(n, std::max<int64_t>(1, round_cap / 2));
    describe_side(true, best_positive, delta_positive, &event);
    describe_side(false, best_negative, delta_negative, &event);
    const int64_t committed = engine.CommitGroup(best_positive, n) +
                              engine.CommitGroup(best_negative, n);
    CORROB_CHECK(committed > 0);
    end_round("balanced", committed, std::move(event), n);
  }

  if (TerminatedEarly(termination) && engine.remaining_facts() > 0) {
    // Graceful degradation: every fact must carry an answer, so the
    // remaining ones are projected wholesale with the trust of the
    // last completed round — exactly the final-ties commit, but
    // forced by the interrupt rather than exhausted entropy. The
    // abandoned in-flight round (if any) becomes the projection's
    // time point; a boundary interrupt opens a fresh one.
    if (!mid_round) ++round;
    end_round("interrupted", engine.CommitAllRemaining());
  }

  CorroborationResult result = std::move(engine).Finish(std::string(name()));
  result.termination = termination;
  if (telemetry != nullptr) {
    telemetry->iterations = result.iterations;
    // Converged here means the run evaluated every fact on its own
    // terms; an interrupted run projected the tail instead.
    telemetry->converged = termination == Termination::kConverged;
    result.telemetry = std::move(telemetry);
  }
  return result;
}

}  // namespace corrob
