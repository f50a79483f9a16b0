#include "core/inc_estimate.h"

#include <map>

#include <gtest/gtest.h>

#include "core/two_estimate.h"
#include "data/motivating_example.h"
#include "eval/metrics.h"
#include "synth/synthetic.h"

namespace corrob {
namespace {

// Group index lookup by a member fact id.
int32_t GroupOf(const IncrementalEngine& engine, FactId fact) {
  return engine.index().group_of_fact(fact);
}

// Reproduces the paper's Section 2.3 walkthrough (Figure 1) by
// scripting the engine with the exact selections the paper makes:
//   round 1: {r9, r12}  -> trust {-, 1, 1, 0, 1}
//   round 2: {r5, r6}   -> trust {0, 1, 1, 0, 1}
//   round 3: the rest   -> trust {0.67, 1, 1, 0.7, 1}
// and checks the Table 2 scores: P=0.78, R=1, Acc=0.83.
TEST(IncrementalEngineTest, PaperWalkthroughReproducesFigure1) {
  MotivatingExample example = MakeMotivatingExample();
  IncEstimateOptions options;
  options.record_trajectory = true;
  // Paper-exact Eq. 8 (pure sample average, no smoothing prior) so
  // the walkthrough's single-fact trust swings reproduce verbatim.
  options.trust_prior_weight = 0.0;
  IncrementalEngine engine(example.dataset, options);

  // Fact ids: r9 = 8, r12 = 11, r5 = 4, r6 = 5.
  // Round 1.
  EXPECT_EQ(engine.CommitGroup(GroupOf(engine, 8), 1), 1);
  EXPECT_EQ(engine.CommitGroup(GroupOf(engine, 11), 1), 1);
  engine.EndRound(2);
  {
    const auto& trust = engine.trust();
    EXPECT_NEAR(trust[0], 0.9, 1e-12);  // s1: no evaluated votes yet ('-').
    EXPECT_NEAR(trust[1], 1.0, 1e-12);
    EXPECT_NEAR(trust[2], 1.0, 1e-12);
    EXPECT_NEAR(trust[3], 0.0, 1e-12);
    EXPECT_NEAR(trust[4], 1.0, 1e-12);
  }

  // Round 2: r5 projected (0.9 + 0)/2 = 0.45 -> false; r6 -> 0.
  EXPECT_NEAR(engine.GroupProbability(GroupOf(engine, 4)), 0.45, 1e-12);
  EXPECT_NEAR(engine.GroupProbability(GroupOf(engine, 5)), 0.0, 1e-12);
  EXPECT_EQ(engine.CommitGroup(GroupOf(engine, 4), 1), 1);
  EXPECT_EQ(engine.CommitGroup(GroupOf(engine, 5), 1), 1);
  engine.EndRound(2);
  {
    const auto& trust = engine.trust();
    EXPECT_NEAR(trust[0], 0.0, 1e-12);
    EXPECT_NEAR(trust[1], 1.0, 1e-12);
    EXPECT_NEAR(trust[2], 1.0, 1e-12);
    EXPECT_NEAR(trust[3], 0.0, 1e-12);
    EXPECT_NEAR(trust[4], 1.0, 1e-12);
  }

  // Round 3: everything left is backed by a good source.
  EXPECT_EQ(engine.CommitAllRemaining(), 8);
  engine.EndRound(8);
  {
    const auto& trust = engine.trust();
    EXPECT_NEAR(trust[0], 2.0 / 3.0, 1e-12);  // 0.67
    EXPECT_NEAR(trust[1], 1.0, 1e-12);
    EXPECT_NEAR(trust[2], 1.0, 1e-12);
    EXPECT_NEAR(trust[3], 0.7, 1e-12);
    EXPECT_NEAR(trust[4], 1.0, 1e-12);
  }

  CorroborationResult result = std::move(engine).Finish("Scripted");
  BinaryMetrics metrics = EvaluateOnTruth(result, example.truth);
  EXPECT_NEAR(metrics.precision, 7.0 / 9.0, 1e-12);  // 0.78
  EXPECT_NEAR(metrics.recall, 1.0, 1e-12);
  EXPECT_NEAR(metrics.accuracy, 10.0 / 12.0, 1e-12);  // 0.83

  // Trajectory: t0 + 3 rounds.
  ASSERT_EQ(result.trajectory.size(), 4u);
  EXPECT_EQ(result.trajectory[0].facts_committed, 0);
  EXPECT_EQ(result.trajectory[3].facts_committed, 8);
}

TEST(IncrementalEngineTest, SelectingHighEntropyFirstLosesFalseFacts) {
  // §5.1: greedily selecting r1 (entropy 1 at trust {-,1,1,0,1})
  // pushes s4's trust to 0.5 and hides r4/r10. The engine lets us
  // demonstrate exactly that failure mode.
  MotivatingExample example = MakeMotivatingExample();
  IncEstimateOptions options;
  options.trust_prior_weight = 0.0;  // Paper-exact trust update.
  IncrementalEngine engine(example.dataset, options);
  engine.CommitGroup(GroupOf(engine, 8), 1);   // r9 true
  engine.CommitGroup(GroupOf(engine, 11), 1);  // r12 false
  engine.EndRound(2);
  // r1 = {s2 T, s4 T} with trust {.,1,.,0,.}: probability 0.5, the
  // maximum-entropy group.
  int32_t r1_group = GroupOf(engine, 0);
  EXPECT_NEAR(engine.GroupProbability(r1_group), 0.5, 1e-12);
  engine.CommitGroup(r1_group, 1);
  engine.EndRound(1);
  // s4 regains trust 0.5: r4/r10 = {s4 T, s5 T} now scores 0.75 and
  // would be (wrongly) committed true.
  EXPECT_NEAR(engine.trust()[3], 0.5, 1e-12);
  EXPECT_NEAR(engine.GroupProbability(GroupOf(engine, 3)), 0.75, 1e-12);
}

TEST(IncEstHeuTest, MotivatingExampleBeatsTwoEstimate) {
  MotivatingExample example = MakeMotivatingExample();
  IncEstimateOptions options;
  options.strategy = IncSelectStrategy::kHeuristic;
  CorroborationResult inc =
      IncEstimateCorroborator(options).Run(example.dataset).ValueOrDie();
  CorroborationResult two =
      TwoEstimateCorroborator().Run(example.dataset).ValueOrDie();
  BinaryMetrics inc_metrics = EvaluateOnTruth(inc, example.truth);
  BinaryMetrics two_metrics = EvaluateOnTruth(two, example.truth);
  EXPECT_GT(inc_metrics.accuracy, two_metrics.accuracy);
  EXPECT_GE(inc_metrics.accuracy, 0.75);
  EXPECT_EQ(inc_metrics.recall, 1.0);
  // r12 and r6 must be identified as false.
  EXPECT_FALSE(inc.Decide(11));
  EXPECT_FALSE(inc.Decide(5));
}

TEST(IncEstPSTest, MotivatingExampleMatchesTwoEstimateDecisions) {
  // §6.2.2: IncEstPS repeatedly selects high-probability facts and
  // ends up like the existing approaches — everything true except the
  // strongly disputed r12.
  MotivatingExample example = MakeMotivatingExample();
  IncEstimateOptions options;
  options.strategy = IncSelectStrategy::kProbability;
  CorroborationResult result =
      IncEstimateCorroborator(options).Run(example.dataset).ValueOrDie();
  for (FactId f = 0; f < 12; ++f) {
    EXPECT_EQ(result.Decide(f), f != 11) << "r" << (f + 1);
  }
}

TEST(IncEstimateTest, EveryFactCommittedExactlyOnce) {
  MotivatingExample example = MakeMotivatingExample();
  for (IncSelectStrategy strategy :
       {IncSelectStrategy::kHeuristic, IncSelectStrategy::kProbability}) {
    IncEstimateOptions options;
    options.strategy = strategy;
    CorroborationResult result =
        IncEstimateCorroborator(options).Run(example.dataset).ValueOrDie();
    ASSERT_EQ(result.fact_probability.size(), 12u);
    for (double p : result.fact_probability) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

TEST(IncEstimateTest, TrajectoryAccountsForAllFacts) {
  MotivatingExample example = MakeMotivatingExample();
  IncEstimateOptions options;
  options.record_trajectory = true;
  CorroborationResult result =
      IncEstimateCorroborator(options).Run(example.dataset).ValueOrDie();
  ASSERT_GE(result.trajectory.size(), 2u);
  int64_t committed = 0;
  for (const TrajectoryPoint& point : result.trajectory) {
    ASSERT_EQ(point.trust.size(), 5u);
    for (double t : point.trust) {
      EXPECT_GE(t, 0.0);
      EXPECT_LE(t, 1.0);
    }
    committed += point.facts_committed;
  }
  EXPECT_EQ(committed, 12);
  EXPECT_EQ(static_cast<int>(result.trajectory.size()) - 1,
            result.iterations);
}

TEST(IncEstimateTest, DefaultTrustAboveHalfGivesSameResult) {
  // §6.1.1: any default above 0.5 selects the same facts at t0 and
  // therefore converges to the same corroboration result.
  MotivatingExample example = MakeMotivatingExample();
  std::vector<bool> reference;
  for (double initial : {0.6, 0.75, 0.9, 0.99}) {
    IncEstimateOptions options;
    options.initial_trust = initial;
    CorroborationResult result =
        IncEstimateCorroborator(options).Run(example.dataset).ValueOrDie();
    if (reference.empty()) {
      reference = result.Decisions();
    } else {
      EXPECT_EQ(result.Decisions(), reference) << "initial " << initial;
    }
  }
}

TEST(IncEstimateTest, AffirmativeOnlyDataCommitsTrueGroupByGroup) {
  // With no F votes and high default trust every group is positive:
  // the §5.1 one-sided case commits one whole group per time point
  // (3 groups here) and everything resolves true.
  DatasetBuilder builder;
  for (int s = 0; s < 3; ++s) builder.AddSource("s" + std::to_string(s));
  for (int f = 0; f < 9; ++f) {
    FactId id = builder.AddFact("f" + std::to_string(f));
    ASSERT_TRUE(builder.SetVote(f % 3, id, Vote::kTrue).ok());
  }
  Dataset d = builder.Build();
  CorroborationResult result =
      IncEstimateCorroborator().Run(d).ValueOrDie();
  EXPECT_EQ(result.iterations, 3);
  for (FactId f = 0; f < 9; ++f) EXPECT_TRUE(result.Decide(f));
}

TEST(IncEstimateTest, FactsWithNoVotesCommitAtThreshold) {
  DatasetBuilder builder;
  builder.AddSource("s");
  FactId voted = builder.AddFact("voted");
  FactId orphan = builder.AddFact("orphan");
  ASSERT_TRUE(builder.SetVote(0, voted, Vote::kTrue).ok());
  Dataset d = builder.Build();
  CorroborationResult result =
      IncEstimateCorroborator().Run(d).ValueOrDie();
  EXPECT_TRUE(result.Decide(voted));
  // Orphan facts carry probability 0.5 -> decided true by Eq. 2.
  EXPECT_DOUBLE_EQ(result.fact_probability[static_cast<size_t>(orphan)], 0.5);
  EXPECT_TRUE(result.Decide(orphan));
}

TEST(IncEstimateTest, EmptyDataset) {
  CorroborationResult result =
      IncEstimateCorroborator().Run(DatasetBuilder().Build()).ValueOrDie();
  EXPECT_TRUE(result.fact_probability.empty());
  EXPECT_EQ(result.iterations, 0);
}

TEST(IncEstimateTest, InvalidOptionsRejected) {
  IncEstimateOptions bad;
  bad.initial_trust = -0.1;
  EXPECT_EQ(IncEstimateCorroborator(bad)
                .Run(DatasetBuilder().Build())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  IncEstimateOptions bad_cap;
  bad_cap.max_candidate_groups = -1;
  EXPECT_EQ(IncEstimateCorroborator(bad_cap)
                .Run(DatasetBuilder().Build())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(IncEstimateTest, CandidateCapDoesNotChangeSmallExperiments) {
  MotivatingExample example = MakeMotivatingExample();
  IncEstimateOptions capped;
  capped.max_candidate_groups = 64;
  IncEstimateOptions exact;
  exact.max_candidate_groups = 0;
  CorroborationResult a =
      IncEstimateCorroborator(capped).Run(example.dataset).ValueOrDie();
  CorroborationResult b =
      IncEstimateCorroborator(exact).Run(example.dataset).ValueOrDie();
  EXPECT_EQ(a.Decisions(), b.Decisions());
}

TEST(IncEstHeuTest, IdentifiesPollutedSourcesOnSyntheticData) {
  // End-to-end property on §6.3.1 data: IncEstHeu must beat
  // TwoEstimate by a clear margin when inaccurate sources flood the
  // corpus with bogus affirmative listings.
  SyntheticOptions options;
  options.num_sources = 8;
  options.num_inaccurate = 2;
  options.num_facts = 1500;
  options.eta = 0.03;
  options.seed = 5;
  SyntheticDataset data = GenerateSynthetic(options).ValueOrDie();

  CorroborationResult inc =
      IncEstimateCorroborator().Run(data.dataset).ValueOrDie();
  CorroborationResult two =
      TwoEstimateCorroborator().Run(data.dataset).ValueOrDie();
  double inc_acc = EvaluateOnTruth(inc, data.truth).accuracy;
  double two_acc = EvaluateOnTruth(two, data.truth).accuracy;
  EXPECT_GT(inc_acc, two_acc + 0.1);
  EXPECT_GT(inc_acc, 0.7);
}

/// Property sweep: on random synthetic corpora of varying shape, the
/// incremental run remains well-formed (all facts committed, bounded
/// probabilities/trust, trajectory consistent).
///
/// gtest names each case by the bytes of its parameter, so the struct
/// must have no padding: `facts` is 64-bit to fill the slot before
/// `eta`, which keeps the test names the same from run to run.
struct IncPropertyCase {
  int sources;
  int inaccurate;
  int64_t facts;
  double eta;
  uint64_t seed;
};

static_assert(sizeof(IncPropertyCase) ==
                  2 * sizeof(int) + sizeof(int64_t) + sizeof(double) +
                      sizeof(uint64_t),
              "IncPropertyCase must have no padding");

class IncEstimatePropertyTest
    : public ::testing::TestWithParam<IncPropertyCase> {};

TEST_P(IncEstimatePropertyTest, RunIsWellFormed) {
  const IncPropertyCase& c = GetParam();
  SyntheticOptions options;
  options.num_sources = c.sources;
  options.num_inaccurate = c.inaccurate;
  options.num_facts = static_cast<int32_t>(c.facts);
  options.eta = c.eta;
  options.seed = c.seed;
  SyntheticDataset data = GenerateSynthetic(options).ValueOrDie();

  for (IncSelectStrategy strategy :
       {IncSelectStrategy::kHeuristic, IncSelectStrategy::kProbability}) {
    IncEstimateOptions inc_options;
    inc_options.strategy = strategy;
    inc_options.record_trajectory = true;
    CorroborationResult result = IncEstimateCorroborator(inc_options)
                                     .Run(data.dataset)
                                     .ValueOrDie();
    ASSERT_EQ(result.fact_probability.size(),
              static_cast<size_t>(c.facts));
    int64_t committed = 0;
    for (const TrajectoryPoint& point : result.trajectory) {
      committed += point.facts_committed;
    }
    EXPECT_EQ(committed, c.facts);
    for (double p : result.fact_probability) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
    for (double t : result.source_trust) {
      EXPECT_GE(t, 0.0);
      EXPECT_LE(t, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, IncEstimatePropertyTest,
    ::testing::Values(IncPropertyCase{2, 0, 50, 0.0, 1},
                      IncPropertyCase{3, 3, 100, 0.0, 2},
                      IncPropertyCase{5, 1, 200, 0.05, 3},
                      IncPropertyCase{6, 2, 400, 0.02, 4},
                      IncPropertyCase{10, 4, 300, 0.04, 5},
                      IncPropertyCase{4, 2, 77, 0.01, 6}));

}  // namespace
}  // namespace corrob
