// Unit tests for IncrementalEngine internals: ΔH semantics, commit
// accounting, and trust bookkeeping — at the granularity the paper's
// §5.1 argument works at.


#include <gtest/gtest.h>

#include "core/inc_estimate.h"
#include "data/motivating_example.h"

namespace corrob {
namespace {

IncEstimateOptions PaperExact() {
  IncEstimateOptions options;
  options.trust_prior_weight = 0.0;
  return options;
}

int32_t GroupOf(const IncrementalEngine& engine, FactId fact) {
  return engine.index().group_of_fact(fact);
}

TEST(EngineDeltaHTest, R12BeatsR6InRoundOne) {
  // The §5.1 negative-part reasoning: committing the r12 group
  // (decided false, crashing s4) raises the remaining entropy far
  // more than committing the r6 tie group.
  MotivatingExample example = MakeMotivatingExample();
  IncrementalEngine engine(example.dataset, PaperExact());
  double delta_r12 = engine.EntropyDelta(GroupOf(engine, 11));
  double delta_r6 = engine.EntropyDelta(GroupOf(engine, 5));
  EXPECT_GT(delta_r12, delta_r6);
  EXPECT_GT(delta_r12, 1.0);  // Large positive entropy gain.
}

TEST(EngineDeltaHTest, PositivePartValuesAreNegativeAtRoundOne) {
  // Committing any T-only group true at t0 sharpens its sources
  // toward 1 and reduces the entropy of the co-voted groups.
  MotivatingExample example = MakeMotivatingExample();
  IncrementalEngine engine(example.dataset, PaperExact());
  for (FactId f : {0, 1, 2, 8}) {  // r1, r2, r3, r9
    EXPECT_LT(engine.EntropyDelta(GroupOf(engine, f)), 0.0) << "r" << (f + 1);
  }
  // The 4-voter r2 group disturbs more groups than the 2-voter r9.
  EXPECT_LT(engine.EntropyDelta(GroupOf(engine, 1)),
            engine.EntropyDelta(GroupOf(engine, 8)));
}

TEST(EngineDeltaHTest, IsolatedGroupHasZeroDelta) {
  // A group whose sources appear nowhere else cannot change any other
  // group's entropy.
  DatasetBuilder builder;
  SourceId shared = builder.AddSource("shared");
  SourceId helper = builder.AddSource("helper");
  SourceId lonely = builder.AddSource("lonely");
  FactId a = builder.AddFact("a");
  FactId b = builder.AddFact("b");
  FactId c = builder.AddFact("c");
  // a = {shared}, b = {shared, helper}: two distinct groups linked
  // through `shared`. c = {lonely}: fully isolated.
  ASSERT_TRUE(builder.SetVote(shared, a, Vote::kTrue).ok());
  ASSERT_TRUE(builder.SetVote(shared, b, Vote::kTrue).ok());
  ASSERT_TRUE(builder.SetVote(helper, b, Vote::kTrue).ok());
  ASSERT_TRUE(builder.SetVote(lonely, c, Vote::kTrue).ok());
  Dataset d = builder.Build();

  IncrementalEngine engine(d, PaperExact());
  EXPECT_DOUBLE_EQ(engine.EntropyDelta(GroupOf(engine, c)), 0.0);
  EXPECT_NE(engine.EntropyDelta(GroupOf(engine, a)), 0.0);
}

TEST(EngineDeltaHTest, ExhaustedGroupHasZeroDelta) {
  MotivatingExample example = MakeMotivatingExample();
  IncrementalEngine engine(example.dataset, PaperExact());
  int32_t g = GroupOf(engine, 8);  // r9, singleton
  engine.CommitGroup(g, 1);
  engine.EndRound(1);
  EXPECT_DOUBLE_EQ(engine.EntropyDelta(g), 0.0);
}

TEST(EngineCommitTest, PartialCommitKeepsRemainder) {
  MotivatingExample example = MakeMotivatingExample();
  IncrementalEngine engine(example.dataset, PaperExact());
  int32_t g = GroupOf(engine, 6);  // {r7, r8} share a signature.
  ASSERT_EQ(engine.remaining(g), 2u);
  EXPECT_EQ(engine.CommitGroup(g, 1), 1);
  EXPECT_EQ(engine.remaining(g), 1u);
  EXPECT_EQ(engine.remaining_facts(), 11);
  // Requesting more than available commits only the remainder.
  EXPECT_EQ(engine.CommitGroup(g, 99), 1);
  EXPECT_EQ(engine.CommitGroup(g, 99), 0);
  EXPECT_EQ(engine.remaining_facts(), 10);
}

TEST(EngineCommitTest, ProbabilityRecordedAtCommitTimeTrust) {
  MotivatingExample example = MakeMotivatingExample();
  IncrementalEngine engine(example.dataset, PaperExact());
  // Commit r9 and r12 first (the walkthrough round 1), then r5: its
  // recorded probability must use the *updated* trust (0.45), not
  // the initial one (0.9).
  engine.CommitGroup(GroupOf(engine, 8), 1);
  engine.CommitGroup(GroupOf(engine, 11), 1);
  engine.EndRound(2);
  engine.CommitGroup(GroupOf(engine, 4), 1);
  engine.EndRound(1);
  engine.EndRound(engine.CommitAllRemaining());
  CorroborationResult result = std::move(engine).Finish("test");
  EXPECT_NEAR(result.fact_probability[4], 0.45, 1e-12);
  EXPECT_NEAR(result.fact_probability[8], 0.9, 1e-12);
}

TEST(EngineCommitTest, SourceEvaluatedTracksCommits) {
  MotivatingExample example = MakeMotivatingExample();
  IncrementalEngine engine(example.dataset, PaperExact());
  for (SourceId s = 0; s < 5; ++s) {
    EXPECT_FALSE(engine.SourceEvaluated(s));
  }
  engine.CommitGroup(GroupOf(engine, 8), 1);  // r9: s3, s5 vote.
  engine.EndRound(1);
  EXPECT_FALSE(engine.SourceEvaluated(0));
  EXPECT_TRUE(engine.SourceEvaluated(2));
  EXPECT_TRUE(engine.SourceEvaluated(4));
}

TEST(EngineCommitTest, SmoothedTrustInterpolatesTowardPrior) {
  MotivatingExample example = MakeMotivatingExample();
  IncEstimateOptions smoothed;
  smoothed.trust_prior_weight = 4.0;
  IncrementalEngine engine(example.dataset, smoothed);
  engine.CommitGroup(GroupOf(engine, 11), 1);  // r12 -> false; s4 wrong.
  engine.EndRound(1);
  // s4: (0 + 4*0.9) / (1 + 4) = 0.72 instead of the raw 0.
  EXPECT_NEAR(engine.trust()[3], 0.72, 1e-12);
  // s2 (correct F vote): (1 + 3.6) / 5 = 0.92.
  EXPECT_NEAR(engine.trust()[1], 0.92, 1e-12);
}

TEST(EngineDeathTest, FinishWithRemainingFactsAborts) {
  MotivatingExample example = MakeMotivatingExample();
  EXPECT_DEATH(
      {
        IncrementalEngine engine(example.dataset, PaperExact());
        std::move(engine).Finish("premature");
      },
      "unevaluated");
}

}  // namespace
}  // namespace corrob
