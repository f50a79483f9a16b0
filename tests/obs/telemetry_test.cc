#include "obs/telemetry.h"

#include <algorithm>
#include <cstdint>
#include <gtest/gtest.h>
#include <string>

#include "common/budget.h"
#include "core/inc_estimate.h"
#include "core/registry.h"
#include "core/run_context.h"
#include "core/two_estimate.h"
#include "obs/trace.h"
#include "synth/synthetic.h"

namespace corrob {
namespace obs {
namespace {

SyntheticDataset MakeCorpus(int32_t facts = 600) {
  SyntheticOptions options;
  options.num_facts = facts;
  options.num_sources = 8;
  options.num_inaccurate = 2;
  options.eta = 0.05;
  options.seed = 20140328;  // the paper's conference date
  return GenerateSynthetic(options).ValueOrDie();
}

TEST(TelemetryTest, TrustDistributionComputesMinMeanMax) {
  double min = -1, mean = -1, max = -1;
  TrustDistribution({0.25, 0.5, 0.75}, &min, &mean, &max);
  EXPECT_DOUBLE_EQ(min, 0.25);
  EXPECT_DOUBLE_EQ(mean, 0.5);
  EXPECT_DOUBLE_EQ(max, 0.75);
  TrustDistribution({}, &min, &mean, &max);
  EXPECT_EQ(min, 0.0);
  EXPECT_EQ(mean, 0.0);
  EXPECT_EQ(max, 0.0);
}

TEST(TelemetryTest, RunWithoutCollectionAttachesNothing) {
  SyntheticDataset corpus = MakeCorpus(100);
  TwoEstimateCorroborator two_estimate;
  CorroborationResult result = two_estimate.Run(corpus.dataset).ValueOrDie();
  EXPECT_EQ(result.telemetry, nullptr);
}

TEST(TelemetryTest, FixpointRunRecordsIterations) {
  SyntheticDataset corpus = MakeCorpus(200);
  TwoEstimateOptions options;
  options.collect_telemetry = true;
  TwoEstimateCorroborator two_estimate(options);
  CorroborationResult result = two_estimate.Run(corpus.dataset).ValueOrDie();
  ASSERT_NE(result.telemetry, nullptr);
  const RunTelemetry& telemetry = *result.telemetry;
  EXPECT_EQ(telemetry.algorithm, "TwoEstimate");
  EXPECT_EQ(telemetry.num_facts, 200);
  EXPECT_EQ(telemetry.num_sources, 8);
  EXPECT_TRUE(telemetry.converged);
  ASSERT_FALSE(telemetry.iteration_stats.empty());
  EXPECT_EQ(static_cast<int32_t>(telemetry.iteration_stats.size()),
            telemetry.iterations);
  for (const IterationStats& stats : telemetry.iteration_stats) {
    EXPECT_LE(stats.trust_min, stats.trust_mean);
    EXPECT_LE(stats.trust_mean, stats.trust_max);
  }
  // The final iteration is the converged one: delta under tolerance.
  EXPECT_LT(telemetry.iteration_stats.back().max_delta,
            options.tolerance);
}

TEST(TelemetryTest, IncEstimateRoundsSatisfyBalancedCommitInvariant) {
  // The paper's balanced selection commits n = min(|FG+|, |FG-|)
  // facts per side. Every recorded balanced round must show exactly
  // that relation, and 2n facts committed in total.
  SyntheticDataset corpus = MakeCorpus();
  IncEstimateOptions options;
  options.collect_telemetry = true;
  IncEstimateCorroborator inc_est(options);
  CorroborationResult result = inc_est.Run(corpus.dataset).ValueOrDie();
  ASSERT_NE(result.telemetry, nullptr);
  const RunTelemetry& telemetry = *result.telemetry;
  ASSERT_FALSE(telemetry.rounds.empty());

  int balanced_rounds = 0;
  int32_t last_round = 0;
  for (const IncRoundEvent& event : telemetry.rounds) {
    EXPECT_GT(event.round, last_round);
    last_round = event.round;
    if (event.kind != "balanced") continue;
    ++balanced_rounds;
    EXPECT_EQ(event.committed_n,
              std::min(event.fg_positive, event.fg_negative))
        << "round " << event.round;
    EXPECT_EQ(event.facts_committed, 2 * event.committed_n)
        << "round " << event.round;
    EXPECT_FALSE(event.positive_signature.empty());
    EXPECT_FALSE(event.negative_signature.empty());
    EXPECT_GE(event.positive_group, 0);
    EXPECT_GE(event.negative_group, 0);
  }
  EXPECT_GT(balanced_rounds, 0);

  // Every fact the corroborator decided shows up in some round.
  int64_t total_committed = 0;
  for (const IncRoundEvent& event : telemetry.rounds) {
    total_committed += event.facts_committed;
  }
  EXPECT_EQ(total_committed, corpus.dataset.num_facts());
}

TEST(TelemetryTest, CappedIncEstimateRoundsCommitAtMostHalfTheCapPerSide) {
  // Under max_facts_per_round a balanced round still commits n per
  // side, with n additionally capped at max(1, cap / 2): the round
  // stays within the cap, except that it always makes progress.
  SyntheticDataset corpus = MakeCorpus();
  IncEstimateOptions options;
  options.collect_telemetry = true;
  IncEstimateCorroborator inc_est(options);
  for (int64_t cap : {1, 10}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    ResourceBudget budget;
    budget.max_facts_per_round = cap;
    RunContext context;
    context.WithBudget(budget);
    CorroborationResult result =
        inc_est.Run(corpus.dataset, context).ValueOrDie();
    ASSERT_NE(result.telemetry, nullptr);

    int capped_rounds = 0;
    for (const IncRoundEvent& event : result.telemetry->rounds) {
      if (event.kind != "balanced") continue;
      const int64_t uncapped = std::min(event.fg_positive, event.fg_negative);
      EXPECT_EQ(event.committed_n,
                std::min(uncapped, std::max<int64_t>(1, cap / 2)))
          << "round " << event.round;
      EXPECT_EQ(event.facts_committed, 2 * event.committed_n)
          << "round " << event.round;
      if (event.committed_n < uncapped) ++capped_rounds;
    }
    EXPECT_GT(capped_rounds, 0);
  }
}

TEST(TelemetryTest, JsonRoundTripPreservesEverything) {
  SyntheticDataset corpus = MakeCorpus(300);
  IncEstimateOptions options;
  options.collect_telemetry = true;
  IncEstimateCorroborator inc_est(options);
  CorroborationResult result = inc_est.Run(corpus.dataset).ValueOrDie();
  ASSERT_NE(result.telemetry, nullptr);

  std::string json = TelemetryToJsonString(*result.telemetry);
  RunTelemetry parsed;
  std::string error;
  ASSERT_TRUE(TelemetryFromJsonString(json, &parsed, &error)) << error;
  EXPECT_EQ(TelemetryToJsonString(parsed), json);
  EXPECT_EQ(parsed.algorithm, result.telemetry->algorithm);
  EXPECT_EQ(parsed.rounds.size(), result.telemetry->rounds.size());
}

TEST(TelemetryTest, FromJsonRejectsMalformedInput) {
  RunTelemetry out;
  std::string error;
  EXPECT_FALSE(TelemetryFromJsonString("not json", &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(TelemetryFromJsonString("{}", &out, &error));
  EXPECT_FALSE(
      TelemetryFromJsonString("{\"schema\":\"bogus/9\"}", &out, &error));
}

TEST(TelemetryTest, TelemetryIsByteIdenticalAcrossRunsAndThreadCounts) {
  // Telemetry must contain no clocks, thread ids, or pointer values:
  // two identical runs — even at different thread counts, even while
  // tracing is live — serialize to the same bytes.
  SyntheticDataset corpus = MakeCorpus();
  auto run = [&](const std::string& name, int threads) {
    CorroboratorOptions shared;
    shared.num_threads = threads;
    shared.collect_telemetry = true;
    auto corroborator = MakeCorroborator(name, shared).ValueOrDie();
    CorroborationResult result = corroborator->Run(corpus.dataset).ValueOrDie();
    return TelemetryToJsonString(*result.telemetry);
  };
  for (const std::string name :
       {"TwoEstimate", "ThreeEstimate", "IncEstHeu", "BayesEstimate"}) {
    const std::string sequential = run(name, 1);
    EXPECT_EQ(run(name, 1), sequential) << name;
    EXPECT_EQ(run(name, 4), sequential) << name;
  }
  // Tracing observes but never perturbs.
  TraceRecorder::Global().Clear();
  TraceRecorder::Global().Start();
  const std::string traced = run("IncEstHeu", 4);
  TraceRecorder::Global().Stop();
  EXPECT_GT(TraceRecorder::Global().event_count(), 0);
  TraceRecorder::Global().Clear();
  EXPECT_EQ(traced, run("IncEstHeu", 1));
}

}  // namespace
}  // namespace obs
}  // namespace corrob
