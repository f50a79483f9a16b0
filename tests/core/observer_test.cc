#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/inc_estimate.h"
#include "data/motivating_example.h"

namespace corrob {
namespace {

// The telemetry IncRoundEvent stream is IncEstimate's only per-round
// record; these cases pin its round numbering and selection fields.
CorroborationResult RunWithTelemetry(IncEstimateOptions options) {
  MotivatingExample example = MakeMotivatingExample();
  options.collect_telemetry = true;
  return IncEstimateCorroborator(options).Run(example.dataset).ValueOrDie();
}

TEST(RoundObserverTest, ReceivesEveryRoundInOrder) {
  CorroborationResult result = RunWithTelemetry({});
  ASSERT_NE(result.telemetry, nullptr);
  const std::vector<obs::IncRoundEvent>& rounds = result.telemetry->rounds;

  ASSERT_EQ(static_cast<int>(rounds.size()), result.iterations);
  int64_t committed = 0;
  for (size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i].round, static_cast<int>(i) + 1);
    EXPECT_GT(rounds[i].facts_committed, 0);
    committed += rounds[i].facts_committed;
  }
  EXPECT_EQ(committed, 12);
  // The run ends with the terminal wholesale commit of the leftover
  // side/ties, never with a balanced round.
  const std::string& last = rounds.back().kind;
  EXPECT_TRUE(last == "final_ties" || last == "one_sided_positive" ||
              last == "one_sided_negative")
      << last;
}

TEST(RoundObserverTest, BalancedRoundsCarryGroupIds) {
  CorroborationResult result = RunWithTelemetry({});
  ASSERT_NE(result.telemetry, nullptr);
  std::vector<obs::IncRoundEvent> balanced;
  for (const obs::IncRoundEvent& event : result.telemetry->rounds) {
    if (event.kind == "balanced") balanced.push_back(event);
  }
  ASSERT_FALSE(balanced.empty());
  for (const obs::IncRoundEvent& event : balanced) {
    EXPECT_GE(event.positive_group, 0);
    EXPECT_GE(event.negative_group, 0);
    EXPECT_NE(event.positive_group, event.negative_group);
  }
}

TEST(RoundObserverTest, GreedyRoundsForIncEstPS) {
  IncEstimateOptions options;
  options.strategy = IncSelectStrategy::kProbability;
  CorroborationResult result = RunWithTelemetry(options);
  ASSERT_NE(result.telemetry, nullptr);
  int greedy_rounds = 0;
  for (const obs::IncRoundEvent& event : result.telemetry->rounds) {
    if (event.kind == "greedy") ++greedy_rounds;
    EXPECT_EQ(event.negative_group, -1);
  }
  EXPECT_EQ(greedy_rounds, result.iterations);
}

}  // namespace
}  // namespace corrob
