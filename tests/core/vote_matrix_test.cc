// VoteMatrix: an O(1) counting view over a Dataset. The byte-cap
// suite checks ResourceBudget::max_vote_matrix_bytes, which the
// fixpoint driver enforces against Dataset::ResidentBytes.

#include "core/vote_matrix.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/budget.h"
#include "core/registry.h"
#include "core/run_context.h"
#include "testing/property.h"

namespace corrob {
namespace {

using proptest::ExpectBitIdenticalBestSoFar;
using proptest::ExpectBitIdenticalResults;
using proptest::MakeRandomDataset;

// The view borrows the Dataset; binding it to a temporary would
// dangle.
static_assert(!std::is_constructible_v<VoteMatrix, Dataset&&>);

TEST(VoteMatrixTest, EmptyDataset) {
  const Dataset dataset;
  VoteMatrix matrix(dataset);
  EXPECT_EQ(matrix.num_facts(), 0);
  EXPECT_EQ(matrix.num_sources(), 0);
  EXPECT_EQ(matrix.num_votes(), 0);
}

// The byte cap through real runs of every method on the fixpoint
// driver, sequential and (except for Pasternack's sequential
// variants) pooled.
class VoteMatrixByteCapTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {
 protected:
  std::unique_ptr<Corroborator> Make() const {
    CorroboratorOptions options;
    options.num_threads = std::get<1>(GetParam());
    return MakeCorroborator(std::get<0>(GetParam()), options).ValueOrDie();
  }

  CorroborationResult Run(const RunContext& context) const {
    return Make()->Run(dataset_, context).ValueOrDie();
  }

  bool IsPasternack() const {
    const std::string& name = std::get<0>(GetParam());
    return name == "AvgLog" || name == "Invest" || name == "PooledInvest";
  }

  const Dataset dataset_ = MakeRandomDataset(0xB17E);
};

TEST_P(VoteMatrixByteCapTest, OneByteCapExhaustsBeforeTheFirstIteration) {
  ResourceBudget budget;
  budget.max_vote_matrix_bytes = 1;
  const CorroborationResult capped = Run(RunContext().WithBudget(budget));
  EXPECT_EQ(capped.termination, Termination::kBudgetExhausted);
  EXPECT_EQ(capped.iterations, 0);
  if (!IsPasternack()) {
    // Pasternack's initial beliefs are all 0, so a voted fact reads 0.
    for (double p : capped.fact_probability) EXPECT_EQ(p, 0.5);
  }

  // The initial state: what a run cancelled before its first
  // iteration hands back.
  CancellationToken token;
  token.Cancel();
  const CorroborationResult cancelled =
      Run(RunContext().WithCancellation(&token));
  ASSERT_EQ(cancelled.iterations, 0);
  ExpectBitIdenticalBestSoFar(capped, cancelled);
}

TEST_P(VoteMatrixByteCapTest, CapAtResidentBytesRunsUntouched) {
  ResourceBudget budget;
  budget.max_vote_matrix_bytes = dataset_.ResidentBytes();
  const CorroborationResult capped = Run(RunContext().WithBudget(budget));
  EXPECT_NE(capped.termination, Termination::kBudgetExhausted);
  EXPECT_GT(capped.iterations, 0);
  ExpectBitIdenticalResults(capped, Run(RunContext::Unbounded()));
}

std::vector<std::tuple<std::string, int>> CappedRuns() {
  std::vector<std::tuple<std::string, int>> runs;
  for (const char* method :
       {"TwoEstimate", "ThreeEstimate", "TruthFinder", "Cosine"}) {
    runs.emplace_back(method, 1);
    runs.emplace_back(method, 4);
  }
  for (const char* method : {"AvgLog", "Invest", "PooledInvest"}) {
    runs.emplace_back(method, 1);
  }
  return runs;
}

INSTANTIATE_TEST_SUITE_P(
    SweepMethods, VoteMatrixByteCapTest, ::testing::ValuesIn(CappedRuns()),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "threads";
    });

}  // namespace
}  // namespace corrob
