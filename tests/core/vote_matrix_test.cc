// VoteMatrix: a non-owning sweep view over a Dataset. Its ForEach
// sweeps cover every id once, and its ResidentBytes is what the
// iterative corroborators check ResourceBudget::max_vote_matrix_bytes
// against.

#include "core/vote_matrix.h"

#include <gtest/gtest.h>

#include <atomic>
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

TEST(VoteMatrixTest, ForEachCoversEveryIdOnceSequentially) {
  Dataset dataset = MakeRandomDataset(123);
  VoteMatrix matrix(dataset);
  std::vector<int> fact_hits(static_cast<size_t>(dataset.num_facts()), 0);
  matrix.ForEachFact(nullptr, [&](FactId f) {
    ++fact_hits[static_cast<size_t>(f)];
  });
  for (int h : fact_hits) EXPECT_EQ(h, 1);

  std::vector<int> source_hits(static_cast<size_t>(dataset.num_sources()), 0);
  matrix.ForEachSource(nullptr, [&](SourceId s) {
    ++source_hits[static_cast<size_t>(s)];
  });
  for (int h : source_hits) EXPECT_EQ(h, 1);
}

TEST(VoteMatrixTest, ForEachWithPoolCoversEveryIdOnce) {
  Dataset dataset = MakeRandomDataset(321);
  VoteMatrix matrix(dataset);
  auto pool = MakeSweepPool(4);
  ASSERT_NE(pool, nullptr);
  std::vector<std::atomic<int>> hits(
      static_cast<size_t>(dataset.num_facts()));
  for (auto& h : hits) h.store(0);
  matrix.ForEachFact(pool.get(), [&](FactId f) {
    hits[static_cast<size_t>(f)].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(MakeSweepPoolTest, NullForSequentialCounts) {
  EXPECT_EQ(MakeSweepPool(0), nullptr);
  EXPECT_EQ(MakeSweepPool(1), nullptr);
  auto pool = MakeSweepPool(3);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), 3);
}

// The byte cap through real runs of every method that sweeps the
// view, sequential and pooled.
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

  const Dataset dataset_ = MakeRandomDataset(0xB17E);
};

TEST_P(VoteMatrixByteCapTest, OneByteCapExhaustsBeforeTheFirstIteration) {
  ResourceBudget budget;
  budget.max_vote_matrix_bytes = 1;
  const CorroborationResult capped = Run(RunContext().WithBudget(budget));
  EXPECT_EQ(capped.termination, Termination::kBudgetExhausted);
  EXPECT_EQ(capped.iterations, 0);
  for (double p : capped.fact_probability) EXPECT_EQ(p, 0.5);

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
  budget.max_vote_matrix_bytes = VoteMatrix(dataset_).ResidentBytes();
  const CorroborationResult capped = Run(RunContext().WithBudget(budget));
  EXPECT_NE(capped.termination, Termination::kBudgetExhausted);
  EXPECT_GT(capped.iterations, 0);
  ExpectBitIdenticalResults(capped, Run(RunContext::Unbounded()));
}

INSTANTIATE_TEST_SUITE_P(
    SweepMethods, VoteMatrixByteCapTest,
    ::testing::Combine(::testing::Values("TwoEstimate", "ThreeEstimate",
                                         "TruthFinder", "Cosine"),
                       ::testing::Values(1, 4)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "threads";
    });

}  // namespace
}  // namespace corrob
