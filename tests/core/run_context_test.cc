#include "core/run_context.h"

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/failpoint.h"
#include "obs/clock.h"

namespace corrob {
namespace {

class RunContextTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DisarmAll(); }
};

TEST_F(RunContextTest, TerminationNamesAreStable) {
  EXPECT_EQ(TerminationName(Termination::kConverged), "converged");
  EXPECT_EQ(TerminationName(Termination::kIterationCap), "iteration_cap");
  EXPECT_EQ(TerminationName(Termination::kDeadlineExceeded),
            "deadline_exceeded");
  EXPECT_EQ(TerminationName(Termination::kCancelled), "cancelled");
  EXPECT_EQ(TerminationName(Termination::kBudgetExhausted),
            "budget_exhausted");
}

TEST_F(RunContextTest, TerminatedEarlyExcludesNaturalOutcomes) {
  EXPECT_FALSE(TerminatedEarly(Termination::kConverged));
  EXPECT_FALSE(TerminatedEarly(Termination::kIterationCap));
  EXPECT_TRUE(TerminatedEarly(Termination::kDeadlineExceeded));
  EXPECT_TRUE(TerminatedEarly(Termination::kCancelled));
  EXPECT_TRUE(TerminatedEarly(Termination::kBudgetExhausted));
}

TEST_F(RunContextTest, UnboundedNeverInterrupts) {
  const RunContext& context = RunContext::Unbounded();
  EXPECT_EQ(context.sweep_stop(), nullptr);
  EXPECT_EQ(context.CheckIterationBoundary(0), std::nullopt);
  EXPECT_EQ(context.CheckIterationBoundary(1 << 30), std::nullopt);
  EXPECT_EQ(context.CheckMatrixBytes(int64_t{1} << 40), std::nullopt);
}

TEST_F(RunContextTest, CancellationFiresAtTheBoundary) {
  CancellationToken token;
  RunContext context;
  context.WithCancellation(&token);
  ASSERT_NE(context.sweep_stop(), nullptr);
  EXPECT_EQ(context.CheckIterationBoundary(0), std::nullopt);
  token.Cancel();
  EXPECT_EQ(context.CheckIterationBoundary(1), Termination::kCancelled);
  EXPECT_EQ(context.SweepInterruption(), Termination::kCancelled);
}

TEST_F(RunContextTest, DeadlineFiresAtTheBoundary) {
  obs::ManualClock clock;
  RunContext context;
  context.WithDeadline(Deadline::After(&clock, 1000));
  ASSERT_NE(context.sweep_stop(), nullptr);
  EXPECT_EQ(context.CheckIterationBoundary(0), std::nullopt);
  clock.AdvanceNanos(1000);
  EXPECT_EQ(context.CheckIterationBoundary(1),
            Termination::kDeadlineExceeded);
  EXPECT_EQ(context.SweepInterruption(), Termination::kDeadlineExceeded);
}

TEST_F(RunContextTest, CancellationOutranksDeadlineInSweepInterruption) {
  obs::ManualClock clock;
  CancellationToken token;
  token.Cancel();
  RunContext context;
  context.WithCancellation(&token);
  context.WithDeadline(Deadline::After(&clock, 0));
  EXPECT_EQ(context.SweepInterruption(), Termination::kCancelled);
}

TEST_F(RunContextTest, RoundBudgetFiresOnCompletedIterations) {
  RunContext context;
  ResourceBudget budget;
  budget.max_rounds = 3;
  context.WithBudget(budget);
  // A round budget alone arms no stop signal: sweeps stay on the
  // exact legacy path and only the boundary poll enforces the cap.
  EXPECT_EQ(context.sweep_stop(), nullptr);
  EXPECT_EQ(context.CheckIterationBoundary(0), std::nullopt);
  EXPECT_EQ(context.CheckIterationBoundary(2), std::nullopt);
  EXPECT_EQ(context.CheckIterationBoundary(3),
            Termination::kBudgetExhausted);
  EXPECT_EQ(context.CheckIterationBoundary(4),
            Termination::kBudgetExhausted);
}

TEST_F(RunContextTest, MatrixByteCapIsExclusive) {
  RunContext context;
  ResourceBudget budget;
  budget.max_vote_matrix_bytes = 4096;
  context.WithBudget(budget);
  EXPECT_EQ(context.CheckMatrixBytes(4096), std::nullopt);  // at cap: ok
  EXPECT_EQ(context.CheckMatrixBytes(4097),
            Termination::kBudgetExhausted);
  EXPECT_EQ(RunContext::Unbounded().CheckMatrixBytes(1 << 30),
            std::nullopt);
}

TEST_F(RunContextTest, ForceExpireFailpointReportsDeadline) {
  ASSERT_TRUE(Failpoints::ArmFromSpec("budget.force_expire=fail").ok());
  EXPECT_EQ(RunContext::Unbounded().CheckIterationBoundary(0),
            Termination::kDeadlineExceeded);
}

TEST_F(RunContextTest, CancelAtIterationSkipCountsBoundaries) {
  // skip=3: the boundary polls after iterations 0, 1 and 2 pass, the
  // poll after the 3rd completed iteration reports kCancelled — the
  // exact contract the termination-parity tests build on.
  ASSERT_TRUE(
      Failpoints::ArmFromSpec("cancel.at_iteration=fail:1:skip=3").ok());
  const RunContext& context = RunContext::Unbounded();
  EXPECT_EQ(context.CheckIterationBoundary(0), std::nullopt);
  EXPECT_EQ(context.CheckIterationBoundary(1), std::nullopt);
  EXPECT_EQ(context.CheckIterationBoundary(2), std::nullopt);
  EXPECT_EQ(context.CheckIterationBoundary(3), Termination::kCancelled);
  // fail:1 is spent; later boundaries keep going.
  EXPECT_EQ(context.CheckIterationBoundary(4), std::nullopt);
}

TEST_F(RunContextTest, FailpointsOutrankRealBudgets) {
  ASSERT_TRUE(Failpoints::ArmFromSpec("budget.force_expire=fail").ok());
  CancellationToken token;
  token.Cancel();
  RunContext context;
  context.WithCancellation(&token);
  // The failpoint is serviced before the real token so tests can pin
  // a reason deterministically even under a live cancellation.
  EXPECT_EQ(context.CheckIterationBoundary(0),
            Termination::kDeadlineExceeded);
}

TEST_F(RunContextTest, FluentSettersCompose) {
  obs::ManualClock clock;
  CancellationToken token;
  ResourceBudget budget;
  budget.max_rounds = 7;
  RunContext context;
  context.WithCancellation(&token)
      .WithDeadline(Deadline::After(&clock, 50))
      .WithBudget(budget);
  EXPECT_EQ(context.stop().cancellation(), &token);
  EXPECT_FALSE(context.stop().deadline().infinite());
  EXPECT_EQ(context.budget().max_rounds, 7);
  // Setting the deadline second must not have dropped the token.
  token.Cancel();
  EXPECT_TRUE(context.stop().cancelled());
}

}  // namespace
}  // namespace corrob
