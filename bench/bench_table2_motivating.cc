// Table 2 + Figure 1: the motivating example. Reproduces the paper's
// strategy comparison and the round-by-round trust of the scripted
// incremental walkthrough.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/inc_estimate.h"
#include "core/registry.h"
#include "data/motivating_example.h"
#include "eval/metrics.h"

namespace corrob {
namespace {

void PrintFigure1Walkthrough(const MotivatingExample& example) {
  // The §2.3 three-round schedule: {r9, r12}, {r5, r6}, then the rest,
  // with the paper-exact (unsmoothed) trust update.
  IncEstimateOptions options;
  options.trust_prior_weight = 0.0;
  options.record_trajectory = true;
  IncrementalEngine engine(example.dataset, options);

  auto group_of = [&](FactId fact) {
    return engine.index().group_of_fact(fact);
  };

  engine.CommitGroup(group_of(8), 1);   // r9
  engine.CommitGroup(group_of(11), 1);  // r12
  engine.EndRound(2);
  engine.CommitGroup(group_of(4), 1);  // r5
  engine.CommitGroup(group_of(5), 1);  // r6
  engine.EndRound(2);
  engine.EndRound(engine.CommitAllRemaining());
  CorroborationResult result = std::move(engine).Finish("Walkthrough");

  std::printf("Figure 1 trust per round (paper: {-,1,1,0,1} -> "
              "{0,1,1,0,1} -> {0.67,1,1,0.7,1}):\n");
  for (size_t point = 1; point < result.trajectory.size(); ++point) {
    std::printf("  round %zu:", point);
    for (double t : result.trajectory[point].trust) {
      std::printf(" %.2f", t);
    }
    std::printf("\n");
  }
  BinaryMetrics metrics = EvaluateOnTruth(result, example.truth);
  std::printf("Walkthrough scores: P=%.2f R=%.2f Acc=%.2f "
              "(paper: 0.78 / 1 / 0.83)\n\n",
              metrics.precision, metrics.recall, metrics.accuracy);
}

}  // namespace
}  // namespace corrob

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  corrob::bench::PrintHeader(
      "Table 2 / Figure 1 (motivating example)",
      "Strategy comparison on the 5-source / 12-restaurant example. "
      "Paper reference: TwoEstimate 0.64/1/0.67, BayesEstimate "
      "0.58/1/0.58, our strategy 0.78/1/0.83.");

  corrob::MotivatingExample example = corrob::MakeMotivatingExample();
  corrob::PrintFigure1Walkthrough(example);

  corrob::TablePrinter table(
      {"Method", "Precision", "Recall", "Accuracy"});
  for (const std::string& name : corrob::CorroboratorNames()) {
    auto algorithm = corrob::MakeCorroborator(name).ValueOrDie();
    corrob::CorroborationResult result =
        algorithm->Run(example.dataset).ValueOrDie();
    corrob::BinaryMetrics metrics =
        corrob::EvaluateOnTruth(result, example.truth);
    table.AddRow(name, {metrics.precision, metrics.recall,
                        metrics.accuracy});
  }
  std::fputs(table.ToString().c_str(), stdout);
  return 0;
}
