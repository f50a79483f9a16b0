#include "cli/cli.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "core/online_checkpoint.h"
#include "data/dataset_io.h"
#include "data/motivating_example.h"
#include "obs/json.h"
#include "obs/telemetry.h"

namespace corrob {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dataset_path_ = UniquePath("corrob_cli_dataset.csv");
    MotivatingExample example = MakeMotivatingExample();
    ASSERT_TRUE(
        SaveDatasetCsv(dataset_path_, example.dataset, &example.truth).ok());
  }

  void TearDown() override {
    std::remove(dataset_path_.c_str());
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }

  std::string TempPath(const std::string& name) {
    std::string path = UniquePath(name);
    cleanup_.push_back(path);
    return path;
  }

  // `name` under the temp dir, prefixed with the running test's name
  // and the pid so that concurrent test processes never share a file.
  static std::string UniquePath(const std::string& name) {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + "/" + test->name() + "_" +
           std::to_string(getpid()) + "_" + name;
  }

  int Run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return RunCli(args, out_, err_);
  }

  std::string dataset_path_;
  std::vector<std::string> cleanup_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, HelpPrintsUsage) {
  EXPECT_EQ(Run({"help"}), 0);
  EXPECT_NE(out_.str().find("USAGE"), std::string::npos);
  EXPECT_EQ(Run({}), 0);
  EXPECT_NE(out_.str().find("corrob run"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_EQ(Run({"frobnicate"}), 1);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, RunPrintsDecisionsCsv) {
  ASSERT_EQ(Run({"run", "--input", dataset_path_, "--algorithm",
                 "TwoEstimate"}),
            0);
  CsvDocument doc = ParseCsv(out_.str()).ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 13u);  // header + 12 facts
  EXPECT_EQ(doc.rows[0],
            (std::vector<std::string>{"fact", "probability", "decision"}));
  // TwoEstimate: everything true except r12.
  EXPECT_EQ(doc.rows[1][2], "true");
  EXPECT_EQ(doc.rows[12][0], "r12");
  EXPECT_EQ(doc.rows[12][2], "false");
}

TEST_F(CliTest, RunWritesOutputAndTrustFiles) {
  std::string output = TempPath("cli_out.csv");
  std::string trust = TempPath("cli_trust.csv");
  ASSERT_EQ(Run({"run", "--input", dataset_path_, "--algorithm", "IncEstHeu",
                 "--output", output, "--trust", trust}),
            0);
  CsvDocument decisions = ReadCsvFile(output).ValueOrDie();
  EXPECT_EQ(decisions.rows.size(), 13u);
  CsvDocument trust_doc = ReadCsvFile(trust).ValueOrDie();
  ASSERT_EQ(trust_doc.rows.size(), 6u);  // header + 5 sources
  EXPECT_EQ(trust_doc.rows[0],
            (std::vector<std::string>{"source", "trust"}));
}

TEST_F(CliTest, RunRejectsUnknownAlgorithm) {
  EXPECT_EQ(Run({"run", "--input", dataset_path_, "--algorithm", "Oracle"}),
            1);
  EXPECT_NE(err_.str().find("Oracle"), std::string::npos);
}

TEST_F(CliTest, RunRequiresInput) {
  EXPECT_EQ(Run({"run"}), 1);
  EXPECT_NE(err_.str().find("--input"), std::string::npos);
}

TEST_F(CliTest, ThreadsFlagRejectsBadValues) {
  // Zero, negative and non-numeric thread counts are usage errors on
  // stderr with exit 1 — never aborts, never silent fallbacks.
  for (const std::string bad : {"0", "-3", "abc", "2.5", ""}) {
    EXPECT_EQ(Run({"run", "--input", dataset_path_, "--threads=" + bad}), 1)
        << "--threads=" << bad;
    EXPECT_NE(err_.str().find("--threads"), std::string::npos)
        << "--threads=" << bad;
  }
}

TEST_F(CliTest, ThreadsFlagAcceptsPositiveCount) {
  ASSERT_EQ(Run({"run", "--input", dataset_path_, "--algorithm",
                 "TwoEstimate", "--threads", "2"}),
            0);
  CsvDocument doc = ParseCsv(out_.str()).ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 13u);
}

TEST_F(CliTest, EvalScoresAllAlgorithms) {
  ASSERT_EQ(Run({"eval", "--input", dataset_path_}), 0);
  std::string output = out_.str();
  EXPECT_NE(output.find("TwoEstimate"), std::string::npos);
  EXPECT_NE(output.find("IncEstHeu"), std::string::npos);
  EXPECT_EQ(output.find("TruthFinder"), std::string::npos);

  ASSERT_EQ(Run({"eval", "--input", dataset_path_, "--extended"}), 0);
  EXPECT_NE(out_.str().find("TruthFinder"), std::string::npos);
}

TEST_F(CliTest, EvalSingleAlgorithm) {
  ASSERT_EQ(
      Run({"eval", "--input", dataset_path_, "--algorithm", "Voting"}), 0);
  EXPECT_NE(out_.str().find("Voting"), std::string::npos);
  EXPECT_EQ(out_.str().find("IncEstHeu"), std::string::npos);
}

TEST_F(CliTest, EvalWithGoldenSubset) {
  std::string golden = TempPath("cli_golden.csv");
  std::ofstream file(golden);
  file << "fact,label\nr1,true\nr12,false\n";
  file.close();
  ASSERT_EQ(Run({"eval", "--input", dataset_path_, "--algorithm",
                 "TwoEstimate", "--golden", golden}),
            0);
  // TwoEstimate is right on both golden entries: accuracy 1.00.
  EXPECT_NE(out_.str().find("1.00"), std::string::npos);
}

TEST_F(CliTest, EvalRequiresTruth) {
  // Strip the truth column by re-saving without it.
  MotivatingExample example = MakeMotivatingExample();
  std::string no_truth = TempPath("cli_no_truth.csv");
  ASSERT_TRUE(SaveDatasetCsv(no_truth, example.dataset).ok());
  EXPECT_EQ(Run({"eval", "--input", no_truth}), 1);
  EXPECT_NE(err_.str().find("__truth__"), std::string::npos);
}

TEST_F(CliTest, StatsReportsShape) {
  ASSERT_EQ(Run({"stats", "--input", dataset_path_}), 0);
  std::string output = out_.str();
  EXPECT_NE(output.find("facts: 12"), std::string::npos);
  EXPECT_NE(output.find("sources: 5"), std::string::npos);
  EXPECT_NE(output.find("facts with F votes: 2"), std::string::npos);
}

TEST_F(CliTest, GenerateSyntheticRoundTrips) {
  std::string output = TempPath("cli_synth.csv");
  ASSERT_EQ(Run({"generate", "--kind", "synthetic", "--facts", "200",
                 "--sources", "6", "--output", output}),
            0);
  LabeledDataset loaded = LoadDatasetCsv(output).ValueOrDie();
  EXPECT_EQ(loaded.dataset.num_facts(), 200);
  EXPECT_EQ(loaded.dataset.num_sources(), 6);
  ASSERT_TRUE(loaded.truth.has_value());
}

TEST_F(CliTest, GenerateRejectsUnknownKind) {
  EXPECT_EQ(Run({"generate", "--kind", "weather", "--output",
                 TempPath("x.csv")}),
            1);
  EXPECT_NE(err_.str().find("unknown --kind"), std::string::npos);
}

TEST_F(CliTest, DedupEndToEnd) {
  std::string listings = TempPath("cli_listings.csv");
  std::ofstream file(listings);
  file << "source,name,address,closed\n"
          "Yelp,M Bar,12 W 44th St,false\n"
          "Citysearch,M Bar,12 West 44 Street,false\n"
          "Yelp,Other Place,99 Oak Ave,true\n";
  file.close();

  std::string output = TempPath("cli_dedup.csv");
  ASSERT_EQ(Run({"dedup", "--input", listings, "--output", output}), 0);
  EXPECT_NE(out_.str().find("into 2 entities"), std::string::npos);
  LabeledDataset loaded = LoadDatasetCsv(output).ValueOrDie();
  EXPECT_EQ(loaded.dataset.num_facts(), 2);
  EXPECT_EQ(loaded.dataset.num_sources(), 2);
}

TEST_F(CliTest, TrajectoryWritesTimeSeries) {
  std::string output = TempPath("cli_trajectory.csv");
  ASSERT_EQ(
      Run({"trajectory", "--input", dataset_path_, "--output", output}), 0);
  CsvDocument doc = ReadCsvFile(output).ValueOrDie();
  ASSERT_GE(doc.rows.size(), 3u);
  EXPECT_EQ(doc.rows[0][0], "t");
  EXPECT_EQ(doc.rows[0][2], "s1");

  EXPECT_EQ(Run({"trajectory", "--input", dataset_path_, "--output",
                 output, "--strategy", "Greedy"}),
            1);
  EXPECT_EQ(Run({"trajectory", "--input", dataset_path_}), 1);
}

TEST_F(CliTest, CompareReportsDisagreements) {
  // IncEstHeu rejects r6; TwoEstimate accepts it — one disagreement.
  ASSERT_EQ(Run({"compare", "--input", dataset_path_, "--left", "IncEstHeu",
                 "--right", "TwoEstimate"}),
            0);
  std::string output = out_.str();
  EXPECT_NE(output.find("decided differently"), std::string::npos);
  // The truth column is present, so the win rate is reported.
  EXPECT_NE(output.find("is right on"), std::string::npos);
  EXPECT_NE(output.find("r6"), std::string::npos);
}

TEST_F(CliTest, CompareIdenticalAlgorithmsAgree) {
  ASSERT_EQ(Run({"compare", "--input", dataset_path_, "--left", "Voting",
                 "--right", "Voting"}),
            0);
  EXPECT_NE(out_.str().find("0 of 12 facts decided differently"),
            std::string::npos);
}

TEST_F(CliTest, CompareRejectsUnknownAlgorithm) {
  EXPECT_EQ(Run({"compare", "--input", dataset_path_, "--left", "Oracle"}),
            1);
}

TEST_F(CliTest, StreamPrintsDecisionsAndSummary) {
  std::string output = TempPath("cli_stream_out.csv");
  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--output", output}),
            0);
  CsvDocument doc = ReadCsvFile(output).ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 13u);  // header + 12 facts
  EXPECT_EQ(doc.rows[0],
            (std::vector<std::string>{"fact", "probability", "decision"}));
  EXPECT_NE(out_.str().find("observed 12 facts (12 this run)"),
            std::string::npos);
}

TEST_F(CliTest, StreamKillAndResumeMatchesUninterrupted) {
  std::string trust_clean = TempPath("cli_stream_trust_clean.csv");
  std::string trust_resumed = TempPath("cli_stream_trust_resumed.csv");
  std::string checkpoint = TempPath("cli_stream.snap");
  std::string devnull = TempPath("cli_stream_decisions.csv");

  // Reference: one uninterrupted pass.
  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--output", devnull,
                 "--trust", trust_clean}),
            0);

  // Killed at fact 6 by an injected fault; the checkpoint survives.
  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--checkpoint",
                 checkpoint, "--checkpoint-every", "2", "--failpoint",
                 "cli.stream.observe=fail:1:skip=6"}),
            1);
  EXPECT_NE(err_.str().find("checkpoint saved to " + checkpoint +
                            " at fact 6"),
            std::string::npos);

  // Resume finishes the remaining facts with identical final trust.
  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--checkpoint",
                 checkpoint, "--resume", "--output", devnull, "--trust",
                 trust_resumed}),
            0);
  EXPECT_NE(out_.str().find("resumed from " + checkpoint + " at fact 6"),
            std::string::npos);
  EXPECT_NE(out_.str().find("observed 12 facts (6 this run)"),
            std::string::npos);
  EXPECT_EQ(ReadFileToString(trust_resumed).ValueOrDie(),
            ReadFileToString(trust_clean).ValueOrDie());
}

TEST_F(CliTest, StreamInterruptWithoutCheckpointSavesDerivedPath) {
  std::string trust_clean = TempPath("cli_auto_trust_clean.csv");
  std::string trust_resumed = TempPath("cli_auto_trust_resumed.csv");
  std::string devnull = TempPath("cli_auto_decisions.csv");

  // Reference: one uninterrupted pass.
  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--output", devnull,
                 "--trust", trust_clean}),
            0);

  // Graceful interrupt at fact 5 with NO --checkpoint: the state must
  // land on the derived per-(input, output) path, not be lost.
  const std::string derived =
      DeriveInterruptCheckpointPath(dataset_path_, devnull);
  cleanup_.push_back(derived);
  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--output", devnull,
                 "--failpoint", "budget.force_expire=fail:1:skip=5"}),
            0);
  EXPECT_NE(err_.str().find("checkpoint saved, continue with --checkpoint " +
                            derived),
            std::string::npos);
  EXPECT_TRUE(ReadFileToString(derived).ok());

  // The derived checkpoint resumes to the same final trust as the
  // uninterrupted run.
  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--checkpoint",
                 derived, "--resume", "--output", devnull, "--trust",
                 trust_resumed}),
            0);
  EXPECT_NE(out_.str().find("at fact 5"), std::string::npos);
  EXPECT_EQ(ReadFileToString(trust_resumed).ValueOrDie(),
            ReadFileToString(trust_clean).ValueOrDie());
}

TEST_F(CliTest, StreamInterruptCheckpointsDoNotCollideAcrossRuns) {
  // Two streams over the same input writing different outputs in one
  // directory (the pre-fix collision): their interrupt checkpoints
  // must be distinct files, each resumable on its own.
  std::string output_a = TempPath("cli_collide_a.csv");
  std::string output_b = TempPath("cli_collide_b.csv");
  const std::string derived_a =
      DeriveInterruptCheckpointPath(dataset_path_, output_a);
  const std::string derived_b =
      DeriveInterruptCheckpointPath(dataset_path_, output_b);
  EXPECT_NE(derived_a, derived_b);
  // Same pair → same path (resume can find it); different input, same
  // output → still distinct.
  EXPECT_EQ(derived_a, DeriveInterruptCheckpointPath(dataset_path_, output_a));
  EXPECT_NE(derived_a, DeriveInterruptCheckpointPath("other.csv", output_a));
  cleanup_.push_back(derived_a);
  cleanup_.push_back(derived_b);

  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--output", output_a,
                 "--failpoint", "budget.force_expire=fail:1:skip=3"}),
            0);
  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--output", output_b,
                 "--failpoint", "budget.force_expire=fail:1:skip=7"}),
            0);
  // Both checkpoints exist independently, with their own progress.
  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--checkpoint",
                 derived_a, "--resume", "--output", output_a}),
            0);
  EXPECT_NE(out_.str().find("at fact 3"), std::string::npos);
  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--checkpoint",
                 derived_b, "--resume", "--output", output_b}),
            0);
  EXPECT_NE(out_.str().find("at fact 7"), std::string::npos);
}

TEST_F(CliTest, StreamRejectsBadResumeFlags) {
  EXPECT_EQ(Run({"stream", "--input", dataset_path_, "--resume"}), 1);
  EXPECT_NE(err_.str().find("--resume requires --checkpoint"),
            std::string::npos);
  EXPECT_EQ(Run({"stream", "--input", dataset_path_, "--checkpoint",
                 TempPath("x.snap"), "--checkpoint-every", "0"}),
            1);
  EXPECT_NE(err_.str().find("--checkpoint-every"), std::string::npos);
}

TEST_F(CliTest, StreamResumeRejectsMismatchedDataset) {
  std::string checkpoint = TempPath("cli_mismatch.snap");
  std::string devnull = TempPath("cli_mismatch_out.csv");
  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--checkpoint",
                 checkpoint, "--output", devnull}),
            0);
  std::string other = TempPath("cli_other_dataset.csv");
  ASSERT_EQ(Run({"generate", "--kind", "synthetic", "--facts", "30",
                 "--sources", "4", "--output", other}),
            0);
  EXPECT_EQ(Run({"stream", "--input", other, "--checkpoint", checkpoint,
                 "--resume"}),
            1);
  EXPECT_NE(err_.str().find("sources"), std::string::npos);
}

TEST_F(CliTest, BudgetFlagsRejectBadValues) {
  EXPECT_EQ(Run({"run", "--input", dataset_path_, "--algorithm",
                 "TwoEstimate", "--timeout-ms", "-5"}),
            1);
  EXPECT_NE(err_.str().find("--timeout-ms"), std::string::npos);
  EXPECT_EQ(Run({"run", "--input", dataset_path_, "--algorithm",
                 "TwoEstimate", "--max-rounds", "-1"}),
            1);
  EXPECT_NE(err_.str().find("max_rounds"), std::string::npos);
  EXPECT_EQ(Run({"run", "--input", dataset_path_, "--algorithm",
                 "TwoEstimate", "--max-memory-mb", "-2"}),
            1);
  EXPECT_EQ(Run({"run", "--input", dataset_path_, "--algorithm",
                 "TwoEstimate", "--max-rounds", "abc"}),
            1);
}

TEST_F(CliTest, RunWithRoundBudgetDegradesGracefully) {
  // A one-round budget cuts TwoEstimate far short of convergence; the
  // run must still exit 0 with a complete decisions CSV on stdout and
  // explain itself on stderr (stdout carries data, never notices).
  ASSERT_EQ(Run({"run", "--input", dataset_path_, "--algorithm",
                 "TwoEstimate", "--max-rounds", "1"}),
            0);
  CsvDocument doc = ParseCsv(out_.str()).ValueOrDie();
  EXPECT_EQ(doc.rows.size(), 13u);  // header + all 12 facts
  EXPECT_NE(err_.str().find("terminated early (budget_exhausted)"),
            std::string::npos);
  EXPECT_NE(err_.str().find("best-so-far"), std::string::npos);
}

TEST_F(CliTest, RunCancelledMidFixpointStillEmitsDecisions) {
  ASSERT_EQ(Run({"run", "--input", dataset_path_, "--algorithm",
                 "TwoEstimate", "--failpoint",
                 "cancel.at_iteration=fail:1:skip=1"}),
            0);
  CsvDocument doc = ParseCsv(out_.str()).ValueOrDie();
  EXPECT_EQ(doc.rows.size(), 13u);
  EXPECT_NE(err_.str().find("terminated early (cancelled)"),
            std::string::npos);
}

TEST_F(CliTest, GenerousBudgetsLeaveTheRunUntouched) {
  ASSERT_EQ(Run({"run", "--input", dataset_path_, "--algorithm",
                 "TwoEstimate", "--timeout-ms", "600000",
                 "--max-memory-mb", "4096"}),
            0);
  EXPECT_EQ(err_.str().find("terminated early"), std::string::npos);
  CsvDocument doc = ParseCsv(out_.str()).ValueOrDie();
  EXPECT_EQ(doc.rows.size(), 13u);
}

TEST_F(CliTest, StreamInterruptSavesCheckpointAndExitsZero) {
  std::string trust_clean = TempPath("cli_budget_trust_clean.csv");
  std::string trust_resumed = TempPath("cli_budget_trust_resumed.csv");
  std::string checkpoint = TempPath("cli_budget_stream.snap");
  std::string devnull = TempPath("cli_budget_decisions.csv");

  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--output", devnull,
                 "--trust", trust_clean}),
            0);

  // A cancellation landing after fact 6 (the failpoint stands in for
  // SIGINT, which would poison this process's shutdown token for
  // later tests) is a *graceful* stop: exit 0, checkpoint saved.
  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--checkpoint",
                 checkpoint, "--checkpoint-every", "2", "--output",
                 devnull, "--failpoint",
                 "cancel.at_iteration=fail:1:skip=6"}),
            0);
  EXPECT_NE(err_.str().find("stream interrupted (cancelled) at fact 6"),
            std::string::npos);
  EXPECT_NE(err_.str().find("checkpoint saved, continue with --checkpoint " +
                            checkpoint + " --resume"),
            std::string::npos);

  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--checkpoint",
                 checkpoint, "--resume", "--output", devnull, "--trust",
                 trust_resumed}),
            0);
  EXPECT_NE(out_.str().find("resumed from " + checkpoint + " at fact 6"),
            std::string::npos);
  EXPECT_EQ(ReadFileToString(trust_resumed).ValueOrDie(),
            ReadFileToString(trust_clean).ValueOrDie());
}

TEST_F(CliTest, LenientLoadReportsSkippedRows) {
  std::string noisy = TempPath("cli_noisy.csv");
  std::ofstream file(noisy);
  file << "fact,s1,s2\nr1,T,F\nr2,Q,T\nr3,T,-\n";
  file.close();

  // Strict (default) refuses the file outright, naming the culprit.
  EXPECT_EQ(Run({"stats", "--input", noisy}), 1);
  EXPECT_NE(err_.str().find("'Q'"), std::string::npos);
  EXPECT_NE(err_.str().find(noisy), std::string::npos);

  // Lenient loads the clean rows and reports the skip on stderr.
  ASSERT_EQ(Run({"stats", "--input", noisy, "--lenient"}), 0);
  EXPECT_NE(out_.str().find("facts: 2"), std::string::npos);
  EXPECT_NE(err_.str().find("skipped 1 of 3 rows"), std::string::npos);
}

TEST_F(CliTest, BadFailpointSpecFails) {
  EXPECT_EQ(Run({"stats", "--input", dataset_path_, "--failpoint",
                 "cli.stream.observe=explode"}),
            1);
  EXPECT_NE(err_.str().find("failpoint"), std::string::npos);
}

TEST_F(CliTest, FailpointInjectsIntoFileReads) {
  EXPECT_EQ(Run({"stats", "--input", dataset_path_, "--failpoint",
                 "io.read_file.open=fail:1"}),
            1);
  EXPECT_NE(err_.str().find("injected failure"), std::string::npos);
  // The arming is scoped to the invocation: the next run is clean.
  EXPECT_EQ(Run({"stats", "--input", dataset_path_}), 0);
}

TEST_F(CliTest, DedupRejectsBadHeader) {
  std::string listings = TempPath("cli_bad_listings.csv");
  std::ofstream file(listings);
  file << "a,b\n1,2\n";
  file.close();
  EXPECT_EQ(Run({"dedup", "--input", listings, "--output",
                 TempPath("y.csv")}),
            1);
  EXPECT_NE(err_.str().find("header"), std::string::npos);
}

TEST_F(CliTest, RunMethodAliasWritesTraceMetricsAndTelemetry) {
  // The PR's acceptance command: snake_case --method plus all three
  // observability sinks in one invocation.
  std::string trace = TempPath("cli_trace.json");
  std::string metrics = TempPath("cli_metrics.json");
  std::string telemetry = TempPath("cli_telemetry.json");
  ASSERT_EQ(Run({"run", "--input", dataset_path_, "--method", "inc_est_heu",
                 "--trace", trace, "--metrics", metrics, "--telemetry",
                 telemetry, "--output", TempPath("cli_run_out.csv")}),
            0);
  EXPECT_NE(out_.str().find("trace events to " + trace), std::string::npos);
  EXPECT_NE(out_.str().find("wrote metrics to " + metrics),
            std::string::npos);

  obs::JsonValue trace_json;
  std::string error;
  ASSERT_TRUE(obs::JsonValue::Parse(
      ReadFileToString(trace).ValueOrDie(), &trace_json, &error))
      << error;
  const obs::JsonValue* events = trace_json.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->size(), 0u);

  obs::JsonValue metrics_json;
  ASSERT_TRUE(obs::JsonValue::Parse(
      ReadFileToString(metrics).ValueOrDie(), &metrics_json, &error))
      << error;
  ASSERT_NE(metrics_json.Find("counters"), nullptr);
  const obs::JsonValue* scans =
      metrics_json.Find("counters")->Find("corrob.inc_est.delta_h_scans");
  ASSERT_NE(scans, nullptr);
  EXPECT_GT(scans->int_value(), 0);

  obs::RunTelemetry run_telemetry;
  ASSERT_TRUE(obs::TelemetryFromJsonString(
      ReadFileToString(telemetry).ValueOrDie(), &run_telemetry, &error))
      << error;
  EXPECT_EQ(run_telemetry.algorithm, "IncEstHeu");
  EXPECT_FALSE(run_telemetry.rounds.empty());
}

TEST_F(CliTest, RunTelemetryRejectsNonIterativeAlgorithm) {
  EXPECT_EQ(Run({"run", "--input", dataset_path_, "--algorithm", "Voting",
                 "--telemetry", TempPath("cli_no_telemetry.json")}),
            1);
  EXPECT_NE(err_.str().find("does not record telemetry"),
            std::string::npos);
}

TEST_F(CliTest, ExplainPrintsOneRowPerRound) {
  std::string telemetry = TempPath("cli_explain_telemetry.json");
  ASSERT_EQ(Run({"run", "--input", dataset_path_, "--method", "inc_est_heu",
                 "--telemetry", telemetry, "--output",
                 TempPath("cli_explain_out.csv")}),
            0);
  obs::RunTelemetry run_telemetry;
  ASSERT_TRUE(obs::TelemetryFromJsonString(
      ReadFileToString(telemetry).ValueOrDie(), &run_telemetry, nullptr));
  ASSERT_FALSE(run_telemetry.rounds.empty());

  ASSERT_EQ(Run({"explain", telemetry}), 0);
  const std::string rendered = out_.str();
  EXPECT_NE(rendered.find("IncEstHeu"), std::string::npos);
  EXPECT_NE(rendered.find("FG+ signature"), std::string::npos);
  // One table row per recorded round: every round number appears at a
  // row start.
  for (const obs::IncRoundEvent& event : run_telemetry.rounds) {
    EXPECT_NE(rendered.find("| " + std::to_string(event.round) + " "),
              std::string::npos)
        << "round " << event.round << " missing from:\n" << rendered;
  }
}

TEST_F(CliTest, ExplainRendersFixpointIterations) {
  std::string telemetry = TempPath("cli_explain_fix.json");
  ASSERT_EQ(Run({"run", "--input", dataset_path_, "--algorithm",
                 "TwoEstimate", "--telemetry", telemetry, "--output",
                 TempPath("cli_explain_fix_out.csv")}),
            0);
  ASSERT_EQ(Run({"explain", telemetry}), 0);
  EXPECT_NE(out_.str().find("TwoEstimate"), std::string::npos);
  EXPECT_NE(out_.str().find("Max delta"), std::string::npos);
}

TEST_F(CliTest, ExplainFailsCleanlyOnBadInput) {
  EXPECT_EQ(Run({"explain"}), 1);
  EXPECT_NE(err_.str().find("usage"), std::string::npos);
  EXPECT_EQ(Run({"explain", "/nonexistent/telemetry.json"}), 1);
  std::string junk = TempPath("cli_junk.json");
  ASSERT_TRUE(WriteStringToFile(junk, "{\"schema\": \"wrong\"}").ok());
  EXPECT_EQ(Run({"explain", junk}), 1);
}

TEST_F(CliTest, StreamResumeContinuesTelemetryCounters) {
  // The bugfix under test: counters must travel with the checkpoint,
  // so interrupted-then-resumed totals equal an uninterrupted run's.
  std::string clean = TempPath("cli_stream_tel_clean.json");
  std::string resumed = TempPath("cli_stream_tel_resumed.json");
  std::string checkpoint = TempPath("cli_stream_tel.snap");

  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--output",
                 TempPath("cli_stream_tel_out1.csv"), "--telemetry",
                 clean}),
            0);
  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--checkpoint",
                 checkpoint, "--checkpoint-every", "2", "--failpoint",
                 "cli.stream.observe=fail:1:skip=6"}),
            1);
  ASSERT_EQ(Run({"stream", "--input", dataset_path_, "--checkpoint",
                 checkpoint, "--resume", "--output",
                 TempPath("cli_stream_tel_out2.csv"), "--telemetry",
                 resumed}),
            0);
  EXPECT_EQ(ReadFileToString(resumed).ValueOrDie(),
            ReadFileToString(clean).ValueOrDie());
}

}  // namespace
}  // namespace corrob
