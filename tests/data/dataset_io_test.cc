#include "data/dataset_io.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "data/motivating_example.h"

namespace corrob {
namespace {

TEST(DatasetIoTest, ParseBasicCsv) {
  std::string text =
      "fact,s1,s2\n"
      "r1,T,-\n"
      "r2,F,T\n";
  LabeledDataset loaded = ParseDatasetCsv(text).ValueOrDie();
  EXPECT_EQ(loaded.dataset.num_sources(), 2);
  EXPECT_EQ(loaded.dataset.num_facts(), 2);
  EXPECT_EQ(loaded.dataset.GetVote(0, 0), Vote::kTrue);
  EXPECT_EQ(loaded.dataset.GetVote(1, 0), Vote::kNone);
  EXPECT_EQ(loaded.dataset.GetVote(0, 1), Vote::kFalse);
  EXPECT_FALSE(loaded.truth.has_value());
}

TEST(DatasetIoTest, ParseTruthColumn) {
  std::string text =
      "fact,s1,__truth__\n"
      "r1,T,true\n"
      "r2,T,false\n";
  LabeledDataset loaded = ParseDatasetCsv(text).ValueOrDie();
  ASSERT_TRUE(loaded.truth.has_value());
  EXPECT_TRUE(loaded.truth->IsTrue(0));
  EXPECT_FALSE(loaded.truth->IsTrue(1));
}

TEST(DatasetIoTest, UnknownTruthDropsColumn) {
  std::string text =
      "fact,s1,__truth__\n"
      "r1,T,?\n"
      "r2,T,true\n";
  LabeledDataset loaded = ParseDatasetCsv(text).ValueOrDie();
  EXPECT_FALSE(loaded.truth.has_value());
}

TEST(DatasetIoTest, CancelledTokenAbortsTheRowLoop) {
  // The row loop polls the token every 2048 rows, so a dataset has to
  // be at least that tall before cancellation can land.
  std::string text = "fact,s1\n";
  for (int i = 0; i < 5000; ++i) {
    text += "r" + std::to_string(i) + ",T\n";
  }
  CancellationToken token;
  DatasetCsvOptions options;
  options.cancel = &token;
  EXPECT_TRUE(ParseDatasetCsv(text, options).ok());

  token.Cancel();
  auto result = ParseDatasetCsv(text, options);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_NE(result.status().message().find("rows"), std::string::npos);
}

TEST(DatasetIoTest, RejectsMalformedInputs) {
  EXPECT_EQ(ParseDatasetCsv("").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseDatasetCsv("bogus,s1\nr1,T\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseDatasetCsv("fact\nr1\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseDatasetCsv("fact,s1\nr1,T,extra\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseDatasetCsv("fact,s1\nr1,Q\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(
      ParseDatasetCsv("fact,s1,__truth__\nr1,T,maybe\n").status().code(),
      StatusCode::kParseError);
}

TEST(DatasetIoTest, MotivatingExampleRoundTrips) {
  MotivatingExample example = MakeMotivatingExample();
  std::string csv = DatasetToCsv(example.dataset, &example.truth);
  LabeledDataset loaded = ParseDatasetCsv(csv).ValueOrDie();

  ASSERT_EQ(loaded.dataset.num_sources(), example.dataset.num_sources());
  ASSERT_EQ(loaded.dataset.num_facts(), example.dataset.num_facts());
  for (FactId f = 0; f < example.dataset.num_facts(); ++f) {
    EXPECT_EQ(loaded.dataset.fact_name(f), example.dataset.fact_name(f));
    for (SourceId s = 0; s < example.dataset.num_sources(); ++s) {
      EXPECT_EQ(loaded.dataset.GetVote(s, f), example.dataset.GetVote(s, f))
          << "s" << s << " f" << f;
    }
  }
  ASSERT_TRUE(loaded.truth.has_value());
  EXPECT_EQ(loaded.truth->labels(), example.truth.labels());
}

TEST(DatasetIoTest, FileRoundTrip) {
  MotivatingExample example = MakeMotivatingExample();
  std::string path = ::testing::TempDir() + "/corrob_dataset_io_test.csv";
  ASSERT_TRUE(SaveDatasetCsv(path, example.dataset, &example.truth).ok());
  LabeledDataset loaded = LoadDatasetCsv(path).ValueOrDie();
  EXPECT_EQ(loaded.dataset.num_votes(), example.dataset.num_votes());
  ASSERT_TRUE(loaded.truth.has_value());
  std::remove(path.c_str());
}

TEST(DatasetIoTest, MissingFileIsNotFound) {
  auto result = LoadDatasetCsv("/nope/missing.csv");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("/nope/missing.csv"),
            std::string::npos);
}

TEST(DatasetIoTest, ParseErrorsNameTheFile) {
  std::string path = ::testing::TempDir() + "/corrob_bad_dataset.csv";
  ASSERT_TRUE(WriteStringToFile(path, "fact,s1\nr1,Q\n").ok());
  auto result = LoadDatasetCsv(path);
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find(path), std::string::npos);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, StrictModeRejectsWhatLenientSkips) {
  // Bad vote symbol on r2 and a row-length mismatch on r4.
  std::string text =
      "fact,s1,s2,__truth__\n"
      "r1,T,-,true\n"
      "r2,Q,T,false\n"
      "r3,F,T,false\n"
      "r4,T,true\n"
      "r5,-,F,true\n";
  EXPECT_EQ(ParseDatasetCsv(text).status().code(), StatusCode::kParseError);

  DatasetCsvOptions lenient;
  lenient.lenient = true;
  ParseReport report;
  LabeledDataset loaded =
      ParseDatasetCsv(text, lenient, &report).ValueOrDie();

  EXPECT_EQ(report.rows_seen, 5);
  EXPECT_EQ(report.rows_loaded, 3);
  ASSERT_EQ(report.skipped.size(), 2u);
  EXPECT_FALSE(report.AllRowsLoaded());
  // Diagnostics carry document row indices (the header is row 0).
  EXPECT_EQ(report.skipped[0].row, 2u);
  EXPECT_EQ(report.skipped[1].row, 4u);
  EXPECT_NE(report.ToString().find("skipped 2"), std::string::npos);

  // Skipped rows leave no trace: facts, votes, and truth labels all
  // come from the surviving rows only.
  ASSERT_EQ(loaded.dataset.num_facts(), 3);
  EXPECT_EQ(loaded.dataset.fact_name(0), "r1");
  EXPECT_EQ(loaded.dataset.fact_name(1), "r3");
  EXPECT_EQ(loaded.dataset.fact_name(2), "r5");
  EXPECT_EQ(loaded.dataset.GetVote(0, 1), Vote::kFalse);
  EXPECT_EQ(loaded.dataset.GetVote(1, 2), Vote::kFalse);
  ASSERT_TRUE(loaded.truth.has_value());
  EXPECT_TRUE(loaded.truth->IsTrue(0));
  EXPECT_FALSE(loaded.truth->IsTrue(1));
  EXPECT_TRUE(loaded.truth->IsTrue(2));
}

TEST(DatasetIoTest, LenientCleanInputReportsAllLoaded) {
  DatasetCsvOptions lenient;
  lenient.lenient = true;
  ParseReport report;
  LabeledDataset loaded =
      ParseDatasetCsv("fact,s1\nr1,T\nr2,F\n", lenient, &report)
          .ValueOrDie();
  EXPECT_EQ(loaded.dataset.num_facts(), 2);
  EXPECT_TRUE(report.AllRowsLoaded());
  EXPECT_EQ(report.rows_seen, 2);
  EXPECT_EQ(report.rows_loaded, 2);
}

TEST(DatasetIoTest, LenientStillRejectsBrokenHeader) {
  DatasetCsvOptions lenient;
  lenient.lenient = true;
  ParseReport report;
  EXPECT_EQ(ParseDatasetCsv("bogus,s1\nr1,T\n", lenient, &report)
                .status()
                .code(),
            StatusCode::kParseError);
}

TEST(DatasetIoTest, RepeatedFactRowKeepsTruthPerFact) {
  // A fact repeated on a later row merges like its votes do: one
  // label per fact, and the last row's label wins.
  const std::string text =
      "fact,s1,s2,__truth__\n"
      "f0,T,F,true\n"
      "f0,-,T,false\n"
      "f1,T,-,true\n";
  LabeledDataset loaded = ParseDatasetCsv(text).ValueOrDie();
  ASSERT_EQ(loaded.dataset.num_facts(), 2);
  EXPECT_EQ(loaded.dataset.GetVote(0, 0), Vote::kTrue);
  EXPECT_EQ(loaded.dataset.GetVote(1, 0), Vote::kTrue);
  ASSERT_TRUE(loaded.truth.has_value());
  EXPECT_EQ(loaded.truth->num_facts(), loaded.dataset.num_facts());
  EXPECT_EQ(loaded.truth->labels(), (std::vector<bool>{false, true}));

  // A '?' on any row, even one a later row overrides, drops the truth.
  LabeledDataset unknown =
      ParseDatasetCsv(
          "fact,s1,__truth__\nf0,T,?\nf1,T,true\nf0,F,true\n")
          .ValueOrDie();
  EXPECT_EQ(unknown.dataset.num_facts(), 2);
  EXPECT_FALSE(unknown.truth.has_value());
}

TEST(DatasetIoTest, DuplicateSourceColumnIsParseError) {
  const Result<LabeledDataset> loaded =
      ParseDatasetCsv("fact,s1,s1\nf0,T,F\n");
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  EXPECT_NE(loaded.status().message().find("'s1' twice"), std::string::npos);
}

TEST(DatasetIoTest, StrictModeReportsTheFirstErrorInTheFile) {
  // Rows are tokenized as they are validated, so a bad row before a
  // CSV syntax error is what a strict load reports, and vice versa.
  EXPECT_NE(ParseDatasetCsv("fact,s1\nr1,TT\nr2,\"T\n")
                .status()
                .message()
                .find("bad vote cell 'TT' at row 1"),
            std::string::npos);
  EXPECT_NE(ParseDatasetCsv("fact,s1\nr1,x\"T\nr2,Q\n")
                .status()
                .message()
                .find("quote inside unquoted field"),
            std::string::npos);
}

}  // namespace
}  // namespace corrob
