#include "common/csv.h"

#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/random.h"

namespace corrob {
namespace {

TEST(CsvParseTest, SimpleRows) {
  auto doc = ParseCsv("a,b\nc,d\n").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(doc.rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvParseTest, MissingTrailingNewline) {
  auto doc = ParseCsv("a,b\nc,d").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvParseTest, CrLfRows) {
  auto doc = ParseCsv("a,b\r\nc,d\r\n").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvParseTest, EmptyFields) {
  auto doc = ParseCsv(",\n").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0], (std::vector<std::string>{"", ""}));
}

TEST(CsvParseTest, EmptyInputHasNoRows) {
  auto doc = ParseCsv("").ValueOrDie();
  EXPECT_TRUE(doc.rows.empty());
}

TEST(CsvParseTest, QuotedFieldWithDelimiterAndNewline) {
  auto doc = ParseCsv("\"a,b\",\"c\nd\"\n").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], "a,b");
  EXPECT_EQ(doc.rows[0][1], "c\nd");
}

TEST(CsvParseTest, DoubledQuoteEscapes) {
  auto doc = ParseCsv("\"say \"\"hi\"\"\"\n").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], "say \"hi\"");
}

TEST(CsvParseTest, UnterminatedQuoteIsError) {
  auto result = ParseCsv("\"oops\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(CsvParseTest, QuoteInsideUnquotedFieldIsError) {
  auto result = ParseCsv("ab\"c\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(CsvParseTest, AlternateDelimiter) {
  auto doc = ParseCsv("a\tb\nc\td\n", '\t').ValueOrDie();
  EXPECT_EQ(doc.rows[0], (std::vector<std::string>{"a", "b"}));
}

TEST(CsvWriteTest, QuotesOnlyWhenNeeded) {
  std::string out = WriteCsv({{"plain", "with,comma", "with\"quote", "nl\n"}});
  EXPECT_EQ(out, "plain,\"with,comma\",\"with\"\"quote\",\"nl\n\"\n");
}

TEST(CsvRoundTripTest, RandomTablesSurviveRoundTrip) {
  // Property: ParseCsv(WriteCsv(rows)) == rows for arbitrary cell
  // contents, including delimiters, quotes and newlines.
  Rng rng(321);
  const std::string alphabet = "ab,\"\n x";
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::vector<std::string>> rows;
    size_t num_rows = 1 + rng.NextBelow(5);
    size_t num_cols = 1 + rng.NextBelow(4);
    for (size_t r = 0; r < num_rows; ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < num_cols; ++c) {
        std::string cell;
        size_t len = rng.NextBelow(6);
        for (size_t i = 0; i < len; ++i) {
          cell += alphabet[rng.NextBelow(alphabet.size())];
        }
        row.push_back(cell);
      }
      rows.push_back(row);
    }
    // A row of all-empty cells is serialized as a blank line, which
    // the parser cannot distinguish from no row; skip those.
    bool has_blank_row = false;
    for (const auto& row : rows) {
      bool all_empty = true;
      for (const auto& cell : row) all_empty &= cell.empty();
      has_blank_row |= (all_empty && row.size() == 1);
    }
    if (has_blank_row) continue;
    auto doc = ParseCsv(WriteCsv(rows)).ValueOrDie();
    EXPECT_EQ(doc.rows, rows) << "trial " << trial;
  }
}

TEST(CsvFileTest, WriteThenReadBack) {
  std::string path = ::testing::TempDir() + "/corrob_csv_test.csv";
  std::vector<std::vector<std::string>> rows{{"h1", "h2"}, {"1", "2"}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  auto doc = ReadCsvFile(path).ValueOrDie();
  EXPECT_EQ(doc.rows, rows);
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsNotFound) {
  auto result = ReadCsvFile("/nonexistent/dir/file.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("/nonexistent/dir/file.csv"),
            std::string::npos);
}

TEST(CsvParseTest, StripsLeadingUtf8Bom) {
  // A BOM-prefixed export must not corrupt the first header cell.
  auto doc = ParseCsv("\xEF\xBB\xBF" "fact,s1\nr1,T\n").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0][0], "fact");
}

TEST(CsvParseTest, BomOnlyInputIsEmpty) {
  auto doc = ParseCsv("\xEF\xBB\xBF").ValueOrDie();
  EXPECT_TRUE(doc.rows.empty());
}

TEST(CsvParseTest, BomMidFileIsData) {
  // Only a *leading* BOM is stripped.
  auto doc = ParseCsv("a\n\xEF\xBB\xBF" "b\n").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1][0], "\xEF\xBB\xBF" "b");
}

TEST(AtomicWriteTest, ReplacesExistingFile) {
  std::string path = ::testing::TempDir() + "/corrob_atomic_test.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "second");
  EXPECT_EQ(ReadFileToString(path + ".tmp").status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(AtomicWriteTest, InjectedFaultLeavesOriginalIntactAtEveryStage) {
  ScopedFailpointDisarmer disarmer;
  std::string path = ::testing::TempDir() + "/corrob_atomic_fault.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "precious original").ok());
  for (const char* stage :
       {"io.atomic_write.open", "io.atomic_write.write",
        "io.atomic_write.fsync", "io.atomic_write.rename"}) {
    Failpoints::Arm(stage);
    Status status = WriteFileAtomic(path, "partial garbage");
    Failpoints::Disarm(stage);
    ASSERT_FALSE(status.ok()) << stage;
    EXPECT_EQ(status.code(), StatusCode::kIoError) << stage;
    // The target is untouched and no temp file is left behind.
    EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "precious original")
        << stage;
    EXPECT_EQ(ReadFileToString(path + ".tmp").status().code(),
              StatusCode::kNotFound)
        << stage;
  }
  std::remove(path.c_str());
}

TEST(AtomicWriteTest, UnwritableDirectoryIsIoError) {
  Status status = WriteFileAtomic("/nonexistent/dir/file.txt", "x");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

/// The character-at-a-time parser CsvCursor replaced, kept as the
/// reference its rules and error messages are pinned against.
Result<CsvDocument> ReferenceParseCsv(std::string_view text, char delimiter) {
  constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";
  if (text.substr(0, kUtf8Bom.size()) == kUtf8Bom) {
    text.remove_prefix(kUtf8Bom.size());
  }
  CsvDocument doc;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  bool row_started = false;
  auto end_field = [&]() {
    row.push_back(std::move(field));
    field.clear();
    field_started = false;
  };
  auto end_row = [&]() {
    end_field();
    doc.rows.push_back(std::move(row));
    row.clear();
    row_started = false;
  };
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
      continue;
    }
    if (c == '"') {
      if (field_started && !field.empty()) {
        return Status::ParseError("quote inside unquoted field at offset " +
                                  std::to_string(i));
      }
      in_quotes = true;
      field_started = true;
      row_started = true;
    } else if (c == delimiter) {
      end_field();
      row_started = true;
    } else if (c == '\n') {
      end_row();
    } else if (c == '\r') {
      end_row();
      if (i + 1 < text.size() && text[i + 1] == '\n') ++i;
    } else {
      field += c;
      field_started = true;
      row_started = true;
    }
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quoted field at end of input");
  }
  if (row_started || field_started || !row.empty()) end_row();
  return doc;
}

TEST(CsvCursorTest, MatchesCharacterParserOnRandomText) {
  // Property: over random text dense in quotes, delimiters and row
  // ends, ParseCsv (the cursor) and the reference agree on every row
  // or on the exact error.
  Rng rng(0xC5F);
  const std::string alphabet = "ab,;\"\"\n\r ";
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text = trial % 7 == 0 ? "\xEF\xBB\xBF" : "";
    const size_t length = rng.NextBelow(24);
    for (size_t i = 0; i < length; ++i) {
      text += alphabet[rng.NextBelow(alphabet.size())];
    }
    const char delimiter = trial % 5 == 0 ? ';' : ',';
    const Result<CsvDocument> got = ParseCsv(text, delimiter);
    const Result<CsvDocument> want = ReferenceParseCsv(text, delimiter);
    ASSERT_EQ(got.status().ToString(), want.status().ToString())
        << "trial " << trial;
    if (want.ok()) {
      EXPECT_EQ(got.ValueOrDie().rows, want.ValueOrDie().rows)
          << "trial " << trial;
    }
  }
}

TEST(CsvCursorTest, CellsViewTheTextUnlessUnescaped) {
  const std::string text = "a,\"b,c\",\"d\"\"e\",\"f\"g,\"\"\rh\n";
  const auto in_text = [&](std::string_view cell) {
    const std::less<const char*> less;
    return !less(cell.data(), text.data()) &&
           !less(text.data() + text.size(), cell.data() + cell.size());
  };
  CsvCursor cursor(text);
  ASSERT_TRUE(cursor.Next().ok());
  const std::span<const std::string_view> cells = cursor.cells();
  ASSERT_EQ(cells.size(), 5u);
  EXPECT_EQ(cells[0], "a");
  EXPECT_EQ(cells[1], "b,c");
  EXPECT_EQ(cells[2], "d\"e");
  EXPECT_EQ(cells[3], "fg");
  EXPECT_EQ(cells[4], "");
  EXPECT_TRUE(in_text(cells[0]));
  EXPECT_TRUE(in_text(cells[1]));
  EXPECT_FALSE(in_text(cells[2]));  // doubled quote
  EXPECT_FALSE(in_text(cells[3]));  // text after the closing quote
  ASSERT_FALSE(cursor.done());
  ASSERT_TRUE(cursor.Next().ok());  // a bare \r ended the first row
  ASSERT_EQ(cursor.cells().size(), 1u);
  EXPECT_EQ(cursor.cells()[0], "h");
  EXPECT_TRUE(cursor.done());
}

TEST(CsvCursorTest, ManyUnescapedCellsInOneRowStayValid) {
  // Each unescaped cell grows the row buffer; cells read earlier in
  // the row must survive the growth.
  std::string text;
  std::vector<std::string> want;
  for (int i = 0; i < 64; ++i) {
    if (i > 0) text += ',';
    text += "\"" + std::string(static_cast<size_t>(i), 'x') + "\"\"\"";
    want.push_back(std::string(static_cast<size_t>(i), 'x') + "\"");
  }
  CsvCursor cursor(text);
  ASSERT_TRUE(cursor.Next().ok());
  ASSERT_EQ(cursor.cells().size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(cursor.cells()[i], want[i]) << "cell " << i;
  }
  EXPECT_TRUE(cursor.done());
}

}  // namespace
}  // namespace corrob
