#include "data/dataset_io.h"

#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "common/csv.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace corrob {

namespace {

constexpr char kTruthColumn[] = "__truth__";

/// Validates data row `r` in its entirety into `votes` (cleared first)
/// and `truth` (nullopt for '?') before anything is committed to the
/// builder, so that a lenient skip leaves no partial votes or labels.
Status ValidateRow(std::span<const std::string_view> row, size_t r,
                   size_t header_size, size_t num_sources, bool has_truth,
                   std::vector<std::pair<SourceId, Vote>>* votes,
                   std::optional<bool>* truth) {
  if (row.size() != header_size) {
    return Status::ParseError("row " + std::to_string(r) + " has " +
                              std::to_string(row.size()) +
                              " cells; header has " +
                              std::to_string(header_size));
  }
  votes->clear();
  for (size_t c = 1; c <= num_sources; ++c) {
    const std::string_view cell = Trim(row[c]);
    if (cell.empty() || cell == "-") continue;
    if (cell.size() != 1) {
      return Status::ParseError("bad vote cell '" + std::string(cell) +
                                "' at row " + std::to_string(r));
    }
    CORROB_ASSIGN_OR_RETURN(Vote vote, VoteFromChar(cell[0]));
    if (vote == Vote::kNone) continue;
    votes->emplace_back(static_cast<SourceId>(c - 1), vote);
  }
  if (has_truth) {
    const std::string cell = ToLower(Trim(row.back()));
    if (cell == "true" || cell == "1") {
      *truth = true;
    } else if (cell == "false" || cell == "0") {
      *truth = false;
    } else if (cell == "?") {
      *truth = std::nullopt;
    } else {
      return Status::ParseError("bad truth cell '" + cell + "' at row " +
                                std::to_string(r));
    }
  }
  return Status::OK();
}

}  // namespace

std::string ParseReport::ToString() const {
  if (skipped.empty()) {
    return "all " + std::to_string(rows_loaded) + " rows loaded";
  }
  std::string out = "skipped " + std::to_string(skipped.size()) + " of " +
                    std::to_string(rows_seen) + " rows:";
  for (const RowDiagnostic& diagnostic : skipped) {
    out += "\n  row " + std::to_string(diagnostic.row) + ": " +
           diagnostic.message;
  }
  return out;
}

Result<LabeledDataset> ParseDatasetCsv(const std::string& text) {
  return ParseDatasetCsv(text, DatasetCsvOptions{}, nullptr);
}

Result<LabeledDataset> ParseDatasetCsv(const std::string& text,
                                       const DatasetCsvOptions& options,
                                       ParseReport* report) {
  CORROB_TRACE_SPAN("ParseDatasetCsv");
  CsvCursor cursor(text);
  if (cursor.done()) {
    return Status::ParseError("dataset CSV has no header row");
  }
  CORROB_RETURN_NOT_OK(cursor.Next());
  const std::span<const std::string_view> header = cursor.cells();
  if (header[0] != "fact") {
    return Status::ParseError("dataset CSV must start with a 'fact' column");
  }
  const size_t header_size = header.size();
  const bool has_truth = header.back() == kTruthColumn;
  const size_t num_sources = header_size - 1 - (has_truth ? 1 : 0);
  if (num_sources == 0) {
    return Status::ParseError("dataset CSV has no source columns");
  }

  DatasetBuilder builder;
  for (size_t c = 1; c <= num_sources; ++c) {
    const std::string name(header[c]);
    if (builder.AddSource(name) != static_cast<SourceId>(c - 1)) {
      return Status::ParseError("dataset CSV header names source '" + name +
                                "' twice");
    }
  }

  ParseReport local_report;
  std::vector<bool> truth_labels;  // by fact id: a fact's last row wins
  bool truth_complete = has_truth;
  std::vector<std::pair<SourceId, Vote>> votes;
  std::optional<bool> truth;
  // Poll interval for cooperative cancellation: coarse enough that an
  // unarmed load pays one predictable branch per row, fine enough
  // that a Ctrl-C lands within a few thousand rows.
  constexpr size_t kCancelPollRows = 2048;
  for (size_t r = 1; !cursor.done(); ++r) {
    if (options.cancel != nullptr && r % kCancelPollRows == 0 &&
        options.cancel->cancelled()) {
      return Status::Cancelled("dataset CSV load cancelled after " +
                               std::to_string(local_report.rows_seen) +
                               " rows");
    }
    CORROB_RETURN_NOT_OK(cursor.Next());
    const std::span<const std::string_view> row = cursor.cells();
    if (row.size() == 1 && row[0].empty()) continue;  // blank line
    ++local_report.rows_seen;
    const Status valid = ValidateRow(row, r, header_size, num_sources,
                                     has_truth, &votes, &truth);
    if (!valid.ok()) {
      if (!options.lenient) return valid;
      local_report.skipped.push_back({r, valid.message()});
      continue;
    }
    const FactId f = builder.AddFact(std::string(row[0]));
    for (const auto& [source, vote] : votes) {
      CORROB_RETURN_NOT_OK(builder.SetVote(source, f, vote));
    }
    if (has_truth) {
      truth_labels.resize(static_cast<size_t>(builder.num_facts()));
      truth_labels[static_cast<size_t>(f)] = truth.value_or(false);
      truth_complete &= truth.has_value();  // a '?' drops the column
    }
    ++local_report.rows_loaded;
  }

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("corrob.csv.rows_loaded")
      ->Add(local_report.rows_loaded);
  metrics.GetCounter("corrob.csv.rows_skipped")
      ->Add(static_cast<int64_t>(local_report.skipped.size()));
  if (report != nullptr) *report = std::move(local_report);
  LabeledDataset out;
  out.dataset = builder.Build();
  if (has_truth && truth_complete) {
    out.truth = GroundTruth(std::move(truth_labels));
  }
  return out;
}

Result<LabeledDataset> LoadDatasetCsv(const std::string& path) {
  return LoadDatasetCsv(path, DatasetCsvOptions{}, nullptr);
}

Result<LabeledDataset> LoadDatasetCsv(const std::string& path,
                                      const DatasetCsvOptions& options,
                                      ParseReport* report) {
  auto text = ReadFileToString(path);
  if (!text.ok()) return text.status();
  auto parsed = ParseDatasetCsv(text.ValueOrDie(), options, report);
  if (!parsed.ok()) {
    // Parse messages carry row context; add which file it was.
    return Status(parsed.status().code(),
                  parsed.status().message() + " (in " + path + ")");
  }
  return parsed;
}

std::string DatasetToCsv(const Dataset& dataset, const GroundTruth* truth) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header;
  header.push_back("fact");
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    header.push_back(dataset.source_name(s));
  }
  if (truth != nullptr) header.push_back(kTruthColumn);
  rows.push_back(std::move(header));

  for (FactId f = 0; f < dataset.num_facts(); ++f) {
    std::vector<std::string> row;
    row.push_back(dataset.fact_name(f));
    std::vector<char> cells(static_cast<size_t>(dataset.num_sources()), '-');
    for (const SourceVote& sv : dataset.VotesOnFact(f)) {
      cells[static_cast<size_t>(sv.source)] = VoteToChar(sv.vote);
    }
    for (char c : cells) row.emplace_back(1, c);
    if (truth != nullptr) {
      row.push_back(truth->IsTrue(f) ? "true" : "false");
    }
    rows.push_back(std::move(row));
  }
  return WriteCsv(rows);
}

Status SaveDatasetCsv(const std::string& path, const Dataset& dataset,
                      const GroundTruth* truth) {
  std::string csv = DatasetToCsv(dataset, truth);
  return Retry(DefaultIoRetryPolicy(),
               [&] { return WriteFileAtomic(path, csv); });
}

}  // namespace corrob
