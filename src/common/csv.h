#ifndef CORROB_COMMON_CSV_H_
#define CORROB_COMMON_CSV_H_

#include <deque>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace corrob {

/// A parsed CSV document: rows of string fields.
struct CsvDocument {
  std::vector<std::vector<std::string>> rows;
};

/// Reads RFC-4180-style CSV text one row at a time: fields separated
/// by `delimiter`, optionally quoted with '"' (doubled quote escapes a
/// quote, quoted fields may contain delimiters and newlines). \n, \r\n
/// and a bare \r all end a row; a trailing newline does not produce an
/// empty row. A leading UTF-8 byte-order mark is stripped so that
/// BOM-prefixed exports do not corrupt the first header cell.
///
/// Cells are views into the text, except a quoted cell whose content
/// is not one run of it (a doubled quote, or characters after the
/// closing quote), which is unescaped into per-row storage. Every view
/// stays valid until the next Next(); the text must outlive the cursor.
class CsvCursor {
 public:
  explicit CsvCursor(std::string_view text, char delimiter = ',');

  /// True once every row has been read.
  bool done() const { return pos_ >= text_.size(); }

  /// Reads the next row into cells(). Call only while !done().
  /// ParseError on a quote inside an unquoted field or an unterminated
  /// quoted field; offsets count from after the byte-order mark.
  [[nodiscard]] Status Next();

  /// The cells of the row the last Next() read.
  std::span<const std::string_view> cells() const { return cells_; }

 private:
  /// Reads one cell, leaving pos_ at its delimiter or row end.
  Status ReadCell();

  std::string_view text_;
  char delimiter_;
  size_t pos_ = 0;
  std::vector<std::string_view> cells_;
  // The row's unescaped cells; a deque never moves them as it grows.
  std::deque<std::string> unescaped_;
};

/// Parses the whole of `text` with CsvCursor's rules.
[[nodiscard]] Result<CsvDocument> ParseCsv(std::string_view text, char delimiter = ',');

/// Serializes rows into CSV text, quoting fields that contain the
/// delimiter, quotes or newlines.
std::string WriteCsv(const std::vector<std::vector<std::string>>& rows,
                     char delimiter = ',');

/// Reads and parses a CSV file from disk.
[[nodiscard]] Result<CsvDocument> ReadCsvFile(const std::string& path,
                                char delimiter = ',');

/// Writes rows to `path` as CSV.
[[nodiscard]] Status WriteCsvFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows,
                    char delimiter = ',');

/// Reads a whole file into a string. A missing file is NotFound; any
/// other open/read failure is IoError. Messages include `path`.
[[nodiscard]] Result<std::string> ReadFileToString(const std::string& path);

/// Writes `contents` to `path`, replacing any existing file.
/// Equivalent to WriteFileAtomic — callers never observe a partially
/// written file at `path`.
[[nodiscard]] Status WriteStringToFile(const std::string& path, std::string_view contents);

/// Durably replaces `path` with `contents`: writes `path`.tmp, fsyncs
/// it, then renames it over `path`. On any failure the temp file is
/// removed and a pre-existing file at `path` is left untouched — a
/// crash or injected fault can never leave a truncated file at the
/// target path. Fault-injection sites: "io.atomic_write.open",
/// ".write", ".fsync", ".rename".
[[nodiscard]] Status WriteFileAtomic(const std::string& path, std::string_view contents);

}  // namespace corrob

#endif  // CORROB_COMMON_CSV_H_
