#include "common/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/failpoint.h"

namespace corrob {

CsvCursor::CsvCursor(std::string_view text, char delimiter)
    : text_(text), delimiter_(delimiter) {
  // Strip a UTF-8 BOM; spreadsheet exports prepend one and it would
  // otherwise become part of the first header cell.
  constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";
  if (text_.substr(0, kUtf8Bom.size()) == kUtf8Bom) {
    text_.remove_prefix(kUtf8Bom.size());
  }
}

Status CsvCursor::Next() {
  cells_.clear();
  unescaped_.clear();
  while (true) {
    CORROB_RETURN_NOT_OK(ReadCell());
    if (done()) break;
    const char c = text_[pos_++];
    if (c == delimiter_) continue;
    // Swallow the \n of \r\n; a bare \r also ends the row.
    if (c == '\r' && !done() && text_[pos_] == '\n') ++pos_;
    break;
  }
  return Status::OK();
}

Status CsvCursor::ReadCell() {
  // A quoted cell's content is (begin, end) unescaped, then any text
  // after the closing quote; an unquoted cell leaves end == begin.
  const size_t begin = pos_;
  size_t end = begin;
  bool doubled = false;
  if (!done() && text_[pos_] == '"') {
    for (++pos_;; pos_ += 2) {
      pos_ = text_.find('"', pos_);
      if (pos_ == std::string_view::npos) {
        pos_ = text_.size();
        return Status::ParseError("unterminated quoted field at end of input");
      }
      if (pos_ + 1 == text_.size() || text_[pos_ + 1] != '"') break;
      doubled = true;
    }
    end = pos_++;
  }
  const size_t tail = pos_;
  for (; !done(); ++pos_) {
    const char c = text_[pos_];
    if (c == '"') {
      return Status::ParseError("quote inside unquoted field at offset " +
                                std::to_string(pos_));
    }
    if (c == delimiter_ || c == '\n' || c == '\r') break;
  }
  if (end == begin || (!doubled && pos_ == tail)) {
    cells_.push_back(end == begin ? text_.substr(begin, pos_ - begin)
                                  : text_.substr(begin + 1, end - begin - 1));
    return Status::OK();
  }
  std::string& cell = unescaped_.emplace_back();
  for (size_t i = begin + 1; i < end; ++i) {
    cell += text_[i];
    if (text_[i] == '"') ++i;  // the second of a doubled quote
  }
  cell.append(text_.substr(tail, pos_ - tail));
  cells_.push_back(cell);
  return Status::OK();
}

Result<CsvDocument> ParseCsv(std::string_view text, char delimiter) {
  CsvCursor cursor(text, delimiter);
  CsvDocument doc;
  while (!cursor.done()) {
    CORROB_RETURN_NOT_OK(cursor.Next());
    doc.rows.emplace_back(cursor.cells().begin(), cursor.cells().end());
  }
  return doc;
}

namespace {

bool NeedsQuoting(const std::string& field, char delimiter) {
  for (char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

}  // namespace

std::string WriteCsv(const std::vector<std::vector<std::string>>& rows,
                     char delimiter) {
  std::string out;
  for (const auto& row : rows) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += delimiter;
      if (NeedsQuoting(row[i], delimiter)) {
        out += '"';
        for (char c : row[i]) {
          if (c == '"') out += '"';
          out += c;
        }
        out += '"';
      } else {
        out += row[i];
      }
    }
    out += '\n';
  }
  return out;
}

Result<CsvDocument> ReadCsvFile(const std::string& path, char delimiter) {
  CORROB_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
  return ParseCsv(contents, delimiter);
}

Status WriteCsvFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows,
                    char delimiter) {
  return WriteStringToFile(path, WriteCsv(rows, delimiter));
}

Result<std::string> ReadFileToString(const std::string& path) {
  CORROB_FAILPOINT("io.read_file.open");
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // A file that does not exist is a caller-visible condition distinct
    // from a disk that cannot be read (only the latter is transient).
    struct stat info;
    if (::stat(path.c_str(), &info) != 0 && errno == ENOENT) {
      return Status::NotFound("no such file: " + path);
    }
    return Status::IoError("cannot open for reading: " + path);
  }
  CORROB_FAILPOINT("io.read_file.read");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed: " + path);
  return buffer.str();
}

Status WriteStringToFile(const std::string& path, std::string_view contents) {
  return WriteFileAtomic(path, contents);
}

namespace {

/// Writes + fsyncs the temp file; the caller owns cleanup on failure.
Status WriteTempFile(const std::string& tmp_path,
                     std::string_view contents) {
  CORROB_FAILPOINT("io.atomic_write.open");
  int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open for writing: " + tmp_path + ": " +
                           std::strerror(errno));
  }
  Status status = [&]() -> Status {
    CORROB_FAILPOINT("io.atomic_write.write");
    size_t written = 0;
    while (written < contents.size()) {
      ssize_t n = ::write(fd, contents.data() + written,
                          contents.size() - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("write failed: " + tmp_path + ": " +
                               std::strerror(errno));
      }
      written += static_cast<size_t>(n);
    }
    CORROB_FAILPOINT("io.atomic_write.fsync");
    if (::fsync(fd) != 0) {
      return Status::IoError("fsync failed: " + tmp_path + ": " +
                             std::strerror(errno));
    }
    return Status::OK();
  }();
  if (::close(fd) != 0 && status.ok()) {
    status = Status::IoError("close failed: " + tmp_path + ": " +
                             std::strerror(errno));
  }
  return status;
}

}  // namespace

Status WriteFileAtomic(const std::string& path, std::string_view contents) {
  const std::string tmp_path = path + ".tmp";
  Status status = WriteTempFile(tmp_path, contents);
  if (status.ok()) {
    status = [&]() -> Status {
      CORROB_FAILPOINT("io.atomic_write.rename");
      if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
        return Status::IoError("rename failed: " + tmp_path + " -> " + path +
                               ": " + std::strerror(errno));
      }
      return Status::OK();
    }();
  }
  if (!status.ok()) ::unlink(tmp_path.c_str());
  return status;
}

}  // namespace corrob
