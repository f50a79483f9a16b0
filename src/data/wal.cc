#include "data/wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/csv.h"
#include "common/failpoint.h"
#include "common/logging.h"

namespace corrob {
namespace {

constexpr std::string_view kSegmentMagic = "CORROBWL";
constexpr uint32_t kSegmentVersion = 2;
constexpr std::string_view kSnapshotMagic = "CORROBWS";
constexpr uint32_t kSnapshotVersion = 2;
// magic + u32 version.
constexpr size_t kSegmentHeaderBytes = kSegmentMagic.size() + 4;
// u8 type + u32 payload length.
constexpr size_t kRecordHeaderBytes = 5;
// u32 CRC.
constexpr size_t kRecordTrailerBytes = 4;
// Type byte of a batch record: a count-prefixed run of mutation
// sub-records under one CRC. Deliberately not a WalRecordType —
// recovery expands a batch into its constituent records, so no
// WalRecord ever carries this type.
constexpr uint8_t kBatchTypeByte = 5;
// A vote delta is two names and a vote; anything near this bound is
// a corrupt length field, not a record.
constexpr size_t kMaxRecordPayload = 16 * 1024 * 1024;

constexpr std::string_view kSnapshotFileName = "snapshot.snap";

std::string EncodePayload(const WalRecord& record) {
  std::string payload;
  ByteWriter writer(&payload);
  switch (record.type) {
    case WalRecordType::kAddSource:
      writer.Str(record.source);
      break;
    case WalRecordType::kAddVote:
      writer.Str(record.source);
      writer.Str(record.fact);
      writer.U8(static_cast<uint8_t>(VoteToChar(record.vote)));
      break;
    case WalRecordType::kRetractVote:
      writer.Str(record.source);
      writer.Str(record.fact);
      break;
    case WalRecordType::kSnapshotMarker:
      writer.U32(record.snapshot_crc);
      writer.U64(record.records_folded);
      writer.U64(record.compaction_seq);
      break;
  }
  return payload;
}

/// Frames `payload` under `type_byte`: header (type + length), the
/// payload, then a CRC over header + payload — the length bytes are
/// inside the CRC, so a flipped length can never silently re-frame
/// the rest of the segment.
std::string FrameRecord(uint8_t type_byte, std::string_view payload) {
  std::string framed;
  framed.reserve(kRecordHeaderBytes + payload.size() + kRecordTrailerBytes);
  ByteWriter writer(&framed);
  writer.U8(type_byte);
  writer.U32(static_cast<uint32_t>(payload.size()));
  writer.Raw(payload);
  writer.U32(ComputeCrc32(framed));
  return framed;
}

/// Decodes a CRC-valid payload. Failure here is version skew or a
/// writer bug, never a torn tail — the CRC already matched — so the
/// caller reports it as corruption regardless of position.
Result<WalRecord> DecodePayload(uint8_t type_byte, std::string_view payload) {
  WalRecord record;
  ByteReader reader(payload, "wal: record payload");
  uint8_t vote_char = 0;
  switch (type_byte) {
    case static_cast<uint8_t>(WalRecordType::kAddSource):
      record.type = WalRecordType::kAddSource;
      record.source = reader.Str();
      break;
    case static_cast<uint8_t>(WalRecordType::kAddVote):
      record.type = WalRecordType::kAddVote;
      record.source = reader.Str();
      record.fact = reader.Str();
      vote_char = reader.U8();
      break;
    case static_cast<uint8_t>(WalRecordType::kRetractVote):
      record.type = WalRecordType::kRetractVote;
      record.source = reader.Str();
      record.fact = reader.Str();
      break;
    case static_cast<uint8_t>(WalRecordType::kSnapshotMarker):
      record.type = WalRecordType::kSnapshotMarker;
      record.snapshot_crc = reader.U32();
      record.records_folded = reader.U64();
      record.compaction_seq = reader.U64();
      break;
    default:
      return Status::ParseError("wal: unknown record type " +
                                std::to_string(type_byte));
  }
  CORROB_RETURN_NOT_OK(reader.Finish());
  if (record.type == WalRecordType::kAddVote) {
    CORROB_ASSIGN_OR_RETURN(record.vote,
                            VoteFromChar(static_cast<char>(vote_char)));
    if (record.vote == Vote::kNone) {
      return Status::ParseError(
          "wal: add-vote carries '-'; retract-vote erases votes");
    }
  }
  return record;
}

/// Expands one CRC-valid record payload into `out`: a mutation or
/// marker payload appends one record, a batch payload appends each of
/// its sub-records. Like DecodePayload, failure here is corruption or
/// version skew, never a torn tail.
Status AppendDecodedRecords(uint8_t type_byte, std::string_view payload,
                            std::vector<WalRecord>* out) {
  if (type_byte != kBatchTypeByte) {
    CORROB_ASSIGN_OR_RETURN(WalRecord record,
                            DecodePayload(type_byte, payload));
    out->push_back(std::move(record));
    return Status::OK();
  }
  ByteReader reader(payload, "wal: batch record");
  // Each sub-record needs at least its type byte and length prefix.
  const uint32_t count = reader.Count(1 + 4);
  CORROB_RETURN_NOT_OK(reader.status());
  if (count == 0) return Status::ParseError("wal: empty batch record");
  for (uint32_t i = 0; i < count; ++i) {
    const uint8_t sub_type = reader.U8();
    const std::string_view sub_payload = reader.Str();
    CORROB_RETURN_NOT_OK(reader.status());
    if (sub_type == kBatchTypeByte ||
        sub_type == static_cast<uint8_t>(WalRecordType::kSnapshotMarker)) {
      return Status::ParseError(
          "wal: batch record may hold only mutation sub-records");
    }
    CORROB_ASSIGN_OR_RETURN(WalRecord record,
                            DecodePayload(sub_type, sub_payload));
    out->push_back(std::move(record));
  }
  return reader.Finish();
}

/// Outcome of scanning one segment's bytes.
struct SegmentScan {
  std::vector<WalRecord> records;
  /// Byte offset just past the last intact record (or 0 when even the
  /// header is incomplete).
  uint64_t valid_bytes = 0;
  /// Bytes past valid_bytes that do not decode — a torn tail when
  /// this is the final segment, corruption otherwise.
  bool torn = false;
};

/// Scans segment bytes up to the first undecodable record. Returns
/// ParseError only for damage that can never be a torn tail (full
/// header with wrong magic/version, or a CRC-valid record that fails
/// to decode); framing-level damage is reported via `torn` and left
/// for the caller to classify by segment position.
Result<SegmentScan> ScanSegmentBytes(std::string_view contents,
                                     const std::string& path) {
  SegmentScan scan;
  if (contents.size() < kSegmentHeaderBytes) {
    scan.torn = !contents.empty();
    return scan;
  }
  if (contents.substr(0, kSegmentMagic.size()) != kSegmentMagic) {
    return Status::ParseError("wal: bad segment magic in " + path);
  }
  const uint32_t version = LoadU32(contents.data() + kSegmentMagic.size());
  if (version != kSegmentVersion) {
    return Status::FailedPrecondition(
        "wal: segment version " + std::to_string(version) + " in " + path +
        "; this build reads version " + std::to_string(kSegmentVersion));
  }
  size_t offset = kSegmentHeaderBytes;
  scan.valid_bytes = offset;
  while (offset < contents.size()) {
    if (offset + kRecordHeaderBytes > contents.size()) {
      scan.torn = true;
      return scan;
    }
    const uint8_t type_byte = static_cast<uint8_t>(contents[offset]);
    const uint32_t payload_length = LoadU32(contents.data() + offset + 1);
    if (payload_length > kMaxRecordPayload) {
      scan.torn = true;
      return scan;
    }
    const size_t record_end =
        offset + kRecordHeaderBytes + payload_length + kRecordTrailerBytes;
    if (record_end > contents.size()) {
      scan.torn = true;
      return scan;
    }
    const std::string_view payload =
        contents.substr(offset + kRecordHeaderBytes, payload_length);
    const uint32_t stored_crc =
        LoadU32(contents.data() + offset + kRecordHeaderBytes + payload_length);
    // The CRC spans header + payload, so the length field itself is
    // covered: a flipped length fails here instead of silently
    // re-framing everything after it.
    if (ComputeCrc32(contents.substr(
            offset, kRecordHeaderBytes + payload_length)) != stored_crc) {
      scan.torn = true;
      return scan;
    }
    CORROB_RETURN_NOT_OK(
        AppendDecodedRecords(type_byte, payload, &scan.records));
    offset = record_end;
    scan.valid_bytes = offset;
  }
  return scan;
}

/// True when a complete, CRC-valid record starts anywhere in
/// [from, contents.size()). Recovery uses this to tell mid-segment
/// corruption from a torn tail: a genuine kill -9 leaves at most one
/// partial record at the very end, so any intact record past the
/// damage point means acked data follows it and truncating would
/// silently drop that data. The header sanity checks (known type
/// byte, plausible length) reject almost every offset before the CRC
/// is computed, so the resync is cheap on real segments.
bool HasIntactRecordAfter(std::string_view contents, size_t from) {
  for (size_t offset = from;
       offset + kRecordHeaderBytes + kRecordTrailerBytes <= contents.size();
       ++offset) {
    const uint8_t type_byte = static_cast<uint8_t>(contents[offset]);
    if (type_byte < 1 || type_byte > kBatchTypeByte) continue;
    const uint32_t payload_length = LoadU32(contents.data() + offset + 1);
    if (payload_length > kMaxRecordPayload) continue;
    const size_t record_end =
        offset + kRecordHeaderBytes + payload_length + kRecordTrailerBytes;
    if (record_end > contents.size()) continue;
    const uint32_t stored_crc =
        LoadU32(contents.data() + offset + kRecordHeaderBytes + payload_length);
    if (ComputeCrc32(contents.substr(
            offset, kRecordHeaderBytes + payload_length)) == stored_crc) {
      return true;
    }
  }
  return false;
}

/// Segment indices present in `dir`, sorted ascending. NotFound when
/// the directory itself is missing.
Result<std::vector<int64_t>> ListSegments(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    if (errno == ENOENT) {
      return Status::NotFound("wal: no such directory: " + dir);
    }
    return Status::IoError("wal: cannot open directory: " + dir + ": " +
                           std::strerror(errno));
  }
  std::vector<int64_t> indices;
  for (struct dirent* entry = ::readdir(handle); entry != nullptr;
       entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    // Strict "wal-<digits>.log" match; anything else in the directory
    // (snapshot, temp files, stray editors' droppings) is ignored.
    if (name.size() < 9 || name.substr(0, 4) != "wal-" ||
        name.substr(name.size() - 4) != ".log") {
      continue;
    }
    const std::string digits = name.substr(4, name.size() - 8);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    // from_chars instead of stoll: a stray all-digits name longer
    // than int64 must be skipped like any other foreign file, not
    // throw out_of_range through startup recovery.
    int64_t index = 0;
    const auto [end, error] =
        std::from_chars(digits.data(), digits.data() + digits.size(), index);
    if (error != std::errc() || end != digits.data() + digits.size()) {
      continue;
    }
    indices.push_back(index);
  }
  ::closedir(handle);
  std::sort(indices.begin(), indices.end());
  return indices;
}

/// Loads and verifies snapshot.snap. NotFound when absent.
Status LoadSnapshot(const std::string& dir, WalRecovery* out) {
  const std::string path = dir + "/" + std::string(kSnapshotFileName);
  Result<std::string> contents = ReadFileToString(path);
  if (!contents.ok()) return contents.status();
  const std::string& blob = contents.ValueOrDie();
  // magic + u32 version + u64 compaction seq + u64 payload size.
  const size_t header_bytes = kSnapshotMagic.size() + 4 + 8 + 8;
  if (blob.size() < header_bytes) {
    return Status::ParseError("wal: truncated snapshot header: " + path);
  }
  if (std::string_view(blob).substr(0, kSnapshotMagic.size()) !=
      kSnapshotMagic) {
    return Status::ParseError("wal: bad snapshot magic: " + path);
  }
  const char* fields = blob.data() + kSnapshotMagic.size();
  const uint32_t version = LoadU32(fields);
  const uint64_t compaction_seq = LoadU64(fields + 4);
  const uint64_t payload_size = LoadU64(fields + 12);
  if (version != kSnapshotVersion) {
    return Status::FailedPrecondition(
        "wal: snapshot version " + std::to_string(version) + " in " + path +
        "; this build reads version " + std::to_string(kSnapshotVersion));
  }
  // Compared by subtraction so a huge size field cannot wrap the sum.
  if (blob.size() - header_bytes < 4 ||
      payload_size != blob.size() - header_bytes - 4) {
    return Status::ParseError("wal: snapshot size mismatch: " + path);
  }
  const std::string_view payload =
      std::string_view(blob).substr(header_bytes, payload_size);
  const uint32_t stored_crc = LoadU32(payload.data() + payload.size());
  const uint32_t computed = ComputeCrc32(payload);
  if (computed != stored_crc) {
    return Status::ParseError("wal: snapshot CRC mismatch: " + path);
  }
  out->has_snapshot = true;
  out->snapshot_csv.assign(payload);
  out->snapshot_crc = computed;
  out->snapshot_seq = compaction_seq;
  return Status::OK();
}

/// Creates each component of `dir` that does not exist yet.
Status MakeDirs(const std::string& dir) {
  std::string prefix;
  size_t start = 0;
  while (start <= dir.size()) {
    size_t slash = dir.find('/', start);
    if (slash == std::string::npos) slash = dir.size();
    prefix = dir.substr(0, slash);
    start = slash + 1;
    if (prefix.empty()) continue;  // leading '/'
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IoError("wal: cannot create directory: " + prefix +
                             ": " + std::strerror(errno));
    }
  }
  return Status::OK();
}

/// Shared scan behind InspectWal (repair=false) and WalWriter::Open
/// (repair=true). In repair mode a torn tail in the final segment is
/// physically truncated so the segment ends on a record boundary.
Status ScanWal(const std::string& dir, bool repair, WalRecovery* out) {
  CORROB_FAILPOINT("wal.replay");
  *out = WalRecovery{};
  Status snapshot_status = LoadSnapshot(dir, out);
  if (!snapshot_status.ok() &&
      snapshot_status.code() != StatusCode::kNotFound) {
    return snapshot_status;
  }
  CORROB_ASSIGN_OR_RETURN(std::vector<int64_t> indices, ListSegments(dir));
  out->segments_scanned = static_cast<int64_t>(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    const bool is_final = i + 1 == indices.size();
    const std::string path =
        dir + "/" + wal_internal::SegmentFileName(indices[i]);
    CORROB_ASSIGN_OR_RETURN(std::string contents, ReadFileToString(path));
    CORROB_ASSIGN_OR_RETURN(SegmentScan scan,
                            ScanSegmentBytes(contents, path));
    if (scan.torn) {
      if (!is_final) {
        return Status::ParseError(
            "wal: corrupt record mid-log in non-final segment " + path);
      }
      // Resync before classifying: if any intact record decodes past
      // the damage, acked data follows it — that is mid-segment
      // corruption (bit rot, an edited file), and truncating here
      // would silently drop those acked records. A genuine kill -9
      // tail is at most one partial record with nothing after it.
      if (HasIntactRecordAfter(contents, scan.valid_bytes + 1)) {
        return Status::ParseError(
            "wal: damaged record followed by intact records in " + path +
            " (mid-segment corruption, not a torn tail)");
      }
      out->tail_truncated = true;
      out->tail_bytes_dropped = contents.size() - scan.valid_bytes;
      // The single torn-tail WARNING the crash-soak job greps for:
      // a partial final record after kill -9 is expected damage, not
      // an error.
      CORROB_LOG_WARNING << "wal: torn tail in " << path << ": dropped "
                         << out->tail_bytes_dropped
                         << " byte(s) of partial final record"
                         << (repair ? " (truncated)" : " (inspect only)");
      if (repair) {
        // A tail shorter than the header means the segment file was
        // born in a crashed rotation; empty it so OpenSegment writes
        // a fresh header.
        const uint64_t keep =
            scan.valid_bytes < kSegmentHeaderBytes ? 0 : scan.valid_bytes;
        if (::truncate(path.c_str(), static_cast<off_t>(keep)) != 0) {
          return Status::IoError("wal: cannot truncate torn tail: " + path +
                                 ": " + std::strerror(errno));
        }
      }
    }
    for (WalRecord& record : scan.records) {
      if (record.type == WalRecordType::kSnapshotMarker) {
        if (!out->has_snapshot) {
          return Status::ParseError(
              "wal: snapshot marker in " + path +
              " but no snapshot.snap; the log cannot be replayed alone");
        }
        if (record.compaction_seq < out->snapshot_seq) {
          // Residue of a superseded compaction: the crash (or unlink
          // failure) left this marker's segment behind after a later
          // compaction published its snapshot. Its records are
          // already folded in; replay is idempotent, so tolerate it.
          ++out->stale_markers;
        } else if (record.compaction_seq > out->snapshot_seq) {
          return Status::ParseError(
              "wal: snapshot marker in " + path +
              " carries compaction seq " +
              std::to_string(record.compaction_seq) +
              " but snapshot.snap is at seq " +
              std::to_string(out->snapshot_seq) +
              " (snapshot was rolled back or replaced)");
        } else if (record.snapshot_crc != out->snapshot_crc) {
          return Status::ParseError(
              "wal: snapshot marker CRC does not match snapshot.snap in " +
              path + " (mismatched snapshot/log pair)");
        }
      }
      out->records.push_back(std::move(record));
    }
  }
  return Status::OK();
}

}  // namespace

std::string_view WalRecordTypeName(WalRecordType type) {
  switch (type) {
    case WalRecordType::kAddSource:
      return "add-source";
    case WalRecordType::kAddVote:
      return "add-vote";
    case WalRecordType::kRetractVote:
      return "retract-vote";
    case WalRecordType::kSnapshotMarker:
      return "snapshot-marker";
  }
  return "unknown";
}

WalRecord MakeAddSource(std::string source) {
  WalRecord record;
  record.type = WalRecordType::kAddSource;
  record.source = std::move(source);
  return record;
}

WalRecord MakeAddVote(std::string source, std::string fact, Vote vote) {
  WalRecord record;
  record.type = WalRecordType::kAddVote;
  record.source = std::move(source);
  record.fact = std::move(fact);
  record.vote = vote;
  return record;
}

WalRecord MakeRetractVote(std::string source, std::string fact) {
  WalRecord record;
  record.type = WalRecordType::kRetractVote;
  record.source = std::move(source);
  record.fact = std::move(fact);
  return record;
}

Result<WalFsyncPolicy> ParseWalFsyncPolicy(std::string_view text) {
  if (text == "always") return WalFsyncPolicy::kAlways;
  if (text == "interval") return WalFsyncPolicy::kInterval;
  if (text == "never") return WalFsyncPolicy::kNever;
  return Status::InvalidArgument("unknown wal fsync policy '" +
                                 std::string(text) +
                                 "' (want always|interval|never)");
}

std::string_view WalFsyncPolicyName(WalFsyncPolicy policy) {
  switch (policy) {
    case WalFsyncPolicy::kAlways:
      return "always";
    case WalFsyncPolicy::kInterval:
      return "interval";
    case WalFsyncPolicy::kNever:
      return "never";
  }
  return "unknown";
}

Status ValidateWalOptions(const WalOptions& options) {
  if (options.fsync_interval_records < 1) {
    return Status::InvalidArgument(
        "wal fsync_interval_records must be >= 1, got " +
        std::to_string(options.fsync_interval_records));
  }
  if (options.segment_bytes < 1) {
    return Status::InvalidArgument("wal segment_bytes must be >= 1, got " +
                                   std::to_string(options.segment_bytes));
  }
  return Status::OK();
}

std::vector<WalRecord> WalRecovery::Mutations() const {
  std::vector<WalRecord> mutations;
  mutations.reserve(records.size());
  for (const WalRecord& record : records) {
    if (record.type != WalRecordType::kSnapshotMarker) {
      mutations.push_back(record);
    }
  }
  return mutations;
}

Result<WalRecovery> InspectWal(const std::string& dir) {
  WalRecovery recovery;
  CORROB_RETURN_NOT_OK(ScanWal(dir, /*repair=*/false, &recovery));
  return recovery;
}

namespace wal_internal {

std::string EncodeRecord(const WalRecord& record) {
  return FrameRecord(static_cast<uint8_t>(record.type),
                     EncodePayload(record));
}

std::string EncodeBatchRecord(std::span<const WalRecord> records) {
  std::string payload;
  ByteWriter writer(&payload);
  writer.U32(static_cast<uint32_t>(records.size()));
  for (const WalRecord& record : records) {
    writer.U8(static_cast<uint8_t>(record.type));
    writer.Str(EncodePayload(record));
  }
  return FrameRecord(kBatchTypeByte, payload);
}

std::string SegmentHeader() {
  std::string header(kSegmentMagic);
  ByteWriter(&header).U32(kSegmentVersion);
  return header;
}

std::string SegmentFileName(int64_t index) {
  std::string digits = std::to_string(index);
  while (digits.size() < 6) digits.insert(digits.begin(), '0');
  return "wal-" + digits + ".log";
}

}  // namespace wal_internal

WalWriter::WalWriter(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options) {}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : dir_(std::move(other.dir_)),
      options_(other.options_),
      fd_(other.fd_),
      segment_index_(other.segment_index_),
      segment_bytes_written_(other.segment_bytes_written_),
      records_appended_(other.records_appended_),
      records_since_sync_(other.records_since_sync_),
      compaction_seq_(other.compaction_seq_) {
  other.fd_ = -1;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    CloseActive();
    dir_ = std::move(other.dir_);
    options_ = other.options_;
    fd_ = other.fd_;
    segment_index_ = other.segment_index_;
    segment_bytes_written_ = other.segment_bytes_written_;
    records_appended_ = other.records_appended_;
    records_since_sync_ = other.records_since_sync_;
    compaction_seq_ = other.compaction_seq_;
    other.fd_ = -1;
  }
  return *this;
}

WalWriter::~WalWriter() { CloseActive(); }

void WalWriter::CloseActive() {
  if (fd_ < 0) return;
  if (options_.fsync_policy != WalFsyncPolicy::kNever &&
      records_since_sync_ > 0) {
    // Best-effort: a close-time fsync failure has no caller to report
    // to; the next recovery truncates whatever did not land.
    (void)::fsync(fd_);  // lint: discard-ok: best-effort close-time flush
  }
  (void)::close(fd_);  // lint: discard-ok: destructor has no error channel
  fd_ = -1;
}

Status WalWriter::OpenSegment(int64_t index, bool truncate) {
  CloseActive();
  const std::string path = dir_ + "/" + wal_internal::SegmentFileName(index);
  int flags = O_WRONLY | O_CREAT | O_APPEND;
  if (truncate) flags |= O_TRUNC;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    return Status::IoError("wal: cannot open segment: " + path + ": " +
                           std::strerror(errno));
  }
  struct stat info;
  if (::fstat(fd_, &info) != 0) {
    return Status::IoError("wal: cannot stat segment: " + path + ": " +
                           std::strerror(errno));
  }
  segment_index_ = index;
  segment_bytes_written_ = static_cast<int64_t>(info.st_size);
  records_since_sync_ = 0;
  if (segment_bytes_written_ == 0) {
    CORROB_RETURN_NOT_OK(WriteBytes(wal_internal::SegmentHeader()));
    if (options_.fsync_policy != WalFsyncPolicy::kNever) {
      if (::fsync(fd_) != 0) {
        return Status::IoError("wal: fsync failed on fresh segment: " + path +
                               ": " + std::strerror(errno));
      }
      // Make the new directory entry itself durable; without this a
      // crash can forget the file existed even though its bytes were
      // synced.
      int dir_fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
      if (dir_fd >= 0) {
        (void)::fsync(dir_fd);  // lint: discard-ok: best-effort dir sync
        (void)::close(dir_fd);  // lint: discard-ok: read-only fd
      }
    }
  }
  return Status::OK();
}

Status WalWriter::WriteBytes(std::string_view bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd_, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(
          "wal: write failed on segment " +
          wal_internal::SegmentFileName(segment_index_) + ": " +
          std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  segment_bytes_written_ += static_cast<int64_t>(bytes.size());
  return Status::OK();
}

Status WalWriter::Sync() {
  CORROB_FAILPOINT("wal.fsync");
  if (fd_ < 0) {
    return Status::FailedPrecondition("wal: Sync on a closed writer");
  }
  if (::fsync(fd_) != 0) {
    return Status::IoError("wal: fsync failed on segment " +
                           wal_internal::SegmentFileName(segment_index_) +
                           ": " + std::strerror(errno));
  }
  records_since_sync_ = 0;
  return Status::OK();
}

Status WalWriter::MaybeSync() {
  switch (options_.fsync_policy) {
    case WalFsyncPolicy::kAlways:
      return Sync();
    case WalFsyncPolicy::kInterval:
      if (records_since_sync_ >= options_.fsync_interval_records) {
        return Sync();
      }
      return Status::OK();
    case WalFsyncPolicy::kNever:
      return Status::OK();
  }
  return Status::OK();
}

Status WalWriter::Rotate() {
  CORROB_FAILPOINT("wal.rotate");
  if (options_.fsync_policy != WalFsyncPolicy::kNever &&
      records_since_sync_ > 0) {
    CORROB_RETURN_NOT_OK(Sync());
  }
  return OpenSegment(segment_index_ + 1, /*truncate=*/false);
}

Status WalWriter::Append(const WalRecord& record) {
  CORROB_FAILPOINT("wal.append");
  if (fd_ < 0) {
    return Status::FailedPrecondition("wal: Append on a closed writer");
  }
  if (segment_bytes_written_ >= options_.segment_bytes) {
    CORROB_RETURN_NOT_OK(Rotate());
  }
  CORROB_RETURN_NOT_OK(WriteBytes(wal_internal::EncodeRecord(record)));
  ++records_appended_;
  ++records_since_sync_;
  return MaybeSync();
}

Status WalWriter::AppendBatch(std::span<const WalRecord> records) {
  CORROB_FAILPOINT("wal.append");
  if (fd_ < 0) {
    return Status::FailedPrecondition("wal: AppendBatch on a closed writer");
  }
  if (records.empty()) return Status::OK();
  for (const WalRecord& record : records) {
    if (record.type == WalRecordType::kSnapshotMarker) {
      return Status::InvalidArgument(
          "wal: AppendBatch takes mutation records only; markers are "
          "written by Compact");
    }
  }
  if (segment_bytes_written_ >= options_.segment_bytes) {
    CORROB_RETURN_NOT_OK(Rotate());
  }
  // One frame, one CRC, at most one fsync: the batch is the
  // durability unit, so replay can never surface a strict prefix of
  // it. A lone record keeps the cheaper single-record framing — it is
  // already atomic on its own.
  const std::string framed =
      records.size() == 1 ? wal_internal::EncodeRecord(records.front())
                          : wal_internal::EncodeBatchRecord(records);
  const int64_t pre_bytes = segment_bytes_written_;
  const int64_t pre_since_sync = records_since_sync_;
  Status written = WriteBytes(framed);
  if (written.ok()) {
    records_appended_ += static_cast<int64_t>(records.size());
    records_since_sync_ += static_cast<int64_t>(records.size());
    written = MaybeSync();
  }
  if (!written.ok()) {
    // Roll the frame back so a NACKed batch leaves no trace for a
    // later replay. If even the rollback fails, the frame stays
    // behind — still all-or-nothing (one CRC unit: replay applies the
    // whole batch or truncates it as a torn tail), but it may become
    // durable despite the NACK; the caller's read-only degradation
    // keeps that indeterminacy from compounding.
    if (::ftruncate(fd_, static_cast<off_t>(pre_bytes)) == 0) {
      if (segment_bytes_written_ != pre_bytes) {
        // The write itself landed (the fsync failed): undo its
        // accounting along with its bytes.
        records_appended_ -= static_cast<int64_t>(records.size());
      }
      segment_bytes_written_ = pre_bytes;
      records_since_sync_ = pre_since_sync;
    } else {
      CORROB_LOG_WARNING
          << "wal: cannot roll back failed batch append on segment "
          << wal_internal::SegmentFileName(segment_index_) << ": "
          << std::strerror(errno)
          << " (the frame is atomic but may become durable despite the "
             "NACK)";
    }
  }
  return written;
}

Status WalWriter::Compact(std::string_view dataset_csv,
                          uint64_t records_folded) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("wal: Compact on a closed writer");
  }
  // 1. Durably publish the snapshot under the next compaction
  //    sequence number. A crash after this point leaves snapshot +
  //    old segments: replay folds the old records onto the snapshot
  //    idempotently, and any marker those segments carry has an older
  //    sequence, which recovery recognizes as superseded instead of
  //    failing the CRC pairing.
  const uint64_t seq = compaction_seq_ + 1;
  const uint32_t crc = ComputeCrc32(dataset_csv);
  std::string blob(kSnapshotMagic);
  ByteWriter writer(&blob);
  writer.U32(kSnapshotVersion);
  writer.U64(seq);
  writer.U64(static_cast<uint64_t>(dataset_csv.size()));
  writer.Raw(dataset_csv);
  writer.U32(crc);
  CORROB_RETURN_NOT_OK(WriteFileAtomic(
      dir_ + "/" + std::string(kSnapshotFileName), blob));
  // The on-disk snapshot is the authority from here on: even if a
  // later step fails, a retried Compact must supersede this sequence,
  // not reuse it against a different payload.
  compaction_seq_ = seq;
  // 2. Start a fresh segment whose first record pins the snapshot CRC.
  const int64_t last_old_segment = segment_index_;
  CORROB_RETURN_NOT_OK(Rotate());
  WalRecord marker;
  marker.type = WalRecordType::kSnapshotMarker;
  marker.snapshot_crc = crc;
  marker.records_folded = records_folded;
  marker.compaction_seq = seq;
  CORROB_RETURN_NOT_OK(WriteBytes(wal_internal::EncodeRecord(marker)));
  CORROB_RETURN_NOT_OK(Sync());
  // 3. Drop the folded segments. Failure here is cosmetic — a stale
  //    segment replays idempotently on top of the snapshot and its
  //    marker is tolerated by sequence — so log and keep serving
  //    rather than flip the WAL unhealthy.
  for (int64_t index = 0; index <= last_old_segment; ++index) {
    const std::string path =
        dir_ + "/" + wal_internal::SegmentFileName(index);
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      CORROB_LOG_WARNING << "wal: cannot remove folded segment " << path
                         << ": " << std::strerror(errno)
                         << " (harmless: replay is idempotent)";
    }
  }
  return Status::OK();
}

Result<WalWriter> WalWriter::Open(const std::string& dir,
                                  const WalOptions& options,
                                  WalRecovery* recovery) {
  CORROB_RETURN_NOT_OK(ValidateWalOptions(options));
  CORROB_RETURN_NOT_OK(MakeDirs(dir));
  WalRecovery local;
  WalRecovery* scan_out = recovery != nullptr ? recovery : &local;
  CORROB_RETURN_NOT_OK(ScanWal(dir, /*repair=*/true, scan_out));
  WalWriter writer(dir, options);
  writer.compaction_seq_ = scan_out->snapshot_seq;
  CORROB_ASSIGN_OR_RETURN(std::vector<int64_t> indices, ListSegments(dir));
  const int64_t start_index = indices.empty() ? 0 : indices.back();
  CORROB_RETURN_NOT_OK(writer.OpenSegment(start_index, /*truncate=*/false));
  return writer;
}

}  // namespace corrob
