// corrob_perfbench: the repository benchmark. One process generates a
// workload's corpora from --seed with src/synth, starts a fresh corrobd
// per measured phase, drives it through CorrobClient, checks every
// sampled answer bit-for-bit against an in-process Run, checks the
// daemon's cache/coalesce counters against the workload's intent, and
// prints every metric by name and unit. perfbench/README.md explains
// the workloads, the steadiness rules and the layer -> metric map.
//
//   corrob_perfbench --workload cold_read|hot_read|write_read
//       --seed N --seconds S --trace 0|1
//       --corrobd PATH --work-dir DIR [--source-id ID]
//
// The last stdout line is the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones. A failed correctness or workload-intent check prints the
// result with "correct": false and exits 1; any other error exits 2
// without a result.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "core/delta_apply.h"
#include "core/registry.h"
#include "daemon.h"
#include "data/dataset.h"
#include "data/dataset_io.h"
#include "data/wal.h"
#include "layers.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "server/client.h"
#include "server/protocol.h"
#include "synth/restaurant_sim.h"
#include "synth/synthetic.h"

namespace perfbench {
namespace {

using corrob::CorroborationResult;
using corrob::Dataset;
using corrob::Result;
using corrob::Status;
using corrob::WalRecord;
using corrob::obs::JsonValue;
using corrob::server::CorrobClient;
using corrob::server::CorroborateOutcome;
using corrob::server::CorroborateRequest;
using corrob::server::CorroborateResponse;

// ---------------------------------------------------------------------
// Fixed benchmark settings (perfbench/README.md gives the evidence).

constexpr int kCacheEntries = 256;       // corrobd's default capacity
constexpr int kSetupSpawns = 7;          // setup_s is their median
constexpr int kColdWarmupReads = 264;    // > kCacheEntries: LRU evicting
constexpr int kColdCorpora = 4;          // cold reads rotate over this many
constexpr char kWrittenDataset[] = "bench";  // the one writes go to
constexpr int kHotKeys = 8;
constexpr double kHotWarmupSeconds = 1.0;
constexpr double kMixedWarmupSeconds = 2.0;
constexpr double kWriteShare = 0.5;      // read workloads: write phase, of --seconds
constexpr double kWriteWarmupSeconds = 2.0;  // untimed, before the write phase
constexpr int kWriteWarmupMin = 10;
constexpr int kFlipsPerBatch = 16;
constexpr double kWriteHz = 5.0;         // write_read writer
// write_read's read pairs: kReadPairsPerWrite per write interval, the
// first kReadOffsetNs after the write was due, kReadSpacingNs apart, so
// they fall after a typical ApplyDelta has returned.
constexpr int kReadPairsPerWrite = 4;
constexpr int64_t kReadOffsetNs = 100'000'000;
constexpr int64_t kReadSpacingNs = 25'000'000;
constexpr size_t kMaxWindows = 5;        // latency quantiles: median of windows
constexpr size_t kMinPerWindow = 50;
constexpr int kSampleEvery = 16;         // closed-loop correctness sample
constexpr int kMaxCleanSamples = 6;      // write_read correctness samples
constexpr int kRecorderEntries = 4096;   // traced daemon's ring
constexpr double kRequestTimeoutMs = 60'000;

int64_t NowNanos() { return corrob::obs::MonotonicClock::Get()->NowNanos(); }

void SleepUntil(int64_t when_ns) {
  const int64_t wait = when_ns - NowNanos();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

corrob::StopSignal RequestStop() {
  return corrob::StopSignal(
      nullptr, corrob::Deadline::AfterMs(corrob::obs::MonotonicClock::Get(),
                                         kRequestTimeoutMs));
}

/// Keeps the driver's CPU from going idle while it lives. On a VM an
/// idle vCPU halts, and the next wakeup waits for the host to schedule
/// it again; that wait lands on whichever operation was due. The
/// spinning thread is SCHED_IDLE, so it runs only when nothing else on
/// the CPU is runnable and is preempted by any wakeup.
class IdleSpinner {
 public:
  IdleSpinner()
      : thread_([this] {
          const sched_param lowest{};
          pthread_setschedparam(pthread_self(), SCHED_IDLE, &lowest);
          while (!stop_.load(std::memory_order_relaxed)) __builtin_ia32_pause();
        }) {}
  IdleSpinner(const IdleSpinner&) = delete;
  IdleSpinner& operator=(const IdleSpinner&) = delete;
  ~IdleSpinner() {
    stop_.store(true);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------------------------
// Arguments.

enum class Workload { kColdRead, kHotRead, kWriteRead };

struct Args {
  Workload workload = Workload::kColdRead;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string corrobd;
  std::string work_dir;
  std::string source_id = "unknown";
};

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Status::InvalidArgument(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload_name = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          return Status::InvalidArgument("--trace takes 0 or 1");
        }
        args.trace = value == "1";
      } else if (flag == "--corrobd") {
        args.corrobd = value;
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--source-id") {
        args.source_id = value;

      } else {
        return Status::InvalidArgument("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Status::InvalidArgument(flag + ": bad value '" + value + "'");
    }
  }
  if (args.workload_name == "cold_read") {
    args.workload = Workload::kColdRead;
  } else if (args.workload_name == "hot_read") {
    args.workload = Workload::kHotRead;
  } else if (args.workload_name == "write_read") {
    args.workload = Workload::kWriteRead;
  } else {
    return Status::InvalidArgument(
        "--workload must be cold_read, hot_read or write_read");
  }
  if (!have_seed || args.seconds <= 0 || args.corrobd.empty() ||
      args.work_dir.empty()) {
    return Status::InvalidArgument(
        "--seed, --seconds > 0, --corrobd and --work-dir are required");
  }
  return args;
}

// ---------------------------------------------------------------------
// Corpus, reference answers and vote deltas.

Result<CorroborationResult> Reference(const Dataset& dataset,
                                      const std::string& algorithm) {
  CORROB_ASSIGN_OR_RETURN(std::unique_ptr<corrob::Corroborator> corroborator,
                          corrob::MakeCorroborator(algorithm));
  return corroborator->Run(dataset);
}

/// One dataset the daemon serves, with the in-process answer to the
/// workload's read.
struct Corpus {
  /// The daemon's name for it; corpus 0 is kWrittenDataset.
  std::string name;
  std::string description;
  std::unique_ptr<Dataset> dataset;
  std::string csv_path;
  int64_t csv_bytes = 0;
  /// The algorithm the workload's reads request.
  std::string algorithm;
  CorroborationResult reference;
};

Result<Corpus> MakeCorpus(const Args& args, int index) {
  Corpus corpus;
  corpus.name = index == 0 ? kWrittenDataset
                           : kWrittenDataset + std::to_string(index);
  const uint64_t seed = args.seed + static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ULL;
  if (args.workload == Workload::kHotRead) {
    corrob::SyntheticOptions options;
    options.num_facts = 100'000;
    options.num_sources = 10;
    options.seed = seed;
    CORROB_ASSIGN_OR_RETURN(corrob::SyntheticDataset generated,
                            corrob::GenerateSynthetic(options));
    corpus.dataset = std::make_unique<Dataset>(std::move(generated.dataset));
    corpus.description = "synthetic";
    corpus.algorithm = "TwoEstimate";
  } else {
    corrob::RestaurantSimOptions options;
    options.seed = seed;
    CORROB_ASSIGN_OR_RETURN(corrob::RestaurantCorpus generated,
                            corrob::GenerateRestaurantCorpus(options));
    corpus.dataset = std::make_unique<Dataset>(std::move(generated.dataset));
    corpus.description = "restaurant";
    corpus.algorithm =
        args.workload == Workload::kColdRead ? "IncEstHeu" : "TwoEstimate";
  }
  // Plain write (no fsync): the corpus is an input, not under test.
  corpus.csv_path = args.work_dir + "/" + corpus.name + ".csv";
  const std::string csv = corrob::DatasetToCsv(*corpus.dataset);
  std::ofstream out(corpus.csv_path, std::ios::binary);
  out << csv;
  if (!out) return Status::IoError("cannot write " + corpus.csv_path);
  corpus.csv_bytes = static_cast<int64_t>(csv.size());
  CORROB_ASSIGN_OR_RETURN(corpus.reference,
                          Reference(*corpus.dataset, corpus.algorithm));
  return corpus;
}

/// The workload's corpora: one, or kColdCorpora for cold_read, each
/// generated from its own seed derived from --seed (corpus 0 from
/// --seed itself). A run then averages over corpora whose IncEstHeu
/// cost differs, instead of depending on one (perfbench/README.md).
Result<std::vector<Corpus>> MakeCorpora(const Args& args) {
  const int count = args.workload == Workload::kColdRead ? kColdCorpora : 1;
  std::vector<Corpus> corpora;
  for (int k = 0; k < count; ++k) {
    CORROB_ASSIGN_OR_RETURN(Corpus corpus, MakeCorpus(args, k));
    corpora.push_back(std::move(corpus));
  }
  return corpora;
}

/// Bit-for-bit comparison of a served answer with an in-process run.
bool SameAnswer(const CorroborateResponse& served,
                const CorroborationResult& expected) {
  const auto same_bits = [](const std::vector<double>& a,
                            const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  };
  return served.termination == static_cast<uint8_t>(expected.termination) &&
         served.iterations == static_cast<uint32_t>(expected.iterations) &&
         same_bits(served.fact_probability, expected.fact_probability) &&
         same_bits(served.source_trust, expected.source_trust);
}

/// Deterministic stream of delta batches. An odd batch flips
/// kFlipsPerBatch distinct votes that existing sources cast on existing
/// facts; the even batch after it flips them back. The dataset's size
/// never changes and its content stays within one batch of the corpus,
/// so the cost of a read does not drift as writes accumulate.
class FlipStream {
 public:
  FlipStream(const Dataset& dataset, uint64_t seed)
      : dataset_(dataset), rng_(seed) {
    for (corrob::FactId f = 0; f < dataset.num_facts(); ++f) {
      for (const corrob::SourceVote& vote : dataset.VotesOnFact(f)) {
        pairs_.push_back({vote.source, f});
        current_.push_back(vote.vote);
      }
    }
  }

  std::vector<WalRecord> Next() {
    if (!restore_next_) {
      flipped_.clear();
      while (flipped_.size() < static_cast<size_t>(kFlipsPerBatch)) {
        const uint64_t index = rng_.NextBelow(pairs_.size());
        if (std::find(flipped_.begin(), flipped_.end(), index) == flipped_.end()) {
          flipped_.push_back(index);
        }
      }
    }
    restore_next_ = !restore_next_;
    std::vector<WalRecord> batch;
    for (const uint64_t index : flipped_) {
      corrob::Vote& vote = current_[index];
      vote = vote == corrob::Vote::kTrue ? corrob::Vote::kFalse
                                         : corrob::Vote::kTrue;
      const auto [source, fact] = pairs_[index];
      batch.push_back(corrob::MakeAddVote(dataset_.source_name(source),
                                          dataset_.fact_name(fact), vote));
    }
    return batch;
  }

 private:
  const Dataset& dataset_;
  corrob::Rng rng_;
  std::vector<std::pair<corrob::SourceId, corrob::FactId>> pairs_;
  std::vector<corrob::Vote> current_;
  /// Indexes into pairs_ of the votes the last batch flipped.
  std::vector<uint64_t> flipped_;
  bool restore_next_ = false;
};

// ---------------------------------------------------------------------
// Operation logs.

struct OpLog {
  /// Latency of each completed operation, and when it was due (open
  /// loop) or sent (closed loop).
  std::vector<double> latency_ms;
  std::vector<int64_t> started_ns;
  /// Client request id -> latency from the actual send, for the
  /// traced transport join.
  std::vector<std::pair<std::string, double>> by_id;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// How long the timed operations were being issued.
  int64_t window_ns = 0;

  void Merge(const OpLog& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    started_ns.insert(started_ns.end(), other.started_ns.begin(),
                      other.started_ns.end());
    by_id.insert(by_id.end(), other.by_id.begin(), other.by_id.end());
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// A served answer kept for the correctness check, with the number of
/// delta batches the daemon had applied when it computed it.
struct Sample {
  std::string dataset;
  int64_t batches_applied = 0;
  CorroborateResponse response;
  std::string raw_frame;
};

CorroborateRequest MakeRead(const Corpus& corpus, std::string key,
                            std::string id) {
  CorroborateRequest request;
  request.dataset = corpus.name;
  request.algorithm = corpus.algorithm;
  if (!key.empty()) request.options = {{"perfbench.key", std::move(key)}};
  request.request_id = std::move(id);
  return request;
}

/// One read; returns the outcome when the daemon answered with a
/// result, nullopt for a shed, typed error or dropped response.
std::optional<CorroborateOutcome> ReadOnce(CorrobClient& client,
                                           const CorroborateRequest& request,
                                           int64_t timed_from_ns,
                                           OpLog* log) {
  ++log->attempted;
  const int64_t sent = NowNanos();
  Result<CorroborateOutcome> outcome = client.Corroborate(request, RequestStop());
  const int64_t done = NowNanos();
  if (!outcome.ok() ||
      outcome.ValueOrDie().kind != CorroborateOutcome::Kind::kResult) {
    ++log->failed;
    return std::nullopt;
  }
  log->latency_ms.push_back(static_cast<double>(done - timed_from_ns) / 1e6);
  log->started_ns.push_back(timed_from_ns);
  log->by_id.emplace_back(request.request_id,
                          static_cast<double>(done - sent) / 1e6);
  return std::move(outcome).ValueOrDie();
}

/// Shared progress of the delta writer, read by paced readers to
/// find answers computed on a known dataset version.
struct WriteProgress {
  std::atomic<int64_t> started{0};
  std::atomic<int64_t> acked{0};
};

/// Sends one delta batch, timed from `timed_from_ns`; an acked batch
/// is appended to `acked`.
void WriteOnce(CorrobClient& client, std::vector<WalRecord> batch,
               int64_t timed_from_ns, OpLog* log, WriteProgress* progress,
               std::vector<std::vector<WalRecord>>* acked) {
  corrob::server::ApplyDeltaRequest request;
  request.dataset = kWrittenDataset;
  request.deltas = std::move(batch);
  ++log->attempted;
  progress->started.fetch_add(1);
  Result<corrob::server::ApplyDeltaResponse> response =
      client.ApplyDelta(request, RequestStop());
  const int64_t done = NowNanos();
  if (!response.ok() ||
      response.ValueOrDie().applied != request.deltas.size()) {
    ++log->failed;
    // The batch may or may not be applied; later answers are then
    // unverifiable, so no read counts as clean from here on.
    progress->started.fetch_add(1'000'000);
    return;
  }
  acked->push_back(std::move(request.deltas));
  progress->acked.fetch_add(1);
  log->latency_ms.push_back(static_cast<double>(done - timed_from_ns) / 1e6);
  log->started_ns.push_back(timed_from_ns);
}

/// Paced open-loop writes: batch k is due at start + k / rate and is
/// timed from its due time.
OpLog PacedWrites(CorrobClient& client, FlipStream& flips, int64_t start_ns,
                  int64_t count, WriteProgress* progress,
                  std::vector<std::vector<WalRecord>>* acked) {
  OpLog log;
  const int64_t spacing = static_cast<int64_t>(1e9 / kWriteHz);
  for (int64_t k = 0; k < count; ++k) {
    std::vector<WalRecord> batch = flips.Next();
    const int64_t due = start_ns + k * spacing;
    SleepUntil(due);
    WriteOnce(client, std::move(batch), due, &log, progress, acked);
  }
  return log;
}

/// Paced open-loop reads for write_read. A read that no write
/// overlapped (every started batch acked before it was sent, none
/// started before it returned) was computed on exactly the acked
/// batches, so it can be checked; up to kMaxCleanSamples are kept.
OpLog PacedReads(CorrobClient& client, const Corpus& corpus,
                 const std::string& id_prefix, int64_t start_ns,
                 int64_t count, const WriteProgress& progress,
                 std::vector<Sample>* samples) {
  OpLog log;
  const int64_t write_spacing = static_cast<int64_t>(1e9 / kWriteHz);
  const int64_t sample_stride = std::max<int64_t>(1, count / kMaxCleanSamples);
  for (int64_t j = 0; j < count; ++j) {
    const int64_t due = start_ns + (j / kReadPairsPerWrite) * write_spacing +
                        kReadOffsetNs + (j % kReadPairsPerWrite) * kReadSpacingNs;
    const CorroborateRequest request =
        MakeRead(corpus, "", id_prefix + std::to_string(j));
    SleepUntil(due);
    const int64_t started_before = progress.started.load();
    const int64_t acked_before = progress.acked.load();
    std::optional<CorroborateOutcome> outcome =
        ReadOnce(client, request, due, &log);
    const bool clean = started_before == acked_before &&
                       progress.started.load() == started_before;
    if (outcome && clean && samples != nullptr &&
        static_cast<int64_t>(samples->size()) < kMaxCleanSamples &&
        j >= static_cast<int64_t>(samples->size()) * sample_stride) {
      samples->push_back(Sample{request.dataset, acked_before,
                                std::move(outcome->result),
                                std::move(outcome->raw_frame)});
    }
  }
  return log;
}

// ---------------------------------------------------------------------
// Daemon stats.

struct ServerStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t leaders = 0;
  int64_t followers = 0;

  ServerStats operator-(const ServerStats& base) const {
    return {hits - base.hits, misses - base.misses,
            evictions - base.evictions, leaders - base.leaders,
            followers - base.followers};
  }

};

Result<ServerStats> FetchStats(CorrobClient& client) {
  CORROB_ASSIGN_OR_RETURN(std::string text, client.Stats(RequestStop()));
  JsonValue doc;
  std::string error;
  if (!JsonValue::Parse(text, &doc, &error)) {
    return Status::ParseError("stats JSON: " + error);
  }
  bool complete = true;
  const auto field = [&](const char* block, const char* name) -> int64_t {
    const JsonValue* section = doc.Find(block);
    const JsonValue* value = section != nullptr ? section->Find(name) : nullptr;
    complete = complete && value != nullptr && value->is_number();
    return value != nullptr ? value->int_value() : 0;
  };
  ServerStats stats;
  stats.hits = field("cache", "hits");
  stats.misses = field("cache", "misses");
  stats.evictions = field("cache", "evictions");
  stats.leaders = field("coalesce", "leaders");
  stats.followers = field("coalesce", "followers");
  if (!complete) return Status::ParseError("stats JSON lacks cache/coalesce counters");
  return stats;
}

// ---------------------------------------------------------------------
// One measured daemon life: setup, warm-up, timed window, write phase
// (read workloads), checks.

struct PhaseResult {
  std::vector<double> setup_s;
  OpLog reads;   // timed window
  OpLog writes;  // write_read: timed window; read workloads: write phase
  /// Daemon CPU over the timed window and the operations it completed.
  double timed_cpu_ms = 0;
  int64_t timed_ops = 0;
  double peak_rss_mb = 0;
  ServerStats timed_stats;
  int64_t timed_batches = 0;
  double wal_bytes_per_delta = 0;
  /// Flight-recorder records of the timed reads (traced daemons only).
  std::vector<JsonValue> timed_records;
  /// A response frame the daemon sent in the timed window.
  std::string response_frame;
  /// Failed correctness or workload-intent checks.
  std::vector<std::string> failures;
};

class Phase {
 public:
  Phase(const Args& args, const std::vector<Corpus>& corpora, bool traced,
        std::string tag)
      : args_(args),
        corpora_(corpora),
        traced_(traced),
        tag_(std::move(tag)),
        flips_(*corpora.front().dataset, args.seed ^ 0x5eedf11bULL) {}

  /// Runs the workload for `seconds` against a fresh daemon started
  /// `setup_spawns` times (setup_s is timed on each); the read
  /// workloads spend kWriteShare of it in a write phase when
  /// `write_phase`, and all of it reading otherwise.
  Result<PhaseResult> Run(double seconds, int setup_spawns, bool write_phase);

 private:
  Result<std::unique_ptr<Daemon>> StartDaemons(int spawns);
  Status WarmUp();
  void TimedReads(double seconds);
  Status WritePhase(double seconds);
  void Mixed(double seconds, bool timed);
  Status FetchTimedRecords();
  Status CheckFinalAnswer();
  Status CheckSamples();
  void CheckIntent();
  double WalBytesPerDelta() const;

  std::string Id(const std::string& stream, int64_t n) const {
    return tag_ + "." + stream + std::to_string(n);
  }
  /// The n-th cold read goes to corpus n mod corpora_.size().
  CorroborateRequest ColdRead(int64_t n, const std::string& id) {
    return MakeRead(corpora_[static_cast<size_t>(n) % corpora_.size()],
                    tag_ + "k" + std::to_string(next_key_++), id);
  }
  CorroborateRequest HotRead(int64_t n, const std::string& id) const {
    return MakeRead(corpora_.front(), "hot" + std::to_string(n % kHotKeys), id);
  }

  const Args& args_;
  /// corpora_.front() is the one writes go to.
  const std::vector<Corpus>& corpora_;
  const bool traced_;
  const std::string tag_;
  FlipStream flips_;
  std::string socket_;
  std::string wal_dir_;
  CorrobClient client_;
  CorrobClient readers_[2];
  int64_t next_key_ = 0;
  WriteProgress progress_;
  std::vector<std::vector<WalRecord>> acked_;
  std::vector<Sample> samples_;
  PhaseResult result_;
};

Result<std::unique_ptr<Daemon>> Phase::StartDaemons(int spawns) {
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < spawns; ++i) {
    if (daemon != nullptr) CORROB_RETURN_NOT_OK(daemon->Stop());
    // Fresh socket and WAL per spawn: every start replays an empty log.
    const std::string base = args_.work_dir + "/" + tag_ + std::to_string(i);
    socket_ = base + ".sock";
    wal_dir_ = base + ".wal";
    std::filesystem::remove_all(wal_dir_);
    std::vector<std::string> flags = {
        "--socket", socket_,
        "--threads", "1",
        "--cache-entries", std::to_string(kCacheEntries),
        "--wal", wal_dir_,
        "--wal-fsync", "never"};
    for (const Corpus& corpus : corpora_) {
      flags.insert(flags.end(), {"--dataset", corpus.name + "=" + corpus.csv_path});
    }
    if (traced_) {
      flags.insert(flags.end(),
                   {"--slow-request-ms", "1", "--flight-recorder-entries",
                    std::to_string(kRecorderEntries)});
    }
    CORROB_ASSIGN_OR_RETURN(daemon,
                            Daemon::Spawn(args_.corrobd, flags, base + ".log"));
    CORROB_ASSIGN_OR_RETURN(const double ready, daemon->WaitReady(socket_, 120.0));
    result_.setup_s.push_back(ready);
  }
  return daemon;
}

Status Phase::WarmUp() {
  OpLog warm;
  switch (args_.workload) {
    case Workload::kColdRead:
      // Past the cache's capacity, so the LRU is already evicting.
      for (int i = 0; i < kColdWarmupReads; ++i) {
        ReadOnce(client_, ColdRead(i, Id("w", i)), NowNanos(), &warm);
      }
      break;
    case Workload::kHotRead: {
      // Every key misses once, then the loop cycles over hits.
      const int64_t until =
          NowNanos() + static_cast<int64_t>(kHotWarmupSeconds * 1e9);
      for (int64_t i = 0; i < kHotKeys || NowNanos() < until; ++i) {
        ReadOnce(client_, HotRead(i, Id("w", i)), NowNanos(), &warm);
      }
      break;
    }
    case Workload::kWriteRead:
      Mixed(kMixedWarmupSeconds, /*timed=*/false);
      return Status::OK();
  }
  if (warm.failed > 0) {
    return Status::Internal(std::to_string(warm.failed) +
                            " warm-up reads failed");
  }
  return Status::OK();
}

void Phase::TimedReads(double seconds) {
  const int64_t start = NowNanos();
  const int64_t until = start + static_cast<int64_t>(seconds * 1e9);
  while (NowNanos() < until) {
    const int64_t n = result_.reads.attempted;
    const std::string id = Id("t", n);
    const CorroborateRequest request = args_.workload == Workload::kColdRead
                                           ? ColdRead(n, id)
                                           : HotRead(n, id);
    std::optional<CorroborateOutcome> outcome =
        ReadOnce(client_, request, NowNanos(), &result_.reads);
    if (outcome && n % kSampleEvery == 0) {
      samples_.push_back(Sample{request.dataset,
                                static_cast<int64_t>(acked_.size()),
                                std::move(outcome->result),
                                std::move(outcome->raw_frame)});
    }
  }
  result_.reads.window_ns = NowNanos() - start;
}

Status Phase::WritePhase(double seconds) {
  // Closed loop on the read connection, reads stopped. Untimed writes
  // first: each ApplyDelta rebuilds the dataset, and its cost climbs
  // over the first rebuilds on a fresh heap before it levels.
  OpLog warm;
  const int64_t warm_until =
      NowNanos() + static_cast<int64_t>(kWriteWarmupSeconds * 1e9);
  for (int k = 0; k < kWriteWarmupMin || NowNanos() < warm_until; ++k) {
    WriteOnce(client_, flips_.Next(), NowNanos(), &warm, &progress_, &acked_);
  }
  if (warm.failed > 0) {
    return Status::Internal(std::to_string(warm.failed) +
                            " warm-up writes failed");
  }
  const int64_t until = NowNanos() + static_cast<int64_t>(seconds * 1e9);
  do {
    WriteOnce(client_, flips_.Next(), NowNanos(), &result_.writes, &progress_,
              &acked_);
  } while (NowNanos() < until);
  return Status::OK();
}

void Phase::Mixed(double seconds, bool timed) {
  const int64_t start = NowNanos() + 5'000'000;
  const int64_t writes = static_cast<int64_t>(std::llround(seconds * kWriteHz));
  const int64_t reads = writes * kReadPairsPerWrite;
  OpLog write_log;
  OpLog read_logs[2];
  const std::string stream = timed ? "t" : "w";
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    write_log = PacedWrites(client_, flips_, start, writes, &progress_, &acked_);
  });
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      read_logs[r] = PacedReads(readers_[r], corpora_.front(),
                                tag_ + "." + stream + (r == 0 ? "a" : "b"),
                                start, reads, progress_,
                                timed && r == 0 ? &samples_ : nullptr);
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (timed) {
    result_.writes.Merge(write_log);
    result_.reads.Merge(read_logs[0]);
    result_.reads.Merge(read_logs[1]);
    result_.reads.window_ns = NowNanos() - start;
  }
}

Status Phase::FetchTimedRecords() {
  corrob::server::IntrospectRequest request;
  request.top_k = 1;
  request.max_recent = kRecorderEntries;
  CORROB_ASSIGN_OR_RETURN(std::string text,
                          client_.Introspect(request, RequestStop()));
  JsonValue doc;
  std::string error;
  if (!JsonValue::Parse(text, &doc, &error)) {
    return Status::ParseError("introspect JSON: " + error);
  }
  const JsonValue* recorder = doc.Find("recorder");
  const JsonValue* recent =
      recorder != nullptr ? recorder->Find("recent") : nullptr;
  if (recent == nullptr) return Status::ParseError("introspect: no recent ring");
  const std::string prefix = tag_ + ".t";
  for (const JsonValue& record : recent->items()) {
    const JsonValue* id = record.Find("id");
    if (id != nullptr && id->string_value().rfind(prefix, 0) == 0) {
      result_.timed_records.push_back(record);
    }
  }
  return Status::OK();
}

Status Phase::CheckFinalAnswer() {
  // One more read of the written corpus after every write: it must
  // match an in-process run on that corpus rebuilt from every acked
  // batch.
  OpLog unused;
  const CorroborateRequest request =
      args_.workload == Workload::kColdRead ? ColdRead(0, Id("f", 0))
      : args_.workload == Workload::kHotRead
          ? HotRead(0, Id("f", 0))
          : MakeRead(corpora_.front(), "", Id("f", 0));
  std::optional<CorroborateOutcome> outcome =
      ReadOnce(client_, request, NowNanos(), &unused);
  if (!outcome) return Status::Internal("final read failed");
  samples_.push_back(Sample{request.dataset, static_cast<int64_t>(acked_.size()),
                            std::move(outcome->result), ""});
  return Status::OK();
}

Status Phase::CheckSamples() {
  // References keyed by the number of acked batches they include.
  std::vector<std::pair<int64_t, CorroborationResult>> rebuilt;
  for (const Sample& sample : samples_) {
    const auto corpus =
        std::find_if(corpora_.begin(), corpora_.end(),
                     [&](const Corpus& c) { return c.name == sample.dataset; });
    if (corpus == corpora_.end()) {
      return Status::Internal("answer sampled from unknown dataset " + sample.dataset);
    }
    const CorroborationResult* expected = &corpus->reference;
    // Writes go to the first corpus only.
    if (corpus == corpora_.begin() && sample.batches_applied > 0) {
      auto found = std::find_if(rebuilt.begin(), rebuilt.end(), [&](const auto& r) {
        return r.first == sample.batches_applied;
      });
      if (found == rebuilt.end()) {
        std::vector<WalRecord> deltas;
        for (int64_t k = 0; k < sample.batches_applied; ++k) {
          deltas.insert(deltas.end(), acked_[static_cast<size_t>(k)].begin(),
                        acked_[static_cast<size_t>(k)].end());
        }
        CORROB_ASSIGN_OR_RETURN(Dataset dataset,
                                corrob::ApplyDeltasToDataset(*corpus->dataset, deltas));
        CORROB_ASSIGN_OR_RETURN(CorroborationResult run,
                                Reference(dataset, corpus->algorithm));
        rebuilt.emplace_back(sample.batches_applied, std::move(run));
        found = rebuilt.end() - 1;
      }
      expected = &found->second;
    }
    if (!SameAnswer(sample.response, *expected)) {
      result_.failures.push_back(
          "answer on " + sample.dataset + " after " +
          std::to_string(sample.batches_applied) +
          " delta batches differs from the in-process run");
    }
  }
  if (samples_.size() < 2) {
    result_.failures.push_back("too few answers sampled for the check");
  }
  return Status::OK();
}

void Phase::CheckIntent() {
  const ServerStats& s = result_.timed_stats;
  const int64_t reads = result_.reads.attempted;
  const auto fail = [&](const std::string& what) {
    result_.failures.push_back("workload intent: " + what + " (hits " +
                               std::to_string(s.hits) + ", misses " +
                               std::to_string(s.misses) + ", leaders " +
                               std::to_string(s.leaders) + ", followers " +
                               std::to_string(s.followers) + ", reads " +
                               std::to_string(reads) + ", batches " +
                               std::to_string(result_.timed_batches) + ")");
  };
  switch (args_.workload) {
    case Workload::kColdRead:
      if (s.hits != 0 || s.misses != reads) fail("cold reads must all miss");
      break;
    case Workload::kHotRead:
      if (s.hits != reads || s.misses != 0) fail("hot reads must all hit");
      break;
    case Workload::kWriteRead:
      // One leader per dataset generation; its partner coalesces.
      if (std::llabs(s.leaders - result_.timed_batches) > 2 ||
          s.followers <= 0 || s.hits <= 0) {
        fail("each write must cost one coalesced miss");
      }
      break;
  }
}

double Phase::WalBytesPerDelta() const {
  int64_t bytes = 0;
  std::error_code error;
  // corrobd keeps one log directory per dataset under --wal.
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           wal_dir_ + "/" + kWrittenDataset, error)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_regular_file() && name.rfind("wal-", 0) == 0) {
      bytes += static_cast<int64_t>(entry.file_size());
    }
  }
  int64_t deltas = 0;
  for (const auto& batch : acked_) deltas += static_cast<int64_t>(batch.size());
  return deltas > 0 ? static_cast<double>(bytes) / static_cast<double>(deltas) : 0.0;
}

Result<PhaseResult> Phase::Run(double seconds, int setup_spawns,
                               bool write_phase) {
  CORROB_ASSIGN_OR_RETURN(std::unique_ptr<Daemon> daemon,
                          StartDaemons(setup_spawns));
  CORROB_ASSIGN_OR_RETURN(client_, CorrobClient::Connect(socket_));
  if (args_.workload == Workload::kWriteRead) {
    for (CorrobClient& reader : readers_) {
      CORROB_ASSIGN_OR_RETURN(reader, CorrobClient::Connect(socket_));
    }
  }
  CORROB_RETURN_NOT_OK(WarmUp());

  // Timed window, bracketed by quiesced counter reads.
  CORROB_ASSIGN_OR_RETURN(const ServerStats stats_before, FetchStats(client_));
  CORROB_ASSIGN_OR_RETURN(const ProcSample proc_before, daemon->Sample());
  const int64_t batches_before = static_cast<int64_t>(acked_.size());
  if (args_.workload == Workload::kWriteRead) {
    Mixed(seconds, /*timed=*/true);
  } else {
    TimedReads(write_phase ? seconds * (1.0 - kWriteShare) : seconds);
  }
  CORROB_ASSIGN_OR_RETURN(const ProcSample proc_after, daemon->Sample());
  CORROB_ASSIGN_OR_RETURN(const ServerStats stats_after, FetchStats(client_));
  result_.timed_cpu_ms = proc_after.cpu_ms - proc_before.cpu_ms;
  result_.timed_stats = stats_after - stats_before;
  result_.timed_batches = static_cast<int64_t>(acked_.size()) - batches_before;
  result_.timed_ops =
      static_cast<int64_t>(result_.reads.latency_ms.size() +
                           (args_.workload == Workload::kWriteRead
                                ? result_.writes.latency_ms.size()
                                : 0));
  if (traced_) CORROB_RETURN_NOT_OK(FetchTimedRecords());
  for (const Sample& sample : samples_) {
    if (!sample.raw_frame.empty()) {
      result_.response_frame = sample.raw_frame;
      break;
    }
  }

  if (write_phase && args_.workload != Workload::kWriteRead) {
    CORROB_RETURN_NOT_OK(WritePhase(seconds * kWriteShare));
  }
  CORROB_RETURN_NOT_OK(CheckFinalAnswer());
  result_.wal_bytes_per_delta = WalBytesPerDelta();
  CORROB_ASSIGN_OR_RETURN(const ProcSample final_sample, daemon->Sample());
  result_.peak_rss_mb = final_sample.peak_rss_mb;
  client_.Close();
  for (CorrobClient& reader : readers_) reader.Close();
  CORROB_RETURN_NOT_OK(daemon->Stop());

  CORROB_RETURN_NOT_OK(CheckSamples());
  CheckIntent();
  return std::move(result_);
}

// ---------------------------------------------------------------------
// Reporting.

double PerSecond(const OpLog& log) {
  const double seconds = static_cast<double>(log.window_ns) / 1e9;
  return seconds > 0 ? static_cast<double>(log.latency_ms.size()) / seconds : 0;
}

/// Latency quantiles are robust to host interference that comes and
/// goes within a run (CPU steal on a shared host): the operations are
/// cut into up to kMaxWindows equal spans of start time, with at least
/// kMinPerWindow operations per span on average, the quantile is taken
/// in each span, and the median of those is reported.
double WindowedQuantile(const OpLog& log, double q) {
  if (log.latency_ms.empty()) return 0.0;
  const auto [first, last] =
      std::minmax_element(log.started_ns.begin(), log.started_ns.end());
  const double span = static_cast<double>(*last - *first) + 1.0;
  const size_t count = std::clamp<size_t>(
      log.latency_ms.size() / kMinPerWindow, 1, kMaxWindows);
  std::vector<std::vector<double>> windows(count);
  for (size_t i = 0; i < log.latency_ms.size(); ++i) {
    const auto w = static_cast<size_t>(
        static_cast<double>(log.started_ns[i] - *first) / span *
        static_cast<double>(count));
    windows[w].push_back(log.latency_ms[i]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& window : windows) {
    if (!window.empty()) per_window.push_back(Quantile(std::move(window), q));
  }
  return Median(std::move(per_window));
}

std::vector<Metric> EndToEndMetrics(const PhaseResult& r) {
  return {
      {"setup_s", Median(r.setup_s), "s"},
      {"read_p50_ms", WindowedQuantile(r.reads, 0.5), "ms"},
      {"read_p90_ms", WindowedQuantile(r.reads, 0.9), "ms"},
      {"read_rps", PerSecond(r.reads), "1/s"},
      {"write_p50_ms", WindowedQuantile(r.writes, 0.5), "ms"},
      {"write_p90_ms", WindowedQuantile(r.writes, 0.9), "ms"},
      {"cpu_ms_per_op",
       r.timed_ops > 0 ? r.timed_cpu_ms / static_cast<double>(r.timed_ops) : 0,
       "ms"},
      {"peak_rss_mb", r.peak_rss_mb, "MiB"},
  };
}

/// server.* and transport metrics from the traced daemon's flight
/// recorder, joined with the client's own latencies by request id.
std::vector<Metric> ServerMetrics(const PhaseResult& traced) {
  std::vector<double> run_stage, pre_run, admission_wait, transport;
  std::unordered_map<std::string, double> client_ms(traced.reads.by_id.begin(),
                                                    traced.reads.by_id.end());
  for (const JsonValue& record : traced.timed_records) {
    const auto number = [&](const char* key) -> double {
      const JsonValue* value = record.Find(key);
      return value != nullptr ? value->double_value() : 0.0;
    };
    const JsonValue* role = record.Find("role");
    const bool ran_or_queued =
        role != nullptr && role->string_value() != "cache_hit" &&
        role->string_value() != "rejected";
    if (ran_or_queued) {
      admission_wait.push_back(number("admission_wait_nanos") / 1e6);
    }
    int64_t run_start = -1, run_end = -1;
    if (const JsonValue* spans = record.Find("spans")) {
      for (const JsonValue& span : spans->items()) {
        const JsonValue* name = span.Find("name");
        const JsonValue* at = span.Find("at_nanos");
        if (name == nullptr || at == nullptr) continue;
        if (name->string_value() == "run_start") run_start = at->int_value();
        if (name->string_value() == "run_end") run_end = at->int_value();
      }
    }
    if (run_start >= 0 && run_end >= run_start) {
      pre_run.push_back(static_cast<double>(run_start) / 1e6);
      run_stage.push_back(static_cast<double>(run_end - run_start) / 1e6);
    }
    // FetchTimedRecords kept only records with an id.
    auto joined = client_ms.find(record.Find("id")->string_value());
    if (joined != client_ms.end()) {
      transport.push_back(joined->second - number("total_nanos") / 1e6);
    }
  }
  const ServerStats& s = traced.timed_stats;
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double reads = static_cast<double>(traced.reads.attempted);
  return {
      {"server.run_stage_ms", Median(run_stage), "ms"},
      {"server.pre_run_ms", Median(pre_run), "ms"},
      {"server.admission_wait_ms", Median(admission_wait), "ms"},
      {"transport_ms", Median(transport), "ms"},
      {"server.cache.hit_ratio",
       ratio(static_cast<double>(s.hits), static_cast<double>(s.hits + s.misses)),
       "ratio"},
      {"server.cache.evictions_per_op", ratio(static_cast<double>(s.evictions), reads),
       "1/op"},
      {"server.coalesce.follower_ratio",
       ratio(static_cast<double>(s.followers),
             static_cast<double>(s.leaders + s.followers)),
       "ratio"},
      {"data.wal.bytes_per_delta", traced.wal_bytes_per_delta, "B"},
  };
}

JsonValue HostBlock(const Args& args, const std::vector<Corpus>& corpora) {
  JsonValue host = JsonValue::Object();
  host.Set("nproc", JsonValue::Int(std::thread::hardware_concurrency()));
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  JsonValue cpus = JsonValue::Array();
  if (sched_getaffinity(0, sizeof(affinity), &affinity) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &affinity)) cpus.Append(JsonValue::Int(cpu));
    }
  }
  host.Set("cpus", std::move(cpus));
  host.Set("compiler", JsonValue::Str(PERFBENCH_COMPILER));
  host.Set("build_type", JsonValue::Str(PERFBENCH_BUILD_TYPE));
  host.Set("source_id", JsonValue::Str(args.source_id));
  host.Set("workload", JsonValue::Str(args.workload_name));
  host.Set("seed", JsonValue::Int(static_cast<int64_t>(args.seed)));
  host.Set("seconds", JsonValue::Double(args.seconds));
  host.Set("trace", JsonValue::Bool(args.trace));
  JsonValue all_sizes = JsonValue::Array();
  for (const Corpus& corpus : corpora) {
    JsonValue sizes = JsonValue::Object();
    sizes.Set("name", JsonValue::Str(corpus.name));
    sizes.Set("kind", JsonValue::Str(corpus.description));
    sizes.Set("facts", JsonValue::Int(corpus.dataset->num_facts()));
    sizes.Set("sources", JsonValue::Int(corpus.dataset->num_sources()));
    sizes.Set("votes", JsonValue::Int(corpus.dataset->num_votes()));
    sizes.Set("csv_bytes", JsonValue::Int(corpus.csv_bytes));
    all_sizes.Append(std::move(sizes));
  }
  host.Set("corpora", std::move(all_sizes));
  host.Set("algorithm", JsonValue::Str(corpora.front().algorithm));
  host.Set("run_threads", JsonValue::Int(1));
  host.Set("wal_fsync", JsonValue::Str("never"));
  host.Set("idle_spinner", JsonValue::Bool(args.workload == Workload::kWriteRead));
  host.Set("cache_entries", JsonValue::Int(kCacheEntries));
  JsonValue out = JsonValue::Object();
  out.Set("host", std::move(host));
  return out;
}

JsonValue ResultObject(bool correct, const PhaseResult& r,
                       const std::vector<Metric>& metrics) {
  JsonValue values = JsonValue::Object();
  for (const Metric& metric : metrics) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", JsonValue::Double(metric.value));
    entry.Set("unit", JsonValue::Str(metric.unit));
    values.Set(metric.name, std::move(entry));
  }
  JsonValue out = JsonValue::Object();
  out.Set("correct", JsonValue::Bool(correct));
  out.Set("attempted", JsonValue::Int(r.reads.attempted + r.writes.attempted));
  out.Set("failed", JsonValue::Int(r.reads.failed + r.writes.failed));
  out.Set("metrics", std::move(values));
  return out;
}

Result<int> Main(int argc, char** argv) {
  CORROB_ASSIGN_OR_RETURN(const Args args, ParseArgs(argc, argv));
  std::filesystem::create_directories(args.work_dir);
  CORROB_ASSIGN_OR_RETURN(const std::vector<Corpus> corpora, MakeCorpora(args));
  const Corpus& corpus = corpora.front();
  std::cout << HostBlock(args, corpora).Dump() << std::endl;
  // write_read is the one workload whose CPU idles between operations;
  // the closed loops keep theirs busy (perfbench/README.md, steadiness).
  std::optional<IdleSpinner> spinner;
  if (args.workload == Workload::kWriteRead) spinner.emplace();

  std::vector<Metric> metrics;
  PhaseResult reported;
  std::vector<std::string> failures;
  if (!args.trace) {
    Phase phase(args, corpora, /*traced=*/false, "p");
    CORROB_ASSIGN_OR_RETURN(reported,
                            phase.Run(args.seconds, kSetupSpawns, /*write_phase=*/true));
    metrics = EndToEndMetrics(reported);
    failures = reported.failures;
  } else {
    // Untraced and traced halves on identical daemons; the difference
    // in read p50 is the tracing overhead.
    Phase plain(args, corpora, /*traced=*/false, "u");
    CORROB_ASSIGN_OR_RETURN(const PhaseResult base,
                            plain.Run(args.seconds / 2, 1, /*write_phase=*/false));
    Phase traced(args, corpora, /*traced=*/true, "t");
    CORROB_ASSIGN_OR_RETURN(reported,
                            traced.Run(args.seconds / 2, 1, /*write_phase=*/true));
    failures = base.failures;
    failures.insert(failures.end(), reported.failures.begin(),
                    reported.failures.end());
    if (reported.response_frame.empty()) {
      return Status::Internal("no response frame sampled for the layer spans");
    }

    SpanLog spans;
    LayerInputs inputs;
    inputs.dataset = corpus.dataset.get();
    inputs.csv_path = corpus.csv_path;
    inputs.algorithm = corpus.algorithm;
    inputs.batch = FlipStream(*corpus.dataset, args.seed).Next();
    inputs.response_frame = reported.response_frame;
    inputs.wal_dir = args.work_dir + "/layers.wal";
    std::filesystem::remove_all(inputs.wal_dir);
    CORROB_ASSIGN_OR_RETURN(metrics, MeasureLayers(inputs, &spans));
    CORROB_RETURN_NOT_OK(spans.WriteChromeTrace(args.work_dir + "/trace.json"));
    const std::vector<Metric> server = ServerMetrics(reported);
    metrics.insert(metrics.end(), server.begin(), server.end());
    const double base_p50 = WindowedQuantile(base.reads, 0.5);
    const double traced_p50 = WindowedQuantile(reported.reads, 0.5);
    metrics.push_back({"trace_overhead_pct",
                       base_p50 > 0 ? (traced_p50 / base_p50 - 1.0) * 100.0 : 0.0,
                       "%"});
  }

  for (const std::string& failure : failures) {
    std::cerr << "perfbench: CHECK FAILED: " << failure << "\n";
  }
  for (const Metric& metric : metrics) {
    std::cerr << "perfbench: " << metric.name << " = " << metric.value << " "
              << metric.unit << "\n";
  }
  std::cout << ResultObject(failures.empty(), reported, metrics).Dump()
            << std::endl;
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  corrob::Result<int> code = perfbench::Main(argc, argv);
  if (!code.ok()) {
    std::cerr << "perfbench: " << code.status().ToString() << "\n";
    return 2;
  }
  return code.ValueOrDie();
}
