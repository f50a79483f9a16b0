#ifndef CORROB_SERVER_SERVER_H_
#define CORROB_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/result.h"
#include "common/socket.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/fact_group.h"
#include "data/dataset.h"
#include "data/wal.h"
#include "obs/clock.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "server/admission.h"
#include "server/cache.h"
#include "server/coalesce.h"
#include "server/frame.h"
#include "server/protocol.h"
#include "server/quota.h"
#include "server/shared_response.h"

// corrobd: the corroboration daemon. Datasets are loaded once at
// startup into shared read-only state (reloadable in place, bumping a
// generation that invalidates cached results); each connection gets a
// thread whose requests run under their own child CancellationToken,
// Deadline and ResourceBudget, behind the AdmissionController's
// bounded queues. The serving-efficiency layer sits in front of the
// run: a sharded LRU result cache replays bit-identical responses,
// a coalescer lets concurrent identical requests share one run, and
// per-tenant quotas shed with typed retry-after frames. One request's
// failure (failpoint, bad payload, budget exhaustion, client
// disconnect) produces a typed response frame and never takes the
// daemon down. SIGTERM drains: accepting stops, in-flight requests
// finish (bit-identical to a fresh daemon) under a drain deadline,
// and the process exits 0. docs/SERVING.md is the operator-facing
// description of all of this.

namespace corrob {
namespace server {

struct ServerOptions {
  /// Unix-domain socket path the daemon listens on.
  std::string socket_path;
  /// Datasets served, each "name=path/to.csv" or a bare path (the
  /// name is then the file stem, e.g. "flights" for flights.csv).
  std::vector<std::string> dataset_specs;
  /// Admission control: slot pool + bounded per-class queues.
  AdmissionOptions admission;
  /// Result cache sizing; capacity_entries = 0 disables caching.
  CacheOptions cache;
  /// Default per-tenant limits (0 = unlimited = pre-quota behavior).
  QuotaOptions quota;
  /// Per-tenant overrides of quota.default_limits, keyed by tenant id.
  std::vector<std::pair<std::string, TenantLimits>> tenant_overrides;
  /// Worker threads each corroboration run may use (results are
  /// bit-identical at any value).
  int run_threads = 1;
  /// After a drain request, how long in-flight requests may keep
  /// running before the abort token cuts them short. They still
  /// respond (termination=cancelled) — polling runs are never left
  /// without an answer.
  int64_t drain_timeout_ms = 10000;
  /// Completed-request ring capacity of the flight recorder; 0
  /// disarms it (Begin/End become no-ops, introspection returns
  /// empty tables).
  int flight_recorder_entries = 1024;
  /// Requests whose total time reaches this threshold keep their span
  /// timeline in the flight recorder and emit a structured warning;
  /// 0 disables the slow-request log.
  int64_t slow_request_ms = 0;
  /// Cadence of the stuck-request watchdog; 0 disables the watchdog
  /// thread entirely.
  int64_t watchdog_interval_ms = 1000;
  /// An in-flight request is flagged as stuck once its age exceeds
  /// this multiple of its effective deadline allowance.
  double watchdog_deadline_multiplier = 4.0;
  /// Root directory of the per-dataset write-ahead vote-delta logs
  /// (each dataset logs under <wal_dir>/<name>). Empty disables delta
  /// ingestion: apply-delta frames are answered with
  /// FailedPrecondition and the daemon never touches the disk after
  /// startup. When set, Start() replays any surviving log onto the
  /// CSV load, so acked deltas outlive kill -9.
  std::string wal_dir;
  /// Durability/throughput trade of the logs (docs/ROBUSTNESS.md).
  WalFsyncPolicy wal_fsync = WalFsyncPolicy::kAlways;
  /// Records between fsyncs under the interval policy.
  int64_t wal_fsync_interval_records = 64;
  /// Segment rotation threshold in bytes.
  int64_t wal_segment_bytes = 4 * 1024 * 1024;
  /// Time source for deadlines and latency metrics.
  const obs::Clock* clock = nullptr;  // null → MonotonicClock::Get()
};

/// The fact-group indexes of one daemon, shared with its generations
/// so that an old generation still held by an in-flight run counts
/// until it is freed.
struct FactGroupTally {
  std::atomic<int64_t> builds{0};
  std::atomic<int64_t> resident{0};
  std::atomic<int64_t> resident_bytes{0};
};

/// One generation of a served dataset: its votes, plus the fact-group
/// index (paper §5.1) IncEstimate reads. The index is built from the
/// votes by the generation's first IncEstimate request, never by a
/// write, a reload or another method. Requests hold the generation by
/// shared_ptr, so in-flight runs co-own the index, and it is freed
/// with its generation once the last of them finishes.
class ServedGeneration {
 public:
  ServedGeneration(Dataset dataset, std::shared_ptr<FactGroupTally> tally)
      : dataset_(std::move(dataset)), tally_(std::move(tally)) {}
  ~ServedGeneration();

  ServedGeneration(const ServedGeneration&) = delete;
  ServedGeneration& operator=(const ServedGeneration&) = delete;

  const Dataset& dataset() const { return dataset_; }

  /// The index, built by the first call; concurrent first callers
  /// wait for that one build.
  const FactGroupIndex& FactGroups() const CORROB_EXCLUDES(mutex_);
  /// The index's bytes, or -1 while it is unbuilt. Never builds it.
  int64_t fact_group_bytes() const CORROB_EXCLUDES(mutex_);

 private:
  const Dataset dataset_;
  const std::shared_ptr<FactGroupTally> tally_;
  mutable std::mutex mutex_;
  mutable std::unique_ptr<const FactGroupIndex> fact_groups_
      CORROB_GUARDED_BY(mutex_);
};

/// One dataset resident in the daemon, shared read-only by every
/// request that names it. Requests snapshot the shared_ptr under the
/// mutex; HandleReload swaps in a fresh load and bumps `generation`,
/// so in-flight runs keep their snapshot while new cache keys see the
/// new generation.
struct ServedDataset {
  std::string name;
  std::string path;
  mutable std::mutex mutex;
  std::shared_ptr<const ServedGeneration> current CORROB_GUARDED_BY(mutex);
  std::atomic<uint64_t> generation{1};
  /// Serializes mutators (apply-delta requests). Separate from
  /// `mutex` so a delta apply never blocks readers, which only
  /// take `mutex` for the shared_ptr snapshot; the swap at the end of
  /// an apply briefly takes both (wal_mutex before mutex, always).
  mutable std::mutex wal_mutex;
  /// Durable vote-delta log, present only when the daemon runs with a
  /// --wal directory. Appends happen under wal_mutex (one writer at a
  /// time; the log is strictly ordered), so the WAL order always
  /// matches the order deltas were applied to `dataset`.
  std::unique_ptr<WalWriter> wal CORROB_GUARDED_BY(wal_mutex);
  /// Cleared when a WAL append or fsync fails. From then on the
  /// dataset serves read-only: reads keep working from the resident
  /// snapshot, apply-delta requests get a typed kWalUnavailable
  /// error, and the daemon stays up.
  bool wal_healthy CORROB_GUARDED_BY(wal_mutex) = true;
  /// Mutations appended since startup (markers excluded); reported in
  /// the stats document so operators can size compaction.
  std::atomic<uint64_t> deltas_applied{0};
};

class CorrobdServer {
 public:
  explicit CorrobdServer(ServerOptions options);
  ~CorrobdServer();

  CorrobdServer(const CorrobdServer&) = delete;
  CorrobdServer& operator=(const CorrobdServer&) = delete;

  /// Loads every dataset and binds the listening socket. Must succeed
  /// before Serve(); fails on unloadable datasets, duplicate names,
  /// or an unbindable socket path.
  [[nodiscard]] Status Start();

  /// Accept loop: serves connections until `drain` fires, then drains
  /// — stops accepting, lets in-flight requests finish (up to
  /// drain_timeout_ms, then cancels them via the abort token), joins
  /// every thread. Returns OK after a clean or drained exit. Blocks
  /// the calling thread for the daemon's whole life.
  [[nodiscard]] Status Serve(const CancellationToken* drain);

  /// Datasets resident after Start(), sorted by name (for startup
  /// logs and tests).
  [[nodiscard]] std::vector<std::string> dataset_names() const;

  [[nodiscard]] const ServerOptions& options() const { return options_; }
  [[nodiscard]] const AdmissionController& admission() const {
    return *admission_;
  }
  [[nodiscard]] const ResultCache& cache() const { return *cache_; }
  [[nodiscard]] const RunCoalescer& coalescer() const { return coalescer_; }
  [[nodiscard]] const TenantQuotas& quotas() const { return *quotas_; }

  /// Requests fully served (any response frame written).
  [[nodiscard]] int64_t responses_sent() const {
    return responses_sent_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection;

  /// The request-shaped core shared by the standalone corroborate
  /// path and each batch item: everything but the frame write.
  struct SubRequest {
    Priority priority = Priority::kBatch;
    std::string tenant;
    std::string dataset;
    std::string algorithm;
    uint32_t timeout_ms = 0;
    uint32_t max_rounds = 0;
    OptionList options;  // already normalized by the codec
    /// Client correlation id (v3); recorded in the flight recorder.
    /// Batch items never carry one.
    std::string request_id;
  };

  /// Runs one connection: frame loop until EOF, drain, or a framing
  /// error. Never throws; never exits the process.
  void RunConnection(Connection* connection);

  /// Handles one decoded frame; writes exactly one response frame.
  /// The Status reports connection-fatal conditions (write failed,
  /// stream desynced); request-level failures are reported to the
  /// client in-band and return OK here.
  [[nodiscard]] Status HandleFrame(Connection* connection,
                                   FrameType type,
                                   std::string_view payload);

  /// The corroborate path: decode, then ExecuteOne, then the frame.
  [[nodiscard]] Status HandleCorroborate(Connection* connection,
                                         std::string_view payload);

  /// The batch path: one rate charge of items.size() units, then each
  /// item through ExecuteOne sequentially (per-item admission — a
  /// batch takes N units of daemon capacity, not one).
  [[nodiscard]] Status HandleBatch(Connection* connection,
                                   std::string_view payload);

  /// Administrative dataset reload: swap in a fresh load, bump the
  /// generation, invalidate the cache. Rejected with
  /// FailedPrecondition for WAL-backed datasets — a raw CSV swap
  /// would diverge from the log's replay.
  [[nodiscard]] Status HandleReload(Connection* connection,
                                    std::string_view payload);

  /// Durable mutation path: append the decoded deltas to the
  /// dataset's WAL as one atomic batch frame (ack only after the
  /// append — and fsync, under the always policy — succeeded; a
  /// NACKed batch never leaves a durable prefix of itself behind),
  /// then derive the next resident generation
  /// through core delta-apply, bump the generation and invalidate
  /// cached results. A WAL failure flips the dataset to read-only
  /// serving with a typed kWalUnavailable error; it never takes the
  /// daemon down.
  [[nodiscard]] Status HandleApplyDelta(Connection* connection,
                                        std::string_view payload);

  /// Serves the stats frame: a JSON snapshot of queues, slots, cache,
  /// coalescer, quota and request counters.
  [[nodiscard]] Status HandleStats(Connection* connection);

  /// Serves the introspect frame: the corrob.introspect/1 JSON
  /// document (active requests, flight-recorder ring, per-tenant
  /// aggregates, latency histograms, watchdog counters, full metrics
  /// dump).
  [[nodiscard]] Status HandleIntrospect(Connection* connection,
                                        std::string_view payload);

  /// Cache lookup → quota → admission → coalesce → run. When
  /// `charge_rate` (standalone requests), the tenant's rate bucket is
  /// charged one token up front; batch items are pre-charged by
  /// HandleBatch. The response is byte-identical whether it is written
  /// standalone or embedded as a batch item; a hit or a coalesced
  /// follower gets the cache's own SharedResponse, not a copy.
  [[nodiscard]] SharedResponse ExecuteOne(Connection* connection,
                                          const SubRequest& request,
                                          bool charge_rate);

  /// Re-reads `served` from its startup path. On success the new data
  /// is swapped in, the generation bumps, and cached results for the
  /// dataset are invalidated; on failure the old data stays live.
  /// FailedPrecondition when the dataset has a WAL: its resident
  /// state is CSV + replayed log, and swapping in the raw CSV would
  /// make live serving diverge from what the next restart replays.
  [[nodiscard]] Status ReloadDataset(ServedDataset* served);

  /// Makes `next` the dataset's live generation: swaps it in under
  /// served->mutex, bumps the generation, frees the old generation
  /// after the unlock and drops the dataset's cached results. The
  /// caller serializes mutators (wal_mutex for apply-delta).
  void PublishGeneration(ServedDataset* served, Dataset next);

  /// Every response write returns through here: counts the response
  /// in responses_sent and corrobd.responses.sent only when
  /// `written` is OK, then returns it.
  [[nodiscard]] Status CountResponse(Status written);

  /// The watchdog counters shared by the stats and introspect
  /// documents.
  [[nodiscard]] obs::JsonValue WatchdogJson() const;

  /// Background loop that cancels the request token of any executing
  /// request whose client closed its end of the socket.
  void WatchDisconnects();

  /// Watchdog loop: every watchdog_interval_ms, flags in-flight
  /// requests whose age exceeds watchdog_deadline_multiplier times
  /// their deadline allowance, logging each once and keeping the
  /// corrob.server.watchdog.* metrics current.
  void WatchStuckRequests();

  [[nodiscard]] ServedDataset* FindDataset(const std::string& name) const;

  /// Stop signal for response writes: a bounded write deadline and
  /// nothing else, so a request cut short by its own deadline — or by
  /// the drain deadline's abort — still reports its graceful
  /// termination to the client.
  StopSignal WriteStop() const;

  ServerOptions options_;
  const obs::Clock* clock_ = nullptr;

  const std::shared_ptr<FactGroupTally> fact_group_tally_ =
      std::make_shared<FactGroupTally>();
  std::vector<std::unique_ptr<ServedDataset>> datasets_;
  UniqueFd listener_;
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<ResultCache> cache_;
  RunCoalescer coalescer_;
  std::unique_ptr<TenantQuotas> quotas_;
  std::unique_ptr<obs::FlightRecorder> recorder_;

  /// Watchdog tallies mirrored into the introspection document (the
  /// metrics registry is process-global; these are this daemon's own).
  std::atomic<int64_t> watchdog_scans_{0};
  std::atomic<int64_t> watchdog_flagged_{0};

  /// Fires only when drain patience runs out (or at shutdown): the
  /// parent of every request token. Deliberately NOT the drain token,
  /// so draining lets in-flight work finish.
  CancellationToken abort_token_;
  /// Child of abort_token_, cancelled the moment draining begins:
  /// unblocks connection threads idling in a next-frame read without
  /// disturbing request execution.
  CancellationToken read_interrupt_{&abort_token_};

  /// Flips when Serve() begins draining; connection threads stop
  /// reading new requests once set.
  std::atomic<bool> draining_{false};
  /// Flips when Serve() tears down; stops the disconnect watcher.
  std::atomic<bool> stopping_{false};

  mutable std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_
      CORROB_GUARDED_BY(connections_mutex_);

  std::atomic<int64_t> responses_sent_{0};
};

}  // namespace server
}  // namespace corrob

#endif  // CORROB_SERVER_SERVER_H_
