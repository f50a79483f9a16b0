#include "server/server.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "core/delta_apply.h"
#include "core/inc_estimate.h"
#include "core/registry.h"
#include "core/run_context.h"
#include "data/dataset_io.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "server/frame.h"

namespace corrob {
namespace server {

namespace {

/// Cadence of the disconnect watcher and the drain wait.
constexpr double kHousekeepingSliceMs = 20.0;

/// Upper bound on writing one response frame. Response writes must
/// survive the abort token firing (a request cut short by the drain
/// deadline still answers), so the only thing that may stop them is
/// this bounded deadline — the backstop against a peer that never
/// drains its socket.
constexpr double kResponseWriteTimeoutMs = 5000.0;

struct ServerMetrics {
  obs::Counter* connections;
  obs::Counter* requests_admitted;
  obs::Counter* requests_shed;
  obs::Counter* requests_failed;
  obs::Counter* requests_quota_rejected;
  obs::Counter* responses_sent;
  obs::Counter* deltas_applied;
  obs::Counter* wal_failures;
  obs::Counter* slow_requests;
  obs::Counter* watchdog_scans;
  obs::Counter* watchdog_flagged;
  obs::Gauge* watchdog_stuck;
  obs::Histogram* queue_wait_nanos;
  obs::Histogram* service_nanos;
  obs::Gauge* running;

  static ServerMetrics& Get() {
    static ServerMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      ServerMetrics m;
      m.connections = registry.GetCounter("corrobd.connections");
      m.requests_admitted = registry.GetCounter("corrobd.requests.admitted");
      m.requests_shed = registry.GetCounter("corrobd.requests.shed");
      m.requests_failed = registry.GetCounter("corrobd.requests.failed");
      m.requests_quota_rejected =
          registry.GetCounter("corrobd.requests.quota_rejected");
      m.responses_sent = registry.GetCounter("corrobd.responses.sent");
      m.deltas_applied = registry.GetCounter("corrobd.deltas.applied");
      m.wal_failures = registry.GetCounter("corrobd.wal.failures");
      m.slow_requests = registry.GetCounter("corrob.server.slow_requests");
      m.watchdog_scans =
          registry.GetCounter("corrob.server.watchdog.scans");
      m.watchdog_flagged =
          registry.GetCounter("corrob.server.watchdog.flagged");
      m.watchdog_stuck = registry.GetGauge("corrob.server.watchdog.stuck");
      m.queue_wait_nanos =
          registry.GetHistogram("corrobd.request.queue_wait_nanos");
      m.service_nanos = registry.GetHistogram("corrobd.request.service_nanos");
      m.running = registry.GetGauge("corrobd.requests.running");
      return m;
    }();
    return metrics;
  }
};

/// "name=path" → {name, path}; bare path → {stem, path}.
std::pair<std::string, std::string> SplitDatasetSpec(
    const std::string& spec) {
  const size_t equals = spec.find('=');
  if (equals != std::string::npos) {
    return {spec.substr(0, equals), spec.substr(equals + 1)};
  }
  size_t start = spec.find_last_of('/');
  start = start == std::string::npos ? 0 : start + 1;
  size_t end = spec.find_last_of('.');
  if (end == std::string::npos || end <= start) end = spec.size();
  return {spec.substr(start, end - start), spec};
}

/// True when `termination` is a deterministic full outcome — a
/// function of (dataset generation, algorithm, round budget) alone,
/// so the encoded response may be cached and shared with coalesced
/// followers. Deadline and cancellation truncations depend on
/// wall-clock timing and are private to the request that hit them.
bool IsShareableTermination(uint8_t termination) {
  switch (static_cast<Termination>(termination)) {
    case Termination::kConverged:
    case Termination::kIterationCap:
    case Termination::kBudgetExhausted:
      return true;
    case Termination::kDeadlineExceeded:
    case Termination::kCancelled:
      return false;
  }
  return false;
}

/// The ErrorResponse frame that reports `status` to the client.
Frame ErrorFrame(const Status& status) {
  ErrorResponse body;
  body.code = static_cast<uint8_t>(status.code());
  body.message = status.message();
  Frame frame;
  frame.type = FrameType::kErrorResponse;
  frame.payload = EncodeErrorResponse(body);
  return frame;
}

}  // namespace

/// Per-connection state. The owning thread is the only reader of the
/// socket; `active_request` is the handshake with the disconnect
/// watcher, set only while a corroborate request is executing.
struct CorrobdServer::Connection {
  UniqueFd fd;
  std::thread thread;
  std::atomic<bool> done{false};

  std::mutex mutex;
  /// Token of the request this connection is executing, or null; the
  /// watcher cancels through it when the peer vanishes.
  CancellationToken* active_request CORROB_GUARDED_BY(mutex) = nullptr;
};

CorrobdServer::CorrobdServer(ServerOptions options)
    : options_(std::move(options)) {
  clock_ = options_.clock != nullptr ? options_.clock
                                     : obs::MonotonicClock::Get();
  admission_ =
      std::make_unique<AdmissionController>(options_.admission, clock_);
  cache_ = std::make_unique<ResultCache>(options_.cache);
  quotas_ = std::make_unique<TenantQuotas>(options_.quota, clock_);
  for (const auto& [tenant, limits] : options_.tenant_overrides) {
    quotas_->SetLimits(tenant, limits);
  }
  obs::FlightRecorder::Options recorder_options;
  recorder_options.capacity = options_.flight_recorder_entries;
  recorder_options.slow_threshold_nanos =
      options_.slow_request_ms * 1'000'000;
  recorder_options.clock = clock_;
  recorder_ = std::make_unique<obs::FlightRecorder>(recorder_options);
}

CorrobdServer::~CorrobdServer() {
  // Serve() joins everything; this only covers a server that was
  // Start()ed but never Serve()d.
  stopping_.store(true, std::memory_order_relaxed);
  abort_token_.Cancel();
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto& connection : connections_) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

Status CorrobdServer::Start() {
  if (options_.socket_path.empty()) {
    return Status::InvalidArgument("corrobd needs a --socket path");
  }
  if (options_.dataset_specs.empty()) {
    return Status::InvalidArgument(
        "corrobd needs at least one --dataset to serve");
  }
  for (const std::string& spec : options_.dataset_specs) {
    auto [name, path] = SplitDatasetSpec(spec);
    if (name.empty()) {
      return Status::InvalidArgument("dataset spec '" + spec +
                                     "' has an empty name");
    }
    if (FindDataset(name) != nullptr) {
      return Status::AlreadyExists("dataset '" + name +
                                   "' is specified twice");
    }
    CORROB_ASSIGN_OR_RETURN(LabeledDataset loaded, LoadDatasetCsv(path));
    auto served = std::make_unique<ServedDataset>();
    served->name = name;
    served->path = path;
    Dataset resident = std::move(loaded.dataset);
    if (!options_.wal_dir.empty()) {
      WalOptions wal_options;
      wal_options.fsync_policy = options_.wal_fsync;
      wal_options.fsync_interval_records =
          options_.wal_fsync_interval_records;
      wal_options.segment_bytes = options_.wal_segment_bytes;
      WalRecovery recovery;
      CORROB_ASSIGN_OR_RETURN(
          WalWriter writer,
          WalWriter::Open(options_.wal_dir + "/" + name, wal_options,
                          &recovery));
      const std::vector<WalRecord> mutations = recovery.Mutations();
      if (recovery.has_snapshot) {
        // The snapshot already folds the state the daemon logged
        // against plus every compacted delta; it replaces the CSV
        // load wholesale.
        CORROB_ASSIGN_OR_RETURN(resident,
                                DatasetFromWalRecovery(recovery));
      } else if (!mutations.empty()) {
        CORROB_ASSIGN_OR_RETURN(
            resident, ApplyDeltasToDataset(resident, mutations));
      }
      if (recovery.has_snapshot || !mutations.empty()) {
        CORROB_LOG_INFO << "corrobd: dataset '" << name << "' recovered "
                        << mutations.size() << " delta(s)"
                        << (recovery.has_snapshot ? " on a snapshot"
                                                  : "")
                        << " from " << options_.wal_dir << "/" << name;
      }
      served->deltas_applied.store(mutations.size(),
                                   std::memory_order_relaxed);
      std::lock_guard<std::mutex> wal_lock(served->wal_mutex);
      served->wal = std::make_unique<WalWriter>(std::move(writer));
    }
    {
      // No other thread exists yet, but the guard on `dataset` is
      // unconditional; the uncontended lock keeps the discipline
      // checkable instead of special-cased.
      std::lock_guard<std::mutex> lock(served->mutex);
      served->current = std::make_shared<const ServedGeneration>(
          std::move(resident), fact_group_tally_);
    }
    datasets_.push_back(std::move(served));
  }
  std::sort(datasets_.begin(), datasets_.end(),
            [](const std::unique_ptr<ServedDataset>& a,
               const std::unique_ptr<ServedDataset>& b) {
              return a->name < b->name;
            });
  CORROB_ASSIGN_OR_RETURN(listener_,
                          ListenUnixSocket(options_.socket_path));
  return Status::OK();
}

std::vector<std::string> CorrobdServer::dataset_names() const {
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& served : datasets_) names.push_back(served->name);
  return names;
}

ServedGeneration::~ServedGeneration() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fact_groups_ == nullptr) return;
  tally_->resident.fetch_sub(1, std::memory_order_relaxed);
  tally_->resident_bytes.fetch_sub(fact_groups_->bytes(),
                                   std::memory_order_relaxed);
}

const FactGroupIndex& ServedGeneration::FactGroups() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fact_groups_ == nullptr) {
    fact_groups_ = std::make_unique<const FactGroupIndex>(dataset_);
    tally_->builds.fetch_add(1, std::memory_order_relaxed);
    tally_->resident.fetch_add(1, std::memory_order_relaxed);
    tally_->resident_bytes.fetch_add(fact_groups_->bytes(),
                                     std::memory_order_relaxed);
  }
  return *fact_groups_;
}

int64_t ServedGeneration::fact_group_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fact_groups_ == nullptr ? -1 : fact_groups_->bytes();
}

ServedDataset* CorrobdServer::FindDataset(const std::string& name) const {
  for (const auto& served : datasets_) {
    if (served->name == name) return served.get();
  }
  return nullptr;
}

Status CorrobdServer::ReloadDataset(ServedDataset* served) {
  {
    // A WAL-backed dataset's resident state is CSV + replayed log;
    // swapping in the raw CSV would drop acked durable deltas from
    // live serving while the next restart replays them anyway —
    // live answers and post-restart answers would diverge. Mutate
    // through apply-delta instead, or restart against a fresh --wal
    // directory to re-base on the CSV.
    std::lock_guard<std::mutex> wal_lock(served->wal_mutex);
    if (served->wal != nullptr) {
      return Status::FailedPrecondition(
          "dataset '" + served->name +
          "' has a durable vote-delta log; a CSV reload would diverge "
          "from the log's replay (ingest via apply-delta, or restart "
          "corrobd with a fresh --wal directory to re-base)");
    }
  }
  CORROB_ASSIGN_OR_RETURN(LabeledDataset loaded,
                          LoadDatasetCsv(served->path));
  PublishGeneration(served, std::move(loaded.dataset));
  return Status::OK();
}

void CorrobdServer::PublishGeneration(ServedDataset* served, Dataset next) {
  auto generation = std::make_shared<const ServedGeneration>(
      std::move(next), fact_group_tally_);
  {
    std::lock_guard<std::mutex> lock(served->mutex);
    served->current.swap(generation);
    served->generation.fetch_add(1, std::memory_order_release);
  }
  // Free the old generation (now held by `generation`) after the
  // unlock: its destructor must not run inside the lock every read
  // snapshots under.
  generation.reset();
  // Old-generation keys can never match again (the generation is in
  // the key); the scan just frees their memory eagerly.
  cache_->InvalidateDataset(served->name);
}

obs::JsonValue CorrobdServer::WatchdogJson() const {
  obs::JsonValue watchdog = obs::JsonValue::Object();
  watchdog.Set("scans", obs::JsonValue::Int(
                            watchdog_scans_.load(std::memory_order_relaxed)));
  watchdog.Set("flagged", obs::JsonValue::Int(watchdog_flagged_.load(
                              std::memory_order_relaxed)));
  watchdog.Set("stuck", obs::JsonValue::Int(recorder_->stuck_now()));
  return watchdog;
}

Status CorrobdServer::CountResponse(Status written) {
  if (written.ok()) {
    responses_sent_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::Get().responses_sent->Add(1);
  }
  return written;
}

StopSignal CorrobdServer::WriteStop() const {
  // Deliberately NOT the abort token: after the drain deadline cancels
  // in-flight requests, their termination=cancelled responses are
  // still owed to the clients.
  return StopSignal(nullptr, Deadline::AfterMs(clock_, kResponseWriteTimeoutMs));
}

Status CorrobdServer::Serve(const CancellationToken* drain) {
  if (!listener_.valid()) {
    return Status::FailedPrecondition("Serve() called before Start()");
  }
  std::thread watcher([this] { WatchDisconnects(); });
  std::thread watchdog;
  if (options_.watchdog_interval_ms > 0 && recorder_->armed()) {
    watchdog = std::thread([this] { WatchStuckRequests(); });
  }

  const StopSignal accept_stop(drain, Deadline());
  while (!accept_stop.ShouldStop()) {
    Result<UniqueFd> accepted = AcceptWithStop(listener_.get(), accept_stop);
    if (!accepted.ok()) {
      if (accepted.status().code() == StatusCode::kCancelled) break;
      // A transient accept failure (e.g. the peer vanished between
      // connect and accept) must not kill the daemon.
      continue;
    }
    ServerMetrics::Get().connections->Add(1);
    auto connection = std::make_unique<Connection>();
    connection->fd = std::move(accepted).ValueOrDie();
    Connection* raw = connection.get();
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      // Reap finished connections so a long-lived daemon does not
      // accumulate dead threads.
      for (auto& old : connections_) {
        if (old->done.load(std::memory_order_acquire) &&
            old->thread.joinable()) {
          old->thread.join();
        }
      }
      connections_.erase(
          std::remove_if(connections_.begin(), connections_.end(),
                         [](const std::unique_ptr<Connection>& c) {
                           return c->done.load(std::memory_order_acquire) &&
                                  !c->thread.joinable();
                         }),
          connections_.end());
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread([this, raw] {
      RunConnection(raw);
      raw->done.store(true, std::memory_order_release);
    });
  }

  // Drain: no new connections; in-flight requests keep their slots
  // until the drain deadline, then the abort token cuts them short
  // (they still answer, with termination=cancelled). Idle connections
  // close promptly: their next-frame reads watch read_interrupt_.
  draining_.store(true, std::memory_order_release);
  read_interrupt_.Cancel();
  listener_.Reset();
  const Deadline drain_deadline =
      Deadline::AfterMs(clock_, static_cast<double>(options_.drain_timeout_ms));
  const auto all_done = [this] {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    return std::all_of(connections_.begin(), connections_.end(),
                       [](const std::unique_ptr<Connection>& c) {
                         return c->done.load(std::memory_order_acquire);
                       });
  };
  while (!all_done()) {
    if (drain_deadline.expired()) {
      abort_token_.Cancel(clock_->NowNanos());
      break;
    }
    // lint-friendly interruptible sleep slice; the token is only
    // cancelled after this loop, so this is a plain bounded wait.
    (void)abort_token_.WaitForMs(kHousekeepingSliceMs);  // lint: discard-ok: bounded housekeeping sleep
  }

  stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto& connection : connections_) {
      if (connection->thread.joinable()) connection->thread.join();
    }
    connections_.clear();
  }
  watcher.join();
  if (watchdog.joinable()) watchdog.join();
  return Status::OK();
}

void CorrobdServer::WatchStuckRequests() {
  ServerMetrics& metrics = ServerMetrics::Get();
  int64_t last_scan = clock_->NowNanos();
  const int64_t interval_nanos = options_.watchdog_interval_ms * 1'000'000;
  while (!stopping_.load(std::memory_order_acquire)) {
    // Housekeeping-sized slices so shutdown never waits out a full
    // watchdog interval.
    (void)abort_token_.WaitForMs(kHousekeepingSliceMs);  // lint: discard-ok: watchdog cadence sleep
    const int64_t now = clock_->NowNanos();
    if (now - last_scan < interval_nanos) continue;
    last_scan = now;
    const std::vector<obs::ActiveSnapshot> flagged =
        recorder_->FlagStuck(now, options_.watchdog_deadline_multiplier);
    metrics.watchdog_scans->Add(1);
    watchdog_scans_.fetch_add(1, std::memory_order_relaxed);
    for (const obs::ActiveSnapshot& request : flagged) {
      CORROB_LOG_WARNING
          << "watchdog: stuck request seq=" << request.sequence
          << " id=" << request.client_request_id
          << " tenant=" << request.tenant
          << " dataset=" << request.dataset
          << " method=" << request.method
          << " priority=" << request.priority
          << " age_ms=" << request.age_nanos / 1'000'000
          << " deadline_ms=" << request.deadline_nanos / 1'000'000;
    }
    if (!flagged.empty()) {
      metrics.watchdog_flagged->Add(static_cast<int64_t>(flagged.size()));
      watchdog_flagged_.fetch_add(static_cast<int64_t>(flagged.size()),
                                  std::memory_order_relaxed);
    }
    metrics.watchdog_stuck->Set(recorder_->stuck_now());
  }
}

void CorrobdServer::WatchDisconnects() {
  while (!stopping_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      for (auto& connection : connections_) {
        if (connection->done.load(std::memory_order_acquire)) continue;
        std::lock_guard<std::mutex> request_lock(connection->mutex);
        if (connection->active_request != nullptr &&
            PeerClosed(connection->fd.get())) {
          connection->active_request->Cancel(clock_->NowNanos());
        }
      }
    }
    (void)abort_token_.WaitForMs(kHousekeepingSliceMs);  // lint: discard-ok: watcher cadence sleep
  }
}

void CorrobdServer::RunConnection(Connection* connection) {
  // Reading the next request stops on drain (idle connections close
  // promptly when the daemon drains) — but never mid-request: request
  // execution only watches the abort token.
  const StopSignal read_stop(&read_interrupt_, Deadline());
  while (!draining_.load(std::memory_order_acquire) &&
         !read_stop.ShouldStop()) {
    Result<std::optional<WireFrame>> next =
        ReadFrameOrEof(connection->fd.get(), read_stop);
    if (!next.ok()) {
      // Drain interrupted an idle read: a silent close, not an error
      // — the client is sitting at a frame boundary and sees a clean
      // EOF, exactly like a fresh goodbye.
      if (next.status().code() == StatusCode::kCancelled) break;
      // Framing is broken (bad magic, checksum, oversize, I/O error):
      // report the typed error if the pipe still works, then close —
      // the stream can no longer be trusted to be frame-aligned.
      // lint: discard-ok: already closing on error
      (void)WriteFrame(connection->fd.get(), ErrorFrame(next.status()),
                       WriteStop());
      break;
    }
    if (!next.ValueOrDie().has_value()) break;  // clean goodbye
    const WireFrame& frame = *next.ValueOrDie();
    const Status handled =
        HandleFrame(connection, frame.type, frame.payload());
    if (!handled.ok()) break;
  }
  connection->fd.Reset();
}

Status CorrobdServer::HandleFrame(Connection* connection, FrameType type,
                                  std::string_view payload) {
  switch (type) {
    case FrameType::kPingRequest: {
      Frame pong;
      pong.type = FrameType::kPongResponse;
      pong.payload.assign(payload);  // echo
      return CountResponse(
          WriteFrame(connection->fd.get(), pong, WriteStop()));
    }
    case FrameType::kStatsRequest:
      return HandleStats(connection);
    case FrameType::kIntrospectRequest:
      return HandleIntrospect(connection, payload);
    case FrameType::kCorroborateRequest:
      return HandleCorroborate(connection, payload);
    case FrameType::kBatchRequest:
      return HandleBatch(connection, payload);
    case FrameType::kReloadRequest:
      return HandleReload(connection, payload);
    case FrameType::kApplyDeltaRequest:
      return HandleApplyDelta(connection, payload);
    default: {
      // A response type arriving at the server: answer in-band and
      // keep the connection (framing itself is intact).
      return CountResponse(WriteFrame(
          connection->fd.get(),
          ErrorFrame(Status::InvalidArgument(
              "server cannot handle frame type '" +
              std::string(FrameTypeName(type)) + "'")),
          WriteStop()));
    }
  }
}

Status CorrobdServer::HandleStats(Connection* connection) {
  obs::JsonValue stats = obs::JsonValue::Object();
  stats.Set("schema", obs::JsonValue::Str("corrob.serving_stats/4"));
  stats.Set("running",
            obs::JsonValue::Int(admission_->running()));
  obs::JsonValue queued = obs::JsonValue::Object();
  for (int cls = 0; cls < kNumPriorities; ++cls) {
    queued.Set(std::string(PriorityName(static_cast<Priority>(cls))),
               obs::JsonValue::Int(
                   admission_->queued(static_cast<Priority>(cls))));
  }
  stats.Set("queued", std::move(queued));
  obs::JsonValue names = obs::JsonValue::Array();
  for (const auto& served : datasets_) {
    names.Append(obs::JsonValue::Str(served->name));
  }
  stats.Set("datasets", std::move(names));
  stats.Set("responses_sent",
            obs::JsonValue::Int(
                responses_sent_.load(std::memory_order_relaxed)));
  stats.Set("draining",
            obs::JsonValue::Bool(draining_.load(std::memory_order_acquire)));

  obs::JsonValue wal_json = obs::JsonValue::Object();
  wal_json.Set("enabled", obs::JsonValue::Bool(!options_.wal_dir.empty()));
  int64_t deltas_total = 0;
  int64_t unhealthy = 0;
  for (const auto& served : datasets_) {
    deltas_total += static_cast<int64_t>(
        served->deltas_applied.load(std::memory_order_relaxed));
    std::lock_guard<std::mutex> wal_lock(served->wal_mutex);
    if (served->wal != nullptr && !served->wal_healthy) ++unhealthy;
  }
  wal_json.Set("deltas_applied", obs::JsonValue::Int(deltas_total));
  wal_json.Set("unhealthy_datasets", obs::JsonValue::Int(unhealthy));
  stats.Set("wal", std::move(wal_json));

  obs::JsonValue fact_groups_json = obs::JsonValue::Object();
  auto tally = [](const std::atomic<int64_t>& value) {
    return obs::JsonValue::Int(value.load(std::memory_order_relaxed));
  };
  fact_groups_json.Set("builds", tally(fact_group_tally_->builds));
  fact_groups_json.Set("resident", tally(fact_group_tally_->resident));
  fact_groups_json.Set("resident_bytes",
                       tally(fact_group_tally_->resident_bytes));
  obs::JsonValue live = obs::JsonValue::Array();
  for (const auto& served : datasets_) {
    std::shared_ptr<const ServedGeneration> current;
    uint64_t generation = 0;
    {
      std::lock_guard<std::mutex> lock(served->mutex);
      current = served->current;
      generation = served->generation.load(std::memory_order_acquire);
    }
    const int64_t bytes = current->fact_group_bytes();
    obs::JsonValue row = obs::JsonValue::Object();
    row.Set("dataset", obs::JsonValue::Str(served->name));
    row.Set("generation",
            obs::JsonValue::Int(static_cast<int64_t>(generation)));
    row.Set("built", obs::JsonValue::Bool(bytes >= 0));
    row.Set("bytes", obs::JsonValue::Int(std::max<int64_t>(bytes, 0)));
    live.Append(std::move(row));
  }
  fact_groups_json.Set("datasets", std::move(live));
  stats.Set("fact_groups", std::move(fact_groups_json));

  const CacheStats cache = cache_->stats();
  obs::JsonValue cache_json = obs::JsonValue::Object();
  cache_json.Set("hits", obs::JsonValue::Int(cache.hits));
  cache_json.Set("misses", obs::JsonValue::Int(cache.misses));
  cache_json.Set("insertions", obs::JsonValue::Int(cache.insertions));
  cache_json.Set("evictions", obs::JsonValue::Int(cache.evictions));
  cache_json.Set("invalidations", obs::JsonValue::Int(cache.invalidations));
  cache_json.Set("entries", obs::JsonValue::Int(cache.entries));
  cache_json.Set("bytes", obs::JsonValue::Int(cache.bytes));
  stats.Set("cache", std::move(cache_json));

  const RunCoalescer::Stats coalesce = coalescer_.stats();
  obs::JsonValue coalesce_json = obs::JsonValue::Object();
  coalesce_json.Set("leaders", obs::JsonValue::Int(coalesce.leaders));
  coalesce_json.Set("followers", obs::JsonValue::Int(coalesce.followers));
  coalesce_json.Set("shared", obs::JsonValue::Int(coalesce.shared));
  coalesce_json.Set("promotions", obs::JsonValue::Int(coalesce.promotions));
  coalesce_json.Set("abandoned", obs::JsonValue::Int(coalesce.abandoned));
  stats.Set("coalesce", std::move(coalesce_json));

  const TenantQuotas::Stats quota = quotas_->stats();
  obs::JsonValue quota_json = obs::JsonValue::Object();
  quota_json.Set("rate_rejections",
                 obs::JsonValue::Int(quota.rate_rejections));
  quota_json.Set("slot_rejections",
                 obs::JsonValue::Int(quota.slot_rejections));
  stats.Set("quota", std::move(quota_json));

  const obs::FlightRecorderStats recorder = recorder_->stats();
  obs::JsonValue recorder_json = obs::JsonValue::Object();
  recorder_json.Set("started", obs::JsonValue::Int(recorder.started));
  recorder_json.Set("completed", obs::JsonValue::Int(recorder.completed));
  recorder_json.Set("active", obs::JsonValue::Int(recorder.active));
  recorder_json.Set("dropped", obs::JsonValue::Int(recorder.dropped));
  recorder_json.Set("slow", obs::JsonValue::Int(recorder.slow));
  stats.Set("recorder", std::move(recorder_json));

  stats.Set("watchdog", WatchdogJson());

  Frame response;
  response.type = FrameType::kStatsResponse;
  response.payload = stats.Dump();
  return CountResponse(
      WriteFrame(connection->fd.get(), response, WriteStop()));
}

Status CorrobdServer::HandleIntrospect(Connection* connection,
                                       std::string_view payload) {
  Frame response;
  Result<IntrospectRequest> decoded = DecodeIntrospectRequest(payload);
  if (!decoded.ok()) {
    response = ErrorFrame(decoded.status());
    ServerMetrics::Get().requests_failed->Add(1);
  } else {
    const IntrospectRequest& request = decoded.ValueOrDie();
    // Bound both knobs by the ring capacity: asking for more than the
    // recorder can hold is harmless, but the caps keep a hostile u32
    // from turning into an int overflow.
    const int top_k = static_cast<int>(
        std::min<uint32_t>(request.top_k, 1u << 20));
    const int max_recent = static_cast<int>(
        std::min<uint32_t>(request.max_recent, 1u << 20));

    obs::JsonValue doc = obs::JsonValue::Object();
    doc.Set("schema", obs::JsonValue::Str("corrob.introspect/1"));
    const int64_t now = clock_->NowNanos();
    doc.Set("now_nanos", obs::JsonValue::Int(now));

    obs::JsonValue active = obs::JsonValue::Array();
    for (const obs::ActiveSnapshot& snap : recorder_->ActiveRequests(now)) {
      obs::JsonValue row = obs::JsonValue::Object();
      row.Set("seq",
              obs::JsonValue::Int(static_cast<int64_t>(snap.sequence)));
      row.Set("id", obs::JsonValue::Str(snap.client_request_id));
      row.Set("tenant", obs::JsonValue::Str(snap.tenant));
      row.Set("dataset", obs::JsonValue::Str(snap.dataset));
      row.Set("method", obs::JsonValue::Str(snap.method));
      row.Set("priority", obs::JsonValue::Str(snap.priority));
      row.Set("age_nanos", obs::JsonValue::Int(snap.age_nanos));
      row.Set("deadline_nanos", obs::JsonValue::Int(snap.deadline_nanos));
      row.Set("flagged", obs::JsonValue::Bool(snap.flagged_stuck));
      active.Append(std::move(row));
    }
    doc.Set("active", std::move(active));

    doc.Set("recorder", recorder_->SnapshotJson(top_k, max_recent));

    doc.Set("watchdog", WatchdogJson());

    doc.Set("metrics", obs::MetricsRegistry::Global().Snapshot().ToJson());

    response.type = FrameType::kIntrospectResponse;
    response.payload = doc.Dump();
  }

  return CountResponse(
      WriteFrame(connection->fd.get(), response, WriteStop()));
}

SharedResponse CorrobdServer::ExecuteOne(
    Connection* connection, const SubRequest& request, bool charge_rate) {
  ServerMetrics& metrics = ServerMetrics::Get();
  SharedResponse out;

  const int cls = static_cast<int>(request.priority);
  const int64_t timeout_ms =
      request.timeout_ms > 0
          ? static_cast<int64_t>(request.timeout_ms)
          : options_.admission.default_timeout_ms[cls];

  // Flight-recorder entry. Every outcome below funnels through
  // finish_record exactly once; paths that never produced bytes of
  // their own (shed, quota, error) record role=rejected, which keeps
  // them out of the cold/hit latency histograms. A disarmed recorder
  // must cost a branch and nothing else — the metadata strings are
  // only assembled when a record will actually be kept
  // (bench_flight_recorder pins this).
  uint64_t record = 0;
  if (recorder_->armed()) {
    obs::RequestStart start;
    start.client_request_id = request.request_id;
    start.tenant = request.tenant;
    start.dataset = request.dataset;
    start.method = request.algorithm;
    start.priority = std::string(PriorityName(request.priority));
    start.deadline_nanos = timeout_ms > 0 ? timeout_ms * 1'000'000 : 0;
    record = recorder_->Begin(std::move(start));
  }
  obs::RequestFinish finish;
  finish.role = obs::RequestRole::kRejected;
  const auto finish_record = [&](std::string_view termination) {
    if (record == 0) return;
    finish.termination = std::string(termination);
    finish.response_bytes = static_cast<int64_t>(out.payload->size());
    const obs::FinishSummary summary = recorder_->End(record, finish);
    if (summary.slow) {
      metrics.slow_requests->Add(1);
      CORROB_LOG_WARNING
          << "slow request seq=" << record << " id=" << request.request_id
          << " tenant=" << request.tenant
          << " dataset=" << request.dataset
          << " priority=" << PriorityName(request.priority)
          << " termination=" << finish.termination
          << " total_ms=" << summary.total_nanos / 1'000'000;
    }
  };

  const auto fail = [&](const Status& status) {
    out = MakeSharedResponse(FrameType::kErrorResponse,
                             ErrorFrame(status).payload);
    metrics.requests_failed->Add(1);
    finish_record("error");
  };
  const auto quota_reject = [&](const QuotaDecision& decision) {
    QuotaExceededResponse body;
    body.retry_after_ms = decision.retry_after_ms;
    body.tenant = request.tenant;
    body.message = decision.reason;
    out = MakeSharedResponse(FrameType::kQuotaExceededResponse,
                             EncodeQuotaExceededResponse(body));
    metrics.requests_quota_rejected->Add(1);
    finish_record("quota_rejected");
  };

  if (charge_rate) {
    const QuotaDecision rate = quotas_->ChargeRate(request.tenant, 1);
    if (!rate.allowed) {
      quota_reject(rate);
      return out;
    }
  }

  ServedDataset* served = FindDataset(request.dataset);
  if (served == nullptr) {
    fail(Status::NotFound(
        "dataset '" + request.dataset +
        "' is not loaded (corrobd serves only datasets named at "
        "startup)"));
    return out;
  }
  Result<std::unique_ptr<Corroborator>> corroborator = MakeCorroborator(
      request.algorithm,
      CorroboratorOptions{.num_threads = options_.run_threads});
  if (!corroborator.ok()) {
    fail(corroborator.status());
    return out;
  }

  // Snapshot data + generation together so a concurrent reload cannot
  // pair new data with an old cache key (or vice versa).
  std::shared_ptr<const ServedGeneration> data;
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(served->mutex);
    data = served->current;
    generation = served->generation.load(std::memory_order_acquire);
  }

  const int64_t effective_rounds =
      request.max_rounds > 0
          ? static_cast<int64_t>(request.max_rounds)
          : options_.admission.default_max_rounds[cls];
  const std::string key =
      CacheKey(request.dataset, generation, request.algorithm,
               effective_rounds, request.options);

  // Cache fast path: replay the exact bytes of the original cold run,
  // by reference. No admission slot, no tenant run slot — a hit costs
  // the daemon no corroboration work (the rate token above was still
  // charged).
  if (std::optional<SharedResponse> cached = cache_->Lookup(key)) {
    out = *std::move(cached);
    finish.role = obs::RequestRole::kCacheHit;
    finish_record("cached");
    return out;
  }
  recorder_->AddSpan(record, "cache_miss");

  const QuotaDecision slot = quotas_->TryEnterRun(request.tenant);
  if (!slot.allowed) {
    quota_reject(slot);
    return out;
  }

  // Per-request isolation: child token (disconnect watcher and abort
  // fan-in) + class-defaulted deadline and budget.
  CancellationToken request_token(&abort_token_);
  const Deadline deadline =
      timeout_ms > 0
          ? Deadline::AfterMs(clock_, static_cast<double>(timeout_ms))
          : Deadline();
  const StopSignal request_stop(&request_token, deadline);

  const AdmissionDecision admitted =
      admission_->Admit(request.priority, request_stop);
  metrics.queue_wait_nanos->Record(admitted.queue_wait_nanos);
  finish.admission_wait_nanos = admitted.queue_wait_nanos;
  switch (admitted.outcome) {
    case AdmissionDecision::Outcome::kShed: {
      OverloadedResponse body;
      body.retry_after_ms = admitted.retry_after_ms;
      body.queue_depth = admitted.queue_depth;
      body.message = "admission queue for class '" +
                     std::string(PriorityName(request.priority)) +
                     "' is full";
      out = MakeSharedResponse(FrameType::kOverloadedResponse,
                               EncodeOverloadedResponse(body));
      metrics.requests_shed->Add(1);
      finish_record("shed");
      quotas_->ExitRun(request.tenant);
      return out;
    }
    case AdmissionDecision::Outcome::kCancelled:
      fail(Status::Cancelled(
          request_stop.deadline_expired()
              ? "request deadline expired while queued for admission"
              : "request cancelled while queued for admission"));
      quotas_->ExitRun(request.tenant);
      return out;
    case AdmissionDecision::Outcome::kAdmitted:
      break;
  }
  metrics.requests_admitted->Add(1);
  metrics.running->Set(admission_->running());
  recorder_->AddSpan(record, "admitted");
  {
    std::lock_guard<std::mutex> lock(connection->mutex);
    connection->active_request = &request_token;
  }

  // Coalesce: first arrival for the key runs; the rest wait for its
  // bytes. Followers keep holding their admission slot while waiting
  // (they are occupying daemon patience either way); a follower whose
  // own stop fires detaches without touching the leader, and a leader
  // that cannot share (error or timing-truncated run) hands the key
  // to one follower, which re-runs — the promotion loop below.
  RunCoalescer::Ticket ticket = coalescer_.Attach(key);
  recorder_->AddSpan(record, "coalesce_attach");
  const bool was_follower =
      ticket.role() == RunCoalescer::Role::kFollower;
  const int64_t section_started = clock_->NowNanos();
  for (;;) {
    if (ticket.role() == RunCoalescer::Role::kFollower) {
      RunCoalescer::WaitResult waited =
          coalescer_.Wait(&ticket, request_stop);
      if (waited.outcome == RunCoalescer::WaitOutcome::kGotResult) {
        out = std::move(waited.response);
        finish.role = obs::RequestRole::kFollower;
        finish_record("coalesced");
        break;
      }
      if (waited.outcome == RunCoalescer::WaitOutcome::kCancelled) {
        fail(Status::Cancelled(
            request_stop.deadline_expired()
                ? "request deadline expired while awaiting a "
                  "coalesced result"
                : "request cancelled while awaiting a coalesced "
                  "result"));
        break;
      }
      // kPromoted: this ticket is now the leader; run it ourselves.
      continue;
    }

    // Leader path. Test hook: holds the request in-flight while
    // armed, so overload and drain scenarios are deterministic.
    while (Failpoints::IsArmed("server.request.stall") &&
           !request_stop.ShouldStop()) {
      (void)request_token.WaitForMs(1.0);  // lint: discard-ok: stall hook polls stop each slice
    }
    // Harder stall for the watchdog tests: deliberately ignores the
    // request deadline so an in-flight request can exceed N× its
    // allowance; only cancellation (disconnect, drain abort) or
    // disarming the failpoint releases it.
    while (Failpoints::IsArmed("server.request.stall_hard") &&
           !request_token.cancelled()) {
      (void)request_token.WaitForMs(1.0);  // lint: discard-ok: stall hook polls cancellation each slice
    }

    ResourceBudget budget;
    budget.max_rounds = effective_rounds;
    RunContext context;
    context.WithCancellation(&request_token)
        .WithDeadline(deadline)
        .WithBudget(budget);

    recorder_->AddSpan(record, "run_start");
    const int64_t run_started = clock_->NowNanos();
    Result<CorroborationResult> run =
        Status::Internal("request failpoint");
    const Status injected = Failpoints::Check("server.request.fail");
    if (injected.ok()) {
      // Only IncEstimate reads fact groups, so only it builds the
      // generation's index.
      if (dynamic_cast<const IncEstimateCorroborator*>(
              corroborator.ValueOrDie().get()) != nullptr) {
        context.WithFactGroups(&data->FactGroups());
      }
      run = corroborator.ValueOrDie()->Run(data->dataset(), context);
    } else {
      run = injected;
    }
    const int64_t service_nanos = clock_->NowNanos() - run_started;
    metrics.service_nanos->Record(service_nanos);
    finish.service_nanos = service_nanos;
    recorder_->AddSpan(record, "run_end");

    if (!run.ok()) {
      fail(run.status());
      coalescer_.Abandon(ticket);
      break;
    }
    CorroborationResult& result = run.ValueOrDie();
    CorroborateResponse body;
    body.algorithm = result.algorithm;
    body.termination = static_cast<uint8_t>(result.termination);
    body.iterations = static_cast<uint32_t>(result.iterations);
    body.fact_probability = std::move(result.fact_probability);
    body.source_trust = std::move(result.source_trust);
    out = MakeSharedResponse(FrameType::kResultResponse,
                             EncodeCorroborateResponse(body));
    if (IsShareableTermination(body.termination)) {
      cache_->Insert(key, request.dataset, out);
      coalescer_.Publish(ticket, out);
      finish.role = was_follower ? obs::RequestRole::kPromoted
                                 : obs::RequestRole::kLeader;
    } else {
      coalescer_.Abandon(ticket);
      // A truncated-but-answered run produced its own private bytes.
      finish.role = was_follower ? obs::RequestRole::kPromoted
                                 : obs::RequestRole::kCold;
    }
    finish_record(TerminationName(result.termination));
    break;
  }

  {
    std::lock_guard<std::mutex> lock(connection->mutex);
    connection->active_request = nullptr;
  }
  admission_->Release(request.priority,
                      clock_->NowNanos() - section_started);
  metrics.running->Set(admission_->running());
  quotas_->ExitRun(request.tenant);
  return out;
}

Status CorrobdServer::HandleCorroborate(Connection* connection,
                                        std::string_view payload) {
  SharedResponse response;
  std::string_view request_id;
  Result<CorroborateRequest> decoded = DecodeCorroborateRequest(payload);
  if (!decoded.ok()) {
    response = MakeSharedResponse(FrameType::kErrorResponse,
                                  ErrorFrame(decoded.status()).payload);
    ServerMetrics::Get().requests_failed->Add(1);
  } else {
    const CorroborateRequest& request = decoded.ValueOrDie();
    SubRequest sub;
    sub.priority = request.priority;
    sub.tenant = request.tenant;
    sub.dataset = request.dataset;
    sub.algorithm = request.algorithm;
    sub.timeout_ms = request.timeout_ms;
    sub.max_rounds = request.max_rounds;
    sub.options = request.options;
    sub.request_id = request.request_id;
    response = ExecuteOne(connection, sub, /*charge_rate=*/true);
    request_id = request.request_id;
  }

  // After the cache/coalescer: the shared canonical payload stays
  // id-free; only this client's frame carries the echo.
  return CountResponse(WriteSharedResponse(connection->fd.get(), response,
                                           request_id, WriteStop()));
}

Status CorrobdServer::HandleBatch(Connection* connection,
                                  std::string_view payload) {
  Frame response;
  Result<BatchRequest> decoded = DecodeBatchRequest(payload);
  if (!decoded.ok()) {
    response = ErrorFrame(decoded.status());
    ServerMetrics::Get().requests_failed->Add(1);
  } else {
    const BatchRequest& request = decoded.ValueOrDie();
    // The whole batch charges the tenant's rate bucket up front —
    // items.size() admission units, all or nothing.
    const QuotaDecision rate = quotas_->ChargeRate(
        request.tenant, static_cast<int>(request.items.size()));
    if (!rate.allowed) {
      response.type = FrameType::kQuotaExceededResponse;
      QuotaExceededResponse body;
      body.retry_after_ms = rate.retry_after_ms;
      body.tenant = request.tenant;
      body.message = rate.reason;
      response.payload = EncodeQuotaExceededResponse(body);
      ServerMetrics::Get().requests_quota_rejected->Add(1);
    } else {
      BatchResponse batch;
      batch.items.reserve(request.items.size());
      for (const BatchItem& item : request.items) {
        SubRequest sub;
        sub.priority = request.priority;
        sub.tenant = request.tenant;
        sub.dataset = item.dataset;
        sub.algorithm = item.algorithm;
        sub.timeout_ms = item.timeout_ms;
        sub.max_rounds = item.max_rounds;
        sub.options = item.options;
        const SharedResponse result =
            ExecuteOne(connection, sub, /*charge_rate=*/false);
        BatchItemResponse encoded;
        encoded.type = static_cast<uint8_t>(result.type);
        encoded.payload = *result.payload;
        batch.items.push_back(std::move(encoded));
      }
      response.type = FrameType::kBatchResponse;
      response.payload = EncodeBatchResponse(batch);
    }
  }

  return CountResponse(
      WriteFrame(connection->fd.get(), response, WriteStop()));
}

Status CorrobdServer::HandleReload(Connection* connection,
                                   std::string_view payload) {
  Frame response;
  const auto respond_error = [&](const Status& status) {
    response = ErrorFrame(status);
    ServerMetrics::Get().requests_failed->Add(1);
  };

  Result<ReloadRequest> decoded = DecodeReloadRequest(payload);
  if (!decoded.ok()) {
    respond_error(decoded.status());
  } else {
    const ReloadRequest& request = decoded.ValueOrDie();
    ReloadResponse body;
    Status reloaded = Status::OK();
    if (!request.dataset.empty()) {
      ServedDataset* served = FindDataset(request.dataset);
      if (served == nullptr) {
        reloaded = Status::NotFound("dataset '" + request.dataset +
                                    "' is not loaded");
      } else {
        reloaded = ReloadDataset(served);
        if (reloaded.ok()) {
          body.datasets_reloaded = 1;
          body.generation =
              served->generation.load(std::memory_order_acquire);
        }
      }
    } else {
      for (const auto& served : datasets_) {
        reloaded = ReloadDataset(served.get());
        if (!reloaded.ok()) break;
        ++body.datasets_reloaded;
        body.generation =
            std::max(body.generation,
                     served->generation.load(std::memory_order_acquire));
      }
    }
    if (!reloaded.ok()) {
      respond_error(reloaded);
    } else {
      response.type = FrameType::kReloadResponse;
      response.payload = EncodeReloadResponse(body);
    }
  }

  return CountResponse(
      WriteFrame(connection->fd.get(), response, WriteStop()));
}

Status CorrobdServer::HandleApplyDelta(Connection* connection,
                                       std::string_view payload) {
  Frame response;
  const auto respond_error = [&](const Status& status) {
    response = ErrorFrame(status);
    ServerMetrics::Get().requests_failed->Add(1);
  };

  Result<ApplyDeltaRequest> decoded = DecodeApplyDeltaRequest(payload);
  if (!decoded.ok()) {
    respond_error(decoded.status());
  } else if (options_.wal_dir.empty()) {
    respond_error(Status::FailedPrecondition(
        "corrobd is running without --wal; delta ingestion is "
        "disabled"));
  } else {
    const ApplyDeltaRequest& request = decoded.ValueOrDie();
    ServedDataset* served = FindDataset(request.dataset);
    if (served == nullptr) {
      respond_error(Status::NotFound("dataset '" + request.dataset +
                                     "' is not loaded"));
    } else {
      // One mutator at a time. Readers never wait on this lock: they
      // snapshot the shared_ptr under served->mutex, which an apply
      // only takes for the final swap.
      std::lock_guard<std::mutex> wal_lock(served->wal_mutex);
      Status applied = Status::OK();
      if (!served->wal_healthy || served->wal == nullptr) {
        applied = Status::WalUnavailable(
            "dataset '" + served->name +
            "' is serving read-only: its write-ahead log previously "
            "failed (restart corrobd to recover)");
      }
      std::shared_ptr<const ServedGeneration> current;
      if (applied.ok()) {
        std::lock_guard<std::mutex> lock(served->mutex);
        current = served->current;
      }
      // Validate-and-build before the log sees anything, so a delta
      // batch the core rejects leaves both the WAL and the resident
      // dataset untouched.
      Result<Dataset> next =
          Status::FailedPrecondition("delta apply never ran");
      if (applied.ok()) {
        next = ApplyDeltasToDataset(current->dataset(), request.deltas);
        if (!next.ok()) applied = next.status();
      }
      if (applied.ok()) {
        // Durability before the ack: the whole batch reaches the log
        // (and the disk, under the always policy) as ONE framed
        // record before the client hears anything. One frame means
        // all-or-nothing: a NACKed batch can never leave a durable
        // prefix of itself for the next restart to replay.
        applied = served->wal->AppendBatch(request.deltas);
        if (!applied.ok()) {
          // The log can no longer be trusted to be ahead of the
          // resident state, so stop mutating: reads continue from
          // the snapshot, writes get the typed code below.
          served->wal_healthy = false;
          ServerMetrics::Get().wal_failures->Add(1);
          CORROB_LOG_WARNING
              << "corrobd: WAL append failed for dataset '"
              << served->name << "' (" << applied.message()
              << "); dataset degrades to read-only serving";
          applied = Status::WalUnavailable(
              "WAL append failed for dataset '" + served->name +
              "': " + applied.message() +
              " (dataset now serves read-only)");
        }
      }
      if (!applied.ok()) {
        respond_error(applied);
      } else {
        // Drop this request's reference first, so PublishGeneration
        // frees the old generation after its unlock.
        current.reset();
        PublishGeneration(served, std::move(next).ValueOrDie());
        served->deltas_applied.fetch_add(request.deltas.size(),
                                         std::memory_order_relaxed);
        ServerMetrics::Get().deltas_applied->Add(
            static_cast<int64_t>(request.deltas.size()));
        ApplyDeltaResponse body;
        body.applied = static_cast<uint32_t>(request.deltas.size());
        body.generation =
            served->generation.load(std::memory_order_acquire);
        response.type = FrameType::kApplyDeltaResponse;
        response.payload = EncodeApplyDeltaResponse(body);
      }
    }
  }

  return CountResponse(
      WriteFrame(connection->fd.get(), response, WriteStop()));
}

}  // namespace server
}  // namespace corrob
