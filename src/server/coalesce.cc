#include "server/coalesce.h"

#include <chrono>

#include "obs/metrics.h"

namespace corrob {
namespace server {

namespace {

/// Poll cadence for follower waits; StopSignal has no wakeup fd, so
/// cancellation latency is bounded by this instead.
constexpr std::chrono::milliseconds kWaitPollInterval{5};

struct CoalesceMetrics {
  obs::Counter* leaders;
  obs::Counter* followers;
  obs::Counter* shared;
  obs::Counter* promotions;
  obs::Counter* abandoned;

  static CoalesceMetrics& Get() {
    static CoalesceMetrics metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      CoalesceMetrics m;
      m.leaders = registry.GetCounter("corrob.server.coalesce.leaders");
      m.followers = registry.GetCounter("corrob.server.coalesce.followers");
      m.shared = registry.GetCounter("corrob.server.coalesce.shared");
      m.promotions =
          registry.GetCounter("corrob.server.coalesce.promotions");
      m.abandoned = registry.GetCounter("corrob.server.coalesce.abandoned");
      return m;
    }();
    return metrics;
  }
};

}  // namespace

/// Shared state of one in-flight computation. All fields are guarded
/// by the coalescer's mutex; the cv shares that mutex.
struct RunCoalescer::Ticket::Flight {
  std::string key;
  /// Followers attached and not yet resolved.
  int waiters = 0;
  bool published = false;
  /// Leadership is up for grabs: the previous leader abandoned and no
  /// follower has claimed the flight yet.
  bool orphaned = false;
  SharedResponse response;
  std::condition_variable cv;
};

RunCoalescer::Ticket RunCoalescer::Attach(const std::string& key) {
  Ticket ticket;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = flights_.find(key);
  if (it == flights_.end()) {
    auto flight = std::make_shared<Ticket::Flight>();
    flight->key = key;
    flights_.emplace(key, flight);
    ticket.role_ = Role::kLeader;
    ticket.flight_ = std::move(flight);
    ++stats_.leaders;
    CoalesceMetrics::Get().leaders->Add(1);
  } else {
    ticket.role_ = Role::kFollower;
    ticket.flight_ = it->second;
    ++ticket.flight_->waiters;
    ++stats_.followers;
    CoalesceMetrics::Get().followers->Add(1);
  }
  return ticket;
}

void RunCoalescer::Publish(const Ticket& ticket,
                           const SharedResponse& response) {
  auto& flight = *ticket.flight_;
  std::lock_guard<std::mutex> lock(mutex_);
  flight.published = true;
  flight.response = response;
  const auto it = flights_.find(flight.key);
  if (it != flights_.end() && it->second == ticket.flight_) {
    flights_.erase(it);
  }
  flight.cv.notify_all();
}

void RunCoalescer::Abandon(const Ticket& ticket) {
  auto& flight = *ticket.flight_;
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.abandoned;
  CoalesceMetrics::Get().abandoned->Add(1);
  if (flight.waiters > 0) {
    // Leave the flight mapped: a waiter will claim leadership, and
    // new arrivals keep following under the same key.
    flight.orphaned = true;
    flight.cv.notify_all();
    return;
  }
  const auto it = flights_.find(flight.key);
  if (it != flights_.end() && it->second == ticket.flight_) {
    flights_.erase(it);
  }
}

// Justified: the bounded-slice cv wait needs std::unique_lock, which
// carries no capability annotations, so the analysis would flag the
// flights_/stats_ accesses in the wait loop as unlocked. The
// discipline is pinned dynamically by the TSan job and the
// coalescing race tests.
RunCoalescer::WaitResult RunCoalescer::Wait(Ticket* ticket,
                                            const StopSignal& stop)
    CORROB_NO_THREAD_SAFETY_ANALYSIS {
  auto& flight = *ticket->flight_;
  WaitResult result;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (flight.published) {
      --flight.waiters;
      result.outcome = WaitOutcome::kGotResult;
      result.response = flight.response;
      ++stats_.shared;
      CoalesceMetrics::Get().shared->Add(1);
      return result;
    }
    // A stopped follower declines promotion, so the stop check comes
    // before the orphan claim.
    if (stop.ShouldStop()) {
      --flight.waiters;
      // If leadership is up for grabs and this was the last waiter,
      // nobody is left to run the flight: retire it so later arrivals
      // start fresh instead of following a ghost.
      if (flight.waiters == 0 && flight.orphaned) {
        flight.orphaned = false;
        const auto it = flights_.find(flight.key);
        if (it != flights_.end() && it->second == ticket->flight_) {
          flights_.erase(it);
        }
      }
      result.outcome = WaitOutcome::kCancelled;
      return result;
    }
    if (flight.orphaned) {
      flight.orphaned = false;
      --flight.waiters;
      ticket->role_ = Role::kLeader;
      result.outcome = WaitOutcome::kPromoted;
      ++stats_.promotions;
      ++stats_.leaders;
      CoalesceMetrics::Get().promotions->Add(1);
      CoalesceMetrics::Get().leaders->Add(1);
      return result;
    }
    // lint: cvwait-ok: bounded poll slice; the loop re-checks published/orphaned and stop.ShouldStop(), which no cv predicate can observe (StopSignal has no wakeup channel)
    flight.cv.wait_for(lock, kWaitPollInterval);
  }
}

RunCoalescer::Stats RunCoalescer::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace server
}  // namespace corrob
