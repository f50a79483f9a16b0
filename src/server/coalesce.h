#ifndef CORROB_SERVER_COALESCE_H_
#define CORROB_SERVER_COALESCE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/budget.h"
#include "common/thread_annotations.h"
#include "server/shared_response.h"

// Request coalescing (single-flight) for corrobd. When several
// connections ask for the same canonical cache key at once, exactly
// one of them (the leader) runs the corroboration; the rest
// (followers) block on the flight and receive a reference to the
// leader's encoded response (the same SharedResponse the cache holds,
// never a copy). Invariants the race tests pin:
//
//   * A follower abandoning its wait (its own cancel/disconnect)
//     never disturbs the leader or the other followers.
//   * A leader that stops without a shareable result (cancelled,
//     deadline, non-cacheable outcome) hands leadership to exactly
//     one waiting follower, which re-runs; with no waiters the
//     flight simply dissolves.
//   * Results are only ever shared whole: a truncated or failed run
//     is never published.

namespace corrob {
namespace server {

class RunCoalescer {
 public:
  enum class Role : uint8_t { kLeader, kFollower };

  /// How a follower's Wait ended.
  enum class WaitOutcome : uint8_t {
    /// The leader published; `response` is the shared response.
    kGotResult,
    /// The leader abandoned and this follower inherited leadership;
    /// the caller must run the request itself and then Publish or
    /// Abandon the same ticket.
    kPromoted,
    /// This follower's own stop signal fired; it is detached and the
    /// flight continues without it.
    kCancelled,
  };

  struct WaitResult {
    WaitOutcome outcome = WaitOutcome::kCancelled;
    SharedResponse response;
  };

  /// Monotonic counters for stats frames and tests.
  struct Stats {
    int64_t leaders = 0;      // flights started (incl. promotions)
    int64_t followers = 0;    // attaches that joined an existing flight
    int64_t shared = 0;       // follower waits resolved by a publish
    int64_t promotions = 0;   // followers that inherited leadership
    int64_t abandoned = 0;    // leader exits without a shareable result
  };

  /// Opaque handle tying a caller to its flight. Obtain from
  /// Attach(); pass back to Wait/Publish/Abandon.
  class Ticket {
   public:
    [[nodiscard]] Role role() const { return role_; }

   private:
    friend class RunCoalescer;
    struct Flight;
    Role role_ = Role::kLeader;
    std::shared_ptr<Flight> flight_;
  };

  RunCoalescer() = default;
  RunCoalescer(const RunCoalescer&) = delete;
  RunCoalescer& operator=(const RunCoalescer&) = delete;

  /// Joins (or starts) the flight for `key`. Leader tickets MUST be
  /// settled with exactly one Publish or Abandon; follower tickets
  /// MUST be settled with one Wait.
  [[nodiscard]] Ticket Attach(const std::string& key);

  /// Leader only: shares the complete encoded response with every
  /// waiting follower and retires the flight. Later Attach(key) calls
  /// start a fresh flight (the result cache, not the coalescer, is
  /// the layer that remembers).
  void Publish(const Ticket& ticket, const SharedResponse& response);

  /// Leader only: exits without a shareable result. One waiting
  /// follower (if any) is promoted to leader and the flight stays
  /// open for it; with no waiters the flight is retired.
  void Abandon(const Ticket& ticket);

  /// Follower only: blocks until the leader publishes, this follower
  /// is promoted, or `stop` fires. On kPromoted the ticket's role
  /// becomes kLeader and the settle obligation switches accordingly.
  [[nodiscard]] WaitResult Wait(Ticket* ticket, const StopSignal& stop);

  [[nodiscard]] Stats stats() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<Ticket::Flight>>
      flights_ CORROB_GUARDED_BY(mutex_);
  Stats stats_ CORROB_GUARDED_BY(mutex_);
};

}  // namespace server
}  // namespace corrob

#endif  // CORROB_SERVER_COALESCE_H_
