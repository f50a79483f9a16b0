#ifndef CORROB_COMMON_BUDGET_H_
#define CORROB_COMMON_BUDGET_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>

#include "common/status.h"
#include "obs/clock.h"

// Execution-budget primitives: cooperative cancellation, wall-clock
// deadlines over an injected obs::Clock, and declarative resource
// budgets. These are the building blocks of core/run_context.h, which
// bundles them into the RunContext threaded through every
// Corroborator::Run. Everything here is polling-based — no thread is
// ever interrupted preemptively — so a run that honors its budget is
// interrupted only at well-defined sequential boundaries and can hand
// back a consistent best-so-far answer.
//
// Lock discipline: this header deliberately owns no mutexes — every
// type is built from atomics (Cancel() must be async-signal-safe, so
// it can never take a lock), which is why nothing here carries
// common/thread_annotations.h capability annotations. Keep it that
// way: code that wants a lock around budget state belongs above this
// layer.

namespace corrob {

/// Thread-safe cooperative cancellation flag.
///
/// A token starts live and latches cancelled forever once Cancel() is
/// called (from any thread, including a signal handler: Cancel is a
/// single atomic store). Tokens form an optional hierarchy: a child
/// constructed with a parent reports cancelled when either itself or
/// any ancestor is cancelled, so a process-wide shutdown token fans
/// out to every in-flight run without the runs sharing mutable state.
class CancellationToken {
 public:
  CancellationToken() = default;
  /// A child token: cancelled when `parent` (or any of its ancestors)
  /// is cancelled, or when Cancel() is called on this token directly.
  /// `parent` must outlive this token; may be null (no parent).
  explicit CancellationToken(const CancellationToken* parent)
      : parent_(parent) {}

  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Latches the token cancelled. Idempotent and async-signal-safe.
  /// `now_nanos`, when positive, records when the cancel was requested
  /// (used to measure cancellation latency); the first caller wins.
  void Cancel(int64_t now_nanos = 0);

  /// True once this token or any ancestor has been cancelled.
  bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    return parent_ != nullptr && parent_->cancelled();
  }

  /// Timestamp passed to the first effective Cancel(), or 0 when none
  /// was provided. Walks to the nearest cancelled ancestor if this
  /// token itself was not cancelled directly.
  int64_t cancelled_at_nanos() const;

  /// Interruptible sleep: waits up to `milliseconds`, polling the
  /// token, and returns true if the wait was cut short by
  /// cancellation (false after a full, uninterrupted sleep).
  bool WaitForMs(double milliseconds) const;

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<int64_t> cancelled_at_nanos_{0};
  const CancellationToken* parent_ = nullptr;
};

/// A wall-clock budget over an injected clock. Default-constructed
/// deadlines are infinite and never expire; bounded deadlines hold a
/// `const obs::Clock*` (must outlive the deadline) plus an absolute
/// expiry instant on that clock, so tests drive expiry with a
/// ManualClock and never sleep.
class Deadline {
 public:
  /// Infinite: never expires.
  Deadline() = default;

  /// Expires `budget_nanos` after `clock`'s current instant.
  static Deadline After(const obs::Clock* clock, int64_t budget_nanos);
  /// Convenience for CLI flags expressed in milliseconds.
  static Deadline AfterMs(const obs::Clock* clock, double milliseconds);

  bool infinite() const { return clock_ == nullptr; }
  bool expired() const {
    return clock_ != nullptr && clock_->NowNanos() >= deadline_nanos_;
  }
  /// Nanoseconds of budget left (>= 0); int64 max when infinite.
  int64_t remaining_nanos() const;

 private:
  const obs::Clock* clock_ = nullptr;
  int64_t deadline_nanos_ = 0;
};

/// Declarative resource caps. 0 means unlimited. These are budgets,
/// not interrupts: a run that exhausts one stops at the next
/// sequential boundary with Termination::kBudgetExhausted and a
/// consistent partial answer.
struct ResourceBudget {
  /// Maximum fixpoint iterations / Gibbs sweeps / IncEstimate rounds.
  int64_t max_rounds = 0;
  /// Maximum bytes of the Dataset's CSR + CSC arrays a fixpoint run
  /// sweeps (Dataset::ResidentBytes); checked once before the
  /// first iteration.
  int64_t max_vote_matrix_bytes = 0;
  /// Maximum facts an IncEstimate round may commit before the round
  /// is forced to end (bounds per-round latency and commit bursts).
  int64_t max_facts_per_round = 0;

  bool unlimited() const {
    return max_rounds == 0 && max_vote_matrix_bytes == 0 &&
           max_facts_per_round == 0;
  }
};

/// InvalidArgument describing the first negative field, OK otherwise.
[[nodiscard]] Status ValidateResourceBudget(const ResourceBudget& budget);

/// Cheap pollable view of "should this work stop?": cancellation plus
/// deadline, combined so hot loops (ParallelApply chunk boundaries,
/// CSV row batches) pay one pointer test when disarmed.
class StopSignal {
 public:
  StopSignal() = default;
  StopSignal(const CancellationToken* cancel, Deadline deadline)
      : cancel_(cancel), deadline_(deadline) {}

  bool armed() const { return cancel_ != nullptr || !deadline_.infinite(); }
  bool cancelled() const { return cancel_ != nullptr && cancel_->cancelled(); }
  bool deadline_expired() const { return deadline_.expired(); }
  bool ShouldStop() const { return cancelled() || deadline_expired(); }

  const CancellationToken* cancellation() const { return cancel_; }
  const Deadline& deadline() const { return deadline_; }

 private:
  const CancellationToken* cancel_ = nullptr;
  Deadline deadline_;
};

/// The process-wide shutdown token that InstallShutdownSignalHandlers
/// cancels on SIGINT/SIGTERM. Long-lived loops that should honor
/// Ctrl-C parent their run token on this one.
CancellationToken& ProcessShutdownToken();

/// RAII ownership of SIGINT/SIGTERM disposition. While a scope is
/// alive, the first shutdown signal cancels the scope's target token
/// (graceful stop) and a second one hard-exits with the configured
/// code (130 by default, the shell convention for SIGINT death).
/// Destruction restores the dispositions that were in effect when the
/// scope was constructed, so tests and embedders can install, observe
/// and fully undo signal handling without leaking global state.
///
/// Scopes nest: the innermost live scope receives signals; destroying
/// it re-activates the enclosing one. Scopes must be destroyed in
/// reverse construction order (stack discipline) and construction/
/// destruction must not race a concurrently delivered signal.
class ScopedShutdownHandlers {
 public:
  struct Options {
    /// The token the first signal cancels. Null targets the shared
    /// ProcessShutdownToken(). The token must outlive the scope.
    CancellationToken* token = nullptr;
    /// _exit code of the second signal (must be non-zero; a run that
    /// cannot poll its token is killed without cleanup).
    int second_signal_exit_code = 130;
  };

  ScopedShutdownHandlers() : ScopedShutdownHandlers(Options{}) {}
  explicit ScopedShutdownHandlers(Options options);
  ~ScopedShutdownHandlers();

  ScopedShutdownHandlers(const ScopedShutdownHandlers&) = delete;
  ScopedShutdownHandlers& operator=(const ScopedShutdownHandlers&) = delete;

  /// Shutdown signals received while this scope was the active one.
  int signal_count() const;

  /// The token this scope cancels on the first signal.
  CancellationToken& token() const;

  /// Implementation detail, public only so the signal handler (a
  /// namespace-scope extern "C" function) can name it.
  struct State;

 private:
  std::unique_ptr<State> state_;
};

/// Routes SIGINT and SIGTERM to ProcessShutdownToken().Cancel(): the
/// first signal requests graceful shutdown, a second one hard-exits
/// with status 130 (the shell convention for "killed by SIGINT") for
/// runs that are too wedged to poll. Idempotent; call once from
/// main(). Implemented as a process-lifetime ScopedShutdownHandlers —
/// binaries that need to *undo* installation (daemons draining, test
/// fixtures) construct a scope instead.
void InstallShutdownSignalHandlers();

/// Number of shutdown signals received by the active handler scope
/// (for tests and status reporting); 0 when none is installed.
int ShutdownSignalCount();

}  // namespace corrob

#endif  // CORROB_COMMON_BUDGET_H_
