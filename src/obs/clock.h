#ifndef CORROB_OBS_CLOCK_H_
#define CORROB_OBS_CLOCK_H_

#include <atomic>
#include <cstdint>

// Injectable time source. Deterministic code (src/core, src/eval,
// src/synth, src/ml, and src/obs itself — see corrob-lint's
// nondeterminism rule) never reads the wall clock directly: anything
// that needs durations takes a `const Clock*` and callers decide
// whether that is the real monotonic clock (CLI, benches) or a
// ManualClock (tests, replay). Null clocks are the convention for
// "don't time anything".

namespace corrob {
namespace obs {

class Clock {
 public:
  virtual ~Clock() = default;

  /// Nanoseconds from an arbitrary fixed epoch; monotonically
  /// non-decreasing within one process.
  virtual int64_t NowNanos() const = 0;
};

/// The process monotonic clock (std::chrono::steady_clock).
class MonotonicClock final : public Clock {
 public:
  int64_t NowNanos() const override;

  /// Shared immutable instance.
  static const MonotonicClock* Get();
};

/// A hand-cranked clock for tests: time moves only when told to. The
/// test thread may crank it while threads under test read it.
class ManualClock final : public Clock {
 public:
  int64_t NowNanos() const override { return now_nanos_.load(); }

  void SetNanos(int64_t nanos) { now_nanos_.store(nanos); }
  void AdvanceNanos(int64_t nanos) { now_nanos_.fetch_add(nanos); }

 private:
  std::atomic<int64_t> now_nanos_{0};
};

}  // namespace obs
}  // namespace corrob

#endif  // CORROB_OBS_CLOCK_H_
