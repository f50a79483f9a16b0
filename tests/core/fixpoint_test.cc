// The trust-fixpoint driver (core/fixpoint.h) shared by TwoEstimate,
// ThreeEstimate, TruthFinder, Cosine and Pasternack's AvgLog, Invest
// and PooledInvest, and its FixpointSweeps. A deadline on a clock that
// ticks once per read fires at an exact poll, so the stop lands
// sometimes on an iteration boundary and sometimes inside a sweep.
// Either way the run must hand back exactly the state of an
// uninterrupted run truncated at the last completed iteration.

#include "core/fixpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/budget.h"
#include "core/cosine.h"
#include "core/pasternack.h"
#include "core/run_context.h"
#include "core/three_estimate.h"
#include "core/truth_finder.h"
#include "core/two_estimate.h"
#include "obs/clock.h"
#include "testing/property.h"

namespace corrob {
namespace {

using proptest::BitEqual;
using proptest::ExpectBitIdenticalBestSoFar;
using proptest::ForEachSeed;
using proptest::MakeRandomDataset;

/// A clock that advances one nanosecond on every read, so a deadline
/// `n` nanoseconds out expires at exactly the n-th poll after it was
/// set.
class TickingClock final : public obs::Clock {
 public:
  int64_t NowNanos() const override { return now_nanos_.fetch_add(1); }

 private:
  mutable std::atomic<int64_t> now_nanos_{0};
};

struct DriverMethod {
  std::string name;
  /// Stop-signal polls per iteration on the sequential path over a
  /// dataset of at most 8192 facts: one per sweep.
  int sweeps;
  std::function<std::unique_ptr<Corroborator>(int max_iterations,
                                              int num_threads)>
      make;
  /// Pasternack has no thread option; it always runs sequentially.
  std::vector<int> thread_counts = {1, 4};
};

template <typename Method, typename Options>
std::unique_ptr<Corroborator> Make(int max_iterations, int num_threads) {
  Options options;
  options.max_iterations = max_iterations;
  options.num_threads = num_threads;
  return std::make_unique<Method>(options);
}

template <PasternackVariant variant>
std::unique_ptr<Corroborator> MakePasternack(int max_iterations,
                                             int /*num_threads*/) {
  PasternackOptions options;
  options.variant = variant;
  options.max_iterations = max_iterations;
  return std::make_unique<PasternackCorroborator>(options);
}

std::vector<DriverMethod> DriverMethods() {
  return {
      {"TwoEstimate", 2, Make<TwoEstimateCorroborator, TwoEstimateOptions>},
      {"ThreeEstimate", 3,
       Make<ThreeEstimateCorroborator, ThreeEstimateOptions>},
      {"TruthFinder", 2, Make<TruthFinderCorroborator, TruthFinderOptions>},
      {"Cosine", 2, Make<CosineCorroborator, CosineOptions>},
      {"AvgLog", 2, MakePasternack<PasternackVariant::kAvgLog>, {1}},
      {"Invest", 2, MakePasternack<PasternackVariant::kInvest>, {1}},
      {"PooledInvest", 2, MakePasternack<PasternackVariant::kPooledInvest>,
       {1}},
  };
}

TEST(FixpointTest, DeadlineAtEveryPollMatchesTruncatedRun) {
  constexpr int kMaxIterations = 10;
  for (const DriverMethod& method : DriverMethods()) {
    for (int threads : method.thread_counts) {
      SCOPED_TRACE(method.name + " threads=" + std::to_string(threads));
      const auto full = method.make(kMaxIterations, threads);
      ForEachSeed(0xF1C5ED, 2, [&](uint64_t seed) {
        const Dataset dataset = MakeRandomDataset(seed);
        // What a run cut short after k completed iterations must
        // return: the uninterrupted run truncated at k (for k = 0, a
        // run cancelled before its first iteration).
        std::map<int, CorroborationResult> truncated;
        auto reference = [&](int k) -> const CorroborationResult& {
          auto it = truncated.find(k);
          if (it != truncated.end()) return it->second;
          CancellationToken cancelled;
          cancelled.Cancel();
          CorroborationResult result =
              k == 0 ? full->Run(dataset, RunContext().WithCancellation(
                                              &cancelled))
                           .ValueOrDie()
                     : method.make(k, threads)->Run(dataset).ValueOrDie();
          return truncated.emplace(k, std::move(result)).first->second;
        };

        int mid_sweep = 0;
        for (int64_t n = 1;; ++n) {
          SCOPED_TRACE("deadline at poll " + std::to_string(n));
          TickingClock clock;
          RunContext context;
          context.WithDeadline(Deadline::After(&clock, n));
          const CorroborationResult stopped =
              full->Run(dataset, context).ValueOrDie();
          if (stopped.termination != Termination::kDeadlineExceeded) {
            // The run finished before its n-th poll.
            EXPECT_GT(n, 1);
            break;
          }
          ExpectBitIdenticalBestSoFar(stopped, reference(stopped.iterations));
          if (threads == 1) {
            // Each iteration polls once at its boundary, then once per
            // sweep; a stop at any of those leaves the iterations
            // before it.
            const int64_t polls_per_iteration = 1 + method.sweeps;
            EXPECT_EQ(stopped.iterations, (n - 1) / polls_per_iteration);
            if ((n - 1) % polls_per_iteration != 0) ++mid_sweep;
          }
          ASSERT_LT(n, 100000) << "run never finished";
        }
        if (threads == 1) {
          EXPECT_GT(mid_sweep, 0);
        }
      });
    }
  }
}

TEST(FixpointSweepsTest, CoversEveryIdOnceSequentially) {
  const Dataset dataset = MakeRandomDataset(123);
  const FixpointSweeps sweeps(dataset, nullptr, nullptr);
  std::vector<int> fact_hits(static_cast<size_t>(dataset.num_facts()), 0);
  EXPECT_TRUE(sweeps.Facts([&](FactId f) {
    ++fact_hits[static_cast<size_t>(f)];
  }));
  for (int h : fact_hits) EXPECT_EQ(h, 1);

  std::vector<int> source_hits(static_cast<size_t>(dataset.num_sources()), 0);
  EXPECT_TRUE(sweeps.Sources([&](SourceId s) {
    ++source_hits[static_cast<size_t>(s)];
  }));
  for (int h : source_hits) EXPECT_EQ(h, 1);
}

TEST(FixpointSweepsTest, WithPoolCoversEveryIdOnce) {
  const Dataset dataset = MakeRandomDataset(321);
  auto pool = MakeSweepPool(4);
  ASSERT_NE(pool, nullptr);
  const FixpointSweeps sweeps(dataset, pool.get(), nullptr);
  std::vector<std::atomic<int>> hits(
      static_cast<size_t>(dataset.num_facts()));
  for (auto& h : hits) h.store(0);
  EXPECT_TRUE(sweeps.Facts([&](FactId f) {
    hits[static_cast<size_t>(f)].fetch_add(1);
  }));
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

// Both of the driver's trust buffers start at the initial trust and a
// source without votes is never written, so it keeps exactly its
// initial trust.
TEST(FixpointTest, SourceWithoutVotesKeepsInitialTrustExactly) {
  DatasetBuilder builder;
  const SourceId a = builder.AddSource("a");
  const SourceId b = builder.AddSource("b");
  const SourceId idle = builder.AddSource("idle");
  const FactId f0 = builder.AddFact("f0");
  const FactId f1 = builder.AddFact("f1");
  ASSERT_TRUE(builder.SetVote(a, f0, Vote::kTrue).ok());
  ASSERT_TRUE(builder.SetVote(b, f0, Vote::kFalse).ok());
  ASSERT_TRUE(builder.SetVote(b, f1, Vote::kTrue).ok());
  const Dataset dataset = builder.Build();
  constexpr double kInitialTrust = 0.37;

  TwoEstimateOptions two_options;
  two_options.initial_trust = kInitialTrust;
  ThreeEstimateOptions three_options;
  three_options.initial_trust = kInitialTrust;
  const TwoEstimateCorroborator two(two_options);
  const ThreeEstimateCorroborator three(three_options);
  const Corroborator* const methods[] = {&two, &three};
  for (const Corroborator* method : methods) {
    SCOPED_TRACE(std::string(method->name()));
    const CorroborationResult result = method->Run(dataset).ValueOrDie();
    EXPECT_GT(result.iterations, 1);
    EXPECT_TRUE(BitEqual(result.source_trust[static_cast<size_t>(idle)],
                         kInitialTrust));
  }
}

}  // namespace
}  // namespace corrob
