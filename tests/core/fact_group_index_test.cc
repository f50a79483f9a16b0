// The fact-group index shared across runs, and the per-round entropy
// table behind ΔH, each against the slow path it replaces:
//   - a run handed a prebuilt FactGroupIndex (as corrobd does) equals
//     a run that builds its own, bit for bit, and one index reused by
//     supervised, unsupervised and capped runs carries nothing from
//     one run into the next;
//   - the table-driven ΔH equals a reference ΔH that recomputes every
//     "before" entropy from the signature, after seeded commit rounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/math_util.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/inc_estimate.h"
#include "synth/restaurant_sim.h"
#include "testing/property.h"

namespace corrob {
namespace {

using proptest::BitEqual;
using proptest::ExpectBitIdentical;
using proptest::ExpectBitIdenticalBestSoFar;

const RestaurantCorpus& Restaurant() {
  static const RestaurantCorpus* corpus = new RestaurantCorpus(
      GenerateRestaurantCorpus(RestaurantSimOptions{}).ValueOrDie());
  return *corpus;
}

CorroborationResult RunWith(const Dataset& dataset,
                            const IncEstimateOptions& options,
                            const FactGroupIndex* index,
                            int64_t max_facts_per_round = 0) {
  ResourceBudget budget;
  budget.max_facts_per_round = max_facts_per_round;
  RunContext context;
  context.WithBudget(budget).WithFactGroups(index);
  return IncEstimateCorroborator(options).Run(dataset, context).ValueOrDie();
}

void ExpectSameRun(const CorroborationResult& a, const CorroborationResult& b) {
  ExpectBitIdenticalBestSoFar(a, b);
  EXPECT_EQ(a.termination, b.termination);
  ASSERT_NE(a.telemetry, nullptr);
  ASSERT_NE(b.telemetry, nullptr);
  ASSERT_EQ(a.telemetry->rounds.size(), b.telemetry->rounds.size());
  for (size_t r = 0; r < a.telemetry->rounds.size(); ++r) {
    const obs::IncRoundEvent& x = a.telemetry->rounds[r];
    const obs::IncRoundEvent& y = b.telemetry->rounds[r];
    EXPECT_EQ(x.positive_group, y.positive_group) << "round " << r;
    EXPECT_EQ(x.negative_group, y.negative_group) << "round " << r;
    EXPECT_TRUE(BitEqual(x.delta_h_positive, y.delta_h_positive))
        << "round " << r;
    EXPECT_TRUE(BitEqual(x.delta_h_negative, y.delta_h_negative))
        << "round " << r;
  }
}

// One index serves a supervised, then an unsupervised, then a capped
// run, in that order, and each equals a run that built its own index.
void ExpectSharedIndexRunsMatch(const Dataset& dataset,
                                IncSelectStrategy strategy, int threads,
                                std::vector<std::pair<FactId, bool>> labels) {
  IncEstimateOptions options;
  options.strategy = strategy;
  options.num_threads = threads;
  options.collect_telemetry = true;
  const FactGroupIndex shared(dataset);

  IncEstimateOptions supervised = options;
  supervised.known_labels = std::move(labels);
  {
    SCOPED_TRACE("supervised");
    ExpectSameRun(RunWith(dataset, supervised, &shared),
                  RunWith(dataset, supervised, nullptr));
  }
  {
    SCOPED_TRACE("unsupervised");
    ExpectSameRun(RunWith(dataset, options, &shared),
                  RunWith(dataset, options, nullptr));
  }
  {
    SCOPED_TRACE("capped");
    ExpectSameRun(RunWith(dataset, options, &shared, 7),
                  RunWith(dataset, options, nullptr, 7));
  }
}

TEST(SharedFactGroupIndexTest, RestaurantRunsMatchOwnIndexAtOneAndFourThreads) {
  const RestaurantCorpus& corpus = Restaurant();
  std::vector<std::pair<FactId, bool>> labels;
  for (size_t i = 0; i < 40; ++i) {
    labels.emplace_back(corpus.golden.fact(i), corpus.golden.label(i));
  }
  for (IncSelectStrategy strategy :
       {IncSelectStrategy::kHeuristic, IncSelectStrategy::kProbability}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "strategy=" << static_cast<int>(strategy)
                   << " threads=" << threads);
      ExpectSharedIndexRunsMatch(corpus.dataset, strategy, threads, labels);
    }
  }
}

TEST(SharedFactGroupIndexTest, RandomRunsMatchOwnIndexAtOneAndFourThreads) {
  proptest::ForEachSeed(0x1D3, 12, [](uint64_t seed) {
    const Dataset dataset = proptest::MakeRandomDataset(seed);
    // Label every third fact, alternating true and false.
    std::vector<std::pair<FactId, bool>> labels;
    for (FactId f = 0; f < dataset.num_facts(); f += 3) {
      labels.emplace_back(f, f % 2 == 0);
    }
    for (IncSelectStrategy strategy :
         {IncSelectStrategy::kHeuristic, IncSelectStrategy::kProbability}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << "strategy=" << static_cast<int>(strategy)
                     << " threads=" << threads);
        ExpectSharedIndexRunsMatch(dataset, strategy, threads, labels);
      }
    }
  });
}

TEST(SharedFactGroupIndexTest, IndexOfAnotherDatasetIsRejected) {
  const Dataset small = proptest::MakeRandomDataset(5);
  const FactGroupIndex other(Restaurant().dataset);
  RunContext context;
  context.WithFactGroups(&other);
  const Result<CorroborationResult> run =
      IncEstimateCorroborator().Run(small, context);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

// Mirrors the engine's per-source counters through the commit
// sequence, so the reference can project trust without the engine's
// private state.
struct ReferenceModel {
  const FactGroupIndex* index;
  IncEstimateOptions options;
  std::vector<double> correct;
  std::vector<double> total;

  static double Score(std::span<const SourceVote> signature,
                      const std::vector<double>& trust) {
    if (signature.empty()) return 0.5;
    double sum = 0.0;
    for (const SourceVote& sv : signature) {
      double t = trust[static_cast<size_t>(sv.source)];
      sum += sv.vote == Vote::kTrue ? t : 1.0 - t;
    }
    return sum / static_cast<double>(signature.size());
  }

  void Commit(int32_t g, int64_t take, const std::vector<double>& trust) {
    const bool decision = Score(index->signature(g), trust) >= 0.5;
    for (const SourceVote& sv : index->signature(g)) {
      const size_t s = static_cast<size_t>(sv.source);
      total[s] += static_cast<double>(take);
      if ((sv.vote == Vote::kTrue) == decision) {
        correct[s] += static_cast<double>(take);
      }
    }
  }

  // ΔH with every "before" entropy recomputed from the signature, in
  // the engine's summation order (signature sources ascending, each
  // source's groups ascending, first visit only).
  double DeltaH(const IncrementalEngine& engine, int32_t g) const {
    if (engine.remaining(g) == 0) return 0.0;
    const std::vector<double>& trust = engine.trust();
    const bool decision = Score(index->signature(g), trust) >= 0.5;
    const double committed = static_cast<double>(engine.remaining(g));
    const double w = options.trust_prior_weight;
    std::vector<double> projected = trust;
    for (const SourceVote& sv : index->signature(g)) {
      const size_t s = static_cast<size_t>(sv.source);
      const bool vote_correct = (sv.vote == Vote::kTrue) == decision;
      projected[s] =
          (correct[s] + (vote_correct ? committed : 0.0) +
           w * options.initial_trust) /
          (total[s] + committed + w);
    }
    std::set<int32_t> visited;
    double delta = 0.0;
    for (const SourceVote& sv : index->signature(g)) {
      for (int32_t other : index->groups_of_source(sv.source)) {
        if (other == g || !visited.insert(other).second) continue;
        if (engine.remaining(other) == 0) continue;
        const std::span<const SourceVote> signature = index->signature(other);
        delta += static_cast<double>(engine.remaining(other)) *
                 (BinaryEntropy(Score(signature, projected)) -
                  BinaryEntropy(Score(signature, trust)));
      }
    }
    return delta;
  }
};

void ExpectTableDeltaMatchesReference(const Dataset& dataset,
                                      const IncEstimateOptions& options,
                                      uint64_t seed) {
  const FactGroupIndex index(dataset);
  IncrementalEngine engine(dataset, &index, options);
  ReferenceModel reference{&index, options,
                           std::vector<double>(
                               static_cast<size_t>(dataset.num_sources())),
                           std::vector<double>(
                               static_cast<size_t>(dataset.num_sources()))};
  ThreadPool pool(4);
  Rng rng(seed);
  EntropyScratch scratch;
  GroupProjection projection;
  auto check_all = [&](const char* when, const GroupProjection& table) {
    for (int32_t g = 0; g < index.num_groups(); ++g) {
      const double expected = reference.DeltaH(engine, g);
      EXPECT_TRUE(BitEqual(engine.EntropyDelta(g, table, &scratch), expected))
          << when << " group " << g;
      EXPECT_TRUE(BitEqual(engine.EntropyDelta(g), expected))
          << when << " group " << g;
    }
  };
  while (engine.remaining_facts() > 0) {
    ASSERT_TRUE(
        engine.ProjectGroups(&pool, &projection, /*with_entropy=*/true));
    check_all("round start", projection);
    // Commit a seeded handful of partial groups; trust does not move
    // until EndRound, so the round's table stays valid in between.
    int64_t committed = 0;
    const int picks = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < picks && engine.remaining_facts() > 0; ++i) {
      int32_t g =
          static_cast<int32_t>(rng.UniformInt(0, index.num_groups() - 1));
      while (engine.remaining(g) == 0) g = (g + 1) % index.num_groups();
      const int64_t n = rng.UniformInt(
          1, static_cast<int64_t>(engine.remaining(g)));
      reference.Commit(g, n, engine.trust());
      committed += engine.CommitGroup(g, n);
    }
    check_all("mid round", projection);
    engine.EndRound(committed);
  }
}

TEST(EntropyTableTest, TableDeltaMatchesRecomputedReference) {
  proptest::ForEachSeed(0xE7A, 10, [](uint64_t seed) {
    const Dataset dataset = proptest::MakeRandomDataset(seed);
    IncEstimateOptions smoothed;
    IncEstimateOptions paper_exact;
    paper_exact.trust_prior_weight = 0.0;
    {
      SCOPED_TRACE("smoothed");
      ExpectTableDeltaMatchesReference(dataset, smoothed, seed);
    }
    {
      SCOPED_TRACE("paper_exact");
      ExpectTableDeltaMatchesReference(dataset, paper_exact, seed);
    }
  });
}

TEST(EntropyTableTest, ProjectionTableIsTheEntropyOfEachProbability) {
  const Dataset dataset = proptest::MakeRandomDataset(17);
  IncrementalEngine engine(dataset, IncEstimateOptions{});
  GroupProjection projection;
  ASSERT_TRUE(
      engine.ProjectGroups(nullptr, &projection, /*with_entropy=*/true));
  ASSERT_EQ(projection.probability.size(),
            static_cast<size_t>(engine.index().num_groups()));
  std::vector<double> entropy;
  for (int32_t g = 0; g < engine.index().num_groups(); ++g) {
    EXPECT_TRUE(BitEqual(projection.probability[static_cast<size_t>(g)],
                         engine.GroupProbability(g)));
    entropy.push_back(BinaryEntropy(engine.GroupProbability(g)));
  }
  ExpectBitIdentical(projection.entropy, entropy, "entropy");
}

}  // namespace
}  // namespace corrob
