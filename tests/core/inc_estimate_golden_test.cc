// Golden answers for IncEstHeu and IncEstPS. The parity suites compare
// one build's code paths against each other, so a change that moves
// every path the same way (a stale fact-group index, a ΔH that reads
// the wrong round's entropies) would pass them; these values pin what
// each run returns.
//
// Each case pins `iterations` and a 64-bit FNV-1a digest of the bit
// patterns of `fact_probability`, `source_trust`, `fact_commit_round`
// and, per telemetry round, the selected group ids and `delta_h_*`.
// The restaurant corpus has 36,916 facts, so digests keep the table
// small; a failure names the field that moved and prints the row to
// paste. ΔH calls log2, so a libm whose last bit differs may move a
// pick; on one host the values are exact.

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/inc_estimate.h"
#include "synth/restaurant_sim.h"
#include "testing/property.h"

namespace corrob {
namespace {

using proptest::MakeRandomDataset;
using proptest::RandomDatasetOptions;

class Digest {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((word >> (8 * i)) & 0xFF)) * 0x100000001B3ULL;
    }
  }
  void Add(double value) { Add(std::bit_cast<uint64_t>(value)); }
  void Add(int64_t value) { Add(static_cast<uint64_t>(value)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
};

const RestaurantCorpus& Restaurant() {
  static const RestaurantCorpus* corpus = new RestaurantCorpus(
      GenerateRestaurantCorpus(RestaurantSimOptions{}).ValueOrDie());
  return *corpus;
}

/// Three random shapes: a moderate one, a dense one heavy in F votes,
/// and a sparse one with voteless facts.
Dataset Shape(int shape) {
  RandomDatasetOptions options;
  uint64_t seed = 0;
  switch (shape) {
    case 0:
      seed = 101;
      options.min_sources = 6;
      options.max_sources = 8;
      options.min_facts = 80;
      options.max_facts = 100;
      break;
    case 1:
      seed = 202;
      options.min_sources = 4;
      options.max_sources = 5;
      options.min_facts = 60;
      options.max_facts = 70;
      options.vote_density = 0.7;
      options.false_vote_fraction = 0.4;
      break;
    default:
      seed = 303;
      options.min_sources = 8;
      options.max_sources = 10;
      options.min_facts = 100;
      options.max_facts = 120;
      options.vote_density = 0.1;
      break;
  }
  return MakeRandomDataset(seed, options);
}

struct Case {
  const char* name;
  IncSelectStrategy strategy;
  /// -1 = the restaurant corpus, else a Shape() index.
  int shape;
  /// Known labels taken from the head of the restaurant golden set.
  size_t known_labels;
  int64_t max_facts_per_round;
};

struct Golden {
  const char* name;
  int iterations;
  uint64_t fact_probability;
  uint64_t source_trust;
  uint64_t fact_commit_round;
  uint64_t rounds;
};

constexpr IncSelectStrategy kHeu = IncSelectStrategy::kHeuristic;
constexpr IncSelectStrategy kPS = IncSelectStrategy::kProbability;

const std::vector<Case>& Cases() {
  static const std::vector<Case> cases = {
      {"restaurant/IncEstHeu", kHeu, -1, 0, 0},
      {"restaurant/IncEstPS", kPS, -1, 0, 0},
      {"shape0/IncEstHeu", kHeu, 0, 0, 0},
      {"shape0/IncEstPS", kPS, 0, 0, 0},
      {"shape1/IncEstHeu", kHeu, 1, 0, 0},
      {"shape1/IncEstPS", kPS, 1, 0, 0},
      {"shape2/IncEstHeu", kHeu, 2, 0, 0},
      {"shape2/IncEstPS", kPS, 2, 0, 0},
      {"restaurant/IncEstHeu/supervised", kHeu, -1, 60, 0},
      {"restaurant/IncEstHeu/capped50", kHeu, -1, 0, 50},
  };
  return cases;
}

// clang-format off
const std::vector<Golden>& Goldens() {
  static const std::vector<Golden> goldens = {
    {"restaurant/IncEstHeu", 99,
     0xb23409747b4fa98eULL, 0xce387233025cb8abULL,
     0x012677da70925c01ULL, 0x8d2d471b683f85a7ULL},
    {"restaurant/IncEstPS", 101,
     0xc3db7f0a8bdf28a2ULL, 0xbef2a5cf276f3e5eULL,
     0x5524dbd56010b928ULL, 0x44a022510f41b0b9ULL},
    {"shape0/IncEstHeu", 47,
     0x7cd253eca25cecbeULL, 0x54214dd7defcd8e4ULL,
     0xe312cf941ff6ea08ULL, 0x0b7ba45db004af64ULL},
    {"shape0/IncEstPS", 55,
     0x846f99d545791ac8ULL, 0x4a462a0d11098568ULL,
     0xe4232a9402c3ad88ULL, 0x79dd6620843b54caULL},
    {"shape1/IncEstHeu", 34,
     0x7b487eb9808a1cf0ULL, 0x6325a1213dc32b15ULL,
     0xb87f8e66662a5cc6ULL, 0x212629a9a3439723ULL},
    {"shape1/IncEstPS", 43,
     0x53ed9fc6c0a18419ULL, 0xb312296ab0801f3cULL,
     0x997a26310958ea9eULL, 0xcf614dad882b10f6ULL},
    {"shape2/IncEstHeu", 32,
     0x02f2f64545ed223dULL, 0x92d60a249907c92bULL,
     0xe4cf4059e77572feULL, 0xf0d32ce7ab0da595ULL},
    {"shape2/IncEstPS", 34,
     0x71fe9c4437169040ULL, 0x29e646b9655644c8ULL,
     0x1f97817552ad90aeULL, 0xc4c55458a0c0d714ULL},
    {"restaurant/IncEstHeu/supervised", 99,
     0xbcca0055ffe2b2d8ULL, 0x86d73ec39ce77492ULL,
     0x0f0b97da20091e53ULL, 0xbfda3e5bfcd61c16ULL},
    {"restaurant/IncEstHeu/capped50", 795,
     0x05b25ff7677f9cf6ULL, 0xce387233025cb8abULL,
     0xc721927b25751789ULL, 0x3316d5f694dc93d0ULL},
  };
  return goldens;
}
// clang-format on

Golden RunCase(const Case& c) {
  IncEstimateOptions options;
  options.strategy = c.strategy;
  options.collect_telemetry = true;
  const Dataset shape_data = c.shape >= 0 ? Shape(c.shape) : Dataset();
  const Dataset& dataset = c.shape >= 0 ? shape_data : Restaurant().dataset;
  const GoldenSet& golden = Restaurant().golden;
  for (size_t i = 0; i < c.known_labels; ++i) {
    options.known_labels.emplace_back(golden.fact(i), golden.label(i));
  }
  ResourceBudget budget;
  budget.max_facts_per_round = c.max_facts_per_round;
  RunContext context;
  context.WithBudget(budget);
  const CorroborationResult result =
      IncEstimateCorroborator(options).Run(dataset, context).ValueOrDie();

  Golden out{c.name, result.iterations, 0, 0, 0, 0};
  Digest probability;
  for (double p : result.fact_probability) probability.Add(p);
  Digest trust;
  for (double t : result.source_trust) trust.Add(t);
  Digest commit_round;
  for (int32_t r : result.fact_commit_round) {
    commit_round.Add(static_cast<int64_t>(r));
  }
  Digest rounds;
  EXPECT_NE(result.telemetry, nullptr);
  if (result.telemetry != nullptr) {
    for (const obs::IncRoundEvent& event : result.telemetry->rounds) {
      rounds.Add(static_cast<int64_t>(event.positive_group));
      rounds.Add(static_cast<int64_t>(event.negative_group));
      rounds.Add(event.delta_h_positive);
      rounds.Add(event.delta_h_negative);
    }
  }
  out.fact_probability = probability.value();
  out.source_trust = trust.value();
  out.fact_commit_round = commit_round.value();
  out.rounds = rounds.value();
  return out;
}

std::string Row(const Golden& g) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"%s\", %d, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL},",
                g.name, g.iterations, g.fact_probability, g.source_trust,
                g.fact_commit_round, g.rounds);
  return buffer;
}

TEST(IncEstimateGoldenTest, ShapesCoverVotelessFacts) {
  const Dataset sparse = Shape(2);
  bool voteless = false;
  for (FactId f = 0; f < sparse.num_facts(); ++f) {
    voteless = voteless || sparse.VotesOnFact(f).empty();
  }
  EXPECT_TRUE(voteless);
}

TEST(IncEstimateGoldenTest, AnswersMatchGoldenBitForBit) {
  EXPECT_EQ(Goldens().size(), Cases().size());
  for (size_t i = 0; i < Cases().size(); ++i) {
    const Golden expected = i < Goldens().size() ? Goldens()[i] : Golden{};
    const Golden actual = RunCase(Cases()[i]);
    SCOPED_TRACE(Row(actual));
    EXPECT_STREQ(expected.name != nullptr ? expected.name : "", actual.name);
    EXPECT_EQ(expected.iterations, actual.iterations);
    EXPECT_EQ(expected.fact_probability, actual.fact_probability);
    EXPECT_EQ(expected.source_trust, actual.source_trust);
    EXPECT_EQ(expected.fact_commit_round, actual.fact_commit_round);
    EXPECT_EQ(expected.rounds, actual.rounds);
  }
}

}  // namespace
}  // namespace corrob
