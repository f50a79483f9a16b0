#include "synth/synthetic.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "data/dataset_stats.h"

namespace corrob {
namespace {

SyntheticOptions SmallOptions() {
  SyntheticOptions options;
  options.num_sources = 8;
  options.num_inaccurate = 2;
  options.num_facts = 2000;
  options.eta = 0.03;
  options.seed = 11;
  return options;
}

TEST(SyntheticTest, ShapeMatchesOptions) {
  SyntheticDataset data = GenerateSynthetic(SmallOptions()).ValueOrDie();
  EXPECT_EQ(data.dataset.num_sources(), 8);
  EXPECT_EQ(data.dataset.num_facts(), 2000);
  EXPECT_EQ(data.truth.num_facts(), 2000);
  EXPECT_EQ(data.profiles.size(), 8u);
}

TEST(SyntheticTest, DeterministicForFixedSeed) {
  SyntheticDataset a = GenerateSynthetic(SmallOptions()).ValueOrDie();
  SyntheticDataset b = GenerateSynthetic(SmallOptions()).ValueOrDie();
  EXPECT_EQ(a.truth.labels(), b.truth.labels());
  EXPECT_EQ(a.dataset.num_votes(), b.dataset.num_votes());
  for (FactId f = 0; f < 100; ++f) {
    EXPECT_TRUE(std::ranges::equal(a.dataset.VotesOnFact(f),
                                   b.dataset.VotesOnFact(f)))
        << "fact " << f;
  }
}

TEST(SyntheticTest, DifferentSeedsDiffer) {
  SyntheticOptions other = SmallOptions();
  other.seed = 12;
  SyntheticDataset a = GenerateSynthetic(SmallOptions()).ValueOrDie();
  SyntheticDataset b = GenerateSynthetic(other).ValueOrDie();
  EXPECT_NE(a.dataset.num_votes(), b.dataset.num_votes());
}

TEST(SyntheticTest, ProfilesRespectPaperRanges) {
  SyntheticDataset data = GenerateSynthetic(SmallOptions()).ValueOrDie();
  for (size_t s = 0; s < data.profiles.size(); ++s) {
    const SyntheticSourceProfile& p = data.profiles[s];
    EXPECT_EQ(p.accurate, s >= 2u);
    if (p.accurate) {
      EXPECT_GE(p.trust, 0.7);
      EXPECT_LE(p.trust, 1.0);
      EXPECT_GE(p.f_vote_prob, 0.0);
      EXPECT_LE(p.f_vote_prob, 0.5);
    } else {
      EXPECT_GE(p.trust, 0.5);
      EXPECT_LE(p.trust, 0.7);
      EXPECT_DOUBLE_EQ(p.f_vote_prob, 0.0);
    }
    // Coverage = 1 - trust + 0.2·U[0,1].
    EXPECT_GE(p.coverage, 1.0 - p.trust - 1e-12);
    EXPECT_LE(p.coverage, 1.0 - p.trust + 0.2 + 1e-12);
  }
}

TEST(SyntheticTest, InaccurateSourcesNeverCastFalseVotes) {
  SyntheticDataset data = GenerateSynthetic(SmallOptions()).ValueOrDie();
  std::vector<int64_t> f_votes = CountFalseVotesBySource(data.dataset);
  EXPECT_EQ(f_votes[0], 0);
  EXPECT_EQ(f_votes[1], 0);
}

TEST(SyntheticTest, FalseVotesOnlyOnFalseFacts) {
  SyntheticDataset data = GenerateSynthetic(SmallOptions()).ValueOrDie();
  for (FactId f = 0; f < data.dataset.num_facts(); ++f) {
    if (data.dataset.CountVotes(f, Vote::kFalse) > 0) {
      EXPECT_FALSE(data.truth.IsTrue(f)) << "fact " << f;
    }
  }
}

TEST(SyntheticTest, EveryFactIsVisible) {
  SyntheticDataset data = GenerateSynthetic(SmallOptions()).ValueOrDie();
  for (FactId f = 0; f < data.dataset.num_facts(); ++f) {
    EXPECT_FALSE(data.dataset.VotesOnFact(f).empty()) << "fact " << f;
  }
}

TEST(SyntheticTest, EtaControlsFalseVoteFactFraction) {
  SyntheticOptions low = SmallOptions();
  low.eta = 0.01;
  SyntheticOptions high = SmallOptions();
  high.eta = 0.05;
  double frac_low =
      static_cast<double>(CountFactsWithFalseVotes(
          GenerateSynthetic(low).ValueOrDie().dataset)) /
      low.num_facts;
  double frac_high =
      static_cast<double>(CountFactsWithFalseVotes(
          GenerateSynthetic(high).ValueOrDie().dataset)) /
      high.num_facts;
  EXPECT_LT(frac_low, frac_high);
  // The realized fraction tracks η up to visibility conditioning.
  EXPECT_NEAR(frac_low, 0.01, 0.01);
  EXPECT_NEAR(frac_high, 0.05, 0.03);
}

TEST(SyntheticTest, MostFactsAreAffirmativeOnly) {
  // The paper's regime: |F*| >> |F - F*|.
  SyntheticDataset data = GenerateSynthetic(SmallOptions()).ValueOrDie();
  EXPECT_GT(AffirmativeOnlyFraction(data.dataset), 0.9);
}

TEST(SyntheticTest, SourcePrecisionTracksGeneratedTrust) {
  // §3.1 defines the trust score as the source's precision; the
  // generator's error model is built to realize that (visibility
  // conditioning shifts precision upward a little).
  SyntheticOptions options = SmallOptions();
  options.num_facts = 10000;
  SyntheticDataset data = GenerateSynthetic(options).ValueOrDie();
  GoldenSet golden = GoldenSet::FromFullTruth(data.truth);
  std::vector<double> accuracy = SourceAccuracyOnGolden(data.dataset, golden);
  for (size_t s = 0; s < data.profiles.size(); ++s) {
    EXPECT_NEAR(accuracy[s], data.profiles[s].trust, 0.15)
        << "source " << s << " generated trust " << data.profiles[s].trust;
  }
}

TEST(SyntheticTest, NoAccurateSourcesMeansNoFalseVotes) {
  SyntheticOptions options = SmallOptions();
  options.num_inaccurate = options.num_sources;
  SyntheticDataset data = GenerateSynthetic(options).ValueOrDie();
  EXPECT_EQ(CountFactsWithFalseVotes(data.dataset), 0);
}

TEST(SyntheticTest, OptionValidation) {
  SyntheticOptions bad = SmallOptions();
  bad.num_sources = 0;
  EXPECT_FALSE(GenerateSynthetic(bad).ok());

  bad = SmallOptions();
  bad.num_inaccurate = 99;
  EXPECT_FALSE(GenerateSynthetic(bad).ok());

  bad = SmallOptions();
  bad.num_facts = 0;
  EXPECT_FALSE(GenerateSynthetic(bad).ok());

  bad = SmallOptions();
  bad.eta = 0.8;  // > 1 - true_fraction
  EXPECT_FALSE(GenerateSynthetic(bad).ok());

  bad = SmallOptions();
  bad.true_fraction = 1.5;
  EXPECT_FALSE(GenerateSynthetic(bad).ok());
}

}  // namespace
}  // namespace corrob
