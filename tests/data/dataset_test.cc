#include "data/dataset.h"

#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "testing/property.h"

namespace corrob {
namespace {

Dataset MakeSmall() {
  DatasetBuilder builder;
  SourceId s0 = builder.AddSource("s0");
  SourceId s1 = builder.AddSource("s1");
  FactId f0 = builder.AddFact("f0");
  FactId f1 = builder.AddFact("f1");
  FactId f2 = builder.AddFact("f2");
  EXPECT_TRUE(builder.SetVote(s0, f0, Vote::kTrue).ok());
  EXPECT_TRUE(builder.SetVote(s1, f0, Vote::kFalse).ok());
  EXPECT_TRUE(builder.SetVote(s1, f1, Vote::kTrue).ok());
  (void)f2;  // f2 gets no votes.
  return builder.Build();
}

TEST(DatasetBuilderTest, AddIsIdempotentByName) {
  DatasetBuilder builder;
  EXPECT_EQ(builder.AddSource("a"), builder.AddSource("a"));
  EXPECT_EQ(builder.AddFact("f"), builder.AddFact("f"));
  EXPECT_EQ(builder.num_sources(), 1);
  EXPECT_EQ(builder.num_facts(), 1);
}

TEST(DatasetBuilderTest, OutOfRangeIdsRejected) {
  DatasetBuilder builder;
  builder.AddSource("a");
  builder.AddFact("f");
  EXPECT_EQ(builder.SetVote(5, 0, Vote::kTrue).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(builder.SetVote(0, 5, Vote::kTrue).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(builder.SetVote(-1, 0, Vote::kTrue).code(),
            StatusCode::kOutOfRange);
}

TEST(DatasetBuilderTest, LastWriterWins) {
  DatasetBuilder builder;
  SourceId s = builder.AddSource("s");
  FactId f = builder.AddFact("f");
  ASSERT_TRUE(builder.SetVote(s, f, Vote::kTrue).ok());
  ASSERT_TRUE(builder.SetVote(s, f, Vote::kFalse).ok());
  Dataset d = builder.Build();
  EXPECT_EQ(d.GetVote(s, f), Vote::kFalse);
  EXPECT_EQ(d.num_votes(), 1);
}

TEST(DatasetBuilderTest, NoneVoteErases) {
  DatasetBuilder builder;
  SourceId s = builder.AddSource("s");
  FactId f = builder.AddFact("f");
  ASSERT_TRUE(builder.SetVote(s, f, Vote::kTrue).ok());
  ASSERT_TRUE(builder.SetVote(s, f, Vote::kNone).ok());
  Dataset d = builder.Build();
  EXPECT_EQ(d.GetVote(s, f), Vote::kNone);
  EXPECT_EQ(d.num_votes(), 0);
}

TEST(DatasetBuilderTest, GetVoteReadsBack) {
  DatasetBuilder builder;
  SourceId s = builder.AddSource("s");
  FactId f = builder.AddFact("f");
  EXPECT_EQ(builder.GetVote(s, f), Vote::kNone);
  ASSERT_TRUE(builder.SetVote(s, f, Vote::kFalse).ok());
  EXPECT_EQ(builder.GetVote(s, f), Vote::kFalse);
}

TEST(DatasetTest, ViewsAreConsistent) {
  Dataset d = MakeSmall();
  EXPECT_EQ(d.num_sources(), 2);
  EXPECT_EQ(d.num_facts(), 3);
  EXPECT_EQ(d.num_votes(), 3);

  auto f0_votes = d.VotesOnFact(0);
  ASSERT_EQ(f0_votes.size(), 2u);
  EXPECT_EQ(f0_votes[0].source, 0);
  EXPECT_EQ(f0_votes[0].vote, Vote::kTrue);
  EXPECT_EQ(f0_votes[1].source, 1);
  EXPECT_EQ(f0_votes[1].vote, Vote::kFalse);

  auto s1_votes = d.VotesBySource(1);
  ASSERT_EQ(s1_votes.size(), 2u);
  EXPECT_EQ(s1_votes[0].fact, 0);
  EXPECT_EQ(s1_votes[0].vote, Vote::kFalse);
  EXPECT_EQ(s1_votes[1].fact, 1);
  EXPECT_EQ(s1_votes[1].vote, Vote::kTrue);

  EXPECT_TRUE(d.VotesOnFact(2).empty());
}

TEST(DatasetTest, GetVoteForMissingPairIsNone) {
  Dataset d = MakeSmall();
  EXPECT_EQ(d.GetVote(0, 1), Vote::kNone);
  EXPECT_EQ(d.GetVote(0, 2), Vote::kNone);
}

TEST(DatasetTest, CountVotes) {
  Dataset d = MakeSmall();
  EXPECT_EQ(d.CountVotes(0, Vote::kTrue), 1);
  EXPECT_EQ(d.CountVotes(0, Vote::kFalse), 1);
  EXPECT_EQ(d.CountVotes(2, Vote::kTrue), 0);
}

TEST(DatasetTest, IsAffirmativeOnly) {
  Dataset d = MakeSmall();
  EXPECT_FALSE(d.IsAffirmativeOnly(0));  // Has an F vote.
  EXPECT_TRUE(d.IsAffirmativeOnly(1));
  EXPECT_FALSE(d.IsAffirmativeOnly(2));  // No votes at all.
}

TEST(DatasetTest, FindByName) {
  Dataset d = MakeSmall();
  EXPECT_EQ(d.FindSource("s1").ValueOrDie(), 1);
  EXPECT_EQ(d.FindFact("f2").ValueOrDie(), 2);
  EXPECT_EQ(d.FindSource("zz").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(d.FindFact("zz").status().code(), StatusCode::kNotFound);
}

TEST(DatasetTest, NamesRoundTrip) {
  Dataset d = MakeSmall();
  EXPECT_EQ(d.source_name(0), "s0");
  EXPECT_EQ(d.fact_name(2), "f2");
}

TEST(DatasetTest, EmptyDataset) {
  DatasetBuilder builder;
  Dataset d = builder.Build();
  EXPECT_EQ(d.num_sources(), 0);
  EXPECT_EQ(d.num_facts(), 0);
  EXPECT_EQ(d.num_votes(), 0);
}

TEST(DatasetTest, VoteCharConversions) {
  EXPECT_EQ(VoteToChar(Vote::kTrue), 'T');
  EXPECT_EQ(VoteToChar(Vote::kFalse), 'F');
  EXPECT_EQ(VoteToChar(Vote::kNone), '-');
  EXPECT_EQ(VoteFromChar('T').ValueOrDie(), Vote::kTrue);
  EXPECT_EQ(VoteFromChar('f').ValueOrDie(), Vote::kFalse);
  EXPECT_EQ(VoteFromChar('-').ValueOrDie(), Vote::kNone);
  EXPECT_FALSE(VoteFromChar('x').ok());
}

TEST(DatasetBuilderTest, BuildMatchesAnIndependentMapReference) {
  // Random write logs against a std::map of (fact, source) -> vote:
  // duplicate writes, kNone erasures and re-adds after an erase, facts
  // and sources that never get a vote, and (the first log) an empty
  // builder. Build() must agree with the map on names, the vote count
  // and every CSR row and CSC column.
  int log_index = 0;
  proptest::ForEachSeed(0xB11D, 40, [&](uint64_t seed) {
    Rng rng(seed);
    DatasetBuilder builder;
    std::vector<std::string> sources;
    std::vector<std::string> facts;
    std::map<std::pair<FactId, SourceId>, Vote> reference;
    const auto write = [&](SourceId s, FactId f, Vote vote) {
      ASSERT_TRUE(builder.SetVote(s, f, vote).ok());
      if (vote == Vote::kNone) {
        reference.erase({f, s});
      } else {
        reference[{f, s}] = vote;
      }
    };
    const auto random_vote = [&] {
      constexpr Vote kVotes[] = {Vote::kTrue, Vote::kFalse, Vote::kNone};
      return kVotes[rng.NextBelow(3)];
    };
    const int ops =
        log_index++ == 0 ? 0 : static_cast<int>(rng.UniformInt(1, 300));
    for (int op = 0; op < ops; ++op) {
      const uint64_t kind = rng.NextBelow(10);
      if (kind == 0 || sources.empty()) {
        sources.push_back("s" + std::to_string(sources.size()));
        ASSERT_EQ(builder.AddSource(sources.back()),
                  static_cast<SourceId>(sources.size() - 1));
      } else if (kind == 1 || facts.empty()) {
        facts.push_back("f" + std::to_string(facts.size()));
        ASSERT_EQ(builder.AddFact(facts.back()),
                  static_cast<FactId>(facts.size() - 1));
      } else if (kind == 2) {
        // Re-registering a known name changes nothing.
        const size_t f = rng.NextBelow(facts.size());
        ASSERT_EQ(builder.AddFact(facts[f]), static_cast<FactId>(f));
      } else {
        const auto s = static_cast<SourceId>(rng.NextBelow(sources.size()));
        const auto f = static_cast<FactId>(rng.NextBelow(facts.size()));
        const Vote vote = random_vote();
        write(s, f, vote);
        if (kind == 3) write(s, f, vote);  // duplicate write
        if (kind == 4) {                   // erase, then re-add
          write(s, f, Vote::kNone);
          write(s, f, rng.Bernoulli(0.5) ? Vote::kTrue : Vote::kFalse);
        }
      }
    }
    if (ops > 0) {  // a source and a fact that never get a vote
      sources.push_back("s" + std::to_string(sources.size()));
      builder.AddSource(sources.back());
      facts.push_back("f" + std::to_string(facts.size()));
      builder.AddFact(facts.back());
    }
    for (const auto& [pair, vote] : reference) {
      EXPECT_EQ(builder.GetVote(pair.second, pair.first), vote);
    }

    const Dataset dataset = builder.Build();
    EXPECT_EQ(builder.num_sources(), 0);
    EXPECT_EQ(builder.num_facts(), 0);
    ASSERT_EQ(dataset.num_sources(), static_cast<int32_t>(sources.size()));
    ASSERT_EQ(dataset.num_facts(), static_cast<int32_t>(facts.size()));
    for (SourceId s = 0; s < dataset.num_sources(); ++s) {
      EXPECT_EQ(dataset.source_name(s), sources[static_cast<size_t>(s)]);
    }
    for (FactId f = 0; f < dataset.num_facts(); ++f) {
      EXPECT_EQ(dataset.fact_name(f), facts[static_cast<size_t>(f)]);
    }
    EXPECT_EQ(dataset.num_votes(), static_cast<int64_t>(reference.size()));

    std::vector<std::vector<SourceVote>> rows(facts.size());
    std::vector<std::vector<FactVote>> columns(sources.size());
    for (const auto& [pair, vote] : reference) {  // (fact, source) order
      rows[static_cast<size_t>(pair.first)].push_back({pair.second, vote});
      columns[static_cast<size_t>(pair.second)].push_back({pair.first, vote});
    }
    for (FactId f = 0; f < dataset.num_facts(); ++f) {
      const std::span<const SourceVote> got = dataset.VotesOnFact(f);
      EXPECT_EQ(std::vector<SourceVote>(got.begin(), got.end()),
                rows[static_cast<size_t>(f)])
          << "fact " << f;
    }
    for (SourceId s = 0; s < dataset.num_sources(); ++s) {
      const std::span<const FactVote> got = dataset.VotesBySource(s);
      EXPECT_EQ(std::vector<FactVote>(got.begin(), got.end()),
                columns[static_cast<size_t>(s)])
          << "source " << s;
    }
  });
  EXPECT_EQ(log_index, 40);
}

}  // namespace
}  // namespace corrob
