#include "data/dataset.h"

#include <gtest/gtest.h>

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

TEST(DatasetTest, SignatureKey) {
  Dataset d = MakeSmall();
  EXPECT_EQ(d.SignatureKey(0), "0T|1F");
  EXPECT_EQ(d.SignatureKey(1), "1T");
  EXPECT_EQ(d.SignatureKey(2), "");
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

}  // namespace
}  // namespace corrob
