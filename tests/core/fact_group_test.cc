#include "core/fact_group.h"

#include <gtest/gtest.h>

#include "data/motivating_example.h"

namespace corrob {
namespace {

TEST(FactGroupTest, MotivatingExampleGroups) {
  // Table 1 signatures: {r7, r8} and {r4, r10} are the only
  // multi-fact groups; everything else is a singleton -> 10 groups.
  MotivatingExample example = MakeMotivatingExample();
  std::vector<FactGroup> groups = BuildFactGroups(example.dataset);
  EXPECT_EQ(groups.size(), 10u);

  size_t total = 0;
  int multi = 0;
  for (const FactGroup& g : groups) {
    total += g.size();
    if (g.size() > 1) ++multi;
  }
  EXPECT_EQ(total, 12u);
  EXPECT_EQ(multi, 2);
}

TEST(FactGroupTest, GroupsShareSignature) {
  MotivatingExample example = MakeMotivatingExample();
  std::vector<FactGroup> groups = BuildFactGroups(example.dataset);
  for (const FactGroup& g : groups) {
    for (FactId f : g.facts) {
      auto votes = example.dataset.VotesOnFact(f);
      ASSERT_EQ(votes.size(), g.signature.size());
      for (size_t i = 0; i < votes.size(); ++i) {
        EXPECT_EQ(votes[i], g.signature[i]);
      }
    }
  }
}

TEST(FactGroupTest, GroupsOrderedByFirstFact) {
  MotivatingExample example = MakeMotivatingExample();
  std::vector<FactGroup> groups = BuildFactGroups(example.dataset);
  FactId last_first = -1;
  for (const FactGroup& g : groups) {
    ASSERT_FALSE(g.facts.empty());
    EXPECT_GT(g.facts.front(), last_first);
    last_first = g.facts.front();
  }
}

TEST(FactGroupTest, NoVoteFactsFormEmptySignatureGroup) {
  DatasetBuilder builder;
  builder.AddSource("s");
  builder.AddFact("a");
  builder.AddFact("b");
  Dataset d = builder.Build();
  std::vector<FactGroup> groups = BuildFactGroups(d);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_TRUE(groups[0].signature.empty());
  EXPECT_EQ(groups[0].facts, (std::vector<FactId>{0, 1}));
}

TEST(SourceGroupIndexTest, AdjacencyIsComplete) {
  MotivatingExample example = MakeMotivatingExample();
  std::vector<FactGroup> groups = BuildFactGroups(example.dataset);
  const FactGroupIndex index(example.dataset);
  ASSERT_EQ(index.num_sources(), 5);
  // Every (group, source) incidence appears exactly once.
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const SourceVote& sv : groups[g].signature) {
      const auto list = index.groups_of_source(sv.source);
      EXPECT_EQ(std::count(list.begin(), list.end(),
                           static_cast<int32_t>(g)),
                1);
    }
  }
  // s4 (id 3) votes on 10 facts spanning 8 distinct signatures.
  EXPECT_EQ(index.groups_of_source(3).size(), 8u);
}

}  // namespace
}  // namespace corrob
