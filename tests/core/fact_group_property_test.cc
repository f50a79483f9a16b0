// BuildFactGroups against a reference grouping written the obvious
// way: a std::map keyed on the whole std::vector<SourceVote>. The
// hashed build must agree group for group — same signatures, same
// members in ascending order, same numbering by smallest member — on
// every random shape and on the rows a weak hash would confuse.

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/fact_group.h"
#include "testing/property.h"

namespace corrob {
namespace {

struct SignatureLess {
  bool operator()(const std::vector<SourceVote>& a,
                  const std::vector<SourceVote>& b) const {
    return std::lexicographical_compare(
        a.begin(), a.end(), b.begin(), b.end(),
        [](const SourceVote& x, const SourceVote& y) {
          return std::tie(x.source, x.vote) < std::tie(y.source, y.vote);
        });
  }
};

std::vector<FactGroup> ReferenceGroups(const Dataset& dataset) {
  std::vector<FactGroup> groups;
  std::map<std::vector<SourceVote>, size_t, SignatureLess> index;
  for (FactId f = 0; f < dataset.num_facts(); ++f) {
    auto votes = dataset.VotesOnFact(f);
    std::vector<SourceVote> signature(votes.begin(), votes.end());
    auto [it, inserted] = index.emplace(signature, groups.size());
    if (inserted) {
      FactGroup group;
      group.signature = std::move(signature);
      groups.push_back(std::move(group));
    }
    groups[it->second].facts.push_back(f);
  }
  return groups;
}

void ExpectSameGroups(const std::vector<FactGroup>& actual,
                      const std::vector<FactGroup>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t g = 0; g < actual.size(); ++g) {
    EXPECT_EQ(actual[g].signature, expected[g].signature) << "group " << g;
    EXPECT_EQ(actual[g].facts, expected[g].facts) << "group " << g;
  }
}

// The index's lookups agree with its own groups: every member maps
// back to its group, each member slice sits at its offset in the flat
// array, and each source lists exactly the groups whose signature
// holds it, ascending.
void ExpectIndexConsistent(const Dataset& dataset) {
  const FactGroupIndex index(dataset);
  ASSERT_EQ(index.num_facts(), dataset.num_facts());
  ASSERT_EQ(index.num_sources(), dataset.num_sources());
  std::vector<std::vector<int32_t>> by_source(
      static_cast<size_t>(dataset.num_sources()));
  for (int32_t g = 0; g < index.num_groups(); ++g) {
    for (size_t i = 0; i < index.size(g); ++i) {
      const FactId f = index.facts(g)[i];
      EXPECT_EQ(index.group_of_fact(f), g) << "fact " << f;
      EXPECT_EQ(index.member_facts()[index.member_offset(g) + i], f);
    }
    for (const SourceVote& sv : index.signature(g)) {
      by_source[static_cast<size_t>(sv.source)].push_back(g);
    }
  }
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    const auto groups = index.groups_of_source(s);
    EXPECT_EQ(std::vector<int32_t>(groups.begin(), groups.end()),
              by_source[static_cast<size_t>(s)])
        << "source " << s;
  }
}

TEST(FactGroupPropertyTest, MatchesReferenceOnRandomShapes) {
  struct Shape {
    std::string name;
    proptest::RandomDatasetOptions options;
  };
  std::vector<Shape> shapes(4);
  shapes[0].name = "default";
  // Mostly voteless facts and singleton signatures.
  shapes[1].name = "sparse";
  shapes[1].options.vote_density = 0.05;
  // Long rows where T and F split evenly.
  shapes[2].name = "dense_mixed";
  shapes[2].options.vote_density = 0.9;
  shapes[2].options.false_vote_fraction = 0.5;
  // Few sources over many facts: large groups, many repeated rows.
  shapes[3].name = "few_sources";
  shapes[3].options.min_sources = 1;
  shapes[3].options.max_sources = 3;
  shapes[3].options.min_facts = 100;
  shapes[3].options.max_facts = 400;
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    proptest::ForEachSeed(0xFAC7, 25, [&](uint64_t seed) {
      const Dataset dataset = proptest::MakeRandomDataset(seed, shape.options);
      ExpectSameGroups(BuildFactGroups(dataset), ReferenceGroups(dataset));
      ExpectIndexConsistent(dataset);
    });
  }
}

TEST(FactGroupPropertyTest, SeparatesRowsThatDifferOnlySlightly) {
  DatasetBuilder builder;
  const SourceId s0 = builder.AddSource("s0");
  const SourceId s1 = builder.AddSource("s1");
  for (int f = 0; f < 10; ++f) builder.AddFact("f" + std::to_string(f));
  // f0, f5: no votes.
  // f1, f6: s0=T.       f2, f7: s0=F (the same source, flipped).
  // f3, f8: s0=T,s1=T.  f4, f9: s0=T,s1=F (both extend f1's row).
  auto vote = [&](SourceId s, std::initializer_list<FactId> facts, Vote v) {
    for (FactId f : facts) ASSERT_TRUE(builder.SetVote(s, f, v).ok());
  };
  vote(s0, {1, 3, 4, 6, 8, 9}, Vote::kTrue);
  vote(s0, {2, 7}, Vote::kFalse);
  vote(s1, {3, 8}, Vote::kTrue);
  vote(s1, {4, 9}, Vote::kFalse);
  const Dataset dataset = builder.Build();

  const std::vector<FactGroup> groups = BuildFactGroups(dataset);
  ExpectSameGroups(groups, ReferenceGroups(dataset));
  ASSERT_EQ(groups.size(), 5u);
  const SourceVote t0{s0, Vote::kTrue};
  EXPECT_TRUE(groups[0].signature.empty());
  EXPECT_EQ(groups[0].facts, (std::vector<FactId>{0, 5}));
  EXPECT_EQ(groups[1].signature, (std::vector<SourceVote>{t0}));
  EXPECT_EQ(groups[1].facts, (std::vector<FactId>{1, 6}));
  EXPECT_EQ(groups[2].signature,
            (std::vector<SourceVote>{{s0, Vote::kFalse}}));
  EXPECT_EQ(groups[2].facts, (std::vector<FactId>{2, 7}));
  EXPECT_EQ(groups[3].signature,
            (std::vector<SourceVote>{t0, {s1, Vote::kTrue}}));
  EXPECT_EQ(groups[3].facts, (std::vector<FactId>{3, 8}));
  EXPECT_EQ(groups[4].signature,
            (std::vector<SourceVote>{t0, {s1, Vote::kFalse}}));
  EXPECT_EQ(groups[4].facts, (std::vector<FactId>{4, 9}));
}

TEST(FactGroupPropertyTest, EmptyDatasetHasNoGroups) {
  DatasetBuilder builder;
  builder.AddSource("s");
  EXPECT_TRUE(BuildFactGroups(builder.Build()).empty());
}

}  // namespace
}  // namespace corrob
