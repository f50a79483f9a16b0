#include "core/fact_group.h"

#include <algorithm>
#include <bit>
#include <span>

namespace corrob {

namespace {

/// 64-bit hash of one fact's vote row: each (source, vote) pair is
/// folded in with a multiply-xorshift step, then a SplitMix64 finalizer
/// spreads every pair into the low bits that index the table.
uint64_t HashSignature(std::span<const SourceVote> votes) {
  uint64_t h = votes.size();
  for (const SourceVote& sv : votes) {
    const uint64_t pair =
        (static_cast<uint64_t>(static_cast<uint32_t>(sv.source)) << 8) |
        static_cast<uint8_t>(sv.vote);
    h = (h ^ pair) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
  }
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
  return h ^ (h >> 31);
}

}  // namespace

FactGroupIndex::FactGroupIndex(const Dataset& dataset)
    : group_of_fact_(static_cast<size_t>(dataset.num_facts())) {
  // Pass 1: number each fact's group. Open-addressed table of group
  // indices (-1 = empty slot). There are at most num_facts groups, so
  // the table is at most half full and linear probes stay short. A
  // slot matches only when its hash agrees and the group's first
  // member has exactly this row.
  std::vector<FactId> first_fact;
  std::vector<uint64_t> group_hash;
  std::vector<size_t> group_size;
  const size_t capacity =
      std::bit_ceil(2 * static_cast<size_t>(dataset.num_facts()) + 2);
  const size_t mask = capacity - 1;
  std::vector<int32_t> table(capacity, -1);
  for (FactId f = 0; f < dataset.num_facts(); ++f) {
    const std::span<const SourceVote> votes = dataset.VotesOnFact(f);
    const uint64_t hash = HashSignature(votes);
    auto holds_row = [&](int32_t g) {
      const size_t gi = static_cast<size_t>(g);
      return group_hash[gi] == hash &&
             std::ranges::equal(votes, dataset.VotesOnFact(first_fact[gi]));
    };
    size_t slot = hash & mask;
    while (table[slot] >= 0 && !holds_row(table[slot])) {
      slot = (slot + 1) & mask;
    }
    if (table[slot] < 0) {
      table[slot] = static_cast<int32_t>(first_fact.size());
      first_fact.push_back(f);
      group_hash.push_back(hash);
      group_size.push_back(0);
    }
    group_of_fact_[static_cast<size_t>(f)] = table[slot];
    ++group_size[static_cast<size_t>(table[slot])];
  }
  const size_t num_groups = first_fact.size();

  // Pass 2: members flat by group; facts arrive ascending, so each
  // group's slice is ascending too.
  member_offsets_.assign(num_groups + 1, 0);
  for (size_t g = 0; g < num_groups; ++g) {
    member_offsets_[g + 1] = member_offsets_[g] + group_size[g];
  }
  member_facts_.resize(static_cast<size_t>(dataset.num_facts()));
  std::vector<size_t> cursor(member_offsets_.begin(),
                             member_offsets_.end() - 1);
  for (FactId f = 0; f < dataset.num_facts(); ++f) {
    member_facts_[cursor[static_cast<size_t>(
        group_of_fact_[static_cast<size_t>(f)])]++] = f;
  }

  // Signatures, and the source -> group adjacency in ascending group
  // order within each source.
  signature_offsets_.assign(num_groups + 1, 0);
  source_offsets_.assign(static_cast<size_t>(dataset.num_sources()) + 1, 0);
  for (size_t g = 0; g < num_groups; ++g) {
    const std::span<const SourceVote> votes =
        dataset.VotesOnFact(first_fact[g]);
    signature_votes_.insert(signature_votes_.end(), votes.begin(),
                            votes.end());
    signature_offsets_[g + 1] = signature_votes_.size();
    for (const SourceVote& sv : votes) {
      ++source_offsets_[static_cast<size_t>(sv.source) + 1];
    }
  }
  for (size_t s = 1; s < source_offsets_.size(); ++s) {
    source_offsets_[s] += source_offsets_[s - 1];
  }
  source_groups_.resize(signature_votes_.size());
  cursor.assign(source_offsets_.begin(), source_offsets_.end() - 1);
  for (size_t g = 0; g < num_groups; ++g) {
    for (const SourceVote& sv : signature(static_cast<int32_t>(g))) {
      source_groups_[cursor[static_cast<size_t>(sv.source)]++] =
          static_cast<int32_t>(g);
    }
  }
}

int64_t FactGroupIndex::bytes() const {
  auto heap = [](const auto& v) {
    return static_cast<int64_t>(v.capacity() * sizeof(v[0]));
  };
  return static_cast<int64_t>(sizeof(*this)) + heap(signature_votes_) +
         heap(signature_offsets_) + heap(member_facts_) +
         heap(member_offsets_) + heap(source_groups_) +
         heap(source_offsets_) + heap(group_of_fact_);
}

std::vector<FactGroup> BuildFactGroups(const Dataset& dataset) {
  const FactGroupIndex index(dataset);
  std::vector<FactGroup> groups(static_cast<size_t>(index.num_groups()));
  for (int32_t g = 0; g < index.num_groups(); ++g) {
    FactGroup& group = groups[static_cast<size_t>(g)];
    group.signature.assign(index.signature(g).begin(),
                           index.signature(g).end());
    group.facts.assign(index.facts(g).begin(), index.facts(g).end());
  }
  return groups;
}

}  // namespace corrob
