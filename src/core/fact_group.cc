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

std::vector<FactGroup> BuildFactGroups(const Dataset& dataset) {
  std::vector<FactGroup> groups;
  std::vector<uint64_t> group_hash;
  // Open-addressed table of group indices (-1 = empty slot). There are
  // at most num_facts groups, so the table is at most half full and
  // linear probes stay short. A slot matches only when its hash agrees
  // and its signature equals the row exactly.
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
             std::ranges::equal(votes, groups[gi].signature);
    };
    size_t slot = hash & mask;
    while (table[slot] >= 0 && !holds_row(table[slot])) {
      slot = (slot + 1) & mask;
    }
    if (table[slot] < 0) {
      table[slot] = static_cast<int32_t>(groups.size());
      FactGroup group;
      group.signature.assign(votes.begin(), votes.end());
      groups.push_back(std::move(group));
      group_hash.push_back(hash);
    }
    groups[static_cast<size_t>(table[slot])].facts.push_back(f);
  }
  return groups;
}

std::vector<std::vector<int32_t>> BuildSourceGroupIndex(
    const std::vector<FactGroup>& groups, int32_t num_sources) {
  std::vector<std::vector<int32_t>> by_source(
      static_cast<size_t>(num_sources));
  for (size_t g = 0; g < groups.size(); ++g) {
    for (const SourceVote& sv : groups[g].signature) {
      by_source[static_cast<size_t>(sv.source)].push_back(
          static_cast<int32_t>(g));
    }
  }
  return by_source;
}

}  // namespace corrob
