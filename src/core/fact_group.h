#ifndef CORROB_CORE_FACT_GROUP_H_
#define CORROB_CORE_FACT_GROUP_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"

namespace corrob {

/// The fact groups (paper §5.1) of one dataset: the sets of facts
/// sharing one vote signature. "Facts with the same votes should have
/// the same corroboration result", so IncEstimate selects and
/// evaluates whole groups (or balanced slices of them).
///
/// Groups depend only on the votes, so the index is immutable and may
/// be shared by any number of concurrent runs over the same dataset;
/// each run keeps its own commit cursors (IncrementalEngine). Groups
/// are numbered by their smallest member fact id, so group indices are
/// deterministic. Facts with no votes form one group with an empty
/// signature.
class FactGroupIndex {
 public:
  explicit FactGroupIndex(const Dataset& dataset);

  int32_t num_groups() const {
    return static_cast<int32_t>(member_offsets_.size()) - 1;
  }
  int32_t num_facts() const {
    return static_cast<int32_t>(group_of_fact_.size());
  }
  int32_t num_sources() const {
    return static_cast<int32_t>(source_offsets_.size()) - 1;
  }

  /// Group g's shared (source, vote) signature, sorted by source id.
  std::span<const SourceVote> signature(int32_t g) const {
    return Slice(signature_votes_, signature_offsets_, g);
  }
  /// Group g's member facts in ascending fact-id order.
  std::span<const FactId> facts(int32_t g) const {
    return Slice(member_facts_, member_offsets_, g);
  }
  size_t size(int32_t g) const { return facts(g).size(); }
  /// Every group's members, stored flat: group g's occupy
  /// [member_offset(g), member_offset(g + 1)).
  const std::vector<FactId>& member_facts() const { return member_facts_; }
  size_t member_offset(int32_t g) const {
    return member_offsets_[static_cast<size_t>(g)];
  }
  /// The groups whose signature contains source s, ascending. Used for
  /// incremental ΔH computation.
  std::span<const int32_t> groups_of_source(SourceId s) const {
    return Slice(source_groups_, source_offsets_, s);
  }
  int32_t group_of_fact(FactId f) const {
    return group_of_fact_[static_cast<size_t>(f)];
  }

  /// Heap bytes the index holds (its arrays' capacities).
  int64_t bytes() const;

 private:
  template <typename T>
  static std::span<const T> Slice(const std::vector<T>& flat,
                                  const std::vector<size_t>& offsets,
                                  int32_t i) {
    const size_t begin = offsets[static_cast<size_t>(i)];
    return {flat.data() + begin, offsets[static_cast<size_t>(i) + 1] - begin};
  }

  std::vector<SourceVote> signature_votes_;
  std::vector<size_t> signature_offsets_;
  std::vector<FactId> member_facts_;
  std::vector<size_t> member_offsets_;
  std::vector<int32_t> source_groups_;
  std::vector<size_t> source_offsets_;
  std::vector<int32_t> group_of_fact_;
};

/// One fact group as plain vectors.
struct FactGroup {
  /// The shared (source, vote) signature, sorted by source id.
  std::vector<SourceVote> signature;
  /// Member facts in ascending fact-id order.
  std::vector<FactId> facts;

  size_t size() const { return facts.size(); }
};

/// The dataset's fact groups as plain vectors, in FactGroupIndex order.
std::vector<FactGroup> BuildFactGroups(const Dataset& dataset);

}  // namespace corrob

#endif  // CORROB_CORE_FACT_GROUP_H_
