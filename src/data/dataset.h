#ifndef CORROB_DATA_DATASET_H_
#define CORROB_DATA_DATASET_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "data/vote.h"

namespace corrob {

/// Names in id order plus the name -> id index. Ids are dense and
/// assigned in first-registration order.
class NameTable {
 public:
  int32_t size() const { return static_cast<int32_t>(names_.size()); }
  const std::string& name(int32_t id) const { return names_[id]; }
  std::span<const std::string> names() const { return names_; }

  /// The id of `name`, or -1 when it is not registered.
  int32_t Find(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? -1 : it->second;
  }

  /// Registers `name` as the next id; returns the existing id if known.
  int32_t Add(const std::string& name);

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, int32_t> index_;
};

/// The vote a (fact, source) pair holds after an edit; kNone erases it.
struct VoteEdit {
  FactId fact = -1;
  SourceId source = -1;
  Vote vote = Vote::kNone;
};

/// Immutable sparse source × fact vote matrix — the input to every
/// corroboration algorithm. Built via DatasetBuilder; provides both
/// the per-fact view (who voted on f) and the per-source view (what
/// did s vote on), each sorted by id.
///
/// The name tables are immutable and shared: a copy of a Dataset, and
/// a successor WithEdits() derives without registering a name, point
/// at the same tables and own only their vote arrays.
class Dataset {
 public:
  Dataset() = default;

  Dataset(const Dataset&) = default;
  Dataset& operator=(const Dataset&) = default;
  Dataset(Dataset&&) noexcept = default;
  Dataset& operator=(Dataset&&) noexcept = default;

  // The tables are null only in a default-constructed or moved-from
  // Dataset, which has no names.
  int32_t num_sources() const { return sources_ ? sources_->size() : 0; }
  int32_t num_facts() const { return facts_ ? facts_->size() : 0; }
  /// Total number of materialized (non '-') votes.
  int64_t num_votes() const { return num_votes_; }

  const std::string& source_name(SourceId s) const { return sources_->name(s); }
  const std::string& fact_name(FactId f) const { return facts_->name(f); }

  /// Id lookup by name; NotFound if absent.
  [[nodiscard]] Result<SourceId> FindSource(const std::string& name) const;
  [[nodiscard]] Result<FactId> FindFact(const std::string& name) const;

  /// Votes cast on fact `f`, sorted by source id.
  std::span<const SourceVote> VotesOnFact(FactId f) const {
    return {fact_votes_.data() + fact_offsets_[f],
            fact_offsets_[f + 1] - fact_offsets_[f]};
  }

  /// Votes cast by source `s`, sorted by fact id.
  std::span<const FactVote> VotesBySource(SourceId s) const {
    return {source_votes_.data() + source_offsets_[s],
            source_offsets_[s + 1] - source_offsets_[s]};
  }

  /// The vote of `s` on `f`, or kNone when `s` did not vote on `f`.
  Vote GetVote(SourceId s, FactId f) const;

  /// Number of T / F votes on fact `f`.
  int32_t CountVotes(FactId f, Vote vote) const;

  /// True if every vote on `f` is affirmative (f ∈ F*, paper §3.3).
  /// Facts with no votes at all are not affirmative-only.
  bool IsAffirmativeOnly(FactId f) const;

  /// This dataset with `new_sources` and `new_facts` registered after
  /// its names, then `writes` applied in log order: a later write to
  /// the same (fact, source) wins; kNone erases. A name table that
  /// gains no name is shared with this dataset; the CSR/CSC arrays are
  /// copied with only the touched rows and columns merged, in
  /// O(votes + facts + sources + writes · log writes) (a log already in
  /// (fact, source) order is not sorted). The only CSR/CSC writer:
  /// DatasetBuilder::Build() runs it on an empty dataset.
  ///
  /// Writes must use ids below the extended counts; `new_sources` and
  /// `new_facts` must be distinct names unknown to this dataset.
  Dataset WithEdits(std::span<const std::string> new_sources,
                    std::span<const std::string> new_facts,
                    std::span<const VoteEdit> writes) const;

 private:
  friend class DatasetBuilder;

  /// WithEdits() once the successor's name tables are known.
  Dataset Patched(std::shared_ptr<const NameTable> source_names,
                  std::shared_ptr<const NameTable> fact_names,
                  std::span<const VoteEdit> writes) const;

  std::shared_ptr<const NameTable> sources_;
  std::shared_ptr<const NameTable> facts_;

  // CSR layouts for both orientations.
  std::vector<size_t> fact_offsets_;     // size num_facts()+1
  std::vector<SourceVote> fact_votes_;   // sorted by (fact, source)
  std::vector<size_t> source_offsets_;   // size num_sources()+1
  std::vector<FactVote> source_votes_;   // sorted by (source, fact)
  int64_t num_votes_ = 0;
};

/// Accumulates sources, facts and votes, then freezes them into a
/// Dataset. Votes are an append-only write log that Build() folds:
/// duplicate (source, fact) votes overwrite the earlier vote (last
/// writer wins), mirroring how a re-crawl updates a listing.
class DatasetBuilder {
 public:
  DatasetBuilder() = default;

  /// Registers a source; returns the existing id if the name is known.
  SourceId AddSource(const std::string& name);

  /// Registers a fact; returns the existing id if the name is known.
  FactId AddFact(const std::string& name);

  /// Records a vote. kNone erases any previous vote for the pair.
  /// Fails on out-of-range ids.
  [[nodiscard]] Status SetVote(SourceId s, FactId f, Vote vote);

  /// Convenience: registers names as needed, then records the vote.
  void SetVoteByName(const std::string& source, const std::string& fact,
                     Vote vote);

  /// The vote currently recorded for (s, f); kNone when unset. Scans
  /// the log. Aborts on out-of-range ids.
  Vote GetVote(SourceId s, FactId f) const;

  int32_t num_sources() const { return sources_.size(); }
  int32_t num_facts() const { return facts_.size(); }

  /// Freezes into an immutable Dataset by folding the log into an empty
  /// one (Dataset::WithEdits). The builder is left empty.
  Dataset Build();

 private:
  NameTable sources_;
  NameTable facts_;
  std::vector<VoteEdit> log_;  // every SetVote, in call order
};

}  // namespace corrob

#endif  // CORROB_DATA_DATASET_H_
