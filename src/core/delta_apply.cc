#include "core/delta_apply.h"

#include <string>
#include <vector>

#include "data/dataset_io.h"

namespace corrob {

namespace {

/// Resolves one kind of name (sources or facts): the base's own ids
/// first, then the names this batch registers, numbered on from the
/// base's count in first-appearance order.
class BatchNames {
 public:
  using BaseFind = Result<int32_t> (Dataset::*)(const std::string&) const;

  BatchNames(const Dataset& base, BaseFind find, int32_t base_count)
      : base_(base), find_(find), base_count_(base_count) {}

  /// The id of `name`, or -1 when neither the base nor the batch has it.
  int32_t Find(const std::string& name) const {
    Result<int32_t> id = (base_.*find_)(name);
    if (id.ok()) return id.ValueOrDie();
    const int32_t added = added_.Find(name);
    return added < 0 ? -1 : base_count_ + added;
  }

  /// The id of `name`, registering it when unknown.
  int32_t Add(const std::string& name) {
    const int32_t known = Find(name);
    return known >= 0 ? known : base_count_ + added_.Add(name);
  }

  std::span<const std::string> added() const { return added_.names(); }

 private:
  const Dataset& base_;
  BaseFind find_;
  int32_t base_count_;
  NameTable added_;
};

}  // namespace

Result<Dataset> ApplyDeltasToDataset(const Dataset& base,
                                     std::span<const WalRecord> deltas) {
  BatchNames sources(base, &Dataset::FindSource, base.num_sources());
  BatchNames facts(base, &Dataset::FindFact, base.num_facts());
  std::vector<VoteEdit> writes;  // every vote write, in log order
  for (size_t i = 0; i < deltas.size(); ++i) {
    const WalRecord& record = deltas[i];
    switch (record.type) {
      case WalRecordType::kAddSource:
        sources.Add(record.source);
        break;
      case WalRecordType::kAddVote: {
        if (record.vote == Vote::kNone) {
          return Status::InvalidArgument(
              "delta " + std::to_string(i) +
              ": add-vote carries '-'; use retract-vote to erase");
        }
        const SourceId s = sources.Add(record.source);
        const FactId f = facts.Add(record.fact);
        writes.push_back(VoteEdit{f, s, record.vote});
        break;
      }
      case WalRecordType::kRetractVote: {
        const SourceId s = sources.Find(record.source);
        const FactId f = facts.Find(record.fact);
        if (s < 0 || f < 0) {
          break;  // retracting a vote that never existed is a no-op
        }
        writes.push_back(VoteEdit{f, s, Vote::kNone});
        break;
      }
      case WalRecordType::kSnapshotMarker:
        return Status::InvalidArgument(
            "delta " + std::to_string(i) +
            ": snapshot markers are log metadata, not mutations; filter "
            "them out (WalRecovery::Mutations)");
    }
  }

  return base.WithEdits(sources.added(), facts.added(), writes);
}

Result<Dataset> DatasetFromWalRecovery(const WalRecovery& recovery) {
  Dataset base;
  if (recovery.has_snapshot) {
    CORROB_ASSIGN_OR_RETURN(LabeledDataset labeled,
                            ParseDatasetCsv(recovery.snapshot_csv));
    base = std::move(labeled.dataset);
  }
  return ApplyDeltasToDataset(base, recovery.Mutations());
}

}  // namespace corrob
