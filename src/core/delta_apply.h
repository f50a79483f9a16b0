#ifndef CORROB_CORE_DELTA_APPLY_H_
#define CORROB_CORE_DELTA_APPLY_H_

#include <span>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/wal.h"

namespace corrob {

/// Applies a sequence of WAL vote deltas to an immutable base dataset,
/// producing the next generation.
///
/// The result is bit-identical to a single batch build that saw the
/// base's names in id order, then the names the deltas register in
/// first-appearance order, then the same final votes: the same names,
/// ids, CSR/CSC arrays and vote count (pinned in delta_apply_test
/// against a full DatasetBuilder replay). That is the metamorphic
/// contract the WAL tests pin: replaying any surviving prefix of
/// deltas after a crash equals building from scratch with that prefix.
///
/// The cost follows the batch, not the corpus's names: names resolve
/// through the base's own index, and the vote writes go to
/// Dataset::WithEdits in log order. It folds them (last writer wins,
/// the fold DatasetBuilder::Build() also runs), shares the base's name
/// tables unless the batch registers a name, and copies the vote
/// arrays with only the touched rows and columns merged. The base is
/// left untouched and stays readable from other threads throughout.
///
/// Semantics per record type:
///   kAddSource      registers the source (no-op when known)
///   kAddVote        registers source/fact as needed, sets the vote
///                   (last writer wins)
///   kRetractVote    erases the pair's vote; a retraction naming an
///                   unknown source or fact is a no-op and does NOT
///                   register the names
///   kSnapshotMarker rejected — callers filter markers out
///                   (WalRecovery::Mutations does this)
[[nodiscard]] Result<Dataset> ApplyDeltasToDataset(
    const Dataset& base, std::span<const WalRecord> deltas);

/// Rebuilds the resident dataset a recovered WAL describes: the
/// snapshot CSV (when present) is the base, and every surviving
/// mutation record is applied on top. An empty recovery yields an
/// empty dataset.
[[nodiscard]] Result<Dataset> DatasetFromWalRecovery(
    const WalRecovery& recovery);

}  // namespace corrob

#endif  // CORROB_CORE_DELTA_APPLY_H_
