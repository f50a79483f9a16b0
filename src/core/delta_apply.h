#ifndef CORROB_CORE_DELTA_APPLY_H_
#define CORROB_CORE_DELTA_APPLY_H_

#include <span>

#include "common/result.h"
#include "common/status.h"
#include "data/dataset.h"
#include "data/wal.h"

namespace corrob {

/// Applies a sequence of WAL vote deltas to an immutable base dataset,
/// producing a fresh Dataset.
///
/// The rebuild goes through DatasetBuilder re-registering the base's
/// sources and facts in id order, so ids — and therefore every CSR
/// array and signature key derived from the result — are
/// bit-identical to a single batch build that saw the same names in
/// the same order followed by the same final votes. That is the
/// metamorphic contract the WAL tests pin: replaying any surviving
/// prefix of deltas after a crash equals rebuilding from scratch with
/// that prefix.
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
