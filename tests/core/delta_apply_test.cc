#include "core/delta_apply.h"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/random.h"
#include "core/registry.h"
#include "data/dataset_io.h"
#include "data/wal.h"
#include "testing/property.h"

// Delta application semantics plus the metamorphic contract the WAL
// leans on: replaying any crash-surviving prefix of deltas produces a
// dataset bit-identical to a batch rebuild from the same votes — and
// corroborating that dataset gives bit-identical answers at 1 and 4
// run threads. The copy-on-write apply is pinned structurally against
// RebuildReference, a full DatasetBuilder replay of base plus deltas.

namespace corrob {
namespace {

using proptest::ExpectBitIdentical;
using proptest::ForEachSeed;

/// Canonical byte serialization used for bit-identity comparisons.
std::string CanonicalCsv(const Dataset& dataset) {
  return DatasetToCsv(dataset);
}

/// A reproducible random delta stream: vote adds (with occasional
/// overwrites of earlier pairs), retractions (sometimes of unknown
/// names), and bare source registrations.
std::vector<WalRecord> MakeRandomDeltas(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<WalRecord> deltas;
  deltas.reserve(count);
  for (int i = 0; i < count; ++i) {
    const std::string source =
        "src-" + std::to_string(rng.UniformInt(0, 6));
    const std::string fact = "fact-" + std::to_string(rng.UniformInt(0, 11));
    const double roll = rng.NextDouble();
    if (roll < 0.10) {
      deltas.push_back(MakeAddSource(source));
    } else if (roll < 0.25) {
      deltas.push_back(MakeRetractVote(source, fact));
    } else {
      deltas.push_back(MakeAddVote(
          source, fact, rng.Bernoulli(0.2) ? Vote::kFalse : Vote::kTrue));
    }
  }
  return deltas;
}

/// The full rebuild ApplyDeltasToDataset must match bit for bit: every
/// base name re-registered in id order, every base vote replayed, then
/// the deltas, all through one DatasetBuilder.
Result<Dataset> RebuildReference(const Dataset& base,
                                 std::span<const WalRecord> deltas) {
  DatasetBuilder builder;
  // DatasetBuilder has no name lookup of its own, and SetVoteByName
  // would register names that a retraction must not create.
  std::unordered_map<std::string, SourceId> sources;
  std::unordered_map<std::string, FactId> facts;
  for (SourceId s = 0; s < base.num_sources(); ++s) {
    sources.emplace(base.source_name(s), builder.AddSource(base.source_name(s)));
  }
  for (FactId f = 0; f < base.num_facts(); ++f) {
    facts.emplace(base.fact_name(f), builder.AddFact(base.fact_name(f)));
  }
  for (SourceId s = 0; s < base.num_sources(); ++s) {
    for (const FactVote& fact_vote : base.VotesBySource(s)) {
      CORROB_RETURN_NOT_OK(builder.SetVote(s, fact_vote.fact, fact_vote.vote));
    }
  }
  for (size_t i = 0; i < deltas.size(); ++i) {
    const WalRecord& record = deltas[i];
    switch (record.type) {
      case WalRecordType::kAddSource:
        sources.emplace(record.source, builder.AddSource(record.source));
        break;
      case WalRecordType::kAddVote: {
        if (record.vote == Vote::kNone) {
          return Status::InvalidArgument("add-vote carries '-'");
        }
        const SourceId s = builder.AddSource(record.source);
        const FactId f = builder.AddFact(record.fact);
        sources.emplace(record.source, s);
        facts.emplace(record.fact, f);
        CORROB_RETURN_NOT_OK(builder.SetVote(s, f, record.vote));
        break;
      }
      case WalRecordType::kRetractVote: {
        auto source_it = sources.find(record.source);
        auto fact_it = facts.find(record.fact);
        if (source_it == sources.end() || fact_it == facts.end()) break;
        CORROB_RETURN_NOT_OK(
            builder.SetVote(source_it->second, fact_it->second, Vote::kNone));
        break;
      }
      case WalRecordType::kSnapshotMarker:
        return Status::InvalidArgument("snapshot marker");
    }
  }
  return builder.Build();
}

/// Structural equality: counts, every name and its lookup, and the
/// per-fact and per-source vote spans of every id (which pins both
/// CSR/CSC layouts, offsets included).
void ExpectSameDataset(const Dataset& actual, const Dataset& expected) {
  ASSERT_EQ(actual.num_sources(), expected.num_sources());
  ASSERT_EQ(actual.num_facts(), expected.num_facts());
  EXPECT_EQ(actual.num_votes(), expected.num_votes());
  for (SourceId s = 0; s < expected.num_sources(); ++s) {
    ASSERT_EQ(actual.source_name(s), expected.source_name(s));
    Result<SourceId> found = actual.FindSource(expected.source_name(s));
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(found.ValueOrDie(), s);
    EXPECT_TRUE(std::ranges::equal(actual.VotesBySource(s),
                                   expected.VotesBySource(s)))
        << "VotesBySource(" << s << ")";
  }
  for (FactId f = 0; f < expected.num_facts(); ++f) {
    ASSERT_EQ(actual.fact_name(f), expected.fact_name(f));
    Result<FactId> found = actual.FindFact(expected.fact_name(f));
    ASSERT_TRUE(found.ok()) << found.status().ToString();
    EXPECT_EQ(found.ValueOrDie(), f);
    EXPECT_TRUE(std::ranges::equal(actual.VotesOnFact(f),
                                   expected.VotesOnFact(f)))
        << "VotesOnFact(" << f << ")";
  }
}

/// Applies `deltas` both ways and requires structural equality.
void ExpectApplyMatchesReference(const Dataset& base,
                                 std::span<const WalRecord> deltas) {
  Result<Dataset> applied = ApplyDeltasToDataset(base, deltas);
  Result<Dataset> reference = RebuildReference(base, deltas);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ExpectSameDataset(applied.ValueOrDie(), reference.ValueOrDie());
}

/// A delta stream over a MakeRandomDataset base: names are drawn from
/// the base's "s<k>"/"f<k>" and a few past its end, so a batch mixes
/// overwrites, inserts, erasures and new registrations.
std::vector<WalRecord> MakeMixedDeltas(uint64_t seed, const Dataset& base,
                                       int count) {
  Rng rng(seed);
  std::vector<WalRecord> deltas;
  deltas.reserve(count);
  for (int i = 0; i < count; ++i) {
    const std::string source =
        "s" + std::to_string(rng.UniformInt(0, base.num_sources() + 2));
    const std::string fact =
        "f" + std::to_string(rng.UniformInt(0, base.num_facts() + 4));
    const double roll = rng.NextDouble();
    if (roll < 0.05) {
      deltas.push_back(MakeAddSource(source));
    } else if (roll < 0.35) {
      deltas.push_back(MakeRetractVote(source, fact));
    } else {
      deltas.push_back(MakeAddVote(
          source, fact, rng.Bernoulli(0.5) ? Vote::kFalse : Vote::kTrue));
    }
  }
  return deltas;
}

/// 3 sources x 4 facts, every pair voted.
Dataset FullThreeByFour() {
  DatasetBuilder builder;
  for (int s = 0; s < 3; ++s) {
    for (int f = 0; f < 4; ++f) {
      builder.SetVoteByName("s" + std::to_string(s), "f" + std::to_string(f),
                            (s + f) % 3 == 0 ? Vote::kFalse : Vote::kTrue);
    }
  }
  return builder.Build();
}

TEST(DeltaApplyTest, EmptyDeltaSpanReproducesBaseExactly) {
  const Dataset base = proptest::MakeRandomDataset(0xC0FFEE);
  Result<Dataset> rebuilt = ApplyDeltasToDataset(base, {});
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(CanonicalCsv(rebuilt.ValueOrDie()), CanonicalCsv(base));
}

TEST(DeltaApplyTest, AddVoteLastWriterWins) {
  DatasetBuilder builder;
  builder.AddSource("s0");
  builder.AddFact("f0");
  const Dataset base = builder.Build();
  const std::vector<WalRecord> deltas = {
      MakeAddVote("s0", "f0", Vote::kTrue),
      MakeAddVote("s0", "f0", Vote::kFalse),
  };
  Result<Dataset> rebuilt = ApplyDeltasToDataset(base, deltas);
  ASSERT_TRUE(rebuilt.ok());
  // Only the final vote survives; a batch build with just that vote
  // must serialize identically.
  DatasetBuilder expected;
  expected.AddSource("s0");
  expected.AddFact("f0");
  ASSERT_TRUE(expected.SetVote(0, 0, Vote::kFalse).ok());
  EXPECT_EQ(CanonicalCsv(rebuilt.ValueOrDie()),
            CanonicalCsv(expected.Build()));
}

TEST(DeltaApplyTest, RetractionOfUnknownNamesIsANoOp) {
  DatasetBuilder builder;
  builder.AddSource("s0");
  builder.AddFact("f0");
  ASSERT_TRUE(builder.SetVote(0, 0, Vote::kTrue).ok());
  const Dataset base = builder.Build();
  const std::vector<WalRecord> deltas = {
      MakeRetractVote("never-seen-source", "f0"),
      MakeRetractVote("s0", "never-seen-fact"),
  };
  Result<Dataset> rebuilt = ApplyDeltasToDataset(base, deltas);
  ASSERT_TRUE(rebuilt.ok());
  // The unknown names must NOT have been registered.
  EXPECT_EQ(rebuilt.ValueOrDie().num_sources(), 1);
  EXPECT_EQ(rebuilt.ValueOrDie().num_facts(), 1);
  EXPECT_EQ(CanonicalCsv(rebuilt.ValueOrDie()), CanonicalCsv(base));
}

TEST(DeltaApplyTest, RetractionErasesTheVoteButKeepsTheNames) {
  DatasetBuilder builder;
  builder.AddSource("s0");
  builder.AddFact("f0");
  ASSERT_TRUE(builder.SetVote(0, 0, Vote::kTrue).ok());
  const Dataset base = builder.Build();
  const std::vector<WalRecord> deltas = {MakeRetractVote("s0", "f0")};
  Result<Dataset> rebuilt = ApplyDeltasToDataset(base, deltas);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.ValueOrDie().num_votes(), 0);
  EXPECT_EQ(rebuilt.ValueOrDie().num_sources(), 1);
  EXPECT_EQ(rebuilt.ValueOrDie().num_facts(), 1);
}

TEST(DeltaApplyTest, SnapshotMarkerIsRejected) {
  WalRecord marker;
  marker.type = WalRecordType::kSnapshotMarker;
  const std::vector<WalRecord> deltas = {marker};
  Result<Dataset> rebuilt = ApplyDeltasToDataset(Dataset(), deltas);
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaApplyTest, FoldingOneAtATimeEqualsOneShotApplication) {
  // Metamorphic: applying deltas record by record (the recovery path
  // taken after every crash) must equal applying the whole span at
  // once (the batch path). Exercised over random bases and streams.
  ForEachSeed(0x57A8C21D, 10, [](uint64_t seed) {
    const Dataset base = proptest::MakeRandomDataset(seed);
    const std::vector<WalRecord> deltas = MakeRandomDeltas(seed ^ 0xABCD, 40);
    Result<Dataset> one_shot = ApplyDeltasToDataset(base, deltas);
    ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();

    Result<Dataset> folded = ApplyDeltasToDataset(base, {});
    ASSERT_TRUE(folded.ok());
    for (const WalRecord& delta : deltas) {
      folded = ApplyDeltasToDataset(folded.ValueOrDie(),
                                    std::span<const WalRecord>(&delta, 1));
      ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    }
    EXPECT_EQ(CanonicalCsv(folded.ValueOrDie()),
              CanonicalCsv(one_shot.ValueOrDie()));
  });
}

/// Removes every file in `dir` and the directory itself.
void RemoveWalDir(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return;
  std::vector<std::string> names;
  for (struct dirent* entry = ::readdir(handle); entry != nullptr;
       entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(handle);
  for (const std::string& name : names) {
    ::unlink((dir + "/" + name).c_str());
  }
  ::rmdir(dir.c_str());
}

TEST(DeltaApplyTest, CrashPrefixReplayEqualsBatchRebuildAtBothThreadCounts) {
  // The full WAL contract end to end: log a delta stream, simulate
  // kill -9 by truncating the segment at arbitrary byte cuts, recover,
  // and require the recovered dataset to be bit-identical to a batch
  // rebuild from the surviving prefix — and to corroborate
  // bit-identically at 1 and 4 run threads.
  const std::string dir =
      ::testing::TempDir() + "/delta_apply_crash_prefix";
  const std::vector<WalRecord> deltas = MakeRandomDeltas(0xFEED5EED, 30);

  RemoveWalDir(dir);
  WalOptions options;
  options.fsync_policy = WalFsyncPolicy::kNever;
  {
    Result<WalWriter> writer = WalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const WalRecord& delta : deltas) {
      ASSERT_TRUE(writer.ValueOrDie().Append(delta).ok());
    }
  }
  const std::string segment = dir + "/" + wal_internal::SegmentFileName(0);
  Result<std::string> full = ReadFileToString(segment);
  ASSERT_TRUE(full.ok());
  const std::string intact = full.ValueOrDie();

  // Sample cuts across the whole byte range, including mid-record
  // positions; step 7 is coprime with the record framing so cuts land
  // everywhere relative to record boundaries.
  for (size_t cut = 0; cut <= intact.size(); cut += 7) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    RemoveWalDir(dir);
    {
      Result<WalWriter> writer = WalWriter::Open(dir, options);
      ASSERT_TRUE(writer.ok());
    }
    ASSERT_TRUE(WriteStringToFile(
                    segment, std::string_view(intact).substr(0, cut))
                    .ok());
    WalRecovery recovery;
    Result<WalWriter> reopened = WalWriter::Open(dir, options, &recovery);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    const std::vector<WalRecord> survived = recovery.Mutations();
    ASSERT_LE(survived.size(), deltas.size());
    for (size_t i = 0; i < survived.size(); ++i) {
      ASSERT_EQ(survived[i], deltas[i]) << "record " << i;
    }

    Result<Dataset> recovered = DatasetFromWalRecovery(recovery);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    Result<Dataset> batch = ApplyDeltasToDataset(
        Dataset(), std::span<const WalRecord>(survived));
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(CanonicalCsv(recovered.ValueOrDie()),
              CanonicalCsv(batch.ValueOrDie()));

    // Corroboration over the recovered dataset is thread-count
    // invariant, so an operator can restart with a different
    // --threads and still serve identical bytes.
    if (recovered.ValueOrDie().num_votes() == 0) continue;
    CorroborationResult results[2];
    const int thread_counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      CorroboratorOptions run_options;
      run_options.num_threads = thread_counts[i];
      Result<std::unique_ptr<Corroborator>> method =
          MakeCorroborator("TwoEstimate", run_options);
      ASSERT_TRUE(method.ok());
      Result<CorroborationResult> run =
          method.ValueOrDie()->Run(recovered.ValueOrDie());
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      results[i] = std::move(run).ValueOrDie();
    }
    ExpectBitIdentical(results[0].fact_probability,
                       results[1].fact_probability, "fact_probability");
    ExpectBitIdentical(results[0].source_trust, results[1].source_trust,
                       "source_trust");
  }
  RemoveWalDir(dir);
}

TEST(DeltaApplyTest, RecoveryWithSnapshotUsesItAsTheBase) {
  const std::string dir = ::testing::TempDir() + "/delta_apply_snapshot";
  RemoveWalDir(dir);
  WalOptions options;
  options.fsync_policy = WalFsyncPolicy::kNever;
  Result<WalWriter> writer = WalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());

  // Build a dataset, snapshot its CSV, then log one more delta.
  DatasetBuilder builder;
  builder.AddSource("s0");
  builder.AddFact("f0");
  ASSERT_TRUE(builder.SetVote(0, 0, Vote::kTrue).ok());
  const Dataset snapshot_state = builder.Build();
  ASSERT_TRUE(
      writer.ValueOrDie().Compact(DatasetToCsv(snapshot_state), 1).ok());
  ASSERT_TRUE(writer.ValueOrDie()
                  .Append(MakeAddVote("s1", "f0", Vote::kFalse))
                  .ok());
  writer = Status::FailedPrecondition("closed");

  Result<WalRecovery> recovery = InspectWal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  ASSERT_TRUE(recovery.ValueOrDie().has_snapshot);
  Result<Dataset> recovered = DatasetFromWalRecovery(recovery.ValueOrDie());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  Result<Dataset> expected = ApplyDeltasToDataset(
      snapshot_state,
      std::vector<WalRecord>{MakeAddVote("s1", "f0", Vote::kFalse)});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(CanonicalCsv(recovered.ValueOrDie()),
            CanonicalCsv(expected.ValueOrDie()));
  RemoveWalDir(dir);
}

TEST(DeltaApplyTest, IncrementalApplyEqualsFullRebuild) {
  ForEachSeed(0x1CE4A11, 40, [](uint64_t seed) {
    const Dataset base = proptest::MakeRandomDataset(seed);
    ExpectApplyMatchesReference(base, MakeRandomDeltas(seed ^ 0x5EED, 40));
    ExpectApplyMatchesReference(base, MakeMixedDeltas(seed ^ 0xD17A, base, 60));
    ExpectApplyMatchesReference(Dataset(), MakeMixedDeltas(seed, base, 30));
  });
}

TEST(DeltaApplyTest, ChainedAppliesEqualOneFullRebuild) {
  ForEachSeed(0xC4A1ED, 10, [](uint64_t seed) {
    const Dataset base = proptest::MakeRandomDataset(seed);
    std::vector<WalRecord> all;
    Dataset current = base;
    for (int batch = 0; batch < 8; ++batch) {
      const std::vector<WalRecord> deltas =
          MakeMixedDeltas(seed + static_cast<uint64_t>(batch), base, 16);
      all.insert(all.end(), deltas.begin(), deltas.end());
      Result<Dataset> next = ApplyDeltasToDataset(current, deltas);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      current = std::move(next).ValueOrDie();
    }
    Result<Dataset> reference = RebuildReference(base, all);
    ASSERT_TRUE(reference.ok());
    ExpectSameDataset(current, reference.ValueOrDie());
  });
}

TEST(DeltaApplyTest, EmptyBatchMatchesReferenceAndBase) {
  const Dataset base = FullThreeByFour();
  ExpectApplyMatchesReference(base, {});
  ExpectApplyMatchesReference(Dataset(), {});
  Result<Dataset> applied = ApplyDeltasToDataset(base, {});
  ASSERT_TRUE(applied.ok());
  ExpectSameDataset(applied.ValueOrDie(), base);
}

TEST(DeltaApplyTest, FlipOnTheLastFactAndLastSource) {
  const Dataset base = FullThreeByFour();
  ASSERT_EQ(base.GetVote(2, 3), Vote::kTrue);
  const std::vector<WalRecord> deltas = {
      MakeAddVote("s2", "f3", Vote::kFalse)};
  ExpectApplyMatchesReference(base, deltas);
  Result<Dataset> applied = ApplyDeltasToDataset(base, deltas);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.ValueOrDie().GetVote(2, 3), Vote::kFalse);
  EXPECT_EQ(applied.ValueOrDie().num_votes(), base.num_votes());
}

TEST(DeltaApplyTest, RetractThenReAddOfOnePairInOneBatch) {
  const Dataset base = FullThreeByFour();
  const std::vector<WalRecord> deltas = {
      MakeRetractVote("s1", "f1"),
      MakeAddVote("s1", "f1", Vote::kFalse),
  };
  ExpectApplyMatchesReference(base, deltas);
  Result<Dataset> applied = ApplyDeltasToDataset(base, deltas);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.ValueOrDie().GetVote(1, 1), Vote::kFalse);
  EXPECT_EQ(applied.ValueOrDie().num_votes(), base.num_votes());
}

TEST(DeltaApplyTest, AddSourceThenRetractionNamingItInOneBatch) {
  const Dataset base = FullThreeByFour();
  const std::vector<WalRecord> deltas = {
      MakeAddSource("s-new"),
      MakeRetractVote("s-new", "f0"),
  };
  ExpectApplyMatchesReference(base, deltas);
  Result<Dataset> applied = ApplyDeltasToDataset(base, deltas);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.ValueOrDie().num_sources(), base.num_sources() + 1);
  EXPECT_EQ(applied.ValueOrDie().num_votes(), base.num_votes());
  EXPECT_TRUE(applied.ValueOrDie().VotesBySource(3).empty());
}

TEST(DeltaApplyTest, AddVoteEqualToTheBaseVoteChangesNothing) {
  const Dataset base = FullThreeByFour();
  const std::vector<WalRecord> deltas = {
      MakeAddVote("s0", "f0", base.GetVote(0, 0))};
  ExpectApplyMatchesReference(base, deltas);
  Result<Dataset> applied = ApplyDeltasToDataset(base, deltas);
  ASSERT_TRUE(applied.ok());
  ExpectSameDataset(applied.ValueOrDie(), base);
}

TEST(DeltaApplyTest, BatchOfOnlyNewFacts) {
  const Dataset base = FullThreeByFour();
  const std::vector<WalRecord> deltas = {
      MakeAddVote("s2", "f-new-0", Vote::kTrue),
      MakeAddVote("s0", "f-new-1", Vote::kFalse),
      MakeAddVote("s1", "f-new-0", Vote::kFalse),
  };
  ExpectApplyMatchesReference(base, deltas);
  Result<Dataset> applied = ApplyDeltasToDataset(base, deltas);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(applied.ValueOrDie().num_facts(), base.num_facts() + 2);
  EXPECT_EQ(applied.ValueOrDie().num_votes(), base.num_votes() + 3);
}

TEST(DeltaApplyTest, ApplyLeavesTheBaseGenerationUnchanged) {
  ForEachSeed(0xBA5E, 5, [](uint64_t seed) {
    const Dataset base = proptest::MakeRandomDataset(seed);
    const Dataset before = base;
    const std::string csv_before = CanonicalCsv(base);
    Result<Dataset> applied =
        ApplyDeltasToDataset(base, MakeMixedDeltas(seed, base, 60));
    ASSERT_TRUE(applied.ok());
    EXPECT_EQ(CanonicalCsv(base), csv_before);
    ExpectSameDataset(base, before);
  });
}

TEST(DeltaApplyTest, BatchWithoutNewNamesSharesTheNameTables) {
  const Dataset base = FullThreeByFour();
  Result<Dataset> flipped = ApplyDeltasToDataset(
      base, std::vector<WalRecord>{MakeAddVote("s0", "f1", Vote::kFalse),
                                   MakeRetractVote("s2", "f2")});
  ASSERT_TRUE(flipped.ok());
  EXPECT_EQ(&flipped.ValueOrDie().fact_name(0), &base.fact_name(0));
  EXPECT_EQ(&flipped.ValueOrDie().source_name(0), &base.source_name(0));

  // A new source copies only the source table.
  Result<Dataset> extended = ApplyDeltasToDataset(
      base, std::vector<WalRecord>{MakeAddVote("s-new", "f1", Vote::kTrue)});
  ASSERT_TRUE(extended.ok());
  EXPECT_EQ(&extended.ValueOrDie().fact_name(0), &base.fact_name(0));
  EXPECT_NE(&extended.ValueOrDie().source_name(0), &base.source_name(0));
}

/// Order-sensitive digest of every name and vote span of `dataset`.
uint64_t DigestDataset(const Dataset& dataset) {
  uint64_t digest = 1469598103934665603ULL;
  auto mix = [&digest](uint64_t value) {
    digest = (digest ^ value) * 1099511628211ULL;
  };
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    mix(std::hash<std::string>{}(dataset.source_name(s)));
    for (const FactVote& vote : dataset.VotesBySource(s)) {
      mix(static_cast<uint64_t>(vote.fact) * 4 +
          static_cast<uint64_t>(vote.vote == Vote::kTrue));
    }
  }
  for (FactId f = 0; f < dataset.num_facts(); ++f) {
    mix(std::hash<std::string>{}(dataset.fact_name(f)));
    for (const SourceVote& vote : dataset.VotesOnFact(f)) {
      mix(static_cast<uint64_t>(vote.source) * 4 +
          static_cast<uint64_t>(vote.vote == Vote::kTrue));
    }
  }
  return digest;
}

TEST(DeltaApplyTest, ReadersOfAHeldGenerationRaceChainedApplies) {
  // A served generation stays readable, unchanged, while later
  // generations that share its name tables are derived and dropped.
  const Dataset held = proptest::MakeRandomDataset(0x4EAD);
  const uint64_t expected = DigestDataset(held);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      do {
        EXPECT_EQ(DigestDataset(held), expected);
      } while (!done.load(std::memory_order_acquire));
    });
  }
  Result<Dataset> current = ApplyDeltasToDataset(held, {});
  for (int i = 0; i < 50 && current.ok(); ++i) {
    const std::vector<WalRecord> deltas =
        MakeMixedDeltas(static_cast<uint64_t>(i), held, 16);
    current = ApplyDeltasToDataset(current.ValueOrDie(), deltas);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  ASSERT_TRUE(current.ok()) << current.status().ToString();
  EXPECT_EQ(DigestDataset(held), expected);
}

}  // namespace
}  // namespace corrob
