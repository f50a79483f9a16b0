#include "cli/cli.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "common/budget.h"
#include "common/csv.h"
#include "common/failpoint.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/inc_estimate.h"
#include "core/online.h"
#include "core/online_checkpoint.h"
#include "core/delta_apply.h"
#include "core/registry.h"
#include "core/run_context.h"
#include "data/dataset_io.h"
#include "data/wal.h"
#include "data/dataset_stats.h"
#include "data/golden_io.h"
#include "eval/metrics.h"
#include "eval/report_io.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "synth/hubdub_sim.h"
#include "synth/restaurant_sim.h"
#include "synth/synthetic.h"
#include "text/dedup.h"

namespace corrob {

namespace {

constexpr char kHelp[] = R"(corrob — truth discovery from conflicting web sources
(reproduction of Wu & Marian, "Corroborating Facts from Affirmative
Statements", EDBT 2014)

USAGE
  corrob run      --input data.csv --algorithm IncEstHeu
                  [--output results.csv] [--trust trust.csv]
                  [--telemetry run.json]
      Corroborate a vote matrix; prints per-fact probabilities or
      writes them as CSV (fact,probability,decision). --method is an
      alias for --algorithm; names match case- and separator-
      insensitively (inc_est_heu == IncEstHeu). --telemetry records
      the run's convergence story (per-iteration trust deltas; for
      IncEst*, per-round group selections) as JSON.

  corrob eval     --input data.csv [--algorithm NAME | --all]
                  [--extended] [--golden golden.csv]
      Score algorithms against the dataset's __truth__ column, or
      against a hand-checked golden subset (CSV: fact,label).

  corrob stats    --input data.csv
      Coverage, overlap and vote statistics of a dataset.

  corrob generate --kind synthetic|restaurant|hubdub --output data.csv
                  [--facts N] [--sources N] [--inaccurate N]
                  [--eta F] [--seed N]
      Write a synthetic corpus (with ground truth) as CSV.

  corrob dedup    --input listings.csv --output data.csv
      Entity-resolve raw listings (columns: source,name,address,closed)
      into a vote matrix.

  corrob trajectory --input data.csv --output trust.csv
                    [--strategy IncEstHeu|IncEstPS]
      Run the incremental algorithm and write the per-round
      multi-value trust series (the Figure 2 data) as CSV.

  corrob compare  --input data.csv --left IncEstHeu --right Voting
                  [--show 20]
      Run two algorithms and report where and how they disagree
      (scored against __truth__ when the column is present).

  corrob stream   --input data.csv [--output results.csv]
                  [--checkpoint state.snap [--checkpoint-every 100]
                   [--resume]] [--trust trust.csv]
                  [--initial-trust F] [--trust-prior-weight F]
                  [--tie-margin F]
      Corroborate facts one at a time in arrival (row) order with the
      streaming algorithm, periodically snapshotting trust state to
      --checkpoint. With --resume, restores the snapshot and continues
      from the first unobserved fact; the finished trust state is
      bit-identical to an uninterrupted run over the same stream. The
      decision/deferral counters travel with the checkpoint, so a
      resumed run's running stats continue instead of restarting at
      zero. --telemetry <file> writes them as JSON at the end.

  corrob explain  telemetry.json
      Render a --telemetry file as a table: one row per IncEstimate
      selection round (kind, group signatures, |FG+|, |FG-|, ΔH,
      committed n) or per fixpoint iteration (max trust delta,
      trust distribution).

  corrob wal-inspect --dir wal/flights [--export-csv state.csv]
      Read-only inspection of a corrobd write-ahead vote-delta log:
      segment count, record tallies by type, snapshot presence, and
      whether the final segment ends in a torn (partial) record. A
      torn tail is reported, never repaired — only corrobd's own
      recovery truncates. --export-csv replays snapshot + deltas into
      the dataset CSV corrobd would serve after restart.

  corrob help
      This text.

GLOBAL FLAGS
  --lenient
      Skip malformed dataset rows (reported on stderr) instead of
      failing the whole load. Strict parsing remains the default.
  --threads N
      Worker threads for the iterative corroborators' update sweeps
      (default: the hardware concurrency). Results are bit-identical
      at any value; --threads 1 is the sequential legacy path.
  --failpoint <name>=<mode>[:opt...][,<name>=...]
      Arm fault-injection points for testing, e.g.
      --failpoint cli.stream.observe=fail:1:skip=500
      modes: off | fail[:N] | prob:P   opts: code=<Status>|skip=N|seed=N
  --trace <file>
      Record Chrome trace_event JSON for the whole command; open the
      file in chrome://tracing or https://ui.perfetto.dev.
  --metrics <file>
      Write a JSON snapshot of the process metrics (counters, gauges,
      histograms) accumulated by the command.
  --timeout-ms N
      Wall-clock budget for the corroboration work. On expiry the run
      stops at its next iteration/round boundary and reports its
      best-so-far answer (`corrob stream` checkpoints and exits 0).
  --max-rounds N
      Cap fixpoint iterations / Gibbs sweeps / IncEstimate selection
      rounds; for `corrob stream`, total observed facts.
  --max-memory-mb N
      Refuse fixpoint runs whose CSR + CSC vote arrays exceed this size.
  --max-facts-per-round N
      Cap how many facts one IncEstimate round may commit.

  Ctrl-C (SIGINT/SIGTERM) requests the same graceful stop as an
  expired deadline: in-flight results are finalized best-so-far and
  `corrob stream` saves its checkpoint before exiting 0. A second
  signal hard-exits with status 130.

DATASET CSV
  fact,<source1>,...,<sourceN>[,__truth__]   with cells T, F or '-'.

ALGORITHMS
  Voting Counting TwoEstimate ThreeEstimate BayesEstimate IncEstPS
  IncEstHeu, plus extended baselines: Cosine TruthFinder AvgLog
  Invest PooledInvest.
)";

int Fail(std::ostream& err, const Status& status) {
  err << "corrob: " << status.ToString() << "\n";
  return 1;
}

int Fail(std::ostream& err, const std::string& message) {
  err << "corrob: " << message << "\n";
  return 1;
}

/// Reads the global --threads flag (default: hardware concurrency).
/// Zero, negative and non-numeric values are usage errors, not aborts.
Result<CorroboratorOptions> SharedOptions(const FlagParser& flags) {
  CORROB_ASSIGN_OR_RETURN(
      int64_t threads, flags.TryGetInt("threads", DefaultThreadCount()));
  if (threads < 1) {
    return Status::InvalidArgument(
        "--threads must be a positive integer, got " +
        std::to_string(threads));
  }
  CorroboratorOptions options;
  options.num_threads = static_cast<int>(threads);
  return options;
}

/// Builds the execution budget shared by every subcommand from the
/// global --timeout-ms / --max-rounds / --max-memory-mb /
/// --max-facts-per-round flags, parented on the process shutdown
/// token so Ctrl-C cancels in-flight work at its next boundary.
Result<RunContext> BuildRunContext(const FlagParser& flags) {
  RunContext context;
  context.WithCancellation(&ProcessShutdownToken());
  CORROB_ASSIGN_OR_RETURN(int64_t timeout_ms,
                          flags.TryGetInt("timeout-ms", 0));
  if (timeout_ms < 0) {
    return Status::InvalidArgument("--timeout-ms must be >= 0, got " +
                                   std::to_string(timeout_ms));
  }
  if (timeout_ms > 0) {
    context.WithDeadline(Deadline::AfterMs(
        obs::MonotonicClock::Get(), static_cast<double>(timeout_ms)));
  }
  ResourceBudget budget;
  CORROB_ASSIGN_OR_RETURN(int64_t memory_mb,
                          flags.TryGetInt("max-memory-mb", 0));
  CORROB_ASSIGN_OR_RETURN(budget.max_rounds,
                          flags.TryGetInt("max-rounds", 0));
  CORROB_ASSIGN_OR_RETURN(budget.max_facts_per_round,
                          flags.TryGetInt("max-facts-per-round", 0));
  budget.max_vote_matrix_bytes = memory_mb * (1024 * 1024);
  CORROB_RETURN_NOT_OK(ValidateResourceBudget(budget));
  context.WithBudget(budget);
  return context;
}

/// Reports an early termination (deadline, Ctrl-C, exhausted budget)
/// on `err` — the decisions CSV may go to `out` — and records the
/// signal-to-return cancellation latency histogram.
void NoteTermination(const CorroborationResult& result, std::ostream& err) {
  if (!TerminatedEarly(result.termination)) return;
  err << "corrob: " << result.algorithm << " terminated early ("
      << TerminationName(result.termination)
      << "); results are the best-so-far state after " << result.iterations
      << " iteration(s)\n";
  if (result.termination == Termination::kCancelled) {
    const int64_t cancelled_at = ProcessShutdownToken().cancelled_at_nanos();
    if (cancelled_at > 0) {
      const int64_t now = obs::MonotonicClock::Get()->NowNanos();
      obs::MetricsRegistry::Global()
          .GetHistogram("corrob.budget.cancel_latency_ms")
          ->Record((now - cancelled_at) / 1000000);
    }
  }
}

Result<LabeledDataset> LoadInput(const FlagParser& flags,
                                 std::ostream& err) {
  std::string path = flags.GetString("input", "");
  if (path.empty()) {
    return Status::InvalidArgument("--input is required");
  }
  DatasetCsvOptions options;
  options.lenient = flags.GetBool("lenient", false);
  options.cancel = &ProcessShutdownToken();
  ParseReport report;
  auto loaded = LoadDatasetCsv(path, options, &report);
  if (loaded.ok() && options.lenient && !report.AllRowsLoaded()) {
    err << "corrob: " << path << ": " << report.ToString() << "\n";
  }
  return loaded;
}

/// --algorithm, with --method accepted as an alias (the paper's term).
/// --algorithm wins when both are given.
std::string AlgorithmFlag(const FlagParser& flags,
                          const std::string& fallback) {
  if (flags.Has("algorithm")) return flags.GetString("algorithm", fallback);
  return flags.GetString("method", fallback);
}

int CmdRun(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  auto loaded = LoadInput(flags, err);
  if (!loaded.ok()) return Fail(err, loaded.status());
  const Dataset& dataset = loaded.ValueOrDie().dataset;

  auto shared = SharedOptions(flags);
  if (!shared.ok()) return Fail(err, shared.status());
  const std::string telemetry_path = flags.GetString("telemetry", "");
  shared.ValueOrDie().collect_telemetry = !telemetry_path.empty();
  std::string algorithm_name = AlgorithmFlag(flags, "IncEstHeu");
  auto algorithm = MakeCorroborator(algorithm_name, shared.ValueOrDie());
  if (!algorithm.ok()) return Fail(err, algorithm.status());
  auto context = BuildRunContext(flags);
  if (!context.ok()) return Fail(err, context.status());
  auto result = algorithm.ValueOrDie()->Run(dataset, context.ValueOrDie());
  if (!result.ok()) return Fail(err, result.status());
  const CorroborationResult& corroboration = result.ValueOrDie();
  NoteTermination(corroboration, err);

  if (!telemetry_path.empty()) {
    if (corroboration.telemetry == nullptr) {
      return Fail(err, "algorithm '" + algorithm_name +
                           "' does not record telemetry (iterative "
                           "corroborators only)");
    }
    Status status = WriteStringToFile(
        telemetry_path,
        obs::TelemetryToJsonString(*corroboration.telemetry));
    if (!status.ok()) return Fail(err, status);
    out << "wrote telemetry to " << telemetry_path << "\n";
  }

  std::string output = flags.GetString("output", "");
  std::string decisions = DecisionsToCsv(dataset, corroboration);
  if (output.empty()) {
    out << decisions;
  } else {
    Status status = WriteStringToFile(output, decisions);
    if (!status.ok()) return Fail(err, status);
    out << "wrote " << dataset.num_facts() << " decisions to " << output
        << "\n";
  }

  std::string trust_path = flags.GetString("trust", "");
  if (!trust_path.empty()) {
    std::vector<std::vector<std::string>> trust_rows;
    trust_rows.push_back({"source", "trust"});
    for (SourceId s = 0; s < dataset.num_sources(); ++s) {
      trust_rows.push_back(
          {dataset.source_name(s),
           FormatDouble(corroboration.source_trust[static_cast<size_t>(s)],
                        4)});
    }
    Status status = WriteCsvFile(trust_path, trust_rows);
    if (!status.ok()) return Fail(err, status);
    out << "wrote source trust to " << trust_path << "\n";
  }
  return 0;
}

int CmdEval(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  auto loaded = LoadInput(flags, err);
  if (!loaded.ok()) return Fail(err, loaded.status());
  const LabeledDataset& labeled = loaded.ValueOrDie();
  GoldenSet golden;
  std::string golden_path = flags.GetString("golden", "");
  if (!golden_path.empty()) {
    auto parsed_golden = LoadGoldenCsv(golden_path, labeled.dataset);
    if (!parsed_golden.ok()) return Fail(err, parsed_golden.status());
    golden = std::move(parsed_golden).ValueOrDie();
  } else if (labeled.truth.has_value()) {
    golden = GoldenSet::FromFullTruth(*labeled.truth);
  } else {
    return Fail(err,
                "eval requires a complete __truth__ column or --golden");
  }

  std::vector<std::string> names;
  if (flags.Has("algorithm") || flags.Has("method")) {
    names.push_back(AlgorithmFlag(flags, ""));
  } else {
    names = CorroboratorNames();
    if (flags.GetBool("extended", false)) {
      for (const std::string& name : ExtendedCorroboratorNames()) {
        names.push_back(name);
      }
    }
  }

  auto shared = SharedOptions(flags);
  if (!shared.ok()) return Fail(err, shared.status());
  auto context = BuildRunContext(flags);
  if (!context.ok()) return Fail(err, context.status());
  TablePrinter table({"Algorithm", "Precision", "Recall", "Accuracy", "F-1"});
  for (const std::string& name : names) {
    auto algorithm = MakeCorroborator(name, shared.ValueOrDie());
    if (!algorithm.ok()) return Fail(err, algorithm.status());
    auto result =
        algorithm.ValueOrDie()->Run(labeled.dataset, context.ValueOrDie());
    if (!result.ok()) return Fail(err, result.status());
    NoteTermination(result.ValueOrDie(), err);
    BinaryMetrics metrics = EvaluateOnGolden(result.ValueOrDie(), golden);
    table.AddRow(name, {metrics.precision, metrics.recall, metrics.accuracy,
                        metrics.f1});
  }
  out << table.ToString();
  return 0;
}

int CmdStats(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  auto loaded = LoadInput(flags, err);
  if (!loaded.ok()) return Fail(err, loaded.status());
  const Dataset& dataset = loaded.ValueOrDie().dataset;

  out << "facts: " << dataset.num_facts()
      << "\nsources: " << dataset.num_sources()
      << "\nvotes: " << dataset.num_votes() << "\nfacts with F votes: "
      << CountFactsWithFalseVotes(dataset)
      << "\naffirmative-only fraction: "
      << FormatDouble(AffirmativeOnlyFraction(dataset), 4) << "\n\n";

  SourceStats stats = ComputeSourceStats(dataset);
  std::vector<int64_t> f_votes = CountFalseVotesBySource(dataset);
  TablePrinter table({"Source", "Coverage", "F votes"});
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    table.AddRow({dataset.source_name(s),
                  FormatDouble(stats.coverage[s], 4),
                  std::to_string(f_votes[s])});
  }
  out << table.ToString();
  return 0;
}

int CmdGenerate(const FlagParser& flags, std::ostream& out,
                std::ostream& err) {
  std::string output = flags.GetString("output", "");
  if (output.empty()) return Fail(err, "--output is required");
  std::string kind = flags.GetString("kind", "synthetic");
  uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  Dataset dataset;
  GroundTruth truth;
  if (kind == "synthetic") {
    SyntheticOptions options;
    options.num_facts = static_cast<int32_t>(flags.GetInt("facts", 20000));
    options.num_sources =
        static_cast<int32_t>(flags.GetInt("sources", 10));
    options.num_inaccurate =
        static_cast<int32_t>(flags.GetInt("inaccurate", 2));
    options.eta = flags.GetDouble("eta", 0.02);
    options.seed = seed;
    auto data = GenerateSynthetic(options);
    if (!data.ok()) return Fail(err, data.status());
    dataset = std::move(data.ValueOrDie().dataset);
    truth = std::move(data.ValueOrDie().truth);
  } else if (kind == "restaurant") {
    RestaurantSimOptions options;
    options.num_facts = static_cast<int32_t>(flags.GetInt("facts", 36916));
    options.seed = seed;
    auto data = GenerateRestaurantCorpus(options);
    if (!data.ok()) return Fail(err, data.status());
    dataset = std::move(data.ValueOrDie().dataset);
    truth = std::move(data.ValueOrDie().truth);
  } else if (kind == "hubdub") {
    HubdubSimOptions options;
    options.seed = seed;
    auto data = GenerateHubdub(options);
    if (!data.ok()) return Fail(err, data.status());
    dataset = data.ValueOrDie().WithNegativeClosure();
    truth = data.ValueOrDie().truth();
  } else {
    return Fail(err, "unknown --kind '" + kind +
                         "' (expected synthetic|restaurant|hubdub)");
  }

  Status status = SaveDatasetCsv(output, dataset, &truth);
  if (!status.ok()) return Fail(err, status);
  out << "wrote " << dataset.num_facts() << " facts x "
      << dataset.num_sources() << " sources to " << output << "\n";
  return 0;
}

int CmdDedup(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  std::string input = flags.GetString("input", "");
  std::string output = flags.GetString("output", "");
  if (input.empty() || output.empty()) {
    return Fail(err, "--input and --output are required");
  }
  auto doc = ReadCsvFile(input);
  if (!doc.ok()) return Fail(err, doc.status());
  const auto& rows = doc.ValueOrDie().rows;
  if (rows.empty() || rows[0] !=
                          std::vector<std::string>{"source", "name",
                                                   "address", "closed"}) {
    return Fail(err,
                "listings CSV must have header: source,name,address,closed");
  }
  std::vector<RawListing> listings;
  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() != 4) {
      return Fail(err, "row " + std::to_string(r) + " has " +
                           std::to_string(rows[r].size()) +
                           " cells, expected 4");
    }
    RawListing listing;
    listing.source = rows[r][0];
    listing.name = rows[r][1];
    listing.address = rows[r][2];
    std::string closed = ToLower(Trim(rows[r][3]));
    if (closed == "true" || closed == "1" || closed == "closed") {
      listing.closed = true;
    } else if (closed == "false" || closed == "0" || closed.empty()) {
      listing.closed = false;
    } else {
      return Fail(err, "bad closed cell '" + rows[r][3] + "' at row " +
                           std::to_string(r));
    }
    listings.push_back(std::move(listing));
  }

  auto dedup = Deduplicate(listings);
  if (!dedup.ok()) return Fail(err, dedup.status());
  Status status = SaveDatasetCsv(output, dedup.ValueOrDie().dataset);
  if (!status.ok()) return Fail(err, status);
  out << "deduplicated " << listings.size() << " listings into "
      << dedup.ValueOrDie().entities.size() << " entities; wrote " << output
      << "\n";
  return 0;
}

int CmdTrajectory(const FlagParser& flags, std::ostream& out,
                  std::ostream& err) {
  auto loaded = LoadInput(flags, err);
  if (!loaded.ok()) return Fail(err, loaded.status());
  std::string output = flags.GetString("output", "");
  if (output.empty()) return Fail(err, "--output is required");

  auto shared = SharedOptions(flags);
  if (!shared.ok()) return Fail(err, shared.status());
  IncEstimateOptions options;
  options.record_trajectory = true;
  options.num_threads = shared.ValueOrDie().num_threads;
  std::string strategy = flags.GetString("strategy", "IncEstHeu");
  if (strategy == "IncEstPS") {
    options.strategy = IncSelectStrategy::kProbability;
  } else if (strategy != "IncEstHeu") {
    return Fail(err, "unknown --strategy '" + strategy +
                         "' (expected IncEstHeu|IncEstPS)");
  }
  auto context = BuildRunContext(flags);
  if (!context.ok()) return Fail(err, context.status());
  IncEstimateCorroborator algorithm(options);
  auto result =
      algorithm.Run(loaded.ValueOrDie().dataset, context.ValueOrDie());
  if (!result.ok()) return Fail(err, result.status());
  NoteTermination(result.ValueOrDie(), err);
  Status status = SaveTrajectoryCsv(output, loaded.ValueOrDie().dataset,
                                    result.ValueOrDie());
  if (!status.ok()) return Fail(err, status);
  out << "wrote " << result.ValueOrDie().trajectory.size()
      << " time points to " << output << "\n";
  return 0;
}

int CmdCompare(const FlagParser& flags, std::ostream& out,
               std::ostream& err) {
  auto loaded = LoadInput(flags, err);
  if (!loaded.ok()) return Fail(err, loaded.status());
  const LabeledDataset& labeled = loaded.ValueOrDie();
  const Dataset& dataset = labeled.dataset;
  const std::string left_name = flags.GetString("left", "IncEstHeu");
  const std::string right_name = flags.GetString("right", "Voting");
  const int64_t show = flags.GetInt("show", 20);

  auto shared = SharedOptions(flags);
  if (!shared.ok()) return Fail(err, shared.status());
  auto context = BuildRunContext(flags);
  if (!context.ok()) return Fail(err, context.status());
  auto run = [&](const std::string& name) -> Result<CorroborationResult> {
    CORROB_ASSIGN_OR_RETURN(
        std::unique_ptr<Corroborator> algorithm,
        MakeCorroborator(name, shared.ValueOrDie()));
    CORROB_ASSIGN_OR_RETURN(CorroborationResult result,
                            algorithm->Run(dataset, context.ValueOrDie()));
    NoteTermination(result, err);
    return result;
  };
  auto left = run(left_name);
  if (!left.ok()) return Fail(err, left.status());
  auto right = run(right_name);
  if (!right.ok()) return Fail(err, right.status());

  int64_t disagreements = 0;
  int64_t left_right_on_disagreement = 0;
  TablePrinter table(labeled.truth.has_value()
                         ? std::vector<std::string>{"Fact", left_name,
                                                    right_name, "Truth"}
                         : std::vector<std::string>{"Fact", left_name,
                                                    right_name});
  for (FactId f = 0; f < dataset.num_facts(); ++f) {
    bool l = left.ValueOrDie().Decide(f);
    bool r = right.ValueOrDie().Decide(f);
    if (l == r) continue;
    ++disagreements;
    if (labeled.truth.has_value() && l == labeled.truth->IsTrue(f)) {
      ++left_right_on_disagreement;
    }
    if (disagreements <= show) {
      std::vector<std::string> row{dataset.fact_name(f),
                                   l ? "true" : "false",
                                   r ? "true" : "false"};
      if (labeled.truth.has_value()) {
        row.push_back(labeled.truth->IsTrue(f) ? "true" : "false");
      }
      table.AddRow(std::move(row));
    }
  }

  out << left_name << " vs " << right_name << ": " << disagreements
      << " of " << dataset.num_facts() << " facts decided differently ("
      << FormatDouble(dataset.num_facts() > 0
                          ? 100.0 * static_cast<double>(disagreements) /
                                static_cast<double>(dataset.num_facts())
                          : 0.0,
                      1)
      << "%).\n";
  if (labeled.truth.has_value() && disagreements > 0) {
    out << left_name << " is right on " << left_right_on_disagreement
        << " of the " << disagreements << " disagreements ("
        << FormatDouble(100.0 *
                            static_cast<double>(left_right_on_disagreement) /
                            static_cast<double>(disagreements),
                        1)
        << "%).\n";
  }
  if (disagreements > 0) {
    out << "\nFirst " << std::min<int64_t>(show, disagreements)
        << " disagreements:\n"
        << table.ToString();
  }
  return 0;
}

/// Observes facts [start, num_facts) in row order, checkpointing every
/// `checkpoint_every` facts. The failpoint "cli.stream.observe" is
/// checked before each observation so tests can kill the stream at an
/// exact fact index.
Status StreamFacts(const Dataset& dataset, OnlineCorroborator& online,
                   FactId start, const std::string& checkpoint_path,
                   int64_t checkpoint_every, const RunContext& context,
                   std::vector<std::vector<std::string>>& decision_rows,
                   std::optional<Termination>* interrupted) {
  for (FactId f = start; f < dataset.num_facts(); ++f) {
    // One observed fact is the stream's "round": the budget boundary
    // sits between facts, so the state at an interrupt is always an
    // exact prefix of the uninterrupted run and a later --resume
    // continues bit-identically.
    if (auto interrupt =
            context.CheckIterationBoundary(online.facts_observed())) {
      *interrupted = interrupt;
      return Status::OK();
    }
    CORROB_FAILPOINT("cli.stream.observe");
    auto votes = dataset.VotesOnFact(f);
    CORROB_ASSIGN_OR_RETURN(
        OnlineCorroborator::Verdict verdict,
        online.Observe(std::vector<SourceVote>(votes.begin(), votes.end())));
    decision_rows.push_back({dataset.fact_name(f),
                             FormatDouble(verdict.probability, 6),
                             verdict.decision ? "true" : "false"});
    if (!checkpoint_path.empty() &&
        online.facts_observed() % checkpoint_every == 0) {
      CORROB_RETURN_NOT_OK(SaveOnlineSnapshot(checkpoint_path, online));
    }
  }
  return Status::OK();
}

int CmdStream(const FlagParser& flags, std::ostream& out,
              std::ostream& err) {
  auto loaded = LoadInput(flags, err);
  if (!loaded.ok()) return Fail(err, loaded.status());
  const Dataset& dataset = loaded.ValueOrDie().dataset;

  const std::string checkpoint = flags.GetString("checkpoint", "");
  const int64_t checkpoint_every = flags.GetInt("checkpoint-every", 100);
  if (checkpoint_every <= 0) {
    return Fail(err, "--checkpoint-every must be positive");
  }
  const bool resume = flags.GetBool("resume", false);
  if (resume && checkpoint.empty()) {
    return Fail(err, "--resume requires --checkpoint");
  }

  OnlineCorroboratorOptions options;
  options.initial_trust =
      flags.GetDouble("initial-trust", options.initial_trust);
  options.trust_prior_weight =
      flags.GetDouble("trust-prior-weight", options.trust_prior_weight);
  options.tie_margin = flags.GetDouble("tie-margin", options.tie_margin);

  OnlineCorroborator online(options);
  FactId start = 0;
  if (resume) {
    auto restored = LoadOnlineSnapshot(checkpoint);
    if (!restored.ok()) return Fail(err, restored.status());
    online = std::move(restored).ValueOrDie();
    if (online.num_sources() != dataset.num_sources()) {
      return Fail(err, "checkpoint has " +
                           std::to_string(online.num_sources()) +
                           " sources but the dataset has " +
                           std::to_string(dataset.num_sources()));
    }
    for (SourceId s = 0; s < dataset.num_sources(); ++s) {
      if (online.source_name(s) != dataset.source_name(s)) {
        return Fail(err, "checkpoint source " + std::to_string(s) +
                             " is '" + online.source_name(s) +
                             "' but the dataset has '" +
                             dataset.source_name(s) + "'");
      }
    }
    if (online.facts_observed() > dataset.num_facts()) {
      return Fail(err, "checkpoint has observed " +
                           std::to_string(online.facts_observed()) +
                           " facts but the dataset only has " +
                           std::to_string(dataset.num_facts()));
    }
    start = static_cast<FactId>(online.facts_observed());
    out << "resumed from " << checkpoint << " at fact " << start << "\n";
  } else {
    for (SourceId s = 0; s < dataset.num_sources(); ++s) {
      online.AddSource(dataset.source_name(s));
    }
  }

  auto context = BuildRunContext(flags);
  if (!context.ok()) return Fail(err, context.status());
  std::vector<std::vector<std::string>> decision_rows;
  decision_rows.push_back({"fact", "probability", "decision"});
  std::optional<Termination> interrupted;
  Status streamed =
      StreamFacts(dataset, online, start, checkpoint, checkpoint_every,
                  context.ValueOrDie(), decision_rows, &interrupted);
  // Where interrupt state lands when no --checkpoint was given: a
  // per-(input, output) derived path, so concurrent streams sharing a
  // directory can never clobber each other's interrupt snapshot.
  const std::string output = flags.GetString("output", "");
  const std::string interrupt_checkpoint =
      checkpoint.empty()
          ? DeriveInterruptCheckpointPath(flags.GetString("input", ""),
                                          output)
          : checkpoint;
  if (!streamed.ok()) {
    // Best-effort final snapshot so an injected or real fault loses at
    // most the decisions CSV, never the trust state.
    Status saved = SaveOnlineSnapshot(interrupt_checkpoint, online);
    if (saved.ok()) {
      err << "corrob: stream interrupted; checkpoint saved to "
          << interrupt_checkpoint << " at fact "
          << online.facts_observed() << "\n";
    }
    return Fail(err, streamed);
  }
  if (!checkpoint.empty()) {
    Status saved = SaveOnlineSnapshot(checkpoint, online);
    if (!saved.ok()) return Fail(err, saved);
  }
  if (interrupted.has_value()) {
    // Graceful stop: the decisions so far still go out below and the
    // command exits 0 — the checkpoint carries the exact prefix state
    // for --resume (auto-derived when --checkpoint was not given).
    if (checkpoint.empty()) {
      Status saved = SaveOnlineSnapshot(interrupt_checkpoint, online);
      if (!saved.ok()) return Fail(err, saved);
    }
    err << "corrob: stream interrupted (" << TerminationName(*interrupted)
        << ") at fact " << online.facts_observed()
        << "; checkpoint saved, continue with --checkpoint "
        << interrupt_checkpoint << " --resume\n";
  }

  std::string decisions = WriteCsv(decision_rows);
  if (output.empty()) {
    out << decisions;
  } else {
    Status status = WriteStringToFile(output, decisions);
    if (!status.ok()) return Fail(err, status);
    out << "wrote " << decision_rows.size() - 1 << " decisions to "
        << output << "\n";
  }

  std::string trust_path = flags.GetString("trust", "");
  if (!trust_path.empty()) {
    std::vector<std::vector<std::string>> trust_rows;
    trust_rows.push_back({"source", "trust"});
    for (SourceId s = 0; s < online.num_sources(); ++s) {
      trust_rows.push_back(
          {online.source_name(s), FormatDouble(online.trust(s), 6)});
    }
    Status status = WriteCsvFile(trust_path, trust_rows);
    if (!status.ok()) return Fail(err, status);
    out << "wrote source trust to " << trust_path << "\n";
  }
  std::string telemetry_path = flags.GetString("telemetry", "");
  if (!telemetry_path.empty()) {
    // Counters only — they are deterministic and survive checkpoint
    // resume, so a resumed stream reports continuous totals.
    obs::JsonValue telemetry = obs::JsonValue::Object();
    telemetry.Set("schema",
                  obs::JsonValue::Str("corrob.stream_telemetry/1"));
    telemetry.Set("facts_observed",
                  obs::JsonValue::Int(online.facts_observed()));
    telemetry.Set("decisions_true",
                  obs::JsonValue::Int(online.decisions_true()));
    telemetry.Set("decisions_false",
                  obs::JsonValue::Int(online.decisions_false()));
    telemetry.Set("deferrals", obs::JsonValue::Int(online.deferrals()));
    telemetry.Set("num_sources", obs::JsonValue::Int(static_cast<int64_t>(
                                     online.num_sources())));
    Status status =
        WriteStringToFile(telemetry_path, telemetry.Dump(2) + "\n");
    if (!status.ok()) return Fail(err, status);
    out << "wrote stream telemetry to " << telemetry_path << "\n";
  }
  out << "observed " << online.facts_observed() << " facts ("
      << online.facts_observed() - start << " this run)\n";
  return 0;
}

/// Renders a --telemetry JSON file as tables: the run header, then one
/// row per IncEstimate round and/or per fixpoint iteration.
int CmdExplain(const FlagParser& flags, std::ostream& out,
               std::ostream& err) {
  std::string path = flags.GetString("input", "");
  if (path.empty() && !flags.positional().empty()) {
    path = flags.positional().front();
  }
  if (path.empty()) {
    return Fail(err, "usage: corrob explain <telemetry.json>");
  }
  auto bytes = ReadFileToString(path);
  if (!bytes.ok()) return Fail(err, bytes.status());
  obs::RunTelemetry telemetry;
  std::string error;
  if (!obs::TelemetryFromJsonString(bytes.ValueOrDie(), &telemetry,
                                    &error)) {
    return Fail(err, path + ": " + error);
  }

  out << telemetry.algorithm << " on " << telemetry.num_facts
      << " facts x " << telemetry.num_sources << " sources: "
      << telemetry.iterations
      << (telemetry.rounds.empty() ? " iterations" : " rounds") << ", "
      << (telemetry.converged ? "converged" : "did not converge") << "\n";

  if (!telemetry.rounds.empty()) {
    TablePrinter table({"Round", "Kind", "FG+ signature", "|FG+|", "dH+",
                        "FG- signature", "|FG-|", "dH-", "n", "Committed",
                        "Trust u"});
    for (const obs::IncRoundEvent& round : telemetry.rounds) {
      table.AddRow({std::to_string(round.round), round.kind,
                    round.positive_signature,
                    std::to_string(round.fg_positive),
                    FormatDouble(round.delta_h_positive, 4),
                    round.negative_signature,
                    std::to_string(round.fg_negative),
                    FormatDouble(round.delta_h_negative, 4),
                    std::to_string(round.committed_n),
                    std::to_string(round.facts_committed),
                    FormatDouble(round.trust_mean, 4)});
    }
    out << "\n" << table.ToString();
  }
  if (!telemetry.iteration_stats.empty()) {
    TablePrinter table({"Iter", "Max delta", "Trust min", "Trust mean",
                        "Trust max", "Facts"});
    for (const obs::IterationStats& stats : telemetry.iteration_stats) {
      table.AddRow({std::to_string(stats.iteration),
                    FormatDouble(stats.max_delta, 6),
                    FormatDouble(stats.trust_min, 4),
                    FormatDouble(stats.trust_mean, 4),
                    FormatDouble(stats.trust_max, 4),
                    std::to_string(stats.facts_committed)});
    }
    out << "\n" << table.ToString();
  }
  if (telemetry.rounds.empty() && telemetry.iteration_stats.empty()) {
    out << "\n(no per-round or per-iteration records)\n";
  }
  return 0;
}

/// Read-only WAL inspection: tallies the log without repairing it
/// (InspectWal never truncates; only WalWriter::Open does).
int CmdWalInspect(const FlagParser& flags, std::ostream& out,
                  std::ostream& err) {
  std::string dir = flags.GetString("dir", "");
  if (dir.empty() && !flags.positional().empty()) {
    dir = flags.positional().front();
  }
  if (dir.empty()) {
    return Fail(err, "usage: corrob wal-inspect --dir <wal-directory>");
  }
  auto inspected = InspectWal(dir);
  if (!inspected.ok()) return Fail(err, inspected.status());
  const WalRecovery& recovery = inspected.ValueOrDie();

  int64_t add_sources = 0;
  int64_t add_votes = 0;
  int64_t retractions = 0;
  int64_t markers = 0;
  for (const WalRecord& record : recovery.records) {
    switch (record.type) {
      case WalRecordType::kAddSource:
        ++add_sources;
        break;
      case WalRecordType::kAddVote:
        ++add_votes;
        break;
      case WalRecordType::kRetractVote:
        ++retractions;
        break;
      case WalRecordType::kSnapshotMarker:
        ++markers;
        break;
    }
  }
  out << "wal: " << dir << "\n"
      << "segments: " << recovery.segments_scanned << "\n"
      << "snapshot: " << (recovery.has_snapshot ? "present" : "none")
      << "\n"
      << "records: " << recovery.records.size() << " (add-source "
      << add_sources << ", add-vote " << add_votes << ", retract "
      << retractions << ", snapshot-marker " << markers << ")\n";
  if (recovery.tail_truncated) {
    out << "torn tail: " << recovery.tail_bytes_dropped
        << " byte(s) of a partial final record (corrobd will truncate "
           "on its next recovery)\n";
  } else {
    out << "torn tail: none\n";
  }

  const std::string export_path = flags.GetString("export-csv", "");
  if (!export_path.empty()) {
    auto replayed = DatasetFromWalRecovery(recovery);
    if (!replayed.ok()) return Fail(err, replayed.status());
    const Dataset& dataset = replayed.ValueOrDie();
    Status written = SaveDatasetCsv(export_path, dataset);
    if (!written.ok()) return Fail(err, written);
    out << "exported " << dataset.num_facts() << " facts x "
        << dataset.num_sources() << " sources to " << export_path << "\n";
  }
  return 0;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << kHelp;
    return 0;
  }
  const std::string& command = args[0];

  std::vector<const char*> rest;
  rest.reserve(args.size() - 1);
  for (size_t i = 1; i < args.size(); ++i) rest.push_back(args[i].c_str());
  auto flags =
      FlagParser::Parse(static_cast<int>(rest.size()), rest.data());
  if (!flags.ok()) return Fail(err, flags.status());
  const FlagParser& parsed = flags.ValueOrDie();

  // Fault injection armed via --failpoint lives for this invocation
  // only; the disarmer keeps faults from leaking across RunCli calls
  // in one process (tests, embedding).
  std::optional<ScopedFailpointDisarmer> disarmer;
  if (parsed.Has("failpoint")) {
    disarmer.emplace();
    Status armed =
        Failpoints::ArmFromSpecList(parsed.GetString("failpoint", ""));
    if (!armed.ok()) return Fail(err, armed);
  }

  // Global observability: --trace records the whole command as
  // trace_event spans; --metrics snapshots the process counters after
  // it. Both reset their global sink first so one RunCli invocation
  // (tests and embedders call several per process) reports only its
  // own events.
  const std::string trace_path = parsed.GetString("trace", "");
  const std::string metrics_path = parsed.GetString("metrics", "");
  if (!trace_path.empty()) {
    obs::TraceRecorder::Global().Clear();
    obs::TraceRecorder::Global().Start();
  }
  if (!metrics_path.empty()) {
    obs::MetricsRegistry::Global().ResetAll();
  }

  int code = 1;
  if (command == "run") {
    code = CmdRun(parsed, out, err);
  } else if (command == "eval") {
    code = CmdEval(parsed, out, err);
  } else if (command == "stats") {
    code = CmdStats(parsed, out, err);
  } else if (command == "generate") {
    code = CmdGenerate(parsed, out, err);
  } else if (command == "dedup") {
    code = CmdDedup(parsed, out, err);
  } else if (command == "trajectory") {
    code = CmdTrajectory(parsed, out, err);
  } else if (command == "compare") {
    code = CmdCompare(parsed, out, err);
  } else if (command == "stream") {
    code = CmdStream(parsed, out, err);
  } else if (command == "explain") {
    code = CmdExplain(parsed, out, err);
  } else if (command == "wal-inspect") {
    code = CmdWalInspect(parsed, out, err);
  } else {
    if (!trace_path.empty()) obs::TraceRecorder::Global().Stop();
    return Fail(err, "unknown command '" + command +
                         "' (try `corrob help`)");
  }

  if (!trace_path.empty()) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    recorder.Stop();
    Status status =
        WriteStringToFile(trace_path, recorder.ToJsonString() + "\n");
    if (!status.ok()) return Fail(err, status);
    out << "wrote " << recorder.event_count() << " trace events to "
        << trace_path << "\n";
  }
  if (!metrics_path.empty()) {
    Status status = WriteStringToFile(
        metrics_path,
        obs::MetricsRegistry::Global().Snapshot().ToJsonString() + "\n");
    if (!status.ok()) return Fail(err, status);
    out << "wrote metrics to " << metrics_path << "\n";
  }
  return code;
}

}  // namespace corrob
