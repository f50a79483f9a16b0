// Google-benchmark micro-kernels for the hot paths: grouping, Eq. 5
// scoring, ΔH evaluation, fixpoint iterations, Gibbs sweeps, the
// client's read of a served answer, and the dedup text kernels.

#include <sys/socket.h>

#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include <benchmark/benchmark.h>

#include "common/budget.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/socket.h"
#include "core/bayes_estimate.h"
#include "core/cosine.h"
#include "core/delta_apply.h"
#include "core/run_context.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/shared_response.h"
#include "core/fact_group.h"
#include "core/inc_estimate.h"
#include "core/online.h"
#include "core/registry.h"
#include "core/three_estimate.h"
#include "core/truth_finder.h"
#include "core/two_estimate.h"
#include "core/voting.h"
#include "data/dataset_io.h"
#include "synth/restaurant_sim.h"
#include "synth/rumor_sim.h"
#include "synth/synthetic.h"
#include "text/address.h"
#include "text/phonetic.h"
#include "text/similarity.h"

namespace corrob {
namespace {

const SyntheticDataset& SharedSynthetic(int64_t facts) {
  static auto* cache = new std::map<int64_t, SyntheticDataset>();
  auto it = cache->find(facts);
  if (it == cache->end()) {
    SyntheticOptions options;
    options.num_facts = static_cast<int32_t>(facts);
    options.num_sources = 10;
    options.num_inaccurate = 2;
    options.eta = 0.02;
    options.seed = 77;
    it = cache->emplace(facts, GenerateSynthetic(options).ValueOrDie())
             .first;
  }
  return it->second;
}

void BM_BuildFactGroups(benchmark::State& state) {
  const SyntheticDataset& data = SharedSynthetic(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildFactGroups(data.dataset));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildFactGroups)->Arg(1000)->Arg(10000)->Arg(36916);

// The default 36,916-fact restaurant corpus: the shape of perfbench's
// cold_read workload.
const Dataset& SharedRestaurant() {
  static const Dataset* dataset = new Dataset(
      GenerateRestaurantCorpus(RestaurantSimOptions{}).ValueOrDie().dataset);
  return *dataset;
}

// The same build on the restaurant corpus: what corrobd does once per
// dataset generation, on its first IncEstimate request.
void BM_BuildFactGroupsRestaurant(benchmark::State& state) {
  const Dataset& dataset = SharedRestaurant();
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildFactGroups(dataset));
  }
  state.SetItemsProcessed(state.iterations() * dataset.num_facts());
}
BENCHMARK(BM_BuildFactGroupsRestaurant)->Unit(benchmark::kMillisecond);

// A whole IncEstHeu run on the restaurant corpus. /0 builds its own
// fact-group index, as `corrob run` does; /1 reads a prebuilt one, as
// every corrobd miss after the first at a generation does.
void BM_IncEstHeuRestaurant(benchmark::State& state) {
  const Dataset& dataset = SharedRestaurant();
  const FactGroupIndex index(dataset);
  RunContext context;
  if (state.range(0) == 1) context.WithFactGroups(&index);
  IncEstimateCorroborator inc_est;
  for (auto _ : state) {
    benchmark::DoNotOptimize(inc_est.Run(dataset, context).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * dataset.num_facts());
}
BENCHMARK(BM_IncEstHeuRestaurant)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_CorrobScore(benchmark::State& state) {
  const SyntheticDataset& data = SharedSynthetic(10000);
  std::vector<double> trust(10, 0.9);
  FactId f = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        CorrobScore(data.dataset.VotesOnFact(f), trust));
    f = (f + 1) % data.dataset.num_facts();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CorrobScore);

// One ΔH evaluation as IncEstHeu's candidate scan runs it: against
// the round's projection table, with a reused scratch.
void BM_EntropyDelta(benchmark::State& state) {
  const SyntheticDataset& data = SharedSynthetic(state.range(0));
  IncrementalEngine engine(data.dataset, IncEstimateOptions{});
  GroupProjection projection;
  if (!engine.ProjectGroups(nullptr, &projection, /*with_entropy=*/true)) {
    state.SkipWithError("projection interrupted");
    return;
  }
  EntropyScratch scratch;
  int32_t g = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.EntropyDelta(g, projection, &scratch));
    g = (g + 1) % engine.index().num_groups();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EntropyDelta)->Arg(1000)->Arg(10000);

void BM_VotingFull(benchmark::State& state) {
  const SyntheticDataset& data = SharedSynthetic(state.range(0));
  VotingCorroborator voting;
  for (auto _ : state) {
    benchmark::DoNotOptimize(voting.Run(data.dataset).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VotingFull)->Arg(10000)->Arg(36916);

void BM_TwoEstimateFull(benchmark::State& state) {
  const SyntheticDataset& data = SharedSynthetic(state.range(0));
  TwoEstimateCorroborator two_estimate;
  for (auto _ : state) {
    benchmark::DoNotOptimize(two_estimate.Run(data.dataset).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TwoEstimateFull)->Arg(10000)->Arg(36916);

// Per-iteration cost of the execution-budget machinery on the
// TwoEstimate sweep kernel (the acceptance bar is <= 2% for the
// disarmed arm; see bench_budget_overhead for the recorded number).
// All three arms run the same double-buffered fixpoint loop; they
// differ only in what the sweeps poll:
//   /0 unbounded — RunContext::Unbounded(): a null sweep stop, so no
//        polls at chunk boundaries;
//   /1 cancel-armed — a live CancellationToken that never fires:
//        relaxed-atomic polls at chunk boundaries;
//   /2 deadline-armed — a far-future deadline: arm /1 plus a
//        monotonic clock read per boundary poll.
void BM_TwoEstimateBudgetChecks(benchmark::State& state) {
  const SyntheticDataset& data = SharedSynthetic(100000);
  TwoEstimateCorroborator two_estimate;
  CancellationToken token;
  RunContext context;
  if (state.range(0) == 1) {
    context.WithCancellation(&token);
  } else if (state.range(0) == 2) {
    context.WithDeadline(
        Deadline::AfterMs(obs::MonotonicClock::Get(), 1e9));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        two_estimate.Run(data.dataset, context).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_TwoEstimateBudgetChecks)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Thread-scaling sweep for the parallel vote-matrix sweeps: same
// 100k-statement synthetic corpus at 1/2/4/8 worker threads. Results
// are bit-identical across rows (see the parity suite); only time
// should move. On a multicore host 4 threads should cut TwoEstimate
// wall time by >= 2x; a single-core host shows flat-to-slightly-worse
// timings (pool dispatch overhead with no parallel hardware).
void BM_TwoEstimateScaling(benchmark::State& state) {
  const SyntheticDataset& data = SharedSynthetic(100000);
  TwoEstimateOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  TwoEstimateCorroborator two_estimate(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(two_estimate.Run(data.dataset).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_TwoEstimateScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ThreeEstimateScaling(benchmark::State& state) {
  const SyntheticDataset& data = SharedSynthetic(100000);
  ThreeEstimateOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  ThreeEstimateCorroborator three_estimate(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(three_estimate.Run(data.dataset).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_ThreeEstimateScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_TruthFinderScaling(benchmark::State& state) {
  const SyntheticDataset& data = SharedSynthetic(100000);
  TruthFinderOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  TruthFinderCorroborator truth_finder(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(truth_finder.Run(data.dataset).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_TruthFinderScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CosineScaling(benchmark::State& state) {
  const SyntheticDataset& data = SharedSynthetic(100000);
  CosineOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  CosineCorroborator cosine(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cosine.Run(data.dataset).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_CosineScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Pasternack & Roth's fixpoints on the same corpus, sequential (they
// have no thread option): /0 AvgLog, /1 Invest, /2 PooledInvest, with
// the growth exponents the registry sets.
void BM_PasternackRun(benchmark::State& state) {
  const SyntheticDataset& data = SharedSynthetic(100000);
  static constexpr const char* kVariants[] = {"AvgLog", "Invest",
                                              "PooledInvest"};
  const std::unique_ptr<Corroborator> pasternack =
      MakeCorroborator(kVariants[state.range(0)]).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pasternack->Run(data.dataset).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_PasternackRun)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_IncEstHeuFull(benchmark::State& state) {
  const SyntheticDataset& data = SharedSynthetic(state.range(0));
  IncEstimateCorroborator inc_est;
  for (auto _ : state) {
    benchmark::DoNotOptimize(inc_est.Run(data.dataset).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IncEstHeuFull)->Arg(1000)->Arg(10000);

void BM_BayesGibbsSweeps(benchmark::State& state) {
  const SyntheticDataset& data = SharedSynthetic(5000);
  BayesEstimateOptions options;
  options.iterations = 20;
  options.burn_in = 5;
  BayesEstimateCorroborator bayes(options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bayes.Run(data.dataset).ValueOrDie());
  }
  // 20 sweeps over 5000 facts per run.
  state.SetItemsProcessed(state.iterations() * 20 * 5000);
}
BENCHMARK(BM_BayesGibbsSweeps);

void BM_OnlineObserve(benchmark::State& state) {
  const SyntheticDataset& data = SharedSynthetic(10000);
  OnlineCorroborator online;
  for (SourceId s = 0; s < data.dataset.num_sources(); ++s) {
    online.AddSource(data.dataset.source_name(s));
  }
  FactId f = 0;
  std::vector<SourceVote> votes;
  for (auto _ : state) {
    auto span = data.dataset.VotesOnFact(f);
    votes.assign(span.begin(), span.end());
    benchmark::DoNotOptimize(online.Observe(votes));
    f = (f + 1) % data.dataset.num_facts();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnlineObserve);

// One 16-flip delta batch on a synthetic corpus of Arg facts x 10
// sources: the corrobd write path's core step. The cost should follow
// the CSR/CSC bytes copied, not the number of names.
void BM_ApplyDelta(benchmark::State& state) {
  const Dataset& base = SharedSynthetic(state.range(0)).dataset;
  std::vector<WalRecord> batch;
  const FactId stride = base.num_facts() / 16;
  for (FactId f = 0; batch.size() < 16; f += stride) {
    const SourceVote& vote = base.VotesOnFact(f).front();
    batch.push_back(MakeAddVote(
        base.source_name(vote.source), base.fact_name(f),
        vote.vote == Vote::kTrue ? Vote::kFalse : Vote::kTrue));
  }
  for (auto _ : state) {
    Result<Dataset> next = ApplyDeltasToDataset(base, batch);
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_ApplyDelta)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(400000)
    ->Unit(benchmark::kMillisecond);

// Loading the 100k-fact x 10-source synthetic corpus from its CSV
// text (3.2 MB, with a __truth__ column): tokenize, validate, fold the
// vote log and lay out CSR/CSC. The text is made outside the timed
// loop; this is the ingest corrobd runs at startup and on reload.
void BM_ParseDatasetCsv(benchmark::State& state) {
  const SyntheticDataset& data = SharedSynthetic(100000);
  const std::string csv = DatasetToCsv(data.dataset, &data.truth);
  for (auto _ : state) {
    Result<LabeledDataset> loaded = ParseDatasetCsv(csv);
    benchmark::DoNotOptimize(loaded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(csv.size()));
}
BENCHMARK(BM_ParseDatasetCsv)->Unit(benchmark::kMillisecond);

// CRC-32 over Arg bytes: a small frame, a page, and the 800,117-byte
// hot_read corroborate response that every cache hit sends and every
// client verifies.
void BM_Crc32(benchmark::State& state) {
  std::string bytes(static_cast<size_t>(state.range(0)), '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 131 + 7) & 0xFF);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeCrc32(bytes));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(800117);

/// A corroborate answer of `facts` probabilities and 10 trust scores,
/// the shape of the 100k x 10 hot_read corpus's.
server::CorroborateResponse HotResponse(size_t facts) {
  server::CorroborateResponse response;
  response.algorithm = "TwoEstimate";
  response.iterations = 3;
  response.fact_probability.resize(facts);
  for (size_t i = 0; i < facts; ++i) {
    response.fact_probability[i] = static_cast<double>(i % 97) / 97.0;
  }
  response.source_trust.assign(10, 0.8);
  return response;
}

// The client's side of a cache hit: a writer thread answers each
// one-byte request with a cached SharedResponse through
// WriteSharedResponse (the daemon's hit path, request id attached),
// and the timed thread reads the frame and decodes it into an outcome
// exactly as CorrobClient::Corroborate does. Arg is the tagged payload
// size; 800117 is hot_read's.
void BM_ClientReadHit(benchmark::State& state) {
  const std::string request_id = "r-42";
  std::string empty_payload =
      server::EncodeCorroborateResponse(HotResponse(0));
  server::AttachRequestId(&empty_payload, request_id);
  const size_t facts =
      (static_cast<size_t>(state.range(0)) - empty_payload.size()) / 8;
  const server::SharedResponse cached = server::MakeSharedResponse(
      server::FrameType::kResultResponse,
      server::EncodeCorroborateResponse(HotResponse(facts)));
  int fds[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    state.SkipWithError("socketpair failed");
    return;
  }
  UniqueFd client(fds[0]);
  UniqueFd daemon(fds[1]);
  std::thread writer([&] {
    char request = 0;
    while (ReadExact(daemon.get(), &request, 1, StopSignal()).ok() &&
           server::WriteSharedResponse(daemon.get(), cached, request_id,
                                       StopSignal())
               .ok()) {
    }
  });
  const char request = 1;
  for (auto _ : state) {
    if (!WriteAll(client.get(), &request, 1, StopSignal()).ok()) break;
    Result<server::WireFrame> frame =
        server::ReadFrame(client.get(), StopSignal());
    if (!frame.ok()) {
      state.SkipWithError(frame.status().ToString().c_str());
      break;
    }
    Result<server::CorroborateOutcome> outcome =
        server::DecodeCorroborateOutcome(std::move(frame).ValueOrDie());
    benchmark::DoNotOptimize(outcome);
  }
  client.Reset();  // the writer's next read sees EOF
  writer.join();
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ClientReadHit)->Arg(800117)->UseRealTime();

// DecodeCorroborateResponse of an answer with Arg facts and 10
// sources: the payload decode inside every client read.
void BM_DecodeCorroborateResponse(benchmark::State& state) {
  const std::string payload = server::EncodeCorroborateResponse(
      HotResponse(static_cast<size_t>(state.range(0))));
  for (auto _ : state) {
    Result<server::CorroborateResponse> decoded =
        server::DecodeCorroborateResponse(payload);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_DecodeCorroborateResponse)->Arg(100000);

Status GuardedObserve(OnlineCorroborator& online,
                      const std::vector<SourceVote>& votes) {
  CORROB_FAILPOINT("bench.observe");
  return online.Observe(votes).status();
}

void BM_OnlineObserveThroughDisarmedFailpoint(benchmark::State& state) {
  // Same kernel as BM_OnlineObserve but every observation crosses a
  // failpoint site. With nothing armed this must match the plain
  // benchmark: the disarmed check is one relaxed atomic load.
  const SyntheticDataset& data = SharedSynthetic(10000);
  OnlineCorroborator online;
  for (SourceId s = 0; s < data.dataset.num_sources(); ++s) {
    online.AddSource(data.dataset.source_name(s));
  }
  FactId f = 0;
  std::vector<SourceVote> votes;
  for (auto _ : state) {
    auto span = data.dataset.VotesOnFact(f);
    votes.assign(span.begin(), span.end());
    benchmark::DoNotOptimize(GuardedObserve(online, votes));
    f = (f + 1) % data.dataset.num_facts();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OnlineObserveThroughDisarmedFailpoint);

// Observability overhead kernels. The instrumented hot paths cross
// these primitives on every call, so their disabled cost must stay in
// the noise: a span with tracing off is one relaxed atomic load, a
// sharded counter add is one relaxed fetch_add on a thread-local
// cache line. Compare BM_TwoEstimateFull before/after a tracing
// change for the end-to-end version of the same claim.
void BM_TraceSpanDisabled(benchmark::State& state) {
  for (auto _ : state) {
    CORROB_TRACE_SPAN("bench.overhead.span");
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_MetricsCounterAdd(benchmark::State& state) {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "bench.overhead.counter");
  for (auto _ : state) {
    counter->Add(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterAdd);

void BM_MetricsHistogramRecord(benchmark::State& state) {
  static obs::Histogram* histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "bench.overhead.histogram");
  int64_t value = 0;
  for (auto _ : state) {
    histogram->Record(value++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsHistogramRecord);

void BM_GenerateRumors(benchmark::State& state) {
  for (auto _ : state) {
    RumorSimOptions options;
    options.num_rumors = static_cast<int32_t>(state.range(0));
    benchmark::DoNotOptimize(GenerateRumors(options).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GenerateRumors)->Arg(1000)->Arg(5000);

void BM_Soundex(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Soundex("Grandiose"));
    benchmark::DoNotOptimize(Soundex("Pallace"));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_Soundex);

void BM_NormalizeAddress(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        NormalizeAddress("346 West 46th Street, Suite 4B, New York"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NormalizeAddress);

void BM_ListingSimilarity(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ListingSimilarity("Danny's Grand Sea Palace 346 W 46 St",
                          "dannys grand sea palace 346 west 46 street"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ListingSimilarity);

}  // namespace
}  // namespace corrob

BENCHMARK_MAIN();
