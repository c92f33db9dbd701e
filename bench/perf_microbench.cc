// Performance microbenchmarks (google-benchmark) for the PrivateClean
// building blocks: mechanism throughput, provenance graph construction
// and cuts, estimator latency, aggregate scans, and CSV I/O. These back
// the complexity claims of §6.4/§7.3 (linear-space graphs, O(l') cuts)
// and the typed-column design decision in DESIGN.md.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <thread>

#include "bench/harness.h"
#include "cleaning/merge.h"
#include "common/arena.h"
#include "common/edit_distance.h"
#include "datagen/synthetic.h"
#include "privacy/laplace_mechanism.h"
#include "privacy/ledger.h"
#include "privacy/randomized_response.h"
#include "provenance/provenance_graph.h"
#include "table/csv.h"

namespace privateclean {
namespace {

Table MakeData(size_t rows, size_t distinct) {
  SyntheticOptions options;
  options.num_rows = rows;
  options.num_distinct = distinct;
  Rng rng(1);
  return *GenerateSynthetic(options, rng);
}

void BM_RandomizedResponse(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Table data = MakeData(rows, 50);
  Domain domain = *Domain::FromColumn(data, "category");
  Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    Column col = *data.ColumnByName("category").ValueOrDie();
    state.ResumeTiming();
    // Whole column in one shard: intern the domain codes, randomize,
    // recompute the null count.
    std::vector<uint32_t> codes = *PrepareDomainCodes(&col, domain);
    benchmark::DoNotOptimize(
        ApplyRandomizedResponseShard(&col, domain, 0.1, rng, 0, col.size(),
                                     nullptr, nullptr, codes.data())
            .ok());
    col.RecomputeNullCount();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_RandomizedResponse)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LaplaceMechanism(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Table data = MakeData(rows, 50);
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    Column col = *data.ColumnByName("value").ValueOrDie();
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        ApplyLaplaceMechanismShard(&col, 10.0, rng, 0, col.size()).ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_LaplaceMechanism)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GrrEndToEnd(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Table data = MakeData(rows, 50);
  Rng rng(4);
  for (auto _ : state) {
    auto out = ApplyGrr(data, GrrParams::Uniform(0.1, 10.0), GrrOptions{},
                        rng);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_GrrEndToEnd)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ProvenanceGraphBuild(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Table data = MakeData(rows, 200);
  Table cleaned = data.Clone();
  // Merge half the domain pairwise so the graph has real structure.
  std::unordered_map<Value, Value, ValueHash> merges;
  for (size_t k = 0; k + 1 < 200; k += 2) {
    merges.emplace(SyntheticCategory(k + 1), SyntheticCategory(k));
  }
  (void)FindReplace("category", merges).Apply(&cleaned);
  const Column& dirty = *data.ColumnByName("category").ValueOrDie();
  const Column& clean = *cleaned.ColumnByName("category").ValueOrDie();
  Domain domain = *Domain::FromColumn(data, "category");
  for (auto _ : state) {
    auto graph = ProvenanceGraph::Build(dirty, clean, domain);
    benchmark::DoNotOptimize(graph.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_ProvenanceGraphBuild)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_ProvenanceCut(benchmark::State& state) {
  // O(l') cut claim: vary the number of predicate values on a fixed
  // graph.
  size_t pred_size = static_cast<size_t>(state.range(0));
  Table data = MakeData(20000, 500);
  const Column& col = *data.ColumnByName("category").ValueOrDie();
  Domain domain = *Domain::FromColumn(data, "category");
  ProvenanceGraph graph = *ProvenanceGraph::Build(col, col, domain);
  std::vector<Value> pred_values;
  for (size_t k = 0; k < pred_size && k < domain.size(); ++k) {
    pred_values.push_back(domain.value(k));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph.WeightedSelectivity(pred_values));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pred_size));
}
BENCHMARK(BM_ProvenanceCut)->Arg(1)->Arg(10)->Arg(100)->Arg(400);

void BM_AggregateScan(benchmark::State& state) {
  size_t rows = static_cast<size_t>(state.range(0));
  Table data = MakeData(rows, 50);
  Predicate pred = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(1),
                   SyntheticCategory(2)});
  for (auto _ : state) {
    auto stats = ScanWithPredicate(data, pred, "value");
    benchmark::DoNotOptimize(stats.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}
BENCHMARK(BM_AggregateScan)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EndToEndQuery(benchmark::State& state) {
  // Full PrivateClean query: provenance rebuild + scan + estimate.
  Table data = MakeData(static_cast<size_t>(state.range(0)), 50);
  Rng rng(5);
  PrivateTable pt = *PrivateTable::Create(
      data, GrrParams::Uniform(0.1, 10.0), GrrOptions{}, rng);
  Predicate pred = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(1)});
  for (auto _ : state) {
    auto r = pt.Execute(AggregateQuery::Count(pred));
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_EndToEndQuery)->Arg(1000)->Arg(10000)->Arg(100000);

// --- Parallel scaling (1 vs N threads) --------------------------------
//
// Same 1M-row table at every thread count; the deterministic sharding
// contract (common/thread_pool.h) guarantees identical output, so these
// benchmarks measure pure execution scaling. Build once and share: the
// table dominates setup time.

const Table& ScalingTable() {
  static const Table* table = new Table(MakeData(1000000, 50));
  return *table;
}

/// Attach the dictionary/arena accounting that QueryResult::memory
/// surfaces, so BENCH_*.json records the columnar footprint next to the
/// wall times.
void RecordMemoryCounters(benchmark::State& state, const Table& data) {
  ColumnMemory mem = data.MemoryUsage();
  state.counters["payload_bytes"] = static_cast<double>(mem.payload_bytes);
  state.counters["dict_bytes"] = static_cast<double>(mem.dictionary_bytes);
  state.counters["dict_entries"] =
      static_cast<double>(mem.dictionary_entries);
  state.counters["arena_peak_bytes"] =
      static_cast<double>(ArenaProfiler::Totals().peak_live_bytes);
}

void BM_GrrParallelScaling(benchmark::State& state) {
  const Table& data = ScalingTable();
  GrrOptions options;
  options.exec.num_threads = static_cast<size_t>(state.range(0));
  Rng rng(6);
  for (auto _ : state) {
    auto out = ApplyGrr(data, GrrParams::Uniform(0.1, 10.0), options, rng);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_GrrParallelScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The alternative mechanism families through the same sharded path, at
// a comparable effective randomization rate, so BENCH_pr7.json exposes
// any per-row cost the draw sequence adds (hlm shares the grr kernel;
// sampling draws an extra Bernoulli per pooled row).
void BM_HlmParallelScaling(benchmark::State& state) {
  const Table& data = ScalingTable();
  GrrOptions options;
  options.mechanism.name = "hlm";
  options.exec.num_threads = static_cast<size_t>(state.range(0));
  Rng rng(6);
  for (auto _ : state) {
    // Per-attribute target ε = 6: p_eff ≈ 0.11 on the ~50-value domain,
    // matching BM_GrrParallelScaling's replacement rate.
    auto out = ApplyGrr(data, GrrParams::Uniform(6.0, 10.0), options, rng);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_HlmParallelScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_SamplingParallelScaling(benchmark::State& state) {
  const Table& data = ScalingTable();
  GrrOptions options;
  options.mechanism.name = "sampling";
  options.mechanism.params["beta"] = 0.9;
  options.exec.num_threads = static_cast<size_t>(state.range(0));
  Rng rng(6);
  for (auto _ : state) {
    // p_eff = 1 - β(1 - p0) = 0.1 with β = 0.9, p0 = 0.
    auto out = ApplyGrr(data, GrrParams::Uniform(0.0, 10.0), options, rng);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_SamplingParallelScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ScanParallelScaling(benchmark::State& state) {
  const Table& data = ScalingTable();
  ExecutionOptions exec;
  exec.num_threads = static_cast<size_t>(state.range(0));
  Predicate pred = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(1),
                   SyntheticCategory(2)});
  for (auto _ : state) {
    auto stats = ScanWithPredicate(data, pred, "value", exec);
    benchmark::DoNotOptimize(stats.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
  RecordMemoryCounters(state, data);
}
BENCHMARK(BM_ScanParallelScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ProvenanceParallelScaling(benchmark::State& state) {
  // Both ProvenanceGraph::Build passes (local value-count runs, then
  // per-dirty totals + pair counts) shard over the 1M-row table; half
  // the 50-value domain is merged pairwise so the graph has real edges.
  const Table& data = ScalingTable();
  static const Table* cleaned = [] {
    auto* t = new Table(ScalingTable().Clone());
    std::unordered_map<Value, Value, ValueHash> merges;
    for (size_t k = 0; k + 1 < 50; k += 2) {
      merges.emplace(SyntheticCategory(k + 1), SyntheticCategory(k));
    }
    (void)FindReplace("category", merges).Apply(t);
    return t;
  }();
  const Column& dirty = *data.ColumnByName("category").ValueOrDie();
  const Column& clean = *cleaned->ColumnByName("category").ValueOrDie();
  Domain domain = *Domain::FromColumn(data, "category");
  ExecutionOptions exec;
  exec.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto graph = ProvenanceGraph::Build(dirty, clean, domain, exec);
    benchmark::DoNotOptimize(graph.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
  RecordMemoryCounters(state, data);
}
BENCHMARK(BM_ProvenanceParallelScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_GroupByParallelScaling(benchmark::State& state) {
  const Table& data = ScalingTable();
  Rng rng(7);
  PrivateTable pt = *PrivateTable::Create(
      data, GrrParams::Uniform(0.1, 10.0), GrrOptions{}, rng);
  QueryOptions options;
  options.exec.num_threads = static_cast<size_t>(state.range(0));
  // The corrected GROUP BY route as production runs it. Warm the
  // provenance-graph cache so the loop times the group-count pass and the
  // per-group estimates, not the one-off graph build.
  const std::string sql = "SELECT count(1) FROM r GROUP BY category";
  benchmark::DoNotOptimize(ExecuteSqlQuery(pt, sql).ok());
  for (auto _ : state) {
    auto groups = ExecuteSqlQuery(pt, sql, options);
    benchmark::DoNotOptimize(groups.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_GroupByParallelScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_AggregateParallelScaling(benchmark::State& state) {
  const Table& data = ScalingTable();
  ExecutionOptions exec;
  exec.num_threads = static_cast<size_t>(state.range(0));
  AggregateQuery query = AggregateQuery::Avg(
      "value", Predicate::In("category", {SyntheticCategory(0),
                                          SyntheticCategory(1),
                                          SyntheticCategory(2)}));
  for (auto _ : state) {
    auto r = ExecuteAggregate(data, query, exec);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_AggregateParallelScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_BootstrapParallelScaling(benchmark::State& state) {
  // Replicate-axis scaling: each of the 64 replicates resamples all rows
  // and runs the extension aggregate, so the work is
  // O(replicates × rows) and shards at replicate granularity
  // (ShardCountForCoarseItems). A smaller table than ScalingTable keeps
  // one iteration tractable at every thread count.
  static const Table* data = new Table(MakeData(50000, 50));
  static const PrivateTable* pt = [] {
    Rng rng(8);
    return new PrivateTable(*PrivateTable::Create(
        *data, GrrParams::Uniform(0.1, 10.0), GrrOptions{}, rng));
  }();
  QueryOptions options;
  options.exec.num_threads = static_cast<size_t>(state.range(0));
  options.bootstrap_replicates = 64;
  options.bootstrap_seed = 9;
  AggregateQuery median{AggregateType::kMedian, "value", std::nullopt, 50.0};
  for (auto _ : state) {
    auto r = pt->Execute(median, options);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations() * 64 *
                          static_cast<int64_t>(data->num_rows()));
}
BENCHMARK(BM_BootstrapParallelScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CsvParseParallelScaling(benchmark::State& state) {
  const Table& data = ScalingTable();
  CsvOptions options;
  options.exec.num_threads = static_cast<size_t>(state.range(0));
  const std::string text = TableToCsv(data, options);
  for (auto _ : state) {
    auto parsed = CsvToTable(text, data.schema(), options);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_CsvParseParallelScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CsvInferParallelScaling(benchmark::State& state) {
  // Schema inference: the same framing and tokenizer as the parse, with
  // per-shard int/double acceptance flags instead of cell typing.
  const Table& data = ScalingTable();
  CsvOptions options;
  options.exec.num_threads = static_cast<size_t>(state.range(0));
  const std::string text = TableToCsv(data, options);
  for (auto _ : state) {
    auto schema = InferCsvSchema(text, options);
    benchmark::DoNotOptimize(schema.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_CsvInferParallelScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CsvSplitParallelScaling(benchmark::State& state) {
  // Record framing and field tokenizing without cell typing, over ~1M
  // rows of text heavy in quoted fields — multiline, escaped quotes, CRLF
  // — so the speculative split's parity machinery and the tokenizer's
  // unescaping path are what's measured, not the plain-record fast path.
  // SplitCsvRecords also copies every field into a CsvRawRecord, which
  // the parse itself never does. Forced speculative even at 1 thread, so
  // Arg(1) reports the chunked framing's overhead.
  static const std::string* text = [] {
    auto* s = new std::string("name,score,count\n");
    s->reserve(45u << 20);
    for (size_t i = 0; i < 1000000; ++i) {
      switch (i % 5) {
        case 0:
          *s += std::string("plain_").append(std::to_string(i));
          break;
        case 1:
          *s += "\"comma, inside\"";
          break;
        case 2:
          *s += "\"multi\r\nline\"";
          break;
        case 3:
          *s += "\"esc\"\"aped\"";
          break;
        case 4:
          *s += "\\N";
          break;
      }
      *s += std::string(",") +
            std::to_string(static_cast<double>(i % 997) * 0.5) + "," +
            std::to_string(i % 101) + "\n";
    }
    return s;
  }();
  CsvOptions options;
  options.null_literal = "\\N";
  options.split = CsvSplitMode::kSpeculative;
  options.exec.num_threads = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto records = SplitCsvRecords(*text, options);
    benchmark::DoNotOptimize(records.ok());
  }
  state.SetItemsProcessed(state.iterations() * 1000000);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text->size()));
}
BENCHMARK(BM_CsvSplitParallelScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// --- Vectorized batch engine vs boxed row loop ------------------------
//
// BM_RowLoopScanScaling preserves the engine's old execution strategy as
// a baseline: one boxed ValueAt + Predicate::Matches call per row, sum
// accumulated in a scalar loop. BM_VectorizedScanScaling is the shipping
// engine: the same predicate compiled once into a dictionary match
// table, evaluated in kVectorBatchRows batches into stack masks with the
// sum accumulated per batch. scripts/bench.sh condenses the two side by
// side into BENCH_pr8.json; vectorized must never be slower.

void BM_RowLoopScanScaling(benchmark::State& state) {
  const Table& data = ScalingTable();
  Predicate pred = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(1),
                   SyntheticCategory(2)});
  const Column& cat = *data.ColumnByName("category").ValueOrDie();
  const Column& val = *data.ColumnByName("value").ValueOrDie();
  for (auto _ : state) {
    double sum = 0.0;
    for (size_t r = 0; r < data.num_rows(); ++r) {
      if (!pred.Matches(cat.ValueAt(r))) continue;
      if (!val.IsNull(r)) sum += val.DoubleAt(r);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_RowLoopScanScaling)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_VectorizedScanScaling(benchmark::State& state) {
  const Table& data = ScalingTable();
  ExecutionOptions exec;
  exec.num_threads = static_cast<size_t>(state.range(0));
  Predicate pred = Predicate::In(
      "category", {SyntheticCategory(0), SyntheticCategory(1),
                   SyntheticCategory(2)});
  CompiledPredicate compiled = *CompiledPredicate::Compile(data, pred);
  AggregateQuery query;
  query.agg = AggregateType::kSum;
  query.numeric_attribute = "value";
  for (auto _ : state) {
    auto r = ExecuteAggregate(data, query, compiled, exec);
    benchmark::DoNotOptimize(r.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.num_rows()));
}
BENCHMARK(BM_VectorizedScanScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Ledger commit throughput: N threads charging one tenant concurrently,
// each charge a durable WAL record. BM_LedgerSerialCommitScaling fsyncs
// once per record (group commit off); BM_LedgerGroupCommitScaling lets
// the commit leader batch every queued record behind one fsync.
// scripts/bench.sh condenses the pair into BENCH_pr9.json; group commit
// must never be slower at >1 thread.
void LedgerCommitBench(benchmark::State& state, bool group_commit) {
  const size_t threads = static_cast<size_t>(state.range(0));
  constexpr size_t kChargesPerThread = 32;
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("pclean_bench_ledger_" + std::to_string(group_commit ? 1 : 0) + "_" +
        std::to_string(threads)))
          .string();
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(dir);
    BudgetLedger::Options options;
    options.group_commit = group_commit;
    options.checkpoint_every = 0;  // isolate the commit path
    auto opened = BudgetLedger::Open(dir, options);
    if (!opened.ok()) {
      state.SkipWithError(opened.status().ToString().c_str());
      break;
    }
    BudgetLedger ledger = std::move(*opened);
    if (!ledger.Grant("t", 1e9).ok()) {
      state.SkipWithError("grant failed");
      break;
    }
    state.ResumeTiming();
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (size_t w = 0; w < threads; ++w) {
      workers.emplace_back([&ledger] {
        for (size_t i = 0; i < kChargesPerThread; ++i) {
          benchmark::DoNotOptimize(ledger.Charge("t", 0.001).ok());
        }
      });
    }
    for (auto& worker : workers) worker.join();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(threads * kChargesPerThread));
  std::filesystem::remove_all(dir);
}

void BM_LedgerSerialCommitScaling(benchmark::State& state) {
  LedgerCommitBench(state, false);
}
BENCHMARK(BM_LedgerSerialCommitScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_LedgerGroupCommitScaling(benchmark::State& state) {
  LedgerCommitBench(state, true);
}
BENCHMARK(BM_LedgerGroupCommitScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_CsvWriteRead(benchmark::State& state) {
  Table data = MakeData(static_cast<size_t>(state.range(0)), 50);
  for (auto _ : state) {
    std::string csv = TableToCsv(data);
    auto parsed = CsvToTable(csv, data.schema());
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CsvWriteRead)->Arg(1000)->Arg(10000);

void BM_EditDistance(benchmark::State& state) {
  std::string a(static_cast<size_t>(state.range(0)), 'a');
  std::string b = a;
  b[b.size() / 2] = 'x';
  b.push_back('y');
  for (auto _ : state) {
    benchmark::DoNotOptimize(EditDistance(a, b));
  }
}
BENCHMARK(BM_EditDistance)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
}  // namespace privateclean

/// Custom main: default to short measurement windows so the full bench
/// sweep stays fast; pass --benchmark_min_time explicitly to override.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_min_time = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_min_time", 0) == 0) {
      has_min_time = true;
    }
  }
  static char min_time_flag[] = "--benchmark_min_time=0.05";
  if (!has_min_time) args.push_back(min_time_flag);
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
