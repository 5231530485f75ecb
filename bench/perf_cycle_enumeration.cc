/// \file perf_cycle_enumeration.cc
/// \brief E9 (part 2) — cycle-enumeration cost (google-benchmark).
///
/// The paper reports that enumerating undirected cycles of length ≤ 5 on
/// query graphs of ~208 nodes took ~6 minutes per query on a graph
/// database, and argues this is the open performance challenge.  These
/// benchmarks measure the enumerator over the frozen `graph::CsrGraph`
/// snapshot on growing knowledge-base balls, sweeping the maximum cycle
/// length to expose the exponential growth — and run the *same* workload
/// on a faithful replica of the seed representation (per-node
/// `std::vector` adjacency built through hash maps, linear neighbor
/// scans, hash-map multiplicity lookups) so the CSR speedup is measured
/// in-binary on identical input.
///
/// The scoring variants time the per-cycle structural metrics on the
/// length-5 balls: the ball-local pair-table scorer the cycle expander
/// runs (`graph::BallCycleScorer`, built once per ball inside the timed
/// loop, as once per request) against the global-CSR oracle
/// (`graph::ComputeCycleMetrics` on a freshly mapped global `Cycle`, as
/// the expander's visitor once did).  Before timing, every cycle's scorer
/// metrics are hard-asserted equal to the oracle's.
///
/// Alongside the console table the binary writes
/// `BENCH_perf_cycle_enumeration.json` (see bench_common.h) with one
/// record per run plus derived `speedup_vs_legacy` and
/// `speedup_vs_oracle` records.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "common/macros.h"
#include "graph/csr.h"
#include "graph/cycle_metrics.h"
#include "graph/cycles.h"
#include "graph/undirected_view.h"
#include "wiki/synthetic.h"

namespace {

using namespace wqe;

const wiki::SyntheticWikipedia& SharedWiki() {
  static const wiki::SyntheticWikipedia* kWiki = [] {
    wiki::SyntheticWikipediaOptions options;
    options.num_domains = 50;
    auto result = wiki::GenerateSyntheticWikipedia(options);
    WQE_CHECK_OK(result.status());
    auto* wiki = new wiki::SyntheticWikipedia(std::move(result).ValueOrDie());
    wiki->kb.Freeze();  // one snapshot shared by every benchmark
    return wiki;
  }();
  return *kWiki;
}

/// One workload definition shared by the CSR and legacy variants — the
/// speedup_vs_legacy records are only meaningful on identical input.
struct BallWorkload {
  std::vector<graph::NodeId> seeds;
  std::vector<graph::NodeId> ball;
};

BallWorkload SharedBall(size_t ball_cap) {
  const auto& wiki = SharedWiki();
  BallWorkload w;
  w.seeds = {wiki.domain_articles[0][0], wiki.domain_articles[0][1]};
  w.ball = wiki.kb.Neighborhood(w.seeds, 2, ball_cap);
  return w;
}

// ---------------------------------------------------------------- legacy
// Faithful replica of the seed-era structures: `UndirectedView` built by
// hashing every directed edge into a pair-multiplicity map, and the DFS
// that scans the full neighbor list at every depth.  Kept here purely as
// the measurement baseline for the CSR refactor.

struct LegacyView {
  const graph::PropertyGraph* graph;
  std::vector<graph::NodeId> global;
  std::unordered_map<graph::NodeId, uint32_t> local;
  std::vector<std::vector<uint32_t>> adj;
  std::unordered_map<uint64_t, uint32_t> multiplicity;

  static uint64_t PairKey(uint32_t u, uint32_t v) {
    uint32_t lo = std::min(u, v);
    uint32_t hi = std::max(u, v);
    return (static_cast<uint64_t>(lo) << 32) | hi;
  }

  LegacyView(const graph::PropertyGraph& g,
             const std::vector<graph::NodeId>& nodes)
      : graph(&g) {
    global.reserve(nodes.size());
    for (graph::NodeId n : nodes) {
      if (local.emplace(n, static_cast<uint32_t>(global.size())).second) {
        global.push_back(n);
      }
    }
    adj.assign(global.size(), {});
    for (uint32_t lu = 0; lu < global.size(); ++lu) {
      for (const graph::Edge& e : g.OutEdges(global[lu])) {
        if (e.kind == graph::EdgeKind::kRedirect) continue;
        auto it = local.find(e.dst);
        if (it == local.end() || it->second == lu) continue;
        ++multiplicity[PairKey(lu, it->second)];
      }
    }
    for (const auto& [key, count] : multiplicity) {
      (void)count;
      uint32_t lo = static_cast<uint32_t>(key >> 32);
      uint32_t hi = static_cast<uint32_t>(key & 0xFFFFFFFFu);
      adj[lo].push_back(hi);
      adj[hi].push_back(lo);
    }
    for (auto& neigh : adj) std::sort(neigh.begin(), neigh.end());
  }

  uint32_t Multiplicity(uint32_t u, uint32_t v) const {
    auto it = multiplicity.find(PairKey(u, v));
    return it == multiplicity.end() ? 0 : it->second;
  }
};

struct LegacyDfs {
  const LegacyView* view;
  uint32_t max_length;
  std::vector<bool> is_seed;
  std::vector<bool> on_path;
  std::vector<uint32_t> path;
  size_t emitted = 0;

  void Emit() {
    for (uint32_t v : path) {
      if (is_seed[v]) {
        ++emitted;
        return;
      }
    }
  }

  void Extend(uint32_t start, uint32_t u) {
    for (uint32_t v : view->adj[u]) {  // full-row scan, as in the seed
      if (v <= start) {
        if (v == start && path.size() >= 3 && path[1] < path.back()) Emit();
        continue;
      }
      if (on_path[v]) continue;
      if (path.size() >= max_length) continue;
      path.push_back(v);
      on_path[v] = true;
      Extend(start, v);
      on_path[v] = false;
      path.pop_back();
    }
  }

  size_t Run(const std::vector<graph::NodeId>& seeds) {
    const uint32_t n = static_cast<uint32_t>(view->global.size());
    is_seed.assign(n, false);
    for (graph::NodeId g : seeds) {
      auto it = view->local.find(g);
      if (it != view->local.end()) is_seed[it->second] = true;
    }
    on_path.assign(n, false);
    emitted = 0;
    for (uint32_t u = 0; u < n; ++u) {  // length-2: parallel pairs
      for (uint32_t v : view->adj[u]) {
        if (v <= u) continue;
        if (view->Multiplicity(u, v) >= 2) {
          path = {u, v};
          Emit();
        }
      }
    }
    path.clear();
    for (uint32_t s = 0; s < n; ++s) {
      path.assign(1, s);
      on_path[s] = true;
      Extend(s, s);
      on_path[s] = false;
    }
    return emitted;
  }
};

// ------------------------------------------------------------ benchmarks

/// Enumerate cycles (≤ max_length) in a radius-2 ball around a domain hub,
/// over the frozen CSR snapshot.
void BM_CycleEnumerationBall(benchmark::State& state) {
  const auto& wiki = SharedWiki();
  uint32_t max_length = static_cast<uint32_t>(state.range(0));
  BallWorkload workload = SharedBall(static_cast<size_t>(state.range(1)));
  graph::UndirectedView view(wiki.kb.csr(), workload.ball);
  graph::CycleEnumerator enumerator(view);
  graph::CycleEnumerationOptions options;
  options.max_length = max_length;
  options.seeds = workload.seeds;

  size_t cycles = 0;
  for (auto _ : state) {
    cycles = enumerator.Visit(
        options, [](const std::vector<uint32_t>&) { return true; });
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["nodes"] = static_cast<double>(view.num_nodes());
  state.counters["cycles"] = static_cast<double>(cycles);
}

BENCHMARK(BM_CycleEnumerationBall)
    ->ArgsProduct({{3, 4, 5}, {100, 200, 400}})
    ->Unit(benchmark::kMillisecond);

/// The identical workload on the seed-era representation.
void BM_CycleEnumerationBallLegacy(benchmark::State& state) {
  const auto& wiki = SharedWiki();
  uint32_t max_length = static_cast<uint32_t>(state.range(0));
  BallWorkload workload = SharedBall(static_cast<size_t>(state.range(1)));
  LegacyView view(wiki.kb.graph(), workload.ball);
  LegacyDfs dfs;
  dfs.view = &view;
  dfs.max_length = max_length;

  size_t cycles = 0;
  for (auto _ : state) {
    cycles = dfs.Run(workload.seeds);
    benchmark::DoNotOptimize(cycles);
  }
  state.counters["nodes"] = static_cast<double>(view.global.size());
  state.counters["cycles"] = static_cast<double>(cycles);
}

BENCHMARK(BM_CycleEnumerationBallLegacy)
    ->ArgsProduct({{3, 4, 5}, {100, 200, 400}})
    ->Unit(benchmark::kMillisecond);

/// Triangle counting on the same balls, for comparison.
void BM_TriangleBaseline(benchmark::State& state) {
  const auto& wiki = SharedWiki();
  BallWorkload workload = SharedBall(static_cast<size_t>(state.range(0)));
  graph::UndirectedView view(wiki.kb.csr(), workload.ball);
  graph::CycleEnumerator enumerator(view);
  graph::CycleEnumerationOptions options;
  options.min_length = 3;
  options.max_length = 3;

  for (auto _ : state) {
    size_t n = enumerator.Visit(
        options, [](const std::vector<uint32_t>&) { return true; });
    benchmark::DoNotOptimize(n);
  }
}

BENCHMARK(BM_TriangleBaseline)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

/// Every length <= 5 cycle through the ball's seeds, as local id paths.
std::vector<std::vector<uint32_t>> LengthFiveCycles(
    const graph::UndirectedView& view, const BallWorkload& workload) {
  graph::CycleEnumerationOptions options;
  options.max_length = 5;
  options.seeds = workload.seeds;
  std::vector<std::vector<uint32_t>> cycles;
  graph::CycleEnumerator(view).Visit(
      options, [&](const std::vector<uint32_t>& local) {
        cycles.push_back(local);
        return true;
      });
  return cycles;
}

graph::Cycle ToGlobalCycle(const graph::UndirectedView& view,
                           const std::vector<uint32_t>& local) {
  graph::Cycle cycle;
  cycle.nodes.reserve(local.size());
  for (uint32_t l : local) cycle.nodes.push_back(view.ToGlobal(l));
  return cycle;
}

/// Scores every cycle of a length-5 ball with the ball-local scorer,
/// including the scorer's per-ball table build.
void BM_CycleScoring(benchmark::State& state) {
  const auto& wiki = SharedWiki();
  BallWorkload workload = SharedBall(static_cast<size_t>(state.range(0)));
  graph::UndirectedView view(wiki.kb.csr(), workload.ball);
  const std::vector<std::vector<uint32_t>> cycles =
      LengthFiveCycles(view, workload);
  {
    const graph::BallCycleScorer scorer(view);
    for (const std::vector<uint32_t>& local : cycles) {
      WQE_CHECK(scorer.Score(local) ==
                graph::ComputeCycleMetrics(wiki.kb.csr(),
                                           ToGlobalCycle(view, local)));
    }
  }

  for (auto _ : state) {
    const graph::BallCycleScorer scorer(view);
    uint64_t edges = 0;
    for (const std::vector<uint32_t>& local : cycles) {
      edges += scorer.Score(local).num_edges;
    }
    benchmark::DoNotOptimize(edges);
  }
  state.counters["nodes"] = static_cast<double>(view.num_nodes());
  state.counters["cycles"] = static_cast<double>(cycles.size());
}

BENCHMARK(BM_CycleScoring)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

/// The same cycles scored by the oracle.
void BM_CycleScoringOracle(benchmark::State& state) {
  const auto& wiki = SharedWiki();
  BallWorkload workload = SharedBall(static_cast<size_t>(state.range(0)));
  graph::UndirectedView view(wiki.kb.csr(), workload.ball);
  const std::vector<std::vector<uint32_t>> cycles =
      LengthFiveCycles(view, workload);

  for (auto _ : state) {
    uint64_t edges = 0;
    for (const std::vector<uint32_t>& local : cycles) {
      edges += graph::ComputeCycleMetrics(wiki.kb.csr(),
                                          ToGlobalCycle(view, local))
                   .num_edges;
    }
    benchmark::DoNotOptimize(edges);
  }
  state.counters["nodes"] = static_cast<double>(view.num_nodes());
  state.counters["cycles"] = static_cast<double>(cycles.size());
}

BENCHMARK(BM_CycleScoringOracle)->Arg(100)->Arg(200)->Arg(400)
    ->Unit(benchmark::kMillisecond);

/// View construction cost (the per-query preprocessing): CSR slicing vs
/// the seed's hash-map rebuild.
void BM_UndirectedViewBuild(benchmark::State& state) {
  const auto& wiki = SharedWiki();
  BallWorkload workload = SharedBall(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    graph::UndirectedView view(wiki.kb.csr(), workload.ball);
    benchmark::DoNotOptimize(view.num_nodes());
  }
}

BENCHMARK(BM_UndirectedViewBuild)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMicrosecond);

void BM_UndirectedViewBuildLegacy(benchmark::State& state) {
  const auto& wiki = SharedWiki();
  BallWorkload workload = SharedBall(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    LegacyView view(wiki.kb.graph(), workload.ball);
    benchmark::DoNotOptimize(view.global.size());
  }
}

BENCHMARK(BM_UndirectedViewBuildLegacy)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMicrosecond);

/// One-off snapshot compilation cost (paid once per KB build).
void BM_CsrFreeze(benchmark::State& state) {
  const auto& wiki = SharedWiki();
  for (auto _ : state) {
    graph::CsrGraph csr = graph::CsrGraph::Freeze(wiki.kb.graph());
    benchmark::DoNotOptimize(csr.num_edges());
  }
  state.counters["nodes"] =
      static_cast<double>(wiki.kb.graph().num_nodes());
  state.counters["edges"] =
      static_cast<double>(wiki.kb.graph().num_edges());
}

BENCHMARK(BM_CsrFreeze)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------- reporter

/// Console output plus record collection for BENCH_<name>.json.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      std::string full = run.benchmark_name();
      std::string name = full;
      std::string config;
      if (size_t slash = full.find('/'); slash != std::string::npos) {
        name = full.substr(0, slash);
        config = full.substr(slash + 1);
      }
      std::string unit = benchmark::GetTimeUnitString(run.time_unit);
      records_.emplace_back(name, "real_time_" + unit,
                            run.GetAdjustedRealTime(), config);
      for (const auto& [counter, value] : run.counters) {
        records_.emplace_back(name, counter, value.value, config);
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

  /// Writes BENCH_perf_cycle_enumeration.json, deriving CSR-vs-legacy
  /// and scorer-vs-oracle speedups for every config both variants ran.
  void WriteJson() const {
    bench::BenchJsonWriter json("perf_cycle_enumeration");
    std::map<std::string, double> csr_ms;
    std::map<std::string, double> legacy_ms;
    std::map<std::string, double> scoring_ms;
    std::map<std::string, double> oracle_ms;
    for (const auto& [name, metric, value, config] : records_) {
      json.Add(name, metric, value, config);
      if (metric.rfind("real_time_", 0) == 0) {
        if (name == "BM_CycleEnumerationBall") csr_ms[config] = value;
        if (name == "BM_CycleEnumerationBallLegacy") legacy_ms[config] = value;
        if (name == "BM_CycleScoring") scoring_ms[config] = value;
        if (name == "BM_CycleScoringOracle") oracle_ms[config] = value;
      }
    }
    for (const auto& [config, legacy] : legacy_ms) {
      auto it = csr_ms.find(config);
      if (it == csr_ms.end() || it->second <= 0.0) continue;
      json.Add("BM_CycleEnumerationBall", "speedup_vs_legacy",
               legacy / it->second, config);
    }
    for (const auto& [config, oracle] : oracle_ms) {
      auto it = scoring_ms.find(config);
      if (it == scoring_ms.end() || it->second <= 0.0) continue;
      json.Add("BM_CycleScoring", "speedup_vs_oracle", oracle / it->second,
               config);
    }
    json.Write();
  }

 private:
  struct Record {
    std::string name;
    std::string metric;
    double value;
    std::string config;

    Record(std::string n, std::string m, double v, std::string c)
        : name(std::move(n)), metric(std::move(m)), value(v),
          config(std::move(c)) {}
  };
  std::vector<Record> records_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.WriteJson();
  benchmark::Shutdown();
  return 0;
}
