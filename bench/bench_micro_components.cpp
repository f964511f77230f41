// Micro benchmarks (google-benchmark) for the remaining substrates:
// decomposition, graph mutation, vertex sets and the k-order heap.
#include <benchmark/benchmark.h>

#include "decomp/bz.h"
#include "decomp/verify.h"
#include "gen/generators.h"
#include "maint/core_state.h"
#include "parallel/korder_heap.h"
#include "support/vertex_set.h"

namespace {

using namespace parcore;

const DynamicGraph& bench_graph() {
  static DynamicGraph g = [] {
    Rng rng(42);
    return DynamicGraph::from_edges(1 << 15,
                                    gen_rmat(15, 200000, RmatParams{}, rng));
  }();
  return g;
}

void BM_BzDecompose(benchmark::State& state) {
  const DynamicGraph& g = bench_graph();
  for (auto _ : state) benchmark::DoNotOptimize(bz_decompose(g).max_core);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_BzDecompose);

void BM_BzHeapPolicy(benchmark::State& state) {
  const DynamicGraph& g = bench_graph();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        bz_decompose_with_policy(g, PeelTie::kSmallDegreeFirst).max_core);
}
BENCHMARK(BM_BzHeapPolicy);

void BM_GraphInsertRemove(benchmark::State& state) {
  DynamicGraph g(1000);
  Rng rng(7);
  for (auto _ : state) {
    VertexId u = static_cast<VertexId>(rng.bounded(1000));
    VertexId v = static_cast<VertexId>(rng.bounded(1000));
    if (g.insert_edge(u, v)) g.remove_edge(u, v);
  }
}
BENCHMARK(BM_GraphInsertRemove);

void BM_VertexSetInsertContains(benchmark::State& state) {
  VertexSet set;
  Rng rng(11);
  for (auto _ : state) {
    VertexId v = static_cast<VertexId>(rng.bounded(256));
    set.insert(v);
    benchmark::DoNotOptimize(set.contains(v ^ 1));
    if (set.size() > 128) set.clear();
  }
}
BENCHMARK(BM_VertexSetInsertContains);

void BM_KOrderHeapCycle(benchmark::State& state) {
  // Path graph: one long O_1 list; enqueue/dequeue a window of vertices.
  static DynamicGraph g = [] {
    std::vector<Edge> edges;
    for (VertexId v = 0; v + 1 < 10000; ++v)
      edges.push_back(Edge{v, static_cast<VertexId>(v + 1)});
    return DynamicGraph::from_edges(10000, edges);
  }();
  static CoreState& cs = []() -> CoreState& {
    static CoreState s;
    s.initialize(g);
    return s;
  }();
  OrderList* list = cs.levels().get(1);
  KOrderHeap heap;
  Rng rng(3);
  for (auto _ : state) {
    heap.reset(list, &cs);
    for (int i = 0; i < 16; ++i)
      heap.enqueue(static_cast<VertexId>(rng.bounded(10000)));
    for (;;) {
      VertexId v = heap.dequeue(1);
      if (v == kInvalidVertex) break;
      cs.lock(v).unlock();
    }
  }
}
BENCHMARK(BM_KOrderHeapCycle);

void BM_BruteForceOracle(benchmark::State& state) {
  // Oracle cost context: why tests use it only on small graphs.
  Rng rng(5);
  DynamicGraph g =
      DynamicGraph::from_edges(2000, gen_erdos_renyi(2000, 8000, rng));
  for (auto _ : state)
    benchmark::DoNotOptimize(brute_force_cores(g).size());
}
BENCHMARK(BM_BruteForceOracle);

}  // namespace
