#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <vector>

#include "graph/dynamic_graph.h"
#include "graph/edge_list.h"
#include "support/rng.h"
#include "test_util.h"

namespace parcore {
namespace {

TEST(DynamicGraph, InsertAndQuery) {
  DynamicGraph g(4);
  EXPECT_TRUE(g.insert_edge(0, 1));
  EXPECT_TRUE(g.insert_edge(1, 2));
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(DynamicGraph, RejectsSelfLoopsAndDuplicates) {
  DynamicGraph g(3);
  EXPECT_FALSE(g.insert_edge(1, 1));
  EXPECT_TRUE(g.insert_edge(0, 1));
  EXPECT_FALSE(g.insert_edge(0, 1));
  EXPECT_FALSE(g.insert_edge(1, 0));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(DynamicGraph, RejectsOutOfRange) {
  DynamicGraph g(3);
  EXPECT_FALSE(g.insert_edge(0, 3));
  EXPECT_FALSE(g.insert_edge(7, 8));
}

TEST(DynamicGraph, RemoveEdge) {
  DynamicGraph g(3);
  g.insert_edge(0, 1);
  g.insert_edge(1, 2);
  EXPECT_TRUE(g.remove_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.remove_edge(0, 1));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 0u);
}

TEST(DynamicGraph, FromEdgesDeduplicates) {
  std::vector<Edge> edges{{0, 1}, {1, 0}, {1, 1}, {1, 2}, {0, 1}};
  DynamicGraph g = DynamicGraph::from_edges(3, edges);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(DynamicGraph, EdgesRoundTrip) {
  auto g = test::make_graph(5, {{0, 1}, {1, 2}, {3, 4}, {0, 4}});
  auto edges = g.edges();
  EXPECT_EQ(edges.size(), 4u);
  for (const Edge& e : edges) {
    EXPECT_LT(e.u, e.v);
    EXPECT_TRUE(g.has_edge(e.u, e.v));
  }
}

TEST(DynamicGraph, DegreeStatistics) {
  auto g = test::make_graph(4, {{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 3.0 / 4.0);  // m / n per Table 2
}

TEST(DynamicGraph, AddVerticesGrows) {
  DynamicGraph g(2);
  g.add_vertices(5);
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_TRUE(g.insert_edge(3, 4));
  g.add_vertices(3);  // shrink request ignored
  EXPECT_EQ(g.num_vertices(), 5u);
}

TEST(DynamicGraph, CopyAndAssignAreIndependent) {
  DynamicGraph g(64);
  for (VertexId u = 0; u < 64; ++u)
    for (VertexId v = u + 1; v < 64; v += 3) g.insert_edge(u, v);
  const std::vector<Edge> before = g.edges();

  DynamicGraph copy(g);
  DynamicGraph assigned(1);
  assigned = g;
  EXPECT_EQ(copy.num_edges(), g.num_edges());
  EXPECT_EQ(copy.edges(), before);
  EXPECT_EQ(assigned.edges(), before);

  // Mutating the original leaves both copies untouched, and vice versa.
  ASSERT_TRUE(g.remove_edge(0, 1));
  ASSERT_TRUE(g.insert_edge(0, 2));
  EXPECT_EQ(copy.edges(), before);
  EXPECT_EQ(assigned.edges(), before);
  ASSERT_TRUE(copy.remove_edge(1, 2));
  EXPECT_TRUE(assigned.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(DynamicGraph, MoveTransfersAdjacency) {
  DynamicGraph g(16);
  for (VertexId v = 1; v < 16; ++v) g.insert_edge(0, v);
  const std::vector<Edge> before = g.edges();
  DynamicGraph moved(std::move(g));
  EXPECT_EQ(moved.edges(), before);
  EXPECT_EQ(moved.degree(0), 15u);
  DynamicGraph target(1);
  target = std::move(moved);
  EXPECT_EQ(target.edges(), before);
  EXPECT_EQ(target.num_edges(), 15u);
}

TEST(DynamicGraph, FromEdgesMatchesIncrementalBuild) {
  Rng rng(0xfeed);
  std::vector<Edge> edges;
  const std::size_t n = 300;
  for (int i = 0; i < 2000; ++i)
    edges.push_back(Edge{static_cast<VertexId>(rng.next() % n),
                         static_cast<VertexId>(rng.next() % n)});
  DynamicGraph bulk = DynamicGraph::from_edges(n, edges);
  DynamicGraph inc(n);
  for (const Edge& e : edges) inc.insert_edge(e.u, e.v);
  EXPECT_EQ(bulk.num_edges(), inc.num_edges());
  std::vector<Edge> be = bulk.edges(), ie = inc.edges();
  auto key = [](const Edge& a, const Edge& b) {
    return edge_key(a) < edge_key(b);
  };
  std::sort(be.begin(), be.end(), key);
  std::sort(ie.begin(), ie.end(), key);
  EXPECT_EQ(be, ie);
}

TEST(DynamicGraph, FromEdgesReservesExactDegree) {
  // Duplicate-free input: the counting pass reserves exactly each
  // vertex's degree, so the adjacency holds no growth slack.
  auto g = test::make_graph(5, {{0, 1}, {0, 2}, {0, 3}, {3, 4}});
  const GraphMemoryStats m = g.memory_stats();
  EXPECT_EQ(m.num_vertices, 5u);
  EXPECT_EQ(m.num_edges, 4u);
  EXPECT_EQ(m.adjacency_bytes, 2 * 4 * sizeof(VertexId));
  EXPECT_GT(m.header_bytes, 0u);
  EXPECT_EQ(m.total_bytes(), m.header_bytes + m.adjacency_bytes);
}

TEST(DynamicGraph, HubHasEdgeScansSmallEndpoint) {
  // Correctness guard for the smaller-degree scan: a hub with a large
  // adjacency vs leaves of degree 1, probed in both argument orders.
  const std::size_t n = 4000;
  DynamicGraph g(n);
  for (VertexId v = 1; v < n; ++v) g.insert_edge(0, v);
  EXPECT_TRUE(g.has_edge(0, 1234));
  EXPECT_TRUE(g.has_edge(1234, 0));
  EXPECT_FALSE(g.has_edge(1234, 4321 % n));
  EXPECT_FALSE(g.insert_edge(0, 1234));  // duplicate via the hub path
  EXPECT_EQ(g.num_edges(), n - 1);
}

TEST(DynamicGraph, FuzzAgainstSetReference) {
  // 50k random insert/remove/probe ops over a small universe (heavy
  // edge churn) against a std::set of canonical edge keys.
  const std::size_t n = 180;
  const int kOps = 50000;
  DynamicGraph g(n);
  std::set<std::uint64_t> ref;
  Rng rng(0xb16c4);

  for (int op = 0; op < kOps; ++op) {
    const auto u = static_cast<VertexId>(rng.next() % n);
    const auto v = static_cast<VertexId>(rng.next() % n);
    const std::uint64_t key = edge_key(canonical(Edge{u, v}));
    switch (rng.next() % 3) {
      case 0: {  // insert
        const bool want = u != v && ref.find(key) == ref.end();
        ASSERT_EQ(g.insert_edge(u, v), want) << "op " << op;
        if (want) ref.insert(key);
        break;
      }
      case 1: {  // remove
        const bool want = ref.erase(key) > 0;
        ASSERT_EQ(g.remove_edge(u, v), want) << "op " << op;
        break;
      }
      default: {  // membership probe, both orders
        const bool want = ref.find(key) != ref.end();
        ASSERT_EQ(g.has_edge(u, v), want) << "op " << op;
        ASSERT_EQ(g.has_edge(v, u), want) << "op " << op;
        break;
      }
    }
    ASSERT_EQ(g.num_edges(), ref.size()) << "op " << op;
  }

  // Full structural audit at the end: exact edge set and degrees.
  std::vector<Edge> got = g.edges();
  ASSERT_EQ(got.size(), ref.size());
  for (const Edge& e : got) ASSERT_TRUE(ref.count(edge_key(e)) > 0);
  std::size_t degree_sum = 0;
  for (VertexId v = 0; v < n; ++v) degree_sum += g.degree(v);
  ASSERT_EQ(degree_sum, 2 * ref.size());
  const GraphMemoryStats m = g.memory_stats();
  EXPECT_GE(m.adjacency_bytes, degree_sum * sizeof(VertexId));
}

TEST(EdgeList, CanonicalizeDropsBadEdges) {
  std::vector<Edge> edges{{0, 1}, {1, 0}, {2, 2}, {3, 4}, {0, 1}};
  EXPECT_EQ(canonicalize_edges(edges), 3u);
  EXPECT_EQ(edges.size(), 2u);
}

TEST(EdgeList, SampleEdgesDistinctAndPresent) {
  Rng rng(3);
  std::vector<Edge> base;
  for (VertexId v = 0; v + 1 < 100; ++v)
    base.push_back(Edge{v, static_cast<VertexId>(v + 1)});
  DynamicGraph g = DynamicGraph::from_edges(100, base);
  auto sample = sample_edges(g, 25, rng);
  EXPECT_EQ(sample.size(), 25u);
  std::set<std::uint64_t> keys;
  for (const Edge& e : sample) {
    EXPECT_TRUE(g.has_edge(e.u, e.v));
    EXPECT_TRUE(keys.insert(edge_key(e)).second);
  }
}

TEST(EdgeList, SampleClampsToEdgeCount) {
  Rng rng(3);
  auto g = test::make_graph(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(sample_edges(g, 100, rng).size(), 2u);
}

TEST(EdgeList, SplitBatchesEven) {
  std::vector<Edge> edges(10, Edge{0, 1});
  auto parts = split_batches(edges, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].size() + parts[1].size() + parts[2].size(), 10u);
  EXPECT_EQ(parts[0].size(), 4u);
}

TEST(EdgeList, FileRoundTrip) {
  EdgeListData data;
  data.num_vertices = 4;
  data.has_timestamps = true;
  data.edges = {{{0, 1}, 10}, {{1, 2}, 20}, {{2, 3}, 30}};
  const std::string path = testing::TempDir() + "/parcore_edges.txt";
  save_edge_list(path, data);
  EdgeListData loaded = load_edge_list(path);
  ASSERT_EQ(loaded.edges.size(), 3u);
  EXPECT_TRUE(loaded.has_timestamps);
  EXPECT_EQ(loaded.edges[1].time, 20u);
  std::remove(path.c_str());
}

TEST(EdgeList, LoadSkipsComments) {
  const std::string path = testing::TempDir() + "/parcore_comments.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("# comment\n% other\n10 20\n30 40\n", f);
  std::fclose(f);
  EdgeListData loaded = load_edge_list(path);
  EXPECT_EQ(loaded.edges.size(), 2u);
  EXPECT_EQ(loaded.num_vertices, 4u);  // compacted ids
  EXPECT_FALSE(loaded.has_timestamps);
  std::remove(path.c_str());
}

TEST(EdgeList, LoadMissingFileThrows) {
  EXPECT_THROW(load_edge_list("/nonexistent/parcore.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace parcore
