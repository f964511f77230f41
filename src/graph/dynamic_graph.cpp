#include "graph/dynamic_graph.h"

#include <algorithm>

namespace parcore {

DynamicGraph DynamicGraph::from_edges(std::size_t n,
                                      std::span<const Edge> edges) {
  DynamicGraph g(n);
  // Pass 1: exact degree count (duplicates still included — they only
  // over-reserve and are dropped below).
  std::vector<std::uint32_t> deg(n, 0);
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    if (e.u >= n || e.v >= n) continue;
    ++deg[e.u];
    ++deg[e.v];
  }
  for (VertexId v = 0; v < n; ++v) g.adj_[v].reserve(deg[v]);

  // Pass 2: fill, then sort+unique each list. O(m log d), avoiding the
  // per-edge has_edge scan.
  for (const Edge& e : edges) {
    if (e.u == e.v) continue;
    if (e.u >= n || e.v >= n) continue;
    g.adj_[e.u].push_back(e.v);
    g.adj_[e.v].push_back(e.u);
  }
  std::size_t degree_sum = 0;
  for (auto& list : g.adj_) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    degree_sum += list.size();
  }
  g.num_edges_.store(degree_sum / 2, std::memory_order_relaxed);
  return g;
}

bool DynamicGraph::has_edge(VertexId u, VertexId v) const {
  if (u == v || u >= adj_.size() || v >= adj_.size()) return false;
  // Scan the smaller-degree endpoint.
  if (adj_[u].size() > adj_[v].size()) std::swap(u, v);
  const auto& list = adj_[u];
  return std::find(list.begin(), list.end(), v) != list.end();
}

bool DynamicGraph::insert_edge(VertexId u, VertexId v) {
  if (u == v || u >= adj_.size() || v >= adj_.size()) return false;
  if (has_edge(u, v)) return false;
  insert_edge_unchecked(u, v);
  return true;
}

void DynamicGraph::insert_edge_unchecked(VertexId u, VertexId v) {
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  num_edges_.fetch_add(1, std::memory_order_relaxed);
}

bool DynamicGraph::erase_from(std::vector<VertexId>& list, VertexId x) {
  auto it = std::find(list.begin(), list.end(), x);
  if (it == list.end()) return false;
  *it = list.back();
  list.pop_back();
  return true;
}

bool DynamicGraph::remove_edge(VertexId u, VertexId v) {
  if (u == v || u >= adj_.size() || v >= adj_.size()) return false;
  if (!erase_from(adj_[u], v)) return false;
  erase_from(adj_[v], u);
  num_edges_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

std::size_t DynamicGraph::max_degree() const {
  std::size_t best = 0;
  for (const auto& list : adj_) best = std::max(best, list.size());
  return best;
}

std::vector<Edge> DynamicGraph::edges() const {
  std::vector<Edge> out;
  out.reserve(num_edges());
  for (VertexId u = 0; u < adj_.size(); ++u)
    for (VertexId v : adj_[u])
      if (u < v) out.push_back(Edge{u, v});
  return out;
}

GraphMemoryStats DynamicGraph::memory_stats() const {
  GraphMemoryStats out;
  out.num_vertices = adj_.size();
  out.num_edges = num_edges();
  out.header_bytes = adj_.capacity() * sizeof(std::vector<VertexId>);
  for (const auto& list : adj_)
    out.adjacency_bytes += list.capacity() * sizeof(VertexId);
  return out;
}

}  // namespace parcore
