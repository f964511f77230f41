#include "decomp/truss.h"

#include <algorithm>

namespace parcore {
namespace {

/// Sorted adjacency snapshot for fast triangle enumeration.
std::vector<std::vector<VertexId>> sorted_adjacency(const DynamicGraph& g) {
  std::vector<std::vector<VertexId>> adj(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto nbrs = g.neighbors(v);
    adj[v].assign(nbrs.begin(), nbrs.end());
    std::sort(adj[v].begin(), adj[v].end());
  }
  return adj;
}

/// Calls fn(w) for every common neighbour w of u and v.
template <typename Fn>
void for_common_neighbors(const std::vector<std::vector<VertexId>>& adj,
                          VertexId u, VertexId v, Fn&& fn) {
  const auto& a = adj[u];
  const auto& b = adj[v];
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      fn(a[i]);
      ++i;
      ++j;
    }
  }
}

}  // namespace

CoreValue TrussDecomposition::of(Edge e) const {
  auto it = index.find(edge_key(e));
  return it == index.end() ? 0 : trussness[it->second];
}

TrussDecomposition truss_decompose(const DynamicGraph& g) {
  TrussDecomposition d;
  d.edges = g.edges();
  const std::size_t m = d.edges.size();
  d.trussness.assign(m, 2);
  d.index.reserve(2 * m);
  for (std::size_t i = 0; i < m; ++i) d.index[edge_key(d.edges[i])] = i;
  if (m == 0) return d;

  auto adj = sorted_adjacency(g);

  // Support (triangle count) per edge.
  std::vector<std::int64_t> support(m, 0);
  std::int64_t max_support = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const Edge e = d.edges[i];
    std::int64_t s = 0;
    for_common_neighbors(adj, e.u, e.v, [&](VertexId) { ++s; });
    support[i] = s;
    max_support = std::max(max_support, s);
  }

  // Bucket sort edges by support and peel in increasing order.
  std::vector<std::size_t> bin(static_cast<std::size_t>(max_support) + 2, 0);
  for (std::size_t i = 0; i < m; ++i)
    ++bin[static_cast<std::size_t>(support[i])];
  std::size_t start = 0;
  for (std::size_t s = 0; s < bin.size(); ++s) {
    const std::size_t count = bin[s];
    bin[s] = start;
    start += count;
  }
  std::vector<std::size_t> order(m);  // edge indices sorted by support
  std::vector<std::size_t> pos(m);
  for (std::size_t i = 0; i < m; ++i) {
    pos[i] = bin[static_cast<std::size_t>(support[i])]++;
    order[pos[i]] = i;
  }
  for (std::size_t s = bin.size() - 1; s >= 1; --s) bin[s] = bin[s - 1];
  bin[0] = 0;

  std::vector<bool> peeled(m, false);
  auto lower_support = [&](std::size_t idx, std::int64_t floor_s) {
    // Move edge idx one support bucket down (not below floor_s).
    if (support[idx] <= floor_s) return;
    const auto s = static_cast<std::size_t>(support[idx]);
    const std::size_t first = bin[s];
    const std::size_t other = order[first];
    if (other != idx) {
      std::swap(order[first], order[pos[idx]]);
      std::swap(pos[other], pos[idx]);
    }
    ++bin[s];
    --support[idx];
  };

  CoreValue level = 2;
  for (std::size_t p = 0; p < m; ++p) {
    const std::size_t i = order[p];
    level = std::max<CoreValue>(level,
                                static_cast<CoreValue>(support[i]) + 2);
    d.trussness[i] = level;
    peeled[i] = true;
    const Edge e = d.edges[i];
    const std::int64_t floor_s = support[i];
    for_common_neighbors(adj, e.u, e.v, [&](VertexId w) {
      auto uw = d.index.find(edge_key(Edge{e.u, w}));
      auto vw = d.index.find(edge_key(Edge{e.v, w}));
      if (uw == d.index.end() || vw == d.index.end()) return;
      if (peeled[uw->second] || peeled[vw->second]) return;
      lower_support(uw->second, floor_s);
      lower_support(vw->second, floor_s);
    });
  }
  d.max_truss = level;
  return d;
}

TrussDecomposition brute_force_truss(const DynamicGraph& g) {
  TrussDecomposition d;
  d.edges = g.edges();
  const std::size_t m = d.edges.size();
  d.trussness.assign(m, 2);
  d.index.reserve(2 * m);
  for (std::size_t i = 0; i < m; ++i) d.index[edge_key(d.edges[i])] = i;
  if (m == 0) return d;

  // For k = 3, 4, ...: repeatedly delete edges with < k-2 triangles in
  // the surviving subgraph; survivors have trussness >= k.
  std::vector<bool> alive(m, true);
  // The peeling scratch graph is a copy: adjacency sized to degree.
  DynamicGraph work = g;
  auto adj = sorted_adjacency(work);
  for (CoreValue k = 3;; ++k) {
    bool changed = true;
    bool any_alive = false;
    while (changed) {
      changed = false;
      adj = sorted_adjacency(work);
      for (std::size_t i = 0; i < m; ++i) {
        if (!alive[i]) continue;
        const Edge e = d.edges[i];
        std::int64_t s = 0;
        for_common_neighbors(adj, e.u, e.v, [&](VertexId) { ++s; });
        if (s < k - 2) {
          alive[i] = false;
          work.remove_edge(e.u, e.v);
          changed = true;
        }
      }
    }
    for (std::size_t i = 0; i < m; ++i) {
      if (alive[i]) {
        d.trussness[i] = k;
        any_alive = true;
      }
    }
    if (!any_alive) break;
  }
  for (CoreValue t : d.trussness) d.max_truss = std::max(d.max_truss, t);
  return d;
}

}  // namespace parcore
