// Dynamic undirected graph over a fixed-capacity vertex set.
//
// Adjacency is stored as plain arrays per vertex ("our method uses
// arrays to store edges", paper §6.3) — removal scans the adjacency
// list, which is exactly the O(deg) cost the paper attributes to OurR
// versus the tree-based JE storage. Removal swap-erases in place and
// never shrinks, so a vertex's steady-state insert/remove churn stops
// allocating once its array has reached its peak degree.
//
// Thread-safety contract: DynamicGraph performs no per-vertex
// synchronisation. The maintainers mutate an edge (u,v) only while
// holding the vertex locks of BOTH u and v, and read adj(w) — including
// the span from neighbors() — only while holding w's lock (or at
// quiescence), which makes all accesses, including the reallocation of
// a growing adjacency array, race-free by construction.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>
#include <vector>

#include "support/types.h"

namespace parcore {

/// Memory accounting for the adjacency storage (surfaced by
/// `parcore_cli stats` and the engine stats).
struct GraphMemoryStats {
  std::size_t num_vertices = 0;
  std::size_t num_edges = 0;
  std::size_t header_bytes = 0;     // per-vertex array headers
  std::size_t adjacency_bytes = 0;  // capacity of the adjacency arrays

  /// Total heap footprint of the adjacency structure.
  std::size_t total_bytes() const { return header_bytes + adjacency_bytes; }
};

class DynamicGraph {
 public:
  DynamicGraph() = default;
  explicit DynamicGraph(std::size_t n) : adj_(n) {}

  // Copy/move are explicit because of the atomic edge counter; they are
  // only meaningful at quiescence (no concurrent mutators). A copy sizes
  // every adjacency array to its degree, dropping growth slack.
  DynamicGraph(const DynamicGraph& other)
      : adj_(other.adj_), num_edges_(other.num_edges()) {}
  DynamicGraph& operator=(const DynamicGraph& other) {
    adj_ = other.adj_;
    num_edges_.store(other.num_edges(), std::memory_order_relaxed);
    return *this;
  }
  DynamicGraph(DynamicGraph&& other) noexcept
      : adj_(std::move(other.adj_)), num_edges_(other.num_edges()) {
    other.adj_.clear();
    other.num_edges_.store(0, std::memory_order_relaxed);
  }
  DynamicGraph& operator=(DynamicGraph&& other) noexcept {
    adj_ = std::move(other.adj_);
    num_edges_.store(other.num_edges(), std::memory_order_relaxed);
    other.adj_.clear();
    other.num_edges_.store(0, std::memory_order_relaxed);
    return *this;
  }

  /// Builds a graph from an edge list, dropping self-loops and duplicate
  /// edges (paper §6.2 preprocessing). A counting pass reserves every
  /// vertex's exact degree before any adjacency is written, so the fill
  /// never reallocates.
  static DynamicGraph from_edges(std::size_t n, std::span<const Edge> edges);

  std::size_t num_vertices() const { return adj_.size(); }
  std::size_t num_edges() const {
    return num_edges_.load(std::memory_order_relaxed);
  }

  /// Grows the vertex set to at least n vertices (no-op if smaller).
  /// Quiescent only: growing reallocates the array of per-vertex
  /// headers. The adjacency arrays themselves move with their headers,
  /// so neighbors() spans taken before the call stay valid.
  void add_vertices(std::size_t n) {
    if (n > adj_.size()) adj_.resize(n);
  }

  std::span<const VertexId> neighbors(VertexId u) const {
    return {adj_[u].data(), adj_[u].size()};
  }

  std::size_t degree(VertexId u) const { return adj_[u].size(); }

  /// Scans the smaller-degree endpoint, so hub vertices cost O(min deg)
  /// on the locked insert path.
  bool has_edge(VertexId u, VertexId v) const;

  /// Inserts (u,v); returns false for self-loops and existing edges.
  bool insert_edge(VertexId u, VertexId v);

  /// Removes (u,v); returns false if absent. Order within the adjacency
  /// arrays is not preserved (swap-erase).
  bool remove_edge(VertexId u, VertexId v);

  /// Insert without the existence check — caller has already verified
  /// absence (used under vertex locks where has_edge was just called).
  void insert_edge_unchecked(VertexId u, VertexId v);

  std::size_t max_degree() const;
  double average_degree() const {  // paper Table 2 definition: m / n
    return adj_.empty() ? 0.0
                        : static_cast<double>(num_edges()) /
                              static_cast<double>(adj_.size());
  }

  /// All edges with u < v, in adjacency order.
  std::vector<Edge> edges() const;

  /// Adjacency-storage accounting: an O(n) scan. Quiescent only.
  GraphMemoryStats memory_stats() const;

 private:
  static bool erase_from(std::vector<VertexId>& list, VertexId x);

  std::vector<std::vector<VertexId>> adj_;
  // Adjacency lists are guarded by the maintainers' vertex locks; the
  // shared edge counter is touched by all workers, so it is atomic.
  std::atomic<std::size_t> num_edges_{0};
};

}  // namespace parcore
