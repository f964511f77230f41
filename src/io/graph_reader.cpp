#include "io/graph_reader.h"

#include <algorithm>
#include <cctype>
#include <unordered_map>
#include <unordered_set>

#include "io/io_error.h"
#include "io/line_reader.h"
#include "io/pcg.h"
#include "io/tokens.h"

namespace parcore::io {

namespace {

std::string strip_gz(const std::string& path) {
  if (path.size() > 3 && path.compare(path.size() - 3, 3, ".gz") == 0)
    return path.substr(0, path.size() - 3);
  return path;
}

bool has_ext(const std::string& path, const char* ext) {
  const std::string base = strip_gz(path);
  const std::size_t n = std::string(ext).size();
  return base.size() > n && base.compare(base.size() - n, n, ext) == 0;
}

/// Interns raw 64-bit file ids into the compact [0, n) VertexId space;
/// in verbatim mode ids pass through but are bounds-checked against the
/// VertexId width.
class IdMap {
 public:
  explicit IdMap(bool compact) : compact_(compact) {}

  VertexId intern(std::uint64_t raw, const LineReader& src) {
    if (compact_) {
      auto [it, inserted] =
          remap_.try_emplace(raw, static_cast<VertexId>(remap_.size()));
      if (inserted) {
        if (remap_.size() > kInvalidVertex)
          throw IoError(src.path(), src.line_number(),
                        "more distinct vertices than VertexId can address");
        original_.push_back(raw);
      }
      return it->second;
    }
    if (raw >= kInvalidVertex)
      throw IoError(src.path(), src.line_number(),
                    "vertex id " + std::to_string(raw) +
                        " overflows the 32-bit VertexId space "
                        "(use id compaction)");
    max_raw_ = std::max(max_raw_, raw);
    return static_cast<VertexId>(raw);
  }

  std::size_t num_vertices(bool any_edges) const {
    if (compact_) return remap_.size();
    return any_edges ? static_cast<std::size_t>(max_raw_) + 1 : 0;
  }

  std::vector<std::uint64_t> take_original_ids() { return std::move(original_); }

 private:
  bool compact_;
  std::unordered_map<std::uint64_t, VertexId> remap_;
  std::vector<std::uint64_t> original_;
  std::uint64_t max_raw_ = 0;
};

struct EdgeFilter {
  explicit EdgeFilter(bool enabled) : enabled_(enabled) {}

  /// True when the edge should be kept; counts drops in `stats`.
  bool admit(Edge e, ReadStats& stats) {
    if (!enabled_) return true;
    if (e.u == e.v) {
      ++stats.self_loops;
      return false;
    }
    if (!seen_.insert(edge_key(e)).second) {
      ++stats.duplicates;
      return false;
    }
    return true;
  }

 private:
  bool enabled_;
  std::unordered_set<std::uint64_t> seen_;
};

GraphData read_edge_list(const std::string& path, const ReadOptions& opts) {
  LineReader in(path);
  GraphData data;
  IdMap ids(opts.compact_ids);
  EdgeFilter filter(opts.filter);

  std::string line, err;
  while (in.next(line)) {
    const char* p = skip_ws(line.c_str());
    if (*p == '#' || *p == '%' || *p == '\0') {
      ++data.stats.comments;
      continue;
    }
    ++data.stats.data_lines;
    std::uint64_t a = 0, b = 0, t = 0;
    if (!parse_u64(p, a, err) || !parse_u64(p, b, err))
      throw IoError(path, in.line_number(), err);
    bool timed = false;
    if (!at_line_end(p)) {
      // 3 columns: "u v time" (SNAP temporal). 4+ columns: KONECT's
      // "u v weight time" — the weight may be signed or fractional and
      // is skipped unparsed; columns past the timestamp are ignored.
      const char* probe = p;
      skip_token(probe);
      if (!at_line_end(probe)) skip_token(p);
      if (!parse_u64(p, t, err)) throw IoError(path, in.line_number(), err);
      timed = true;
    }
    TimestampedEdge te;
    te.e = Edge{ids.intern(a, in), ids.intern(b, in)};
    te.time = t;
    if (timed) data.has_timestamps = true;
    if (filter.admit(te.e, data.stats)) data.edges.push_back(te);
  }
  data.num_vertices = ids.num_vertices(data.stats.data_lines > 0);
  data.original_ids = ids.take_original_ids();
  return data;
}

GraphData read_matrix_market(const std::string& path,
                             const ReadOptions& opts) {
  LineReader in(path);
  GraphData data;
  IdMap ids(opts.compact_ids);
  EdgeFilter filter(opts.filter);

  std::string line, err;
  if (!in.next(line))
    throw IoError(path, 1, "empty file (expected %%MatrixMarket banner)");
  std::string lower = line;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower.rfind("%%matrixmarket", 0) != 0)
    throw IoError(path, 1, "missing %%MatrixMarket banner");
  if (lower.find("coordinate") == std::string::npos)
    throw IoError(path, 1,
                  "only 'coordinate' (sparse) MatrixMarket is supported");

  // Skip '%' comments up to the "rows cols nnz" dimension line.
  std::uint64_t rows = 0, cols = 0, nnz = 0;
  bool have_dims = false;
  while (!have_dims) {
    if (!in.next(line))
      throw IoError(path, in.line_number(),
                    "truncated header: no dimension line");
    const char* p = skip_ws(line.c_str());
    if (*p == '%' || *p == '\0') {
      ++data.stats.comments;
      continue;
    }
    if (!parse_u64(p, rows, err) || !parse_u64(p, cols, err) ||
        !parse_u64(p, nnz, err))
      throw IoError(path, in.line_number(), "bad dimension line: " + err);
    if (rows != cols)
      throw IoError(path, in.line_number(),
                    "rectangular matrix (" + std::to_string(rows) + " x " +
                        std::to_string(cols) +
                        "): rows and columns are different vertex spaces, "
                        "not an undirected graph");
    have_dims = true;
  }

  while (in.next(line)) {
    const char* p = skip_ws(line.c_str());
    if (*p == '%' || *p == '\0') {
      ++data.stats.comments;
      continue;
    }
    ++data.stats.data_lines;
    if (data.stats.data_lines > nnz)
      throw IoError(path, in.line_number(),
                    "more entries than the declared nnz (" +
                        std::to_string(nnz) + ")");
    std::uint64_t i = 0, j = 0;
    if (!parse_u64(p, i, err) || !parse_u64(p, j, err))
      throw IoError(path, in.line_number(), err);
    // The optional numeric value is ignored (pattern matrices have none).
    if (i == 0 || j == 0)
      throw IoError(path, in.line_number(),
                    "MatrixMarket ids are 1-based; got 0");
    if (i > rows || j > cols)
      throw IoError(path, in.line_number(),
                    "entry (" + std::to_string(i) + ", " + std::to_string(j) +
                        ") exceeds declared dimensions");
    // Intern 0-based so verbatim mode yields [0, n) directly.
    TimestampedEdge te;
    te.e = Edge{ids.intern(i - 1, in), ids.intern(j - 1, in)};
    if (filter.admit(te.e, data.stats)) data.edges.push_back(te);
  }
  if (data.stats.data_lines < nnz)
    throw IoError(path, in.line_number(),
                  "truncated: declared nnz " + std::to_string(nnz) +
                      " but found " + std::to_string(data.stats.data_lines) +
                      " entries");
  data.num_vertices = ids.num_vertices(data.stats.data_lines > 0);
  data.original_ids = ids.take_original_ids();
  return data;
}

}  // namespace

GraphFormat detect_format(const std::string& path) {
  if (has_ext(path, ".pcg")) return GraphFormat::kPcg;
  if (has_ext(path, ".mtx")) return GraphFormat::kMatrixMarket;
  return GraphFormat::kEdgeList;
}

GraphData read_graph(const std::string& path, const ReadOptions& opts) {
  GraphFormat format =
      opts.format == GraphFormat::kAuto ? detect_format(path) : opts.format;
  GraphData data;
  switch (format) {
    case GraphFormat::kEdgeList:
      data = read_edge_list(path, opts);
      break;
    case GraphFormat::kMatrixMarket:
      data = read_matrix_market(path, opts);
      break;
    case GraphFormat::kPcg:
      data = load_pcg(path);
      break;
    case GraphFormat::kAuto:
      throw IoError(path, 0, "unreachable format");
  }
  data.stats.memory_footprint_bytes =
      data.edges.capacity() * sizeof(TimestampedEdge) +
      data.original_ids.capacity() * sizeof(std::uint64_t);
  return data;
}

DynamicGraph to_dynamic_graph(const GraphData& data) {
  // from_edges preallocates every vertex to its exact degree in one
  // counting pass, so .pcg loads (and every other format) build the
  // adjacency without reallocation.
  std::vector<Edge> edges = static_edges(data);
  return DynamicGraph::from_edges(data.num_vertices, edges);
}

std::vector<Edge> static_edges(const GraphData& data) {
  std::vector<Edge> edges;
  edges.reserve(data.edges.size());
  for (const TimestampedEdge& te : data.edges) edges.push_back(te.e);
  return edges;
}

}  // namespace parcore::io
