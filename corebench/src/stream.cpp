// stream: the StreamingEngine end to end on the livej stand-in.
//
// One open-loop producer submits at a fixed rate, so a slow flush delays
// later updates instead of slowing the producer down. The rate is about a
// tenth of the engine's capacity on a 4-thread host: each flush applies
// what arrived during the previous one, so a slower host gives bigger
// flushes that are slower again. At 100k ops/s fresh_p50 moved 3x
// between runs on one host, at 50k ops/s still 1.6x. Every 25th op is
// a probe: an insert joining a fresh pair of reserved isolated vertices,
// visible exactly when their core rises from 0 to 1. A concurrent
// closed-loop reader fetches snapshot() and does point reads; it also
// stamps when each probe becomes visible. Freshness is timed from when
// the probe was due, not from when it was submitted.
//
// The edge universe is the livej stand-in from the suite's fixed seed,
// and the initial half and the op stream are fixed too: together they
// stand in for a temporal dataset replayed at a fixed rate. --seed picks
// the read targets. Per-edge maintenance cost on this graph is
// heavy-tailed and path-dependent: with a seeded op stream whole runs
// settled into regimes with 1.5x different apply cost per flush.
//
// The engine records every flush's span, and the producer every op it
// submitted, so the engine's flushes can be replayed exactly: the same
// ops, cut at the same flush boundaries, from a copy of the same
// starting graph. The untraced run replays them through OurR/OurI at
// every hardware thread and through SeqOrder (the paper's rates, on the
// stream's own batches). The trace run replays the whole flush, stage by
// stage, through the public calls (IngestQueue push/drain,
// engine::coalesce, durability::Manager::log_flush, remove_batch /
// insert_batch, OM compaction, VersionedCoreIndex::publish), once
// untraced and once with a span around each stage.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>

#include "batch.h"
#include "decomp/bz.h"
#include "durability/manager.h"
#include "engine/coalesce.h"
#include "engine/engine.h"
#include "engine/ingest.h"
#include "gen/suite.h"
#include "obs/trace.h"
#include "support/rng.h"
#include "sync/thread_team.h"
#include "workloads.h"

namespace corebench {

using namespace parcore;
namespace fs = std::filesystem;

namespace {

struct StreamSize {
  SuiteSpec spec;
  double scale = 1.0;
  double rate = 25'000.0;        // submitted ops per second
  std::size_t probe_every = 25;  // one probe per this many ops
};

StreamSize stream_size(bool smoke) {
  StreamSize s;
  for (const SuiteSpec& spec : table2_suite())
    if (spec.name == "livej") s.spec = spec;
  if (smoke) {
    s.scale = 0.02;
    s.rate = 10'000.0;
  }
  return s;
}

/// Flushes (and probes) in the first tenth of the stream are warm-up.
constexpr double kWarmFrac = 0.1;
/// An untraced replay pass starts only if it would end before this
/// share of the run.
constexpr double kReplayEnd = 0.95;

/// Removes a scratch directory when the run ends, on every path.
struct TempDir {
  std::string path;
  explicit TempDir(std::string p) : path(std::move(p)) {
    fs::remove_all(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

/// The producer's inputs: the edge universe and what it has asked for.
/// Half the universe starts present and ops pick uniformly, half
/// inserts and half removes, so membership stays at equilibrium and
/// about half the ops change the graph.
constexpr std::uint64_t kDatasetSeed = 0x57aea3ULL;
struct Model {
  std::size_t n_base = 0;
  std::vector<Edge> universe;          // canonical, distinct
  std::vector<std::uint8_t> present;   // last requested state
  Rng rng{1};
  std::size_t probes = 0;  // reserved isolated vertex pairs
};

Model make_model(const StreamSize& sz, std::size_t probes) {
  Model m;
  SuiteGraph sg = build_suite_graph(sz.spec, sz.scale);
  m.n_base = sg.num_vertices;
  for (Edge e : sg.edges) {
    if (e.u == e.v) continue;
    if (e.u > e.v) std::swap(e.u, e.v);
    m.universe.push_back(e);
  }
  std::sort(m.universe.begin(), m.universe.end(),
            [](Edge a, Edge b) { return a.u != b.u ? a.u < b.u : a.v < b.v; });
  m.universe.erase(std::unique(m.universe.begin(), m.universe.end(),
                               [](Edge a, Edge b) {
                                 return a.u == b.u && a.v == b.v;
                               }),
                   m.universe.end());
  Rng half(kDatasetSeed);
  m.present.resize(m.universe.size());
  for (auto& p : m.present) p = half.chance(0.5) ? 1 : 0;
  m.rng = Rng(kDatasetSeed + 1);
  m.probes = probes;
  return m;
}

std::size_t num_vertices(const Model& m) { return m.n_base + 2 * m.probes; }

std::vector<Edge> present_edges(const Model& m) {
  std::vector<Edge> out;
  for (std::size_t i = 0; i < m.universe.size(); ++i)
    if (m.present[i]) out.push_back(m.universe[i]);
  return out;
}

/// Probe bookkeeping shared by the producer (writes due times, then
/// publishes the count) and the reader (stamps visibility in order:
/// one producer feeding one FIFO pipeline makes visibility monotone).
struct ProbeBoard {
  std::vector<std::int64_t> due_ns;
  std::vector<std::int64_t> visible_ns;
  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> seen{0};
  // The reader's own CPU seconds, so the producer's tick can leave the
  // closed-loop reader out of the engine's CPU cost.
  std::atomic<double> reader_cpu_s{0.0};
};

struct ProducerReport {
  std::uint64_t ops = 0;
  std::uint64_t shed = 0;
  double late_max_ms = 0.0;
  std::int64_t t0_ns = 0;          // op i was due at t0_ns + i / rate
  std::vector<double> submit_ns;   // trace runs only
  std::vector<GraphUpdate> log;    // every accepted op, in order
};

/// Open loop: op i is due at t0 + i / rate, whatever the engine does.
/// `tick(reader_cpu_s)` runs every kTickS seconds between bursts of
/// submits.
constexpr double kTickS = 2.0;
template <typename Submit, typename Tick>
ProducerReport produce(Model& m, ProbeBoard& pb, const StreamSize& sz,
                       double seconds, bool time_submits, Submit&& submit,
                       Tick&& tick) {
  ProducerReport rep;
  rep.log.reserve(static_cast<std::size_t>(seconds * sz.rate * 1.05) + 16);
  const double ns_per_op = 1e9 / sz.rate;
  const std::int64_t t0 = now_ns();
  rep.t0_ns = t0;
  const auto end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t probes = 0;
  std::uint64_t i = 0;
  std::int64_t late_max = 0;
  std::int64_t next_tick = t0 + static_cast<std::int64_t>(kTickS * 1e9);
  for (;;) {
    std::int64_t now = now_ns();
    if (now >= end) break;
    if (now >= next_tick) {
      tick(pb.reader_cpu_s.load(std::memory_order_relaxed));
      next_tick += static_cast<std::int64_t>(kTickS * 1e9);
    }
    const auto due_count =
        static_cast<std::uint64_t>(static_cast<double>(now - t0) / ns_per_op) + 1;
    for (; i < due_count; ++i) {
      const std::int64_t due = t0 + static_cast<std::int64_t>(
                                        static_cast<double>(i) * ns_per_op);
      const bool probe = i % sz.probe_every == 0 && probes < m.probes;
      GraphUpdate u;
      std::size_t idx = 0;
      if (probe) {
        const auto a = static_cast<VertexId>(m.n_base + 2 * probes);
        u = GraphUpdate{Edge{a, a + 1}, UpdateKind::kInsert};
      } else {
        idx = m.rng.bounded(m.universe.size());
        u = GraphUpdate{m.universe[idx], m.rng.chance(0.5) ? UpdateKind::kInsert
                                                           : UpdateKind::kRemove};
      }
      const std::int64_t s0 = now_ns();
      const bool ok = submit(u);
      if (time_submits)
        rep.submit_ns.push_back(static_cast<double>(now_ns() - s0));
      late_max = std::max(late_max, s0 - due);
      ++rep.ops;
      if (!ok) {
        ++rep.shed;
        continue;
      }
      rep.log.push_back(u);
      if (probe) {
        pb.due_ns[probes] = due;
        ++probes;
        pb.submitted.store(probes, std::memory_order_release);
      } else {
        m.present[idx] = u.kind == UpdateKind::kInsert ? 1 : 0;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  rep.late_max_ms = static_cast<double>(late_max) * 1e-6;
  return rep;
}

struct Segment {
  ProducerReport prod;
  ReaderReport reader;
  std::vector<double> fresh_ms;
  std::vector<double> fresh_due_s;  // when each of those probes was due
  std::uint64_t unseen = 0;
  Cpu cpu;  // whole process over the segment
};

/// Frames are written but not fsynced: on the shared host the WAL phase
/// moved 3x between runs with fsync on, set by other tenants' disk use.
durability::Manager::Options wal_options(const std::string& dir) {
  durability::Manager::Options mo;
  mo.dir = dir;
  mo.checkpoint_interval = 0;  // WAL only while measuring
  mo.fsync = false;
  return mo;
}

struct Engine {
  Model model;
  std::vector<Edge> initial;  // the starting edges, for the replays
  std::unique_ptr<DynamicGraph> g;
  std::unique_ptr<TempDir> wal;
  engine::StreamingEngine::Options opts;
  std::vector<obs::FlushSpan> spans;  // every flush, in order
  std::vector<std::int64_t> span_end_ns;  // when each was reported
  std::unique_ptr<engine::StreamingEngine> eng;
};

std::unique_ptr<Engine> set_up(const StreamSize& sz, const Args& args,
                               std::size_t probes, ThreadTeam& team,
                               int workers, int attempt) {
  auto e = std::make_unique<Engine>();
  e->model = make_model(sz, probes);
  e->initial = present_edges(e->model);
  e->g = std::make_unique<DynamicGraph>(
      DynamicGraph::from_edges(num_vertices(e->model), e->initial));
  e->wal = std::make_unique<TempDir>(args.work_dir + "/wal-" +
                                     std::to_string(::getpid()) + "-" +
                                     std::to_string(attempt));
  e->opts.workers = workers;
  e->opts.durability = wal_options(e->wal->path);
  Engine* ep = e.get();
  e->opts.span_sink = [ep](const obs::FlushSpan& s) {
    ep->spans.push_back(s);
    ep->span_end_ns.push_back(now_ns());
  };
  e->eng = std::make_unique<engine::StreamingEngine>(*e->g, team, e->opts);
  return e;
}

/// Producer on the calling thread, reader on its own, against the
/// engine; stops the engine once the producer is done.
template <typename Tick>
Segment run_engine(Engine& e, const StreamSize& sz, double seconds,
                   std::uint64_t seed, bool time_submits, Tick&& tick) {
  Segment seg;
  ProbeBoard pb;
  pb.due_ns.assign(e.model.probes, 0);
  pb.visible_ns.assign(e.model.probes, 0);
  engine::StreamingEngine& eng = *e.eng;
  const std::size_t n_base = e.model.n_base;

  std::atomic<bool> streaming{true}, quit{false};
  const Cpu c0 = process_cpu();
  const std::int64_t t0 = now_ns();
  std::thread reader([&] {
    std::size_t head = 0, fetches = 0;
    seg.reader = closed_loop_reader(
        static_cast<std::uint32_t>(num_vertices(e.model)), seed, quit,
        [&] { return eng.snapshot(); },
        [&](const engine::EngineSnapshot& snap, std::int64_t fetched) {
          const std::size_t sub = pb.submitted.load(std::memory_order_acquire);
          while (head < sub &&
                 snap.core(static_cast<VertexId>(n_base + 2 * head)) >= 1)
            pb.visible_ns[head++] = fetched;
          pb.seen.store(head, std::memory_order_release);
          if (++fetches % 64 == 0)
            pb.reader_cpu_s.store(thread_cpu().total(), std::memory_order_relaxed);
          return streaming.load(std::memory_order_relaxed);
        });
  });
  eng.start();
  seg.prod = produce(e.model, pb, sz, seconds, time_submits,
                     [&](const GraphUpdate& u) { return eng.submit(u).accepted; },
                     tick);
  streaming.store(false);
  eng.stop();
  seg.cpu = process_cpu();
  seg.cpu.user_s -= c0.user_s;
  seg.cpu.sys_s -= c0.sys_s;
  const std::size_t total = pb.submitted.load();
  const std::int64_t deadline = now_ns() + 2'000'000'000;
  while (pb.seen.load() < total && now_ns() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  quit.store(true);
  reader.join();

  const std::int64_t warm = t0 + static_cast<std::int64_t>(kWarmFrac * seconds * 1e9);
  for (std::size_t i = 0; i < total; ++i) {
    if (pb.visible_ns[i] == 0) {
      ++seg.unseen;
      continue;
    }
    if (pb.due_ns[i] >= warm) {
      seg.fresh_ms.push_back(static_cast<double>(pb.visible_ns[i] - pb.due_ns[i]) *
                             1e-6);
      seg.fresh_due_s.push_back(static_cast<double>(pb.due_ns[i] - warm) * 1e-9);
    }
  }
  return seg;
}

/// Final membership must be exactly what the producer last asked for.
std::size_t membership_mismatches(const Model& m, const DynamicGraph& g) {
  std::vector<Edge> have;
  for (const Edge& e : g.edges())
    if (e.v < m.n_base) have.push_back(e);
  auto less = [](Edge a, Edge b) { return a.u != b.u ? a.u < b.u : a.v < b.v; };
  std::sort(have.begin(), have.end(), less);
  const std::vector<Edge> want = present_edges(m);  // sorted: universe is
  std::vector<Edge> diff;
  std::set_symmetric_difference(have.begin(), have.end(), want.begin(),
                                want.end(), std::back_inserter(diff), less);
  return diff.size();
}

/// `cores` of graph `g` (a replica named `what`) against bz_decompose
/// and the engine's final cores; the edge set against the producer's.
void check_replica(const DynamicGraph& g, const std::vector<CoreValue>& cores,
                   const std::vector<CoreValue>& engine_cores, const Model& m,
                   const std::string& what, Outcome& out) {
  if (const std::size_t bad = core_mismatches(bz_decompose(g).core, cores))
    out.mismatch(std::to_string(bad) + " " + what +
                 " cores differ from bz_decompose");
  if (const std::size_t bad = core_mismatches(engine_cores, cores))
    out.mismatch(std::to_string(bad) + " " + what +
                 " cores differ from the engine's final snapshot");
  if (const std::size_t bad = membership_mismatches(m, g))
    out.mismatch(std::to_string(bad) + " edges of " + what +
                 " differ from the submitted stream");
}

std::string fmt(const char* f, double a, double b = 0.0, double c = 0.0,
                double d = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, f, a, b, c, d);
  return buf;
}

/// The producer's op log cut at the engine's flush boundaries: flush i
/// is the next spans[i].raw ops (one producer feeds one FIFO ingest
/// shard, so every drain takes a prefix of what is left).
struct Flushes {
  const ProducerReport& prod;
  const Engine& e;
  double ns_per_op = 0.0;
  std::size_t warm = 0;  // flushes before this index are warm-up

  std::size_t size() const { return e.spans.size(); }
  std::size_t raw(std::size_t i) const {
    return static_cast<std::size_t>(e.spans[i].raw);
  }
  /// When op j was due, relative to the producer's start.
  std::int64_t due_ns(std::size_t j) const {
    return static_cast<std::int64_t>(static_cast<double>(j) * ns_per_op);
  }
  /// When flush i started, relative to the producer's start.
  std::int64_t start_ns(std::size_t i) const {
    return e.span_end_ns[i] - static_cast<std::int64_t>(e.spans[i].flush_us) * 1000 -
           prod.t0_ns;
  }
  template <typename Fn>
  void each(Fn&& fn) const {
    const std::vector<GraphUpdate>& ops = prod.log;
    std::size_t off = 0;
    for (std::size_t i = 0; i < size(); ++i) {
      fn(i, std::span<const GraphUpdate>(ops.data() + off, raw(i)));
      off += raw(i);
    }
  }
};

// ------------------------------------------------- replay: batches

/// One pass of the engine's coalesced flush batches through OurR/OurI
/// at the engine's worker count and through SeqOrder, each on its own
/// copy of the starting graph; adds the pass to `rep`.
void replay_batches(const Engine& e, const Flushes& fl, ThreadTeam& team,
                    const std::vector<CoreValue>& engine_cores, BatchReport& rep,
                    Outcome& out) {
  const std::size_t n = num_vertices(e.model);
  DynamicGraph g_par = DynamicGraph::from_edges(n, e.initial);
  DynamicGraph g_seq = DynamicGraph::from_edges(n, e.initial);
  ParallelOrderMaintainer par(g_par, team, e.opts.maintainer);
  SeqOrderMaintainer seq(g_seq);
  const int workers = e.opts.workers;
  fl.each([&](std::size_t i, std::span<const GraphUpdate> raw) {
    const engine::CoalescedBatch b = engine::coalesce(raw, g_par, nullptr);
    const bool measured = i >= fl.warm;
    auto timed = [&](Series& s, std::size_t want, auto&& call) {
      if (want == 0) return;
      const std::int64_t t0 = now_ns();
      const std::size_t applied = call();
      const double secs = seconds_since(t0);
      out.attempted += want;
      out.failed += want - std::min(applied, want);
      if (measured) s.add(applied, secs);
    };
    timed(rep.our_rem, b.removes.size(),
          [&] { return par.remove_batch(b.removes, workers).applied; });
    timed(rep.seq_rem, b.removes.size(), [&] { return seq.remove_batch(b.removes); });
    timed(rep.our_ins, b.inserts.size(),
          [&] { return par.insert_batch(b.inserts, workers).applied; });
    timed(rep.seq_ins, b.inserts.size(), [&] { return seq.insert_batch(b.inserts); });
  });
  std::string err;
  if (!par.state().check_invariants(g_par, &err))
    out.mismatch("parallel invariants after the replay: " + err);
  if (!seq.state().check_invariants(g_seq, &err))
    out.mismatch("SeqOrder invariants after the replay: " + err);
  check_replica(g_par, par.cores(), engine_cores, e.model, "parallel replay", out);
  check_replica(g_seq, seq.cores(), engine_cores, e.model, "SeqOrder replay", out);
}

// ------------------------------------------------ replay: pipeline

struct PipelineReplay {
  std::vector<double> flush_us;  // wall of each measured flush
  std::uint64_t wal_bytes = 0;
  double pages = 0.0;  // cloned, over the measured flushes
  ParallelAcc acc;     // measured flushes
  double vplus_mean = 0.0, vstar_mean = 0.0, remove_vstar_mean = 0.0;
};

/// The engine's flush rebuilt from the public calls, from a copy of the
/// starting graph, on the engine's own flush boundaries, start times and
/// options: drain, coalesce, log, remove, insert, compact every
/// `om_compact_interval` flushes, publish. A producer thread pushes each
/// op when it was due and a closed-loop reader spins, as beside the
/// engine. With `traced`, a span around each stage of the measured
/// flushes.
PipelineReplay replay_pipeline(const Engine& e, const Flushes& fl,
                               ThreadTeam& team, const std::string& wal_dir,
                               const std::vector<CoreValue>& engine_cores,
                               bool traced, Tracer& tr, Outcome& out) {
  PipelineReplay rp;
  const std::size_t n = num_vertices(e.model);
  DynamicGraph g = DynamicGraph::from_edges(n, e.initial);
  ParallelOrderMaintainer::Options po = e.opts.maintainer;
  po.collect_stats = true;
  ParallelOrderMaintainer par(g, team, po);
  const int workers = e.opts.workers;

  TempDir dir(wal_dir);
  durability::Manager mgr(wal_options(dir.path));
  {
    io::PcgCheckpoint ck;
    ck.epoch = 0;
    ck.num_vertices = n;
    ck.edges = g.edges();
    SavedCoreOrder saved = par.state().save_order();
    ck.core = std::move(saved.core);
    ck.order = std::move(saved.order);
    mgr.checkpoint(ck);
  }
  query::VersionedCoreIndex index;
  query::CoreView view =
      index.rebuild(n, [&par](VertexId v) { return par.core(v); });

  std::atomic<bool> quit{false};
  const auto first = std::make_shared<const query::CoreView>(view);
  std::thread reader([&] {
    closed_loop_reader(static_cast<std::uint32_t>(n), 1, quit,
                       [&] { return first; },
                       [](const query::CoreView&, std::int64_t) { return true; });
  });

  // Ops of flush i are pushed only once flush i-1 has drained, so every
  // drain takes exactly the engine's flush.
  engine::IngestQueue queue(e.opts.shards);
  std::atomic<std::size_t> pushed{0}, drained{0};
  const std::int64_t t0 = now_ns();
  auto nap = [] { std::this_thread::sleep_for(std::chrono::microseconds(50)); };
  std::thread producer([&] {
    std::size_t j = 0;
    for (std::size_t i = 0; i < fl.size(); ++i) {
      while (drained.load(std::memory_order_acquire) < i) nap();
      for (const std::size_t end = j + fl.raw(i); j < end;) {
        const std::int64_t now = now_ns();
        for (; j < end && t0 + fl.due_ns(j) <= now; ++j) queue.push(fl.prod.log[j]);
        if (j < end) nap();
      }
      pushed.store(i + 1, std::memory_order_release);
    }
  });

  std::vector<GraphUpdate> raw;
  std::vector<VertexId> dirty;
  std::uint64_t bytes0 = 0;
  for (std::size_t i = 0; i < fl.size(); ++i) {
    if (i == fl.warm) {
      bytes0 = mgr.totals().wal_bytes;
      tr.on = traced;
    }
    ParallelAcc* acc = i >= fl.warm ? &rp.acc : nullptr;
    const std::int64_t wait = t0 + fl.start_ns(i) - now_ns();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
    while (pushed.load(std::memory_order_acquire) <= i) nap();
    const std::int64_t f0 = now_ns();
    ScopedSpan flush(tr, "flush");
    raw.clear();
    {
      ScopedSpan s(tr, "engine.drain", flush.id());
      queue.drain(raw);
    }
    drained.store(i + 1, std::memory_order_release);
    if (raw.size() != fl.raw(i))
      out.mismatch("replay flush " + std::to_string(i) + " drained " +
                   std::to_string(raw.size()) + " ops, the engine's " +
                   std::to_string(fl.raw(i)));
    engine::CoalescedBatch b;
    {
      ScopedSpan s(tr, "coalesce", flush.id());
      b = engine::coalesce(raw, g, nullptr);
    }
    {
      ScopedSpan s(tr, "durability.wal", flush.id());
      durability::WalRecord rec;
      rec.epoch = i + 1;
      rec.removes = b.removes;
      rec.inserts = b.inserts;
      mgr.log_flush(rec);
    }
    dirty.clear();
    if (!b.removes.empty()) {
      parallel_remove(par, b.removes, workers, acc, tr, flush.id());
      dirty.insert(dirty.end(), par.last_changed().begin(), par.last_changed().end());
    }
    if (!b.inserts.empty()) {
      parallel_insert(par, b.inserts, workers, acc, tr, flush.id());
      dirty.insert(dirty.end(), par.last_changed().begin(), par.last_changed().end());
    }
    if (e.opts.om_compact_interval > 0 && (i + 1) % e.opts.om_compact_interval == 0) {
      ScopedSpan s(tr, "om.compact", flush.id());
      par.state().levels().compact_all();
    }
    {
      ScopedSpan s(tr, "query.publish", flush.id());
      view = index.publish(dirty, [&par](VertexId v) { return par.core(v); });
    }
    if (acc != nullptr) {
      rp.pages += static_cast<double>(index.last_pages_cloned());
      rp.flush_us.push_back(static_cast<double>(now_ns() - f0) * 1e-3);
    }
  }
  tr.on = false;
  producer.join();
  quit.store(true);
  reader.join();
  rp.wal_bytes = mgr.totals().wal_bytes - bytes0;
  rp.vplus_mean = par.insert_vplus_histogram().mean();
  rp.vstar_mean = par.insert_vstar_histogram().mean();
  rp.remove_vstar_mean = par.remove_vstar_histogram().mean();
  check_replica(g, view.materialize(), engine_cores, e.model,
                traced ? "traced replay" : "untraced replay", out);
  return rp;
}

/// Freshness percentiles within 2-second windows of probe due times,
/// median across windows.
void set_fresh(const Segment& seg, Outcome& out) {
  constexpr double kWindowS = 2.0;
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < seg.fresh_ms.size(); ++i) {
    const auto w = static_cast<std::size_t>(seg.fresh_due_s[i] / kWindowS);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(seg.fresh_ms[i]);
  }
  const WindowedLatency wl = summarize_windows(std::move(windows));
  out.set("fresh_p50_ms", wl.p50);
  out.set("engine.fresh_p99_ms", wl.tail);
  const Tail all = tail_quantile(seg.fresh_ms);
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "fresh: %zu probes after warm-up in %zu windows of %gs; "
                "p%g per window, median across windows, %.3f ms; whole-run "
                "p%g %.3f ms, max %.3f ms; generator ran at most %.3f ms late",
                seg.fresh_ms.size(), wl.windows, kWindowS, wl.tail_q * 100.0,
                wl.tail, all.q * 100.0, all.value, quantile(seg.fresh_ms, 1.0),
                seg.prod.late_max_ms);
  out.note(buf);
}

}  // namespace

Outcome run_stream(const Args& args, Tracer& tr) {
  const std::int64_t run_t0 = now_ns();
  Outcome out;
  const StreamSize sz = stream_size(args.smoke);
  // Producer + reader + flush workers use at most every hardware thread.
  const int workers = std::max(1, hardware_threads() - 2);
  ThreadTeam team(workers);
  // The engine runs for this share of the run; the replays take the rest.
  const double stream_s = (args.trace ? 0.3 : 0.45) * args.seconds;
  const auto probes = static_cast<std::size_t>(
      stream_s * sz.rate / static_cast<double>(sz.probe_every) * 1.1) + 64;

  std::vector<double> setup_s;
  std::unique_ptr<Engine> e;
  for (int i = 0; i < setups(args.trace); ++i) {
    e.reset();
    const std::int64_t t0 = now_ns();
    e = set_up(sz, args, probes, team, workers, i);
    setup_s.push_back(seconds_since(t0));
  }
  out.set("setup_s", median(setup_s));
  out.note("setup: " + std::to_string(setup_s.size()) +
           " set-ups (graph, engine, initial decomposition and checkpoint), "
           "median; universe " + std::to_string(e->model.universe.size()) +
           " edges, " + std::to_string(e->g->num_edges()) + " present");
  engine::StreamingEngine& eng = *e->eng;

  // -------------------------------------------------- engine segment
  // CPU per applied edge: the process minus the closed-loop reader (it
  // spins whatever the engine does), per tick window; the median over
  // windows after the first is reported (the first holds the warm-up).
  std::vector<double> cpu_per_edge;
  double cpu_prev = process_cpu().total();
  double applied_prev = 0.0;
  auto tick = [&](double reader_cpu_s) {
    const engine::EngineStats s = eng.stats();
    const double applied =
        static_cast<double>(s.applied_inserts + s.applied_removes);
    const double cpu = process_cpu().total() - reader_cpu_s;
    if (applied > applied_prev)
      cpu_per_edge.push_back((cpu - cpu_prev) * 1e6 / (applied - applied_prev));
    cpu_prev = cpu;
    applied_prev = applied;
  };
  const Segment seg = run_engine(*e, sz, stream_s, args.seed, args.trace, tick);
  if (cpu_per_edge.size() > 1) cpu_per_edge.erase(cpu_per_edge.begin());
  const engine::EngineStats st = eng.stats();
  out.attempted += seg.prod.ops;
  out.failed += seg.prod.shed + seg.unseen + st.skipped;
  const std::vector<CoreValue> engine_cores = eng.snapshot()->materialize();
  if (const std::size_t bad = core_mismatches(bz_decompose(*e->g).core, engine_cores))
    out.mismatch(std::to_string(bad) + " engine cores differ from bz_decompose");
  if (const std::size_t bad = membership_mismatches(e->model, *e->g))
    out.mismatch(std::to_string(bad) + " engine edges differ from the submitted stream");
  std::uint64_t drained = 0;
  for (const obs::FlushSpan& s : e->spans) drained += s.raw;
  if (drained != seg.prod.log.size() || e->spans.size() != st.epochs)
    out.mismatch(std::to_string(e->spans.size()) + " flush spans carry " +
                 std::to_string(drained) + " ops; the producer submitted " +
                 std::to_string(seg.prod.log.size()));
  const Flushes fl{seg.prod, *e, 1e9 / sz.rate,
                   static_cast<std::size_t>(kWarmFrac *
                                            static_cast<double>(e->spans.size()))};

  const double applied =
      static_cast<double>(st.applied_inserts + st.applied_removes);
  set_fresh(seg, out);
  out.set("read_mqps", seg.reader.mqps);
  out.set("cpu_us_per_edge", median(cpu_per_edge));
  out.note(fmt("cpu: %.3f us per applied edge over the whole segment, "
               "reader included; metric leaves the reader out and is the "
               "median of %.0f windows of 2 s",
               applied > 0.0 ? seg.cpu.total() * 1e6 / applied : 0.0,
               static_cast<double>(cpu_per_edge.size())));
  out.note(fmt("engine: %.0f flushes, %.1f raw ops per flush, applied/raw %.3f",
               static_cast<double>(st.epochs), st.batch_sizes.mean(),
               applied / std::max(1.0, static_cast<double>(st.coalesce.raw))));
  out.note("reads: one closed-loop reader, " + std::to_string(seg.reader.reads) +
           " reads, checksum " + std::to_string(seg.reader.checksum));
  out.set("engine.flushes", static_cast<double>(st.epochs));
  out.set("engine.raw_per_flush", st.batch_sizes.mean());
  out.set("engine.flush_ms_p50", static_cast<double>(st.flush_us.percentile(0.5)) / 1e3);
  out.set("engine.flush_ms_p99", static_cast<double>(st.flush_us.percentile(0.99)) / 1e3);
  out.set("coalesce.applied_frac",
          applied / std::max(1.0, static_cast<double>(st.coalesce.raw)));
  out.set("ingest.submit_ns_p50", quantile(seg.prod.submit_ns, 0.5));
  out.set("ingest.submit_ns_p99", quantile(seg.prod.submit_ns, 0.99));
  out.set("ingest.gen_late_ms_max", seg.prod.late_max_ms);
  out.set("query.snapshot_ns_p99", quantile(seg.reader.snapshot_ns, 0.99));
  out.set("query.read_ns_p50", median(seg.reader.read_ns));
  out.set("decomp.init_s", static_cast<double>(st.engine_init_us) * 1e-6);
  out.set("graph.resident_mb",
          static_cast<double>(e->g->memory_stats().total_bytes()) / (1024.0 * 1024.0));

  if (!args.trace) {
    // ------------------------------------------- replay: the rates
    // The engine's maintainer runs on small batches among a producer
    // and a reader; its rates come from replaying its batches alone, at
    // its own worker count. At every hardware thread, waking three
    // workers for a sub-millisecond batch made the rate swing 2x with
    // the host's load. One pass measures a few seconds of maintenance,
    // so passes repeat, each from a fresh copy of the starting graph,
    // while the next one fits in the run.
    BatchReport rep;
    std::size_t passes = 0;
    double pass_s = 0.0;
    do {
      const std::int64_t p0 = now_ns();
      replay_batches(*e, fl, team, engine_cores, rep, out);
      ++passes;
      pass_s = seconds_since(p0);
    } while (seconds_since(run_t0) + pass_s <= kReplayEnd * args.seconds);
    report_batch_metrics(
        rep,
        "batches: the engine's " + std::to_string(e->spans.size() - fl.warm) +
            " flushes after " + std::to_string(fl.warm) + " warm-up ones, " +
            std::to_string(passes) + fmt(" replay passes of %.1f s", pass_s) +
            " at " + std::to_string(workers) + " workers",
        out);
    out.set("peak_rss_mb", peak_rss_mb());
    return out;
  }

  // ---------------------------------------------- replay: pipeline
  const std::string wal_base =
      args.work_dir + "/wal-" + std::to_string(::getpid()) + "-replay";
  const PipelineReplay plain = replay_pipeline(*e, fl, team, wal_base + "-plain",
                                               engine_cores, false, tr, out);
  const PipelineReplay rp = replay_pipeline(*e, fl, team, wal_base + "-traced",
                                            engine_cores, true, tr, out);
  const double flushes = static_cast<double>(e->spans.size() - fl.warm);
  const auto totals = tr.totals();
  auto per_flush_us = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() || flushes <= 0.0
               ? 0.0
               : it->second.total_ms * 1e3 / flushes;
  };
  out.set("coalesce.us_per_flush", per_flush_us("coalesce"));
  out.set("durability.wal_us_per_flush", per_flush_us("durability.wal"));
  out.set("durability.wal_bytes_per_flush",
          flushes > 0.0 ? static_cast<double>(rp.wal_bytes) / flushes : 0.0);
  out.set("query.publish_us_per_flush", per_flush_us("query.publish"));
  out.set("query.pages_cloned_per_flush", flushes > 0.0 ? rp.pages / flushes : 0.0);
  rp.acc.fill(out);
  out.set("parallel.vplus_mean", rp.vplus_mean);
  out.set("parallel.vstar_mean", rp.vstar_mean);
  out.set("parallel.remove_vstar_mean", rp.remove_vstar_mean);
  out.set("maint.seq_insert_us_per_edge", 0.0);  // no SeqOrder in this run
  out.set("maint.seq_remove_us_per_edge", 0.0);

  // Cross-check: the traced replay's stages against the engine's own
  // phase times for the same flushes.
  struct Row {
    const char* stage;
    double engine_us = 0.0;
    double replay_us = 0.0;
  };
  Row rows[] = {{"drain"}, {"coalesce"}, {"wal"}, {"apply"}, {"om_compact"}, {"publish"}};
  std::vector<double> ratio;  // per flush: replay stage total / engine's
  for (std::size_t i = fl.warm; i < e->spans.size(); ++i) {
    const obs::FlushSpan& s = e->spans[i];
    const double stages[] = {
        static_cast<double>(s.drain_us), static_cast<double>(s.coalesce_us),
        static_cast<double>(s.wal_us), static_cast<double>(s.plan_us + s.apply_us),
        static_cast<double>(s.om_compact_us), static_cast<double>(s.publish_us)};
    double total = 0.0;
    for (std::size_t k = 0; k < std::size(rows); ++k) {
      rows[k].engine_us += stages[k];
      total += stages[k];
    }
    if (total > 0.0) ratio.push_back(rp.flush_us[i - fl.warm] / total);
  }
  rows[0].replay_us = per_flush_us("engine.drain");
  rows[1].replay_us = per_flush_us("coalesce");
  rows[2].replay_us = per_flush_us("durability.wal");
  rows[3].replay_us = per_flush_us("parallel.remove") + per_flush_us("parallel.insert");
  rows[4].replay_us = per_flush_us("om.compact");
  rows[5].replay_us = per_flush_us("query.publish");
  double engine_total = 0.0, replay_total = 0.0;
  for (Row& r : rows) {
    r.engine_us /= std::max(1.0, flushes);
    engine_total += r.engine_us;
    replay_total += r.replay_us;
    out.note(std::string("stage ") + r.stage +
             fmt(": engine %.1f us/flush, replay %.1f us/flush", r.engine_us,
                 r.replay_us));
  }
  // Both sides run the same ops on the same flush boundaries and start
  // times from the same starting graph, each beside a producer and a
  // spinning reader, so flush i carries the same work on both sides.
  // The gap pairs them: a host stall that hits one side's flush moves
  // one ratio, where in the totals it moved the whole comparison (on a
  // host giving the process a quarter of its CPUs, totals of 50 smoke
  // flushes differed by up to 0.68).
  const double gap = ratio.empty() ? 0.0 : std::abs(median(ratio) - 1.0);
  out.set("trace.replay_phase_gap", gap);
  constexpr double kGapBound = 0.5;
  out.note(fmt("replay vs engine: %.1f vs %.1f us of stages per flush over "
               "%.0f flushes; per-flush ratio median %.3f",
               replay_total, engine_total, flushes, median(ratio)) +
           fmt(", gap %.3f (bound %.2f)", gap, kGapBound));
  if (!(gap <= kGapBound))
    out.mismatch(fmt("replay stages differ from the engine's by %.3f per "
                     "flush (median), above the stated bound %.2f",
                     gap, kGapBound));
  double plain_s = 0.0, traced_s = 0.0;
  for (double us : plain.flush_us) plain_s += us * 1e-6;
  for (double us : rp.flush_us) traced_s += us * 1e-6;
  out.set("trace.overhead_frac", plain_s > 0.0 ? traced_s / plain_s - 1.0 : 0.0);
  out.note(fmt("tracing overhead: measured flushes took %.3f s traced, %.3f s "
               "untraced",
               traced_s, plain_s));
  out.set("peak_rss_mb", peak_rss_mb());
  return out;
}

}  // namespace corebench
