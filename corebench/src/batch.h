// The paper's batch protocol: rounds remove and then re-insert one
// disjoint batch, through the parallel maintainer (OurR/OurI at
// `workers`) and through SeqOrder on a copy of the graph (the sequential
// baseline the speedup is measured against). Also the maintainer-call
// accounting the stream workload's replays share.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "graph/dynamic_graph.h"
#include "maint/seq_order.h"
#include "parallel/parallel_order.h"

namespace corebench {

/// Parallel-layer accounting over the maintainer calls it is handed.
struct ParallelAcc {
  double ins_dispatch_us = 0.0;
  std::size_t ins_calls = 0;
  double rem_dispatch_us = 0.0;
  double rem_wall_us = 0.0;
  std::size_t rem_calls = 0;
  double busy_us = 0.0;
  double capacity_us = 0.0;  // sum of workers x dispatch wall
  double cpu_s = 0.0;        // process CPU during the calls
  double sys_s = 0.0;
  std::uint64_t relabels = 0;
  double edges = 0.0;

  /// parallel.* (except the V+/V* means) and om.relabels_per_kedge.
  void fill(Outcome& out) const;
};

std::uint64_t om_relabels(const parcore::CoreState& st);

/// One OurI/OurR call wrapped in a span and, when `acc` is non-null,
/// the accounting above.
parcore::BatchResult parallel_insert(parcore::ParallelOrderMaintainer& par,
                                     std::span<const parcore::Edge> edges,
                                     int workers, ParallelAcc* acc,
                                     Tracer& tr, int parent);
parcore::BatchResult parallel_remove(parcore::ParallelOrderMaintainer& par,
                                     std::span<const parcore::Edge> edges,
                                     int workers, ParallelAcc* acc,
                                     Tracer& tr, int parent);

struct BatchRig {
  parcore::DynamicGraph& g_par;
  parcore::ParallelOrderMaintainer& par;
  parcore::DynamicGraph& g_seq;
  parcore::SeqOrderMaintainer& seq;
  int workers;
};

/// One of OurI, OurR, SeqI, SeqR over the measured rounds.
struct Series {
  std::vector<double> batch_s;  // wall per batch
  double edges = 0.0;           // applied, over every batch
  double seconds = 0.0;         // wall, over every batch

  void add(std::size_t applied, double s) {
    batch_s.push_back(s);
    edges += static_cast<double>(applied);
    seconds += s;
  }
  /// Total edges over total time: a host stall in one batch moves the
  /// rate by that batch's share of the run, not by a whole sample.
  double rate() const { return seconds > 0.0 ? edges / seconds : 0.0; }
};

struct BatchReport {
  Series our_ins, our_rem, seq_ins, seq_rem;
  // OurI batch walls split by whether the round was traced (trace runs).
  std::vector<double> ins_traced_s, ins_untraced_s;
  double our_cpu_s = 0.0;  // process CPU during OurI/OurR calls
  ParallelAcc acc;  // traced rounds only
};

/// Runs the parallel maintainer's rounds (OurR then OurI on one batch)
/// back to back for 30% of `budget_s`, then SeqOrder's (SeqR then SeqI)
/// for the rest, over `batches` (cycled); each after `warmup`
/// unmeasured rounds that pay for lazily grown scratch and cold caches,
/// and with at least `min_measured` measured ones. The phases are not
/// interleaved: on a VM whose host parks idle vCPUs, a parallel batch
/// that followed a long SeqOrder batch ran on about one CPU while its
/// workers reported themselves busy. In a trace run every other
/// measured round records spans, so traced and untraced rounds
/// interleave. SeqOrder's rounds run pinned to one CPU. Checks the
/// CoreState invariants after every round.
BatchReport run_batch_rounds(BatchRig& rig,
                             const std::vector<std::vector<parcore::Edge>>& batches,
                             double budget_s, std::size_t warmup,
                             std::size_t min_measured, bool trace, Tracer& tr,
                             Outcome& out);

/// Sets insert_eps, remove_eps and seq_*_eps (total edges over total
/// time of the measured batches) and maint.seq_*_us_per_edge, and notes
/// `what` (which batches), the per-batch spread and the derived speedup
/// rows.
void report_batch_metrics(const BatchReport& r, const std::string& what,
                          Outcome& out);

/// At most `max_batches` disjoint batches of `size` edges from a seeded
/// shuffle of `edges`.
std::vector<std::vector<parcore::Edge>> make_batches(
    std::vector<parcore::Edge> edges, std::size_t size, std::size_t max_batches,
    std::uint64_t seed);

/// Vertices whose core differs between `truth` (bz_decompose) and
/// `cores`; a length difference counts every missing vertex.
std::size_t core_mismatches(const std::vector<parcore::CoreValue>& truth,
                            const std::vector<parcore::CoreValue>& cores);

}  // namespace corebench
