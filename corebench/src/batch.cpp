#include "batch.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "support/rng.h"

namespace corebench {

using parcore::BatchResult;
using parcore::Edge;

std::uint64_t om_relabels(const parcore::CoreState& st) {
  // levels() has no const overload; the directory is only read here.
  auto& lv = const_cast<parcore::CoreState&>(st).levels();
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < lv.capacity(); ++k)
    if (const parcore::OrderList* l = lv.get(static_cast<parcore::CoreValue>(k)))
      sum += l->relabel_count();
  return sum;
}

namespace {

/// Keeps the calling thread on the CPU it is running on until the
/// scope ends, then restores its CPU mask.
class PinToCurrentCpu {
 public:
  PinToCurrentCpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinToCurrentCpu() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinToCurrentCpu(const PinToCurrentCpu&) = delete;
  PinToCurrentCpu& operator=(const PinToCurrentCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

// Share of run_batch_rounds' budget for the parallel rounds: a
// SeqOrder round costs about three times a parallel one.
constexpr double kParallelShare = 0.3;

template <typename Call>
BatchResult accounted(parcore::ParallelOrderMaintainer& par,
                      std::span<const Edge> edges, bool insert,
                      ParallelAcc* acc, Tracer& tr, int parent, Call&& call) {
  ScopedSpan span(tr, insert ? "parallel.insert" : "parallel.remove", parent);
  if (acc == nullptr) return call();
  const std::uint64_t relabels0 = om_relabels(par.state());
  const Cpu c0 = process_cpu();
  const std::int64_t t0 = now_ns();
  const BatchResult r = call();
  const double wall_us = static_cast<double>(now_ns() - t0) * 1e-3;
  const Cpu c1 = process_cpu();
  const auto& t = par.last_timing();
  const auto dispatch = static_cast<double>(t.dispatch_us);
  if (insert) {
    acc->ins_dispatch_us += dispatch;
    ++acc->ins_calls;
  } else {
    acc->rem_dispatch_us += dispatch;
    acc->rem_wall_us += wall_us;
    ++acc->rem_calls;
  }
  acc->busy_us += static_cast<double>(t.busy_us);
  acc->capacity_us += static_cast<double>(t.workers) * dispatch;
  acc->cpu_s += c1.total() - c0.total();
  acc->sys_s += c1.sys_s - c0.sys_s;
  acc->relabels += om_relabels(par.state()) - relabels0;
  acc->edges += static_cast<double>(edges.size());
  return r;
}

}  // namespace

BatchResult parallel_insert(parcore::ParallelOrderMaintainer& par,
                            std::span<const Edge> edges, int workers,
                            ParallelAcc* acc, Tracer& tr, int parent) {
  return accounted(par, edges, true, acc, tr, parent,
                   [&] { return par.insert_batch(edges, workers); });
}

BatchResult parallel_remove(parcore::ParallelOrderMaintainer& par,
                            std::span<const Edge> edges, int workers,
                            ParallelAcc* acc, Tracer& tr, int parent) {
  return accounted(par, edges, false, acc, tr, parent,
                   [&] { return par.remove_batch(edges, workers); });
}

void ParallelAcc::fill(Outcome& out) const {
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  out.set("parallel.insert_dispatch_ms",
          ratio(ins_dispatch_us, static_cast<double>(ins_calls)) / 1e3);
  out.set("parallel.remove_dispatch_ms",
          ratio(rem_dispatch_us, static_cast<double>(rem_calls)) / 1e3);
  // The d+out repair runs after the dispatch inside remove_batch.
  out.set("parallel.remove_repair_frac",
          ratio(rem_wall_us - rem_dispatch_us, rem_wall_us));
  out.set("parallel.busy_frac", ratio(busy_us, capacity_us));
  out.set("parallel.cpu_frac", ratio(cpu_s * 1e6, capacity_us));
  out.set("parallel.sys_frac", ratio(sys_s, cpu_s));
  out.set("om.relabels_per_kedge",
          ratio(static_cast<double>(relabels), edges / 1e3));
}

BatchReport run_batch_rounds(BatchRig& rig,
                             const std::vector<std::vector<Edge>>& batches,
                             double budget_s, std::size_t warmup,
                             std::size_t min_measured, bool trace, Tracer& tr,
                             Outcome& out) {
  BatchReport rep;
  auto attempt = [&](std::size_t want, std::size_t applied) {
    out.attempted += want;
    out.failed += want - std::min(applied, want);
  };
  // Rounds over the cycled batches until the phase's budget is used,
  // after `warmup` unmeasured rounds and with at least `min_measured`
  // measured ones. `round(batch, measured, traced)` runs one round.
  auto phase = [&](double phase_budget_s, auto&& round) {
    const std::int64_t t_start = now_ns();
    double round_s = 0.0;  // wall of the last round, to avoid overrunning
    for (std::size_t r = 0; r < warmup + min_measured ||
                            seconds_since(t_start) + round_s <= phase_budget_s;
         ++r) {
      const std::int64_t r0 = now_ns();
      const bool measured = r >= warmup;
      // Trace runs interleave traced and untraced rounds, so the
      // tracing overhead is a difference between rounds of one run.
      const bool traced = trace && measured && (r - warmup) % 2 == 1;
      tr.on = traced;
      round(batches[r % batches.size()], measured, traced);
      tr.on = false;
      round_s = seconds_since(r0);
    }
  };

  phase(kParallelShare * budget_s,
        [&](const std::vector<Edge>& b, bool measured, bool traced) {
    ScopedSpan round(tr, "round");
    ParallelAcc* acc = traced ? &rep.acc : nullptr;
    const Cpu c0 = process_cpu();
    std::int64_t t0 = now_ns();
    const BatchResult rr =
        parallel_remove(rig.par, b, rig.workers, acc, tr, round.id());
    const double rem_s = seconds_since(t0);
    t0 = now_ns();
    const BatchResult ri =
        parallel_insert(rig.par, b, rig.workers, acc, tr, round.id());
    const double ins_s = seconds_since(t0);
    const double cpu_s = process_cpu().total() - c0.total();
    attempt(b.size(), rr.applied);
    attempt(b.size(), ri.applied);
    {
      ScopedSpan s(tr, "check", round.id());
      std::string err;
      if (!rig.par.state().check_invariants(rig.g_par, &err))
        out.mismatch("parallel invariants after a round: " + err);
    }
    if (!measured) return;
    rep.our_rem.add(rr.applied, rem_s);
    rep.our_ins.add(ri.applied, ins_s);
    rep.our_cpu_s += cpu_s;
    if (trace) (traced ? rep.ins_traced_s : rep.ins_untraced_s).push_back(ins_s);
  });

  // SeqOrder runs on one thread, pinned: left free, it moved between
  // vCPUs the host had parked while idle, and its batches ran 20-40%
  // slower and varied more than on one pinned CPU.
  const PinToCurrentCpu pin;
  phase((1.0 - kParallelShare) * budget_s,
        [&](const std::vector<Edge>& b, bool measured, bool) {
    ScopedSpan round(tr, "round");
    std::int64_t t0 = now_ns();
    std::size_t sr = 0;
    {
      ScopedSpan s(tr, "maint.remove", round.id());
      sr = rig.seq.remove_batch(b);
    }
    const double rem_s = seconds_since(t0);
    t0 = now_ns();
    std::size_t si = 0;
    {
      ScopedSpan s(tr, "maint.insert", round.id());
      si = rig.seq.insert_batch(b);
    }
    const double ins_s = seconds_since(t0);
    attempt(b.size(), sr);
    attempt(b.size(), si);
    {
      ScopedSpan s(tr, "check", round.id());
      std::string err;
      if (!rig.seq.state().check_invariants(rig.g_seq, &err))
        out.mismatch("SeqOrder invariants after a round: " + err);
    }
    if (!measured) return;
    rep.seq_rem.add(sr, rem_s);
    rep.seq_ins.add(si, ins_s);
  });
  return rep;
}

void report_batch_metrics(const BatchReport& r, const std::string& what,
                          Outcome& out) {
  const double ins = r.our_ins.rate(), rem = r.our_rem.rate();
  const double sins = r.seq_ins.rate(), srem = r.seq_rem.rate();
  out.set("insert_eps", ins);
  out.set("remove_eps", rem);
  out.set("seq_insert_eps", sins);
  out.set("seq_remove_eps", srem);
  out.set("maint.seq_insert_us_per_edge", sins > 0.0 ? 1e6 / sins : 0.0);
  out.set("maint.seq_remove_us_per_edge", srem > 0.0 ? 1e6 / srem : 0.0);
  out.note(what + "; rates are total edges over total time");
  char buf[256];
  for (const auto& [name, s] : {std::pair{"OurI", &r.our_ins},
                                std::pair{"OurR", &r.our_rem},
                                std::pair{"SeqI", &r.seq_ins},
                                std::pair{"SeqR", &r.seq_rem}}) {
    const std::vector<double>& v = s->batch_s;
    std::snprintf(buf, sizeof buf,
                  "per-batch %s ms: min %.1f p25 %.1f median %.1f p75 %.1f "
                  "max %.1f",
                  name, quantile(v, 0.0) * 1e3, quantile(v, 0.25) * 1e3,
                  quantile(v, 0.5) * 1e3, quantile(v, 0.75) * 1e3,
                  quantile(v, 1.0) * 1e3);
    out.note(buf);
  }
  std::snprintf(buf, sizeof buf,
                "speedup insert_eps/seq_insert_eps = %.3f (base %.0f edges/s)",
                sins > 0.0 ? ins / sins : 0.0, sins);
  out.note(buf);
  std::snprintf(buf, sizeof buf,
                "speedup remove_eps/seq_remove_eps = %.3f (base %.0f edges/s)",
                srem > 0.0 ? rem / srem : 0.0, srem);
  out.note(buf);
}

std::vector<std::vector<Edge>> make_batches(std::vector<Edge> edges,
                                            std::size_t size,
                                            std::size_t max_batches,
                                            std::uint64_t seed) {
  parcore::Rng rng(seed ^ 0xba7c4e5ULL);
  rng.shuffle(edges);
  std::vector<std::vector<Edge>> out;
  for (std::size_t i = 0; i + size <= edges.size() && out.size() < max_batches;
       i += size)
    out.emplace_back(edges.begin() + static_cast<std::ptrdiff_t>(i),
                     edges.begin() + static_cast<std::ptrdiff_t>(i + size));
  return out;
}

std::size_t core_mismatches(const std::vector<parcore::CoreValue>& truth,
                            const std::vector<parcore::CoreValue>& cores) {
  const std::size_t n = std::min(truth.size(), cores.size());
  std::size_t bad = std::max(truth.size(), cores.size()) - n;
  for (std::size_t v = 0; v < n; ++v)
    if (truth[v] != cores[v]) ++bad;
  return bad;
}

}  // namespace corebench
