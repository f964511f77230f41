#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace corebench {

int hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"insert_eps", "edges/s"},
    {"remove_eps", "edges/s"},
    {"seq_insert_eps", "edges/s"},
    {"seq_remove_eps", "edges/s"},
    {"fresh_p50_ms", "ms"},
    {"read_mqps", "Mreads/s"},
    {"cpu_us_per_edge", "us"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"ingest.submit_ns_p50", "ns"},
    {"ingest.submit_ns_p99", "ns"},
    {"ingest.gen_late_ms_max", "ms"},
    {"engine.flushes", "count"},
    {"engine.raw_per_flush", "count"},
    {"engine.flush_ms_p50", "ms"},
    {"engine.flush_ms_p99", "ms"},
    {"engine.fresh_p99_ms", "ms"},
    {"coalesce.us_per_flush", "us"},
    {"coalesce.applied_frac", "frac"},
    {"durability.wal_us_per_flush", "us"},
    {"durability.wal_bytes_per_flush", "B"},
    {"parallel.insert_dispatch_ms", "ms"},
    {"parallel.remove_dispatch_ms", "ms"},
    {"parallel.remove_repair_frac", "frac"},
    {"parallel.busy_frac", "frac"},
    {"parallel.cpu_frac", "frac"},
    {"parallel.sys_frac", "frac"},
    {"parallel.vplus_mean", "count"},
    {"parallel.vstar_mean", "count"},
    {"parallel.remove_vstar_mean", "count"},
    {"om.relabels_per_kedge", "count"},
    {"maint.seq_insert_us_per_edge", "us"},
    {"maint.seq_remove_us_per_edge", "us"},
    {"query.publish_us_per_flush", "us"},
    {"query.pages_cloned_per_flush", "count"},
    {"query.snapshot_ns_p99", "ns"},
    {"query.read_ns_p50", "ns"},
    {"graph.resident_mb", "MB"},
    {"decomp.init_s", "s"},
    {"trace.overhead_frac", "frac"},
    {"trace.replay_phase_gap", "frac"},
};

void Outcome::mismatch(const std::string& what) {
  correct = false;
  note("MISMATCH: " + what);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Linear interpolation between closest ranks.
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

Tail tail_quantile(const std::vector<double>& v) {
  Tail t;
  for (double q : {0.99, 0.95, 0.9, 0.75}) {
    if ((1.0 - q) * static_cast<double>(v.size()) >= 10.0) {
      t.q = q;
      break;
    }
  }
  t.value = quantile(v, t.q);
  return t;
}

WindowedLatency summarize_windows(std::vector<std::vector<double>> windows) {
  if (windows.size() > 1 && windows.back().size() < windows.front().size() / 2)
    windows.pop_back();
  std::vector<double> p50, tail;
  WindowedLatency out;
  for (const auto& w : windows) {
    if (w.empty()) continue;
    const Tail t = tail_quantile(w);
    p50.push_back(median(w));
    tail.push_back(t.value);
    out.tail_q = std::min(out.tail_q, t.q);
  }
  out.p50 = median(p50);
  out.tail = median(tail);
  out.windows = p50.size();
  return out;
}

namespace {
Cpu from_rusage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Cpu c;
  c.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  c.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  return c;
}
}  // namespace

Cpu process_cpu() { return from_rusage(RUSAGE_SELF); }
Cpu thread_cpu() { return from_rusage(RUSAGE_THREAD); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Tracer::begin(const char* name, int parent) {
  if (!on) return -1;
  spans_.push_back(Span{name, now_ns(), 0, parent});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ms[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    Totals& t = out[s.name];
    ++t.count;
    t.total_ms += ms;
    t.self_ms += ms - child_ms[i];
  }
  return out;
}

void Tracer::write_jsonl(const std::string& path,
                         const std::string& header) const {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "corebench: cannot write spans to %s\n", path.c_str());
    return;
  }
  f << header << '\n';
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"id\":" << i << ",\"name\":\"" << s.name
      << "\",\"start_us\":" << (s.start_ns - t0) / 1000
      << ",\"end_us\":" << (s.end_ns - t0) / 1000
      << ",\"parent\":" << s.parent << "}\n";
  }
}

}  // namespace corebench
