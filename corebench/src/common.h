// Shared pieces of the corebench program: arguments, the metric
// catalogue, span tracing, percentiles and process accounting.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "support/types.h"

namespace corebench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;            // tiny inputs, for the self-test
  std::string commit = "unknown";
  std::string work_dir = ".";    // temp files (WAL) and the span dump
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

int hardware_threads();

// ------------------------------------------------------------ results

/// Every run fills every metric of one of the two lists below; main()
/// refuses to print a result with a name missing. The names and units
/// must match BENCHMARK.json (corebench/selftest.py checks this).
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kEndToEnd;
extern const std::vector<MetricDef> kPerLayer;

struct Outcome {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// Human-readable rows printed above the JSON line: sample counts,
  /// which percentile a tail metric is, derived ratios with their base.
  std::vector<std::string> notes;

  void set(const std::string& name, double v) { metrics[name] = v; }
  void note(std::string s) { notes.push_back(std::move(s)); }
  void mismatch(const std::string& what);
};

// -------------------------------------------------------- statistics

double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// The highest of p99/p95/p90/p75/p50 that has at least ten samples
/// above it (p50 when there are fewer than 40 samples).
struct Tail {
  double q = 0.5;
  double value = 0.0;
};
Tail tail_quantile(const std::vector<double>& v);

/// Latency percentiles taken within windows of consecutive samples and
/// reported as the median across windows: one rare stall then moves one
/// window's tail, not the run's. A short last window is dropped.
struct WindowedLatency {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 1.0;  // the lowest tail percentile any window used
  std::size_t windows = 0;
};
WindowedLatency summarize_windows(std::vector<std::vector<double>> windows);

/// Set-ups per run: setup_s is their median. A fixed count, because
/// each set-up leaves freed memory behind and so moves peak_rss_mb.
inline int setups(bool trace) { return trace ? 1 : 3; }

// ------------------------------------------------------------ process

struct Cpu {
  double user_s = 0.0;
  double sys_s = 0.0;
  double total() const { return user_s + sys_s; }
};
Cpu process_cpu();
Cpu thread_cpu();
double peak_rss_mb();

// ------------------------------------------------------------- tracing

/// Spans recorded by the benchmark around calls into each layer. One
/// thread records (the calling thread of a phase); spans stay in memory
/// and are written out when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };
  struct Totals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  // minus the time covered by child spans
  };

  bool on = false;

  /// Returns the span id, or -1 when tracing is off.
  int begin(const char* name, int parent = -1);
  void end(int id);

  std::map<std::string, Totals> totals() const;
  void write_jsonl(const std::string& path, const std::string& header) const;

 private:
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, int parent = -1)
      : t_(t), id_(t.begin(name, parent)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

// ------------------------------------------------------------ queries

/// Events per second within consecutive fixed windows; the median over
/// windows is steadier than the run total when the host stalls a thread.
class WindowedRate {
 public:
  explicit WindowedRate(double window_s)
      : window_ns_(static_cast<std::int64_t>(window_s * 1e9)) {}
  void add(std::int64_t now, double events) {
    if (start_ == 0) start_ = now;
    count_ += events;
    if (now - start_ >= window_ns_) {
      rates_.push_back(count_ / (static_cast<double>(now - start_) * 1e-9));
      start_ = now;
      count_ = 0.0;
    }
  }
  double median_rate() const { return median(rates_); }

 private:
  std::int64_t window_ns_;
  std::int64_t start_ = 0;
  double count_ = 0.0;
  std::vector<double> rates_;
};

/// Cheap per-thread generator for read targets.
struct FastRng {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>((next() >> 32) * n >> 32);
  }
};

/// Keeps `v` observable so a read loop cannot be optimised away.
inline void consume(std::uint64_t v) { asm volatile("" : : "r"(v) : "memory"); }

struct ReaderReport {
  std::uint64_t reads = 0;
  double mqps = 0.0;  // median over 100 ms windows
  std::vector<double> read_ns;      // per read, averaged over a block
  std::vector<double> snapshot_ns;  // per view fetch
  std::uint64_t checksum = 0;
  Cpu cpu;  // the reader thread's own CPU
};

/// The closed-loop reader: fetches a view with `get()`, hands it to
/// `watch(view, fetched_ns)`, and while that returns true does a block
/// of 1024 point reads on it, consumed into a checksum; otherwise naps
/// 100 us. Runs until `quit`.
template <typename GetView, typename Watch>
ReaderReport closed_loop_reader(std::uint32_t n, std::uint64_t seed,
                                const std::atomic<bool>& quit, GetView&& get,
                                Watch&& watch) {
  constexpr int kBlock = 1024;
  ReaderReport rep;
  WindowedRate rate(0.1);
  FastRng rng{seed | 1};
  std::uint64_t sum = 0;
  while (!quit.load(std::memory_order_relaxed)) {
    const std::int64_t s0 = now_ns();
    const auto view = get();
    const std::int64_t s1 = now_ns();
    if (!watch(*view, s1)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    for (int i = 0; i < kBlock; ++i) sum += view->core(rng.below(n));
    consume(sum);
    const std::int64_t s2 = now_ns();
    rep.snapshot_ns.push_back(static_cast<double>(s1 - s0));
    rep.read_ns.push_back(static_cast<double>(s2 - s1) / kBlock);
    rep.reads += kBlock;
    rate.add(s2, kBlock);
  }
  rep.mqps = rate.median_rate() / 1e6;
  rep.checksum = sum;
  rep.cpu = thread_cpu();
  return rep;
}

}  // namespace corebench
