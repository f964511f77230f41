// corebench: the repository benchmark. Usually started through
// corebench/run.py, which builds this binary and passes provenance.
//
//   corebench --workload maint-rmat|maint-ba|stream --seed N --seconds S
//             --trace 0|1 [--smoke] [--commit ID] [--work-dir DIR]
//
// Prints human-readable rows, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} with every end-to-end
// metric (--trace 0) or every per-layer metric (--trace 1). Exits 1 if
// any output disagrees with bz_decompose, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace {

using corebench::Args;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "corebench: %s\nusage: corebench --workload "
               "maint-rmat|maint-ba|stream --seed N --seconds S --trace 0|1 "
               "[--smoke] [--commit ID] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--commit") {
      a.commit = v;
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      usage(("unknown option " + k).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (a.workload != "maint-rmat" && a.workload != "maint-ba" &&
      a.workload != "stream")
    usage(("unknown workload " + a.workload).c_str());
  return a;
}

/// CPU share the host gives this process right now: one spinning
/// thread per hardware thread for 200 ms, CPU seconds over thread
/// seconds. About 1 on a quiet host; on a shared one it tells which
/// regime a run met.
double host_cpu_share() {
  const int n = corebench::hardware_threads();
  const corebench::Cpu c0 = corebench::process_cpu();
  const std::int64_t t0 = corebench::now_ns();
  std::vector<std::thread> spin;
  for (int i = 0; i < n; ++i)
    spin.emplace_back([t0] {
      std::uint64_t x = 0;
      while (corebench::now_ns() - t0 < 200'000'000) corebench::consume(++x);
    });
  for (std::thread& t : spin) t.join();
  return (corebench::process_cpu().total() - c0.total()) /
         (corebench::seconds_since(t0) * n);
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::filesystem::create_directories(args.work_dir);
  std::printf(
      "provenance {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%d,\"smoke\":%s,\"nproc\":%d,\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"commit\":\"%s\",\"host_cpu_share\":%.3f}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      num(args.seconds).c_str(), args.trace ? 1 : 0,
      args.smoke ? "true" : "false", corebench::hardware_threads(),
      COREBENCH_COMPILER, COREBENCH_BUILD_TYPE, args.commit.c_str(),
      host_cpu_share());

  corebench::Tracer tr;
  corebench::Outcome out = args.workload == "stream"
                               ? corebench::run_stream(args, tr)
                               : corebench::run_maint(args, args.workload == "maint-ba", tr);

  if (args.trace) {
    const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".jsonl";
    tr.write_jsonl(path, "{\"workload\":\"" + args.workload + "\",\"seed\":" +
                             std::to_string(args.seed) + "}");
    for (const auto& [name, t] : tr.totals()) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "span %-18s count %8zu total %10.3f ms self %10.3f ms",
                    name.c_str(), t.count, t.total_ms, t.self_ms);
      out.note(buf);
    }
    out.note("spans written to " + path);
  }

  for (const std::string& n : out.notes) std::printf("%s\n", n.c_str());

  const auto& defs = args.trace ? corebench::kPerLayer : corebench::kEndToEnd;
  std::string metrics;
  for (const corebench::MetricDef& d : defs) {
    const auto it = out.metrics.find(d.name);
    if (it == out.metrics.end() || !std::isfinite(it->second)) {
      std::fprintf(stderr, "corebench: metric %s was not measured\n", d.name);
      return 3;
    }
    std::printf("%-32s %16.6f %s\n", d.name, it->second, d.unit);
    char entry[160];
    std::snprintf(entry, sizeof entry, "%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", d.name, num(it->second).c_str(),
                  d.unit);
    metrics += entry;
  }
  // Any oracle mismatch fails every operation of the run.
  if (!out.correct) out.failed = out.attempted;
  std::printf("failed_frac %.6g (%llu of %llu operations)\n",
              out.attempted ? static_cast<double>(out.failed) /
                                  static_cast<double>(out.attempted)
                            : 0.0,
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, out.attempted)),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return out.correct && out.failed == 0 ? 0 : 1;
}
