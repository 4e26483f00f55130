// perfbench — sereep's end-to-end and per-layer benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work DIR]
//
// --trace 0 sets the workload up three times (setup_s is the median), runs
// its closed loop untraced for S seconds and reports the end-to-end
// metrics. --trace 1 sets up every workload once, runs NAME with traced and
// untraced ops interleaved, then a short traced pass of each other workload,
// and reports every per-layer metric plus trace.overhead_pct; the spans go
// to DIR/trace-NAME-N.json. Every op's output is checked against bytes
// computed at set-up. The last stdout line is the JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fixture.hpp"
#include "src/util/simd.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Config;
using perfbench::Report;

/// Every per-layer metric a traced run must report (BENCHMARK.json lists
/// the same names).
constexpr const char* kPerLayer[] = {
    "netlist.load_ms", "netlist.flatten_ms", "sigprob.sp_ms",
    "netlist.plan_ms", "epp.sweep_ms", "api.sweep_csv_ms", "ser.fold_ms",
    "api.ser_csv_ms", "netlist.sites", "netlist.clusters",
    "netlist.singleton_sites", "serve.sweep_csv_ms", "serve.ser_csv_ms",
    "serve.psens_ms", "serve.harden_ms", "api.hot_sweep_csv_ms",
    "api.hot_ser_csv_ms", "api.hot_psens_ms", "serve.wait_ms",
    "serve.ttfb_ms", "serve.transfer_ms", "serve.response_bytes.sweep_csv",
    "serve.response_bytes.ser_csv", "serve.response_bytes.psens",
    "serve.response_bytes.harden", "serve.cache_hits", "serve.cache_misses",
    "serve.evictions", "serve.errors_sent", "serve.rejected_busy",
    "api.apply_edit_ms", "api.reconcile_ms", "ser.fold_after_edit_ms",
    "epp.affected_mask_ms", "epp.resweep_sites", "epp.resweep_frac",
    "api.compiled_patched", "sigprob.sp_incremental", "epp.shard_sweep_ms",
    "epp.shard_batched_ms", "epp.shard_overhead_ms",
    "epp.shard_worker_load_ms", "epp.shard_workers_spawned",
    "epp.shard_respawns", "epp.shard_imbalance", "trace.overhead_pct"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "cold_sweep|serve_hot|whatif_edit|sharded_sweep --seed N "
               "--seconds S --trace 0|1 [--work DIR]\n",
               why);
  std::exit(2);
}

/// --name value / --name=value pairs.
Config parse_args(int argc, char** argv, std::string& work_root) {
  Config cfg;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!arg.starts_with("--")) usage(("unexpected argument " + arg).c_str());
    std::string value;
    if (const std::size_t eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage(("missing value for " + arg).c_str());
    }
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      if (!(cfg.seconds > 0)) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      cfg.traced = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (arg == "--work") {
      work_root = value;
    } else {
      usage(("unknown flag " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("malformed value for " + arg).c_str());
    }
  }
  if (!have_workload ||
      std::find_if(std::begin(perfbench::kWorkloads),
                   std::end(perfbench::kWorkloads), [&](const char* w) {
                     return cfg.workload == w;
                   }) == std::end(perfbench::kWorkloads)) {
    usage("--workload must name one of the four workloads");
  }
  return cfg;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.starts_with("model name")) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The host block: what a reader needs to compare two runs' numbers.
void print_host(const Config& cfg) {
  std::printf(
      "host {\"nproc\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"SEREEP_SIMD_ARCH\": \"%s\", "
      "\"simd_default_enabled\": %s, \"lane_width\": %zu, \"seed\": %llu}\n",
      cfg.nproc, cpu_model().c_str(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      PERFBENCH_SIMD_ARCH, sereep::simd::enabled() ? "true" : "false",
      sereep::simd::kLaneWidth, static_cast<unsigned long long>(cfg.seed));
}

double median(std::vector<double> v) { return perfbench::percentile(v, 0.5); }

void add_end_to_end(Report& report, const perfbench::LoopResult& loop,
                    const std::vector<double>& setup_s) {
  const std::vector<double>& lat = loop.latency_ms;
  const double p95 = perfbench::percentile(lat, 0.95);
  const auto beyond = std::count_if(lat.begin(), lat.end(),
                                    [&](double v) { return v > p95; });
  report.add("setup_s", median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()) + " set-ups");
  report.add("ops_per_s", static_cast<double>(loop.ops) / loop.elapsed_s,
             "1/s",
             std::to_string(loop.ops) + " ops in " +
                 std::to_string(loop.elapsed_s) + " s");
  report.add("sites_per_s", loop.sites / loop.elapsed_s, "1/s");
  report.add("latency_p50_ms", perfbench::percentile(lat, 0.5), "ms",
             "n=" + std::to_string(lat.size()));
  report.add("latency_p95_ms", p95, "ms",
             "n=" + std::to_string(lat.size()) + ", " +
                 std::to_string(beyond) + " beyond p95");
  report.add("peak_rss_mb", loop.peak_rss_mb, "MB");
  std::vector<double> sorted = lat;
  std::sort(sorted.begin(), sorted.end());
  std::fprintf(stderr, "perfbench: op latencies (ms):");
  for (const double v : sorted) std::fprintf(stderr, " %.0f", v);
  std::fprintf(stderr, "\n");
}

void print_result(const Report& report, bool correct) {
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("  %-32s %14.4f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("  %-32s %14.4f %-6s %zu of %zu ops\n", "failed_frac",
              report.attempted == 0
                  ? 0.0
                  : static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted),
              "", report.failed, report.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", report.attempted, report.failed);
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  // A daemon shutting a connection must surface as EPIPE, not kill us.
  std::signal(SIGPIPE, SIG_IGN);
  std::string work_root = ".";
  Config cfg = parse_args(argc, argv, work_root);
  cfg.sereep = PERFBENCH_SEREEP;
  cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
  cfg.work_dir = work_root + "/work-" + cfg.workload + "-" +
                 std::to_string(cfg.seed) + "-" + std::to_string(::getpid());
  print_host(cfg);

  Report report;
  std::vector<std::string> mismatches;
  int status = 0;
  try {
    if (!cfg.traced) {
      std::vector<double> setup_s;
      std::optional<perfbench::Fixture> fixture;
      for (int rep = 0; rep < 3; ++rep) {
        if (fixture) perfbench::stop_daemon(*fixture);
        fixture.reset();
        const std::int64_t start = perfbench::now_ns();
        fixture.emplace(perfbench::make_fixture(cfg, {cfg.workload}));
        setup_s.push_back(perfbench::ms_since(start) / 1e3);
      }
      const perfbench::LoopResult loop = perfbench::run_workload(
          cfg.workload, cfg, *fixture, report, perfbench::Pass::kMeasure);
      perfbench::stop_daemon(*fixture);
      mismatches = fixture->mismatches;
      add_end_to_end(report, loop, setup_s);
    } else {
      perfbench::Tracer::global().enable();
      const std::vector<std::string> all(std::begin(perfbench::kWorkloads),
                                         std::end(perfbench::kWorkloads));
      perfbench::Fixture fixture = perfbench::make_fixture(cfg, all);
      const perfbench::LoopResult loop = perfbench::run_workload(
          cfg.workload, cfg, fixture, report, perfbench::Pass::kTraced);
      for (const std::string& w : all) {
        if (w != cfg.workload) {
          (void)perfbench::run_workload(w, cfg, fixture, report,
                                        perfbench::Pass::kLayers);
        }
      }
      perfbench::stop_daemon(fixture);
      mismatches = fixture.mismatches;
      const double untraced = median(loop.latency_ms);
      report.add("trace.overhead_pct",
                 untraced > 0
                     ? 100.0 * (median(loop.traced_latency_ms) / untraced - 1)
                     : 0.0,
                 "pct",
                 "traced vs untraced latency_p50_ms of " + cfg.workload);
      const std::string trace_path = work_root + "/trace-" + cfg.workload +
                                     "-" + std::to_string(cfg.seed) + ".json";
      if (perfbench::Tracer::global().write_chrome_json(trace_path)) {
        std::printf("trace written to %s\n", trace_path.c_str());
      }
      for (const char* name : kPerLayer) {
        if (std::none_of(report.metrics.begin(), report.metrics.end(),
                         [&](const auto& m) { return m.name == name; })) {
          throw std::logic_error(std::string("per-layer metric ") + name +
                                 " was not measured");
        }
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    status = 1;
  }
  std::error_code ignored;
  std::filesystem::remove_all(cfg.work_dir, ignored);
  if (status != 0) return status;

  for (const std::string& m : mismatches) {
    std::fprintf(stderr, "perfbench: set-up check failed: %s\n", m.c_str());
  }
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "perfbench: op failed: %s\n", f.c_str());
  }
  print_result(report, report.failed == 0 && mismatches.empty());
  return 0;
}
