// perfbench workloads: four closed loops over the public API.
//
//   cold_sweep     Session::open -> sweep_csv -> ser_csv, 1 client,
//                  threads = nproc, rotating over three netlists
//   serve_hot      4 closed-loop connections to one warm `sereep serve`
//   whatif_edit    apply_edit -> sweep_p_sensitized -> ser on one warm
//                  Session, every second op toggling the victim back
//   sharded_sweep  Session::open(engine=sharded, 2 workers) -> sweep_csv
//
// Each loop runs in one of three passes:
//   kMeasure   every op untraced, for the end-to-end metrics;
//   kTraced    ops alternate untraced/traced (the traced-over-untraced p50
//              is trace.overhead_pct) and per-layer probes run between them;
//   kLayers    a short traced pass that only produces the per-layer
//              metrics, so a traced run reports every layer of every
//              workload.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "fixture.hpp"

namespace perfbench {

enum class Pass { kMeasure, kTraced, kLayers };

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< printed beside the value (sample counts)
};

/// What a run reports: metrics plus the op accounting of the result line.
struct Report {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< the first few failure reasons

  void add(std::string name, double value, std::string unit,
           std::string note = "");
  void fail(const std::string& why);
};

/// The end-to-end accounting of one closed loop.
struct LoopResult {
  std::vector<double> latency_ms;         ///< untraced, successful ops
  std::vector<double> traced_latency_ms;  ///< traced, successful ops
  std::size_t ops = 0;   ///< completed ops inside the measured window
  double sites = 0;      ///< error sites those ops returned results for
  double elapsed_s = 0;  ///< the measured window
  double peak_rss_mb = 0;
};

/// Runs `workload` on a fixture made for it.
[[nodiscard]] LoopResult run_workload(const std::string& workload,
                                      const Config& cfg, Fixture& fixture,
                                      Report& report, Pass pass);

/// Linear-interpolated percentile (q in [0, 1]) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);

}  // namespace perfbench
