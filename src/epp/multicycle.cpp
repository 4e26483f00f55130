#include "src/epp/multicycle.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

namespace sereep {

MultiCycleEppEngine::MultiCycleEppEngine(const Circuit& circuit,
                                         const CompiledCircuit& compiled,
                                         const SignalProbabilities& sp,
                                         EppOptions options, unsigned threads,
                                         const ConeClusterPlanner* planner)
    : circuit_(circuit), engine_(compiled, sp, options) {
  // Precompute the state-error propagation matrix: one combinational EPP per
  // flip-flop, with the FF output as the error site. FF cones overlap
  // heavily (register banks feed the same next-state logic), so the rebuild
  // runs on the batched cone-sharing sweep — bit-identical to a sequential
  // per-FF loop at any thread count (pinned by the multicycle tests).
  const auto dffs = circuit_.dffs();
  ff_index_.assign(circuit_.node_count(), static_cast<std::size_t>(-1));
  for (std::size_t k = 0; k < dffs.size(); ++k) ff_index_[dffs[k]] = k;

  std::optional<ConeClusterPlanner> own_plan;
  if (planner == nullptr) planner = &own_plan.emplace(compiled);
  std::vector<SiteEpp> epps(dffs.size());
  sweep_sites(compiled, *planner, dffs, sp, options, threads,
              {.records = epps});
  rows_.resize(dffs.size());
  for (std::size_t k = 0; k < dffs.size(); ++k) {
    const SiteEpp& epp = epps[k];
    FfRow& row = rows_[k];
    double po_miss = 1.0;
    for (const SinkEpp& s : epp.sinks) {
      if (s.sink == dffs[k]) {
        // Self entry: the corrupted bit re-latches itself only through an
        // actual feedback path to its own D pin.
        if (epp.self_dpin_mass > 0.0) {
          row.to_ff.emplace_back(k, epp.self_dpin_mass);
        }
        continue;
      }
      if (circuit_.type(s.sink) == GateType::kDff) {
        row.to_ff.emplace_back(ff_index_[s.sink], s.error_mass);
      } else {
        po_miss *= 1.0 - s.error_mass;
      }
    }
    row.to_po = 1.0 - po_miss;
  }
}

MultiCycleEpp MultiCycleEppEngine::compute(NodeId site, std::size_t cycles) {
  assert(site < circuit_.node_count());
  MultiCycleEpp out;
  out.site = site;
  if (cycles == 0) return out;

  // Cycle 1: the paper's combinational EPP from the site. The `state`
  // vector holds the per-FF error masses at the START of cycle 2, i.e. what
  // was latched during cycle 1 — for the site flip-flop itself that is the
  // self-feedback mass, not the trivial 1 (the bit is rewritten at the clock
  // edge).
  const SiteEpp first = engine_.compute(site);
  std::vector<double> state(rows_.size(), 0.0);
  double po_miss = 1.0;
  for (const SinkEpp& s : first.sinks) {
    if (circuit_.type(s.sink) == GateType::kDff) {
      const std::size_t k = ff_index_[s.sink];
      const double latched =
          s.sink == site ? first.self_dpin_mass : s.error_mass;
      state[k] = std::max(state[k], latched);
    } else {
      po_miss *= 1.0 - s.error_mass;
    }
  }
  double not_detected = po_miss;
  out.detect_by_cycle.push_back(1.0 - not_detected);
  double residual = 0.0;
  for (double m : state) residual += m;
  out.residual_state.push_back(residual);

  // Cycles 2..k: one sparse matrix-vector product per cycle.
  std::vector<double> next(rows_.size());
  for (std::size_t t = 1; t < cycles; ++t) {
    double cycle_miss = 1.0;
    std::fill(next.begin(), next.end(), 0.0);
    // next[g] via independent union over erroneous source FFs.
    std::vector<double> miss(rows_.size(), 1.0);
    for (std::size_t f = 0; f < rows_.size(); ++f) {
      if (state[f] == 0.0) continue;
      cycle_miss *= 1.0 - state[f] * rows_[f].to_po;
      for (const auto& [g, mass] : rows_[f].to_ff) {
        miss[g] *= 1.0 - state[f] * mass;
      }
    }
    for (std::size_t g = 0; g < rows_.size(); ++g) next[g] = 1.0 - miss[g];
    state.swap(next);

    not_detected *= cycle_miss;
    out.detect_by_cycle.push_back(1.0 - not_detected);
    residual = 0.0;
    for (double m : state) residual += m;
    out.residual_state.push_back(residual);
    if (residual < 1e-15) break;  // error fully flushed or absorbed
  }
  return out;
}

double MultiCycleEppEngine::detect_eventually(NodeId site, double tolerance,
                                              std::size_t max_cycles) {
  const MultiCycleEpp profile = compute(site, max_cycles);
  if (profile.residual_state.empty()) return 0.0;
  const double last_detect = profile.detect_by_cycle.back();
  const double last_residual = profile.residual_state.back();
  if (last_residual <= tolerance) return last_detect;
  // The residual error has not died out (state loop); report the midpoint of
  // the attainable interval [detect, 1 - (1-detect)(1-residual_bound)] —
  // callers needing certainty should raise max_cycles.
  const double upper = std::min(
      1.0, last_detect + (1.0 - last_detect) * std::min(1.0, last_residual));
  return 0.5 * (last_detect + upper);
}

}  // namespace sereep
