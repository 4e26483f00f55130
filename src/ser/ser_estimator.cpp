#include "src/ser/ser_estimator.hpp"

#include <algorithm>

namespace sereep {

std::vector<NodeSer> CircuitSer::ranked() const {
  std::vector<NodeSer> sorted = nodes;
  std::sort(sorted.begin(), sorted.end(),
            [](const NodeSer& a, const NodeSer& b) { return a.ser > b.ser; });
  return sorted;
}

NodeSer node_ser_from_epp(const Circuit& circuit, const SiteEpp& epp,
                          const SeuRateModel& seu,
                          const LatchingModel& latching) {
  double miss = 1.0;
  for (const SinkEpp& s : epp.sinks) {
    miss *= 1.0 - latching.probability(circuit, s.sink) * s.error_mass;
  }
  return node_ser_from_row(circuit,
                           {.site = epp.site,
                            .p_sensitized = epp.p_sensitized,
                            .latched = 1.0 - miss},
                           seu);
}

NodeSer node_ser_from_row(const Circuit& circuit, const SiteRow& row,
                          const SeuRateModel& seu) {
  NodeSer result;
  result.node = row.site;
  result.r_seu = seu.rate(circuit, row.site);
  result.p_sensitized = row.p_sensitized;
  result.p_latched =
      row.p_sensitized > 0 ? row.latched / row.p_sensitized : 0.0;
  result.ser = result.r_seu * row.latched;
  return result;
}

HardeningPlan select_hardening(const CircuitSer& ser,
                               double target_reduction) {
  HardeningPlan plan;
  plan.original_ser = ser.total_ser;
  plan.residual_ser = ser.total_ser;
  if (ser.total_ser <= 0.0) return plan;
  const double target_residual = ser.total_ser * (1.0 - target_reduction);
  for (const NodeSer& node : ser.ranked()) {
    if (plan.residual_ser <= target_residual) break;
    if (node.ser <= 0.0) break;  // nothing left to gain
    plan.protect.push_back(node.node);
    plan.residual_ser -= node.ser;
  }
  if (plan.residual_ser < 0.0) plan.residual_ser = 0.0;
  return plan;
}

}  // namespace sereep
