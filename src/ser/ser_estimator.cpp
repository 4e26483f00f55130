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
  NodeSer result;
  result.node = epp.site;
  result.r_seu = seu.rate(circuit, epp.site);
  result.p_sensitized = epp.p_sensitized;
  double miss = 1.0;
  for (const SinkEpp& s : epp.sinks) {
    miss *= 1.0 - latching.probability(circuit, s.sink) * s.error_mass;
  }
  const double latch_and_sens = 1.0 - miss;
  result.p_latched =
      epp.p_sensitized > 0 ? latch_and_sens / epp.p_sensitized : 0.0;
  result.ser = result.r_seu * latch_and_sens;
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
