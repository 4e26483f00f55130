// Whole-circuit SER estimation: R(n) = R_SEU(n) · P_latched(n) · P_sens(n).
//
// This is the end-to-end flow the paper motivates: compute every node's
// soft error rate, aggregate the circuit SER, rank nodes by contribution and
// select the cheapest hardening set — "identify the most vulnerable
// components to be protected by soft error hardening techniques" (§4).
#pragma once

#include <vector>

#include "src/epp/epp_engine.hpp"
#include "src/netlist/circuit.hpp"
#include "src/ser/latching.hpp"
#include "src/ser/seu_rate.hpp"

namespace sereep {

/// Per-node SER breakdown.
struct NodeSer {
  NodeId node = kInvalidNode;
  double r_seu = 0.0;         ///< raw upset rate, upsets/s
  double p_latched = 0.0;     ///< effective latching probability
  double p_sensitized = 0.0;  ///< EPP-derived sensitization probability
  double ser = 0.0;           ///< product, failures/s

  /// FIT conversion (failures per 1e9 device-hours).
  [[nodiscard]] double fit() const noexcept { return ser * 3600.0 * 1e9; }
};

/// Whole-circuit result.
struct CircuitSer {
  std::vector<NodeSer> nodes;   ///< one entry per error site
  double total_ser = 0.0;       ///< sum over nodes, failures/s

  [[nodiscard]] double total_fit() const noexcept {
    return total_ser * 3600.0 * 1e9;
  }
  /// Nodes sorted by descending SER contribution.
  [[nodiscard]] std::vector<NodeSer> ranked() const;
};

/// The reference fold: the SEU-rate and latching models over one site's full
/// EPP record. The latching term is weighted per sink (a DFF sink latches
/// with the window probability, a PO with the observation probability):
///   P_latch&sens = 1 − Π_j (1 − P_latched(sink_j) · EPP_j).
/// Session::sweep() folds its records with it; table fills instead take the
/// same product inside the sweep (SiteRow) and finish with node_ser_from_row,
/// and the tests pin the two EXPECT_EQ against each other.
[[nodiscard]] NodeSer node_ser_from_epp(const Circuit& circuit,
                                        const SiteEpp& epp,
                                        const SeuRateModel& seu,
                                        const LatchingModel& latching);

/// One site's NodeSer from its rows-sweep row — the one place the
/// R(n) = R_SEU · P_latched · P_sens product is assembled (node_ser_from_epp
/// ends here too).
[[nodiscard]] NodeSer node_ser_from_row(const Circuit& circuit,
                                        const SiteRow& row,
                                        const SeuRateModel& seu);

/// Result of a hardening selection.
struct HardeningPlan {
  std::vector<NodeId> protect;   ///< nodes to protect, highest impact first
  double original_ser = 0.0;
  double residual_ser = 0.0;     ///< SER after protecting `protect`
  [[nodiscard]] double reduction() const noexcept {
    return original_ser > 0 ? 1.0 - residual_ser / original_ser : 0.0;
  }
};

/// Greedy hardening selection: protect the fewest nodes whose removal drops
/// circuit SER by at least `target_reduction` (e.g. 0.5 = halve the SER).
/// Protecting a node zeroes its own contribution (the standard model of a
/// hardened/duplicated gate).
[[nodiscard]] HardeningPlan select_hardening(const CircuitSer& ser,
                                             double target_reduction);

}  // namespace sereep
