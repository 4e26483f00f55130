// P_latched: the probability that an erroneous value arriving at a sink is
// actually captured.
//
// A transient pulse reaching a flip-flop D pin is latched only if it overlaps
// the setup+hold window of the capturing clock edge (the classic
// latching-window model): P_latched ≈ (w + d) / T_clk, with w the
// setup+hold window, d the pulse duration and T_clk the clock period. A
// primary output is assumed observed every cycle (P_latched = 1) unless
// configured otherwise.
#pragma once

#include <vector>

#include "src/netlist/circuit.hpp"

namespace sereep {

/// Latching-window model.
class LatchingModel {
 public:
  LatchingModel() = default;
  LatchingModel(double clock_period_ns, double window_ns, double pulse_ns)
      : clock_period_ns_(clock_period_ns),
        window_ns_(window_ns),
        pulse_ns_(pulse_ns) {}

  void set_clock_period(double ns) noexcept { clock_period_ns_ = ns; }
  void set_window(double ns) noexcept { window_ns_ = ns; }
  void set_pulse_width(double ns) noexcept { pulse_ns_ = ns; }
  void set_po_probability(double p) noexcept { po_probability_ = p; }

  /// P_latched for an error observed at `sink` (a PO node or DFF).
  [[nodiscard]] double probability(const Circuit& circuit, NodeId sink) const {
    if (circuit.type(sink) == GateType::kDff) {
      const double p = (window_ns_ + pulse_ns_) / clock_period_ns_;
      return p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p);
    }
    return po_probability_;
  }

  /// probability() for every node, indexed by NodeId — the per-node table a
  /// rows sweep weighs each sink's error mass by (only sinks are read).
  [[nodiscard]] std::vector<double> weights(const Circuit& circuit) const {
    std::vector<double> out(circuit.node_count(), po_probability_);
    for (NodeId ff : circuit.dffs()) out[ff] = probability(circuit, ff);
    return out;
  }

 private:
  double clock_period_ns_ = 2.0;   ///< 500 MHz class
  double window_ns_ = 0.08;        ///< setup + hold
  double pulse_ns_ = 0.15;         ///< SET pulse width
  double po_probability_ = 1.0;    ///< POs observed every cycle
};

}  // namespace sereep
