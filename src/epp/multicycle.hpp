// Multi-cycle sequential EPP — an extension beyond the paper.
//
// The paper scores an error that reaches a flip-flop as "latched" and stops
// (P_sensitized counts FF D pins as outputs). A latched error, however, is
// not yet observable: it lives in the state and may be flushed, masked, or
// reach a primary output several cycles later. This module propagates the
// latched-error distribution across clock cycles:
//
//   cycle 1:  EPP from the combinational error site (exactly the paper's
//             computation), split into PO detection mass and per-FF latch
//             mass;
//   cycle t:  every erroneous state bit acts as an error site at a FF
//             output; its per-PO and per-FF EPPs are precomputed once, so a
//             cycle is one sparse matrix-vector product over FF error
//             masses.
//
// Approximations (documented, validated against sequential fault injection
// in tests/bench): error polarity is tracked inside each cycle but errors
// latched in different FFs are treated as independent across cycles, and
// masses combine by the independent-union rule 1 − Π(1 − p). This is the
// same independence style the paper applies to off-path signals.
#pragma once

#include <cstddef>
#include <vector>

#include "src/epp/compiled_epp.hpp"
#include "src/epp/epp_engine.hpp"
#include "src/netlist/compiled.hpp"
#include "src/netlist/cone_cluster.hpp"

namespace sereep {

/// Per-cycle detection profile of one error site.
struct MultiCycleEpp {
  NodeId site = kInvalidNode;
  /// detect_by_cycle[t] = probability the error is observed at some primary
  /// output within the first t+1 cycles (non-decreasing).
  std::vector<double> detect_by_cycle;
  /// residual_state[t] = expected number of still-erroneous state bits after
  /// cycle t+1 (sum of FF error masses) — how long the error lingers.
  std::vector<double> residual_state;

  [[nodiscard]] double detect_within(std::size_t cycles) const {
    if (detect_by_cycle.empty()) return 0.0;
    const std::size_t i =
        cycles == 0 ? 0 : std::min(cycles - 1, detect_by_cycle.size() - 1);
    return detect_by_cycle[i];
  }
};

/// Multi-cycle EPP engine. Precomputes the FF→{PO, FF} propagation matrix
/// once per circuit; each site query costs one combinational EPP plus
/// `cycles` sparse matrix-vector products.
class MultiCycleEppEngine {
 public:
  /// One sparse matrix row: where one flip-flop's state error goes in a
  /// cycle. Public so tests can pin the parallel/batched matrix rebuild
  /// against a sequential per-FF oracle.
  struct FfRow {
    double to_po = 0.0;                      ///< P(reach any PO | error here)
    std::vector<std::pair<std::size_t, double>> to_ff;  ///< (ff index, mass)
  };

  /// Borrows every artifact from the caller (`compiled` must be a
  /// compilation of `circuit`; `sp` must cover every node; both must outlive
  /// the engine; `planner`, when given, must be a planner over `compiled` —
  /// the FF-matrix rebuild then reuses it instead of building its own).
  /// This is the sereep::Session route: one flatten, one SP pass and one
  /// cluster plan shared across every analysis of the session. `threads`
  /// drives the FF-matrix rebuild (0 = hardware concurrency); the matrix is
  /// bit-identical at every thread count.
  MultiCycleEppEngine(const Circuit& circuit, const CompiledCircuit& compiled,
                      const SignalProbabilities& sp, EppOptions options = {},
                      unsigned threads = 0,
                      const ConeClusterPlanner* planner = nullptr);

  /// Detection profile of `site` over `cycles` clock cycles.
  [[nodiscard]] MultiCycleEpp compute(NodeId site, std::size_t cycles);

  /// The asymptotic detection probability (runs until the residual state
  /// error drops below `tolerance` or `max_cycles` elapse).
  [[nodiscard]] double detect_eventually(NodeId site, double tolerance = 1e-9,
                                         std::size_t max_cycles = 1000);

  /// The precomputed FF→{PO, FF} matrix, indexed like circuit.dffs() (test
  /// and diagnostic access).
  [[nodiscard]] const std::vector<FfRow>& ff_rows() const noexcept {
    return rows_;
  }

 private:
  const Circuit& circuit_;
  CompiledEppEngine engine_;                ///< flat-CSR EPP hot path
  std::vector<FfRow> rows_;                 ///< indexed like circuit.dffs()
  std::vector<std::size_t> ff_index_;       ///< NodeId -> dff index
};

}  // namespace sereep
