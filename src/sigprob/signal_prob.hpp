// Signal probability (SP) engines.
//
// SP(l) is the probability that line l carries logic "1" (Parker &
// McCluskey, 1975 — reference [5] of the paper). The EPP engine consumes SP
// values for off-path signals; the paper's SPT column is the cost of this
// step, reported separately because SP is "already used in other steps of
// the design flow".
//
// Three engines with one result type:
//  * parker_mccluskey_sp — one topological pass under the independence
//    assumption; O(V+E). This is what the paper uses.
//  * exact_sp — exhaustive enumeration over each node's support (exponential;
//    bounded by a support-size limit). Ground truth for small cones.
//  * monte_carlo_sp — bit-parallel sampling; converges like 1/sqrt(N).
//
// Sequential circuits: FF outputs default to SP = 0.5 (uniform random state,
// the full-scan view). sequential_fixed_point_sp instead iterates the
// combinational pass, feeding each FF's D-pin SP back to its output, until
// the state distribution converges — an extension beyond the paper.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/netlist/circuit.hpp"
#include "src/util/rng.hpp"

namespace sereep {

class CompiledCircuit;

/// Per-node signal probabilities; index by NodeId.
struct SignalProbabilities {
  std::vector<double> p1;  ///< probability of logic 1

  [[nodiscard]] double operator[](NodeId id) const { return p1[id]; }
  [[nodiscard]] double p0(NodeId id) const { return 1.0 - p1[id]; }
  [[nodiscard]] std::size_t size() const noexcept { return p1.size(); }
};

/// Options shared by the SP engines.
struct SpOptions {
  /// SP of primary inputs (uniform random vectors = 0.5, as in the paper).
  double input_sp = 0.5;
  /// SP of flip-flop outputs under the full-scan assumption.
  double dff_sp = 0.5;
};

/// One-pass topological SP under the signal-independence assumption.
[[nodiscard]] SignalProbabilities parker_mccluskey_sp(
    const Circuit& circuit, const SpOptions& options = {});

/// Same but with caller-provided per-input probabilities: `input_sp[i]`
/// matches circuit.inputs()[i]; `dff_sp[k]` matches circuit.dffs()[k].
[[nodiscard]] SignalProbabilities parker_mccluskey_sp_custom(
    const Circuit& circuit, std::vector<double> input_sp,
    std::vector<double> dff_sp);

/// The Parker-McCluskey pass over a CompiledCircuit's CSR view: sources are
/// preset, then gates evaluate in ascending bucket order with a flat fanin
/// walk — no Node structs, no per-node fanin-SP vector churn. Bit-identical
/// to parker_mccluskey_sp on the source circuit (same arithmetic per gate,
/// in fanin order; node visit order cannot matter — each SP is a pure
/// function of final fanin SPs), asserted EXPECT_EQ by
/// tests/sigprob/signal_prob_test.cpp. This is the production SP route: the
/// Session, the multicycle engine, `sereep sweep` and the benches all
/// call it with the compiled view they already hold.
[[nodiscard]] SignalProbabilities compiled_parker_mccluskey_sp(
    const CompiledCircuit& circuit, const SpOptions& options = {});

/// Incremental repair of a Parker-McCluskey table after a Circuit::edit()
/// batch: re-evaluates only nodes topologically downstream of `seeds` (the
/// batch's dirty set), in ascending bucket order, early-exiting wherever a
/// recomputed SP is BIT-identical to the cached value — the downstream cone
/// of an edit that lands back on the same bits costs one node. `sp` is
/// updated in place (appended nodes extend the table); the return value is
/// the ascending list of nodes whose value actually changed bitwise — the
/// set the EPP layer's dirty-cone invalidation feeds on.
///
/// Exact by the same argument that makes the compiled pass bit-identical to
/// the reference: each node's SP is a pure function of its final fanin SPs
/// (the identical per-gate fold, shared code), so a node whose type and
/// fanin SPs are unchanged would reproduce its old bits exactly — skipping
/// it is not an approximation. `circuit` must be the ALREADY-updated
/// compiled view of the edited netlist; `sp` must be a Parker-McCluskey
/// table for the same options (any other source invalidates wholesale —
/// Session handles that fallback).
[[nodiscard]] std::vector<NodeId> incremental_parker_mccluskey_sp(
    const CompiledCircuit& circuit, const SpOptions& options,
    std::span<const NodeId> seeds, SignalProbabilities& sp);

/// Options for exact SP.
struct ExactSpOptions {
  SpOptions base;
  /// Nodes whose support exceeds this limit get NaN (caller must check).
  std::size_t max_support = 22;
};

/// Exact SP by support enumeration (ground truth; exponential in support).
[[nodiscard]] SignalProbabilities exact_sp(const Circuit& circuit,
                                           const ExactSpOptions& options = {});

/// Monte-Carlo SP estimate over `num_vectors` uniform vectors.
[[nodiscard]] SignalProbabilities monte_carlo_sp(
    const Circuit& circuit, std::size_t num_vectors = 65536,
    std::uint64_t seed = 0x5195'0B0BULL);

/// Result of the sequential fixed-point iteration.
struct SequentialSpResult {
  SignalProbabilities sp;
  std::size_t iterations = 0;
  double residual = 0.0;  ///< max |SP_ff(t) - SP_ff(t-1)| at exit
  bool converged = false;
};

/// Iterates the combinational SP pass, feeding D-pin SPs back into FF
/// outputs, until the FF distribution moves less than `tolerance` or
/// `max_iterations` is hit.
[[nodiscard]] SequentialSpResult sequential_fixed_point_sp(
    const Circuit& circuit, const SpOptions& options = {},
    double tolerance = 1e-9, std::size_t max_iterations = 200);

}  // namespace sereep
