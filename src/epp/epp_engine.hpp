// The EPP engine — the paper's three-step algorithm per error site:
//
//   1. Path construction: forward DFS extracts the on-path signal set
//      (ConeExtractor).
//   2. Ordering: on-path signals in topological order (ConeExtractor).
//   3. EPP computation: one linear pass applying the Table-1 rules, off-path
//      fanins contributing their signal probabilities.
//
// After the pass, Pa(PO_j) + Pā(PO_j) is known for every reachable output
// and P_sensitized(n) = 1 − Π_j (1 − (Pa(PO_j) + Pā(PO_j))).
//
// The engine is allocation-free per site after warm-up (scratch reuse), which
// is what makes the all-nodes SysT column of Table 2 milliseconds-scale.
//
// EppEngine is the REFERENCE implementation: it walks the Circuit's node
// structs directly and sorts each cone with a comparison sort. The
// single-site production path is CompiledEppEngine (compiled_epp.hpp), the
// same arithmetic over a flat-CSR CompiledCircuit; full sweeps additionally
// share traversals between sites with overlapping cones through
// BatchedEppEngine (batched_epp.hpp). All three are bit-for-bit equal —
// the oracle hierarchy reference -> compiled -> batched is pinned by the
// engine-equivalence tests (see tests/README.md); keep every tier.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/epp/gate_rules.hpp"
#include "src/netlist/circuit.hpp"
#include "src/netlist/topo.hpp"
#include "src/sigprob/signal_prob.hpp"
#include "src/util/simd.hpp"

namespace sereep {

/// Engine configuration.
struct EppOptions {
  /// Track error polarity (a vs ā). Disabling reverts to the naive pooled
  /// rule — the A1 ablation.
  bool track_polarity = true;

  /// Electrical-masking model (extension): the survival probability of the
  /// SET pulse per logic level traversed. 1.0 (default) reproduces the
  /// paper's purely logical masking; values < 1 attenuate the error mass at
  /// every on-path gate, redistributing the killed mass onto the blocked
  /// 0/1 states according to the gate's signal probability — the standard
  /// first-order pulse-attenuation model (Shivakumar et al., DSN'02).
  double electrical_survival = 1.0;

  /// Batched sweeps run the lane-plane SIMD kernels (true) or the scalar
  /// per-lane path (false). Both are bit-identical, so this is a timing
  /// knob only; engines without lane planes ignore it. Defaults to the
  /// build's setting (simd::enabled(), false under -DSEREEP_NO_SIMD=ON).
  bool simd = simd::enabled();
};

/// Per-sink EPP of one error site.
struct SinkEpp {
  NodeId sink = kInvalidNode;
  /// Pa + Pā observed at the sink (PO value or FF D pin).
  double error_mass = 0.0;
  /// Full distribution at the sink (diagnostics, worked examples).
  Prob4 distribution;
};

/// Result of the per-site computation.
struct SiteEpp {
  NodeId site = kInvalidNode;
  std::vector<SinkEpp> sinks;        ///< reachable outputs, topological order
  double p_sensitized = 0.0;         ///< the paper's P_sensitized(n_i)
  std::size_t cone_size = 0;         ///< on-path signal count (cost metric)
  std::size_t reconvergent_gates = 0;
  /// For flip-flop sites only: the error mass arriving back at the site's
  /// own D pin (state-feedback loop). The sinks entry for the site itself
  /// always carries mass 1 (an upset state bit *is* an error — the paper's
  /// convention), which would otherwise hide this quantity; multi-cycle
  /// analysis needs it to know whether the corrupted bit re-latches itself.
  double self_dpin_mass = 0.0;

  /// Rigorous bracket around the true P(error visible at >= 1 sink).
  /// The paper's formula (p_sensitized above) assumes the per-sink events
  /// are independent, but when one internal stem feeds several sinks they
  /// are strongly positively correlated and the formula overestimates.
  /// Regardless of correlation structure:
  ///   max_j EPP_j  <=  P(any)  <=  min(1, sum_j EPP_j)
  /// and the paper's value always lies inside this bracket too.
  double p_sens_lower = 0.0;  ///< max over sinks
  double p_sens_upper = 0.0;  ///< union bound (capped sum)
};

/// EPP computation engine bound to one circuit + one SP assignment.
class EppEngine {
 public:
  /// `sp` must cover every node (e.g. from parker_mccluskey_sp). Off-path
  /// fanin distributions are built from it.
  EppEngine(const Circuit& circuit, const SignalProbabilities& sp,
            EppOptions options = {});

  /// Full three-step computation for one error site.
  [[nodiscard]] SiteEpp compute(NodeId site);

  /// P_sensitized only (skips per-sink result assembly; fastest path, used
  /// by the Table-2 harness).
  [[nodiscard]] double p_sensitized(NodeId site);

  /// Runs compute() for every error site (or an evenly spaced subsample when
  /// max_sites > 0) and returns the results.
  [[nodiscard]] std::vector<SiteEpp> compute_all(std::size_t max_sites = 0);

  /// The 4-state distribution the engine derived for a given on-path node in
  /// the most recent compute()/p_sensitized() call. Valid for nodes in that
  /// site's cone only (used by tests and the Fig-1 example).
  [[nodiscard]] const Prob4& last_distribution(NodeId node) const {
    return dist_[node];
  }

  [[nodiscard]] const Circuit& circuit() const noexcept { return circuit_; }
  [[nodiscard]] const EppOptions& options() const noexcept { return options_; }

 private:
  /// Propagates through the cone; returns via dist_ and stamps.
  const Cone& propagate(NodeId site);

  const Circuit& circuit_;
  const SignalProbabilities& sp_;
  EppOptions options_;
  ConeExtractor cones_;
  std::vector<Prob4> dist_;               // per-node scratch
  std::vector<std::uint32_t> on_path_stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<Prob4> fanin_scratch_;
};

/// Convenience one-shot: P_sensitized for every node of `circuit` with
/// Parker-McCluskey SP, default options. Runs the compiled hot path.
[[nodiscard]] std::vector<double> all_nodes_p_sensitized(
    const Circuit& circuit);

/// Same, with a caller-provided SP assignment — sweeps that already computed
/// signal probabilities (the SER estimator, the Table-2 harness) must not
/// pay a redundant Parker-McCluskey pass per call.
[[nodiscard]] std::vector<double> all_nodes_p_sensitized(
    const Circuit& circuit, const SignalProbabilities& sp,
    EppOptions options = {});

class CompiledCircuit;

/// Same, additionally reusing a CompiledCircuit the caller already built
/// (`compiled` must be a compilation of `circuit`) — callers that ran the
/// compiled SP pass hold the view already and must not pay a second O(V+E)
/// flatten.
[[nodiscard]] std::vector<double> all_nodes_p_sensitized(
    const Circuit& circuit, const CompiledCircuit& compiled,
    const SignalProbabilities& sp, EppOptions options = {});

/// Multi-threaded all-nodes computation over the batched cone-sharing path:
/// sites are grouped into cone-sharing clusters (ConeClusterPlanner), each
/// worker owns a private BatchedEppEngine (plus a CompiledEppEngine for
/// 1-member clusters) and pulls cluster chunks from a shared atomic cursor
/// (dynamic work stealing), biggest clusters first so no thread idles on a
/// skewed tail. `threads` == 0 picks std::thread::hardware_concurrency().
/// Results are bit-identical to the sequential reference path at every
/// thread count (pure computation, no accumulation order effects; the
/// batched lanes replay the reference arithmetic exactly).
[[nodiscard]] std::vector<double> all_nodes_p_sensitized_parallel(
    const Circuit& circuit, const SignalProbabilities& sp,
    EppOptions options = {}, unsigned threads = 0);

class ConeClusterPlanner;

/// Same, reusing a CompiledCircuit the caller already built (`compiled` must
/// be a compilation of `circuit`) — callers that ran the compiled SP pass
/// already hold the view and must not pay a second O(V+E) flatten.
[[nodiscard]] std::vector<double> all_nodes_p_sensitized_parallel(
    const Circuit& circuit, const CompiledCircuit& compiled,
    const SignalProbabilities& sp, EppOptions options = {},
    unsigned threads = 0);

/// P_sensitized over an explicit site list (out[i] for sites[i]), reusing a
/// ConeClusterPlanner the caller already built (`planner` must be a planner
/// over `compiled`). The cheap sibling of compute_sites_parallel for callers
/// that only need the scalar — the registry's batched engine routes its
/// sweep_p_sensitized here.
[[nodiscard]] std::vector<double> p_sensitized_sites_parallel(
    const CompiledCircuit& compiled, const ConeClusterPlanner& planner,
    std::span<const NodeId> sites, const SignalProbabilities& sp,
    EppOptions options = {}, unsigned threads = 0);

/// Batched parallel compute() over an explicit site list: full SiteEpp
/// records, out[i] for sites[i]. The cluster planner + work-stealing
/// scheduler of all_nodes_p_sensitized_parallel, for callers sweeping a
/// subset (the multicycle engine's FF matrix, sampled studies).
[[nodiscard]] std::vector<SiteEpp> compute_sites_parallel(
    const CompiledCircuit& compiled, std::span<const NodeId> sites,
    const SignalProbabilities& sp, EppOptions options = {},
    unsigned threads = 0);

/// Same, reusing a ConeClusterPlanner the caller already built (`planner`
/// must be a planner over `compiled`) — holders of a long-lived compiled
/// view that sweep repeatedly (the SER estimator) must not pay a second
/// O(V+E) signature pass per call.
[[nodiscard]] std::vector<SiteEpp> compute_sites_parallel(
    const CompiledCircuit& compiled, const ConeClusterPlanner& planner,
    std::span<const NodeId> sites, const SignalProbabilities& sp,
    EppOptions options = {}, unsigned threads = 0);

/// Batched parallel compute(): full SiteEpp records for every error site (or
/// an evenly spaced subsample when max_sites > 0), in error_sites() order.
/// Same dynamic scheduler as all_nodes_p_sensitized_parallel.
[[nodiscard]] std::vector<SiteEpp> compute_all_parallel(
    const Circuit& circuit, const SignalProbabilities& sp,
    EppOptions options = {}, unsigned threads = 0, std::size_t max_sites = 0);

/// Same, reusing a CompiledCircuit the caller already built (`compiled` must
/// be a compilation of `circuit`) — holders of a long-lived compiled view
/// (the SER estimator) must not pay a second O(V+E) flatten per sweep.
[[nodiscard]] std::vector<SiteEpp> compute_all_parallel(
    const Circuit& circuit, const CompiledCircuit& compiled,
    const SignalProbabilities& sp, EppOptions options = {},
    unsigned threads = 0, std::size_t max_sites = 0);

}  // namespace sereep
