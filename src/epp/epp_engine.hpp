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

/// One site of a rows sweep — the row form of SiteEpp: P_sensitized and,
/// folded over the same sinks in the same rank order beside it, the
/// latch-weighted sensitization
///   latched = 1 − Π_j (1 − w(sink_j) · EPP_j),
/// w being the per-node latch-weight table the sweep was given
/// (LatchingModel::weights). These are the operations node_ser_from_epp
/// performs over a full record, so the SER row assembled from a SiteRow
/// (node_ser_from_row) is bit-identical to the reference fold.
struct SiteRow {
  NodeId site = kInvalidNode;
  double p_sensitized = 0.0;
  double latched = 0.0;
};

/// What one sweep writes, out[i] for sites[i]: rows (`rows` sized like the
/// site list, `latch_weights` one weight per node) or, when `records` is
/// non-empty, full SiteEpp records (per-sink distributions, cone metadata).
struct SweepOutput {
  std::span<SiteRow> rows{};
  std::span<const double> latch_weights{};
  std::span<SiteEpp> records{};
};

class CompiledCircuit;
class ConeClusterPlanner;

/// The sweep driver — every whole-circuit or site-subset sweep runs here.
/// `planner` (a planner over `compiled`) groups `sites` into cone-sharing
/// clusters; each worker owns a private BatchedEppEngine (plus a
/// CompiledEppEngine for 1-member clusters) and pulls cluster chunks from a
/// shared atomic cursor (dynamic work stealing), biggest clusters first so
/// no thread idles on a skewed tail. `threads` == 0 picks
/// std::thread::hardware_concurrency(). Results are bit-identical to the
/// reference engine at every thread count (pure per-site computation, no
/// accumulation order effects; the batched lanes replay the reference
/// arithmetic exactly).
void sweep_sites(const CompiledCircuit& compiled,
                 const ConeClusterPlanner& planner,
                 std::span<const NodeId> sites, const SignalProbabilities& sp,
                 const EppOptions& options, unsigned threads,
                 const SweepOutput& out);

}  // namespace sereep
