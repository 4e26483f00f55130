// CompiledEppEngine — the EPP hot path over a CompiledCircuit.
//
// Same three-step algorithm and identical Prob4 arithmetic as EppEngine (the
// reference engine in epp_engine.hpp), restructured around the flat-CSR
// kernel view: cone extraction is sort-free (level-bucket concatenation), the
// inner fanin loop is a contiguous CSR scan instead of a pointer chase
// through Node structs, off-path distributions are built once per engine
// instead of once per fanin visit, and p_sensitized() skips the
// reconvergence scan compute() needs for its metadata. Every floating-point
// operation happens on the same values in the same order as the reference
// path, so results are bit-for-bit equal — the equivalence tests assert
// exact equality, not tolerance.
//
// One engine per thread: the engine owns per-site scratch. The underlying
// CompiledCircuit and SignalProbabilities are read-only and safely shared.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/epp/epp_engine.hpp"
#include "src/netlist/compiled.hpp"

namespace sereep {

/// Prob4::off_path(sp) for every node — the per-engine prebuilt table. A
/// sweep that spawns several worker engines over one SP assignment should
/// build this once and hand each engine a view (the per-engine constructors
/// below otherwise each build an identical copy).
[[nodiscard]] std::vector<Prob4> build_off_path_table(
    const SignalProbabilities& sp);

/// EPP computation engine bound to one CompiledCircuit + one SP assignment.
/// Mirrors EppEngine's per-site API; see epp_engine.hpp for the result types.
class CompiledEppEngine {
 public:
  /// `circuit` and `sp` must outlive the engine; `sp` must cover every node.
  CompiledEppEngine(const CompiledCircuit& circuit,
                    const SignalProbabilities& sp, EppOptions options = {});

  /// Same, sharing a prebuilt off-path table (build_off_path_table(sp));
  /// `off_path` must cover every node and outlive the engine.
  CompiledEppEngine(const CompiledCircuit& circuit,
                    const SignalProbabilities& sp,
                    std::span<const Prob4> off_path, EppOptions options = {});

  /// Full three-step computation for one error site (cone metadata, per-sink
  /// distributions, sensitization bounds).
  [[nodiscard]] SiteEpp compute(NodeId site);

  /// P_sensitized only — the fastest path: skips per-sink assembly and the
  /// reconvergent-gate scan.
  [[nodiscard]] double p_sensitized(NodeId site);

  /// p_sensitized() plus the latch-weighted fold over the same sinks
  /// (`latch_weights` one weight per node) — one site's rows-sweep row.
  [[nodiscard]] SiteRow row(NodeId site, std::span<const double> latch_weights);

  /// The distribution derived for an on-path node in the most recent
  /// compute()/p_sensitized() call (valid for that site's cone only).
  [[nodiscard]] const Prob4& last_distribution(NodeId node) const {
    return dist_[node];
  }

  [[nodiscard]] const CompiledCircuit& circuit() const noexcept {
    return circuit_;
  }
  [[nodiscard]] const EppOptions& options() const noexcept { return options_; }

 private:
  const Cone& propagate(NodeId site, bool with_reconvergence);

  const CompiledCircuit& circuit_;
  const SignalProbabilities& sp_;
  EppOptions options_;
  CompiledConeExtractor cones_;
  std::vector<Prob4> owned_off_path_;   ///< empty when the table is shared
  std::span<const Prob4> off_path_;     ///< Prob4::off_path(sp) per node
  std::vector<Prob4> dist_;
  std::vector<std::uint32_t> on_path_stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<Prob4> fanin_scratch_;
};

}  // namespace sereep
