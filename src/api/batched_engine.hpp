// BatchedEngine — the "batched" registry adapter, and the in-process half of
// the sharded tier (src/epp/sharded_epp.hpp derives from it and overrides
// only the rows sweep's fan-out).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sereep/engine.hpp"
#include "src/epp/compiled_epp.hpp"

namespace sereep {

/// "batched": cone-sharing clusters + lane-plane SIMD kernels; sweeps run
/// the sweep driver, reusing the context's cluster planner when one is
/// provided (the Session always provides its memoized one). Per-site queries
/// run a compiled engine (a 1-lane cluster is bit-identical to it), built on
/// the first one: sweep-only sessions, which rebuild their engine after
/// every edit, never pay for its per-node scratch.
class BatchedEngine : public IEppEngine {
 public:
  explicit BatchedEngine(const EngineContext& ctx)
      : circuit_(*ctx.circuit),
        compiled_(*ctx.compiled),
        sp_(*ctx.sp),
        epp_(ctx.epp),
        ser_(ctx.ser),
        planner_(ctx.planner),
        planner_source_(ctx.planner_source) {}

  [[nodiscard]] SiteEpp compute(NodeId site) override {
    return single().compute(site);
  }
  [[nodiscard]] double p_sensitized(NodeId site) override {
    return single().p_sensitized(site);
  }
  [[nodiscard]] std::vector<SiteEpp> sweep(std::span<const NodeId> sites,
                                           unsigned threads) override {
    std::vector<SiteEpp> out(sites.size());
    sweep_sites(compiled_, planner(), sites, sp_, epp_, threads,
                {.records = out});
    return out;
  }
  [[nodiscard]] std::vector<NodeSer> sweep_rows(std::span<const NodeId> sites,
                                                unsigned threads) override {
    const std::vector<double> weights = ser_.latching.weights(circuit_);
    std::vector<SiteRow> rows(sites.size());
    sweep_sites(compiled_, planner(), sites, sp_, epp_, threads,
                {.rows = rows, .latch_weights = weights});
    std::vector<NodeSer> out;
    out.reserve(rows.size());
    for (const SiteRow& row : rows) {
      out.push_back(node_ser_from_row(circuit_, row, ser_.seu));
    }
    return out;
  }

 protected:
  /// The context's plan, resolved lazily: per-site queries never trigger a
  /// deferred planner_source; sweeps resolve it once and keep it (or build
  /// and keep a private one when the context gave neither form).
  [[nodiscard]] const ConeClusterPlanner& planner() {
    if (planner_ == nullptr && planner_source_) {
      planner_ = planner_source_();
      planner_source_ = nullptr;
    }
    if (planner_ == nullptr) {
      owned_planner_ = std::make_unique<ConeClusterPlanner>(compiled_);
      planner_ = owned_planner_.get();
    }
    return *planner_;
  }

  const Circuit& circuit_;
  const CompiledCircuit& compiled_;
  const SignalProbabilities& sp_;
  EppOptions epp_;
  SerLayerOptions ser_;

 private:
  [[nodiscard]] CompiledEppEngine& single() {
    if (!single_) single_.emplace(compiled_, sp_, epp_);
    return *single_;
  }

  const ConeClusterPlanner* planner_;  ///< may be null (see planner())
  std::function<const ConeClusterPlanner*()> planner_source_;
  std::unique_ptr<ConeClusterPlanner> owned_planner_;
  std::optional<CompiledEppEngine> single_;  ///< see single()
};

}  // namespace sereep
