// EngineRegistry + the built-in engine adapters.
//
// Each adapter wraps one tier of the oracle hierarchy (see tests/README.md)
// behind IEppEngine. The wrappers add NO arithmetic — per-site calls forward
// verbatim and sweeps either loop the per-site path (sequential engines) or
// forward to the planner-reusing sweep driver (batched), so registry
// resolution is bit-for-bit equal to direct construction by construction;
// tests/api/engine_registry_test.cpp pins it anyway. The sequential
// engines' rows are the reference fold itself (node_ser_from_epp over their
// records).
#include "sereep/engine.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/epp/compiled_epp.hpp"
#include "src/epp/sharded_epp.hpp"

namespace sereep {

namespace {

/// "reference" (the paper-shaped EppEngine over Circuit node structs) and
/// "compiled" (the flat-CSR single-site hot path): sequential engines whose
/// sweeps loop the per-site path and whose rows are the reference fold of
/// each site's record. `view` is what Engine is built over.
template <typename Engine>
class SequentialEngine final : public IEppEngine {
 public:
  template <typename View>
  SequentialEngine(const EngineContext& ctx, const View& view)
      : circuit_(*ctx.circuit),
        ser_(ctx.ser),
        engine_(view, *ctx.sp, ctx.epp) {}

  [[nodiscard]] SiteEpp compute(NodeId site) override {
    return engine_.compute(site);
  }
  [[nodiscard]] double p_sensitized(NodeId site) override {
    return engine_.p_sensitized(site);
  }
  [[nodiscard]] std::vector<SiteEpp> sweep(std::span<const NodeId> sites,
                                           unsigned /*threads*/) override {
    std::vector<SiteEpp> out;
    out.reserve(sites.size());
    for (NodeId site : sites) out.push_back(engine_.compute(site));
    return out;
  }
  [[nodiscard]] std::vector<NodeSer> sweep_rows(
      std::span<const NodeId> sites, unsigned /*threads*/) override {
    std::vector<NodeSer> out;
    out.reserve(sites.size());
    for (NodeId site : sites) {
      out.push_back(node_ser_from_epp(circuit_, engine_.compute(site),
                                      ser_.seu, ser_.latching));
    }
    return out;
  }

 private:
  const Circuit& circuit_;
  SerLayerOptions ser_;
  Engine engine_;
};

/// "batched": cone-sharing clusters + lane-plane SIMD kernels; sweeps run
/// the sweep driver, reusing the context's cluster planner when one is
/// provided (the Session always provides its memoized one). Per-site queries
/// run a compiled engine (a 1-lane cluster is bit-identical to it), built on
/// the first one: sweep-only sessions, which rebuild their engine after
/// every edit, never pay for its per-node scratch.
class BatchedEngine final : public IEppEngine {
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

 private:
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

  [[nodiscard]] CompiledEppEngine& single() {
    if (!single_) single_.emplace(compiled_, sp_, epp_);
    return *single_;
  }

  const Circuit& circuit_;
  const CompiledCircuit& compiled_;
  const SignalProbabilities& sp_;
  EppOptions epp_;
  SerLayerOptions ser_;
  const ConeClusterPlanner* planner_;  ///< may be null (see planner())
  std::function<const ConeClusterPlanner*()> planner_source_;
  std::unique_ptr<ConeClusterPlanner> owned_planner_;
  std::optional<CompiledEppEngine> single_;  ///< see single()
};

void require_context(const EngineContext& context) {
  if (context.circuit == nullptr || context.compiled == nullptr ||
      context.sp == nullptr) {
    throw std::invalid_argument(
        "EngineContext: circuit, compiled and sp must all be set");
  }
}

}  // namespace

EngineRegistry& EngineRegistry::instance() {
  // Built-ins registered on first touch — no static-initialization-order
  // dependence, and linking the registry always brings them along.
  static EngineRegistry registry = [] {
    EngineRegistry r;
    r.add("reference", {}, [](const EngineContext& ctx) {
      return std::unique_ptr<IEppEngine>(
          new SequentialEngine<EppEngine>(ctx, *ctx.circuit));
    });
    r.add("compiled", {}, [](const EngineContext& ctx) {
      return std::unique_ptr<IEppEngine>(
          new SequentialEngine<CompiledEppEngine>(ctx, *ctx.compiled));
    });
    r.add("batched", {.threads = true, .simd = true},
          [](const EngineContext& ctx) {
            return std::unique_ptr<IEppEngine>(new BatchedEngine(ctx));
          });
    // The multi-process tier (src/epp/sharded_epp.hpp): sweeps fan out to
    // `sereep worker` processes when ShardOptions names TCP hosts or a
    // worker binary and netlist spec; per-site queries run in-process.
    // Bit-for-bit equal to batched — sharding only partitions work.
    r.add("sharded", {.threads = true, .simd = true, .processes = true},
          [](const EngineContext& ctx) {
            return std::unique_ptr<IEppEngine>(new ShardedEppEngine(ctx));
          });
    return r;
  }();
  return registry;
}

bool EngineRegistry::add(std::string name, EngineCaps caps, Factory factory) {
  if (name.empty() || factory == nullptr || find(name) != nullptr) {
    return false;
  }
  entries_.push_back({std::move(name), caps, std::move(factory)});
  return true;
}

const EngineRegistry::Entry* EngineRegistry::find(
    std::string_view name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

bool EngineRegistry::contains(std::string_view name) const {
  return find(name) != nullptr;
}

std::vector<std::string> EngineRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  std::sort(out.begin(), out.end());
  return out;
}

std::string EngineRegistry::names_joined() const {
  std::string out;
  for (const std::string& n : names()) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

EngineCaps EngineRegistry::caps(std::string_view name) const {
  const Entry* e = find(name);
  if (e == nullptr) {
    throw std::invalid_argument("unknown engine '" + std::string(name) +
                                "' (registered: " + names_joined() + ")");
  }
  return e->caps;
}

std::unique_ptr<IEppEngine> EngineRegistry::create(
    std::string_view name, const EngineContext& context) const {
  const Entry* e = find(name);
  if (e == nullptr) {
    throw std::invalid_argument("unknown engine '" + std::string(name) +
                                "' (registered: " + names_joined() + ")");
  }
  require_context(context);
  return e->factory(context);
}

}  // namespace sereep
