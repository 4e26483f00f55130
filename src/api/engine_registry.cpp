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
#include <stdexcept>
#include <utility>

#include "src/api/batched_engine.hpp"
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
    // The multi-process tier (src/epp/sharded_epp.hpp): the batched adapter
    // whose rows sweeps fan out to `sereep worker` processes when
    // ShardOptions names TCP hosts or a worker binary; records sweeps and
    // per-site queries run in-process.
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
