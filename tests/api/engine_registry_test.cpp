// EngineRegistry — built-in registration, capability flags, error behavior,
// runtime extension, and the acceptance contract: every engine resolved via
// the registry produces bit-identical results (EXPECT_EQ, no tolerance) to
// direct construction of the underlying engine.
#include <gtest/gtest.h>

#include <memory>

#include "sereep/engine.hpp"
#include "src/epp/batched_epp.hpp"
#include "src/epp/compiled_epp.hpp"
#include "src/netlist/benchmarks.hpp"
#include "src/netlist/generator.hpp"
#include "src/sim/fault_injection.hpp"

namespace sereep {
namespace {

/// Shared fixture artifacts for one circuit.
struct Artifacts {
  explicit Artifacts(Circuit c)
      : circuit(std::move(c)),
        compiled(circuit),
        sp(parker_mccluskey_sp(circuit)),
        planner(compiled),
        sites(error_sites(circuit)) {}

  [[nodiscard]] EngineContext context(
      const ConeClusterPlanner* with_planner = nullptr) const {
    EngineContext ctx;
    ctx.circuit = &circuit;
    ctx.compiled = &compiled;
    ctx.sp = &sp;
    ctx.planner = with_planner;
    return ctx;
  }

  Circuit circuit;
  CompiledCircuit compiled;
  SignalProbabilities sp;
  ConeClusterPlanner planner;
  std::vector<NodeId> sites;
};

void expect_site_epp_eq(const SiteEpp& a, const SiteEpp& b) {
  EXPECT_EQ(a.site, b.site);
  EXPECT_EQ(a.p_sensitized, b.p_sensitized);
  EXPECT_EQ(a.p_sens_lower, b.p_sens_lower);
  EXPECT_EQ(a.p_sens_upper, b.p_sens_upper);
  EXPECT_EQ(a.cone_size, b.cone_size);
  EXPECT_EQ(a.self_dpin_mass, b.self_dpin_mass);
  ASSERT_EQ(a.sinks.size(), b.sinks.size());
  for (std::size_t i = 0; i < a.sinks.size(); ++i) {
    EXPECT_EQ(a.sinks[i].sink, b.sinks[i].sink);
    EXPECT_EQ(a.sinks[i].error_mass, b.sinks[i].error_mass);
    for (int s = 0; s < kSymCount; ++s) {
      EXPECT_EQ(a.sinks[i].distribution.p[s], b.sinks[i].distribution.p[s]);
    }
  }
}

TEST(EngineRegistry, BuiltinsAreRegistered) {
  EngineRegistry& registry = EngineRegistry::instance();
  EXPECT_TRUE(registry.contains("reference"));
  EXPECT_TRUE(registry.contains("compiled"));
  EXPECT_TRUE(registry.contains("batched"));
  EXPECT_FALSE(registry.contains("turbo"));
  const std::vector<std::string> names = registry.names();
  // Sorted, and at least the three built-ins (tests may add more keys).
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_GE(names.size(), 3u);
}

TEST(EngineRegistry, CapabilityFlags) {
  EngineRegistry& registry = EngineRegistry::instance();
  EXPECT_FALSE(registry.caps("reference").threads);
  EXPECT_FALSE(registry.caps("reference").simd);
  EXPECT_FALSE(registry.caps("compiled").threads);
  EXPECT_TRUE(registry.caps("batched").threads);
  EXPECT_TRUE(registry.caps("batched").simd);
}

TEST(EngineRegistry, UnknownKeyThrowsListingRegisteredNames) {
  const Artifacts art(make_c17());
  try {
    (void)EngineRegistry::instance().create("turbo", art.context());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("turbo"), std::string::npos);
    EXPECT_NE(what.find("reference"), std::string::npos);
    EXPECT_NE(what.find("compiled"), std::string::npos);
    EXPECT_NE(what.find("batched"), std::string::npos);
  }
  EXPECT_THROW((void)EngineRegistry::instance().caps("turbo"),
               std::invalid_argument);
}

TEST(EngineRegistry, IncompleteContextThrows) {
  const Artifacts art(make_c17());
  EngineContext ctx = art.context();
  ctx.sp = nullptr;
  EXPECT_THROW((void)EngineRegistry::instance().create("reference", ctx),
               std::invalid_argument);
}

TEST(EngineRegistry, EnginesMatchDirectConstructionBitForBit) {
  // A sequential circuit with reconvergence and DFF self-loops — the full
  // arithmetic surface. Baseline: direct construction of the reference
  // engine; every registry key must reproduce it exactly.
  const Artifacts art(make_iscas89_like("s298"));
  EppEngine direct(art.circuit, art.sp);
  for (const char* key : {"reference", "compiled", "batched"}) {
    const std::unique_ptr<IEppEngine> engine =
        EngineRegistry::instance().create(key, art.context(&art.planner));
    EXPECT_EQ(engine->name(), key);
    for (NodeId site : art.sites) {
      EXPECT_EQ(engine->p_sensitized(site), direct.p_sensitized(site))
          << key << " site " << site;
      expect_site_epp_eq(engine->compute(site), direct.compute(site));
    }
  }
}

/// Every NodeSer field, EXPECT_EQ.
void expect_rows_eq(const std::vector<NodeSer>& want,
                    const std::vector<NodeSer>& got, const char* key) {
  ASSERT_EQ(got.size(), want.size()) << key;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << key;
    EXPECT_EQ(got[i].r_seu, want[i].r_seu) << key;
    EXPECT_EQ(got[i].p_latched, want[i].p_latched) << key;
    EXPECT_EQ(got[i].p_sensitized, want[i].p_sensitized) << key;
    EXPECT_EQ(got[i].ser, want[i].ser) << key;
  }
}

TEST(EngineRegistry, SweepsMatchPerSiteCallsAndThreadCounts) {
  const Artifacts art(make_iscas89_like("s344"));
  for (const char* key : {"reference", "compiled", "batched"}) {
    const std::unique_ptr<IEppEngine> engine =
        EngineRegistry::instance().create(key, art.context(&art.planner));
    const std::vector<NodeSer> rows = engine->sweep_rows(art.sites, 1);
    ASSERT_EQ(rows.size(), art.sites.size());
    for (std::size_t i = 0; i < art.sites.size(); ++i) {
      EXPECT_EQ(rows[i].node, art.sites[i]) << key;
      EXPECT_EQ(rows[i].p_sensitized, engine->p_sensitized(art.sites[i]))
          << key;
    }
    // Threaded sweeps are bit-identical (a no-op for sequential engines).
    expect_rows_eq(rows, engine->sweep_rows(art.sites, 4), key);
    const std::vector<SiteEpp> records = engine->sweep(art.sites, 2);
    ASSERT_EQ(records.size(), art.sites.size());
    std::vector<NodeSer> folded;
    for (const SiteEpp& rec : records) {
      folded.push_back(node_ser_from_epp(art.circuit, rec, SeuRateModel{},
                                         LatchingModel{}));
    }
    // The rows sweep folds in the sweep what the reference fold takes over
    // the records.
    expect_rows_eq(folded, rows, key);
  }
}

TEST(EngineRegistry, BatchedWithoutPlannerBuildsItsOwnPlan) {
  const Artifacts art(make_iscas89_like("s344"));
  const std::unique_ptr<IEppEngine> with_planner =
      EngineRegistry::instance().create("batched", art.context(&art.planner));
  const std::unique_ptr<IEppEngine> without =
      EngineRegistry::instance().create("batched", art.context());
  expect_rows_eq(with_planner->sweep_rows(art.sites, 1),
                 without->sweep_rows(art.sites, 1), "batched");
}

TEST(EngineRegistry, CapabilityDriftBetweenRegistrationAndImplThrows) {
  // The registered flags drive planner wiring and the CLI listing; an
  // implementation whose caps() disagrees must be rejected at create().
  EngineRegistry& registry = EngineRegistry::instance();
  struct LyingEngine final : IEppEngine {
    [[nodiscard]] std::string_view name() const noexcept override {
      return "test-lying-caps";
    }
    [[nodiscard]] EngineCaps caps() const noexcept override {
      return {.threads = true, .simd = false};  // != registered {}
    }
    [[nodiscard]] SiteEpp compute(NodeId) override { return {}; }
    [[nodiscard]] double p_sensitized(NodeId) override { return 0.0; }
    [[nodiscard]] std::vector<SiteEpp> sweep(std::span<const NodeId>,
                                             unsigned) override {
      return {};
    }
    [[nodiscard]] std::vector<NodeSer> sweep_rows(std::span<const NodeId>,
                                                  unsigned) override {
      return {};
    }
  };
  (void)registry.add("test-lying-caps", {}, [](const EngineContext&) {
    return std::unique_ptr<IEppEngine>(new LyingEngine());
  });
  const Artifacts art(make_c17());
  EXPECT_THROW((void)registry.create("test-lying-caps", art.context()),
               std::logic_error);
}

TEST(EngineRegistry, RuntimeRegistrationExtendsTheVocabulary) {
  // A new engine joins by registering a factory — no call-site edits. The
  // shim wraps the compiled engine, so its results are pinned too.
  EngineRegistry& registry = EngineRegistry::instance();
  struct ShimEngine final : IEppEngine {
    explicit ShimEngine(const EngineContext& ctx)
        : circuit(*ctx.circuit), ser(ctx.ser), inner(*ctx.compiled, *ctx.sp, ctx.epp) {}
    [[nodiscard]] std::string_view name() const noexcept override {
      return "test-shim";
    }
    [[nodiscard]] EngineCaps caps() const noexcept override { return {}; }
    [[nodiscard]] SiteEpp compute(NodeId site) override {
      return inner.compute(site);
    }
    [[nodiscard]] double p_sensitized(NodeId site) override {
      return inner.p_sensitized(site);
    }
    [[nodiscard]] std::vector<SiteEpp> sweep(std::span<const NodeId> sites,
                                             unsigned) override {
      std::vector<SiteEpp> out;
      for (NodeId s : sites) out.push_back(inner.compute(s));
      return out;
    }
    [[nodiscard]] std::vector<NodeSer> sweep_rows(
        std::span<const NodeId> sites, unsigned) override {
      std::vector<NodeSer> out;
      for (NodeId s : sites) {
        out.push_back(node_ser_from_epp(circuit, inner.compute(s), ser.seu,
                                        ser.latching));
      }
      return out;
    }
    const Circuit& circuit;
    SerLayerOptions ser;
    CompiledEppEngine inner;
  };
  const bool added =
      registry.add("test-shim", {}, [](const EngineContext& ctx) {
        return std::unique_ptr<IEppEngine>(new ShimEngine(ctx));
      });
  // First registration wins; re-running the test binary section twice (or a
  // duplicate key) is rejected without clobbering.
  if (added) {
    EXPECT_FALSE(registry.add("test-shim", {}, [](const EngineContext&) {
      return std::unique_ptr<IEppEngine>();
    }));
  }
  ASSERT_TRUE(registry.contains("test-shim"));

  const Artifacts art(make_s27());
  const std::unique_ptr<IEppEngine> shim =
      registry.create("test-shim", art.context());
  CompiledEppEngine direct(art.compiled, art.sp);
  for (NodeId site : art.sites) {
    EXPECT_EQ(shim->p_sensitized(site), direct.p_sensitized(site));
  }
}

}  // namespace
}  // namespace sereep
