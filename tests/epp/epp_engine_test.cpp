#include "src/epp/epp_engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/netlist/benchmarks.hpp"
#include "src/netlist/generator.hpp"
#include "src/sim/fault_injection.hpp"
#include "tests/epp/site_epp_testutil.hpp"

namespace sereep {
namespace {

TEST(EppEngine, InverterChainPropagatesFully) {
  Circuit c;
  NodeId prev = c.add_input("a");
  std::vector<NodeId> chain{prev};
  for (int i = 0; i < 5; ++i) {
    prev = c.add_gate(GateType::kNot, "n" + std::to_string(i), {prev});
    chain.push_back(prev);
  }
  c.mark_output(prev);
  c.finalize();

  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  for (NodeId site : chain) {
    EXPECT_NEAR(engine.p_sensitized(site), 1.0, 1e-12)
        << c.node(site).name;
  }
}

TEST(EppEngine, PolarityAlternatesAlongInverterChain) {
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId n1 = c.add_gate(GateType::kNot, "n1", {a});
  const NodeId n2 = c.add_gate(GateType::kNot, "n2", {n1});
  const NodeId n3 = c.add_gate(GateType::kNot, "n3", {n2});
  c.mark_output(n3);
  c.finalize();

  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  (void)engine.compute(a);
  EXPECT_NEAR(engine.last_distribution(n1).abar(), 1.0, 1e-12);
  EXPECT_NEAR(engine.last_distribution(n2).a(), 1.0, 1e-12);
  EXPECT_NEAR(engine.last_distribution(n3).abar(), 1.0, 1e-12);
}

TEST(EppEngine, TreePathMatchesAnalyticProduct) {
  // site -> AND(., b) -> OR(., d) -> PO.
  // EPP = SP(b) * (1 - SP(d)) for any SPs: check a sweep.
  for (double spb : {0.1, 0.5, 0.9}) {
    for (double spd : {0.0, 0.3, 0.8}) {
      Circuit c;
      const NodeId a = c.add_input("a");
      const NodeId b = c.add_input("b");
      const NodeId d = c.add_input("d");
      const NodeId g1 = c.add_gate(GateType::kAnd, "g1", {a, b});
      const NodeId g2 = c.add_gate(GateType::kOr, "g2", {g1, d});
      c.mark_output(g2);
      c.finalize();
      const SignalProbabilities sp =
          parker_mccluskey_sp_custom(c, {0.5, spb, spd}, {});
      EppEngine engine(c, sp);
      EXPECT_NEAR(engine.p_sensitized(a), spb * (1.0 - spd), 1e-12)
          << "SP(b)=" << spb << " SP(d)=" << spd;
    }
  }
}

TEST(EppEngine, ExactCancellationThroughReconvergentXor) {
  // y = XOR(BUFF(a), BUFF(a)): error on `a` reaches both XOR inputs with the
  // same polarity and cancels. Polarity tracking must report 0.
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId x1 = c.add_gate(GateType::kBuf, "x1", {a});
  const NodeId x2 = c.add_gate(GateType::kBuf, "x2", {a});
  const NodeId y = c.add_gate(GateType::kXor, "y", {x1, x2});
  c.mark_output(y);
  c.finalize();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine exact(c, sp);
  EXPECT_NEAR(exact.p_sensitized(a), 0.0, 1e-12);
  // The pooled ablation cannot see the cancellation.
  EppEngine pooled(c, sp, EppOptions{.track_polarity = false});
  EXPECT_GT(pooled.p_sensitized(a), 0.9);
}

TEST(EppEngine, OppositePolarityForcesDetectionAtXor) {
  // y = XOR(BUFF(a), NOT(a)): inputs carry a and ā; XOR(a, ā) = 1 always,
  // so the error is blocked (constant), EPP = 0 — but via the 1-symbol.
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId x1 = c.add_gate(GateType::kBuf, "x1", {a});
  const NodeId x2 = c.add_gate(GateType::kNot, "x2", {a});
  const NodeId y = c.add_gate(GateType::kXor, "y", {x1, x2});
  c.mark_output(y);
  c.finalize();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  (void)engine.compute(a);
  EXPECT_NEAR(engine.last_distribution(y).one(), 1.0, 1e-12);
  EXPECT_NEAR(engine.p_sensitized(a), 0.0, 1e-12);
}

TEST(EppEngine, SiteAtSinkIsCertain) {
  const Circuit c = make_c17();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  EXPECT_NEAR(engine.p_sensitized(*c.find("22")), 1.0, 1e-12);
}

TEST(EppEngine, DffSiteIsCertain) {
  const Circuit c = make_s27();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  for (NodeId ff : c.dffs()) {
    EXPECT_NEAR(engine.p_sensitized(ff), 1.0, 1e-12) << c.node(ff).name;
  }
}

TEST(EppEngine, ErrorStopsAtRegisterBoundary) {
  // a -> g -> ff -> logic -> PO: EPP of g counts the FF capture, not the
  // next-cycle path.
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId g = c.add_gate(GateType::kAnd, "g", {a, c.add_input("b")});
  const NodeId ff = c.add_dff_placeholder("ff");
  c.connect_dff(ff, g);
  const NodeId h = c.add_gate(GateType::kAnd, "h", {ff, c.add_input("e")});
  c.mark_output(h);
  c.finalize();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  const SiteEpp site = engine.compute(g);
  ASSERT_EQ(site.sinks.size(), 1u);
  EXPECT_EQ(site.sinks[0].sink, ff);
  EXPECT_NEAR(site.p_sensitized, 1.0, 1e-12)
      << "flip at the D pin is latched with certainty";
}

TEST(EppEngine, PSensitizedAlwaysInUnitInterval) {
  const Circuit c = make_iscas89_like("s526");
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  for (NodeId site : error_sites(c)) {
    const double p = engine.p_sensitized(site);
    EXPECT_GE(p, -1e-12) << c.node(site).name;
    EXPECT_LE(p, 1.0 + 1e-12) << c.node(site).name;
  }
}

TEST(EppEngine, AllDistributionsValidOnGeneratedCircuit) {
  const Circuit c = make_iscas89_like("s386");
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  ConeExtractor cones(c);
  for (NodeId site = 0; site < c.node_count(); site += 5) {
    const SiteEpp r = engine.compute(site);
    for (const SinkEpp& s : r.sinks) {
      EXPECT_TRUE(s.distribution.valid(1e-7))
          << "site " << c.node(site).name << " sink " << c.node(s.sink).name
          << ": " << s.distribution.to_string(8);
    }
  }
}

TEST(EppEngine, ComputeAndFastPathAgree) {
  const Circuit c = make_iscas89_like("s344");
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  for (NodeId site : error_sites(c)) {
    EXPECT_NEAR(engine.compute(site).p_sensitized,
                engine.p_sensitized(site), 1e-12);
  }
}

TEST(EppEngine, MatchesExhaustiveFaultInjectionOnTree) {
  // Fanout-free circuit: EPP with exact SPs equals the true propagation
  // probability, measured here with a large MC sample.
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId d = c.add_input("d");
  const NodeId e = c.add_input("e");
  const NodeId g1 = c.add_gate(GateType::kAnd, "g1", {a, b});
  const NodeId g2 = c.add_gate(GateType::kNor, "g2", {g1, d});
  const NodeId g3 = c.add_gate(GateType::kXor, "g3", {g2, e});
  c.mark_output(g3);
  c.finalize();

  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  FaultInjector fi(c);
  McOptions opt;
  opt.num_vectors = 1 << 17;
  for (NodeId site : {a, g1, g2, g3}) {
    EXPECT_NEAR(engine.p_sensitized(site),
                fi.run_site(site, opt).probability(), 0.01)
        << c.node(site).name;
  }
}

TEST(EppEngine, CloseToFaultInjectionOnC17) {
  const Circuit c = make_c17();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  FaultInjector fi(c);
  McOptions opt;
  opt.num_vectors = 1 << 16;
  for (NodeId site : error_sites(c)) {
    const double epp = engine.p_sensitized(site);
    const double mc = fi.run_site(site, opt).probability();
    EXPECT_NEAR(epp, mc, 0.12) << c.node(site).name
                               << " (off-path correlation bound)";
  }
}

TEST(EppEngine, SensBoundsBracketThePaperFormula) {
  const Circuit c = make_iscas89_like("s344");
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  for (NodeId site : error_sites(c)) {
    const SiteEpp r = engine.compute(site);
    EXPECT_LE(r.p_sens_lower, r.p_sensitized + 1e-12) << c.node(site).name;
    EXPECT_GE(r.p_sens_upper + 1e-12, r.p_sensitized) << c.node(site).name;
    EXPECT_LE(r.p_sens_upper, 1.0 + 1e-12);
    EXPECT_GE(r.p_sens_lower, -1e-12);
  }
}

TEST(EppEngine, SensBoundsBracketSimulationTruth) {
  // The bracket [max_j, min(1, sum_j)] holds for ANY correlation structure
  // among sink events; the only slack needed is SP approximation + MC noise.
  const Circuit c = make_s27();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  FaultInjector fi(c);
  McOptions opt;
  opt.num_vectors = 1 << 15;
  for (NodeId site : error_sites(c)) {
    const SiteEpp r = engine.compute(site);
    const double mc = fi.run_site(site, opt).probability();
    EXPECT_GE(mc + 0.12, r.p_sens_lower) << c.node(site).name;
    EXPECT_LE(mc - 0.12, r.p_sens_upper) << c.node(site).name;
  }
}

TEST(EppEngine, SingleSinkBoundsCollapse) {
  // With exactly one reachable sink all three quantities coincide.
  const Fig1Example ex = make_fig1_example();
  const SignalProbabilities sp = parker_mccluskey_sp(ex.circuit);
  EppEngine engine(ex.circuit, sp);
  const SiteEpp r = engine.compute(ex.a);
  ASSERT_EQ(r.sinks.size(), 1u);
  EXPECT_DOUBLE_EQ(r.p_sens_lower, r.p_sensitized);
  EXPECT_DOUBLE_EQ(r.p_sens_upper, r.p_sensitized);
}

TEST(EppEngine, ComputeAllCoversEverySite) {
  const Circuit c = make_s27();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  const auto all = engine.compute_all();
  EXPECT_EQ(all.size(), error_sites(c).size());
  const auto some = engine.compute_all(5);
  EXPECT_EQ(some.size(), 5u);
}

TEST(EppEngine, ParallelMatchesSequentialExactly) {
  const Circuit c = make_iscas89_like("s953");
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  const std::vector<NodeId> sites = error_sites(c);
  const std::vector<SiteRow> par =
      testutil::swept_rows(c, sites, sp, {}, 4);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_DOUBLE_EQ(par[i].p_sensitized, engine.p_sensitized(sites[i]))
        << c.node(sites[i]).name;
  }
}

TEST(EppEngine, ParallelSingleThreadFallback) {
  const Circuit c = make_c17();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const std::vector<NodeId> sites = error_sites(c);
  const std::vector<SiteRow> one = testutil::swept_rows(c, sites, sp, {}, 1);
  const std::vector<SiteRow> def = testutil::swept_rows(c, sites, sp, {}, 0);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    testutil::expect_row_equal(c, one[i], def[i]);
  }
}

TEST(EppEngine, ConeMetadataExposed) {
  const Circuit c = make_c17();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  const SiteEpp r = engine.compute(*c.find("11"));
  EXPECT_EQ(r.cone_size, 5u);
  EXPECT_EQ(r.reconvergent_gates, 1u);
  EXPECT_EQ(r.sinks.size(), 2u);
}

}  // namespace
}  // namespace sereep
