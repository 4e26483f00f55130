#include "src/ser/tmr.hpp"

#include <gtest/gtest.h>

#include "sereep/sereep.hpp"
#include "src/epp/epp_engine.hpp"
#include "src/netlist/benchmarks.hpp"
#include "src/netlist/generator.hpp"
#include "src/sim/fault_injection.hpp"
#include "src/sim/simulator.hpp"

namespace sereep {
namespace {

/// Simulation equivalence: both circuits produce identical PO values on the
/// same random source vectors (DFF state mapped by name order).
void expect_equivalent(const Circuit& a, const Circuit& b,
                       std::uint64_t seed) {
  BitParallelSimulator sa(a);
  BitParallelSimulator sb(b);
  Rng rng(seed);
  for (int batch = 0; batch < 16; ++batch) {
    sa.randomize_sources(rng);
    for (std::size_t i = 0; i < a.inputs().size(); ++i) {
      sb.values()[b.inputs()[i]] = sa.values()[a.inputs()[i]];
    }
    for (std::size_t i = 0; i < a.dffs().size(); ++i) {
      sb.values()[b.dffs()[i]] = sa.values()[a.dffs()[i]];
    }
    sa.eval();
    sb.eval();
    for (std::size_t i = 0; i < a.outputs().size(); ++i) {
      ASSERT_EQ(sa.values()[a.outputs()[i]], sb.values()[b.outputs()[i]])
          << "PO " << a.node(a.outputs()[i]).name << " batch " << batch;
    }
    for (std::size_t i = 0; i < a.dffs().size(); ++i) {
      ASSERT_EQ(sa.sink_word(a.dffs()[i]), sb.sink_word(b.dffs()[i]))
          << "FF D pin " << a.node(a.dffs()[i]).name;
    }
  }
}

TEST(Tmr, PreservesFunctionOnC17) {
  const Circuit c = make_c17();
  // Protect every gate.
  std::vector<NodeId> all;
  for (NodeId id = 0; id < c.node_count(); ++id) {
    if (is_combinational(c.type(id))) all.push_back(id);
  }
  const TmrResult tmr = apply_tmr(c, all);
  EXPECT_EQ(tmr.gates_protected, 6u);
  expect_equivalent(c, tmr.circuit, 7);
}

TEST(Tmr, PreservesFunctionOnSequentialS27) {
  const Circuit c = make_s27();
  std::vector<NodeId> some{*c.find("G8"), *c.find("G9"), *c.find("G11")};
  const TmrResult tmr = apply_tmr(c, some);
  EXPECT_EQ(tmr.gates_protected, 3u);
  expect_equivalent(c, tmr.circuit, 11);
}

TEST(Tmr, PreservesFunctionOnGeneratedCircuit) {
  const Circuit c = make_iscas89_like("s298");
  const HardeningPlan plan = Session{Circuit(c)}.harden(0.3);
  const TmrResult tmr = apply_tmr(c, plan.protect);
  expect_equivalent(c, tmr.circuit, 13);
}

TEST(Tmr, IgnoresNonGates) {
  const Circuit c = make_s27();
  std::vector<NodeId> mixed{c.inputs()[0], c.dffs()[0], *c.find("G8")};
  const TmrResult tmr = apply_tmr(c, mixed);
  EXPECT_EQ(tmr.gates_protected, 1u);
}

TEST(Tmr, GateCountGrowsBySixPerProtectedGate) {
  const Circuit c = make_c17();
  const std::vector<NodeId> two{*c.find("10"), *c.find("16")};
  const TmrResult tmr = apply_tmr(c, two);
  EXPECT_EQ(tmr.circuit.gate_count(), c.gate_count() + 2 * 6);
}

TEST(Tmr, SingleFaultInCopyIsMasked) {
  // Fault injection on a TMR'd copy must show ~zero propagation: the voter
  // out-votes any single-copy transient.
  const Circuit c = make_c17();
  const NodeId g16 = *c.find("16");
  const TmrResult tmr = apply_tmr(c, std::vector<NodeId>{g16});
  const auto copy_a = tmr.circuit.find("16__tmr_a");
  ASSERT_TRUE(copy_a.has_value());

  FaultInjector fi(tmr.circuit);
  McOptions opt;
  opt.num_vectors = 4096;
  EXPECT_DOUBLE_EQ(fi.run_site(*copy_a, opt).probability(), 0.0);
}

TEST(Tmr, VoterItselfRemainsVulnerable) {
  // The voter OR gate is a new single point of failure — the well-known TMR
  // caveat; its EPP must match the original gate's.
  const Circuit c = make_c17();
  const NodeId g16 = *c.find("16");
  const SignalProbabilities sp0 = parker_mccluskey_sp(c);
  EppEngine e0(c, sp0);
  const double before = e0.p_sensitized(g16);

  const TmrResult tmr = apply_tmr(c, std::vector<NodeId>{g16});
  const NodeId voter = tmr.signal_map.at(g16);
  const SignalProbabilities sp1 = parker_mccluskey_sp(tmr.circuit);
  EppEngine e1(tmr.circuit, sp1);
  EXPECT_NEAR(e1.p_sensitized(voter), before, 0.05);
}

TEST(Tmr, MeasuredSerDropsWhenProtectingTopContributors) {
  // End-to-end: protect the top contributors, re-measure the *true*
  // propagation (fault injection, R_SEU-weighted) on the transformed
  // netlist. Voter gates are excluded from the fault list — the standard
  // rad-hard-voter assumption (an unhardened voter is the classic TMR
  // single point of failure; see VoterItselfRemainsVulnerable).
  const auto mc_ser = [](const Circuit& circuit) {
    const SeuRateModel rates;
    FaultInjector fi(circuit);
    McOptions opt;
    opt.num_vectors = 2048;
    double total = 0;
    for (NodeId site : error_sites(circuit)) {
      const std::string& name = circuit.node(site).name;
      if (name.find("__v") != std::string::npos) continue;  // rad-hard voter
      total += rates.rate(circuit, site) *
               fi.run_site(site, opt).probability();
    }
    return total;
  };

  const Circuit c = make_iscas89_like("s208");
  const HardeningPlan plan = Session{Circuit(c)}.harden(0.4);
  const TmrResult tmr = apply_tmr(c, plan.protect);

  const double before = mc_ser(c);
  const double after = mc_ser(tmr.circuit);
  EXPECT_LT(after, before)
      << "TMR with rad-hard voters must lower the measured SER";
}

TEST(Tmr, EmptyProtectionIsIdentity) {
  const Circuit c = make_s27();
  const TmrResult tmr = apply_tmr(c, {});
  EXPECT_EQ(tmr.gates_protected, 0u);
  EXPECT_EQ(tmr.circuit.gate_count(), c.gate_count());
  expect_equivalent(c, tmr.circuit, 17);
}

}  // namespace
}  // namespace sereep
