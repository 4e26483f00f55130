#include "src/sigprob/signal_prob.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/netlist/benchmarks.hpp"
#include "src/netlist/compiled.hpp"
#include "src/netlist/generator.hpp"

namespace sereep {
namespace {

TEST(ParkerMcCluskey, ElementaryGates) {
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId g_and = c.add_gate(GateType::kAnd, "and", {a, b});
  const NodeId g_or = c.add_gate(GateType::kOr, "or", {a, b});
  const NodeId g_nand = c.add_gate(GateType::kNand, "nand", {a, b});
  const NodeId g_nor = c.add_gate(GateType::kNor, "nor", {a, b});
  const NodeId g_xor = c.add_gate(GateType::kXor, "xor", {a, b});
  const NodeId g_xnor = c.add_gate(GateType::kXnor, "xnor", {a, b});
  const NodeId g_not = c.add_gate(GateType::kNot, "not", {a});
  for (NodeId id : {g_and, g_or, g_nand, g_nor, g_xor, g_xnor, g_not}) {
    c.mark_output(id);
  }
  c.finalize();

  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EXPECT_DOUBLE_EQ(sp[g_and], 0.25);
  EXPECT_DOUBLE_EQ(sp[g_or], 0.75);
  EXPECT_DOUBLE_EQ(sp[g_nand], 0.75);
  EXPECT_DOUBLE_EQ(sp[g_nor], 0.25);
  EXPECT_DOUBLE_EQ(sp[g_xor], 0.5);
  EXPECT_DOUBLE_EQ(sp[g_xnor], 0.5);
  EXPECT_DOUBLE_EQ(sp[g_not], 0.5);
}

TEST(ParkerMcCluskey, CustomInputProbabilities) {
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId g = c.add_gate(GateType::kAnd, "g", {a, b});
  c.mark_output(g);
  c.finalize();
  const SignalProbabilities sp =
      parker_mccluskey_sp_custom(c, {0.9, 0.4}, {});
  EXPECT_NEAR(sp[g], 0.36, 1e-12);
}

TEST(ParkerMcCluskey, CustomSizeMismatchThrows) {
  Circuit c;
  const NodeId a = c.add_input("a");
  c.mark_output(c.add_gate(GateType::kNot, "n", {a}));
  c.finalize();
  EXPECT_THROW((void)parker_mccluskey_sp_custom(c, {0.5, 0.5}, {}),
               std::runtime_error);
}

TEST(ParkerMcCluskey, ExactOnTrees) {
  // On fanout-free circuits the independence assumption holds exactly.
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId d = c.add_input("d");
  const NodeId e = c.add_input("e");
  const NodeId g1 = c.add_gate(GateType::kNand, "g1", {a, b});
  const NodeId g2 = c.add_gate(GateType::kOr, "g2", {d, e});
  const NodeId g3 = c.add_gate(GateType::kXor, "g3", {g1, g2});
  c.mark_output(g3);
  c.finalize();

  const SignalProbabilities pm = parker_mccluskey_sp(c);
  const SignalProbabilities ex = exact_sp(c);
  for (NodeId id = 0; id < c.node_count(); ++id) {
    EXPECT_NEAR(pm[id], ex[id], 1e-12) << c.node(id).name;
  }
}

TEST(ParkerMcCluskey, ReconvergenceCausesKnownError) {
  // y = AND(a, NOT(a)) == 0 exactly, but PM sees two independent 0.5 inputs
  // and reports 0.25. This documents the assumption (it is the same
  // assumption the paper's off-path SP values carry).
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId n = c.add_gate(GateType::kNot, "n", {a});
  const NodeId y = c.add_gate(GateType::kAnd, "y", {a, n});
  c.mark_output(y);
  c.finalize();

  EXPECT_DOUBLE_EQ(parker_mccluskey_sp(c)[y], 0.25);
  EXPECT_DOUBLE_EQ(exact_sp(c)[y], 0.0);
}

TEST(ExactSp, MatchesMonteCarloOnC17) {
  const Circuit c = make_c17();
  const SignalProbabilities ex = exact_sp(c);
  const SignalProbabilities mc = monte_carlo_sp(c, 1 << 17);
  for (NodeId id = 0; id < c.node_count(); ++id) {
    EXPECT_NEAR(ex[id], mc[id], 0.01) << c.node(id).name;
  }
}

TEST(ExactSp, SupportLimitYieldsNaN) {
  GeneratorProfile p;
  p.name = "wide";
  p.num_inputs = 40;
  p.num_outputs = 2;
  p.num_gates = 120;
  p.target_depth = 8;
  const Circuit c = generate_circuit(p, 3);
  ExactSpOptions opt;
  opt.max_support = 4;
  const SignalProbabilities sp = exact_sp(c, opt);
  bool some_nan = false, some_value = false;
  for (NodeId id = 0; id < c.node_count(); ++id) {
    if (!is_combinational(c.type(id))) continue;
    if (std::isnan(sp[id])) {
      some_nan = true;
    } else {
      some_value = true;
    }
  }
  EXPECT_TRUE(some_nan) << "wide supports should be skipped";
  EXPECT_TRUE(some_value) << "narrow supports should be computed";
}

TEST(MonteCarlo, ConvergesToHalfOnInput) {
  const Circuit c = make_c17();
  const SignalProbabilities sp = monte_carlo_sp(c, 1 << 16);
  for (NodeId id : c.inputs()) {
    EXPECT_NEAR(sp[id], 0.5, 0.02);
  }
}

TEST(MonteCarlo, DeterministicUnderSeed) {
  const Circuit c = make_c17();
  const SignalProbabilities a = monte_carlo_sp(c, 4096, 7);
  const SignalProbabilities b = monte_carlo_sp(c, 4096, 7);
  for (NodeId id = 0; id < c.node_count(); ++id) {
    EXPECT_DOUBLE_EQ(a[id], b[id]);
  }
}

TEST(ParkerMcCluskey, MatchesMonteCarloOnGeneratedCircuit) {
  // PM is approximate under reconvergence, but on a full circuit the bulk of
  // nodes should sit near the sampled truth.
  const Circuit c = make_iscas89_like("s386");
  const SignalProbabilities pm = parker_mccluskey_sp(c);
  const SignalProbabilities mc = monte_carlo_sp(c, 1 << 15);
  double total_abs_err = 0;
  std::size_t n = 0;
  for (NodeId id = 0; id < c.node_count(); ++id) {
    if (!is_combinational(c.type(id))) continue;
    total_abs_err += std::fabs(pm[id] - mc[id]);
    ++n;
  }
  EXPECT_LT(total_abs_err / static_cast<double>(n), 0.06)
      << "mean |PM - MC| too large";
}

TEST(SequentialFixedPoint, ToggleFlopIsHalf) {
  // ff <- NOT(ff): the stationary distribution is exactly 0.5.
  Circuit c;
  c.add_input("dummy");
  const NodeId ff = c.add_dff_placeholder("ff");
  const NodeId n = c.add_gate(GateType::kNot, "n", {ff});
  c.connect_dff(ff, n);
  c.mark_output(n);
  c.finalize();
  const SequentialSpResult r = sequential_fixed_point_sp(c);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.sp[ff], 0.5, 1e-6);
}

TEST(SequentialFixedPoint, BiasedFeedbackConverges) {
  // ff <- OR(ff, a): once 1, stays 1; fixed point SP(ff) -> 1.
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId ff = c.add_dff_placeholder("ff");
  const NodeId g = c.add_gate(GateType::kOr, "g", {ff, a});
  c.connect_dff(ff, g);
  c.mark_output(g);
  c.finalize();
  const SequentialSpResult r = sequential_fixed_point_sp(c, {}, 1e-9, 2000);
  EXPECT_NEAR(r.sp[ff], 1.0, 1e-3);
}

TEST(SequentialFixedPoint, S27Converges) {
  const Circuit c = make_s27();
  const SequentialSpResult r = sequential_fixed_point_sp(c);
  EXPECT_TRUE(r.converged);
  for (NodeId id = 0; id < c.node_count(); ++id) {
    EXPECT_GE(r.sp[id], 0.0);
    EXPECT_LE(r.sp[id], 1.0);
  }
}

TEST(AllEngines, ProbabilitiesInUnitInterval) {
  const Circuit c = make_iscas89_like("s298");
  for (const SignalProbabilities& sp :
       {parker_mccluskey_sp(c), monte_carlo_sp(c, 4096)}) {
    for (NodeId id = 0; id < c.node_count(); ++id) {
      EXPECT_GE(sp[id], 0.0) << c.node(id).name;
      EXPECT_LE(sp[id], 1.0) << c.node(id).name;
    }
  }
}

TEST(CompiledParkerMcCluskey, BitIdenticalToReferenceOnEmbedded) {
  // The CSR pass is the production SP route (Session, multicycle,
  // `sereep sweep`, benches); it must reproduce the reference pass exactly,
  // not approximately — EXPECT_EQ, no tolerance, NaN-free.
  for (const char* name : {"c17", "s27", "s953", "s1423"}) {
    const Circuit c = make_circuit(name);
    const SignalProbabilities ref = parker_mccluskey_sp(c);
    const SignalProbabilities got =
        compiled_parker_mccluskey_sp(CompiledCircuit(c));
    ASSERT_EQ(got.size(), ref.size()) << name;
    for (NodeId id = 0; id < c.node_count(); ++id) {
      EXPECT_EQ(got.p1[id], ref.p1[id]) << name << " node " << id;
      EXPECT_FALSE(std::isnan(got.p1[id])) << name << " node " << id;
    }
  }
}

TEST(CompiledParkerMcCluskey, BitIdenticalOnGeneratedCircuitAndOptions) {
  GeneratorProfile p;
  p.name = "sp_csr_gen";
  p.num_inputs = 20;
  p.num_outputs = 12;
  p.num_dffs = 80;
  p.num_gates = 1500;
  p.target_depth = 14;
  const Circuit c = generate_circuit(p, 99);
  const CompiledCircuit cc(c);
  for (const SpOptions options :
       {SpOptions{}, SpOptions{.input_sp = 0.3, .dff_sp = 0.7}}) {
    const SignalProbabilities ref = parker_mccluskey_sp(c, options);
    const SignalProbabilities got = compiled_parker_mccluskey_sp(cc, options);
    for (NodeId id = 0; id < c.node_count(); ++id) {
      EXPECT_EQ(got.p1[id], ref.p1[id]) << "node " << id;
    }
  }
}

}  // namespace
}  // namespace sereep
