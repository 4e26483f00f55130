#include "src/ser/ser_estimator.hpp"

#include <gtest/gtest.h>

#include "sereep/sereep.hpp"
#include "src/netlist/benchmarks.hpp"
#include "src/netlist/generator.hpp"
#include "src/ser/latching.hpp"
#include "src/ser/seu_rate.hpp"

namespace sereep {
namespace {

TEST(SeuRateModel, RatesArePositiveForLogic) {
  const Circuit c = make_s27();
  const SeuRateModel model;
  for (NodeId id = 0; id < c.node_count(); ++id) {
    if (c.type(id) == GateType::kConst0 || c.type(id) == GateType::kConst1) {
      continue;
    }
    EXPECT_GT(model.rate(c, id), 0.0) << c.node(id).name;
  }
}

TEST(SeuRateModel, ConstantsCannotUpset) {
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId k = c.add_const("k1", true);
  const NodeId g = c.add_gate(GateType::kAnd, "g", {a, k});
  c.mark_output(g);
  c.finalize();
  const SeuRateModel model;
  EXPECT_DOUBLE_EQ(model.rate(c, k), 0.0);
}

TEST(SeuRateModel, FlipFlopsAreMostVulnerable) {
  // The defaults must reproduce the paper-cited reality: memory elements
  // upset more than logic of comparable size.
  const Circuit c = make_s27();
  const SeuRateModel model;
  const double ff_rate = model.rate(c, c.dffs()[0]);
  for (NodeId id = 0; id < c.node_count(); ++id) {
    if (is_combinational(c.type(id))) {
      EXPECT_GT(ff_rate, model.rate(c, id)) << c.node(id).name;
    }
  }
}

TEST(SeuRateModel, FluxScalesLinearly) {
  const Circuit c = make_c17();
  SeuRateModel model;
  const double base = model.rate(c, *c.find("10"));
  model.set_flux(model.flux() * 3.0);
  EXPECT_NEAR(model.rate(c, *c.find("10")), base * 3.0, base * 1e-9);
}

TEST(SeuRateModel, HigherQcritLowersRate) {
  const Circuit c = make_c17();
  SeuRateModel model;
  const double base = model.rate(c, *c.find("10"));
  GateSeuParams p = model.params(GateType::kNand);
  p.qcrit_fc *= 2.0;
  model.set_params(GateType::kNand, p);
  EXPECT_LT(model.rate(c, *c.find("10")), base);
}

TEST(LatchingModel, WindowRatioForDff) {
  const Circuit c = make_s27();
  LatchingModel model(/*clock_period_ns=*/2.0, /*window_ns=*/0.1,
                      /*pulse_ns=*/0.3);
  EXPECT_NEAR(model.probability(c, c.dffs()[0]), 0.2, 1e-12);
}

TEST(LatchingModel, ClampedToUnitInterval) {
  const Circuit c = make_s27();
  LatchingModel model(/*clock_period_ns=*/1.0, /*window_ns=*/3.0,
                      /*pulse_ns=*/0.0);
  EXPECT_DOUBLE_EQ(model.probability(c, c.dffs()[0]), 1.0);
}

TEST(LatchingModel, PoObservedEveryCycleByDefault) {
  const Circuit c = make_c17();
  const LatchingModel model;
  EXPECT_DOUBLE_EQ(model.probability(c, *c.find("22")), 1.0);
}

// ---- SER estimation (R = R_SEU · P_latched · P_sens) via Session::ser() ----

/// The SER row Session::ser() holds for `node`.
NodeSer ser_row(Session& session, NodeId node) {
  for (const NodeSer& row : session.ser().nodes) {
    if (row.node == node) return row;
  }
  ADD_FAILURE() << "no SER row for node " << node;
  return {};
}

TEST(SerEstimator, ProductStructureHolds) {
  Session session(make_c17());
  const NodeSer n = ser_row(session, *session.find("11"));
  EXPECT_GT(n.r_seu, 0.0);
  EXPECT_GT(n.p_sensitized, 0.0);
  EXPECT_NEAR(n.ser, n.r_seu * n.p_latched * n.p_sensitized, n.ser * 1e-9);
}

TEST(SerEstimator, TotalIsSumOfNodes) {
  Session session(make_s27());
  const CircuitSer& ser = session.ser();
  double sum = 0;
  for (const NodeSer& n : ser.nodes) sum += n.ser;
  EXPECT_NEAR(ser.total_ser, sum, sum * 1e-12);
  EXPECT_EQ(ser.nodes.size(), 17u);  // all error sites of s27
}

TEST(SerEstimator, UnobservableNodeContributesZero) {
  // A gate masked by a constant has P_sens = 0 and hence zero SER.
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId z = c.add_const("zero", false);
  const NodeId g = c.add_gate(GateType::kAnd, "g", {a, z});
  const NodeId out = c.add_gate(GateType::kOr, "out", {g, c.add_input("b")});
  c.mark_output(out);
  c.finalize();
  Session session(std::move(c));
  EXPECT_DOUBLE_EQ(ser_row(session, a).ser, 0.0);
}

TEST(SerEstimator, RankedIsDescending) {
  Session session(make_iscas89_like("s298"));
  const auto ranked = session.ser().ranked();
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].ser, ranked[i].ser);
  }
}

TEST(SerEstimator, FitConversion) {
  NodeSer n;
  n.ser = 1.0 / 3600.0;  // one failure per hour
  EXPECT_NEAR(n.fit(), 1e9, 1.0);
}

TEST(Hardening, ReachesRequestedReduction) {
  Session session(make_iscas89_like("s298"));
  const CircuitSer& ser = session.ser();
  const HardeningPlan plan = select_hardening(ser, 0.5);
  EXPECT_GE(plan.reduction(), 0.5);
  EXPECT_LT(plan.protect.size(), ser.nodes.size())
      << "greedy selection should not need every node for a 50% cut";
  EXPECT_NEAR(plan.original_ser, ser.total_ser, ser.total_ser * 1e-12);
}

TEST(Hardening, GreedyPicksHighestContributorsFirst) {
  Session session(make_s27());
  const CircuitSer& ser = session.ser();
  const HardeningPlan plan = select_hardening(ser, 0.10);
  ASSERT_FALSE(plan.protect.empty());
  EXPECT_EQ(plan.protect[0], ser.ranked()[0].node);
}

TEST(Hardening, ZeroTargetNeedsNoProtection) {
  Session session(make_s27());
  const HardeningPlan plan = select_hardening(session.ser(), 0.0);
  EXPECT_TRUE(plan.protect.empty());
  EXPECT_DOUBLE_EQ(plan.reduction(), 0.0);
}

TEST(Hardening, FullTargetProtectsEverythingContributing) {
  Session session(make_s27());
  const CircuitSer& ser = session.ser();
  const HardeningPlan plan = select_hardening(ser, 1.0);
  EXPECT_NEAR(plan.residual_ser, 0.0, ser.total_ser * 1e-9);
}

}  // namespace
}  // namespace sereep
