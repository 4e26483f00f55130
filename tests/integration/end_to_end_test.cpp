// Integration: the full flow (parse -> SP -> EPP -> SER -> hardening) on
// real and generated circuits through the public sereep::Session facade,
// plus cross-engine consistency checks.
#include <gtest/gtest.h>

#include "sereep/sereep.hpp"
#include "src/netlist/bench_io.hpp"
#include "src/netlist/benchmarks.hpp"
#include "src/netlist/generator.hpp"
#include "src/sim/fault_injection.hpp"

namespace sereep {
namespace {

TEST(EndToEnd, FullFlowOnS27) {
  Session session(make_s27());
  const CircuitSer& ser = session.ser();
  EXPECT_GT(ser.total_ser, 0.0);
  const HardeningPlan plan = session.harden(0.5);
  EXPECT_FALSE(plan.protect.empty());
  EXPECT_GE(plan.reduction(), 0.5);
}

TEST(EndToEnd, BenchFileRoundTripPreservesEpp) {
  // EPP results must be identical on a circuit serialized and reloaded.
  const Circuit original = make_iscas89_like("s344");
  const Circuit reloaded = parse_bench(write_bench(original), "s344");

  const SignalProbabilities sp1 = parker_mccluskey_sp(original);
  const SignalProbabilities sp2 = parker_mccluskey_sp(reloaded);
  EppEngine e1(original, sp1);
  EppEngine e2(reloaded, sp2);
  for (NodeId site : error_sites(original)) {
    const auto name = original.node(site).name;
    const auto site2 = reloaded.find(name);
    ASSERT_TRUE(site2.has_value()) << name;
    EXPECT_NEAR(e1.p_sensitized(site), e2.p_sensitized(*site2), 1e-12)
        << name;
  }
}

TEST(EndToEnd, SequentialSpFeedsEpp) {
  // EPP with fixed-point sequential SPs runs end to end and stays in range.
  const Circuit c = make_iscas89_like("s526");
  const SequentialSpResult seq = sequential_fixed_point_sp(c);
  EppEngine engine(c, seq.sp);
  for (NodeId site : subsample_sites(error_sites(c), 50)) {
    const double p = engine.p_sensitized(site);
    EXPECT_GE(p, -1e-12);
    EXPECT_LE(p, 1.0 + 1e-12);
  }
}

TEST(EndToEnd, EppOrderIndependentOfSiteIterationOrder) {
  // Engine state (scratch reuse) must not leak between sites.
  const Circuit c = make_iscas89_like("s298");
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine fwd(c, sp);
  EppEngine rev(c, sp);
  const auto sites = error_sites(c);
  std::vector<double> forward(c.node_count(), -1);
  for (NodeId s : sites) forward[s] = fwd.p_sensitized(s);
  for (auto it = sites.rbegin(); it != sites.rend(); ++it) {
    EXPECT_DOUBLE_EQ(rev.p_sensitized(*it), forward[*it])
        << c.node(*it).name;
  }
}

TEST(EndToEnd, HardeningActuallyLowersMeasuredSer) {
  // Protect the plan's nodes (model: their contribution disappears) and
  // verify the re-estimated total drops accordingly.
  Session session(make_iscas89_like("s208"));
  const CircuitSer& before = session.ser();
  const HardeningPlan plan = session.harden(0.3);

  double protected_sum = 0;
  for (NodeId n : plan.protect) {
    for (const NodeSer& node : before.nodes) {
      if (node.node == n) protected_sum += node.ser;
    }
  }
  EXPECT_NEAR(before.total_ser - protected_sum, plan.residual_ser,
              before.total_ser * 1e-9);
}

class KnownCircuitFlow : public testing::TestWithParam<const char*> {};

TEST_P(KnownCircuitFlow, SerPipelineRuns) {
  Session session(make_circuit(GetParam()));
  const CircuitSer& ser = session.ser();
  EXPECT_GT(ser.total_ser, 0.0) << GetParam();
  for (const NodeSer& n : ser.nodes) {
    EXPECT_GE(n.p_sensitized, -1e-12);
    EXPECT_LE(n.p_sensitized, 1.0 + 1e-12);
    EXPECT_GE(n.ser, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, KnownCircuitFlow,
                         testing::Values("c17", "s27", "s208", "s298", "s344",
                                         "s386", "s420", "s526", "s641",
                                         "s820", "s953", "s1196"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace sereep
