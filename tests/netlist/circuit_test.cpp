#include "src/netlist/circuit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sereep {
namespace {

Circuit small_comb() {
  // y = NAND(a, b); z = NOT(y); both observed.
  Circuit c("t");
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId y = c.add_gate(GateType::kNand, "y", {a, b});
  const NodeId z = c.add_gate(GateType::kNot, "z", {y});
  c.mark_output(y);
  c.mark_output(z);
  c.finalize();
  return c;
}

TEST(Circuit, BasicConstruction) {
  const Circuit c = small_comb();
  EXPECT_EQ(c.node_count(), 4u);
  EXPECT_EQ(c.inputs().size(), 2u);
  EXPECT_EQ(c.outputs().size(), 2u);
  EXPECT_EQ(c.gate_count(), 2u);
  EXPECT_TRUE(c.finalized());
}

TEST(Circuit, FaninFanoutConsistency) {
  const Circuit c = small_comb();
  const NodeId y = *c.find("y");
  const NodeId a = *c.find("a");
  EXPECT_EQ(c.fanin(y).size(), 2u);
  ASSERT_EQ(c.fanout(a).size(), 1u);
  EXPECT_EQ(c.fanout(a)[0], y);
}

TEST(Circuit, FindByName) {
  const Circuit c = small_comb();
  EXPECT_TRUE(c.find("y").has_value());
  EXPECT_FALSE(c.find("nope").has_value());
}

TEST(Circuit, DuplicateNameRejected) {
  Circuit c;
  c.add_input("a");
  EXPECT_THROW(c.add_input("a"), std::runtime_error);
}

TEST(Circuit, EmptyNameRejected) {
  Circuit c;
  EXPECT_THROW(c.add_input(""), std::runtime_error);
}

TEST(Circuit, BadArityRejected) {
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  EXPECT_THROW(c.add_gate(GateType::kNot, "n", {a, b}), std::runtime_error);
  EXPECT_THROW(c.add_gate(GateType::kAnd, "g", {}), std::runtime_error);
}

TEST(Circuit, FailedAddLeavesNoTrace) {
  // A rejected add_gate must not leave an edge behind: the next node takes
  // the failed id, so a stale fanout entry would point at an unrelated gate.
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  EXPECT_THROW(c.add_gate(GateType::kAnd, "g", {a, 999}), std::runtime_error);
  EXPECT_THROW(c.add_gate(GateType::kAnd, "a", {b, a}), std::runtime_error);
  EXPECT_TRUE(c.fanout(a).empty());
  EXPECT_TRUE(c.fanout(b).empty());
  EXPECT_FALSE(c.find("g").has_value());
  const NodeId x = c.add_gate(GateType::kNot, "x", {b});
  c.mark_output(x);
  c.finalize();
  EXPECT_TRUE(c.fanout(a).empty());
  // Every fanout array is exactly the reverse of the fanins, as a multiset.
  std::vector<std::pair<NodeId, NodeId>> forward;
  std::vector<std::pair<NodeId, NodeId>> backward;
  for (NodeId id = 0; id < c.node_count(); ++id) {
    for (const NodeId f : c.fanin(id)) forward.emplace_back(f, id);
    for (const NodeId t : c.fanout(id)) backward.emplace_back(id, t);
  }
  std::sort(forward.begin(), forward.end());
  std::sort(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);
}

TEST(Circuit, AddGateRejectsNonCombinationalTypes) {
  Circuit c;
  const NodeId a = c.add_input("a");
  EXPECT_THROW(c.add_gate(GateType::kDff, "ff", {a}), std::runtime_error);
  EXPECT_THROW(c.add_gate(GateType::kInput, "i", {}), std::runtime_error);
}

TEST(Circuit, NoSinksRejected) {
  Circuit c;
  const NodeId a = c.add_input("a");
  c.add_gate(GateType::kNot, "n", {a});
  EXPECT_THROW(c.finalize(), std::runtime_error);
}

TEST(Circuit, TopoOrderRespectsDependencies) {
  const Circuit c = small_comb();
  const auto order = c.topo_order();
  std::vector<std::size_t> pos(c.node_count());
  for (std::size_t p = 0; p < order.size(); ++p) pos[order[p]] = p;
  for (NodeId id = 0; id < c.node_count(); ++id) {
    if (!is_combinational(c.type(id))) continue;
    for (NodeId f : c.fanin(id)) {
      EXPECT_LT(pos[f], pos[id]) << "fanin must precede gate";
    }
  }
}

TEST(Circuit, Levels) {
  const Circuit c = small_comb();
  EXPECT_EQ(c.levels()[*c.find("a")], 0u);
  EXPECT_EQ(c.levels()[*c.find("y")], 1u);
  EXPECT_EQ(c.levels()[*c.find("z")], 2u);
  EXPECT_EQ(c.depth(), 2u);
}

TEST(Circuit, SequentialFeedbackLoopIsLegal) {
  // Classic divider: ff feeds an inverter that feeds the ff.
  Circuit c("div2");
  const NodeId ff = c.add_dff_placeholder("ff");
  const NodeId n = c.add_gate(GateType::kNot, "n", {ff});
  c.connect_dff(ff, n);
  c.add_input("clk_dummy");  // at least one PI for sources
  c.mark_output(n);
  EXPECT_NO_THROW(c.finalize());
  EXPECT_EQ(c.dffs().size(), 1u);
  // The DFF counts as both source and sink.
  EXPECT_NE(std::find(c.sources().begin(), c.sources().end(), ff),
            c.sources().end());
  EXPECT_NE(std::find(c.sinks().begin(), c.sinks().end(), ff),
            c.sinks().end());
}

TEST(Circuit, CombinationalCycleRejected) {
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId g1 = c.add_gate(GateType::kAnd, "g1", {a, a});
  const NodeId g2 = c.add_gate(GateType::kAnd, "g2", {g1, a});
  c.mark_output(g2);
  // Create a cycle g1 <- g2 via replace_fanin.
  c.replace_fanin(g1, 1, g2);
  EXPECT_THROW(c.finalize(), std::runtime_error);
}

TEST(Circuit, ConnectDffTwiceRejected) {
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId ff = c.add_dff_placeholder("ff");
  c.connect_dff(ff, a);
  EXPECT_THROW(c.connect_dff(ff, a), std::runtime_error);
}

TEST(Circuit, UnconnectedDffRejectedAtFinalize) {
  Circuit c;
  c.add_input("a");
  c.add_dff_placeholder("ff");
  EXPECT_THROW(c.finalize(), std::runtime_error);
}

TEST(Circuit, MutationAfterFinalizeRejected) {
  Circuit c = small_comb();
  EXPECT_THROW(c.add_input("new"), std::runtime_error);
  EXPECT_THROW(c.mark_output(0), std::runtime_error);
}

TEST(Circuit, MarkOutputIdempotent) {
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId g = c.add_gate(GateType::kBuf, "g", {a});
  c.mark_output(g);
  c.mark_output(g);
  c.finalize();
  EXPECT_EQ(c.outputs().size(), 1u);
}

TEST(Circuit, SinksIncludePosAndDffs) {
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId g = c.add_gate(GateType::kNot, "g", {a});
  const NodeId ff = c.add_dff_placeholder("ff");
  c.connect_dff(ff, g);
  c.mark_output(g);
  c.finalize();
  EXPECT_EQ(c.sinks().size(), 2u);
}

TEST(Circuit, AppendFaninOnlyNary) {
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId b = c.add_input("b");
  const NodeId g = c.add_gate(GateType::kAnd, "g", {a});
  c.append_fanin(g, b);
  EXPECT_EQ(c.fanin(g).size(), 2u);
  const NodeId n = c.add_gate(GateType::kNot, "n", {g});
  EXPECT_THROW(c.append_fanin(n, a), std::runtime_error);
}

TEST(Circuit, DffLevelIsDPinPlusOne) {
  Circuit c;
  const NodeId a = c.add_input("a");
  const NodeId g1 = c.add_gate(GateType::kNot, "g1", {a});
  const NodeId g2 = c.add_gate(GateType::kNot, "g2", {g1});
  const NodeId ff = c.add_dff_placeholder("ff");
  c.connect_dff(ff, g2);
  c.mark_output(g2);
  c.finalize();
  EXPECT_EQ(c.levels()[ff], c.levels()[g2] + 1);
}

}  // namespace
}  // namespace sereep
