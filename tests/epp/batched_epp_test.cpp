// Unit tests for the batched cone-sharing path: ConeClusterPlanner
// invariants and BatchedEppEngine behaviour on the embedded benchmark
// circuits. Cross-engine bit-identity over random circuit profiles lives in
// engine_equivalence_test.cpp; this file pins the pieces — signatures,
// cluster packing, lane bookkeeping, scratch reuse across clusters — and
// the embedded c17/s27/s953 workloads.
#include "src/epp/batched_epp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/epp/compiled_epp.hpp"
#include "src/epp/epp_engine.hpp"
#include "src/netlist/benchmarks.hpp"
#include "src/netlist/compiled.hpp"
#include "src/netlist/cone_cluster.hpp"
#include "src/netlist/generator.hpp"
#include "src/sim/fault_injection.hpp"
#include "tests/epp/site_epp_testutil.hpp"

namespace sereep {
namespace {

std::vector<Circuit> embedded_circuits() {
  std::vector<Circuit> out;
  out.push_back(make_c17());
  out.push_back(make_s27());
  out.push_back(make_iscas89_like("s953"));
  return out;
}

TEST(ConeClusterPlanner, EverySiteInExactlyOneCluster) {
  for (const Circuit& c : embedded_circuits()) {
    const CompiledCircuit cc(c);
    const std::vector<NodeId> sites = error_sites(c);
    const auto clusters = ConeClusterPlanner(cc).plan(sites);
    std::vector<int> seen(sites.size(), 0);
    for (const ConeCluster& cluster : clusters) {
      EXPECT_GE(cluster.members.size(), 1u);
      EXPECT_LE(cluster.members.size(), ConeClusterPlanner::kMaxLanes);
      EXPECT_GT(cluster.mass, 0.0);
      for (std::uint32_t idx : cluster.members) {
        ASSERT_LT(idx, sites.size());
        ++seen[idx];
      }
    }
    for (std::size_t i = 0; i < sites.size(); ++i) {
      EXPECT_EQ(seen[i], 1) << c.name() << " site " << c.node(sites[i]).name;
    }
    // Biggest-first execution order.
    for (std::size_t i = 1; i < clusters.size(); ++i) {
      EXPECT_GE(clusters[i - 1].mass, clusters[i].mass);
    }
  }
}

TEST(ConeClusterPlanner, PlanIsDeterministic) {
  const Circuit c = make_iscas89_like("s953");
  const CompiledCircuit cc(c);
  const std::vector<NodeId> sites = error_sites(c);
  const ConeClusterPlanner planner(cc);
  const auto a = planner.plan(sites);
  const auto b = ConeClusterPlanner(cc).plan(sites);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].members, b[i].members);
    EXPECT_EQ(a[i].mass, b[i].mass);
  }
}

TEST(ConeClusterPlanner, SignatureSeparatesDisjointSinkSets) {
  // Two independent AND->PO islands: sites of one island can never reach the
  // other's sink, so their signatures must differ (one sink bit each; the
  // node-id hash makes a collision astronomically unlikely for 2 sinks —
  // and if the hash changed, this test documents the contract to re-check).
  Circuit c;
  const NodeId a1 = c.add_input("a1");
  const NodeId a2 = c.add_input("a2");
  const NodeId b1 = c.add_input("b1");
  const NodeId b2 = c.add_input("b2");
  const NodeId ga = c.add_gate(GateType::kAnd, "ga", {a1, a2});
  const NodeId gb = c.add_gate(GateType::kAnd, "gb", {b1, b2});
  c.mark_output(ga);
  c.mark_output(gb);
  c.finalize();
  const CompiledCircuit cc(c);
  const ConeClusterPlanner planner(cc);
  EXPECT_EQ(planner.sink_signature(a1), planner.sink_signature(a2));
  EXPECT_EQ(planner.sink_signature(a1), planner.sink_signature(ga));
  EXPECT_EQ(planner.sink_signature(b1), planner.sink_signature(gb));
  EXPECT_NE(planner.sink_signature(a1), planner.sink_signature(b1));
}

TEST(ConeClusterPlanner, ChainSharesOneCluster) {
  // A buffer chain to a single PO: every site sees the same sink set, so
  // the planner must pack the whole chain into one cluster.
  Circuit c;
  NodeId prev = c.add_input("in");
  for (int i = 0; i < 10; ++i) {
    prev = c.add_gate(GateType::kBuf, "b" + std::to_string(i), {prev});
  }
  c.mark_output(prev);
  c.finalize();
  const CompiledCircuit cc(c);
  const std::vector<NodeId> sites = error_sites(c);
  const auto clusters = ConeClusterPlanner(cc).plan(sites);
  EXPECT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0].members.size(), sites.size());
}

TEST(ConeClusterPlanner, DominatorSinkSemantics) {
  // chain: in -> b0 -> b1 -> PO(g). Every path from every chain node first
  // crosses g, so g dominates them all; g (a sink) dominates itself.
  Circuit c;
  const NodeId in = c.add_input("in");
  const NodeId b0 = c.add_gate(GateType::kBuf, "b0", {in});
  const NodeId b1 = c.add_gate(GateType::kBuf, "b1", {b0});
  const NodeId g = c.add_gate(GateType::kBuf, "g", {b1});
  c.mark_output(g);
  // stem: s fans out to two POs directly — no unique first sink, so the key
  // falls back to the nearest (lowest-rank) reachable sink.
  const NodeId s = c.add_input("s");
  const NodeId p1 = c.add_gate(GateType::kBuf, "p1", {s});
  const NodeId p2 = c.add_gate(GateType::kBuf, "p2", {s});
  c.mark_output(p1);
  c.mark_output(p2);
  c.finalize();
  const CompiledCircuit cc(c);
  const ConeClusterPlanner planner(cc);
  for (NodeId id : {in, b0, b1, g}) {
    EXPECT_EQ(planner.dominator_sink(id), g) << c.node(id).name;
  }
  const NodeId fallback = planner.dominator_sink(s);
  EXPECT_TRUE(fallback == p1 || fallback == p2);
  const NodeId lower_rank =
      cc.topo_pos(p1) < cc.topo_pos(p2) ? p1 : p2;
  EXPECT_EQ(fallback, lower_rank);
}

TEST(ConeClusterPlanner, DffIsItsOwnDominator) {
  const Circuit c = make_s27();
  const CompiledCircuit cc(c);
  const ConeClusterPlanner planner(cc);
  for (NodeId ff : c.dffs()) EXPECT_EQ(planner.dominator_sink(ff), ff);
}

TEST(ConeClusterPlanner, TwoLevelPlanKeepsInvariantsAndPacksTighter) {
  // The dominator regrouping must preserve every packing invariant (each
  // site exactly once, lane cap, determinism), and it leaves no two
  // singleton clusters that share a dominator sink: on circuits this small
  // only the lane cap splits a key's run, so at most its last cluster is a
  // singleton. BENCH_micro's gated two_level.singleton_sites pins how
  // tightly the planner packs a 12k-gate circuit.
  for (const Circuit& c : embedded_circuits()) {
    const CompiledCircuit cc(c);
    const std::vector<NodeId> sites = error_sites(c);
    const ConeClusterPlanner planner(cc);
    const auto two = planner.plan(sites);
    std::vector<NodeId> singleton_keys;
    for (const ConeCluster& cl : two) {
      if (cl.members.size() != 1) continue;
      const NodeId key = planner.dominator_sink(sites[cl.members[0]]);
      if (key != kInvalidNode) singleton_keys.push_back(key);
    }
    std::sort(singleton_keys.begin(), singleton_keys.end());
    EXPECT_EQ(std::adjacent_find(singleton_keys.begin(),
                                 singleton_keys.end()),
              singleton_keys.end())
        << c.name();
    std::vector<int> seen(sites.size(), 0);
    for (const ConeCluster& cluster : two) {
      EXPECT_GE(cluster.members.size(), 1u);
      EXPECT_LE(cluster.members.size(), ConeClusterPlanner::kMaxLanes);
      for (std::uint32_t idx : cluster.members) {
        ASSERT_LT(idx, sites.size());
        ++seen[idx];
      }
    }
    for (std::size_t i = 0; i < sites.size(); ++i) {
      EXPECT_EQ(seen[i], 1) << c.name() << " site " << c.node(sites[i]).name;
    }
    const auto again = planner.plan(sites);
    ASSERT_EQ(again.size(), two.size()) << c.name();
    for (std::size_t i = 0; i < two.size(); ++i) {
      EXPECT_EQ(again[i].members, two[i].members);
    }
  }
}

TEST(ConeClusterPlanner, TwoLevelPacksDominatorSharingSingletons) {
  // Star of buffer chains into one PO through an AND: each chain has a
  // distinct Bloom-signature *neighbourhood* but every site's first-crossed
  // sink is the lone PO, so level 2 must merge whatever level 1 left alone.
  Circuit c;
  std::vector<NodeId> ins;
  std::vector<NodeId> mids;
  for (int i = 0; i < 6; ++i) {
    NodeId prev = c.add_input("in" + std::to_string(i));
    ins.push_back(prev);
    prev = c.add_gate(GateType::kBuf, "m" + std::to_string(i), {prev});
    mids.push_back(prev);
  }
  const NodeId sink = c.add_gate(GateType::kAnd, "sink", mids);
  c.mark_output(sink);
  c.finalize();
  const CompiledCircuit cc(c);
  const ConeClusterPlanner planner(cc);
  const std::vector<NodeId> sites = error_sites(c);
  const auto two = planner.plan(sites);
  // Everything funnels into one sink => one cluster holds every site.
  ASSERT_EQ(two.size(), 1u);
  EXPECT_EQ(two[0].members.size(), sites.size());
}

TEST(BatchedEppEngine, SingleSiteMatchesCompiledOnEmbedded) {
  for (const Circuit& c : embedded_circuits()) {
    const SignalProbabilities sp = parker_mccluskey_sp(c);
    const CompiledCircuit cc(c);
    CompiledEppEngine compiled(cc, sp);
    BatchedEppEngine batched(cc, sp);
    const std::vector<double> weights = LatchingModel{}.weights(c);
    for (NodeId site : error_sites(c)) {
      testutil::expect_site_epp_equal(c, compiled.compute(site),
                                      batched.compute(site));
      testutil::expect_row_equal(c, compiled.row(site, weights),
                                 batched.row(site, weights));
    }
  }
}

TEST(BatchedEppEngine, FullLaneClusterMatchesReference) {
  // One cluster at the 64-lane cap, members chosen across the whole s953
  // site range — exercises the widest mask paths and the scatter of lanes
  // with very different cones sharing one merged frontier.
  const Circuit c = make_iscas89_like("s953");
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit cc(c);
  EppEngine reference(c, sp);
  BatchedEppEngine batched(cc, sp);
  const std::vector<NodeId> all = error_sites(c);
  std::vector<NodeId> sites;
  for (std::size_t k = 0; k < BatchedEppEngine::kMaxLanes; ++k) {
    sites.push_back(all[k * all.size() / BatchedEppEngine::kMaxLanes]);
  }
  std::vector<SiteEpp> out(sites.size());
  batched.compute_cluster(sites, out);
  for (std::size_t k = 0; k < sites.size(); ++k) {
    testutil::expect_site_epp_equal(c, reference.compute(sites[k]), out[k]);
  }
}

TEST(BatchedEppEngine, ScratchReuseAcrossClustersStaysExact) {
  // Back-to-back clusters on one engine must not leak lane state: run the
  // same cluster before and after a different one and demand identical
  // records (the epoch/stamp reuse bug this would catch is silent
  // otherwise).
  const Circuit c = make_s27();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit cc(c);
  BatchedEppEngine batched(cc, sp);
  const std::vector<NodeId> sites = error_sites(c);
  ASSERT_GE(sites.size(), 4u);
  const std::vector<NodeId> first(sites.begin(), sites.begin() + 3);
  const std::vector<NodeId> second(sites.end() - 2, sites.end());

  std::vector<SiteEpp> before(first.size());
  batched.compute_cluster(first, before);
  std::vector<SiteEpp> other(second.size());
  batched.compute_cluster(second, other);
  std::vector<SiteEpp> after(first.size());
  batched.compute_cluster(first, after);
  for (std::size_t k = 0; k < first.size(); ++k) {
    testutil::expect_site_epp_equal(c, before[k], after[k]);
  }
}

TEST(BatchedEppEngine, DffSiteLanesCarrySelfFeedback) {
  // s27's flip-flops have state-feedback paths; batching all DFF sites into
  // one cluster must reproduce self_dpin_mass exactly (the quantity the
  // multicycle matrix depends on).
  const Circuit c = make_s27();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit cc(c);
  CompiledEppEngine compiled(cc, sp);
  BatchedEppEngine batched(cc, sp);
  const auto dffs = c.dffs();
  ASSERT_GE(dffs.size(), 2u);
  std::vector<NodeId> sites(dffs.begin(), dffs.end());
  std::vector<SiteEpp> out(sites.size());
  batched.compute_cluster(sites, out);
  bool any_feedback = false;
  for (std::size_t k = 0; k < sites.size(); ++k) {
    const SiteEpp ref = compiled.compute(sites[k]);
    testutil::expect_site_epp_equal(c, ref, out[k]);
    any_feedback |= ref.self_dpin_mass > 0.0;
  }
  EXPECT_TRUE(any_feedback);  // the fixture really exercises the path
}

TEST(BatchedEppEngine, LiveFrontierHazardsStayBitIdentical) {
  // Every way a recycled plane block could be read after its release, on
  // nodes carrying >= 4 member lanes so the lane-plane kernels run them:
  //   (a) PO p feeds gates, and the sink fold reads it after the pass;
  //   (b) h1 lists h0 twice, and h2 reads h0 after h1;
  //   (c) DFF sites q0, q2 are read by h0, h1, buckets below their own;
  //   (d) DFF r copies member DFF site q0 in bucket 1 (a DFF fanin passes
  //       only its own seed lane, so r stays on the per-lane path);
  //   (e) q0's and q2's D pins lie in their own cones, and self_dpin_mass
  //       reads them after the pass.
  // Two wide layers (w below h2, v above the D pins) each take more blocks
  // than the free list holds, so a block released too early is overwritten
  // before its late read.
  Circuit c("hazards");
  std::vector<NodeId> a;
  for (int i = 0; i < 6; ++i) a.push_back(c.add_input("a" + std::to_string(i)));
  const NodeId q0 = c.add_dff_placeholder("q0");
  const NodeId q2 = c.add_dff_placeholder("q2");
  const NodeId r = c.add_dff("r", q0);
  const NodeId g0 = c.add_gate(GateType::kAnd, "g0", {a[0], a[1], a[2], a[3]});
  const NodeId g1 = c.add_gate(GateType::kOr, "g1", {a[2], a[3], a[4], a[5]});
  const NodeId p = c.add_gate(GateType::kNand, "p", {g0, g1});
  c.mark_output(p);
  const NodeId h0 = c.add_gate(GateType::kAnd, "h0", {p, q0, r});
  const NodeId h1 = c.add_gate(GateType::kNor, "h1", {h0, h0, q2});
  const auto wide = [&](const std::string& name, NodeId from, int width) {
    std::vector<NodeId> layer;
    for (int i = 0; i < width; ++i) {
      layer.push_back(c.add_gate(GateType::kNot, name + std::to_string(i),
                                 {from}));
    }
    return c.add_gate(GateType::kAnd, name + "sum", layer);
  };
  const NodeId w = wide("w", h1, 24);
  const NodeId h2 = c.add_gate(GateType::kXor, "h2", {w, p, h0});
  NodeId d0 = h2;
  for (int i = 0; i < 12; ++i) {
    d0 = i % 3 == 0 ? c.add_gate(GateType::kNand, "c" + std::to_string(i),
                                 {d0, g1})
                    : c.add_gate(GateType::kNot, "c" + std::to_string(i),
                                 {d0});
  }
  const NodeId d2 = c.add_gate(GateType::kXnor, "d2", {d0, h1});
  c.connect_dff(q0, d0);
  c.connect_dff(q2, d2);
  NodeId tail = h2;
  for (int i = 0; i < 16; ++i) {
    tail = i % 2 == 0 ? c.add_gate(GateType::kOr, "t" + std::to_string(i),
                                   {tail, g0})
                      : c.add_gate(GateType::kNot, "t" + std::to_string(i),
                                   {tail});
  }
  c.mark_output(wide("v", tail, 24));
  c.finalize();
  ASSERT_GT(c.levels()[tail], c.levels()[q2]);

  std::vector<NodeId> sites(a.begin(), a.end());
  sites.push_back(q0);
  sites.push_back(q2);
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit cc(c);
  EppEngine reference(c, sp);
  const LatchingModel latching;
  const std::vector<double> weights = latching.weights(c);
  for (const bool simd_on : {true, false}) {
    SCOPED_TRACE(simd_on ? "simd on" : "simd off");
    EppOptions options;
    options.simd = simd_on;
    BatchedEppEngine batched(cc, sp, options);
    std::vector<SiteEpp> records(sites.size());
    batched.compute_cluster(sites, records);
    std::vector<SiteRow> rows(sites.size());
    batched.rows_cluster(sites, weights, rows);
    for (std::size_t k = 0; k < sites.size(); ++k) {
      const SiteEpp ref = reference.compute(sites[k]);
      testutil::expect_site_epp_equal(c, ref, records[k]);
      testutil::expect_row_equal(c, testutil::reference_row(c, ref, latching),
                                 rows[k]);
    }
  }
  // The fixture really exercises the self-feedback read.
  EXPECT_GT(reference.compute(q0).self_dpin_mass, 0.0);
  EXPECT_GT(reference.compute(q2).self_dpin_mass, 0.0);
}

TEST(BatchedEppEngine, PlaneBlocksFollowTheLiveFrontier) {
  // A 4,096-inverter chain: its merged cone has 4,097 nodes, but only a
  // node and its one fanin are ever live at once, plus the pinned PO.
  constexpr int kLength = 4096;
  Circuit c("chain");
  std::vector<NodeId> chain = {c.add_input("in")};
  for (int i = 0; i < kLength; ++i) {
    chain.push_back(
        c.add_gate(GateType::kNot, "n" + std::to_string(i), {chain.back()}));
  }
  c.mark_output(chain.back());
  c.finalize();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit cc(c);
  CompiledEppEngine compiled(cc, sp);
  BatchedEppEngine batched(cc, sp);

  const SiteEpp single = batched.compute(chain.front());
  EXPECT_LE(batched.plane_blocks(), 3u);
  testutil::expect_site_epp_equal(c, compiled.compute(chain.front()), single);

  std::vector<NodeId> sites;
  for (int k = 0; k < 8; ++k) sites.push_back(chain[k * kLength / 8]);
  std::vector<SiteEpp> out(sites.size());
  batched.compute_cluster(sites, out);
  EXPECT_LE(batched.plane_blocks(), 10u);
  for (std::size_t k = 0; k < sites.size(); ++k) {
    testutil::expect_site_epp_equal(c, compiled.compute(sites[k]), out[k]);
  }
}

TEST(BatchedEppEngine, PeakPlaneBlocksMatchTheParent) {
  // The block hand-out, pinned by its peak over a whole cluster plan. The
  // blocks ever handed out equal the largest live set, so a block released
  // later than its last read raises these values (the free list's reuse
  // order cannot move them). They were recorded when blocks were still
  // assigned by a separate integer walk before the propagation pass.
  const Circuit c = generate_circuit(iscas89_profile("s9234"), 1);
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit cc(c);
  const std::vector<NodeId> sites = error_sites(c);
  const std::vector<double> weights = LatchingModel{}.weights(c);
  BatchedEppEngine batched(cc, sp);
  std::size_t rows_peak = 0;
  std::size_t compute_peak = 0;
  for (const ConeCluster& cluster : ConeClusterPlanner(cc).plan(sites)) {
    std::vector<NodeId> lane_sites;
    for (const std::uint32_t idx : cluster.members) {
      lane_sites.push_back(sites[idx]);
    }
    std::vector<SiteRow> rows(lane_sites.size());
    batched.rows_cluster(lane_sites, weights, rows);
    rows_peak = std::max(rows_peak, batched.plane_blocks());
    std::vector<SiteEpp> records(lane_sites.size());
    batched.compute_cluster(lane_sites, records);
    compute_peak = std::max(compute_peak, batched.plane_blocks());
  }
  EXPECT_EQ(rows_peak, 1887u);
  EXPECT_EQ(compute_peak, 1887u);
}

TEST(BatchedEppEngine, MalformedViewStaysInBounds) {
  // A borrowed view that skipped Circuit's fanin/fanout cross-check, as the
  // .sca fast path of a shard worker can: one fanout edge is dropped (its
  // node's reader count runs short) and one gate's bucket sits below a
  // fanin's (the gate reads the fanin's block and mask before the fanin
  // has them). The values are unspecified; every address must stay inside
  // the cluster's planes and lanes. The clusters alternate so that state
  // left by the previous one is what an out-of-turn read would find: a
  // few-lane cluster over many nodes, a 64-lane cluster over few, and the
  // few-lane one again.
  GeneratorProfile p;
  p.name = "malformed";
  p.num_inputs = 24;
  p.num_outputs = 16;
  p.num_dffs = 40;
  p.num_gates = 1500;
  p.target_depth = 12;
  const Circuit c = generate_circuit(p, 11);
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit cc(c);
  CompiledCircuit::Parts parts = cc.view();

  // The victim pair: a gate f with two or more readers, the first of them
  // a gate g, in the lowest bucket such a gate has (early in a large
  // merged order, where the 64-lane cluster left its site masks).
  std::vector<NodeId> by_cone(c.node_count());
  for (NodeId id = 0; id < c.node_count(); ++id) by_cone[id] = id;
  std::stable_sort(by_cone.begin(), by_cone.end(), [&](NodeId a, NodeId b) {
    return cc.cone_size_estimate(a) < cc.cone_size_estimate(b);
  });
  NodeId f = kInvalidNode;
  for (const NodeId id : by_cone) {
    if (cc.is_sink(id) || cc.fanin(id).empty() || cc.fanout(id).size() < 2 ||
        cc.bucket_level(id) == 0 || cc.is_dff(cc.fanout(id)[0])) {
      continue;
    }
    if (f == kInvalidNode || cc.bucket_level(id) <= cc.bucket_level(f)) f = id;
  }
  ASSERT_NE(f, kInvalidNode);
  const NodeId g = cc.fanout(f)[0];
  const NodeId upstream = cc.fanin(f)[0];

  std::vector<std::uint32_t> bucket(parts.bucket_level.begin(),
                                    parts.bucket_level.end());
  bucket[g] = bucket[f] - 1;
  std::vector<std::uint32_t> fanout_offsets(parts.fanout_offsets.begin(),
                                            parts.fanout_offsets.end());
  std::vector<NodeId> fanout_ids(parts.fanout_ids.begin(),
                                 parts.fanout_ids.end());
  fanout_ids.erase(fanout_ids.begin() + fanout_offsets[f + 1] - 1);
  for (std::size_t i = f + 1; i < fanout_offsets.size(); ++i) {
    --fanout_offsets[i];
  }
  parts.bucket_level = bucket;
  parts.fanout_offsets = fanout_offsets;
  parts.fanout_ids = fanout_ids;
  const CompiledCircuit view = CompiledCircuit::borrow(parts);

  std::vector<NodeId> few = {upstream};
  for (auto it = by_cone.rbegin(); few.size() < 4; ++it) {
    if (*it != upstream) few.push_back(*it);
  }
  std::vector<NodeId> wide;
  for (auto it = by_cone.begin(); wide.size() < BatchedEppEngine::kMaxLanes;
       ++it) {
    if (*it != upstream && *it != f && *it != g) wide.push_back(*it);
  }
  const std::vector<double> weights = LatchingModel{}.weights(c);
  for (const bool simd_on : {true, false}) {
    EppOptions options;
    options.simd = simd_on;
    BatchedEppEngine batched(view, sp, options);
    for (const std::vector<NodeId>* sites : {&few, &wide, &few}) {
      std::vector<SiteRow> rows(sites->size());
      batched.rows_cluster(*sites, weights, rows);
      std::vector<SiteEpp> records(sites->size());
      batched.compute_cluster(*sites, records);
      EXPECT_LE(batched.plane_blocks(), c.node_count());
    }
  }
}

TEST(BatchedEppEngine, GeneratedProfileSweepMatchesCompiled) {
  GeneratorProfile p;
  p.name = "batched_gen";
  p.num_inputs = 24;
  p.num_outputs = 16;
  p.num_dffs = 100;
  p.num_gates = 2000;
  p.target_depth = 14;
  const Circuit c = generate_circuit(p, 2024);
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit cc(c);
  CompiledEppEngine compiled(cc, sp);
  const std::vector<NodeId> sites = error_sites(c);
  const std::vector<double> weights = LatchingModel{}.weights(c);
  const std::vector<SiteRow> batched_sweep =
      testutil::swept_rows(c, sites, sp, {}, 1);
  ASSERT_EQ(batched_sweep.size(), sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    testutil::expect_row_equal(c, compiled.row(sites[i], weights),
                               batched_sweep[i]);
  }
}

}  // namespace
}  // namespace sereep
