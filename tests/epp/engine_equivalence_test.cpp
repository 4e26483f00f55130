// Engine-equivalence fuzz harness — the contract every perf PR must keep.
//
// The paper's claim is an all-nodes EPP sweep that is fast *and* exact, so
// every accelerated engine must compute bit-for-bit the same probabilities
// as the reference implementation. This suite generates random circuits
// across size / fanout-density / flip-flop profiles (seeded RNG, no
// wall-clock dependence anywhere) and pins the full oracle hierarchy
//
//     EppEngine (reference)  ->  CompiledEppEngine  ->  BatchedEppEngine
//
// with EXPECT_EQ on doubles — no tolerance — across:
//   * compute() records including all four Prob4 components per sink,
//   * planner-clustered batched sweeps,
//   * the sweep driver's rows (P_sensitized + the latch-weighted fold) at
//     1 / 2 / 8 threads,
//   * randomized site subsets through the driver's records output,
//   * the batched engine's SIMD lane-plane kernels ON and OFF (the scalar
//     per-lane fallback is a peer tier of the hierarchy — see
//     SimdOnAndOffBitIdentical and tests/README.md),
//   * the sharded multi-process tier: the in-memory fuzz circuit's result
//     table is filled through real `sereep worker` processes, which map
//     the artifact the parent writes (ShardedProcessSweepBitIdentical),
//     before and after edits (IncrementalEditSessionsBitIdenticalToRebuild).
//
// Future engines join the hierarchy by being added here; a refactor that
// changes any floating-point result in any profile fails this file first.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sereep/sereep.hpp"
#include "src/epp/batched_epp.hpp"
#include "src/epp/compiled_epp.hpp"
#include "src/epp/epp_engine.hpp"
#include "src/netlist/compiled.hpp"
#include "src/netlist/cone_cluster.hpp"
#include "src/netlist/generator.hpp"
#include "src/sim/fault_injection.hpp"
#include "src/util/rng.hpp"
#include "tests/epp/site_epp_testutil.hpp"

namespace sereep {
namespace {

/// One fuzz point: a structural profile plus the generator seed. Everything
/// downstream is a pure function of this struct.
///
/// gtest lists a param it cannot print as the raw bytes of the object, and
/// ctest registers that listing as the test name. So the struct holds no
/// pointer (an ASLR-randomised string address would rename the tests on
/// every build) and no padding (uninitialised bytes): the tag is inline.
struct FuzzProfile {
  char tag[28];  ///< NUL-terminated
  std::uint32_t inputs;
  std::uint32_t outputs;
  std::uint32_t dffs;
  std::uint32_t gates;
  std::uint32_t depth;
  double reuse_bias;  ///< fanout-stem density (see GeneratorProfile)
  std::uint64_t seed;
};
static_assert(sizeof(FuzzProfile) == 28 + 5 * 4 + 8 + 8,
              "FuzzProfile must have no padding bytes");

// Spans the axes the engines are sensitive to: pure combinational vs
// FF-heavy (DFF boundary + self-feedback paths), sparse vs dense fanout
// (cone overlap and reconvergence), shallow-wide vs deep-narrow (bucket
// counts), and the 1-gate-deep degenerate corner.
const FuzzProfile kProfiles[] = {
    {"tiny_comb", 6, 4, 0, 25, 4, 0.30, 11},
    {"small_seq", 10, 6, 12, 120, 8, 0.35, 22},
    {"single_ff", 8, 4, 1, 60, 6, 0.35, 33},
    {"dense_fanout", 16, 10, 40, 600, 12, 0.70, 44},
    {"sparse_fanout", 16, 10, 40, 600, 12, 0.05, 55},
    {"deep_narrow", 8, 6, 30, 800, 30, 0.35, 66},
    {"ff_heavy", 12, 8, 150, 700, 10, 0.40, 77},
    {"mid_comb", 24, 16, 0, 1200, 16, 0.35, 88},
};

Circuit make_fuzz_circuit(const FuzzProfile& f) {
  GeneratorProfile p;
  p.name = std::string("fuzz_") + f.tag;
  p.num_inputs = f.inputs;
  p.num_outputs = f.outputs;
  p.num_dffs = f.dffs;
  p.num_gates = f.gates;
  p.target_depth = f.depth;
  p.reuse_bias = f.reuse_bias;
  return generate_circuit(p, f.seed);
}

class EngineEquivalence : public ::testing::TestWithParam<FuzzProfile> {};

TEST_P(EngineEquivalence, ComputeBitIdenticalAcrossHierarchy) {
  const Circuit c = make_fuzz_circuit(GetParam());
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine reference(c, sp);
  const CompiledCircuit cc(c);
  CompiledEppEngine compiled(cc, sp);
  BatchedEppEngine batched(cc, sp);
  const LatchingModel latching;
  const std::vector<double> weights = latching.weights(c);
  for (NodeId site : error_sites(c)) {
    const SiteEpp ref = reference.compute(site);
    testutil::expect_site_epp_equal(c, ref, compiled.compute(site));
    testutil::expect_site_epp_equal(c, ref, batched.compute(site));
    // A full record's P_sensitized IS the psens-only path's and the rows
    // path's: Session serves reads from rows, sweep() from records.
    EXPECT_EQ(ref.p_sensitized, reference.p_sensitized(site))
        << c.node(site).name;
    testutil::expect_row_equal(c, testutil::reference_row(c, ref, latching),
                               batched.row(site, weights));
  }
}

TEST_P(EngineEquivalence, PlannedClustersBitIdenticalToReference) {
  const Circuit c = make_fuzz_circuit(GetParam());
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine reference(c, sp);
  const CompiledCircuit cc(c);
  BatchedEppEngine batched(cc, sp);
  const std::vector<NodeId> sites = error_sites(c);

  const auto clusters = ConeClusterPlanner(cc).plan(sites);
  std::size_t covered = 0;
  for (const ConeCluster& cluster : clusters) {
    std::vector<NodeId> lane_sites;
    for (std::uint32_t idx : cluster.members) lane_sites.push_back(sites[idx]);
    std::vector<SiteEpp> out(lane_sites.size());
    batched.compute_cluster(lane_sites, out);
    for (std::size_t k = 0; k < lane_sites.size(); ++k) {
      testutil::expect_site_epp_equal(c, reference.compute(lane_sites[k]),
                                      out[k]);
    }
    covered += cluster.members.size();
  }
  EXPECT_EQ(covered, sites.size());  // every site in exactly one cluster
}

TEST_P(EngineEquivalence, ParallelSweepBitIdenticalAt_1_2_8_Threads) {
  const Circuit c = make_fuzz_circuit(GetParam());
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine reference(c, sp);
  const std::vector<NodeId> sites = error_sites(c);
  const LatchingModel latching;
  std::vector<SiteRow> expected;
  for (NodeId site : sites) {
    expected.push_back(
        testutil::reference_row(c, reference.compute(site), latching));
  }
  for (unsigned threads : {1u, 2u, 8u}) {
    const std::vector<SiteRow> got =
        testutil::swept_rows(c, sites, sp, {}, threads);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < sites.size(); ++i) {
      testutil::expect_row_equal(c, expected[i], got[i]);
    }
  }
}

TEST_P(EngineEquivalence, RandomSiteSubsetsBitIdentical) {
  const FuzzProfile& profile = GetParam();
  const Circuit c = make_fuzz_circuit(profile);
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine reference(c, sp);
  const std::vector<NodeId> all = error_sites(c);

  // Seeded subset draws — a Fisher-Yates prefix per round, sizes from one
  // lone site up to most of the circuit, each swept at a different thread
  // count.
  Rng rng(profile.seed ^ 0xf00dULL);
  const std::size_t sizes[] = {1, 3, all.size() / 4 + 2, all.size() / 2 + 1};
  unsigned threads = 1;
  for (std::size_t want : sizes) {
    std::vector<NodeId> pool = all;
    const std::size_t n = std::min(want, pool.size());
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(
                                    rng.below(pool.size() - i));
      std::swap(pool[i], pool[j]);
    }
    pool.resize(n);
    const std::vector<SiteEpp> got =
        testutil::swept_records(c, pool, sp, {}, threads);
    ASSERT_EQ(got.size(), pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      EXPECT_EQ(got[i].site, pool[i]);  // caller order preserved
      testutil::expect_site_epp_equal(c, reference.compute(pool[i]), got[i]);
    }
    threads = threads == 8 ? 1 : threads * 2;
  }
}

TEST_P(EngineEquivalence, SimdOnAndOffBitIdentical) {
  // The lane-plane kernels and the scalar per-lane fallback must be
  // interchangeable: same reference-exact records through planner-built
  // clusters, and the same parallel-sweep output, with SIMD forced on and
  // forced off (whatever the build default is).
  const Circuit c = make_fuzz_circuit(GetParam());
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine reference(c, sp);
  const CompiledCircuit cc(c);
  const std::vector<NodeId> sites = error_sites(c);
  const auto clusters = ConeClusterPlanner(cc).plan(sites);

  for (const bool simd_on : {true, false}) {
    EppOptions options;
    options.simd = simd_on;
    BatchedEppEngine batched(cc, sp, options);
    for (const ConeCluster& cluster : clusters) {
      std::vector<NodeId> lane_sites;
      for (std::uint32_t idx : cluster.members) {
        lane_sites.push_back(sites[idx]);
      }
      std::vector<SiteEpp> out(lane_sites.size());
      batched.compute_cluster(lane_sites, out);
      for (std::size_t k = 0; k < lane_sites.size(); ++k) {
        testutil::expect_site_epp_equal(c, reference.compute(lane_sites[k]),
                                        out[k]);
      }
    }
    const std::vector<SiteRow> swept =
        testutil::swept_rows(c, sites, sp, options, 2);
    for (std::size_t i = 0; i < sites.size(); ++i) {
      testutil::expect_row_equal(
          c, testutil::reference_row(c, reference.compute(sites[i]), {}),
          swept[i]);
    }
  }
}

TEST_P(EngineEquivalence, ShardedProcessSweepBitIdentical) {
  // The multi-process tier joins the hierarchy here: the in-memory fuzz
  // circuit's result table is filled through real `sereep worker`
  // processes and compared EXPECT_EQ against the in-process batched
  // session — shard merging must be a pure re-route, exactly like every
  // other engine selection.
  Session batched(make_fuzz_circuit(GetParam()));
  Options opt;
  opt.engine = "sharded";
  opt.shard.shards = 3;
  opt.shard.worker_path = SEREEP_CLI_PATH;
  Session sharded(make_fuzz_circuit(GetParam()), std::move(opt));

  const CircuitSer& want = batched.ser();
  const CircuitSer& got = sharded.ser();
  EXPECT_EQ(got.total_ser, want.total_ser);
  testutil::expect_rows_equal(want.nodes, got.nodes);
  EXPECT_EQ(sharded.sweep_csv(), batched.sweep_csv());
  EXPECT_EQ(sharded.sweep_p_sensitized(), batched.sweep_p_sensitized());
  // With two or more clusters to split, the fill ran on the workers.
  ASSERT_NE(sharded.shard_diagnostics(), nullptr);
  EXPECT_EQ(sharded.shard_diagnostics()->in_process,
            batched.planner().plan(batched.sites()).size() < 2);
}

TEST_P(EngineEquivalence, OptionVariantsStayBitIdentical) {
  const Circuit c = make_fuzz_circuit(GetParam());
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const std::vector<NodeId> sites = error_sites(c);
  for (const EppOptions& options :
       {EppOptions{.track_polarity = false},
        EppOptions{.electrical_survival = 0.9}}) {
    EppEngine reference(c, sp, options);
    const std::vector<SiteEpp> got =
        testutil::swept_records(c, sites, sp, options, 2);
    for (std::size_t i = 0; i < sites.size(); ++i) {
      testutil::expect_site_epp_equal(c, reference.compute(sites[i]), got[i]);
    }
  }
}

/// Seeded random edit batch over the current circuit: retypes, safe rewires
/// (level-guarded so the eager cycle check never fires), dangling inserts,
/// and TMR protections — the full post-finalize mutation vocabulary.
EditPlan random_edit_plan(const Circuit& c, Rng& rng, int round) {
  EditPlan plan;
  const auto levels = c.levels();
  const std::size_t ops = 1 + static_cast<std::size_t>(rng.below(4));
  for (std::size_t k = 0; k < ops; ++k) {
    switch (rng.below(5)) {
      case 0: {  // retype an n-ary gate among the 4 interchangeable types
        std::vector<NodeId> candidates;
        for (NodeId id = 0; id < c.node_count(); ++id) {
          if (is_combinational(c.type(id)) && c.fanin(id).size() >= 2) {
            candidates.push_back(id);
          }
        }
        if (candidates.empty()) break;
        const NodeId g = candidates[rng.below(candidates.size())];
        static constexpr GateType kNary[] = {GateType::kAnd, GateType::kOr,
                                             GateType::kNand, GateType::kNor};
        EditOp op;
        op.kind = EditOp::Kind::kRetype;
        op.node = c.node(g).name;
        op.type = kNary[rng.below(4)];
        plan.ops.push_back(std::move(op));
        break;
      }
      case 1: {  // rewire a gate fanin to a strictly lower level: acyclic
        std::vector<NodeId> gates;
        for (NodeId id = 0; id < c.node_count(); ++id) {
          if (is_combinational(c.type(id)) && !c.fanin(id).empty()) {
            gates.push_back(id);
          }
        }
        if (gates.empty()) break;
        const NodeId g = gates[rng.below(gates.size())];
        std::vector<NodeId> sources;
        for (NodeId id = 0; id < c.node_count(); ++id) {
          // Along a combinational path levels strictly increase, so a
          // lower-level source can never be reachable FROM g — no cycle.
          if (levels[id] < levels[g] && c.type(id) != GateType::kConst0 &&
              c.type(id) != GateType::kConst1) {
            sources.push_back(id);
          }
        }
        if (sources.empty()) break;
        EditOp op;
        op.kind = EditOp::Kind::kRewire;
        op.node = c.node(g).name;
        op.slot = static_cast<std::uint32_t>(rng.below(c.fanin(g).size()));
        op.source = c.node(sources[rng.below(sources.size())]).name;
        plan.ops.push_back(std::move(op));
        break;
      }
      case 2: {  // re-aim a DFF's D pin (never closes a combinational loop)
        if (c.dffs().empty()) break;
        const NodeId dff = c.dffs()[rng.below(c.dffs().size())];
        EditOp op;
        op.kind = EditOp::Kind::kRewire;
        op.node = c.node(dff).name;
        op.slot = 0;
        op.source = c.node(static_cast<NodeId>(rng.below(c.node_count())))
                        .name;
        plan.ops.push_back(std::move(op));
        break;
      }
      case 3: {  // dangling insert: a fresh (unobservable) error site
        EditOp op;
        op.kind = EditOp::Kind::kInsert;
        op.type = rng.below(2) == 0 ? GateType::kXor : GateType::kNand;
        op.name = "fz_" + std::to_string(round) + "_" + std::to_string(k);
        op.fanin = {
            c.node(static_cast<NodeId>(rng.below(c.node_count()))).name,
            c.node(static_cast<NodeId>(rng.below(c.node_count()))).name};
        plan.ops.push_back(std::move(op));
        break;
      }
      default: {  // TMR-protect a combinational gate
        std::vector<NodeId> candidates;
        for (NodeId id = 0; id < c.node_count(); ++id) {
          if (is_combinational(c.type(id))) candidates.push_back(id);
        }
        if (candidates.empty()) break;
        EditOp op;
        op.kind = EditOp::Kind::kTmr;
        op.node = c.node(candidates[rng.below(candidates.size())]).name;
        plan.ops.push_back(std::move(op));
        break;
      }
    }
  }
  if (plan.ops.empty()) {  // every draw hit an empty candidate pool
    EditOp op;
    op.kind = EditOp::Kind::kTmr;
    op.node = c.node(error_sites(c).back()).name;
    plan.ops.push_back(std::move(op));
  }
  return plan;
}

/// Every field of every SER row, plus the total, EXPECT_EQ.
void expect_ser_equal(const CircuitSer& want, const CircuitSer& got,
                      const std::string& where) {
  EXPECT_EQ(got.total_ser, want.total_ser) << where;
  ASSERT_EQ(got.nodes.size(), want.nodes.size()) << where;
  for (std::size_t i = 0; i < want.nodes.size(); ++i) {
    EXPECT_EQ(got.nodes[i].node, want.nodes[i].node) << where << " row " << i;
    EXPECT_EQ(got.nodes[i].r_seu, want.nodes[i].r_seu) << where << " row " << i;
    EXPECT_EQ(got.nodes[i].p_latched, want.nodes[i].p_latched)
        << where << " row " << i;
    EXPECT_EQ(got.nodes[i].p_sensitized, want.nodes[i].p_sensitized)
        << where << " row " << i;
    EXPECT_EQ(got.nodes[i].ser, want.nodes[i].ser) << where << " row " << i;
  }
}

TEST_P(EngineEquivalence, IncrementalEditSessionsBitIdenticalToRebuild) {
  // The incremental what-if tier joins the hierarchy here: warmed Sessions
  // absorb seeded random edit batches through apply_edit() — compiled CSR
  // patches, incremental SP repair, dirty-cone splices into the result
  // table — and every read must stay EXPECT_EQ to a Session rebuilt from
  // scratch over the edited node table, across thread counts and both SIMD
  // configurations, and through a sharded session whose every sweep maps
  // an artifact of the edited circuit into real `sereep worker` processes.
  // A splice that misses one affected site fails here.
  const FuzzProfile& profile = GetParam();
  Rng rng(profile.seed ^ 0xed17ULL);

  // Thread count, SIMD mode and SER models are fixed per session
  // (reconfiguration legitimately drops the result table), so the matrix
  // runs as four warmed sessions receiving the same edits. The 2-thread
  // lane is warmed by sweep_p_sensitized() alone (a rows fill) and weighs
  // its sinks with a non-default latching model; the others start from
  // rows folded out of sweep()'s records. The last lane is sharded: 2
  // shards of 1 thread each.
  struct Lane {
    unsigned threads;
    bool simd;
    bool warm_rows;
    bool nondefault_latching;
    bool sharded;
    std::unique_ptr<Session> session;
  };
  Lane lanes[] = {{1, false, false, false, false, nullptr},
                  {2, true, true, true, false, nullptr},
                  {8, false, false, false, false, nullptr},
                  {1, true, false, false, true, nullptr}};
  LatchingModel nondefault(1.5, 0.1, 0.2);
  nondefault.set_po_probability(0.5);
  for (Lane& lane : lanes) {
    Options opt;
    opt.threads = lane.threads;
    opt.epp.simd = lane.simd;
    if (lane.nondefault_latching) opt.ser.latching = nondefault;
    if (lane.sharded) {
      opt.engine = "sharded";
      opt.shard.shards = 2;
      opt.shard.worker_path = SEREEP_CLI_PATH;
    }
    lane.session =
        std::make_unique<Session>(make_fuzz_circuit(profile), std::move(opt));
    if (lane.warm_rows) {
      (void)lane.session->sweep_p_sensitized();
    } else {
      (void)lane.session->sweep();
    }
  }

  for (int round = 0; round < 3; ++round) {
    const EditPlan plan =
        random_edit_plan(lanes[0].session->circuit(), rng, round);

    // The same batch with a failing op at its end must leave no trace: the
    // circuit rolls back and every read stays bit-identical.
    EditOp bad;
    bad.kind = EditOp::Kind::kTmr;
    bad.node = "no_such_node";
    EditPlan failing = plan;
    failing.ops.push_back(std::move(bad));
    for (Lane& lane : lanes) {
      const CircuitFingerprint before_circuit =
          circuit_fingerprint(lane.session->circuit());
      const std::vector<double> before = lane.session->sweep_p_sensitized();
      EXPECT_THROW(lane.session->apply_edit(failing), std::runtime_error);
      EXPECT_EQ(circuit_fingerprint(lane.session->circuit()), before_circuit)
          << profile.tag << " round " << round;
      EXPECT_EQ(lane.session->sweep_p_sensitized(), before)
          << profile.tag << " round " << round;
    }

    for (Lane& lane : lanes) lane.session->apply_edit(plan);

    // From-scratch oracle over the edited node table (the restore() path
    // is pinned equal to the edited circuit by tests/netlist/edit_test.cpp).
    const Circuit& edited = lanes[0].session->circuit();
    // restore() insists on clean tables: output flags come via output_order.
    std::vector<Node> nodes(edited.nodes().begin(), edited.nodes().end());
    for (Node& n : nodes) n.is_primary_output = false;
    Session full(Circuit::restore(edited.name(), std::move(nodes),
                                  edited.outputs()));
    const std::vector<SiteEpp> want = full.sweep();
    const std::vector<double> want_psens = full.sweep_p_sensitized();
    const CircuitSer& want_ser = full.ser();
    // The non-default lane's oracle: the reference fold over the same
    // records, summed in site order.
    CircuitSer want_nondefault;
    for (const SiteEpp& rec : want) {
      want_nondefault.nodes.push_back(
          node_ser_from_epp(edited, rec, SeuRateModel{}, nondefault));
      want_nondefault.total_ser += want_nondefault.nodes.back().ser;
    }

    for (Lane& lane : lanes) {
      const std::string where = std::string(profile.tag) + " round " +
                                std::to_string(round) + " threads=" +
                                std::to_string(lane.threads) +
                                (lane.sharded ? " sharded" : "");
      // Table reads first — they are what the splice produced — then the
      // engine-driven records.
      EXPECT_EQ(lane.session->sweep_p_sensitized(), want_psens) << where;
      expect_ser_equal(lane.nondefault_latching ? want_nondefault : want_ser,
                       lane.session->ser(), where);
      const std::vector<SiteEpp> got = lane.session->sweep();
      ASSERT_EQ(got.size(), want.size()) << where;
      for (std::size_t i = 0; i < want.size(); ++i) {
        testutil::expect_site_epp_equal(edited, want[i], got[i]);
      }
      if (lane.sharded) {
        // Records run in-process; a rows sweep over every site re-runs the
        // table fill: with two or more clusters to split, on the workers.
        SCOPED_TRACE(where);
        testutil::expect_rows_equal(
            want_ser.nodes,
            lane.session->engine().sweep_rows(lane.session->sites(),
                                              lane.threads));
        ASSERT_NE(lane.session->shard_diagnostics(), nullptr);
        EXPECT_EQ(lane.session->shard_diagnostics()->in_process,
                  full.planner().plan(full.sites()).size() < 2);
      }
      // The splice must actually be incremental, not a silent full rebuild:
      // after a warmed read, every edit routes through the spliced path.
      EXPECT_EQ(lane.session->incremental_stats().spliced_sweeps,
                static_cast<std::size_t>(round + 1))
          << where;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, EngineEquivalence, ::testing::ValuesIn(kProfiles),
    [](const ::testing::TestParamInfo<FuzzProfile>& info) {
      return std::string(info.param.tag);
    });

}  // namespace
}  // namespace sereep
