// sereep::Session — the facade's artifact-caching contract, option
// validation/invalidation semantics, value equivalence against direct engine
// construction, and the result table's engine-call contract.
//
// The caching contract (see tests/README.md): every shared artifact
// (CompiledCircuit, SignalProbabilities, ConeClusterPlanner, engine) is
// built AT MOST ONCE per (Session, Options), across any sequence of
// queries — pinned here through Session::build_counts().
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <utility>

#include "sereep/sereep.hpp"
#include "src/artifact/compiled_artifact.hpp"
#include "src/epp/compiled_epp.hpp"
#include "src/epp/epp_engine.hpp"
#include "src/epp/multicycle.hpp"
#include "src/netlist/bench_io.hpp"
#include "src/netlist/benchmarks.hpp"
#include "src/netlist/generator.hpp"
#include "src/ser/ser_estimator.hpp"
#include "src/sim/fault_injection.hpp"
#include "tests/epp/site_epp_testutil.hpp"

namespace sereep {
namespace {

TEST(Session, ConstructionBuildsNoArtifacts) {
  Session session(make_s27());
  const Session::BuildCounts& counts = session.build_counts();
  EXPECT_EQ(counts.compiled, 0u);
  EXPECT_EQ(counts.sp, 0u);
  EXPECT_EQ(counts.planner, 0u);
  EXPECT_EQ(counts.engine, 0u);
  EXPECT_EQ(counts.ser, 0u);
  EXPECT_EQ(counts.multicycle, 0u);
}

TEST(Session, ArtifactsBuiltAtMostOnceAcrossSweepSerHarden) {
  // The acceptance contract: sweep() + ser() + harden() on one session share
  // ONE compiled view, ONE SP pass and ONE cluster plan.
  Session session(make_s27());
  (void)session.sweep();
  (void)session.ser();
  (void)session.harden(0.5);
  (void)session.sweep_p_sensitized();
  (void)session.epp(session.sites().front());
  const Session::BuildCounts& counts = session.build_counts();
  EXPECT_EQ(counts.compiled, 1u);
  EXPECT_EQ(counts.sp, 1u);
  EXPECT_EQ(counts.planner, 1u);
  EXPECT_EQ(counts.engine, 1u);
  EXPECT_EQ(counts.ser, 1u);  // harden() reused the memoized CircuitSer
}

TEST(Session, PerSiteQueriesNeverBuildThePlan) {
  // The cluster plan feeds sweeps only — a batched-engine session doing
  // per-site work must not pay the O(V+E) planning pass.
  Session session(make_s27());  // default engine: batched
  (void)session.epp(session.sites().front());
  (void)session.p_sensitized(session.sites().back());
  EXPECT_EQ(session.build_counts().planner, 0u);
  (void)session.sweep();  // first sweep resolves the deferred plan...
  EXPECT_EQ(session.build_counts().planner, 1u);
  (void)session.sweep();  // ...and keeps it
  EXPECT_EQ(session.build_counts().planner, 1u);
}

TEST(Session, SequentialSpSourceExposesDiagnostics) {
  Options options;
  options.sp.source = SpSource::kSequentialFixedPoint;
  Session session(make_s27(), std::move(options));
  EXPECT_FALSE(session.sp_diagnostics().has_value());  // not built yet
  (void)session.sp();
  ASSERT_TRUE(session.sp_diagnostics().has_value());
  EXPECT_TRUE(session.sp_diagnostics()->converged);
  EXPECT_GT(session.sp_diagnostics()->iterations, 0u);

  Session pm(make_s27());
  (void)pm.sp();
  EXPECT_FALSE(pm.sp_diagnostics().has_value());  // other sources: none
}

TEST(Session, SequentialEnginesSkipThePlanner) {
  // The cluster plan feeds batched sweeps only; a reference-engine session
  // must not pay for one.
  Options options;
  options.engine = "reference";
  Session session(make_s27(), std::move(options));
  (void)session.sweep();
  (void)session.ser();
  EXPECT_EQ(session.build_counts().planner, 0u);
  EXPECT_EQ(session.build_counts().compiled, 1u);
}

TEST(Session, MulticycleReusesSessionArtifacts) {
  Session session(make_s27());
  (void)session.sweep();
  const NodeId dff = session.circuit().dffs().front();
  (void)session.multicycle(dff, 4);
  (void)session.multicycle(dff, 8);  // second query: engine memoized
  const Session::BuildCounts& counts = session.build_counts();
  EXPECT_EQ(counts.compiled, 1u);
  EXPECT_EQ(counts.sp, 1u);
  EXPECT_EQ(counts.multicycle, 1u);
}

TEST(Session, UnknownEngineThrowsListingRegisteredKeys) {
  Options options;
  options.engine = "turbo";
  try {
    Session session(make_c17(), std::move(options));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("turbo"), std::string::npos);
    EXPECT_NE(what.find("registered:"), std::string::npos);
    EXPECT_NE(what.find("batched"), std::string::npos);
    EXPECT_NE(what.find("compiled"), std::string::npos);
    EXPECT_NE(what.find("reference"), std::string::npos);
  }
}

TEST(Session, InvalidLayerValuesThrow) {
  Options bad_survival;
  bad_survival.epp.electrical_survival = 1.5;
  EXPECT_THROW(Session(make_c17(), std::move(bad_survival)),
               std::invalid_argument);
  Options bad_sp;
  bad_sp.sp.probabilities.input_sp = -0.1;
  EXPECT_THROW(Session(make_c17(), std::move(bad_sp)), std::invalid_argument);
  Options bad_mc;
  bad_mc.sp.source = SpSource::kMonteCarlo;
  bad_mc.sp.monte_carlo_vectors = 0;
  EXPECT_THROW(Session(make_c17(), std::move(bad_mc)), std::invalid_argument);
}

TEST(Session, SetOptionsInvalidatesSelectively) {
  Session session(make_s27());
  (void)session.sweep();
  ASSERT_EQ(session.build_counts().sp, 1u);
  ASSERT_EQ(session.build_counts().engine, 1u);

  // Engine change: new engine, same compiled view and SPs.
  Options next = session.options();
  next.engine = "compiled";
  session.set_options(std::move(next));
  (void)session.sweep();
  EXPECT_EQ(session.build_counts().engine, 2u);
  EXPECT_EQ(session.build_counts().sp, 1u);
  EXPECT_EQ(session.build_counts().compiled, 1u);

  // SP-layer change: SPs rebuilt (and the engine, which binds them).
  next = session.options();
  next.sp.probabilities.input_sp = 0.25;
  session.set_options(std::move(next));
  (void)session.sweep();
  EXPECT_EQ(session.build_counts().sp, 2u);
  EXPECT_EQ(session.build_counts().engine, 3u);
  EXPECT_EQ(session.build_counts().compiled, 1u);  // never invalidated
}

TEST(Session, SweepMatchesEverySelectedEngineExactly) {
  // The facade is a pure re-route: per-site values are EXPECT_EQ-identical
  // across engine selections (the oracle-hierarchy contract surfaced at the
  // API layer).
  const Circuit circuit = make_iscas89_like("s298");
  Session reference(Circuit(circuit), [] {
    Options o;
    o.engine = "reference";
    return o;
  }());
  const std::vector<double> expected = reference.sweep_p_sensitized();
  for (const char* key : {"compiled", "batched"}) {
    Options options;
    options.engine = key;
    Session session(Circuit(circuit), std::move(options));
    const std::vector<double> got = session.sweep_p_sensitized();
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << key << " node " << i;
    }
  }
}

TEST(Session, SessionsOnDifferentThreadsAreIndependent) {
  // The SIMD kernel choice is per session (EppOptions::simd), not process
  // state: two sessions with different settings, sweeping concurrently,
  // each render the single-threaded session's bytes on every round. Under
  // -fsanitize=thread this is the data-race check for that setting.
  const Circuit circuit = make_iscas89_like("s1238");
  Session single{Circuit(circuit)};
  const std::string want_sweep = single.sweep_csv();
  const std::string want_ser = single.ser_csv();

  constexpr int kRounds = 4;
  const auto run = [&](bool simd, int* matches) {
    Options options;
    options.epp.simd = simd;
    Session session(Circuit(circuit), options);
    for (int round = 0; round < kRounds; ++round) {
      session.set_options(options);  // drops the table: every round sweeps
      *matches += session.sweep_csv() == want_sweep;
      *matches += session.ser_csv() == want_ser;
    }
  };
  int matches[2] = {0, 0};
  std::thread simd_on(run, true, &matches[0]);
  std::thread simd_off(run, false, &matches[1]);
  simd_on.join();
  simd_off.join();
  EXPECT_EQ(matches[0], 2 * kRounds);
  EXPECT_EQ(matches[1], 2 * kRounds);
}

TEST(Session, SerMatchesReferenceEngineFoldExactly) {
  // Session::ser() is the result table, filled by the selected engine's rows
  // sweep. For every registered engine, thread count, SIMD setting and
  // latching model, every row and the total must equal node_ser_from_epp
  // over the reference engine's records, summed in site order. The
  // non-default model weighs POs at 0.5: under the default one a PO weighs
  // exactly 1, so a kernel applying a wrong weight to PO sinks would pass.
  const std::string path = ::testing::TempDir() + "sereep_ser_fold_" +
                           std::to_string(::getpid()) + ".bench";
  ASSERT_TRUE(save_bench_file(make_iscas89_like("s298"), path));
  const Circuit circuit = load_netlist(path);  // the workers' node ids
  const SignalProbabilities sp = parker_mccluskey_sp(circuit);
  EppEngine reference(circuit, sp);
  std::vector<SiteEpp> records;
  for (NodeId site : error_sites(circuit)) {
    records.push_back(reference.compute(site));
  }

  LatchingModel nondefault(1.5, 0.1, 0.2);
  nondefault.set_po_probability(0.5);
  for (const LatchingModel& latching : {LatchingModel{}, nondefault}) {
    std::vector<NodeSer> want;
    double total = 0.0;
    for (const SiteEpp& rec : records) {
      want.push_back(
          node_ser_from_epp(circuit, rec, SeuRateModel{}, latching));
      total += want.back().ser;
    }
    for (const std::string& key : EngineRegistry::instance().names()) {
      if (key.starts_with("test-")) continue;  // engines other tests add
      for (const unsigned threads : {1u, 2u, 8u}) {
        for (const bool simd : {true, false}) {
          Options options;
          options.engine = key;
          options.threads = threads;
          options.epp.simd = simd;
          options.ser.latching = latching;
          options.shard.shards = 2;
          options.shard.worker_path = SEREEP_CLI_PATH;
          Session session = Session::open(path, std::move(options));
          const CircuitSer& got = session.ser();
          const std::string where = key + " threads=" +
                                    std::to_string(threads) +
                                    " simd=" + std::to_string(simd);
          ASSERT_EQ(got.nodes.size(), want.size()) << where;
          for (std::size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got.nodes[i].node, want[i].node) << where;
            EXPECT_EQ(got.nodes[i].r_seu, want[i].r_seu) << where;
            EXPECT_EQ(got.nodes[i].p_latched, want[i].p_latched) << where;
            EXPECT_EQ(got.nodes[i].p_sensitized, want[i].p_sensitized)
                << where;
            EXPECT_EQ(got.nodes[i].ser, want[i].ser) << where;
          }
          EXPECT_EQ(got.total_ser, total) << where;
          if (key == "sharded") {  // the rows really crossed the wire
            ASSERT_NE(session.shard_diagnostics(), nullptr);
            EXPECT_FALSE(session.shard_diagnostics()->in_process) << where;
          }
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Session, HardenMatchesSelectHardening) {
  Session session(make_s27());
  const HardeningPlan via_session = session.harden(0.5);
  const HardeningPlan direct = select_hardening(session.ser(), 0.5);
  EXPECT_EQ(via_session.protect, direct.protect);
  EXPECT_EQ(via_session.residual_ser, direct.residual_ser);
}

TEST(Session, MulticycleMatchesDirectEngineExactly) {
  const Circuit circuit = make_s27();
  Session session{Circuit(circuit)};
  const CompiledCircuit compiled(circuit);
  const SignalProbabilities sp = compiled_parker_mccluskey_sp(compiled);
  MultiCycleEppEngine direct(circuit, compiled, sp);
  for (NodeId site : error_sites(circuit)) {
    const MultiCycleEpp a = session.multicycle(site, 6);
    const MultiCycleEpp b = direct.compute(site, 6);
    ASSERT_EQ(a.detect_by_cycle.size(), b.detect_by_cycle.size()) << site;
    for (std::size_t t = 0; t < a.detect_by_cycle.size(); ++t) {
      EXPECT_EQ(a.detect_by_cycle[t], b.detect_by_cycle[t]);
      EXPECT_EQ(a.residual_state[t], b.residual_state[t]);
    }
  }
}

TEST(Session, MovedSessionKeepsServingQueries) {
  // Artifacts live behind stable pointers; engines built before a move must
  // stay valid after it.
  Session source(make_s27());
  const std::vector<double> before = source.sweep_p_sensitized();
  Session moved(std::move(source));
  const std::vector<double> after = moved.sweep_p_sensitized();
  EXPECT_EQ(before, after);
  EXPECT_EQ(moved.build_counts().engine, 1u);  // no rebuild after the move
}

TEST(Session, DeferredPlanResolvesAfterAMove) {
  // An engine created before the move holds a deferred handle on the plan;
  // resolving it for the first time afterwards must hit the moved-to
  // session's cache (stable heap address), not freed memory.
  Session source(make_s27());
  const double direct = source.p_sensitized(source.sites().front());
  ASSERT_EQ(source.build_counts().planner, 0u);
  Session moved(std::move(source));
  const std::vector<SiteEpp> swept = moved.sweep();
  EXPECT_EQ(moved.build_counts().planner, 1u);
  EXPECT_EQ(swept.front().p_sensitized, direct);
}

TEST(Session, OpenResolvesEmbeddedNames) {
  Session session = Session::open("c17");
  EXPECT_EQ(session.circuit().name(), "c17");
  EXPECT_TRUE(session.find("22").has_value());
  EXPECT_FALSE(session.find("no-such-node").has_value());
}

// ---- the incremental what-if loop (apply_edit) ----------------------------

TEST(Session, RetypeEditPatchesCompiledInPlace) {
  // A retype-only batch preserves the CSR layout, so the compiled artifact
  // must be patched, not re-flattened: the "at most once" BuildCounts
  // contract extends through retype edits unchanged.
  Session session(make_c17());
  const std::size_t total_sites = session.sites().size();
  (void)session.sweep();
  EXPECT_EQ(session.build_counts().compiled, 1u);

  session.apply_edit(parse_edit_spec("retype 10 AND"));
  (void)session.sweep();
  EXPECT_EQ(session.build_counts().compiled, 1u);  // patched in place
  const Session::IncrementalStats& inc = session.incremental_stats();
  EXPECT_EQ(inc.edits, 1u);
  EXPECT_EQ(inc.compiled_patched, 1u);
  EXPECT_EQ(inc.sp_incremental, 1u);
  EXPECT_EQ(inc.spliced_sweeps, 1u);
  // Every site is either re-swept or spliced — never silently dropped.
  EXPECT_EQ(inc.resweeped_sites + inc.spliced_sites, total_sites);
  EXPECT_GT(inc.spliced_sites, 0u);  // c17's fanin cone of '10' is a strict
                                     // subset, so something must splice
}

TEST(Session, StructuralEditReflattensCompiled) {
  Session session(make_c17());
  (void)session.sweep();
  EXPECT_EQ(session.build_counts().compiled, 1u);
  session.apply_edit(parse_edit_spec("tmr 16"));
  (void)session.sweep();
  // Node count grew: the CSR cannot be patched, one re-flatten is correct.
  EXPECT_EQ(session.build_counts().compiled, 2u);
  EXPECT_EQ(session.incremental_stats().compiled_patched, 0u);
  EXPECT_EQ(session.incremental_stats().sp_incremental, 1u);
}

TEST(Session, ArtifactSessionGoesInMemoryOnFirstEdit) {
  // A Session opened from a .sca artifact serves the ARTIFACT's circuit;
  // after an edit that identity is stale, so the fingerprint the serve
  // cache keys on drops on the first edit.
  const std::string path = ::testing::TempDir() + "sereep_edit_session_" +
                           std::to_string(::getpid()) + ".sca";
  write_artifact(path, make_c17());
  Session session = Session::open(path);
  ASSERT_TRUE(session.artifact_fingerprint().has_value());

  session.apply_edit(parse_edit_spec("retype 10 AND"));
  EXPECT_FALSE(session.artifact_fingerprint().has_value());
  // And the session keeps answering — fully in-memory now.
  EXPECT_EQ(session.sweep().size(), session.sites().size());
  std::remove(path.c_str());
}

TEST(Session, EditedShardedSessionKeepsFanningOut) {
  // Each sweep's local fleet maps an artifact of the circuit being swept,
  // so after apply_edit a sharded session still sweeps on its workers and
  // renders the bytes of a batched session given the same edit.
  Options options;
  options.engine = "sharded";
  options.shard.shards = 2;
  options.shard.worker_path = SEREEP_CLI_PATH;
  Session sharded = Session::open("s27", std::move(options));
  Session batched = Session::open("s27");
  EXPECT_EQ(sharded.sweep_csv(), batched.sweep_csv());
  ASSERT_NE(sharded.shard_diagnostics(), nullptr);
  EXPECT_FALSE(sharded.shard_diagnostics()->in_process);

  const EditPlan plan = parse_edit_spec("retype G11 NAND");
  sharded.apply_edit(plan);
  batched.apply_edit(plan);
  EXPECT_EQ(sharded.options().shard.shards, 2u);
  EXPECT_EQ(sharded.ser_csv(), batched.ser_csv());
  EXPECT_EQ(sharded.sweep_csv(), batched.sweep_csv());
  // A rows sweep over every site of the edited circuit fans out whatever
  // the splice above re-swept.
  testutil::expect_rows_equal(
      batched.engine().sweep_rows(batched.sites(), 1),
      sharded.engine().sweep_rows(sharded.sites(), 1));
  ASSERT_NE(sharded.shard_diagnostics(), nullptr);
  EXPECT_FALSE(sharded.shard_diagnostics()->in_process);
  EXPECT_EQ(sharded.shard_diagnostics()->transport, "tcp");
}

TEST(Session, FailedEditPlanKeepsSessionConsistent) {
  // Edit batches are all-or-nothing: the retype applies eagerly, the unknown
  // node then throws, and the session must be left exactly as it was — the
  // pristine circuit, its results, and an edit counter that never moved.
  Session session(make_c17());
  const std::string sweep = session.sweep_csv();
  const std::string ser = session.ser_csv();
  EXPECT_THROW(session.apply_edit(
                   parse_edit_spec("retype 10 AND; tmr no_such_node")),
               std::runtime_error);
  EXPECT_EQ(session.circuit().type(*session.find("10")), GateType::kNand);
  EXPECT_EQ(session.circuit().node_count(), make_c17().node_count());
  EXPECT_EQ(session.incremental_stats().edits, 0u);
  EXPECT_EQ(session.sweep_csv(), sweep);
  EXPECT_EQ(session.ser_csv(), ser);

  // The same plan minus its bad op then applies cleanly on top.
  session.apply_edit(parse_edit_spec("retype 10 AND"));
  Circuit c = make_c17();
  (void)apply_edit_plan(c, parse_edit_spec("retype 10 AND"));
  Session oracle(std::move(c));
  EXPECT_EQ(session.sweep_csv(), oracle.sweep_csv());
  EXPECT_EQ(session.ser_csv(), oracle.ser_csv());
}

TEST(Session, EditInvalidatesPerSiteAndMulticycleQueries) {
  Session session(make_s27());
  const NodeId site = session.sites().front();
  const double before = session.p_sensitized(site);
  const MultiCycleEpp mc_before = session.multicycle(site, 3);
  // s27's G11 is a 2-input NOR; flip it to NAND.
  session.apply_edit(parse_edit_spec("retype G11 NAND"));
  // Same-session queries now reflect the edited circuit exactly.
  Circuit c = make_s27();
  (void)apply_edit_plan(c, parse_edit_spec("retype G11 NAND"));
  Session oracle(std::move(c));
  EXPECT_EQ(session.p_sensitized(site), oracle.p_sensitized(site));
  const MultiCycleEpp mc_after = session.multicycle(site, 3);
  const MultiCycleEpp mc_oracle = oracle.multicycle(site, 3);
  EXPECT_EQ(mc_after.detect_by_cycle, mc_oracle.detect_by_cycle);
  EXPECT_EQ(mc_after.residual_state, mc_oracle.residual_state);
  (void)before;
  (void)mc_before;
}

// ---- the result table: reads render, sweep() drives the engine -------------

/// Engine calls seen by the "test-counting" engine, per sweep kind (one
/// process-wide registration, so the counts live outside any one instance).
std::size_t g_records_sweeps = 0;
std::size_t g_rows_sweeps = 0;

/// The compiled engine behind a counter on both sweep entry points.
class CountingEngine final : public IEppEngine {
 public:
  explicit CountingEngine(const EngineContext& ctx)
      : circuit_(*ctx.circuit), ser_(ctx.ser),
        inner_(*ctx.compiled, *ctx.sp, ctx.epp) {}
  [[nodiscard]] SiteEpp compute(NodeId site) override {
    return inner_.compute(site);
  }
  [[nodiscard]] double p_sensitized(NodeId site) override {
    return inner_.p_sensitized(site);
  }
  [[nodiscard]] std::vector<SiteEpp> sweep(std::span<const NodeId> sites,
                                           unsigned) override {
    ++g_records_sweeps;
    std::vector<SiteEpp> out;
    for (NodeId s : sites) out.push_back(inner_.compute(s));
    return out;
  }
  [[nodiscard]] std::vector<NodeSer> sweep_rows(std::span<const NodeId> sites,
                                                unsigned) override {
    ++g_rows_sweeps;
    std::vector<NodeSer> out;
    for (NodeId s : sites) {
      out.push_back(node_ser_from_epp(circuit_, inner_.compute(s), ser_.seu,
                                      ser_.latching));
    }
    return out;
  }

 private:
  const Circuit& circuit_;
  SerLayerOptions ser_;
  CompiledEppEngine inner_;
};

Session counting_session(Circuit circuit) {
  (void)EngineRegistry::instance().add(
      "test-counting", {}, [](const EngineContext& ctx) {
        return std::unique_ptr<IEppEngine>(new CountingEngine(ctx));
      });
  Options options;
  options.engine = "test-counting";
  g_records_sweeps = 0;
  g_rows_sweeps = 0;
  return Session(std::move(circuit), std::move(options));
}

TEST(Session, QuietReadsRenderFromTheTableWithoutEngineCalls) {
  // One rows sweep fills the whole table — P_sensitized and the SER terms —
  // so the cold sweep_csv() + ser_csv() + harden_text() trio is ONE engine
  // call, and every read after it renders from the table.
  Session session = counting_session(make_s27());
  const std::string sweep = session.sweep_csv();
  const std::string ser = session.ser_csv();
  const std::string harden = session.harden_text(0.5);
  EXPECT_EQ(g_rows_sweeps, 1u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(session.sweep_csv(), sweep);
    EXPECT_EQ(session.ser_csv(), ser);
    EXPECT_EQ(session.harden_text(0.5), harden);
    (void)session.sweep_p_sensitized();
  }
  EXPECT_EQ(g_rows_sweeps, 1u);
  EXPECT_EQ(g_records_sweeps, 0u);  // no table fill asks for records
  // Records always come from the engine, so per-sweep diagnostics stay
  // honest on a quiet session.
  (void)session.sweep();
  (void)session.sweep();
  EXPECT_EQ(g_records_sweeps, 2u);
  EXPECT_EQ(g_rows_sweeps, 1u);
  EXPECT_EQ(session.build_counts().ser, 1u);
}

TEST(Session, SweepThenSerIsOneEngineSweep) {
  // sweep() folds its records into the table, so ser() — and every read
  // after it — makes no second sweep (the quickstart and the warm what-if
  // loop rely on this).
  Session session = counting_session(make_s27());
  (void)session.sweep();
  (void)session.ser();
  (void)session.sweep_csv();
  EXPECT_EQ(g_records_sweeps, 1u);
  EXPECT_EQ(g_rows_sweeps, 0u);
  EXPECT_EQ(session.ser_csv(), Session(make_s27()).ser_csv());
}

TEST(Session, EditResweepsAffectedSitesOnce) {
  // An edit splices ONE rows re-sweep of the affected sites into the table,
  // whether its rows came from a rows fill or from sweep()'s records; the
  // reads after it render from the table.
  for (const bool warm_records : {true, false}) {
    Session session = counting_session(make_s27());
    if (warm_records) {
      (void)session.sweep();
    } else {
      (void)session.sweep_p_sensitized();
    }
    session.apply_edit(parse_edit_spec("retype G11 NAND"));
    g_records_sweeps = 0;
    g_rows_sweeps = 0;
    (void)session.sweep_csv();
    (void)session.ser_csv();
    EXPECT_EQ(g_rows_sweeps, 1u) << "warm_records=" << warm_records;
    EXPECT_EQ(g_records_sweeps, 0u) << "warm_records=" << warm_records;
    EXPECT_EQ(session.incremental_stats().spliced_sweeps, 1u);

    Circuit c = make_s27();
    (void)apply_edit_plan(c, parse_edit_spec("retype G11 NAND"));
    Session oracle(std::move(c));
    EXPECT_EQ(session.sweep_csv(), oracle.sweep_csv());
    EXPECT_EQ(session.ser_csv(), oracle.ser_csv());
  }
}

}  // namespace
}  // namespace sereep
