// M1: google-benchmark microbenchmarks of the hot kernels:
//   - per-node EPP (cone extraction + propagation), reference vs compiled
//   - whole-circuit Parker-McCluskey SP pass
//   - bit-parallel simulation throughput
//   - fault-injection per site
//   - Table-1 gate rules (closed form vs fold vs brute force)
//
// The binary also writes BENCH_micro.json before the google-benchmark run —
// machine-readable op/s for the cone-extract, propagate and full-sweep
// kernels, reference vs compiled vs batched (cone-sharing clusters) vs
// sharded (worker processes — a loopback fleet started per sweep and
// pre-started loopback hosts, clean + one injected worker death to price
// the supervisor's recovery) plus a
// hot-cache `sereep serve` round trip, the .sca artifact mmap-load vs
// cold parse+compile comparison, and the incremental what-if rows — a
// single-gate edit and a 1%-of-gates batch re-swept through the Session
// dirty-cone splice vs the full sweep (schema v9) — on a >= 10k-gate
// generated circuit — so the perf trajectory is tracked across PRs (see
// write_bench_micro_json). Pass --json=path to redirect it,
// --json= (empty) to skip, and --fast to exercise the JSON emitter on a
// small circuit and skip the google-benchmark run (CI mode).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "sereep/engine.hpp"
#include "sereep/session.hpp"
#include "src/artifact/compiled_artifact.hpp"
#include "src/epp/batched_epp.hpp"
#include "src/netlist/bench_io.hpp"
#include "src/epp/compiled_epp.hpp"
#include "src/epp/epp_engine.hpp"
#include "src/epp/gate_rules.hpp"
#include "src/epp/incremental.hpp"
#include "src/epp/shard_protocol.hpp"
#include "src/netlist/compiled.hpp"
#include "src/netlist/cone_cluster.hpp"
#include "src/netlist/generator.hpp"
#include "src/serve/serve_protocol.hpp"
#include "src/sim/fault_injection.hpp"
#include "src/sim/simulator.hpp"
#include "src/sigprob/signal_prob.hpp"
#include "src/util/exe_path.hpp"
#include "src/util/net.hpp"
#include "src/util/rng.hpp"
#include "src/util/subprocess.hpp"
#include "src/util/simd.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace sereep;

const Circuit& circuit_for(const std::string& name) {
  static std::map<std::string, Circuit> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, make_iscas89_like(name)).first;
  }
  return it->second;
}

const CompiledCircuit& compiled_for(const std::string& name) {
  static std::map<std::string, CompiledCircuit> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, CompiledCircuit(circuit_for(name))).first;
  }
  return it->second;
}

void BM_ParkerMcCluskeySp(benchmark::State& state) {
  const Circuit& c = circuit_for("s953");
  for (auto _ : state) {
    benchmark::DoNotOptimize(parker_mccluskey_sp(c));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(c.node_count()));
}
BENCHMARK(BM_ParkerMcCluskeySp);

void BM_ParkerMcCluskeySpCompiled(benchmark::State& state) {
  const Circuit& c = circuit_for("s953");
  const CompiledCircuit& cc = compiled_for("s953");
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled_parker_mccluskey_sp(cc));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(c.node_count()));
}
BENCHMARK(BM_ParkerMcCluskeySpCompiled);

void BM_EppPerNode(benchmark::State& state) {
  const Circuit& c = circuit_for("s1196");
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  const auto sites = error_sites(c);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.p_sensitized(sites[i % sites.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EppPerNode);

void BM_EppPerNodeCompiled(benchmark::State& state) {
  const Circuit& c = circuit_for("s1196");
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  CompiledEppEngine engine(compiled_for("s1196"), sp);
  const auto sites = error_sites(c);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.p_sensitized(sites[i % sites.size()]));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EppPerNodeCompiled);

void BM_EppAllNodes(benchmark::State& state) {
  const Circuit& c = circuit_for("s953");
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine engine(c, sp);
  const auto sites = error_sites(c);
  for (auto _ : state) {
    double acc = 0;
    for (NodeId s : sites) acc += engine.p_sensitized(s);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sites.size()));
}
BENCHMARK(BM_EppAllNodes);

void BM_EppAllNodesCompiled(benchmark::State& state) {
  const Circuit& c = circuit_for("s953");
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  CompiledEppEngine engine(compiled_for("s953"), sp);
  const auto sites = error_sites(c);
  for (auto _ : state) {
    double acc = 0;
    for (NodeId s : sites) acc += engine.p_sensitized(s);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sites.size()));
}
BENCHMARK(BM_EppAllNodesCompiled);

// The batched cone-sharing sweep on pre-planned clusters (warm planner +
// warm engines, singleton clusters on the compiled engine — exactly the
// per-worker loop of sweep_sites' rows sweep). Arg(0) runs the SIMD
// lane-plane kernels, Arg(1) the bit-identical scalar per-lane fallback.
void BM_EppAllNodesBatched(benchmark::State& state) {
  const Circuit& c = circuit_for("s953");
  const CompiledCircuit& cc = compiled_for("s953");
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const auto sites = error_sites(c);
  const auto clusters = ConeClusterPlanner(cc).plan(sites);
  EppOptions options;
  options.simd = state.range(0) == 0;
  BatchedEppEngine batched(cc, sp, options);
  CompiledEppEngine single(cc, sp);
  const std::vector<double> weights = LatchingModel{}.weights(c);
  for (auto _ : state) {
    double acc = 0;
    for (const ConeCluster& cl : clusters) {
      run_cluster_rows(
          batched, single, cl, sites, weights,
          [&](std::uint32_t, const SiteRow& row) { acc += row.p_sensitized; });
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sites.size()));
}
BENCHMARK(BM_EppAllNodesBatched)->Arg(0)->Arg(1);

void BM_BitParallelEval(benchmark::State& state) {
  const Circuit& c = circuit_for("s1423");
  BitParallelSimulator sim(c);
  Rng rng(1);
  sim.randomize_sources(rng);
  for (auto _ : state) {
    sim.eval();
    benchmark::DoNotOptimize(sim.values().data());
  }
  // 64 vectors per eval pass.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_BitParallelEval);

void BM_FaultInjectionPerSite(benchmark::State& state) {
  const Circuit& c = circuit_for("s953");
  FaultInjector fi(c);
  McOptions opt;
  opt.num_vectors = static_cast<std::size_t>(state.range(0));
  const auto sites = error_sites(c);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fi.run_site(sites[i % sites.size()], opt));
    ++i;
  }
}
BENCHMARK(BM_FaultInjectionPerSite)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_GateRuleClosedForm(benchmark::State& state) {
  Rng rng(3);
  std::vector<Prob4> ins(static_cast<std::size_t>(state.range(0)));
  for (auto& d : ins) {
    d = Prob4::off_path(rng.uniform());
    d.p[2] = d.p[0] * 0.25;
    d.p[0] *= 0.75;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(prob4_closed_form(GateType::kAnd, ins));
  }
}
BENCHMARK(BM_GateRuleClosedForm)->Arg(2)->Arg(4)->Arg(8);

void BM_GateRuleFold(benchmark::State& state) {
  Rng rng(3);
  std::vector<Prob4> ins(static_cast<std::size_t>(state.range(0)));
  for (auto& d : ins) {
    d = Prob4::off_path(rng.uniform());
    d.p[2] = d.p[0] * 0.25;
    d.p[0] *= 0.75;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(prob4_fold(GateType::kAnd, ins));
  }
}
BENCHMARK(BM_GateRuleFold)->Arg(2)->Arg(4)->Arg(8);

void BM_GateRuleEnumerate(benchmark::State& state) {
  Rng rng(3);
  std::vector<Prob4> ins(static_cast<std::size_t>(state.range(0)));
  for (auto& d : ins) {
    d = Prob4::off_path(rng.uniform());
    d.p[2] = d.p[0] * 0.25;
    d.p[0] *= 0.75;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(prob4_enumerate(GateType::kAnd, ins));
  }
}
BENCHMARK(BM_GateRuleEnumerate)->Arg(2)->Arg(4)->Arg(8);

void BM_ConeExtraction(benchmark::State& state) {
  const Circuit& c = circuit_for("s1238");
  ConeExtractor ex(c);
  const auto sites = error_sites(c);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ex.extract(sites[i % sites.size()]).on_path.size());
    ++i;
  }
}
BENCHMARK(BM_ConeExtraction);

// Like-for-like with BM_ConeExtraction: the reference extractor always runs
// the reconvergence scan, so the compiled side is timed with it too. The
// hot path additionally skips the scan — that win shows up in the
// EppPerNode/EppAllNodes pairs, not here.
void BM_ConeExtractionCompiled(benchmark::State& state) {
  const Circuit& c = circuit_for("s1238");
  CompiledConeExtractor ex(compiled_for("s1238"));
  const auto sites = error_sites(c);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ex.extract(sites[i % sites.size()], /*with_reconvergence=*/true)
            .on_path.size());
    ++i;
  }
}
BENCHMARK(BM_ConeExtractionCompiled);

// ---- BENCH_micro.json — machine-readable kernel trajectory -----------------

/// One generated >= 10k-gate circuit, shared by every JSON measurement (the
/// acceptance-size workload: big enough that cache behaviour, not constant
/// overheads, decides the numbers). Fast mode (CI) shrinks it ~8x so the
/// emitter and every kernel still run, in well under a second.
Circuit make_json_circuit(bool fast) {
  GeneratorProfile p;
  p.name = fast ? "micro1k5" : "micro12k";
  p.num_inputs = 24;
  p.num_outputs = 16;
  p.num_dffs = fast ? 75 : 600;
  p.num_gates = fast ? 1500 : 12000;
  p.target_depth = fast ? 14 : 27;
  return generate_circuit(p, 2024);
}

/// Per-level cluster statistics for the JSON (old = Bloom-only, new =
/// two-level with the dominator-sink regroup).
struct ClusterStats {
  std::size_t count = 0;
  std::size_t multi = 0;
  std::size_t clustered_sites = 0;
  std::size_t singletons = 0;
  std::size_t max_lanes = 0;
};

ClusterStats cluster_stats(const std::vector<ConeCluster>& clusters) {
  ClusterStats s;
  s.count = clusters.size();
  for (const ConeCluster& cl : clusters) {
    s.max_lanes = std::max(s.max_lanes, cl.members.size());
    if (cl.members.size() > 1) {
      ++s.multi;
      s.clustered_sites += cl.members.size();
    } else {
      ++s.singletons;
    }
  }
  return s;
}

void write_bench_micro_json(const std::string& path, bool fast) {
  const Circuit c = make_json_circuit(fast);
  const std::vector<NodeId> sites = error_sites(c);
  const double n_sites = static_cast<double>(sites.size());
  const double n_nodes = static_cast<double>(c.node_count());

  // sp_pass: the Parker-McCluskey pre-pass (the paper's SPT column),
  // reference Node-struct walk vs the compiled CSR pass, repeated so the
  // millisecond-scale pass is clocked meaningfully. The two must agree
  // bit-for-bit (folded into results_bit_identical below).
  const int sp_reps = fast ? 3 : 20;
  Stopwatch w_sp_ref;
  SignalProbabilities sp;
  for (int r = 0; r < sp_reps; ++r) sp = parker_mccluskey_sp(c);
  const double sp_ref_s = w_sp_ref.seconds() / sp_reps;
  const CompiledCircuit compiled_for_sp(c);
  Stopwatch w_sp_cmp;
  SignalProbabilities sp_cmp;
  for (int r = 0; r < sp_reps; ++r) {
    sp_cmp = compiled_parker_mccluskey_sp(compiled_for_sp);
  }
  const double sp_cmp_s = w_sp_cmp.seconds() / sp_reps;
  bool sp_identical = sp.size() == sp_cmp.size();
  for (NodeId id = 0; sp_identical && id < c.node_count(); ++id) {
    sp_identical = sp.p1[id] == sp_cmp.p1[id];
  }

  // cone_extract: extraction kernel alone, every site once. Like-for-like:
  // the reference extractor always runs the reconvergence scan, so the
  // compiled side keeps it on here; the hot path's skip of that scan is
  // part of the propagate/full_sweep rows instead.
  //
  // Every kernel row is the MINIMUM of `reps` complete fresh measurements:
  // single-shot wall times on a shared box swing past the bench_compare
  // gate's 10% threshold on their own, and the minimum is the standard
  // noise-robust statistic for deterministic CPU-bound kernels.
  const int reps = fast ? 1 : 3;
  const auto timed_min = [&](auto&& body) {
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
      Stopwatch w;
      body();
      const double s = w.seconds();
      if (r == 0 || s < best) best = s;
    }
    return best;
  };

  const double cone_ref_s = timed_min([&] {
    ConeExtractor ex(c);
    std::size_t acc = 0;
    for (NodeId s : sites) acc += ex.extract(s).on_path.size();
    benchmark::DoNotOptimize(acc);
  });

  const CompiledCircuit& compiled = compiled_for_sp;
  const double cone_cmp_s = timed_min([&] {
    CompiledConeExtractor ex(compiled);
    std::size_t acc = 0;
    for (NodeId s : sites) {
      acc += ex.extract(s, /*with_reconvergence=*/true).on_path.size();
    }
    benchmark::DoNotOptimize(acc);
  });

  // propagate: p_sensitized per site on a warm engine (extraction + the
  // linear Table-1 pass + the sink fold).
  double check_ref = 0, check_cmp = 0;
  const double prop_ref_s = timed_min([&] {
    check_ref = 0;
    EppEngine engine(c, sp);
    for (NodeId s : sites) check_ref += engine.p_sensitized(s);
  });
  const double prop_cmp_s = timed_min([&] {
    check_cmp = 0;
    CompiledEppEngine engine(compiled, sp);
    for (NodeId s : sites) check_cmp += engine.p_sensitized(s);
  });

  // batched propagate: the cone-sharing sweep on pre-planned clusters (warm
  // planner; engines constructed inside the clock like the other rows pay
  // their engine ctor). Singleton clusters run on the compiled engine —
  // exactly the per-worker loop of sweep_sites' rows sweep. Old/new
  // cluster quality: the Bloom-only plan vs the two-level plan with the
  // dominator-sink singleton regroup; the sweep runs the two-level plan,
  // once with the SIMD lane-plane kernels and once on the scalar per-lane
  // fallback (both must be bit-identical).
  const ConeClusterPlanner planner(compiled);
  const ClusterStats stats_bloom = cluster_stats(
      planner.plan(sites, ConeClusterPlanner::PlanLevel::kBloomOnly));
  const auto clusters = planner.plan(sites);
  const ClusterStats stats_two = cluster_stats(clusters);
  // Per-site results land in a scatter buffer so the bit-identity check sums
  // them in the same site order as the reference/compiled checks (the values
  // are per-site identical; only a like-ordered sum can show that).
  std::vector<double> bat_by_index(sites.size(), 0.0);
  const std::vector<double> weights = LatchingModel{}.weights(c);
  const auto run_batched = [&](bool simd_on) {
    EppOptions options;
    options.simd = simd_on;
    return timed_min([&] {
      std::fill(bat_by_index.begin(), bat_by_index.end(), 0.0);
      BatchedEppEngine batched(compiled, sp, options);
      CompiledEppEngine single(compiled, sp);
      for (const ConeCluster& cl : clusters) {
        run_cluster_rows(batched, single, cl, sites, weights,
                         [&](std::uint32_t idx, const SiteRow& row) {
                           bat_by_index[idx] = row.p_sensitized;
                         });
      }
    });
  };
  const double prop_bat_s = run_batched(true);
  double check_bat = 0;
  for (double v : bat_by_index) check_bat += v;
  const double prop_bat_scalar_s = run_batched(false);
  double check_bat_scalar = 0;
  for (double v : bat_by_index) check_bat_scalar += v;
  // The full_sweep and sharded rows below force SIMD on too, so every
  // batched column of one JSON is measured under the same kernel path
  // regardless of the build default (a baseline regenerated from a
  // -DSEREEP_NO_SIMD=ON build must not silently mix scalar and SIMD
  // timings).
  EppOptions simd_on;
  simd_on.simd = true;

  // full_sweep: the end-to-end all-sites product. On the reference side
  // this is exactly the propagate measurement (engine construction + every
  // site), so that timing is reused rather than re-run; the compiled side
  // additionally pays the one-shot CompiledCircuit build, and the batched
  // side pays compile + cluster planning + the latch-weight table ahead of
  // its one-thread rows sweep.
  const double sweep_ref_s = prop_ref_s;
  const double sweep_cmp_s = timed_min([&] {
    const CompiledCircuit cc(c);
    CompiledEppEngine engine(cc, sp);
    std::vector<double> out(c.node_count(), 0.0);
    for (NodeId s : sites) out[s] = engine.p_sensitized(s);
    benchmark::DoNotOptimize(out.data());
  });
  const double sweep_bat_s = timed_min([&] {
    const CompiledCircuit cc(c);
    std::vector<SiteRow> rows(sites.size());
    sweep_sites(cc, ConeClusterPlanner(cc), sites, sp, simd_on, 1,
                {.rows = rows, .latch_weights = LatchingModel{}.weights(c)});
    benchmark::DoNotOptimize(rows.data());
  });

  // sharded full_sweep: the multi-process tier, 2 `sereep worker` processes
  // over the same workload. The row measures END-TO-END fan-out cost per
  // sweep — worker spawn, netlist load + compile, SP transfer, result
  // streaming, merge — i.e. what `sereep sweep --engine=sharded --shards=2`
  // pays; on a 1-core box that is pure overhead vs batched, the win arrives
  // with real cores. Workers load the netlist by spec, so the circuit
  // round-trips through a temp .bench and the PARENT side is rebuilt from
  // the same file (a .bench reload is not node-id-identical to the
  // in-memory generator output; both sides must read the same bytes).
  // Bit-identity of the sharded row is judged element-wise against a
  // batched sweep of the reloaded circuit.
  double sweep_shard_s = 0.0;
  double sweep_shard_retry_s = 0.0;
  double sweep_shard_tcp_s = 0.0;
  double serve_request_s = 0.0;
  bool shard_ran = false;
  bool shard_identical = true;
  const unsigned json_shards = 2;
  if (const std::string worker = sibling_binary_path("sereep");
      !worker.empty()) {
    const std::string netlist =
        "/tmp/sereep_micro_" + std::to_string(::getpid()) + ".bench";
    if (save_bench_file(c, netlist)) {
      const Circuit reloaded = load_bench_file(netlist);
      const CompiledCircuit reloaded_cc(reloaded);
      const SignalProbabilities reloaded_sp =
          compiled_parker_mccluskey_sp(reloaded_cc);
      const std::vector<NodeId> reloaded_sites = error_sites(reloaded);
      EngineContext ctx;
      ctx.circuit = &reloaded;
      ctx.compiled = &reloaded_cc;
      ctx.sp = &reloaded_sp;
      ctx.epp = simd_on;
      ctx.shard.shards = json_shards;
      ctx.shard.worker_path = worker;
      ctx.shard.netlist = netlist;
      const std::unique_ptr<IEppEngine> sharded =
          EngineRegistry::instance().create("sharded", ctx);
      std::vector<NodeSer> shard_rows;
      sweep_shard_s = timed_min(
          [&] { shard_rows = sharded->sweep_rows(reloaded_sites, 1); });
      const std::vector<NodeSer> want =
          EngineRegistry::instance()
              .create("batched", ctx)
              ->sweep_rows(reloaded_sites, 1);
      const auto same_rows = [&](const std::vector<NodeSer>& got) {
        for (std::size_t i = 0; i < want.size(); ++i) {
          if (got[i].p_sensitized != want[i].p_sensitized ||
              got[i].ser != want[i].ser) {
            return false;
          }
        }
        return got.size() == want.size();
      };
      shard_identical = same_rows(shard_rows);
      // sharded_retry: the same sweep with the fault harness killing
      // spawn 0 after its first result frame (SEREEP_FAULT_PLAN is read by
      // the worker processes, which inherit this env). The supervisor keeps
      // the verified prefix, respawns, and re-dispatches the residual;
      // retry - clean prices one full recovery. Backoff is disabled so the
      // column measures supervision cost, not a configured sleep.
      ctx.shard.retry.on_failure = OnShardFailure::kRetry;
      ctx.shard.retry.retries = 2;
      ctx.shard.retry.backoff_base_ms = 0;
      const std::unique_ptr<IEppEngine> retrying =
          EngineRegistry::instance().create("sharded", ctx);
      ::setenv("SEREEP_FAULT_PLAN", "0:die-after-frames=1", 1);
      std::vector<NodeSer> retry_rows;
      sweep_shard_retry_s = timed_min(
          [&] { retry_rows = retrying->sweep_rows(reloaded_sites, 1); });
      ::unsetenv("SEREEP_FAULT_PLAN");
      shard_identical = shard_identical && same_rows(retry_rows);
      // sharded_tcp: the same sweep against two pre-started `sereep worker
      // --listen` processes on 127.0.0.1 (ShardOptions::hosts), one fresh
      // connection per dispatch. The sharded row above starts (and kills)
      // its own loopback fleet inside every sweep, so tcp_vs_pipe (>1 =
      // pre-started hosts faster; the name predates the one transport)
      // prices exactly the per-sweep fleet start: exec + netlist load.
      // Loopback only — a real network adds wire time.
      try {
        ChildProcess w1 = ChildProcess::spawn(
            {worker, "worker", "--netlist=" + netlist, "--listen=0"});
        ChildProcess w2 = ChildProcess::spawn(
            {worker, "worker", "--netlist=" + netlist, "--listen=0"});
        const std::uint16_t p1 = parse_listening_port(w1.read_stdout_line());
        const std::uint16_t p2 = parse_listening_port(w2.read_stdout_line());
        ctx.shard.retry = {};  // the clean-path config, like the fleet row
        ctx.shard.hosts = {"127.0.0.1:" + std::to_string(p1),
                           "127.0.0.1:" + std::to_string(p2)};
        const std::unique_ptr<IEppEngine> tcp_sharded =
            EngineRegistry::instance().create("sharded", ctx);
        std::vector<NodeSer> tcp_rows;
        sweep_shard_tcp_s = timed_min(
            [&] { tcp_rows = tcp_sharded->sweep_rows(reloaded_sites, 1); });
        shard_identical = shard_identical && same_rows(tcp_rows);
      } catch (const std::exception& e) {
        // No loopback (sandboxed CI): skip the row rather than fail the
        // whole emitter — bench_compare treats a missing column as absent.
        std::fprintf(stderr, "micro_kernels: tcp row skipped: %s\n",
                     e.what());
        sweep_shard_tcp_s = 0.0;
      }
      // serve_request: one hot-cache `sereep serve` round trip — connect,
      // kRequest(sweep_csv), kResponse, close — against a daemon that has
      // already built this netlist's Session. Prices the serve tier's
      // steady state: protocol framing + rendering + loopback transfer,
      // with NO Session build (that amortized cost is the daemon's whole
      // reason to exist). Absolute _ms only, so cross-machine --ratios-only
      // comparisons skip it.
      try {
        ChildProcess daemon = ChildProcess::spawn(
            {worker, "serve", "--port=0", "--request-timeout-ms=60000"});
        const std::uint16_t sport =
            parse_listening_port(daemon.read_stdout_line());
        ServeRequest sreq;
        sreq.kind = ServeRequestKind::kSweepCsv;
        sreq.netlist = netlist;
        const std::vector<std::uint8_t> sreq_bytes = encode_request(sreq);
        const auto round_trip = [&] {
          const int sfd = tcp_connect("127.0.0.1", sport, 10'000);
          write_shard_frame(sfd, ShardFrameType::kRequest, sreq_bytes);
          const std::optional<ShardFrame> reply =
              read_shard_frame(sfd, 60'000);
          ::close(sfd);
          if (!reply || reply->type != ShardFrameType::kResponse) {
            throw std::runtime_error("serve round trip failed");
          }
          benchmark::DoNotOptimize(reply->payload.data());
        };
        round_trip();  // warm: the daemon builds + caches the Session here
        serve_request_s = timed_min(round_trip);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "micro_kernels: serve row skipped: %s\n",
                     e.what());
        serve_request_s = 0.0;
      }
      shard_ran = true;
    }
    std::remove(netlist.c_str());
  }

  // artifact (schema v8): the .sca mmap-load path vs the cold open it
  // replaces. cold = parse the .bench + flatten to CSR + the SP pass —
  // what every worker spawn and serve cache miss used to pay before
  // artifacts; mmap = ArtifactView construction, i.e. map + CRC + the full
  // structural validation pass. The ratio is the format's reason to exist
  // (expect orders of magnitude on the 12k circuit).
  double artifact_cold_s = 0.0;
  double artifact_mmap_s = 0.0;
  {
    const std::string base =
        "/tmp/sereep_micro_art_" + std::to_string(::getpid());
    const std::string bench_path = base + ".bench";
    const std::string sca_path = base + ".sca";
    if (save_bench_file(c, bench_path)) {
      try {
        artifact_cold_s = timed_min([&] {
          const Circuit loaded = load_bench_file(bench_path);
          const CompiledCircuit cc(loaded);
          benchmark::DoNotOptimize(compiled_parker_mccluskey_sp(cc).size());
        });
        write_artifact(sca_path, load_bench_file(bench_path));
        artifact_mmap_s = timed_min([&] {
          const ArtifactView view(sca_path);
          benchmark::DoNotOptimize(view.compiled().view().types.data());
          benchmark::DoNotOptimize(view.sp_table().data());
        });
      } catch (const std::exception& e) {
        std::fprintf(stderr, "micro_kernels: artifact row skipped: %s\n",
                     e.what());
        artifact_mmap_s = 0.0;
      }
      std::remove(sca_path.c_str());
    }
    std::remove(bench_path.c_str());
  }

  // incremental (schema v9): the Session what-if loop. A single retype edit
  // (and a 1%-of-gates batch) against a warm session pays apply_edit() +
  // ser(): the dirty-cone re-sweep spliced into the result table. The
  // comparator is a full sweep() of the SAME session, which always drives
  // the engine over every site — identical engine, identical thread count,
  // so incremental_vs_full is a workload ratio, not a host property. Edits toggle AND<->NAND /
  // OR<->NOR: every round is a genuine value-changing retype and the
  // circuit never grows across reps.
  //
  // The rows run on their OWN 12k-gate circuit, not the shared JSON one.
  // The shared circuit funnels every cone through 24 inputs — maximal
  // reconvergence by design (it stresses the cluster planner), which makes
  // it a structural worst case for incrementality: ANY single edit there
  // dirties 10-40% of all sites and caps the win near 2x. Real netlists
  // are wide and shallow with local cones (an s38417-class design has
  // ~1.7k flops on 28k gates), so the incremental rows use that shape:
  // same gate count, realistic I/O width, low reuse. The two rows bracket
  // the workload: the single-edit row takes the most LOCALIZED sink-side
  // victim (smallest downstream closure over a deterministic candidate
  // sample — the spot-fix a hardening loop actually applies), the 1%-batch
  // row spreads edits across the whole circuit (the broad-rewrite case
  // where splicing cannot help much).
  double inc_full_s = 0.0;
  double inc_single_s = 0.0;
  double inc_pct_s = 0.0;
  std::size_t inc_pct_gates = 0;
  std::size_t inc_single_resweeped = 0;
  std::size_t inc_sites = 0;
  bool inc_identical = true;
  {
    GeneratorProfile ip;
    ip.name = fast ? "inc1k5" : "inc12k";
    ip.num_inputs = fast ? 300 : 2400;
    ip.num_outputs = fast ? 100 : 800;
    ip.num_dffs = fast ? 75 : 600;
    ip.num_gates = fast ? 1500 : 12000;
    ip.target_depth = 9;
    ip.reuse_bias = 0.05;
    const Circuit ic = generate_circuit(ip, 2024);
    const auto toggled = [](GateType t) {
      switch (t) {
        case GateType::kAnd: return GateType::kNand;
        case GateType::kNand: return GateType::kAnd;
        case GateType::kOr: return GateType::kNor;
        case GateType::kNor: return GateType::kOr;
        default: return t;
      }
    };
    std::vector<NodeId> togglable;
    for (NodeId id = 0; id < ic.node_count(); ++id) {
      if (toggled(ic.node(id).type) != ic.node(id).type) {
        togglable.push_back(id);
      }
    }
    if (!togglable.empty()) {
      std::vector<Node> nodes(ic.nodes().begin(), ic.nodes().end());
      for (Node& n : nodes) n.is_primary_output = false;
      Session session(
          Circuit::restore(ic.name(), std::move(nodes), ic.outputs()));
      inc_sites = error_sites(ic).size();
      (void)session.sweep();  // warm engine + fill the result table
      inc_full_s = timed_min(
          [&] { benchmark::DoNotOptimize(session.sweep().size()); });
      const auto toggle_plan = [&](std::span<const NodeId> victims) {
        std::string spec;
        for (NodeId v : victims) {
          if (!spec.empty()) spec += "; ";
          spec += "retype ";
          spec += session.circuit().node(v).name;
          spec += ' ';
          spec += gate_type_name(toggled(session.circuit().node(v).type));
        }
        return parse_edit_spec(spec);
      };
      // Most-localized victim: fewest AFFECTED SITES (the exact quantity
      // the splice re-sweeps — ancestors of the victim's downstream
      // closure) over a strided sample of the sink-side half. Deterministic
      // one-time selection, not part of any timed region.
      const CompiledCircuit inc_compiled(ic);
      const std::vector<NodeId> inc_site_list = error_sites(ic);
      NodeId victim = togglable.back();
      std::size_t victim_affected = inc_site_list.size() + 1;
      for (std::size_t i = togglable.size() / 2; i < togglable.size();
           i += 16) {
        const auto mask = affected_site_mask(
            inc_compiled,
            downstream_closure(inc_compiled,
                               std::vector<NodeId>{togglable[i]}),
            inc_site_list);
        std::size_t affected = 0;
        for (std::uint8_t m : mask) affected += m != 0;
        if (affected < victim_affected) {
          victim_affected = affected;
          victim = togglable[i];
        }
      }
      inc_single_s = timed_min([&] {
        session.apply_edit(toggle_plan(std::span(&victim, 1)));
        benchmark::DoNotOptimize(session.ser().total_ser);
      });
      const std::size_t want_gates =
          std::max<std::size_t>(1, ic.gate_count() / 100);
      std::vector<NodeId> pct;
      const std::size_t step =
          std::max<std::size_t>(1, togglable.size() / want_gates);
      for (std::size_t i = 0; i < togglable.size() && pct.size() < want_gates;
           i += step) {
        pct.push_back(togglable[i]);
      }
      inc_pct_gates = pct.size();
      inc_pct_s = timed_min([&] {
        session.apply_edit(toggle_plan(pct));
        benchmark::DoNotOptimize(session.ser().total_ser);
      });
      // One more single edit, judged: the spliced answer must be
      // bit-identical to a from-scratch session of the edited circuit.
      const std::size_t resweeped_before =
          session.incremental_stats().resweeped_sites;
      session.apply_edit(toggle_plan(std::span(&victim, 1)));
      const std::vector<double> spliced = session.sweep_p_sensitized();
      inc_single_resweeped =
          session.incremental_stats().resweeped_sites - resweeped_before;
      const Circuit& edited = session.circuit();
      std::vector<Node> enodes(edited.nodes().begin(), edited.nodes().end());
      for (Node& n : enodes) n.is_primary_output = false;
      Session oracle(Circuit::restore(edited.name(), std::move(enodes),
                                      edited.outputs()));
      inc_identical = spliced == oracle.sweep_p_sensitized();
    }
  }

  const bool identical = check_ref == check_cmp && check_ref == check_bat &&
                         check_ref == check_bat_scalar && sp_identical &&
                         shard_identical && inc_identical;

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "micro_kernels: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": \"sereep.bench_micro.v9\",\n"
               "  \"circuit\": {\"name\": \"%s\", \"gates\": %zu, "
               "\"nodes\": %zu, \"sites\": %zu, \"depth\": %u},\n"
               "  \"results_bit_identical\": %s,\n"
               // Batched rows always force SIMD on (plus the explicit
               // *_nosimd A/B columns); default_enabled records the build
               // default the binary would otherwise run with.
               "  \"simd\": {\"default_enabled\": %s, \"lane_width\": %zu},\n",
               c.name().c_str(), c.gate_count(), c.node_count(), sites.size(),
               c.depth(), identical ? "true" : "false",
               simd::enabled() ? "true" : "false", simd::kLaneWidth);
  const auto cluster_block = [&](const char* name, const ClusterStats& s,
                                 const char* trailing) {
    std::fprintf(f,
                 "    \"%s\": {\"count\": %zu, \"multi_site\": %zu, "
                 "\"clustered_sites\": %zu, \"singleton_sites\": %zu, "
                 "\"max_lanes\": %zu}%s\n",
                 name, s.count, s.multi, s.clustered_sites, s.singletons,
                 s.max_lanes, trailing);
  };
  std::fprintf(f, "  \"clusters\": {\n");
  cluster_block("single_level", stats_bloom, ",");
  cluster_block("two_level", stats_two, "");
  std::fprintf(f, "  },\n  \"kernels\": {\n");
  // sp_pass throughput is per NODE (the pass visits every node once); the
  // EPP rows below are per error site.
  std::fprintf(f,
               "    \"sp_pass\": {\"reference_nodes_per_s\": %.1f, "
               "\"compiled_nodes_per_s\": %.1f, \"reference_ms\": %.3f, "
               "\"compiled_ms\": %.3f, \"speedup\": %.3f},\n",
               n_nodes / sp_ref_s, n_nodes / sp_cmp_s, sp_ref_s * 1e3,
               sp_cmp_s * 1e3, sp_ref_s / sp_cmp_s);
  // A row prints reference + compiled columns, plus batched columns when the
  // kernel has a batched variant (bat_s > 0), plus the scalar-fallback A/B
  // when measured (bat_scalar_s > 0).
  const auto kernel = [&](const char* name, double ref_s, double cmp_s,
                          double bat_s, double bat_scalar_s, double shard_s,
                          double shard_retry_s, double shard_tcp_s,
                          double serve_s, const char* trailing) {
    std::fprintf(f,
                 "    \"%s\": {\"reference_sites_per_s\": %.1f, "
                 "\"compiled_sites_per_s\": %.1f, \"reference_ms\": %.3f, "
                 "\"compiled_ms\": %.3f, \"speedup\": %.3f",
                 name, n_sites / ref_s, n_sites / cmp_s, ref_s * 1e3,
                 cmp_s * 1e3, ref_s / cmp_s);
    if (bat_s > 0) {
      std::fprintf(f,
                   ", \"batched_sites_per_s\": %.1f, \"batched_ms\": %.3f, "
                   "\"batched_speedup\": %.3f, "
                   "\"batched_vs_compiled\": %.3f",
                   n_sites / bat_s, bat_s * 1e3, ref_s / bat_s,
                   cmp_s / bat_s);
    }
    if (bat_scalar_s > 0) {
      std::fprintf(f,
                   ", \"batched_nosimd_sites_per_s\": %.1f, "
                   "\"batched_nosimd_ms\": %.3f, \"simd_speedup\": %.3f",
                   n_sites / bat_scalar_s, bat_scalar_s * 1e3,
                   bat_scalar_s / bat_s);
    }
    if (shard_s > 0) {
      // sharded_ms times whole sweeps that each start, use and kill a local
      // loopback fleet of `shards` workers. shards is a config constant,
      // not a measurement; sharded_vs_batched follows the
      // batched_vs_compiled convention (>1 = sharded faster). Same-machine
      // gating only — process fan-out cost is all host.
      std::fprintf(f,
                   ", \"shards\": %u, \"sharded_sites_per_s\": %.1f, "
                   "\"sharded_ms\": %.3f, \"sharded_vs_batched\": %.3f",
                   json_shards, n_sites / shard_s, shard_s * 1e3,
                   bat_s / shard_s);
    }
    if (shard_retry_s > 0) {
      // One injected worker death + prefix-keeping recovery per sweep.
      // _ms columns regress when they RISE and are gated same-machine
      // only, like every other absolute timing.
      std::fprintf(f,
                   ", \"sharded_retry_ms\": %.3f, "
                   "\"sharded_retry_overhead_ms\": %.3f",
                   shard_retry_s * 1e3, (shard_retry_s - shard_s) * 1e3);
    }
    if (shard_tcp_s > 0) {
      // Schema v6: the pre-started hosts row. tcp_vs_pipe follows the
      // X_vs_Y convention (>1 = pre-started hosts faster than the per-sweep
      // fleet of sharded_ms); both numerator and denominator are process
      // fan-out on THIS host, so the ratio is HW-sensitive and gated
      // same-machine only.
      std::fprintf(f,
                   ", \"sharded_tcp_ms\": %.3f, \"tcp_vs_pipe\": %.3f",
                   shard_tcp_s * 1e3, shard_s / shard_tcp_s);
    }
    if (serve_s > 0) {
      // Schema v7: one hot-session-cache `sereep serve` round trip
      // (connect + kRequest + render + kResponse + close) on loopback.
      // Absolute _ms only — loopback latency is all host — so
      // --ratios-only comparisons skip it; same-machine gating catches a
      // serve-path regression (an accidental cache miss would jump this
      // by the whole Session build).
      std::fprintf(f, ", \"serve_request_ms\": %.3f", serve_s * 1e3);
    }
    std::fprintf(f, "}%s\n", trailing);
  };
  kernel("cone_extract", cone_ref_s, cone_cmp_s, 0.0, 0.0, 0.0, 0.0, 0.0,
         0.0, ",");
  kernel("propagate", prop_ref_s, prop_cmp_s, prop_bat_s, prop_bat_scalar_s,
         0.0, 0.0, 0.0, 0.0, ",");
  kernel("full_sweep", sweep_ref_s, sweep_cmp_s, sweep_bat_s, 0.0,
         shard_ran ? sweep_shard_s : 0.0,
         shard_ran ? sweep_shard_retry_s : 0.0,
         shard_ran ? sweep_shard_tcp_s : 0.0,
         shard_ran ? serve_request_s : 0.0,
         (artifact_mmap_s > 0 || inc_single_s > 0) ? "," : "");
  if (artifact_mmap_s > 0) {
    // Schema v8: compiled-artifact load. Both _ms columns gate same-machine
    // (absolute I/O + CPU on this host); "speedup" is the portable ratio
    // bench_compare gates under --ratios-only.
    std::fprintf(f,
                 "    \"artifact\": {\"cold_parse_compile_ms\": %.3f, "
                 "\"mmap_load_ms\": %.3f, \"speedup\": %.1f}%s\n",
                 artifact_cold_s * 1e3, artifact_mmap_s * 1e3,
                 artifact_cold_s / artifact_mmap_s,
                 inc_single_s > 0 ? "," : "");
  }
  if (inc_single_s > 0) {
    // Schema v9: the incremental what-if rows. incremental_vs_full divides
    // the session's own full re-sweep by the post-edit spliced re-sweep —
    // same engine and thread count on both sides, so the ratio is workload
    // shape, not host ISA, and --ratios-only gates it cross-machine. The
    // _ms columns gate same-machine like every absolute timing.
    std::fprintf(f,
                 "    \"incremental_single_edit\": {"
                 "\"full_resweep_ms\": %.3f, "
                 "\"incremental_resweep_ms\": %.3f, "
                 "\"incremental_vs_full\": %.1f, "
                 "\"resweeped_sites\": %zu, \"total_sites\": %zu},\n",
                 inc_full_s * 1e3, inc_single_s * 1e3,
                 inc_full_s / inc_single_s, inc_single_resweeped, inc_sites);
    std::fprintf(f,
                 "    \"incremental_pct_edit\": {"
                 "\"incremental_resweep_ms\": %.3f, "
                 "\"incremental_vs_full\": %.2f, "
                 "\"edited_gates\": %zu}\n",
                 inc_pct_s * 1e3, inc_full_s / inc_pct_s, inc_pct_gates);
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf(
      "BENCH_micro.json: %zu sites, full sweep %.0f ms (ref) vs %.0f ms "
      "(compiled) vs %.0f ms (batched) = %.2fx / %.2fx; batched-vs-compiled "
      "%.2fx; simd %.2fx; sp-pass %.2fx; singletons %zu -> %zu -> %s\n",
      sites.size(), sweep_ref_s * 1e3, sweep_cmp_s * 1e3, sweep_bat_s * 1e3,
      sweep_ref_s / sweep_cmp_s, sweep_ref_s / sweep_bat_s,
      sweep_cmp_s / sweep_bat_s, prop_bat_scalar_s / prop_bat_s,
      sp_ref_s / sp_cmp_s, stats_bloom.singletons, stats_two.singletons,
      path.c_str());
  if (shard_ran) {
    std::printf(
        "  sharded (%u procs): %.0f ms end-to-end (%.2fx vs batched, "
        "bit-identical: %s); with one injected worker death + recovery: "
        "%.0f ms (+%.0f ms)\n",
        json_shards, sweep_shard_s * 1e3, sweep_bat_s / sweep_shard_s,
        shard_identical ? "yes" : "NO", sweep_shard_retry_s * 1e3,
        (sweep_shard_retry_s - sweep_shard_s) * 1e3);
    if (sweep_shard_tcp_s > 0) {
      std::printf("  sharded over pre-started hosts: %.0f ms (%.2fx vs a "
                  "per-sweep fleet)\n",
                  sweep_shard_tcp_s * 1e3,
                  sweep_shard_s / sweep_shard_tcp_s);
    }
    if (serve_request_s > 0) {
      std::printf("  serve hot-cache round trip: %.1f ms\n",
                  serve_request_s * 1e3);
    }
  }
  if (artifact_mmap_s > 0) {
    std::printf(
        "  artifact: cold parse+compile+sp %.1f ms vs mmap load %.2f ms "
        "(%.0fx)\n",
        artifact_cold_s * 1e3, artifact_mmap_s * 1e3,
        artifact_cold_s / artifact_mmap_s);
  }
  if (inc_single_s > 0) {
    std::printf(
        "  incremental: full re-sweep %.1f ms; single-gate edit %.2f ms "
        "(%.0fx, %zu sites re-swept, bit-identical: %s); %zu-gate edit "
        "%.1f ms (%.1fx)\n",
        inc_full_s * 1e3, inc_single_s * 1e3, inc_full_s / inc_single_s,
        inc_single_resweeped, inc_identical ? "yes" : "NO", inc_pct_gates,
        inc_pct_s * 1e3, inc_full_s / inc_pct_s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own --json/--fast flags before google-benchmark sees the
  // arguments. --fast (CI mode) runs the JSON emitter on a small circuit
  // and skips the google-benchmark suite entirely.
  std::string json_path = "BENCH_micro.json";
  bool fast = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (!json_path.empty()) write_bench_micro_json(json_path, fast);
  if (fast) return 0;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
