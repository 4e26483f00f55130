// sereep — command-line front end over the public sereep::Session facade.
//
//   sereep stats   <netlist>                     circuit statistics
//   sereep convert <in> <out>                    .bench <-> .v by extension
//   sereep compile <netlist> [-o out.sca] [--no-plan]
//                                                compiled .sca artifact
//   sereep sp      <netlist> [--engine=pm|mc|seq] [--vectors=N] [--top=N]
//   sereep epp     <netlist> --node=NAME [--engine=E] [--verify] [--vectors=N]
//                                                per-node EPP detail
//   sereep sweep   <netlist> [--engine=E] [--threads=N] [--shards=N]
//                  [--shard-retries=N] [--shard-timeout-ms=N]
//                  [--on-shard-failure=fail|retry|degrade]
//                  [--top=N] [--csv=out.csv]     all-nodes P_sensitized sweep
//   sereep ser     <netlist> [--engine=E] [--threads=N] [--shards=N]
//                  [--shard-retries=N] [--shard-timeout-ms=N]
//                  [--on-shard-failure=fail|retry|degrade]
//                  [--top=N] [--csv=out.csv]     vulnerability ranking
//   sereep harden  <netlist> [--engine=E] [--target=0.5] [--emit=out.v]
//                  [--iterate=N]                 incremental what-if loop
//   sereep report  <netlist> [--validate] [--seq-sp] [--o=report.md]
//   sereep gen     [--profile=s953] [--seed=N] [--o=out.bench]
//   sereep engines                               registered EPP engines
//   sereep worker  --netlist=SPEC --listen=PORT [--bind=ADDR]
//                                                TCP shard worker
//   sereep serve   [--port=P] [--bind=ADDR] [--sessions=N] [--threads=N]
//                  [--serve-threads=N] [--max-connections=N]
//                  [--request-timeout-ms=N] [--drain-timeout-ms=N]
//                  [--stats-interval-ms=N]       hot-Session daemon
//   sereep client  <sweep|ser|harden|psens|edit> <netlist>
//                  --connect=HOST:PORT [--target=T] [--node=NAME]
//                  [--edit=SPEC] [--timeout-ms=N] [--o=FILE]
//                  [--retries=N] [--retry-backoff-ms=N]
//   sereep client  --stats --connect=HOST:PORT   server metrics snapshot
//
// --engine=E takes any key registered in sereep::EngineRegistry
// ("reference", "compiled", "batched", "sharded" built in; all bit-for-bit
// equal). --engine=sharded fans sweeps out across --shards worker PROCESSES
// over TCP (src/epp/shard_transport.hpp): by default each sweep starts
// `sereep worker --netlist=SPEC --listen=0` instances of this same binary on
// loopback and stops them when it returns; with --shard-hosts=host:port,...
// it dispatches to `sereep worker --listen=PORT` processes already running
// elsewhere instead (the frames are src/epp/shard_protocol.hpp's;
// unauthenticated, trusted networks only).
// Netlists are read as ISCAS .bench (default), structural Verilog when the
// file ends in .v, or a pre-compiled `.sca` artifact (written by `sereep
// compile`, mmap-loaded with zero parsing); embedded circuit names (c17,
// s27, s953, ...) work anywhere a path is accepted.
//
// Every numeric flag parses STRICTLY and is range-checked: --threads=abc,
// --threads=-1, --vectors=1e4 are usage errors (non-zero exit + diagnostic),
// never a silent 0 or a 4-billion-thread wraparound.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "sereep/sereep.hpp"
#include "src/artifact/compiled_artifact.hpp"
#include "src/epp/shard_transport.hpp"
#include "src/netlist/bench_io.hpp"
#include "src/netlist/benchmarks.hpp"
#include "src/netlist/generator.hpp"
#include "src/netlist/stats.hpp"
#include "src/netlist/verilog_io.hpp"
#include "src/report/report.hpp"
#include "src/ser/tmr.hpp"
#include "src/serve/serve_protocol.hpp"
#include "src/serve/server.hpp"
#include "src/sim/fault_injection.hpp"
#include "src/util/exe_path.hpp"
#include "src/util/net.hpp"
#include "src/util/strings.hpp"
#include "src/util/table.hpp"
#include "src/util/timer.hpp"

namespace {

using namespace sereep;

bool save_any(const Circuit& circuit, const std::string& path) {
  if (path.ends_with(".v")) return save_verilog_file(circuit, path);
  return save_bench_file(circuit, path);
}

/// Range-checked integer flag: Flags::get_int already rejects malformed
/// values (exit 2); this adds the per-flag domain so "--threads=-1" is a
/// diagnostic, not a wraparound through a cast to unsigned. nullopt after
/// the error message when out of range.
std::optional<long> checked_int(const bench::Flags& flags, const char* name,
                                long fallback, long min, long max) {
  const long value = flags.get_int(name, fallback);
  if (value < min || value > max) {
    std::fprintf(stderr, "error: --%s must be in [%ld, %ld], got %ld\n", name,
                 min, max, value);
    return std::nullopt;
  }
  return value;
}

/// Range-checked floating-point flag, same contract as checked_int.
std::optional<double> checked_double(const bench::Flags& flags,
                                     const char* name, double fallback,
                                     double min, double max) {
  const double value = flags.get_double(name, fallback);
  if (!(value >= min && value <= max)) {
    std::fprintf(stderr, "error: --%s must be in [%g, %g], got %g\n", name,
                 min, max, value);
    return std::nullopt;
  }
  return value;
}

/// Builds the Session Options shared by the analysis subcommands from the
/// --engine / --threads / --shards flags; nullopt (after an error message)
/// when the key is unknown or a numeric flag is out of range.
std::optional<Options> analysis_options(const bench::Flags& flags,
                                        long default_threads) {
  Options opt;
  opt.engine = flags.get("engine", "batched");
  const std::optional<long> threads =
      checked_int(flags, "threads", default_threads, 0, Options::kMaxThreads);
  if (!threads) return std::nullopt;
  opt.threads = static_cast<unsigned>(*threads);
  const std::optional<long> shards =
      checked_int(flags, "shards", opt.shard.shards, 1, Options::kMaxShards);
  if (!shards) return std::nullopt;
  // The local workers ARE this binary (`worker --listen=0`). Empty when
  // /proc/self/exe is unreadable; the sharded engine then fails with an
  // actionable message rather than exec'ing a guess.
  opt.shard.shards = static_cast<unsigned>(*shards);
  opt.shard.worker_path = self_exe_path();
  if (flags.has("shard-hosts")) {
    // Remote TCP workers: a comma-separated host:port list. Each entry is
    // validated HERE (and again by Options::validate()) so a typo is a
    // usage diagnostic before anything connects.
    const std::string spec = flags.get("shard-hosts", "");
    for (std::string_view entry : split(spec, ',')) {
      entry = trim(entry);
      if (entry.empty()) {
        std::fprintf(stderr,
                     "error: --shard-hosts has an empty entry "
                     "(expected host:port,host:port,...)\n");
        return std::nullopt;
      }
      try {
        (void)parse_host_port(std::string(entry));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: --shard-hosts: %s\n", e.what());
        return std::nullopt;
      }
      opt.shard.hosts.emplace_back(entry);
    }
    if (opt.shard.hosts.empty()) {
      std::fprintf(stderr, "error: --shard-hosts must name at least one "
                           "host:port\n");
      return std::nullopt;
    }
  }
  const std::optional<long> shard_retries =
      checked_int(flags, "shard-retries", opt.shard.retry.retries, 0,
                  Options::kMaxShardRetries);
  if (!shard_retries) return std::nullopt;
  opt.shard.retry.retries = static_cast<unsigned>(*shard_retries);
  const std::optional<long> shard_timeout =
      checked_int(flags, "shard-timeout-ms", opt.shard.retry.timeout_ms, 0,
                  Options::kMaxShardTimeoutMs);
  if (!shard_timeout) return std::nullopt;
  opt.shard.retry.timeout_ms = static_cast<unsigned>(*shard_timeout);
  if (flags.has("on-shard-failure")) {
    const std::string policy = flags.get("on-shard-failure", "fail");
    if (policy == "fail") {
      opt.shard.retry.on_failure = OnShardFailure::kFail;
    } else if (policy == "retry") {
      opt.shard.retry.on_failure = OnShardFailure::kRetry;
    } else if (policy == "degrade") {
      opt.shard.retry.on_failure = OnShardFailure::kDegrade;
    } else {
      std::fprintf(stderr,
                   "error: unknown --on-shard-failure '%s' "
                   "(fail|retry|degrade)\n",
                   policy.c_str());
      return std::nullopt;
    }
  } else if (flags.has("shard-retries")) {
    // An explicit retry budget without an explicit policy means the user
    // wants the retries USED; the library default (fail) would make the
    // flag a no-op. An explicit --on-shard-failure always wins above.
    opt.shard.retry.on_failure = OnShardFailure::kRetry;
  }
  if (!EngineRegistry::instance().contains(opt.engine)) {
    std::fprintf(stderr, "error: unknown --engine '%s' (registered: %s)\n",
                 opt.engine.c_str(),
                 EngineRegistry::instance().names_joined().c_str());
    return std::nullopt;
  }
  return opt;
}

bool write_text(const std::string& text, const std::string& path,
                const char* what) {
  if (path == "-" || path.empty()) {
    std::printf("%s", text.c_str());
    return true;
  }
  std::ofstream f(path);
  f << text;
  f.flush();  // surface buffered-write failures before declaring success
  if (!f) {
    std::fprintf(stderr, "error: cannot write '%s'\n", path.c_str());
    return false;
  }
  std::printf("%s written to %s\n", what, path.c_str());
  return true;
}

int cmd_stats(const std::string& path) {
  const Circuit c = load_netlist(path);
  const CircuitStats s = compute_stats(c);
  std::printf("%s\n", s.summary().c_str());
  AsciiTable t({"Gate type", "Count"});
  for (int g = 0; g < kGateTypeCount; ++g) {
    if (s.type_histogram[static_cast<std::size_t>(g)] == 0) continue;
    t.add_row({std::string(gate_type_name(static_cast<GateType>(g))),
               std::to_string(s.type_histogram[static_cast<std::size_t>(g)])});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmd_convert(const std::string& in, const std::string& out) {
  const Circuit c = load_netlist(in);
  if (!save_any(c, out)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out.c_str());
    return 1;
  }
  std::printf("%s -> %s (%zu nodes)\n", in.c_str(), out.c_str(),
              c.node_count());
  return 0;
}

int cmd_sp(const std::string& path, const bench::Flags& flags) {
  // The sp subcommand's engine vocabulary predates the registry and names
  // SP sources, not EPP engines: pm | mc | seq -> SpSource.
  const std::string engine = flags.get("engine", "pm");
  Options opt;
  if (engine == "mc") {
    opt.sp.source = SpSource::kMonteCarlo;
    const std::optional<long> vectors =
        checked_int(flags, "vectors", 65536, 1, 1'000'000'000);
    if (!vectors) return 1;
    opt.sp.monte_carlo_vectors = static_cast<std::size_t>(*vectors);
  } else if (engine == "seq") {
    opt.sp.source = SpSource::kSequentialFixedPoint;
  } else if (engine != "pm") {
    std::fprintf(stderr, "error: unknown --engine '%s' (pm|mc|seq)\n",
                 engine.c_str());
    return 1;
  }
  Session session = Session::open(path, std::move(opt));
  const SignalProbabilities& sp = session.sp();
  if (const auto& diag = session.sp_diagnostics()) {
    std::printf("fixed point: %zu iterations, residual %.2e, %s\n",
                diag->iterations, diag->residual,
                diag->converged ? "converged" : "NOT converged");
  }
  const Circuit& c = session.circuit();
  const std::optional<long> top_flag =
      checked_int(flags, "top", 0, 0, 1'000'000'000);
  if (!top_flag) return 1;
  const auto top = static_cast<std::size_t>(*top_flag);
  AsciiTable t({"Net", "P(1)"});
  std::size_t shown = 0;
  for (NodeId id = 0; id < c.node_count(); ++id) {
    if (top && shown++ >= top) break;
    t.add_row({c.node(id).name, format_fixed(sp[id], 4)});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmd_epp(const std::string& path, const bench::Flags& flags) {
  const std::string node_name = flags.get("node", "");
  if (node_name.empty()) {
    std::fprintf(stderr, "error: epp requires --node=NAME\n");
    return 1;
  }
  std::optional<Options> opt = analysis_options(flags, 1);
  if (!opt) return 1;
  Session session = Session::open(path, std::move(*opt));
  const Circuit& c = session.circuit();
  const auto site = session.find(node_name);
  if (!site) {
    std::fprintf(stderr, "error: no node named '%s'\n", node_name.c_str());
    return 1;
  }
  const SiteEpp r = session.epp(*site);
  std::printf("EPP of %s (cone %zu signals, %zu reconvergent gates)\n",
              node_name.c_str(), r.cone_size, r.reconvergent_gates);
  AsciiTable t({"Sink", "Kind", "EPP (Pa+Pabar)", "Distribution"});
  for (const SinkEpp& s : r.sinks) {
    t.add_row({c.node(s.sink).name,
               c.type(s.sink) == GateType::kDff ? "FF" : "PO",
               format_fixed(s.error_mass, 4), s.distribution.to_string()});
  }
  std::printf("%s", t.render().c_str());
  std::printf("P_sensitized = %.4f   (bounds: [%.4f, %.4f])\n",
              r.p_sensitized, r.p_sens_lower, r.p_sens_upper);
  if (flags.has("verify")) {
    FaultInjector fi(c);
    McOptions mc;
    const std::optional<long> vectors =
        checked_int(flags, "vectors", 65536, 1, 1'000'000'000);
    if (!vectors) return 1;
    mc.num_vectors = static_cast<std::size_t>(*vectors);
    std::printf("fault injection (%zu vectors): %.4f\n", mc.num_vectors,
                fi.run_site(*site, mc).probability());
  }
  return 0;
}

int cmd_sweep(const std::string& path, const bench::Flags& flags) {
  std::optional<Options> opt = analysis_options(flags, 0);
  if (!opt) return 1;
  Session session = Session::open(path, std::move(*opt));
  if (flags.has("csv")) {
    // Machine-readable mode: the exact formatter the golden-file regression
    // tests pin (tests/cli/), written to a file or - for stdout.
    return write_text(session.sweep_csv(), flags.get("csv", "-"), "sweep CSV")
               ? 0
               : 1;
  }
  const Circuit& c = session.circuit();
  // The flatten is hoisted out of the SP clock: the printed "SP pass" is the
  // paper's SPT column — the pass's own cost, not the one-time compile.
  (void)session.compiled();
  Stopwatch sp_clock;
  (void)session.sp();  // build the artifact; the sweep below reuses it
  const double sp_s = sp_clock.seconds();
  Stopwatch sweep_clock;
  const std::vector<double> p = session.sweep_p_sensitized();
  const double sweep_s = sweep_clock.seconds();

  std::vector<NodeId> ranked(session.sites().begin(), session.sites().end());
  const std::size_t site_count = ranked.size();
  std::sort(ranked.begin(), ranked.end(),
            [&](NodeId a, NodeId b) { return p[a] > p[b]; });
  const std::optional<long> top_flag =
      checked_int(flags, "top", 10, 0, 1'000'000'000);
  if (!top_flag) return 1;
  const auto top = static_cast<std::size_t>(*top_flag);
  AsciiTable t({"Node", "Type", "P_sensitized"});
  for (std::size_t i = 0; i < std::min(top, ranked.size()); ++i) {
    t.add_row({c.node(ranked[i]).name,
               std::string(gate_type_name(c.type(ranked[i]))),
               format_fixed(p[ranked[i]], 4)});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "%zu sites swept in %.1f ms (%.0f sites/s, %s engine), "
      "SP pass %.1f ms\n",
      site_count, sweep_s * 1e3, static_cast<double>(site_count) / sweep_s,
      session.options().engine.c_str(), sp_s * 1e3);
  if (const ShardedEppEngine::Diagnostics* d = session.shard_diagnostics()) {
    if (d->in_process) {
      std::printf("sharded engine served the sweep in-process (no fan-out)\n");
    } else {
      std::string sizes;
      for (std::size_t n : d->shard_sites) {
        if (!sizes.empty()) sizes += "+";
        sizes += std::to_string(n);
      }
      std::printf("sharded across %u workers over %s (%s sites)\n",
                  d->workers_spawned, d->transport.c_str(), sizes.c_str());
      if (d->respawns > 0 || d->degraded_shards > 0) {
        // Recovery happened: the sweep is complete and bit-identical, but a
        // deployment should know its workers are dying.
        std::printf(
            "shard recovery: %u re-dispatches (%zu sites recomputed), "
            "%u deadline expiries, %u shards degraded in-process\n",
            d->respawns, d->redispatched_sites, d->deadline_expiries,
            d->degraded_shards);
      }
    }
  }
  return 0;
}

int cmd_ser(const std::string& path, const bench::Flags& flags) {
  std::optional<Options> opt = analysis_options(flags, 1);
  if (!opt) return 1;
  Session session = Session::open(path, std::move(*opt));
  if (flags.has("csv")) {
    // Golden-pinned machine-readable mode (tests/cli/golden_ser_test.cpp).
    return write_text(session.ser_csv(), flags.get("csv", "-"), "SER CSV")
               ? 0
               : 1;
  }
  const Circuit& c = session.circuit();
  const CircuitSer& ser = session.ser();
  const auto ranked = ser.ranked();
  const std::optional<long> top_flag =
      checked_int(flags, "top", 20, 0, 1'000'000'000);
  if (!top_flag) return 1;
  const auto top = static_cast<std::size_t>(*top_flag);
  AsciiTable t({"Rank", "Node", "Type", "P_sens", "SER share"});
  double cum = 0;
  for (std::size_t i = 0; i < std::min(top, ranked.size()); ++i) {
    cum += ranked[i].ser;
    t.add_row({std::to_string(i + 1), c.node(ranked[i].node).name,
               std::string(gate_type_name(c.type(ranked[i].node))),
               format_fixed(ranked[i].p_sensitized, 4),
               format_fixed(100 * ranked[i].ser / ser.total_ser, 1) + "%"});
  }
  std::printf("%s", t.render().c_str());
  std::printf("total SER: %.3e failures/s (%.2f FIT), top %zu cover %.1f%%\n",
              ser.total_ser, ser.total_fit(), std::min(top, ranked.size()),
              100 * cum / ser.total_ser);
  return 0;
}

/// `sereep harden <netlist> --iterate=N`: the incremental what-if loop as a
/// command. Each round re-ranks SER, TMR-protects the top-ranked still
/// unprotected combinational gate through Session::apply_edit() — the SAME
/// session, so its result table splices around the voter's dirty cone
/// instead of recomputing — and re-evaluates. Round 0 pays the one full
/// sweep; the per-round "re-eval ms" column is what the dirty-cone
/// invalidation buys.
///
/// Unlike `harden` without --iterate (which models a protected gate as
/// contributing zero), this loop evaluates PHYSICAL TMR: the inserted
/// majority voter is itself an unprotected gate whose upsets propagate
/// exactly where the original's did, so whole-circuit SER can go UP —
/// the classic unhardened-voter trap, and exactly the kind of verdict a
/// cheap what-if evaluation exists to deliver before committing silicon.
int cmd_harden_iterate(Session& session, long rounds) {
  Stopwatch sw;
  const CircuitSer* ser = &session.ser();  // fills the spliceable table
  const double baseline = ser->total_ser;
  std::printf("baseline SER %.3e failures/s (%.2f FIT), full sweep %.1f ms\n",
              baseline, ser->total_fit(), sw.millis());
  AsciiTable t({"Round", "Protected", "SER", "vs base", "Re-eval ms",
                "Re-swept", "Spliced"});
  char buf[64];
  for (long round = 1; round <= rounds; ++round) {
    // The TMR copies and voter added by earlier rounds are ordinary new
    // sites in this ranking; the protected gate itself ranks ~0 (a single
    // upset on one voter input is majority-masked).
    const Circuit& c = session.circuit();
    std::string victim;
    for (const auto& ns : ser->ranked()) {
      if (is_combinational(c.type(ns.node))) {
        victim = c.node(ns.node).name;
        break;
      }
    }
    if (victim.empty()) {
      std::printf("no combinational gate left to protect; stopping\n");
      break;
    }
    const Session::IncrementalStats before = session.incremental_stats();
    sw.restart();
    EditPlan plan;
    EditOp op;
    op.kind = EditOp::Kind::kTmr;
    op.node = victim;
    plan.ops.push_back(std::move(op));
    session.apply_edit(plan);
    ser = &session.ser();  // spliced: only the voter's cone re-sweeps
    const double ms = sw.millis();
    const Session::IncrementalStats& after = session.incremental_stats();
    std::vector<std::string> row;
    row.push_back(std::to_string(round));
    row.push_back(victim);
    std::snprintf(buf, sizeof buf, "%.3e", ser->total_ser);
    row.emplace_back(buf);
    row.push_back(format_fixed(100 * ser->total_ser / baseline, 1) + "%");
    row.push_back(format_fixed(ms, 1));
    row.push_back(std::to_string(after.resweeped_sites -
                                 before.resweeped_sites));
    row.push_back(std::to_string(after.spliced_sites - before.spliced_sites));
    t.add_row(std::move(row));
  }
  std::printf("%s", t.render().c_str());
  std::printf("final SER %.3e failures/s (%.2f FIT), %.1f%% of baseline\n",
              ser->total_ser, ser->total_fit(),
              100 * ser->total_ser / baseline);
  if (ser->total_ser >= baseline) {
    std::printf(
        "note: physical TMR RAISED the SER — the inserted majority voters\n"
        "are themselves unprotected error sites (the unhardened-voter\n"
        "trap); the zero-contribution plan `sereep harden` prints assumes\n"
        "hardened voters.\n");
  }
  return 0;
}

int cmd_harden(const std::string& path, const bench::Flags& flags) {
  std::optional<Options> opt = analysis_options(flags, 1);
  if (!opt) return 1;
  Session session = Session::open(path, std::move(*opt));
  const std::optional<double> target_flag =
      checked_double(flags, "target", 0.5, 0.0, 1.0);
  if (!target_flag) return 1;
  const double target = *target_flag;
  const std::string emit = flags.get_path("emit", "");  // exits 2 when bare
  if (flags.has("iterate")) {
    const std::optional<long> rounds =
        checked_int(flags, "iterate", 1, 1, 100'000);
    if (!rounds) return 1;
    return cmd_harden_iterate(session, *rounds);
  }
  // One selection pass; the text is the exact rendering the golden
  // regression pins (tests/cli/golden_ser_test.cpp).
  const HardeningPlan plan = session.harden(target);
  std::printf("%s",
              harden_plan_text(session.circuit(), plan, target).c_str());
  if (!emit.empty()) {
    const TmrResult tmr = apply_tmr(session.circuit(), plan.protect);
    if (!save_any(tmr.circuit, emit)) {
      std::fprintf(stderr, "error: cannot write '%s'\n", emit.c_str());
      return 1;
    }
    std::printf("TMR netlist written to %s (+%zu gates)\n", emit.c_str(),
                tmr.gates_added);
  }
  return 0;
}

int cmd_report(const std::string& path, const bench::Flags& flags) {
  Circuit circuit = load_netlist(path);
  Options sopt;
  // The fixed point only means something when there is state to iterate
  // over.
  if (flags.has("seq-sp") && !circuit.dffs().empty()) {
    sopt.sp.source = SpSource::kSequentialFixedPoint;
  }
  Session session(std::move(circuit), std::move(sopt));
  ReportOptions opt;
  const std::optional<long> top =
      checked_int(flags, "top", 20, 0, 1'000'000'000);
  if (!top) return 1;
  opt.top_nodes = static_cast<std::size_t>(*top);
  const std::optional<double> target =
      checked_double(flags, "target", 0.5, 0.0, 1.0);
  if (!target) return 1;
  opt.hardening_target = *target;
  opt.validate_with_simulation = flags.has("validate");
  const std::string report = generate_report(session, opt);
  if (flags.has("o")) {
    return write_text(report, flags.get("o", "report.md"), "report") ? 0 : 1;
  }
  std::printf("%s", report.c_str());
  return 0;
}

int cmd_gen(const bench::Flags& flags) {
  const std::string profile_name = flags.get("profile", "s953");
  GeneratorProfile profile = iscas89_profile(profile_name);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 0x15ca589));
  const Circuit c = generate_circuit(profile, seed);
  const std::string out = flags.get_path("o", profile_name + ".bench");
  if (!save_any(c, out)) {
    std::fprintf(stderr, "error: cannot write '%s'\n", out.c_str());
    return 1;
  }
  std::printf("%s\nwritten to %s\n", compute_stats(c).summary().c_str(),
              out.c_str());
  return 0;
}

/// `sereep compile <netlist> -o file.sca`: pay the parse + flatten + SP +
/// plan cost once and persist the result as a versioned, checksummed,
/// mmap-loadable artifact (src/artifact/compiled_artifact.hpp). Every place
/// that takes a netlist spec — sweep/ser/harden, `sereep worker`, the serve
/// daemon — accepts the .sca path and loads it back in milliseconds with
/// zero parsing; the printed fingerprint is the identity the sharded
/// dispatcher and serve cache verify against.
int cmd_compile(int argc, char** argv, const bench::Flags& flags) {
  std::string spec = flags.get("netlist", "");
  std::string out = flags.get("o", "");
  // bench::Flags only parses --long flags; scan argv ourselves for the
  // conventional `-o FILE` spelling and the positional netlist.
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg[0] != '-' && spec.empty()) {
      spec = arg;
    }
  }
  if (spec.empty()) {
    std::fprintf(stderr,
                 "error: compile requires a netlist (positional or "
                 "--netlist=SPEC)\n");
    return 2;
  }
  if (is_artifact_path(spec)) {
    std::fprintf(stderr,
                 "error: '%s' is already a compiled .sca artifact; compile "
                 "takes a .bench/.v path or an embedded name\n",
                 spec.c_str());
    return 2;
  }
  if (out.empty()) {
    // Default output: the netlist's basename with a .sca extension.
    std::string base = spec;
    const std::size_t slash = base.find_last_of('/');
    if (slash != std::string::npos) base = base.substr(slash + 1);
    const std::size_t dot = base.find_last_of('.');
    if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
    out = base + ".sca";
  }
  if (!is_artifact_path(out)) {
    std::fprintf(stderr, "error: compile output '%s' must end in .sca\n",
                 out.c_str());
    return 2;
  }
  const Stopwatch sw;
  const Circuit circuit = load_netlist(spec);
  ArtifactWriteOptions options;
  options.include_plan = !flags.has("no-plan");
  const CircuitFingerprint fp = write_artifact(out, circuit, options);
  struct stat st = {};
  const long bytes = ::stat(out.c_str(), &st) == 0 ? st.st_size : 0;
  std::printf("compiled %s -> %s (%ld bytes, %.1f ms)\nfingerprint: %s\n",
              spec.c_str(), out.c_str(), bytes, sw.millis(),
              to_string(fp).c_str());
  return 0;
}

int cmd_engines() {
  AsciiTable t({"Engine", "Threads", "SIMD", "Processes"});
  for (const std::string& name : EngineRegistry::instance().names()) {
    const EngineCaps caps = EngineRegistry::instance().caps(name);
    t.add_row({name, caps.threads ? "yes" : "no", caps.simd ? "yes" : "no",
               caps.processes ? "yes" : "no"});
  }
  std::printf("%s", t.render().c_str());
  std::printf(
      "All built-in engines are bit-for-bit equal; the choice is timing "
      "only.\nProcesses = sweeps fan out across `sereep worker` processes "
      "(--shards=N).\n");
  return 0;
}

/// Worker mode (`sereep worker --netlist=SPEC --listen=PORT [--bind=ADDR]`):
/// loads the netlist once, listens forever, and serves one shard job per
/// accepted connection in a forked child (the frames are
/// src/epp/shard_protocol.hpp's; the dispatch ordinal SEREEP_FAULT_PLAN
/// directives target arrives in the job). Sharded sweeps start these
/// themselves on loopback with --listen=0; started by hand on other
/// machines, parents reach them via --shard-hosts=host:port,... . Port 0
/// picks an ephemeral port; either way the bound address is announced on
/// stdout as "sereep worker listening on ADDR:PORT".
int cmd_worker(const bench::Flags& flags) {
  const std::string spec = flags.get("netlist", "");
  if (spec.empty()) {
    std::fprintf(stderr, "error: worker requires --netlist=SPEC\n");
    return 2;
  }
  if (!flags.has("listen")) {
    std::fprintf(stderr, "error: worker requires --listen=PORT (0 picks an "
                         "ephemeral port)\n");
    return 2;
  }
  const std::optional<long> port = checked_int(flags, "listen", 0, 0, 65535);
  if (!port) return 2;
  return run_tcp_worker(spec, flags.get("bind", "127.0.0.1"),
                        static_cast<std::uint16_t>(*port));
}

/// `sereep serve`: the hot-Session daemon (src/serve/server.hpp). Holds the
/// --sessions most recently requested netlists open and answers
/// sweep/ser/harden/psens/stats requests over the shard wire framing;
/// `sereep client` is the matching caller. --serve-threads bounds concurrent
/// connections being served, --max-connections bounds the accept queue
/// (overflow is answered kBusy), SIGTERM/SIGINT drains gracefully within
/// --drain-timeout-ms. Unauthenticated — binds loopback unless told
/// otherwise. Every flag is range-checked HERE so the diagnostic names the
/// flag; run_serve re-validates the assembled config as a belt.
int cmd_serve(const bench::Flags& flags) {
  ServeConfig config;
  const std::optional<long> port = checked_int(flags, "port", 0, 0, 65535);
  if (!port) return 2;
  config.port = static_cast<std::uint16_t>(*port);
  config.bind = flags.get("bind", config.bind);
  const std::optional<long> sessions =
      checked_int(flags, "sessions", static_cast<long>(config.max_sessions), 1,
                  static_cast<long>(ServeConfig::kMaxSessions));
  if (!sessions) return 2;
  config.max_sessions = static_cast<std::size_t>(*sessions);
  const std::optional<long> threads =
      checked_int(flags, "threads", config.threads, 0, Options::kMaxThreads);
  if (!threads) return 2;
  config.threads = static_cast<unsigned>(*threads);
  const std::optional<long> serve_threads =
      checked_int(flags, "serve-threads", config.serve_threads, 1,
                  ServeConfig::kMaxServeThreads);
  if (!serve_threads) return 2;
  config.serve_threads = static_cast<unsigned>(*serve_threads);
  const std::optional<long> max_conn =
      checked_int(flags, "max-connections",
                  static_cast<long>(config.max_connections), 1,
                  static_cast<long>(ServeConfig::kMaxConnections));
  if (!max_conn) return 2;
  config.max_connections = static_cast<std::size_t>(*max_conn);
  const std::optional<long> timeout =
      checked_int(flags, "request-timeout-ms", config.request_timeout_ms, 0,
                  ServeConfig::kMaxTimeoutMs);
  if (!timeout) return 2;
  config.request_timeout_ms = static_cast<unsigned>(*timeout);
  const std::optional<long> drain =
      checked_int(flags, "drain-timeout-ms", config.drain_timeout_ms, 0,
                  ServeConfig::kMaxTimeoutMs);
  if (!drain) return 2;
  config.drain_timeout_ms = static_cast<unsigned>(*drain);
  const std::optional<long> stats_interval =
      checked_int(flags, "stats-interval-ms", config.stats_interval_ms, 0,
                  ServeConfig::kMaxTimeoutMs);
  if (!stats_interval) return 2;
  config.stats_interval_ms = static_cast<unsigned>(*stats_interval);
  return run_serve(config);
}

/// `sereep client <sweep|ser|harden|psens> <netlist> --connect=HOST:PORT`
/// (or `sereep client --stats --connect=HOST:PORT` for the server's metrics
/// snapshot): one request against a running `sereep serve`, response bytes
/// to stdout (or --o=FILE) verbatim — byte-identical to the local rendering
/// by the serve contract, which is exactly what the loopback differential
/// tests exploit.
///
/// --retries=N retries with doubled backoff (starting at --retry-backoff-ms)
/// when the server sheds load — a kBusy frame — or refuses/drops the
/// connection. Safe to retry blindly for every read-only kind (a duplicate
/// just recomputes). `edit` is the exception — it MUTATES the server's
/// cached session, and a duplicate tmr/insert is a different circuit — so
/// once the request frame has been written, an ambiguous failure (server
/// hung up before answering) is terminal, never retried; only failures that
/// provably precede delivery (connect refused, kBusy shed) retry.
int cmd_client(const std::string& kind_name, const std::string& netlist,
               const bench::Flags& flags) {
  ServeRequest req;
  req.netlist = netlist;
  if (kind_name == "sweep") {
    req.kind = ServeRequestKind::kSweepCsv;
  } else if (kind_name == "ser") {
    req.kind = ServeRequestKind::kSerCsv;
  } else if (kind_name == "harden") {
    req.kind = ServeRequestKind::kHardenText;
    const std::optional<double> target =
        checked_double(flags, "target", 0.5, 0.0, 1.0);
    if (!target) return 2;
    req.target = *target;
  } else if (kind_name == "psens") {
    req.kind = ServeRequestKind::kPSensitized;
    req.node = flags.get("node", "");
    if (req.node.empty()) {
      std::fprintf(stderr, "error: client psens requires --node=NAME\n");
      return 2;
    }
  } else if (kind_name == "edit") {
    req.kind = ServeRequestKind::kEdit;
    req.edit = flags.get("edit", "");
    if (req.edit.empty()) {
      std::fprintf(stderr, "error: client edit requires --edit=SPEC\n");
      return 2;
    }
  } else if (kind_name == "stats") {
    req.kind = ServeRequestKind::kStats;  // netlist-less server introspection
  } else {
    std::fprintf(stderr,
                 "error: unknown client request '%s' "
                 "(sweep|ser|harden|psens|edit)\n",
                 kind_name.c_str());
    return 2;
  }
  const std::string connect = flags.get("connect", "");
  if (connect.empty()) {
    std::fprintf(stderr, "error: client requires --connect=HOST:PORT\n");
    return 2;
  }
  const std::optional<long> timeout =
      checked_int(flags, "timeout-ms", 30'000, 0, Options::kMaxShardTimeoutMs);
  if (!timeout) return 2;
  const std::optional<long> retries = checked_int(flags, "retries", 0, 0, 100);
  if (!retries) return 2;
  const std::optional<long> backoff_ms =
      checked_int(flags, "retry-backoff-ms", 100, 1, 60'000);
  if (!backoff_ms) return 2;

  // A server that sheds (kBusy + close) or drains can close the socket
  // between our connect and write; that must surface as a retryable EPIPE,
  // not a SIGPIPE death mid-retry-loop.
  std::signal(SIGPIPE, SIG_IGN);
  const HostPort hp = parse_host_port(connect);
  const std::vector<std::uint8_t> payload = encode_request(req);
  for (long attempt = 0;; ++attempt) {
    // Why retry inside the CLI instead of a shell loop: the busy signal is
    // a protocol frame, not an exit-code convention a script could misread.
    std::string retry_why;
    // True once the request frame may have REACHED the server — from then
    // on a failure is ambiguous (the edit may have applied), see above.
    bool delivered = false;
    try {
      const int fd =
          tcp_connect(hp.host, hp.port, static_cast<int>(*timeout));
      delivered = true;  // a write error can still mean partial delivery
      write_shard_frame(fd, ShardFrameType::kRequest, payload);
      const std::optional<ShardFrame> frame =
          read_shard_frame(fd, static_cast<int>(*timeout));
      ::close(fd);
      if (!frame) {
        // The server hung up without answering — a crash or a drain racing
        // our request; indistinguishable from here, retryable either way.
        retry_why = "server closed the connection without a response";
      } else if (frame->type == ShardFrameType::kBusy) {
        delivered = false;  // shed before decode — the edit did NOT apply
        retry_why = std::string(
            reinterpret_cast<const char*>(frame->payload.data()),
            frame->payload.size());
      } else if (frame->type == ShardFrameType::kError) {
        // A definitive answer (bad request, unknown node...) — retrying
        // would just get the same answer slower.
        std::fprintf(stderr, "error: %.*s\n",
                     static_cast<int>(frame->payload.size()),
                     reinterpret_cast<const char*>(frame->payload.data()));
        return 1;
      } else if (frame->type != ShardFrameType::kResponse) {
        std::fprintf(stderr, "error: unexpected frame type %u from server\n",
                     static_cast<unsigned>(frame->type));
        return 1;
      } else {
        const std::string body(
            reinterpret_cast<const char*>(frame->payload.data()),
            frame->payload.size());
        return write_text(body, flags.get("o", "-"), "response") ? 0 : 1;
      }
    } catch (const std::exception& e) {
      retry_why = e.what();  // connect refused / reset / write failure
    }
    if (req.kind == ServeRequestKind::kEdit && delivered) {
      // Ambiguous edit outcome: the server may have applied the batch and
      // died before answering. Retrying could double-apply; stop here and
      // let the operator inspect (`client stats` / a read-only re-query).
      std::fprintf(stderr,
                   "error: %s — the edit may already be applied "
                   "server-side; not retrying\n",
                   retry_why.c_str());
      return 1;
    }
    if (attempt >= *retries) {
      if (req.kind == ServeRequestKind::kStats &&
          retry_why.find("Connection refused") != std::string::npos) {
        // A stats probe against a drained or absent server is an expected
        // operational state (health checks race shutdowns); answer with a
        // usage-class diagnostic and exit 2, not the raw socket error.
        std::fprintf(stderr,
                     "error: no server listening at %s:%u — is `sereep "
                     "serve` running there?\n",
                     hp.host.c_str(), static_cast<unsigned>(hp.port));
        return 2;
      }
      std::fprintf(stderr, "error: %s%s\n", retry_why.c_str(),
                   *retries > 0 ? " (retries exhausted)" : "");
      return 1;
    }
    const long delay =
        std::min(*backoff_ms << std::min(attempt, 20L), 60'000L);
    std::fprintf(stderr, "client: %s; retry %ld/%ld in %ld ms\n",
                 retry_why.c_str(), attempt + 1, *retries, delay);
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
}

void usage() {
  std::fprintf(
      stderr,
      "usage: sereep <stats|convert|compile|sp|epp|sweep|ser|harden|report|"
      "gen|engines|worker|serve|client> ...\n"
      "  stats   <netlist>\n"
      "  convert <in> <out>\n"
      "  compile <netlist> [-o out.sca] [--no-plan]\n"
      "  sp      <netlist> [--engine=pm|mc|seq] [--vectors=N] [--top=N]\n"
      "  epp     <netlist> --node=NAME [--engine=E] [--verify] [--vectors=N]\n"
      "  sweep   <netlist> [--engine=E] [--threads=N] [--shards=N] [--top=N]\n"
      "          [--shard-retries=N] [--shard-timeout-ms=N]\n"
      "          [--on-shard-failure=fail|retry|degrade] [--csv=out.csv]\n"
      "  ser     <netlist> [--engine=E] [--threads=N] [--shards=N] [--top=N]\n"
      "          [--shard-retries=N] [--shard-timeout-ms=N]\n"
      "          [--on-shard-failure=fail|retry|degrade] [--csv=out.csv]\n"
      "  harden  <netlist> [--engine=E] [--target=0.5] [--emit=out.v]\n"
      "          [--iterate=N]  iterative TMR what-if loop (incremental\n"
      "          re-evaluation per protected gate)\n"
      "  report  <netlist> [--validate] [--seq-sp] [--top=N] [--target=T]\n"
      "          [--o=report.md]\n"
      "  gen     [--profile=s953] [--seed=N] [--o=out.bench]\n"
      "  engines\n"
      "  worker  --netlist=SPEC --listen=PORT [--bind=127.0.0.1]\n"
      "  serve   [--port=0] [--bind=127.0.0.1] [--sessions=8] [--threads=N]\n"
      "          [--serve-threads=4] [--max-connections=64]\n"
      "          [--request-timeout-ms=10000] [--drain-timeout-ms=5000]\n"
      "          [--stats-interval-ms=0]\n"
      "  client  <sweep|ser|harden|psens> <netlist> --connect=HOST:PORT\n"
      "          [--target=T] [--node=NAME] [--timeout-ms=N] [--o=FILE]\n"
      "          [--retries=0] [--retry-backoff-ms=100]\n"
      "  client  edit <netlist> --edit='tmr g1; retype g2 NAND; ...'\n"
      "          --connect=HOST:PORT   apply an edit batch to the server's\n"
      "          cached session (later requests see the edited circuit)\n"
      "  client  --stats --connect=HOST:PORT [--o=FILE]\n"
      "--engine=E: any registered EPP engine (see `sereep engines`);\n"
      "  sharded fans sweeps out across --shards local `sereep worker`\n"
      "  processes, or to running `sereep worker --listen` hosts with\n"
      "  --shard-hosts=host:port,... (TCP, unauthenticated; trusted networks).\n"
      "  --shard-retries=N re-dispatches a failed shard's residual up to N\n"
      "  times (implies --on-shard-failure=retry unless a policy is given);\n"
      "  --shard-timeout-ms kills workers that stop making progress;\n"
      "  --on-shard-failure=degrade finishes exhausted shards in-process.\n"
      "netlist: a .bench/.v path, a compiled .sca artifact (see `sereep\n"
      "  compile`), or an embedded name (c17, s27, s953...)\n"
      "flags take --name=VALUE only; a bare --csv or --o writes to stdout.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  // Positional (non --flag) arguments after the command.
  std::vector<std::string> pos;
  for (int i = 2; i < argc; ++i) {
    if (argv[i][0] != '-') pos.emplace_back(argv[i]);
  }
  sereep::bench::Flags flags(argc, argv);
  try {
    if (cmd == "stats" && pos.size() == 1) return cmd_stats(pos[0]);
    if (cmd == "convert" && pos.size() == 2) return cmd_convert(pos[0], pos[1]);
    if (cmd == "compile") return cmd_compile(argc, argv, flags);
    if (cmd == "sp" && pos.size() == 1) return cmd_sp(pos[0], flags);
    if (cmd == "epp" && pos.size() == 1) return cmd_epp(pos[0], flags);
    if (cmd == "sweep" && pos.size() == 1) return cmd_sweep(pos[0], flags);
    if (cmd == "ser" && pos.size() == 1) return cmd_ser(pos[0], flags);
    if (cmd == "harden" && pos.size() == 1) return cmd_harden(pos[0], flags);
    if (cmd == "report" && pos.size() == 1) return cmd_report(pos[0], flags);
    if (cmd == "gen") return cmd_gen(flags);
    if (cmd == "engines") return cmd_engines();
    if (cmd == "worker") return cmd_worker(flags);
    if (cmd == "serve") return cmd_serve(flags);
    if (cmd == "client" && pos.empty() && flags.has("stats")) {
      return cmd_client("stats", "", flags);
    }
    if (cmd == "client" && pos.size() == 2) {
      return cmd_client(pos[0], pos[1], flags);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
