// E3: scaling behaviour — the introduction's motivating claim.
//
// "The SER estimation time of a node in large circuits exponentially
// increases with the size of the circuit. Hence, SER estimation of larger
// circuits becomes intractable with these techniques." The sweep measures
// per-node EPP time (reference engine vs the compiled flat-CSR kernel) and
// per-node random-simulation time as gate count grows, demonstrating that
// the EPP approach stays near-linear in cone size while simulation cost
// scales with circuit size × vector count — and that the compiled kernel's
// advantage grows with circuit size (it is a cache-behaviour win).
//
// A second table reports the thread-scaling curve of the dynamic
// work-stealing all-nodes sweep on the largest circuit.
//
// Flags: --vectors=N (default 16384)  --sim-sites=K (default 10)
//        --max-threads=T (default 8)
#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "bench/common.hpp"
#include "sereep/sereep.hpp"
#include "src/netlist/generator.hpp"
#include "src/sim/fault_injection.hpp"
#include "src/util/strings.hpp"
#include "src/util/table.hpp"
#include "src/util/timer.hpp"


int main(int argc, char** argv) {
  using namespace sereep;
  bench::Flags flags(argc, argv);
  const auto vectors = static_cast<std::size_t>(
      flags.get_count("vectors", 16384, 1, 1'000'000'000));
  const auto sim_sites = static_cast<std::size_t>(
      flags.get_count("sim-sites", 10, 1, 1'000'000'000));
  const auto max_threads =
      static_cast<unsigned>(flags.get_count("max-threads", 8, 1, 1024));

  std::printf("Scaling sweep — per-node cost vs circuit size\n\n");
  AsciiTable table({"Gates", "Depth", "EPP/node(us)", "EPPc/node(us)", "Spdup",
                    "Sim/node(ms)", "Sim/EPPc", "EPPc all nodes(ms)"});

  std::optional<Session> largest;
  for (std::size_t gates : {250, 500, 1000, 2000, 4000, 8000, 16000}) {
    GeneratorProfile p;
    p.name = "sweep" + std::to_string(gates);
    p.num_inputs = 24;
    p.num_outputs = 16;
    p.num_dffs = gates / 20;
    p.num_gates = gates;
    p.target_depth = 12 + static_cast<std::uint32_t>(gates / 800);
    // One Session holds the shared artifacts; both timed engines resolve
    // through the registry over the same context (the A/B the --engine flag
    // exposes everywhere else).
    Session session(generate_circuit(p, 2024));
    const Circuit& c = session.circuit();
    const std::vector<NodeId> sites(session.sites().begin(),
                                    session.sites().end());
    EngineContext ctx;
    ctx.circuit = &c;
    ctx.compiled = &session.compiled();
    ctx.sp = &session.sp();

    const auto ref = EngineRegistry::instance().create("reference", ctx);
    Stopwatch epp_clock;
    for (NodeId s : sites) (void)ref->p_sensitized(s);
    const double epp_s = epp_clock.seconds();

    const auto comp = EngineRegistry::instance().create("compiled", ctx);
    Stopwatch epp_c_clock;
    for (NodeId s : sites) (void)comp->p_sensitized(s);
    const double epp_c_s = epp_c_clock.seconds();

    FaultInjector fi(c);
    McOptions mc;
    mc.num_vectors = vectors;
    const auto mc_sites = subsample_sites(sites, sim_sites);
    Stopwatch mc_clock;
    for (NodeId s : mc_sites) (void)fi.run_site(s, mc);
    const double mc_s = mc_clock.seconds();

    const double epp_node_us = epp_s * 1e6 / static_cast<double>(sites.size());
    const double epp_c_node_us =
        epp_c_s * 1e6 / static_cast<double>(sites.size());
    const double sim_node_ms =
        mc_s * 1e3 / static_cast<double>(mc_sites.size());
    table.add_row({std::to_string(gates), std::to_string(c.depth()),
                   format_fixed(epp_node_us, 2), format_fixed(epp_c_node_us, 2),
                   format_fixed(epp_s / epp_c_s, 2),
                   format_fixed(sim_node_ms, 3),
                   format_fixed(sim_node_ms * 1e3 / epp_c_node_us, 0),
                   format_fixed(epp_c_s * 1e3, 1)});
    largest.emplace(std::move(session));
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("Expected shape: Sim/EPPc ratio grows with circuit size — the\n"
              "paper's argument for replacing simulation — and Spdup grows\n"
              "with it (the flat-CSR kernel is a cache win).\n\n");

  // Thread-scaling of the dynamic work-stealing sweep on the largest
  // circuit's session (batched engine — the default). Results are identical
  // at every thread count; only wall time changes. The compiled view, SPs
  // and cluster plan stay memoized across the re-configurations (only the
  // engine is re-resolved — see the Session invalidation contract).
  Session& ls = *largest;
  AsciiTable threads_table({"Threads", "Sweep(ms)", "Speedup", "Sites/s"});
  double t1_s = 0.0;
  const std::size_t n_sites = ls.sites().size();
  // Powers of two up to the cap, plus the cap itself when it is not one
  // (--max-threads=6 measures 1, 2, 4 and 6).
  std::vector<unsigned> thread_counts;
  const unsigned cap = std::max(1u, max_threads);
  for (unsigned t = 1; t < cap; t *= 2) thread_counts.push_back(t);
  thread_counts.push_back(cap);
  (void)ls.planner();  // hoist the one-time plan out of the timed region
  for (unsigned t : thread_counts) {
    Options opt = ls.options();
    opt.threads = t;
    ls.set_options(std::move(opt));
    Stopwatch clock;
    (void)ls.sweep_p_sensitized();
    const double s = clock.seconds();
    if (t == 1) t1_s = s;
    threads_table.add_row(
        {std::to_string(t), format_fixed(s * 1e3, 1),
         format_fixed(t1_s / s, 2),
         format_fixed(static_cast<double>(n_sites) / s, 0)});
  }
  std::printf("Work-stealing sweep, %zu gates, %zu sites:\n%s\n",
              ls.circuit().gate_count(), n_sites,
              threads_table.render().c_str());
  return 0;
}
