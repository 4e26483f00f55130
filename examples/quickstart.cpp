// Quickstart: the minimal sereep flow on a real netlist, through the public
// sereep::Session facade.
//
//   1. Open a session (embedded c17 here; any .bench/.v path works).
//   2. Per-node error-propagation probability: one sweep call.
//   3. Full-circuit SER estimate + most vulnerable node.
//
// The session builds the shared artifacts (compiled circuit view, signal
// probabilities, cone-cluster sweep plan) lazily, exactly once — the sweep
// and the SER estimate below share them.
//
// Build & run:  ./build/example_quickstart [path/to/netlist.bench]
#include <cstdio>

#include "sereep/sereep.hpp"
#include "src/netlist/stats.hpp"

int main(int argc, char** argv) {
  using namespace sereep;

  // 1. A session over a circuit: embedded ISCAS'85 c17 by default.
  Session session = Session::open(argc > 1 ? argv[1] : "c17");
  const Circuit& circuit = session.circuit();
  std::printf("Loaded %s\n", compute_stats(circuit).summary().c_str());

  // 2. EPP of every node: one batched sweep (engine, threads, SP source are
  // all sereep::Options fields — defaults shown here).
  std::printf("\nPer-node sensitization probability (EPP):\n");
  for (const SiteEpp& epp : session.sweep()) {
    std::printf(
        "  %-8s P_sens = %.4f  (cone %zu signals, %zu outputs reachable)\n",
        circuit.node(epp.site).name.c_str(), epp.p_sensitized, epp.cone_size,
        epp.sinks.size());
  }

  // 3. Full SER estimate: R_SEU x P_latched x P_sensitized per node. The
  // sweep above already folded its records into the session's result
  // table, so this runs no second sweep.
  const CircuitSer& ser = session.ser();
  std::printf("\nCircuit SER: %.3e failures/s (%.2f FIT)\n", ser.total_ser,
              ser.total_fit());
  const NodeSer worst = ser.ranked().front();
  std::printf("Most vulnerable node: %s (%.1f%% of total SER)\n",
              circuit.node(worst.node).name.c_str(),
              100.0 * worst.ser / ser.total_ser);
  return 0;
}
