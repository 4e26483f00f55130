// perfbench set-up: seeded netlists, the bytes every op must reproduce, the
// reference spot-check, and the `sereep serve` daemon with its client.
//
// Everything the program under test sees is generated here from --seed: the
// .bench files (ISCAS'89 generator profiles) and, for serve_hot, the daemon
// command line. Expected outputs are computed once per set-up with a
// 1-thread Session and are the oracle for every op of the run.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sereep/sereep.hpp"
#include "src/serve/serve_protocol.hpp"
#include "src/util/subprocess.hpp"

namespace perfbench {

/// One invocation's settings (see main.cpp for the flags).
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string work_dir;  ///< generated netlists, daemon log, trace file
  std::string sereep;    ///< the built `sereep` binary (daemon + workers)
  unsigned nproc = 1;
};

inline constexpr const char* kWorkloads[] = {"cold_sweep", "serve_hot",
                                             "whatif_edit", "sharded_sweep"};

/// A per-purpose seed derived from the run's --seed, so each netlist and
/// each seeded choice gets its own stream.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::string_view purpose);

/// The generator profiles each workload analyses.
[[nodiscard]] std::vector<std::string> workload_profiles(
    const std::string& workload);

/// One generated netlist and the bytes every op on it must reproduce.
struct Netlist {
  std::string profile;
  std::string path;
  std::vector<std::string> site_names;  ///< error-site order
  std::vector<double> psens;            ///< per site, parsed from sweep_csv
  std::string sweep_csv;
  std::string ser_csv;      ///< empty unless the workload reads SER
  std::string harden_text;  ///< harden_text(0.5); serve_hot only
  /// Seeded site indices that psens requests draw from.
  std::vector<std::size_t> psens_pool;
  /// The warm 1-thread session that produced the expected bytes — kept for
  /// serve_hot's uncontended in-process timings.
  std::unique_ptr<sereep::Session> hot;
};

/// What a set-up built for the workloads it serves.
struct Fixture {
  std::vector<Netlist> nets;
  std::optional<sereep::ChildProcess> daemon;
  std::uint16_t port = 0;
  /// whatif_edit's warm nproc-thread session (s38417 profile) and the
  /// gates its ops retype.
  std::unique_ptr<sereep::Session> whatif;
  std::vector<sereep::NodeId> whatif_victims;
  /// Set-up checks that failed (reference spot-check, daemon warm-up,
  /// warm-session psens); any entry makes the run incorrect.
  std::vector<std::string> mismatches;

  [[nodiscard]] Netlist& net(const std::string& profile);
};

/// Sets up everything `workloads` need: generates and writes the netlists,
/// computes the expected outputs at 1 thread, spot-checks 256 seeded sites
/// per netlist against the reference engine, starts and warms the daemon
/// (serve_hot) and the warm session (whatif_edit). Throws when a step cannot
/// run at all; failed checks land in Fixture::mismatches.
[[nodiscard]] Fixture make_fixture(const Config& cfg,
                                   const std::vector<std::string>& workloads);

/// SIGTERM-drains the daemon (kill after 10 s) and reaps it.
void stop_daemon(Fixture& fixture);

/// One request/response round trip on a fresh connection, like
/// `sereep client`.
struct Reply {
  bool ok = false;  ///< a kResponse frame arrived
  std::string body;
  std::string error;     ///< why !ok: kError/kBusy text or the exception
  double ttfb_ms = 0;    ///< request written -> first response byte
  double transfer_ms = 0;  ///< first byte -> whole frame read
  double total_ms = 0;   ///< connect -> whole frame read
};
[[nodiscard]] Reply serve_request(std::uint16_t port,
                                  const sereep::ServeRequest& request);

/// The daemon's kStats snapshot as name -> value.
[[nodiscard]] std::map<std::string, std::uint64_t> serve_stats(
    std::uint16_t port);

/// AND<->NAND, OR<->NOR; throws for any other type.
[[nodiscard]] sereep::GateType dual(sereep::GateType type);

/// A one-op edit plan retyping `node` to `type`.
[[nodiscard]] sereep::EditPlan retype_plan(const std::string& node,
                                           sereep::GateType type);

/// The expected bytes of a psens request for site `index` of `net`.
[[nodiscard]] std::string psens_bytes(const Netlist& net, std::size_t index);

}  // namespace perfbench
