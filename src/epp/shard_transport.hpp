// ShardFleet — how a shard's job frame reaches a worker and its result
// stream comes back. There is one transport: TCP to `sereep worker
// --listen` processes.
//
// A sweep either names its workers or starts its own:
//
//   remote — ShardOptions::hosts lists "host:port" endpoints of long-lived
//     `sereep worker --listen=PORT` processes (started by hand, possibly on
//     other machines). Their processes belong to someone else; the fleet
//     only opens and closes connections.
//   local — without hosts, the fleet writes the circuit being swept to a
//     private artifact, `${TMPDIR:-/tmp}/sereep-fleet-XXXXXX/circuit.sca`
//     (the directory is mkdtemp'd, mode 0700), and starts one loopback
//     `worker_path worker --netlist=<that file> --listen=0` per planned
//     shard through ChildProcess (src/util/subprocess.hpp). Each worker maps
//     the file before it prints its port line, so the fleet removes the file
//     and its directory once every line has arrived or failed (RAII: a throw
//     removes them too). It kills every worker's process group when the
//     sweep returns. The workers hold the parent's own circuit, edited or
//     in-memory alike, so their fingerprints always match.
//
// Either way dispatch ordinal k opens one fresh connection to worker
// k % N, writes the kJob frame, half-closes the socket (the worker sees EOF
// after its one frame) and reads the results back on the same socket. The
// worker's accept loop serves each connection in a forked child, so a retry
// gets a fresh worker process and lands on the NEXT endpoint: one dead
// worker cannot absorb a shard's whole retry budget.
//
// Failure surface: a dispatch that cannot reach its worker is recorded on
// its connection as a RETRYABLE failure, never thrown — under a retry
// policy it is just that shard's first failure. That covers a refused or
// timed-out connect, EPIPE on the job write, and a local worker that never
// started: the fleet's directory or artifact could not be written, exec
// failed, it exited before printing its port line, or no line arrived within
// the progress deadline (ShardRetryOptions::timeout_ms; 0 waits forever).
// Only local resource exhaustion (pipe2/fork failing) throws.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "sereep/options.hpp"
#include "src/netlist/circuit.hpp"
#include "src/util/subprocess.hpp"

namespace sereep {

/// One dispatch's result stream, as the supervisor sees it.
struct ShardConnection {
  /// The socket the worker's frames arrive on; -1 once closed, and from the
  /// start when the job never reached a worker.
  int fd = -1;
  /// Why the job never reached a worker; empty when it was sent. The
  /// supervisor treats it like any attempt failure with nothing received.
  std::string send_error;
};

class ShardFleet {
 public:
  /// Uses shard.hosts when set; otherwise starts `local_workers` loopback
  /// shard.worker_path workers on an artifact of `circuit`. Connects time
  /// out after shard.retry.timeout_ms, or after a bounded default when the
  /// deadline is disabled (a blackholed host must become a retryable named
  /// failure, not a hang).
  ShardFleet(const ShardOptions& shard, const Circuit& circuit,
             std::size_t local_workers);
  /// Closes every open connection, then SIGKILLs and reaps each local
  /// worker's process group — its connection children, hung ones included,
  /// go with it. An exception mid-sweep therefore leaks no process.
  ~ShardFleet();
  ShardFleet(const ShardFleet&) = delete;
  ShardFleet& operator=(const ShardFleet&) = delete;

  /// Connects dispatch ordinal `spawn` to worker spawn % N and sends
  /// `payload` as the kJob frame. The reference stays valid for the fleet's
  /// lifetime.
  ShardConnection& dispatch(std::span<const std::uint8_t> payload,
                            unsigned spawn);

  /// Closes the connection's socket. Idempotent.
  void close(ShardConnection& connection);

  /// Dispatches attempted / connections torn down — the supervisor's
  /// Diagnostics::workers_spawned/workers_reaped food, and the hygiene
  /// invariant (opened() == closed() after every completed sweep). A
  /// dispatch that never reached a worker counts as both at once.
  [[nodiscard]] unsigned opened() const noexcept { return opened_; }
  [[nodiscard]] unsigned closed() const noexcept { return closed_; }

  /// "worker '<path>'" / "hosts a:1,b:2" — for shard-failure messages.
  [[nodiscard]] const std::string& peer_description() const noexcept {
    return peer_;
  }

 private:
  /// Where one dispatch ordinal residue connects.
  struct Endpoint {
    std::string address;      ///< "host:port"
    std::string start_error;  ///< non-empty: a local worker that never started
  };

  std::vector<Endpoint> endpoints_;
  std::vector<ChildProcess> local_;  ///< the workers this fleet started
  std::deque<ShardConnection> connections_;  ///< stable addresses
  std::string peer_;
  int connect_timeout_ms_;
  unsigned opened_ = 0;
  unsigned closed_ = 0;
};

/// The accept loop behind `sereep worker --listen=PORT`, and the only code
/// that knows a spec's format: loads `netlist_spec` ONCE into a compiled
/// view plus fingerprint (a .sca is mapped; anything else is parsed and
/// flattened), binds `bind_addr:port` (0 = ephemeral), prints exactly one
/// "sereep worker listening on ADDR:PORT\n" line to stdout, then serves
/// each connection in a forked child running run_shard_worker() on that
/// view (fork shares the pages, so per-job cost is the sweep alone). The
/// child takes the dispatch ordinal from the job frame — the key
/// SEREEP_FAULT_PLAN directives target — and dies with the accept loop
/// (PR_SET_PDEATHSIG), so killing the worker never orphans a hung child.
/// Never returns except on setup failure (non-zero).
int run_tcp_worker(const std::string& netlist_spec,
                   const std::string& bind_addr, std::uint16_t port);

}  // namespace sereep
