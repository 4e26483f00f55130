// ShardedEppEngine — the multi-process sweep tier ("sharded" registry key).
//
// It is the batched adapter (src/api/batched_engine.hpp) plus one fan-out:
// sweep_rows() partitions the cone-cluster plan into N shards
// (shard_plan.hpp — whole clusters, biggest mass first, the same cost model
// the in-process work stealer uses) and fans them out over TCP to `sereep
// worker --listen` processes (shard_transport.hpp): the remote hosts named
// in ShardOptions::hosts, or else a loopback fleet the sweep starts itself,
// one worker per shard on a private artifact of the circuit being swept,
// and kills when it returns. Each worker receives its assignment as one
// kJob frame (shard_protocol.hpp — the parent's SP table and latch weights
// travel with it, so workers never recompute SPs and need no SER model),
// sweeps its sites with the batched engine, and streams back one 20-byte
// row per site: P_sensitized and the latch-weighted term, exactly what a
// result-table row needs. The parent scatters every row into the caller's
// site order, so the merged table is BIT-FOR-BIT identical to an
// in-process batched sweep — per-site values are pure functions of
// (circuit, SP, EPP options), independent of clustering, threading and
// sharding; the engine-equivalence tests pin this with EXPECT_EQ.
//
// sweep() (full records with per-sink distributions), compute() and
// p_sensitized() are the base class's in-process batched paths: only table
// fills fan out, so the protocol has one job kind.
//
// Failure contract (ShardRetryOptions governs it):
//   kFail (default) — a worker that never starts or is unreachable, exits,
//     hangs past the progress deadline, or streams a short / malformed /
//     miscounted result set raises std::runtime_error naming the shard —
//     NEVER a silent partial sweep.
//   kRetry — the supervisor keeps every row it already verified (rows are
//     checked against the expected plan-order site as they arrive),
//     re-plans the unreceived residual, and re-dispatches it onto a
//     respawned worker after bounded exponential backoff, up to
//     `retries` times per shard; exhaustion aborts like kFail. Faults that
//     cast doubt on the stream itself (corrupt frame, order or count
//     mismatch) discard the attempt and recompute the WHOLE shard — the
//     retry overwrites the same output slots, so no distrusted row
//     survives. Because per-site values are pure functions of
//     (circuit, SP, EPP options), a recomputed residual merges
//     bit-identically.
//   kDegrade — like kRetry, but budget exhaustion sweeps the residual
//     IN-PROCESS through the base class's rows sweep instead of aborting.
// A netlist-fingerprint mismatch (a host's worker serves a different circuit
// than the parent; a local fleet maps the parent's own and cannot) is
// NON-retryable under every policy: it is a deterministic configuration
// error that a respawn can only repeat, so it throws immediately, naming
// both fingerprints.
//
// With neither hosts nor a worker binary, a rows sweep of two or more
// shards throws: an unavailable transport is a configuration error, never a
// quiet in-process run. shards == 1, fewer than two sites and a one-cluster
// plan are configured in-process runs.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "sereep/engine.hpp"
#include "src/api/batched_engine.hpp"
#include "src/epp/shard_plan.hpp"
#include "src/epp/shard_protocol.hpp"

namespace sereep {

/// IEppEngine over worker processes. Construct through the registry
/// ("sharded") or directly from an EngineContext whose `shard` layer names
/// the worker binary or the hosts.
class ShardedEppEngine final : public BatchedEngine {
 public:
  /// What the last sweep actually did — surfaced through
  /// Session::shard_diagnostics() so a deployment can verify its table fills
  /// really fan out, see every recovery the supervisor performed, and pin
  /// process hygiene (workers_reaped == workers_spawned on every completed
  /// sweep — the supervisor asserts it and tests re-assert through here).
  /// Every field except the cumulative `sweeps` counter describes ONLY the
  /// last sweep (rows or records): each sweep starts from a fresh record,
  /// so consecutive sweeps on the same engine/Session never accumulate
  /// respawn or re-dispatch counts.
  struct Diagnostics {
    std::size_t sweeps = 0;        ///< sweeps served so far (cumulative)
    /// Worker dispatches by the last sweep — connections opened, each
    /// served by a freshly forked worker child — INCLUDING respawns, so on
    /// a clean sweep it equals the shard count and each respawn raises it.
    unsigned workers_spawned = 0;
    /// Dispatches torn down (connections closed) by the last sweep; equals
    /// workers_spawned whenever the sweep returned (asserted internally).
    unsigned workers_reaped = 0;
    unsigned respawns = 0;           ///< retry re-dispatches performed
    unsigned deadline_expiries = 0;  ///< progress-deadline kills
    unsigned degraded_shards = 0;    ///< shards finished in-process (kDegrade)
    /// Total sites re-dispatched (or degraded) across all retries — the
    /// recomputed residual mass, for observability of retry cost.
    std::size_t redispatched_sites = 0;
    std::vector<std::size_t> shard_sites;  ///< per-shard site counts
    /// Last sweep ran without workers: every records sweep, and the rows
    /// sweeps that are configured in-process runs.
    bool in_process = false;
    /// "tcp" when the last sweep dispatched to workers, "in-process" when
    /// no transport was involved at all.
    std::string transport = "in-process";
  };

  explicit ShardedEppEngine(const EngineContext& context);

  /// Full records, in-process (the base class's sweep); never starts a
  /// worker.
  [[nodiscard]] std::vector<SiteEpp> sweep(std::span<const NodeId> sites,
                                           unsigned threads) override;
  /// The result-table rows, fanned out across worker processes.
  [[nodiscard]] std::vector<NodeSer> sweep_rows(std::span<const NodeId> sites,
                                                unsigned threads) override;

  [[nodiscard]] const Diagnostics& last_sweep() const noexcept {
    return diagnostics_;
  }

 private:
  /// Opens the last-sweep record: `sweeps` counts on and every other field
  /// starts fresh, so no path (sharded, in-process, or a sweep that throws
  /// mid-flight) can leak a previous sweep's counters into this one's.
  void begin_sweep();

  /// Records that the sweep just begun covers its `sites` without workers.
  void record_in_process(std::size_t sites);

  /// Fans `sites` out across worker processes, one per planned shard (two
  /// or more), retrying per the failure policy; out[i] for sites[i].
  /// Throws on unrecovered worker failure.
  [[nodiscard]] std::vector<NodeSer> run_sharded(
      std::span<const NodeId> sites, std::span<const Shard> shards,
      unsigned threads);

  ShardOptions shard_;
  /// The parent circuit's identity — sent in every job so workers reject a
  /// divergent load, and checked against every kHello echo.
  CircuitFingerprint fingerprint_;
  Diagnostics diagnostics_;
};

/// The worker side of one connection: reads one kJob frame from `fd`, acks
/// it with a kProgress frame, verifies `fingerprint` — the identity of the
/// netlist `compiled` was loaded from — against the job's (kError naming
/// both sides on mismatch), echoes it in a kHello frame, computes the
/// assigned sites' rows with the batched engine over `compiled`, and streams
/// kProgress, kRowBatch, then kDone frames back on `fd` (kError + non-zero
/// return on failure, including a job frame older than kMinShardJobVersion).
/// `sereep worker --listen=PORT` serves it per connection (run_tcp_worker).
///
/// The job's dispatch ordinal keys SEREEP_FAULT_PLAN (src/epp/fault_plan.hpp)
/// structured fault injection, so tests can target "the first worker" vs
/// "the retry worker" deterministically; "exit" dies right after the job
/// read, before any response (the parent sees EOF before any frame).
int run_shard_worker(const CompiledCircuit& compiled,
                     const CircuitFingerprint& fingerprint, int fd);

}  // namespace sereep
