// ShardedEppEngine — the multi-process sweep tier ("sharded" registry key).
//
// sweep()/sweep_rows() partition the cone-cluster plan into N shards
// (shard_plan.hpp — whole clusters, biggest mass first, the same cost model
// the in-process work stealer uses) and fan them out over TCP to `sereep
// worker --listen` processes (shard_transport.hpp): the remote hosts named
// in ShardOptions::hosts, or else a loopback fleet the sweep starts itself,
// one worker per shard on a private artifact of the circuit being swept,
// and kills when it returns. Each worker receives its assignment as one
// kJob frame (shard_protocol.hpp — the parent's SP table travels with it,
// so workers never recompute SPs, and so do the latch weights of a rows
// sweep), sweeps its sites with the batched engine, and streams compact
// rows (sweep_rows) or SiteEpp records (sweep) back. The parent scatters
// every row or record into the caller's site order, so the merged result
// is BIT-FOR-BIT identical to an in-process batched sweep — per-site values
// are pure functions of (circuit, SP, EPP options), independent of
// clustering, threading and sharding; the engine-equivalence tests pin
// this with EXPECT_EQ.
//
// Failure contract (ShardRetryOptions governs it):
//   kFail (default) — a worker that never starts or is unreachable, exits,
//     hangs past the progress deadline, or streams a short / malformed /
//     miscounted result set raises std::runtime_error naming the shard —
//     NEVER a silent partial sweep.
//   kRetry — the supervisor keeps every record it already verified (records
//     are checked against the expected plan-order site as they arrive),
//     re-plans the unreceived residual, and re-dispatches it onto a
//     respawned worker after bounded exponential backoff, up to
//     `retries` times per shard; exhaustion aborts like kFail. Faults that
//     cast doubt on the stream itself (corrupt frame, order or count
//     mismatch) discard the attempt and recompute the WHOLE shard — the
//     retry overwrites the same output slots, so no distrusted record
//     survives. Because per-site values are pure functions of
//     (circuit, SP, EPP options), a recomputed residual merges
//     bit-identically.
//   kDegrade — like kRetry, but budget exhaustion sweeps the residual
//     IN-PROCESS with the batched engine instead of aborting.
// A netlist-fingerprint mismatch (a host's worker serves a different circuit
// than the parent; a local fleet maps the parent's own and cannot) is
// NON-retryable under every policy: it is a deterministic configuration
// error that a respawn can only repeat, so it throws immediately, naming
// both fingerprints.
//
// With neither hosts nor a worker binary, a sweep of two or more shards
// throws: an unavailable transport is a configuration error, never a quiet
// in-process run. shards == 1, fewer than two sites and a one-cluster plan
// are configured in-process runs.
//
// Per-site queries (compute / p_sensitized) never dispatch — a process round
// trip per site would be absurd — they run the in-process compiled engine,
// which is bit-identical anyway.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sereep/engine.hpp"
#include "src/epp/compiled_epp.hpp"
#include "src/epp/shard_plan.hpp"
#include "src/epp/shard_protocol.hpp"

namespace sereep {

/// IEppEngine over worker processes. Construct through the registry
/// ("sharded") or directly from an EngineContext whose `shard` layer names
/// the worker binary or the hosts.
class ShardedEppEngine final : public IEppEngine {
 public:
  /// What the last sweep actually did — surfaced through
  /// Session::shard_diagnostics() so a deployment can verify its sweeps
  /// really fan out, see every recovery the supervisor performed, and pin
  /// process hygiene (workers_reaped == workers_spawned on every completed
  /// sweep — the supervisor asserts it and tests re-assert through here).
  /// Every field except the cumulative `sweeps` counter describes ONLY the
  /// last sweep: run() resets them all in one place before dispatching, so
  /// consecutive sweeps on the same engine/Session never accumulate
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
    bool in_process = false;  ///< last sweep ran without workers
    /// "tcp" when the last sweep dispatched to workers, "in-process" when
    /// no transport was involved at all.
    std::string transport = "in-process";
  };

  explicit ShardedEppEngine(const EngineContext& context);

  [[nodiscard]] SiteEpp compute(NodeId site) override {
    return single_.compute(site);
  }
  [[nodiscard]] double p_sensitized(NodeId site) override {
    return single_.p_sensitized(site);
  }

  [[nodiscard]] std::vector<SiteEpp> sweep(std::span<const NodeId> sites,
                                           unsigned threads) override;
  [[nodiscard]] std::vector<NodeSer> sweep_rows(std::span<const NodeId> sites,
                                                unsigned threads) override;

  [[nodiscard]] const Diagnostics& last_sweep() const noexcept {
    return diagnostics_;
  }

 private:
  /// The common sweep body, out[i] for sites[i]. `Rec` is SiteEpp (a
  /// record job) or SiteRow (a row job, weighed by `latch_weights`).
  template <typename Rec>
  [[nodiscard]] std::vector<Rec> run(std::span<const NodeId> sites,
                                     unsigned threads,
                                     std::span<const double> latch_weights);

  /// Fans `sites` out across worker processes, one per planned shard (two
  /// or more), retrying per the failure policy. Throws on unrecovered
  /// worker failure.
  template <typename Rec>
  [[nodiscard]] std::vector<Rec> run_sharded(
      std::span<const NodeId> sites, std::span<const Shard> shards,
      unsigned threads, std::span<const double> latch_weights);

  /// In-process batched sweep — the shards==1 path, one-cluster plans and
  /// the kDegrade residual.
  template <typename Rec>
  [[nodiscard]] std::vector<Rec> sweep_in_process(
      std::span<const NodeId> sites, unsigned threads,
      std::span<const double> latch_weights);

  /// The single per-sweep reset point for every non-cumulative Diagnostics
  /// field — called by run() before dispatch so no path (sharded,
  /// in-process, or a sweep that throws mid-flight) can leak a
  /// previous sweep's counters into the next one's report.
  void reset_sweep_diagnostics();

  [[nodiscard]] const ConeClusterPlanner* resolve_planner();

  const Circuit& circuit_;
  const CompiledCircuit& compiled_;
  const SignalProbabilities& sp_;
  EppOptions epp_;
  SerLayerOptions ser_;
  ShardOptions shard_;
  /// The parent circuit's identity — sent in every job so workers reject a
  /// divergent load, and checked against every kHello echo.
  NetlistFingerprint fingerprint_;
  const ConeClusterPlanner* planner_;  ///< may arrive lazily
  std::function<const ConeClusterPlanner*()> planner_source_;
  std::unique_ptr<ConeClusterPlanner> owned_planner_;  ///< when neither given
  CompiledEppEngine single_;  ///< per-site queries (never dispatch)
  Diagnostics diagnostics_;
};

/// The worker side of one connection: reads one kJob frame from `fd`, acks
/// it with a kProgress frame, verifies `fingerprint` — the identity of the
/// netlist `compiled` was loaded from — against the job's (kError naming
/// both sides on mismatch), echoes it in a kHello frame, computes the
/// assigned sites with the batched engine over `compiled`, and streams
/// kProgress, then kRowBatch or kResults (the job's output kind), then kDone
/// frames back on `fd` (kError + non-zero return on failure, including a
/// job frame older than kMinShardJobVersion). `sereep worker --listen=PORT`
/// serves it per connection (run_tcp_worker).
///
/// The job's dispatch ordinal keys SEREEP_FAULT_PLAN (src/epp/fault_plan.hpp)
/// structured fault injection, so tests can target "the first worker" vs
/// "the retry worker" deterministically; "exit" dies right after the job
/// read, before any response (the parent sees EOF before any frame).
int run_shard_worker(const CompiledCircuit& compiled,
                     const NetlistFingerprint& fingerprint, int fd);

}  // namespace sereep
