// ShardedEppEngine — the multi-process sweep tier ("sharded" registry key).
//
// sweep()/sweep_rows() partition the cone-cluster plan into N shards
// (shard_plan.hpp — whole clusters, biggest mass first, the same cost model
// the in-process work stealer uses) and fan them out to worker processes
// over a ShardTransport (shard_transport.hpp): pipes to locally-forked
// `sereep worker --netlist=...` instances, or TCP connections to remote
// `sereep worker --listen=PORT` hosts named in ShardOptions::hosts. Either
// way each worker receives its assignment as one kJob frame
// (shard_protocol.hpp — the parent's SP table travels with it, so workers
// never recompute SPs, and so do the latch weights of a rows sweep), sweeps
// its sites with the batched engine, and streams compact rows (sweep_rows)
// or SiteEpp records (sweep) back. The parent scatters every row or record
// into the caller's site order, so the merged result is BIT-FOR-BIT
// identical to an in-process batched sweep
// — per-site values are pure functions of (circuit, SP, EPP options),
// independent of clustering, threading and sharding; the engine-equivalence
// tests pin this with EXPECT_EQ.
//
// Failure contract (ShardRetryOptions governs it):
//   kFail (default) — a worker that exits, hangs past the progress deadline,
//     or streams a short / malformed / miscounted result set raises
//     std::runtime_error naming the shard — NEVER a silent partial sweep.
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
// A netlist-fingerprint mismatch (worker loaded a different circuit than the
// parent) is NON-retryable under every policy: it is a deterministic
// configuration error that a respawn can only repeat, so it throws
// immediately, naming both fingerprints.
//
// In-process fallback exists only for "sharding unavailable" configurations
// (no worker binary / no loadable netlist spec) and only when
// ShardOptions::fallback_to_in_process opts in; see the policy note there.
//
// Per-site queries (compute / p_sensitized) never fork — a process round
// trip per site would be absurd — they run the in-process compiled engine,
// which is bit-identical anyway.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sereep/engine.hpp"
#include "src/epp/compiled_epp.hpp"
#include "src/epp/shard_plan.hpp"
#include "src/epp/shard_protocol.hpp"

namespace sereep {

/// IEppEngine over worker processes. Construct through the registry
/// ("sharded") or directly from an EngineContext whose `shard` layer names
/// the worker binary and netlist spec.
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
    /// Worker dispatches by the last sweep (processes forked on the pipe
    /// transport, connections opened on TCP) — INCLUDING respawns, so on a
    /// clean sweep it equals the shard count and each respawn raises it.
    unsigned workers_spawned = 0;
    /// Dispatches torn down (zombie-reaped / closed) by the last sweep;
    /// equals workers_spawned whenever the sweep returned (asserted
    /// internally).
    unsigned workers_reaped = 0;
    unsigned respawns = 0;           ///< retry re-dispatches performed
    unsigned deadline_expiries = 0;  ///< progress-deadline kills
    unsigned degraded_shards = 0;    ///< shards finished in-process (kDegrade)
    /// Total sites re-dispatched (or degraded) across all retries — the
    /// recomputed residual mass, for observability of retry cost.
    std::size_t redispatched_sites = 0;
    std::vector<std::size_t> shard_sites;  ///< per-shard site counts
    bool in_process = false;  ///< last sweep ran without forking
    /// Which ShardTransport the last sweep used: "pipe", "tcp", or
    /// "in-process" when no transport was involved at all.
    std::string transport = "in-process";
  };

  explicit ShardedEppEngine(const EngineContext& context);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "sharded";
  }
  [[nodiscard]] EngineCaps caps() const noexcept override {
    return {.threads = true, .simd = true, .processes = true};
  }

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

  /// In-process batched sweep — the fallback, the shards==1 path and the
  /// kDegrade residual.
  template <typename Rec>
  [[nodiscard]] std::vector<Rec> sweep_in_process(
      std::span<const NodeId> sites, unsigned threads,
      std::span<const double> latch_weights);

  /// The single per-sweep reset point for every non-cumulative Diagnostics
  /// field — called by run() before dispatch so no path (sharded,
  /// in-process, fallback, or a sweep that throws mid-flight) can leak a
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
  CompiledEppEngine single_;  ///< per-site queries (never fork)
  Diagnostics diagnostics_;
};

/// The worker side: reads one kJob frame from `in_fd`, acks it with a
/// kProgress frame, loads `netlist_spec` (or reuses `preloaded` — the TCP
/// accept loop parses once and forks per connection), verifies the loaded
/// circuit's fingerprint against the job's (kError naming both sides on
/// mismatch), echoes its fingerprint in a kHello frame, computes the
/// assigned sites with the batched engine, and streams kProgress, then
/// kRowBatch or kResults (the job's output kind), then kDone frames to
/// `out_fd` (kError + non-zero return on failure, including a job frame
/// older than kMinShardJobVersion). `sereep worker --netlist=SPEC
/// --spawn=N` is a thin wrapper over this; `sereep worker --listen=PORT`
/// serves it per connection.
///
/// The dispatch ordinal keys SEREEP_FAULT_PLAN (src/epp/fault_plan.hpp)
/// structured fault injection, so tests can target "the first worker" vs
/// "the retry worker" deterministically. Pipe workers get it as `cli_spawn`
/// (argv, known before the job arrives — an "exit" directive dies before
/// reading anything); TCP workers pass nullopt and take it from the job
/// frame, where "exit" dies right after the read, before any response —
/// observably identical to the parent (EOF before any frame).
int run_shard_worker(const std::string& netlist_spec,
                     std::optional<unsigned> cli_spawn, int in_fd, int out_fd,
                     const Circuit* preloaded = nullptr);

}  // namespace sereep
