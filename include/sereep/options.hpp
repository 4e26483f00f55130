// sereep public API — layered run configuration.
//
// One Options value configures a whole Session: engine selection (a registry
// key, see sereep/engine.hpp), parallelism, the signal-probability source and
// every model knob the analysis layers expose (the SIMD kernel choice is one
// of them: EppOptions::simd).
// The struct replaces the scattered per-subsystem option plumbing (SpOptions
// here, EppOptions there, SER models somewhere else) with ONE value that
// validates as a unit — invalid combinations fail at Session construction
// with an actionable message, not deep inside a sweep.
//
// Layering: each nested field is the subsystem's own option struct, so the
// facade adds no second vocabulary — anything expressible against the
// internal headers is expressible here, and defaults stay in one place (the
// subsystem that owns them).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/epp/epp_engine.hpp"
#include "src/ser/latching.hpp"
#include "src/ser/seu_rate.hpp"
#include "src/sigprob/signal_prob.hpp"

namespace sereep {

/// Where a Session's signal probabilities come from.
enum class SpSource {
  /// Parker-McCluskey single topological pass over the compiled CSR view —
  /// the paper's SPT step and the production default.
  kParkerMcCluskey,
  /// Fixed-point iteration of the combinational pass, feeding FF D-pin SPs
  /// back to FF outputs until the state distribution converges.
  kSequentialFixedPoint,
  /// Bit-parallel Monte-Carlo sampling (sp.monte_carlo_vectors vectors).
  kMonteCarlo,
};

/// Signal-probability layer configuration.
struct SpLayerOptions {
  SpSource source = SpSource::kParkerMcCluskey;
  /// Source probabilities (inputs / FF outputs) for the analytic passes.
  SpOptions probabilities;
  /// Sample count when source == kMonteCarlo.
  std::size_t monte_carlo_vectors = 65536;
};

/// SER layer configuration.
struct SerLayerOptions {
  SeuRateModel seu;        ///< raw upset-rate model
  LatchingModel latching;  ///< latching-window model per sink
};

/// What the shard supervisor does when a worker FAILS mid-sweep (dies, hangs
/// past the deadline, or corrupts its stream).
enum class OnShardFailure {
  /// Abort the whole sweep with an exception naming the shard (the default —
  /// PR 5's contract: no silent partial sweep, ever).
  kFail,
  /// Re-plan the shard's unreceived residual and re-dispatch it onto a
  /// respawned worker, up to `ShardRetryOptions::retries` times per shard
  /// (with bounded exponential backoff); exhaustion aborts like kFail.
  /// Results stay bit-for-bit identical — per-site values are pure functions
  /// of (circuit, SP, EPP options), so a recomputed residual merges exactly.
  kRetry,
  /// Like kRetry, but budget exhaustion sweeps the residual IN-PROCESS with
  /// the batched engine instead of aborting — the sweep always completes
  /// (bit-identically), at in-process speed for the degraded remainder.
  kDegrade,
};

/// Fault-tolerance layer of the sharded engine (the --shard-retries /
/// --shard-timeout-ms / --on-shard-failure CLI flags).
struct ShardRetryOptions {
  /// Re-dispatch budget PER SHARD when `on_failure` != kFail. 0 means a
  /// first failure immediately hits the exhaustion policy. Bounded by
  /// Options::kMaxShardRetries in validate().
  unsigned retries = 2;

  /// Progress deadline in milliseconds: a worker that produces NO bytes for
  /// this long is killed and treated as failed (a hung worker must not hang
  /// the sweep). 0 — the default — disables the deadline. The clock resets
  /// on every received byte, and workers send progress frames between
  /// compute slices, so set this comfortably above the worst netlist-load /
  /// single-slice-compute gap, not above the whole sweep.
  unsigned timeout_ms = 0;

  /// Failure policy; see OnShardFailure. kFail preserves the loud-abort
  /// contract; kRetry/kDegrade make long sweeps survive worker loss.
  OnShardFailure on_failure = OnShardFailure::kFail;

  /// Bounded exponential backoff before respawning a failed shard's worker:
  /// attempt k sleeps min(backoff_base_ms << (k-1), backoff_max_ms). Base 0
  /// disables the sleep (tests and benches).
  unsigned backoff_base_ms = 25;
  unsigned backoff_max_ms = 2000;
};

/// Sharded-engine layer configuration (the "sharded" registry key): sweeps
/// fan out over TCP to `shards` `sereep worker --listen` PROCESSES, each of
/// which loads its netlist once, computes its assigned sites with the
/// batched engine, and streams results back. Without `hosts`, every sweep
/// starts its own loopback fleet (one `worker_path worker --netlist=netlist
/// --listen=0` per shard) and kills it when the sweep returns; with
/// `hosts`, it dispatches to workers already running there
/// (src/epp/shard_protocol.hpp documents the frame format,
/// src/epp/shard_transport.hpp the transport). Results are bit-for-bit
/// identical to the in-process batched engine — the shard planner only
/// partitions work.
struct ShardOptions {
  /// Worker process count for sharded sweeps. 1 runs in-process (the
  /// batched path with no workers). Bounded by kMaxShards in validate().
  unsigned shards = 2;

  /// Path to the worker binary (the `sereep` CLI) a local fleet runs. The
  /// CLI fills this with its own executable path; library users must point
  /// it at a built `sereep`. Empty (and no `hosts`) = sharding unavailable
  /// (see fallback_to_in_process).
  std::string worker_path;

  /// Netlist spec a local fleet loads — a .bench/.v/.sca path or an
  /// embedded name, exactly the vocabulary of load_netlist(). Session::open()
  /// records its spec here automatically; sessions built from an in-memory
  /// Circuit have no spec, so a local fleet is unavailable for them unless
  /// one is supplied.
  std::string netlist;

  /// Running workers, each a "host:port" naming a `sereep worker
  /// --listen=PORT` process. Non-empty replaces the per-sweep local fleet:
  /// dispatch ordinal k (the initial fan-out and every retry re-dispatch
  /// count up one sequence) connects to hosts[k % hosts.size()], as it
  /// connects to local worker k % N of an N-worker fleet, so retries rotate
  /// across hosts and one dead host cannot absorb a shard's whole retry
  /// budget. The workers load their OWN --netlist (cross-checked every
  /// dispatch by the fingerprint handshake), so `worker_path`/`netlist` are
  /// not required here. The protocol is unauthenticated — trusted networks
  /// only.
  /// Validated by Options::validate(): each entry must parse as host:port
  /// with a port in 1..65535, at most kMaxShards entries.
  std::vector<std::string> hosts;

  /// Policy when sharding is UNAVAILABLE (no hosts, and an empty
  /// worker_path or netlist): true silently serves the sweep from the
  /// in-process batched path (results are identical anyway); false — the
  /// default — fails loudly, because an explicitly requested sharded run
  /// that quietly runs single-process would mask a broken deployment. Worker DEATH is governed by
  /// `retry.on_failure`, never by this flag: under the default kFail policy
  /// it is a hard error — partial sweeps must not masquerade as complete
  /// ones — and under kRetry/kDegrade the supervisor recomputes the lost
  /// residual rather than ever serving partial data.
  bool fallback_to_in_process = false;

  /// Fault tolerance: retry budget, progress deadline, failure policy.
  ShardRetryOptions retry;
};

/// One Session's full configuration.
struct Options {
  /// Upper bound validate() enforces on `threads`. Well past any plausible
  /// machine; catches the negative-flag wraparound class of bug (e.g. a
  /// -1 cast to unsigned is ~4.3e9) without clamping silently.
  static constexpr unsigned kMaxThreads = 1024;

  /// Upper bound validate() enforces on `shard.shards` — one worker process
  /// per shard, so this is a fork bomb guard, not a tuning knob.
  static constexpr unsigned kMaxShards = 256;

  /// Upper bound validate() enforces on `shard.retry.retries`: each retry
  /// respawns a process and recomputes a residual, so a huge budget is a
  /// misconfiguration (a shard failing 16 times is dead, not unlucky).
  static constexpr unsigned kMaxShardRetries = 16;

  /// Upper bound validate() enforces on `shard.retry.timeout_ms` (24 h) and
  /// the backoff knobs (10 min) — catches unit confusion (seconds vs ms).
  static constexpr unsigned kMaxShardTimeoutMs = 86'400'000;
  static constexpr unsigned kMaxShardBackoffMs = 600'000;

  /// EPP engine, by registry key ("reference" | "compiled" | "batched" |
  /// "sharded", plus anything registered at runtime — see EngineRegistry).
  /// All built-in engines are bit-for-bit equal; the choice is observable
  /// only in timing.
  std::string engine = "batched";

  /// Worker threads for sweeps (1 = sequential, 0 = hardware concurrency).
  /// Results are bit-identical at any thread count. Engines without the
  /// `threads` capability run sequentially regardless.
  unsigned threads = 1;

  SpLayerOptions sp;    ///< signal-probability layer
  EppOptions epp;       ///< EPP layer (polarity, electrical masking, SIMD)
  SerLayerOptions ser;  ///< SER layer (rate + latching models)
  ShardOptions shard;   ///< sharded-engine layer (worker processes)

  /// Validates every layer; throws std::invalid_argument with an actionable
  /// message (unknown engine errors list the registered keys). Session
  /// constructors and set_options() call this — a constructed Session is
  /// always backed by a valid Options value.
  void validate() const;
};

}  // namespace sereep
