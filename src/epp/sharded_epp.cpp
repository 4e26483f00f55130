#include "src/epp/sharded_epp.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/epp/fault_plan.hpp"
#include "src/epp/shard_plan.hpp"
#include "src/epp/shard_transport.hpp"

namespace sereep {

namespace {

/// Worker-side fingerprint-mismatch messages start with this marker so the
/// supervisor can classify the kError as NON-retryable (a respawned worker
/// would serve the same wrong netlist) without a second protocol frame type.
constexpr std::string_view kFingerprintMismatchMark =
    "netlist fingerprint mismatch";

/// What one drain attempt over a worker's result stream produced.
struct DrainOutcome {
  bool ok = false;           ///< stream completed and every check passed
  std::size_t verified = 0;  ///< rows validated + scattered this attempt
  /// True when the `verified` prefix is keepable: the stream failed CLEANLY
  /// (EOF at a frame boundary, deadline expiry, a worker kError) after
  /// rows that each matched their expected site. False when the stream
  /// itself is suspect (corrupt frame, order/count mismatch) — the retry
  /// must recompute this attempt's whole assignment.
  bool trust_prefix = true;
  bool timed_out = false;            ///< progress deadline expired
  bool fingerprint_conflict = false; ///< non-retryable netlist divergence
  std::string error;                 ///< failure description (when !ok)
};

/// Drains one worker's stream, validating every row against the expected
/// plan-order site and scattering its table row into out[slots[k]] as it
/// arrives — so whatever a dying worker DID deliver is already merged (and
/// keepable when trust_prefix holds). Never throws; every failure mode is a
/// classified DrainOutcome.
DrainOutcome drain_attempt(int fd, int timeout_ms,
                           std::span<const NodeId> expected,
                           std::span<const std::uint32_t> slots,
                           const CircuitFingerprint& parent_fp,
                           const Circuit& circuit, const SeuRateModel& seu,
                           std::span<NodeSer> out) {
  DrainOutcome r;
  bool hello_seen = false;
  try {
    for (;;) {
      std::optional<ShardFrame> frame = read_shard_frame(fd, timeout_ms);
      if (!frame.has_value()) {
        r.error =
            "result stream ended before the completion frame — worker died "
            "mid-sweep";
        return r;
      }
      switch (frame->type) {
        case ShardFrameType::kProgress:
          // Liveness only — receiving it already reset the deadline clock.
          break;
        case ShardFrameType::kHello: {
          const CircuitFingerprint fp = decode_hello(frame->payload);
          if (!(fp == parent_fp)) {
            r.fingerprint_conflict = true;
            r.error = std::string(kFingerprintMismatchMark) +
                      ": parent has " + to_string(parent_fp) +
                      ", worker echoed " + to_string(fp);
            return r;
          }
          hello_seen = true;
          break;
        }
        case ShardFrameType::kRowBatch: {
          if (!hello_seen) {
            r.trust_prefix = false;
            r.error = "results arrived before the fingerprint handshake";
            return r;
          }
          for (const SiteRow& row : decode_rows(frame->payload)) {
            if (r.verified >= expected.size() ||
                row.site != expected[r.verified]) {
              r.trust_prefix = false;
              r.error = "row order mismatch at row " +
                        std::to_string(r.verified);
              return r;
            }
            out[slots[r.verified]] = node_ser_from_row(circuit, row, seu);
            ++r.verified;
          }
          break;
        }
        case ShardFrameType::kDone: {
          const std::uint64_t total = decode_done(frame->payload);
          if (total != r.verified || total != expected.size()) {
            r.trust_prefix = false;
            r.error = "completion count mismatch: assigned " +
                      std::to_string(expected.size()) + ", streamed " +
                      std::to_string(r.verified) + ", worker claims " +
                      std::to_string(total);
            return r;
          }
          r.ok = true;
          return r;
        }
        case ShardFrameType::kError: {
          const std::string message(frame->payload.begin(),
                                    frame->payload.end());
          if (message.starts_with(kFingerprintMismatchMark)) {
            r.fingerprint_conflict = true;
          }
          r.error = "worker reported: " + message;
          return r;
        }
        default:
          // kJob, serve traffic (kRequest/kResponse/kBusy) or a type no
          // sereep build sends (2, the full-record batch v6 workers
          // streamed, among them): the stream is not a worker's, so nothing
          // it carried can be trusted.
          r.trust_prefix = false;
          r.error = "unexpected frame type " +
                    std::to_string(static_cast<unsigned>(frame->type)) +
                    " from worker";
          return r;
      }
    }
  } catch (const ShardTimeoutError& e) {
    r.timed_out = true;
    r.error = e.what();
    return r;
  } catch (const std::exception& e) {
    // Malformed stream: bad magic/version, EOF mid-frame, a decode failure,
    // or a length_error/bad_alloc from a corrupted size field. Nothing after
    // the last validated frame can be trusted — recompute the assignment.
    r.trust_prefix = false;
    r.error = e.what();
    return r;
  }
}

/// Bounded exponential backoff before respawn attempt `failures` (1-based):
/// min(base << (failures-1), max) milliseconds; base 0 disables the sleep.
void backoff_sleep(const ShardRetryOptions& retry, unsigned failures) {
  if (retry.backoff_base_ms == 0 || failures == 0) return;
  const unsigned shift = std::min(failures - 1, 31u);
  const std::uint64_t delay =
      std::min<std::uint64_t>(std::uint64_t{retry.backoff_base_ms} << shift,
                              retry.backoff_max_ms);
  std::this_thread::sleep_for(std::chrono::milliseconds(delay));
}

}  // namespace

ShardedEppEngine::ShardedEppEngine(const EngineContext& context)
    : BatchedEngine(context),
      shard_(context.shard),
      fingerprint_(circuit_fingerprint(*context.circuit)) {}

void ShardedEppEngine::begin_sweep() {
  const std::size_t sweeps = diagnostics_.sweeps + 1;
  diagnostics_ = Diagnostics{};
  diagnostics_.sweeps = sweeps;
}

void ShardedEppEngine::record_in_process(std::size_t sites) {
  diagnostics_.shard_sites.assign(1, sites);
  diagnostics_.in_process = true;
}

std::vector<SiteEpp> ShardedEppEngine::sweep(std::span<const NodeId> sites,
                                             unsigned threads) {
  begin_sweep();
  record_in_process(sites.size());
  return BatchedEngine::sweep(sites, threads);
}

std::vector<NodeSer> ShardedEppEngine::sweep_rows(
    std::span<const NodeId> sites, unsigned threads) {
  begin_sweep();
  // shards == 1 and degenerate site counts are CONFIGURED in-process runs.
  if (shard_.shards > 1 && sites.size() >= 2) {
    if (shard_.hosts.empty() && shard_.worker_path.empty()) {
      throw std::runtime_error(
          "sharded engine: sharding unavailable — Options::shard.worker_path "
          "is empty and shard.hosts names no TCP workers. Point worker_path "
          "at a built `sereep`, list hosts, or set shard.shards to 1.");
    }
    const std::vector<Shard> shards =
        plan_shards(planner().plan(sites), shard_.shards);
    // One cluster == one shard: fanning out buys nothing, skip the workers.
    if (shards.size() > 1) return run_sharded(sites, shards, threads);
  }
  record_in_process(sites.size());
  return BatchedEngine::sweep_rows(sites, threads);
}

std::vector<NodeSer> ShardedEppEngine::run_sharded(
    std::span<const NodeId> sites, std::span<const Shard> shards,
    unsigned threads) {
  const ShardRetryOptions& retry = shard_.retry;
  const int timeout_ms = static_cast<int>(retry.timeout_ms);

  for (const Shard& s : shards) {
    diagnostics_.shard_sites.push_back(s.members.size());
  }

  ShardFleet fleet(shard_, circuit_, shards.size());
  diagnostics_.transport = "tcp";
  unsigned next_spawn = 0;

  ShardJob job;
  job.epp = epp_;
  job.threads = threads;
  job.fingerprint = fingerprint_;
  job.sp = sp_.p1;
  job.latch_weights = ser_.latching.weights(circuit_);
  // One prefix (options + the full SP and weight tables — the bulk of the
  // bytes) for the whole sweep; only the dispatch ordinal and the site list
  // vary per shard AND per retry (residuals are a subset), so every
  // dispatch is prefix + append_job_dispatch.
  const std::vector<std::uint8_t> prefix = encode_job_prefix(job);

  const auto dispatch =
      [&](std::span<const NodeId> assignment) -> ShardConnection* {
    const unsigned spawn = next_spawn++;
    std::vector<std::uint8_t> payload = prefix;
    append_job_dispatch(payload, spawn, assignment);
    return &fleet.dispatch(payload, spawn);
  };

  // Phase 1 — fan out: dispatch every shard before draining any, so the
  // shards compute concurrently. A worker consumes its job frame before it
  // writes anything, so these sequential blocking writes cannot deadlock
  // against the (still unread) result streams. A failed dispatch is
  // recorded, not thrown: under a retry policy it is just the first failure
  // of that shard.
  std::vector<std::vector<NodeId>> expected(shards.size());
  std::vector<std::vector<std::uint32_t>> slots(shards.size());
  std::vector<ShardConnection*> attempts(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    expected[i].reserve(shards[i].members.size());
    slots[i].reserve(shards[i].members.size());
    for (std::uint32_t idx : shards[i].members) {
      expected[i].push_back(sites[idx]);
      slots[i].push_back(idx);
    }
    attempts[i] = dispatch(expected[i]);
  }

  // Phase 2 — supervise: drain shards in plan order (deterministic merge no
  // matter how workers interleave in time); each shard runs its own
  // retry/re-dispatch loop against the failure policy.
  std::vector<NodeSer> out(sites.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    std::vector<NodeId>& exp = expected[i];
    std::vector<std::uint32_t>& slot = slots[i];
    ShardConnection* attempt = attempts[i];
    unsigned failures = 0;

    const auto shard_error = [&](const std::string& what) {
      return std::runtime_error(
          "sharded engine: shard " + std::to_string(i) + "/" +
          std::to_string(shards.size()) + " (" +
          std::to_string(shards[i].members.size()) + " sites, " +
          fleet.peer_description() + "): " + what +
          " — the sweep was aborted; no partial results were returned");
    };

    for (;;) {
      DrainOutcome r;
      if (!attempt->send_error.empty()) {
        // The worker never took the job (it did not start, or its host
        // refused); nothing was received.
        r.error = attempt->send_error;
      } else {
        r = drain_attempt(attempt->fd, timeout_ms, exp, slot, fingerprint_,
                          circuit_, ser_.seu, out);
      }
      // Either way this connection is done. A hung worker child is
      // abandoned here; a local one dies with its fleet.
      fleet.close(*attempt);
      if (r.ok) break;

      if (r.timed_out) ++diagnostics_.deadline_expiries;
      if (r.fingerprint_conflict) {
        // Deterministic configuration error: every respawn would serve the
        // same divergent netlist, so retrying only burns the budget.
        throw shard_error(r.error +
                          " — non-retryable: start the host's worker on "
                          "the netlist the parent opened");
      }
      if (retry.on_failure == OnShardFailure::kFail) {
        throw shard_error(r.error);
      }
      if (r.trust_prefix && r.verified > 0) {
        // Keep what arrived: the verified prefix is already merged; only
        // the unreceived suffix needs recomputing.
        exp.erase(exp.begin(),
                  exp.begin() + static_cast<std::ptrdiff_t>(r.verified));
        slot.erase(slot.begin(),
                   slot.begin() + static_cast<std::ptrdiff_t>(r.verified));
      }
      if (exp.empty()) {
        // Every row arrived and verified; only the completion frame was
        // lost. Nothing to recompute.
        break;
      }
      ++failures;
      if (failures > retry.retries) {
        if (retry.on_failure == OnShardFailure::kDegrade) {
          // Budget exhausted: finish the residual in-process through the
          // base class's rows sweep — bit-identical by the purity argument,
          // at in-process speed for just this remainder.
          const std::vector<NodeSer> residual =
              BatchedEngine::sweep_rows(exp, threads);
          for (std::size_t k = 0; k < exp.size(); ++k) {
            out[slot[k]] = residual[k];
          }
          ++diagnostics_.degraded_shards;
          diagnostics_.redispatched_sites += exp.size();
          break;
        }
        throw shard_error("retry budget exhausted after " +
                          std::to_string(failures) + " failures (" +
                          std::to_string(retry.retries) +
                          " retries allowed) — last failure: " + r.error);
      }
      ++diagnostics_.respawns;
      diagnostics_.redispatched_sites += exp.size();
      backoff_sleep(retry, failures);
      attempt = dispatch(exp);
    }
  }

  diagnostics_.workers_spawned = fleet.opened();
  diagnostics_.workers_reaped = fleet.closed();
  if (fleet.closed() != fleet.opened()) {
    // Supervisor invariant, not an input condition: every completed sweep
    // has torn down every dispatch it opened (no leaked connections, ever).
    throw std::logic_error(
        "sharded engine: teardown accounting broken — opened " +
        std::to_string(fleet.opened()) + " worker dispatches but closed " +
        std::to_string(fleet.closed()));
  }
  return out;
}

// ---- the worker side -------------------------------------------------------

int run_shard_worker(const CompiledCircuit& compiled,
                     const CircuitFingerprint& fingerprint, int fd) {
  const auto send_error = [fd](const std::string& message) {
    try {
      const std::vector<std::uint8_t> payload(message.begin(), message.end());
      write_shard_frame(fd, ShardFrameType::kError, payload);
    } catch (...) {
      // The parent is gone; its read loop will report EOF instead.
    }
  };
  try {
    // Structured fault injection (tests + CI only): SEREEP_FAULT_PLAN
    // directives keyed by this dispatch's spawn ordinal, which arrives in
    // the job frame. A malformed plan is a loud error — silently ignoring
    // it would turn a typo'd fault test into a vacuous pass.
    const FaultPlan fault_plan = fault_plan_from_env();

    std::optional<ShardFrame> frame = read_shard_frame(fd);
    if (!frame.has_value() || frame->type != ShardFrameType::kJob) {
      throw std::runtime_error("expected a job frame");
    }
    if (frame->version < kMinShardJobVersion) {
      throw std::runtime_error(
          "job frame speaks shard protocol v" +
          std::to_string(frame->version) + ", this worker decodes v" +
          std::to_string(kMinShardJobVersion) + "+ jobs only — parent and "
          "worker are different sereep builds");
    }
    ShardJob job = decode_job(frame->payload);
    const std::optional<FaultSpec> fault = fault_plan.for_spawn(job.spawn);
    // "exit" dies right after the read: the parent sees EOF before any
    // response frame.
    if (fault.has_value() && fault->mode == FaultMode::kExit) ::_exit(9);

    // Ack the decoded job: the supervisor's progress deadline gets a byte to
    // reset on before the handshake.
    write_shard_frame(fd, ShardFrameType::kProgress, encode_progress(0));
    if (fault.has_value() && fault->mode == FaultMode::kDieBeforeHandshake) {
      ::_exit(9);
    }

    if (!(fingerprint == job.fingerprint)) {
      // A worker started on another netlist than the parent opened (a
      // re-converted .bench reorders node ids) would scatter rows to the
      // WRONG sites. The kFingerprintMismatchMark prefix tells the
      // supervisor this is non-retryable.
      throw std::runtime_error(std::string(kFingerprintMismatchMark) +
                               ": parent expects " +
                               to_string(job.fingerprint) +
                               " but this worker serves " +
                               to_string(fingerprint));
    }
    const std::size_t node_count = compiled.node_count();
    if (job.sp.size() != node_count ||
        job.latch_weights.size() != node_count) {
      throw std::runtime_error(
          "SP / latch-weight tables cover " + std::to_string(job.sp.size()) +
          " / " + std::to_string(job.latch_weights.size()) +
          " nodes but this worker's netlist has " +
          std::to_string(node_count) +
          " — parent and worker loaded different netlists");
    }
    write_shard_frame(fd, ShardFrameType::kHello, encode_hello(fingerprint));

    SignalProbabilities sp;
    sp.p1 = std::move(job.sp);

    // Fires the fault plan's mid-stream modes at the result-frame boundary
    // `frames_done` (checked before each kRowBatch write and once after the
    // loop, so every directive also covers the all-frames-streamed edge).
    const auto fault_gate = [&](long frames_done) {
      if (!fault.has_value()) return;
      switch (fault->mode) {
        case FaultMode::kDieAfterFrames:
          if (frames_done == fault->arg) ::_exit(9);
          break;
        case FaultMode::kHang:
          if (frames_done == fault->arg) {
            for (;;) ::pause();  // no bytes, ever — deadline food
          }
          break;
        case FaultMode::kCorruptFrame:
          if (frames_done == fault->arg) {
            // Garbage where a frame header belongs: the parent must reject
            // the magic, distrust the attempt, and recompute it whole.
            const std::uint8_t junk[12] = {0xde, 0xad, 0xbe, 0xef, 0x13,
                                           0x13, 0x13, 0x13, 0xff, 0xff,
                                           0xff, 0xff};
            [[maybe_unused]] const ssize_t n =
                ::write(fd, junk, sizeof junk);
            ::_exit(9);
          }
          break;
        case FaultMode::kSlowStream:
          std::this_thread::sleep_for(std::chrono::milliseconds(fault->arg));
          break;
        default:
          break;
      }
    };

    const ConeClusterPlanner planner(compiled);
    // Stream in slices: results flow while later slices compute, and worker
    // memory stays O(slice) even for million-site shards.
    constexpr std::size_t kSlice = 1024;
    std::uint64_t streamed = 0;
    long result_frames = 0;
    for (std::size_t begin = 0; begin < job.sites.size(); begin += kSlice) {
      const std::size_t count = std::min(kSlice, job.sites.size() - begin);
      const std::span<const NodeId> slice =
          std::span(job.sites).subspan(begin, count);
      // Liveness before each compute slice: the deadline clock must not
      // starve across a long cluster extraction.
      write_shard_frame(fd, ShardFrameType::kProgress,
                        encode_progress(streamed));
      std::vector<SiteRow> batch(count);
      sweep_sites(compiled, planner, slice, sp, job.epp, job.threads,
                  {.rows = batch, .latch_weights = job.latch_weights});
      fault_gate(result_frames);
      write_shard_frame(fd, ShardFrameType::kRowBatch, encode_rows(batch));
      ++result_frames;
      streamed += count;
    }
    // The gate also covers the nastiest failures: every result frame
    // streamed, then death (or a hang, or garbage) BEFORE the completion
    // frame — a plausible-looking stream the parent must still refuse.
    fault_gate(result_frames);
    if (fault.has_value() && fault->mode == FaultMode::kDieBeforeDone) {
      ::_exit(9);
    }
    write_shard_frame(fd, ShardFrameType::kDone, encode_done(streamed));
    return 0;
  } catch (const std::exception& e) {
    send_error(e.what());
    return 1;
  }
}

}  // namespace sereep
