#include "src/epp/sharded_epp.hpp"

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>

#include "sereep/session.hpp"  // load_netlist — the worker's input vocabulary
#include "src/artifact/artifact_cache.hpp"
#include "src/artifact/compiled_artifact.hpp"
#include "src/epp/batched_epp.hpp"
#include "src/epp/fault_plan.hpp"
#include "src/epp/shard_plan.hpp"
#include "src/epp/shard_transport.hpp"

namespace sereep {

namespace {

/// Worker-side fingerprint-mismatch messages start with this marker so the
/// supervisor can classify the kError as NON-retryable (a respawned worker
/// would load the same wrong netlist) without a second protocol frame type.
constexpr std::string_view kFingerprintMismatchMark =
    "netlist fingerprint mismatch";

/// Ignores SIGPIPE for the duration of a sharded sweep (restoring the prior
/// disposition on exit), so a worker that dies while the parent is feeding
/// its job surfaces as an EPIPE write error — an exception with a shard
/// number attached — instead of killing the whole parent process.
class SigPipeGuard {
 public:
  SigPipeGuard() {
    struct sigaction ignore = {};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGPIPE, &ignore, &saved_);
  }
  ~SigPipeGuard() { ::sigaction(SIGPIPE, &saved_, nullptr); }
  SigPipeGuard(const SigPipeGuard&) = delete;
  SigPipeGuard& operator=(const SigPipeGuard&) = delete;

 private:
  struct sigaction saved_ = {};
};

/// What one drain attempt over a worker's result stream produced.
struct DrainOutcome {
  bool ok = false;           ///< stream completed and every check passed
  std::size_t verified = 0;  ///< records validated + scattered this attempt
  /// True when the `verified` prefix is keepable: the stream failed CLEANLY
  /// (EOF at a frame boundary, deadline expiry, a worker kError) after
  /// records that each matched their expected site. False when the stream
  /// itself is suspect (corrupt frame, order/count mismatch) — the retry
  /// must recompute this attempt's whole assignment.
  bool trust_prefix = true;
  bool timed_out = false;            ///< progress deadline expired
  bool fingerprint_conflict = false; ///< non-retryable netlist divergence
  std::string error;                 ///< failure description (when !ok)
};

/// A sweep whose output is `Rec` = SiteEpp sends record jobs (kResults
/// frames come back); `Rec` = SiteRow sends row jobs (kRowBatch frames).
template <typename Rec>
constexpr bool kRecordJob = std::is_same_v<Rec, SiteEpp>;

/// Drains one worker's stream, validating every record (or row) against the
/// expected plan-order site and scattering it into out[slots[k]] as it
/// arrives — so whatever a dying worker DID deliver is already merged (and
/// keepable when trust_prefix holds). Never throws; every failure mode is a
/// classified DrainOutcome.
template <typename Rec>
DrainOutcome drain_attempt(int fd, int timeout_ms,
                           std::span<const NodeId> expected,
                           std::span<const std::uint32_t> slots,
                           const NetlistFingerprint& parent_fp,
                           std::vector<Rec>& out) {
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
          const NetlistFingerprint fp = decode_hello(frame->payload);
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
        case ShardFrameType::kResults:
        case ShardFrameType::kRowBatch: {
          if (!hello_seen) {
            r.trust_prefix = false;
            r.error = "results arrived before the fingerprint handshake";
            return r;
          }
          if (kRecordJob<Rec> != (frame->type == ShardFrameType::kResults)) {
            r.trust_prefix = false;
            r.error = "result frame of the wrong kind for this job";
            return r;
          }
          std::vector<Rec> batch;
          if constexpr (kRecordJob<Rec>) {
            batch = decode_results(frame->payload);
          } else {
            batch = decode_rows(frame->payload);
          }
          for (Rec& rec : batch) {
            if (r.verified >= expected.size() ||
                rec.site != expected[r.verified]) {
              r.trust_prefix = false;
              r.error = "record order mismatch at record " +
                        std::to_string(r.verified);
              return r;
            }
            out[slots[r.verified]] = std::move(rec);
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
          // sereep build sends: the stream is not a worker's, so nothing
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
    : circuit_(*context.circuit),
      compiled_(*context.compiled),
      sp_(*context.sp),
      epp_(context.epp),
      ser_(context.ser),
      shard_(context.shard),
      fingerprint_(netlist_fingerprint(*context.circuit)),
      planner_(context.planner),
      planner_source_(context.planner_source),
      single_(*context.compiled, *context.sp, context.epp) {}

const ConeClusterPlanner* ShardedEppEngine::resolve_planner() {
  if (planner_ == nullptr && planner_source_) {
    planner_ = planner_source_();
    planner_source_ = nullptr;
  }
  if (planner_ == nullptr) {
    owned_planner_ = std::make_unique<ConeClusterPlanner>(compiled_);
    planner_ = owned_planner_.get();
  }
  return planner_;
}

std::vector<SiteEpp> ShardedEppEngine::sweep(std::span<const NodeId> sites,
                                             unsigned threads) {
  return run<SiteEpp>(sites, threads, {});
}

std::vector<NodeSer> ShardedEppEngine::sweep_rows(
    std::span<const NodeId> sites, unsigned threads) {
  const std::vector<double> weights = ser_.latching.weights(circuit_);
  const std::vector<SiteRow> rows = run<SiteRow>(sites, threads, weights);
  std::vector<NodeSer> out;
  out.reserve(rows.size());
  for (const SiteRow& row : rows) {
    out.push_back(node_ser_from_row(circuit_, row, ser_.seu));
  }
  return out;
}

void ShardedEppEngine::reset_sweep_diagnostics() {
  diagnostics_.workers_spawned = 0;
  diagnostics_.workers_reaped = 0;
  diagnostics_.respawns = 0;
  diagnostics_.deadline_expiries = 0;
  diagnostics_.degraded_shards = 0;
  diagnostics_.redispatched_sites = 0;
  diagnostics_.shard_sites.clear();
  diagnostics_.in_process = false;
  diagnostics_.transport = "in-process";
}

template <typename Rec>
std::vector<Rec> ShardedEppEngine::run(std::span<const NodeId> sites,
                                       unsigned threads,
                                       std::span<const double> latch_weights) {
  ++diagnostics_.sweeps;
  reset_sweep_diagnostics();
  // shards == 1 and degenerate site counts are CONFIGURED in-process runs,
  // not fallbacks; only a missing transport (no TCP hosts AND no worker
  // binary / netlist spec) consults the fallback policy.
  if (shard_.shards > 1 && sites.size() >= 2) {
    // TCP hosts know their own netlist (each worker's --netlist flag, cross-
    // checked by the fingerprint handshake), so hosts alone suffice.
    if (!shard_.hosts.empty() ||
        (!shard_.worker_path.empty() && !shard_.netlist.empty())) {
      const std::vector<Shard> shards =
          plan_shards(resolve_planner()->plan(sites), shard_.shards);
      // One cluster == one shard: fanning out buys nothing, skip the workers.
      if (shards.size() > 1) {
        return run_sharded<Rec>(sites, shards, threads, latch_weights);
      }
    } else if (!shard_.fallback_to_in_process) {
      throw std::runtime_error(
          "sharded engine: sharding unavailable — Options::shard." +
          std::string(shard_.worker_path.empty() ? "worker_path" : "netlist") +
          " is empty and shard.hosts names no TCP workers (Session::open() "
          "records the netlist spec automatically; sessions over in-memory "
          "circuits must set one). Set one of them, or opt into "
          "shard.fallback_to_in_process.");
    }
  }
  diagnostics_.shard_sites.assign(1, sites.size());
  diagnostics_.in_process = true;
  return sweep_in_process<Rec>(sites, threads, latch_weights);
}

template <typename Rec>
std::vector<Rec> ShardedEppEngine::sweep_in_process(
    std::span<const NodeId> sites, unsigned threads,
    std::span<const double> latch_weights) {
  std::vector<Rec> out(sites.size());
  if constexpr (kRecordJob<Rec>) {
    sweep_sites(compiled_, *resolve_planner(), sites, sp_, epp_, threads,
                {.records = out});
  } else {
    sweep_sites(compiled_, *resolve_planner(), sites, sp_, epp_, threads,
                {.rows = out, .latch_weights = latch_weights});
  }
  return out;
}

template <typename Rec>
std::vector<Rec> ShardedEppEngine::run_sharded(
    std::span<const NodeId> sites, std::span<const Shard> shards,
    unsigned threads, std::span<const double> latch_weights) {
  // Pre-dispatch refusal for artifact-fed fleets: the .sca header carries
  // the fingerprint, so a shard.netlist pointing at the WRONG artifact is
  // detectable for the cost of one 128-byte read — before a single worker
  // is spawned, rather than via every worker's handshake failing.
  if (is_artifact_path(shard_.netlist)) {
    const NetlistFingerprint stored =
        peek_artifact_fingerprint(shard_.netlist);
    if (!(stored == fingerprint_)) {
      throw std::runtime_error(
          "sharded engine: netlist fingerprint mismatch: parent expects " +
          to_string(fingerprint_) + " but artifact '" + shard_.netlist +
          "' holds " + to_string(stored) +
          " — non-retryable: point shard.netlist at the artifact the "
          "parent opened");
    }
  }

  const ShardRetryOptions& retry = shard_.retry;
  const int timeout_ms = static_cast<int>(retry.timeout_ms);

  for (const Shard& s : shards) {
    diagnostics_.shard_sites.push_back(s.members.size());
  }
  diagnostics_.in_process = false;

  SigPipeGuard sigpipe;
  ShardFleet fleet(shard_, shards.size());
  diagnostics_.transport = "tcp";
  unsigned next_spawn = 0;

  ShardJob job;
  job.epp = epp_;
  job.threads = threads;
  job.output = kRecordJob<Rec> ? ShardOutput::kRecord : ShardOutput::kRow;
  job.fingerprint = fingerprint_;
  job.sp = sp_.p1;
  job.latch_weights.assign(latch_weights.begin(), latch_weights.end());
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
  std::vector<Rec> out(sites.size());
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
                          out);
      }
      // Either way this connection is done. A hung worker child is
      // abandoned here; a local one dies with its fleet.
      fleet.close(*attempt);
      if (r.ok) break;

      if (r.timed_out) ++diagnostics_.deadline_expiries;
      if (r.fingerprint_conflict) {
        // Deterministic configuration error: every respawn would load the
        // same divergent netlist, so retrying only burns the budget.
        throw shard_error(r.error +
                          " — non-retryable: fix shard.netlist to name "
                          "the exact netlist the parent opened");
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
        // Every record arrived and verified; only the completion frame was
        // lost. Nothing to recompute.
        break;
      }
      ++failures;
      if (failures > retry.retries) {
        if (retry.on_failure == OnShardFailure::kDegrade) {
          // Budget exhausted: finish the residual in-process with the
          // batched engine — bit-identical by the purity argument, at
          // in-process speed for just this remainder.
          std::vector<Rec> residual =
              sweep_in_process<Rec>(exp, threads, latch_weights);
          for (std::size_t k = 0; k < exp.size(); ++k) {
            out[slot[k]] = std::move(residual[k]);
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

int run_shard_worker(const std::string& netlist_spec, int fd,
                     const Circuit* preloaded) {
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

    // Ack before the (possibly slow) netlist load: the supervisor's progress
    // deadline gets a byte to reset on, so a long load never reads as a
    // hang. The deadline only needs to cover load + one compute slice.
    write_shard_frame(fd, ShardFrameType::kProgress, encode_progress(0));
    if (fault.has_value() && fault->mode == FaultMode::kDieBeforeHandshake) {
      ::_exit(9);
    }

    // Artifact fast path: a .sca spec skips netlist parsing AND circuit
    // restoration entirely — the validated header fingerprint is the
    // identity the handshake needs, and the kernels run off the mmapped
    // compiled view (shared across every worker in this process via the
    // ArtifactCache; connection children inherit the accept loop's mapping).
    std::shared_ptr<const ArtifactView> artifact;
    std::optional<Circuit> local;
    const Circuit* circuit_ptr = preloaded;
    NetlistFingerprint fp;
    std::size_t node_count = 0;
    if (preloaded == nullptr && is_artifact_path(netlist_spec)) {
      artifact = ArtifactCache::global().load(netlist_spec);
      fp = artifact->fingerprint();
      node_count = artifact->node_count();
    } else {
      if (circuit_ptr == nullptr) {
        local.emplace(load_netlist(netlist_spec));
        circuit_ptr = &*local;
      }
      fp = netlist_fingerprint(*circuit_ptr);
      node_count = circuit_ptr->node_count();
    }
    if (!(fp == job.fingerprint)) {
      // The classic foot-gun: a .bench reload is NOT node-id-identical to
      // in-memory generator output (DFF ordering differs), so records would
      // scatter to the WRONG sites. The kFingerprintMismatchMark prefix
      // tells the supervisor this is non-retryable.
      throw std::runtime_error(
          std::string(kFingerprintMismatchMark) + ": parent expects " +
          to_string(job.fingerprint) + " but '" + netlist_spec +
          "' loaded as " + to_string(fp) +
          " — point shard.netlist at the exact netlist the parent opened");
    }
    const bool rows = job.output == ShardOutput::kRow;
    if (job.sp.size() != node_count ||
        job.latch_weights.size() != (rows ? node_count : 0)) {
      throw std::runtime_error(
          "SP / latch-weight tables cover " + std::to_string(job.sp.size()) +
          " / " + std::to_string(job.latch_weights.size()) +
          " nodes but '" + netlist_spec + "' has " +
          std::to_string(node_count) +
          " — parent and worker loaded different netlists");
    }
    write_shard_frame(fd, ShardFrameType::kHello, encode_hello(fp));

    const CompiledCircuit compiled =
        artifact != nullptr
            ? CompiledCircuit::borrow(artifact->compiled().view())
            : CompiledCircuit(*circuit_ptr);
    SignalProbabilities sp;
    sp.p1 = std::move(job.sp);

    // Fires the fault plan's mid-stream modes at the result-frame boundary
    // `frames_done` (checked before each kResults write and once after the
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
      std::vector<std::uint8_t> payload;
      if (rows) {
        std::vector<SiteRow> batch(count);
        sweep_sites(compiled, planner, slice, sp, job.epp, job.threads,
                    {.rows = batch, .latch_weights = job.latch_weights});
        payload = encode_rows(batch);
      } else {
        std::vector<SiteEpp> records(count);
        sweep_sites(compiled, planner, slice, sp, job.epp, job.threads,
                    {.records = records});
        payload = encode_results(records);
      }
      fault_gate(result_frames);
      write_shard_frame(fd, rows ? ShardFrameType::kRowBatch
                                     : ShardFrameType::kResults,
                        payload);
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
