// Shard wire protocol — versioned length-prefixed frames over a byte stream.
//
// The sharded sweep engine (sharded_epp.hpp) talks to its worker processes
// over TCP sockets (and `sereep serve` to its clients) with a binary frame
// stream; the codecs work on any byte stream:
//
//   +--------+---------+------+--------------+-------------+---------------+
//   | magic  | version | type | payload size | payload CRC | payload bytes |
//   | u32    | u16     | u16  | u64          | u32         | ...           |
//   +--------+---------+------+--------------+-------------+---------------+
//
// All integers are little-endian fixed width; doubles travel as their IEEE
// bit pattern in a u64, so a value that crosses the wire is THE value — the
// parent's merged sweep can stay bit-for-bit identical to an in-process run.
// The magic + version header makes a stream from a mismatched binary (or a
// stray print into stdout) a loud protocol error rather than garbage
// results; bumping kShardProtocolVersion invalidates old workers explicitly.
// The CRC-32 (IEEE/zlib polynomial) of the payload makes a flipped bit on a
// less-than-perfectly-reliable transport a named protocol error too — on a
// result stream the supervisor treats it like any corrupt frame (distrust
// the attempt, recompute the shard).
//
// Conversation (one per worker; v6):
//   parent -> worker   kJob       EPP options, the output kind, the PARENT
//                                 netlist's fingerprint, SP table, latch
//                                 weights (row jobs), assigned site list
//   worker -> parent   kProgress  ack: job decoded (count 0) — flows before
//                                 the (possibly slow) netlist load
//   worker -> parent   kHello     handshake: the fingerprint of the netlist
//                                 the WORKER loaded, echoed back
//   worker -> parent   kProgress  cumulative record count, before each
//                                 compute slice (supervisor deadline food)
//   worker -> parent   kRowBatch  row jobs: a batch of SiteRow entries, 20
//                    / kResults   bytes each; record jobs: a batch of SiteEpp
//                                 records (repeated)
//   worker -> parent   kDone      total record count (completeness check)
//   worker -> parent   kError     human-readable failure message
//
// Table fills (Session's result table) send row jobs: the worker folds the
// latch-weighted term beside P_sensitized inside its sweep and streams
// P_sensitized plus that term per site; the parent assembles the NodeSer
// rows. Session::sweep() and the multicycle matrix need per-sink
// distributions and send record jobs.
//
// The fingerprint handshake exists because a .bench reload is NOT
// node-id-identical to in-memory generator output: a worker that loads a
// different netlist than the parent would stream records for the WRONG
// sites. The job carries the parent's fingerprint so the worker can reject
// the mismatch with a diagnostic naming both sides; kHello echoes the
// worker's own fingerprint so the parent double-checks before trusting any
// record — and so a re-dispatched retry stays bit-identical by construction.
//
// The worker streams results as it computes; the parent requires the kDone
// total to match both the streamed count and its assignment, so a worker
// that dies mid-stream (EOF before kDone) or skips sites can never produce
// a silent partial sweep. kProgress frames carry no result data — they let
// the supervisor's progress deadline distinguish a long compute slice from
// a hung worker.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/epp/epp_engine.hpp"
#include "src/netlist/circuit.hpp"
#include "src/netlist/compiled.hpp"

namespace sereep {

inline constexpr std::uint32_t kShardMagic = 0x53'52'50'46;  // "SRPF"
/// v2: netlist-fingerprint handshake (kHello + fingerprint in the job) and
/// kProgress frames. v3: payload CRC-32 in the frame header, the dispatch
/// ordinal carried in-band in the job (TCP workers have no argv), and the
/// kRequest/kResponse pair for the `sereep serve` daemon. v4: the kBusy
/// overload-shed frame and the serve kStats request kind. v5: the serve
/// kEdit request kind (the edit-spec string travels only for that kind, so
/// every pre-existing payload layout is untouched). v6: the job's output
/// kind (the byte v5 spent on a P_sensitized-only flag), the latch-weight
/// table after the SP table, and the kRowBatch frame. Every other layout is
/// v3's, so read_shard_frame accepts
/// kMinShardProtocolVersion..kShardProtocolVersion (a v3 serve client
/// talking to a v6 daemon keeps working; anything older is rejected loudly
/// by the version check); workers decode jobs only from v6+ frames
/// (kMinShardJobVersion).
inline constexpr std::uint16_t kShardProtocolVersion = 6;
/// Oldest peer version read_shard_frame still accepts. v3..v6 frames differ
/// only in which types/kinds they can carry, never in layout — kJob aside.
inline constexpr std::uint16_t kMinShardProtocolVersion = 3;
/// Oldest kJob frame version a worker decodes: v6 changed the job layout, so
/// a pre-v6 parent's job is refused with a kError naming both versions.
inline constexpr std::uint16_t kMinShardJobVersion = 6;

/// Frame kinds (the `type` header field).
enum class ShardFrameType : std::uint16_t {
  kJob = 1,       ///< parent -> worker: the shard's whole assignment
  kResults = 2,   ///< worker -> parent: a batch of SiteEpp records
  kDone = 3,      ///< worker -> parent: total streamed record count (u64)
  kError = 4,     ///< peer -> peer: failure message (UTF-8 bytes)
  kHello = 5,     ///< worker -> parent: fingerprint of the loaded netlist
  kProgress = 6,  ///< worker -> parent: cumulative record count (u64)
  kRequest = 7,   ///< client -> serve daemon: one analysis request
  kResponse = 8,  ///< serve daemon -> client: rendered response bytes
  /// serve daemon -> client, sent INSTEAD of accepting a request when the
  /// connection budget is full (payload: human-readable reason). The daemon
  /// closes right after; the client's move is bounded retry with backoff
  /// (`sereep client --retries`) — v4.
  kBusy = 9,
  kRowBatch = 10,  ///< worker -> parent: SiteRow entries (row jobs) — v6
};

/// CRC-32 (IEEE 802.3 / zlib polynomial, reflected) of `data` — the value
/// the frame header carries for its payload. Exposed so tests and fuzzers
/// can build valid frames by hand (and flip exactly the CRC bytes).
[[nodiscard]] std::uint32_t shard_crc32(std::span<const std::uint8_t> data);

/// Identity of a loaded netlist — the canonical CircuitFingerprint
/// (src/netlist/compiled.hpp), which is also what a .sca artifact records
/// in its header: one digest algorithm across the wire protocol, the
/// artifact format, and the serve daemon's session cache key.
using NetlistFingerprint = CircuitFingerprint;

/// Fingerprints a finalized circuit (FNV-1a over the node table).
[[nodiscard]] inline NetlistFingerprint netlist_fingerprint(
    const Circuit& circuit) {
  return circuit_fingerprint(circuit);
}

/// One decoded frame.
struct ShardFrame {
  ShardFrameType type = ShardFrameType::kError;
  std::uint16_t version = kShardProtocolVersion;  ///< the sender's version
  std::vector<std::uint8_t> payload;
};

/// What a job's worker streams back.
enum class ShardOutput : std::uint8_t {
  kRow = 1,     ///< one SiteRow per site, in kRowBatch frames
  kRecord = 2,  ///< one full SiteEpp record per site, in kResults frames
};

/// Everything a worker needs to compute its shard. The SP table is the
/// PARENT'S — workers must not recompute it (a different SP source or seed
/// would change results); the netlist itself travels out of band (the
/// worker's --netlist flag), since both sides load it deterministically.
struct ShardJob {
  /// The parent's EPP options. `epp.simd` travels as its own byte, 1 =
  /// scalar path, 2 = SIMD kernels (timing only — bit-identical).
  EppOptions epp;
  unsigned threads = 1;
  /// A table fill's SiteRow entries or full records; one byte on the wire.
  ShardOutput output = ShardOutput::kRecord;
  /// The PARENT circuit's fingerprint: the worker rejects its own load on a
  /// mismatch (diagnostic naming both) instead of streaming wrong-site
  /// records.
  NetlistFingerprint fingerprint;
  std::vector<double> sp;       ///< per-node P(1), indexed by NodeId
  /// Row jobs: the parent's per-node latch weights (LatchingModel::weights,
  /// indexed by NodeId), so workers need no SER model of their own. Empty
  /// for record jobs.
  std::vector<double> latch_weights;
  /// The supervisor's dispatch ordinal (initial fan-out and every retry
  /// re-dispatch count up the same sequence). Workers are long-lived
  /// processes with no per-job argv, so the job carries it in-band; it keys
  /// SEREEP_FAULT_PLAN directives.
  std::uint32_t spawn = 0;
  std::vector<NodeId> sites;    ///< assigned sites, plan order
};

// ---- payload codecs --------------------------------------------------------
// Encoders produce payload bytes (no header); decoders throw
// std::runtime_error on truncated or malformed payloads.

[[nodiscard]] std::vector<std::uint8_t> encode_job(const ShardJob& job);
[[nodiscard]] ShardJob decode_job(std::span<const std::uint8_t> payload);

/// Split encoding for the fan-out loop: the prefix (options + the whole SP
/// table — identical for every shard of one sweep, and by far the bulk of
/// the bytes) is built ONCE, and each shard's payload is prefix +
/// append_job_dispatch() with that dispatch's spawn ordinal and site list.
/// Byte-for-byte equal to encode_job() of the same fields.
[[nodiscard]] std::vector<std::uint8_t> encode_job_prefix(const ShardJob& job);
void append_job_dispatch(std::vector<std::uint8_t>& payload,
                         std::uint32_t spawn, std::span<const NodeId> sites);

[[nodiscard]] std::vector<std::uint8_t> encode_results(
    std::span<const SiteEpp> records);
[[nodiscard]] std::vector<SiteEpp> decode_results(
    std::span<const std::uint8_t> payload);

/// A row batch carries 20 bytes per site (site, P_sensitized, latched).
[[nodiscard]] std::vector<std::uint8_t> encode_rows(
    std::span<const SiteRow> rows);
[[nodiscard]] std::vector<SiteRow> decode_rows(
    std::span<const std::uint8_t> payload);

[[nodiscard]] std::vector<std::uint8_t> encode_done(std::uint64_t total);
[[nodiscard]] std::uint64_t decode_done(std::span<const std::uint8_t> payload);

/// kHello payload: the worker's loaded-netlist fingerprint.
[[nodiscard]] std::vector<std::uint8_t> encode_hello(
    const NetlistFingerprint& fp);
[[nodiscard]] NetlistFingerprint decode_hello(
    std::span<const std::uint8_t> payload);

/// kProgress payload: cumulative streamed-record count (same u64 shape as
/// kDone, distinct type so the supervisor never confuses liveness with
/// completion).
[[nodiscard]] std::vector<std::uint8_t> encode_progress(std::uint64_t count);
[[nodiscard]] std::uint64_t decode_progress(
    std::span<const std::uint8_t> payload);

// ---- frame I/O over file descriptors ---------------------------------------

/// read_shard_frame(fd, timeout_ms) threw: the fd produced NO bytes for
/// timeout_ms — a hung (or wedged-transport) peer, distinct from every
/// malformed-stream error so the shard supervisor can count deadline
/// expiries separately and kill the worker instead of waiting forever.
class ShardTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes one complete frame (header + payload), retrying short writes.
/// Throws std::runtime_error on any write failure — with SIGPIPE ignored,
/// a dead reader surfaces here as EPIPE.
void write_shard_frame(int fd, ShardFrameType type,
                       std::span<const std::uint8_t> payload);

/// Default read_shard_frame payload bound: past this is a protocol error,
/// not a big sweep — the largest legitimate frame is a job carrying one SP
/// double per node plus the site list, far under this even for 100M-node
/// netlists. Servers reading UNTRUSTED requests should pass a much tighter
/// bound so a hostile declared length can never drive a huge allocation.
inline constexpr std::uint64_t kMaxShardPayload = std::uint64_t{1} << 34;

/// Reads one complete frame. Returns nullopt on clean EOF at a frame
/// boundary; throws std::runtime_error on EOF mid-frame, a bad magic or
/// version, a declared payload size above `max_payload`, or a payload CRC
/// mismatch — a killed worker is therefore always an exception or a missing
/// kDone, never silent truncation.
///
/// `timeout_ms` > 0 arms a PROGRESS deadline: every wait for bytes is capped
/// at timeout_ms, and expiry throws ShardTimeoutError. Any arriving byte
/// resets the clock, so a slow but live stream never trips it — only a peer
/// that stops producing altogether. 0 waits forever (the v1 behavior).
[[nodiscard]] std::optional<ShardFrame> read_shard_frame(
    int fd, int timeout_ms = 0, std::uint64_t max_payload = kMaxShardPayload);

}  // namespace sereep
