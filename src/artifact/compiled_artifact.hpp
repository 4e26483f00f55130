// .sca compiled-circuit artifacts — versioned, checksummed, mmap-loadable.
//
// A `.sca` file is the on-disk form of everything a sweep needs before the
// first site: the CompiledCircuit CSR tables, the node names and output
// list (enough to restore a node-id-identical Circuit), the
// Parker-McCluskey SP table as raw IEEE bit patterns, and optionally the
// ConeClusterPlanner plan. `sereep compile` writes one; Session::open(),
// `sereep worker` and the serve daemon load one in
// milliseconds instead of re-parsing a netlist and re-flattening it —
// ROADMAP item 5, and the structural fix for the PR-5 foot-gun that a
// `.bench` reload is not node-id-identical to generator output: the
// artifact IS the netlist every process loads, so loader drift is
// impossible by construction.
//
// Layout (all integers little-endian fixed width; doubles as IEEE bit
// patterns — a value read from the file IS the value that was written):
//
//   offset  0  u32  magic "SCA1"
//   offset  4  u16  format version (kArtifactVersion)
//   offset  6  u16  endian mark 0x00FF (reads back 0xFF00 on a big-endian
//                   interpretation => "wrong endianness" diagnostic)
//   offset  8  u64  node count          } the circuit fingerprint
//   offset 16  u64  fingerprint digest  } (see src/netlist/compiled.hpp)
//   offset 24  u64  total file size in bytes
//   offset 32  u32  section count
//   offset 36  u32  CompiledCircuit bucket count
//   offset 40  u64  SP input_sp as IEEE bits   } the SpOptions the stored
//   offset 48  u64  SP dff_sp as IEEE bits     } table was computed with
//   offset 56  u8   SP source (0 = Parker-McCluskey; the only one stored)
//   offset 57  u8   plan level (0 = Bloom-only, 1 = two-level, 0xff = none)
//   offset 58  u16  reserved (0)
//   offset 60  u32  CRC-32 of [first data byte, file size)
//   offset 64  u32  CRC-32 of [0, 128 + 32*section_count) with this field 0
//   ...pad to 128, then section_count 32-byte entries:
//
//   { u32 section id, u32 element size, u64 byte offset, u64 byte size,
//     u32 CRC-32 of the section bytes, u32 reserved }
//
// Section data starts at the next 64-byte boundary after the table and every
// section offset is 64-byte aligned, so each POD array can be handed to the
// kernels as a span straight into the mapping (CompiledCircuit::borrow) —
// zero copies, zero parsing. Every load validates header CRC, file size,
// per-section CRCs, whole-file CRC and the structural invariants the
// unchecked kernel indexing relies on; any failure throws ArtifactError
// naming the offending section. Never UB — pinned by tests/artifact/.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/netlist/circuit.hpp"
#include "src/netlist/compiled.hpp"
#include "src/netlist/cone_cluster.hpp"
#include "src/sigprob/signal_prob.hpp"

namespace sereep {

inline constexpr std::uint32_t kArtifactMagic = 0x31'41'43'53;  // "SCA1"
inline constexpr std::uint16_t kArtifactVersion = 1;
inline constexpr std::uint16_t kArtifactEndianMark = 0x00FF;
inline constexpr std::size_t kArtifactHeaderSize = 128;
inline constexpr std::size_t kArtifactSectionEntrySize = 32;
inline constexpr std::size_t kArtifactAlign = 64;

/// Every artifact load/store failure: corrupt, truncated, wrong version,
/// wrong endianness, checksum mismatch, structural inconsistency, I/O error.
/// The message always carries the file path and, for section-level damage,
/// the section name.
class ArtifactError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `.sca` is the artifact extension — the one spec test every netlist
/// consumer uses to route to the artifact loader.
[[nodiscard]] inline bool is_artifact_path(std::string_view spec) {
  return spec.ends_with(".sca");
}

/// What write_artifact bakes into the file beyond the circuit itself.
struct ArtifactWriteOptions {
  /// Source probabilities for the stored Parker-McCluskey SP table. A
  /// session opened with different SP settings ignores the stored table and
  /// recomputes — storing these bits is what makes that check exact.
  SpOptions sp;
  /// Store the whole-circuit cluster plan (planner output over
  /// error_sites()) so sessions skip the planning pass too.
  bool include_plan = true;
  ConeClusterPlanner::PlanLevel plan_level =
      ConeClusterPlanner::PlanLevel::kTwoLevel;
};

/// Compiles `circuit` (must be finalized) and writes the artifact to `path`
/// atomically (temp file + rename — a crashed writer never leaves a
/// half-written .sca behind). Returns the circuit's fingerprint, which the
/// file header also records. Throws ArtifactError on I/O failure.
CircuitFingerprint write_artifact(const std::string& path,
                                  const Circuit& circuit,
                                  const ArtifactWriteOptions& options = {});

/// Reads just the fingerprint from an artifact header — the cheap identity
/// probe the sharded dispatcher and the serve session cache use (no mmap,
/// no section validation; magic/endian/version are still checked). Throws
/// ArtifactError if the file is not a readable .sca header.
[[nodiscard]] CircuitFingerprint peek_artifact_fingerprint(
    const std::string& path);

/// One section-table row, for tests that corrupt a specific section.
struct ArtifactSectionInfo {
  std::string name;
  std::uint64_t offset = 0;  ///< byte offset of the section data in the file
  std::uint64_t size = 0;    ///< byte size of the section data
};

/// Parses the header + section table (magic/endian/version checked, CRCs
/// NOT — the point is to locate bytes to damage) and returns the sections
/// in table order.
[[nodiscard]] std::vector<ArtifactSectionInfo> artifact_sections(
    const std::string& path);

/// A validated, mmapped artifact. Construction maps the file read-only and
/// runs the full check pass (CRCs + structural invariants); every accessor
/// afterwards is a pointer into the mapping. Immutable and thread-safe to
/// share; the serve daemon and the TCP worker hold one instance per distinct
/// artifact (ArtifactCache) across all concurrent sessions.
class ArtifactView {
 public:
  /// Maps and validates. Throws ArtifactError with a diagnostic naming the
  /// file (and the offending section, where one exists) on ANY defect.
  explicit ArtifactView(std::string path);
  ~ArtifactView();
  ArtifactView(const ArtifactView&) = delete;
  ArtifactView& operator=(const ArtifactView&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] CircuitFingerprint fingerprint() const noexcept {
    return fingerprint_;
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return static_cast<std::size_t>(fingerprint_.nodes);
  }
  [[nodiscard]] std::size_t size_bytes() const noexcept { return map_size_; }
  [[nodiscard]] std::string_view circuit_name() const noexcept {
    return circuit_name_;
  }

  /// The compiled view, borrowing the mapped arrays (zero-copy). Valid for
  /// the life of this ArtifactView.
  [[nodiscard]] const CompiledCircuit& compiled() const noexcept {
    return *compiled_;
  }

  /// The stored SP table (one IEEE double per node, in the mapping).
  [[nodiscard]] std::span<const double> sp_table() const noexcept {
    return sp_table_;
  }
  /// The SpOptions the stored table was computed with, bit-exact.
  [[nodiscard]] SpOptions sp_options() const noexcept { return sp_options_; }
  /// True iff the stored table is a Parker-McCluskey table (the only source
  /// v1 writes — a future version byte can extend this).
  [[nodiscard]] bool sp_is_parker_mccluskey() const noexcept {
    return sp_source_ == 0;
  }

  [[nodiscard]] bool has_plan() const noexcept { return has_plan_; }
  /// Valid only when has_plan().
  [[nodiscard]] ConeClusterPlanner::PlanLevel plan_level() const noexcept {
    return plan_level_;
  }
  /// Number of sites the stored plan covers (each exactly once) — must
  /// match the consumer's site list length before the plan can be reused.
  [[nodiscard]] std::size_t plan_site_count() const noexcept {
    return plan_members_.size();
  }
  /// Decodes the stored plan into planner output form (member indices into
  /// the site list the plan was computed over: error_sites() order).
  [[nodiscard]] std::vector<ConeCluster> plan_clusters() const;

  /// Rebuilds the full Circuit (names, adjacency in stored order, output
  /// marking order) — node-id-identical to the circuit that was compiled,
  /// revalidated by Circuit::restore + finalize. This is the slow(er) path
  /// for consumers that need the Node graph (Session's reports, harden);
  /// pure sweep consumers use compiled() and never pay it.
  [[nodiscard]] Circuit restore_circuit() const;

 private:
  [[noreturn]] void fail(const std::string& what) const;

  std::string path_;
  void* map_addr_ = nullptr;
  std::size_t map_size_ = 0;

  CircuitFingerprint fingerprint_;
  std::string_view circuit_name_;
  SpOptions sp_options_;
  std::uint8_t sp_source_ = 0;
  bool has_plan_ = false;
  ConeClusterPlanner::PlanLevel plan_level_ =
      ConeClusterPlanner::PlanLevel::kTwoLevel;

  // Spans into the mapping (set during validation).
  std::span<const std::uint8_t> name_blob_;
  std::span<const std::uint64_t> name_offsets_;
  std::span<const std::uint32_t> outputs_;
  std::span<const double> sp_table_;
  std::span<const std::uint64_t> plan_offsets_;
  std::span<const std::uint32_t> plan_members_;
  std::span<const double> plan_mass_;

  std::unique_ptr<const CompiledCircuit> compiled_;
};

}  // namespace sereep
