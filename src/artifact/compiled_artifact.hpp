// .sca compiled-circuit artifacts — versioned, checksummed, mmap-loadable.
//
// A `.sca` file is the on-disk form of the compiled circuit and nothing
// derived from it: the CompiledCircuit CSR tables plus the node names and
// output list (enough to restore a node-id-identical Circuit). Every session
// builds its SP table and cluster plan from those tables the one way a
// `.bench` session does. `sereep compile` writes one; Session::open(),
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
//   offset 40  u8[20] reserved, written as 0 (bytes 40-57 held version
//                   1's SP option bits, SP source and plan level)
//   offset 60  u32  CRC-32 of [first data byte, file size)
//   offset 64  u32  CRC-32 of [0, 128 + 32*section_count) with this field 0
//   ...pad to 128, then section_count 32-byte entries:
//
//   { u32 section id, u32 element size, u64 byte offset, u64 byte size,
//     u32 CRC-32 of the section bytes, u32 reserved }
//
// Version 2 requires section ids 1-12, 14 and 15, each exactly once. Ids 13
// (version 1's SP table) and 16-18 (its cluster plan) are retired, never
// reused, and refused as unknown; a version 1 file is refused by its version
// field and must be recompiled.
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

namespace sereep {

inline constexpr std::uint32_t kArtifactMagic = 0x31'41'43'53;  // "SCA1"
inline constexpr std::uint16_t kArtifactVersion = 2;
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

/// Compiles `circuit` (must be finalized) and writes the artifact to `path`
/// atomically (temp file + rename — a crashed writer never leaves a
/// half-written .sca behind). Returns the circuit's fingerprint, which the
/// file header also records. Throws ArtifactError on I/O failure.
CircuitFingerprint write_artifact(const std::string& path,
                                  const Circuit& circuit);

/// Reads just the fingerprint from an artifact header — the cheap identity
/// probe the serve session cache keys on (no mmap, no section validation;
/// magic/endian/version are still checked). Throws ArtifactError if the
/// file is not a readable .sca header.
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
/// afterwards is a pointer into the mapping. Immutable and thread-safe.
/// Each Session opened from a .sca maps its own view of the file it names
/// at open time (a file rewritten later is a new inode and leaves the view
/// intact; read-only mappings of one file share its page-cache pages), and
/// a TCP worker host maps its one .sca for every connection child it forks.
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

  // Spans into the mapping (set during validation).
  std::span<const std::uint8_t> name_blob_;
  std::span<const std::uint64_t> name_offsets_;
  std::span<const std::uint32_t> outputs_;

  std::unique_ptr<const CompiledCircuit> compiled_;
};

}  // namespace sereep
