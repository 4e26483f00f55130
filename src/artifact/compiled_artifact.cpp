#include "src/artifact/compiled_artifact.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/netlist/gate.hpp"
#include "src/util/crc32.hpp"

namespace sereep {

namespace {

// The header is only correct on a little-endian host; every supported
// target is one, and a big-endian port would need explicit byte swapping
// here (and ONLY here) — fail loudly rather than write swapped artifacts.
static_assert(std::endian::native == std::endian::little,
              ".sca serialization requires a little-endian host");

/// Section ids. Values are the format — never renumber, only append. Ids 13
/// and 16-18 are retired (version 1's SP table and cluster plan): never
/// reused, and refused as unknown.
enum SectionId : std::uint32_t {
  kSecNameBlob = 1,      // u8, concatenated node names
  kSecNameOffsets = 2,   // u64, n+1 prefix offsets into the blob
  kSecTypes = 3,         // u8, n
  kSecIsSink = 4,        // u8, n
  kSecBucketLevel = 5,   // u32, n
  kSecTopoPos = 6,       // u32, n
  kSecFaninOffsets = 7,  // u32, n+1
  kSecFaninIds = 8,      // u32
  kSecFanoutOffsets = 9,  // u32, n+1
  kSecFanoutIds = 10,     // u32
  kSecSinksByRank = 11,   // u32
  kSecConeEstimate = 12,  // f64, n
  kSecOutputs = 14,       // u32, primary outputs in marking order
  kSecCircuitName = 15,   // u8
};
constexpr std::uint32_t kMaxSectionId = 15;

const char* section_name(std::uint32_t id) {
  switch (id) {
    case kSecNameBlob: return "name_blob";
    case kSecNameOffsets: return "name_offsets";
    case kSecTypes: return "types";
    case kSecIsSink: return "is_sink";
    case kSecBucketLevel: return "bucket_level";
    case kSecTopoPos: return "topo_pos";
    case kSecFaninOffsets: return "fanin_offsets";
    case kSecFaninIds: return "fanin_ids";
    case kSecFanoutOffsets: return "fanout_offsets";
    case kSecFanoutIds: return "fanout_ids";
    case kSecSinksByRank: return "sinks_by_rank";
    case kSecConeEstimate: return "cone_estimate";
    case kSecOutputs: return "outputs";
    case kSecCircuitName: return "circuit_name";
    default: return "unknown";
  }
}

/// 0 for an id this version does not know (0, retired, or past the end).
std::uint32_t expected_elem_size(std::uint32_t id) {
  switch (id) {
    case kSecNameBlob:
    case kSecTypes:
    case kSecIsSink:
    case kSecCircuitName:
      return 1;
    case kSecBucketLevel:
    case kSecTopoPos:
    case kSecFaninOffsets:
    case kSecFaninIds:
    case kSecFanoutOffsets:
    case kSecFanoutIds:
    case kSecSinksByRank:
    case kSecOutputs:
      return 4;
    case kSecNameOffsets:
    case kSecConeEstimate:
      return 8;
    default:
      return 0;
  }
}

std::size_t align_up(std::size_t v, std::size_t a) {
  return (v + a - 1) / a * a;
}

/// Raw little-endian field accessors over a byte buffer (host is LE, so
/// memcpy is the load/store).
template <typename T>
T load(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
template <typename T>
void store(std::uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof v);
}

/// One section-table entry, decoded.
struct SectionEntry {
  std::uint32_t id = 0;
  std::uint32_t elem_size = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

SectionEntry decode_entry(const std::uint8_t* p) {
  return {.id = load<std::uint32_t>(p),
          .elem_size = load<std::uint32_t>(p + 4),
          .offset = load<std::uint64_t>(p + 8),
          .size = load<std::uint64_t>(p + 16),
          .crc = load<std::uint32_t>(p + 24)};
}

[[noreturn]] void fail_at(const std::string& path, const std::string& what) {
  throw ArtifactError("artifact '" + path + "': " + what);
}

/// Reads the fixed header + section table with only the cheap identity
/// checks (magic, endianness, version). Shared by peek / sections / the
/// full loader's first phase.
struct RawHeader {
  CircuitFingerprint fp;
  std::uint64_t file_size = 0;
  std::uint32_t section_count = 0;
  std::uint32_t bucket_count = 0;
  std::uint32_t file_crc = 0;
  std::uint32_t header_crc = 0;
};

RawHeader decode_header(const std::string& path,
                        std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kArtifactHeaderSize) {
    fail_at(path, "truncated header (" + std::to_string(bytes.size()) +
                      " bytes, need " + std::to_string(kArtifactHeaderSize) +
                      ")");
  }
  const std::uint8_t* p = bytes.data();
  const std::uint32_t magic = load<std::uint32_t>(p);
  if (magic != kArtifactMagic) {
    const std::uint32_t swapped = magic >> 24 | (magic >> 8 & 0xff00u) |
                                  (magic << 8 & 0xff0000u) | magic << 24;
    if (swapped == kArtifactMagic) {
      fail_at(path,
              "big-endian byte order (this build reads little-endian .sca "
              "files only)");
    }
    fail_at(path, "bad magic (not a .sca artifact)");
  }
  const std::uint16_t endian = load<std::uint16_t>(p + 6);
  if (endian != kArtifactEndianMark) {
    fail_at(path, "wrong endianness mark");
  }
  const std::uint16_t version = load<std::uint16_t>(p + 4);
  if (version != kArtifactVersion) {
    fail_at(path, "unsupported format version " + std::to_string(version) +
                      " (this build reads version " +
                      std::to_string(kArtifactVersion) + ")");
  }
  RawHeader h;
  h.fp.nodes = load<std::uint64_t>(p + 8);
  h.fp.digest = load<std::uint64_t>(p + 16);
  h.file_size = load<std::uint64_t>(p + 24);
  h.section_count = load<std::uint32_t>(p + 32);
  h.bucket_count = load<std::uint32_t>(p + 36);
  h.file_crc = load<std::uint32_t>(p + 60);
  h.header_crc = load<std::uint32_t>(p + 64);
  return h;
}

std::vector<std::uint8_t> read_file_prefix(const std::string& path,
                                           std::size_t max_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) fail_at(path, std::string("cannot open: ") + std::strerror(errno));
  std::vector<std::uint8_t> bytes(max_bytes);
  const std::size_t got = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  bytes.resize(got);
  return bytes;
}

}  // namespace

CircuitFingerprint peek_artifact_fingerprint(const std::string& path) {
  const auto bytes = read_file_prefix(path, kArtifactHeaderSize);
  return decode_header(path, bytes).fp;
}

std::vector<ArtifactSectionInfo> artifact_sections(const std::string& path) {
  // Enough for the table of any well-formed file (<= kMaxSectionId entries);
  // decode_header rejects anything that is not an .sca header first.
  const auto bytes = read_file_prefix(
      path,
      kArtifactHeaderSize + (kMaxSectionId + 1) * kArtifactSectionEntrySize);
  const RawHeader h = decode_header(path, bytes);
  std::vector<ArtifactSectionInfo> out;
  for (std::uint32_t i = 0; i < h.section_count; ++i) {
    const std::size_t at =
        kArtifactHeaderSize + i * kArtifactSectionEntrySize;
    if (at + kArtifactSectionEntrySize > bytes.size()) {
      fail_at(path, "truncated section table");
    }
    const SectionEntry e = decode_entry(bytes.data() + at);
    out.push_back({.name = section_name(e.id),
                   .offset = e.offset,
                   .size = e.size});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

CircuitFingerprint write_artifact(const std::string& path,
                                  const Circuit& circuit) {
  if (!circuit.finalized()) {
    fail_at(path, "cannot serialize an unfinalized circuit");
  }
  const CompiledCircuit compiled(circuit);
  const CompiledCircuit::Parts parts = compiled.view();
  const CircuitFingerprint fp = circuit_fingerprint(circuit);
  const std::size_t n = circuit.node_count();

  // Node names: one blob + n+1 prefix offsets.
  std::vector<std::uint8_t> name_blob;
  std::vector<std::uint64_t> name_offsets;
  name_offsets.reserve(n + 1);
  name_offsets.push_back(0);
  for (const Node& node : circuit.nodes()) {
    name_blob.insert(name_blob.end(), node.name.begin(), node.name.end());
    name_offsets.push_back(name_blob.size());
  }

  struct Sec {
    std::uint32_t id;
    const void* data;
    std::uint64_t bytes;
  };
  const auto span_bytes = [](const auto& s) {
    return static_cast<std::uint64_t>(s.size()) * sizeof(s[0]);
  };
  const std::vector<Sec> secs = {
      {kSecNameBlob, name_blob.data(), name_blob.size()},
      {kSecNameOffsets, name_offsets.data(), span_bytes(name_offsets)},
      {kSecTypes, parts.types.data(), span_bytes(parts.types)},
      {kSecIsSink, parts.is_sink.data(), span_bytes(parts.is_sink)},
      {kSecBucketLevel, parts.bucket_level.data(),
       span_bytes(parts.bucket_level)},
      {kSecTopoPos, parts.topo_pos.data(), span_bytes(parts.topo_pos)},
      {kSecFaninOffsets, parts.fanin_offsets.data(),
       span_bytes(parts.fanin_offsets)},
      {kSecFaninIds, parts.fanin_ids.data(), span_bytes(parts.fanin_ids)},
      {kSecFanoutOffsets, parts.fanout_offsets.data(),
       span_bytes(parts.fanout_offsets)},
      {kSecFanoutIds, parts.fanout_ids.data(), span_bytes(parts.fanout_ids)},
      {kSecSinksByRank, parts.sinks_by_rank.data(),
       span_bytes(parts.sinks_by_rank)},
      {kSecConeEstimate, parts.cone_estimate.data(),
       span_bytes(parts.cone_estimate)},
      {kSecOutputs, circuit.outputs().data(), span_bytes(circuit.outputs())},
      {kSecCircuitName, circuit.name().data(), circuit.name().size()},
  };

  // Layout: header, table, 64-byte aligned data sections.
  const std::size_t table_end =
      kArtifactHeaderSize + secs.size() * kArtifactSectionEntrySize;
  const std::size_t data_start = align_up(table_end, kArtifactAlign);
  std::size_t offset = data_start;
  std::vector<std::uint64_t> sec_offsets(secs.size());
  for (std::size_t i = 0; i < secs.size(); ++i) {
    sec_offsets[i] = offset;
    offset = align_up(offset + secs[i].bytes, kArtifactAlign);
  }
  const std::size_t file_size = offset;

  std::vector<std::uint8_t> file(file_size, 0);
  for (std::size_t i = 0; i < secs.size(); ++i) {
    if (secs[i].bytes > 0) {
      std::memcpy(file.data() + sec_offsets[i], secs[i].data, secs[i].bytes);
    }
    std::uint8_t* e =
        file.data() + kArtifactHeaderSize + i * kArtifactSectionEntrySize;
    store<std::uint32_t>(e, secs[i].id);
    store<std::uint32_t>(e + 4, expected_elem_size(secs[i].id));
    store<std::uint64_t>(e + 8, sec_offsets[i]);
    store<std::uint64_t>(e + 16, secs[i].bytes);
    store<std::uint32_t>(
        e + 24, crc32({file.data() + sec_offsets[i],
                       static_cast<std::size_t>(secs[i].bytes)}));
  }

  std::uint8_t* h = file.data();
  store<std::uint32_t>(h, kArtifactMagic);
  store<std::uint16_t>(h + 4, kArtifactVersion);
  store<std::uint16_t>(h + 6, kArtifactEndianMark);
  store<std::uint64_t>(h + 8, fp.nodes);
  store<std::uint64_t>(h + 16, fp.digest);
  store<std::uint64_t>(h + 24, file_size);
  store<std::uint32_t>(h + 32, static_cast<std::uint32_t>(secs.size()));
  store<std::uint32_t>(h + 36, parts.bucket_count);
  // Bytes 40-59 stay zero (reserved).
  store<std::uint32_t>(
      h + 60, crc32({file.data() + data_start, file_size - data_start}));
  // Header CRC covers header + table with its own field zeroed.
  store<std::uint32_t>(h + 64, 0);
  store<std::uint32_t>(h + 64, crc32({file.data(), table_end}));

  // Atomic write: temp in the same directory, fsync, rename over the target.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    fail_at(path, std::string("cannot create temp file: ") +
                      std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < file.size()) {
    const ssize_t r =
        ::write(fd, file.data() + written, file.size() - written);
    if (r < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      fail_at(path, std::string("write failed: ") + std::strerror(err));
    }
    written += static_cast<std::size_t>(r);
  }
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    fail_at(path, std::string("write failed: ") + std::strerror(errno));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    fail_at(path, std::string("rename failed: ") + std::strerror(err));
  }
  return fp;
}

// ---------------------------------------------------------------------------
// Loader
// ---------------------------------------------------------------------------

void ArtifactView::fail(const std::string& what) const { fail_at(path_, what); }

ArtifactView::ArtifactView(std::string path) : path_(std::move(path)) {
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) fail(std::string("cannot open: ") + std::strerror(errno));
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    fail(std::string("cannot stat: ") + std::strerror(err));
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size < kArtifactHeaderSize) {
    ::close(fd);
    fail("truncated header (" + std::to_string(size) + " bytes, need " +
         std::to_string(kArtifactHeaderSize) + ")");
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) {
    fail(std::string("mmap failed: ") + std::strerror(errno));
  }
  map_addr_ = addr;
  map_size_ = size;
  try {
    const std::uint8_t* base = static_cast<const std::uint8_t*>(map_addr_);
    const std::span<const std::uint8_t> bytes(base, map_size_);
    const RawHeader h = decode_header(path_, bytes);
    fingerprint_ = h.fp;

    // --- header integrity ------------------------------------------------
    if (h.section_count == 0 || h.section_count > kMaxSectionId) {
      fail("implausible section count " + std::to_string(h.section_count));
    }
    const std::size_t table_end =
        kArtifactHeaderSize + h.section_count * kArtifactSectionEntrySize;
    if (table_end > map_size_) fail("truncated section table");
    {
      std::vector<std::uint8_t> head(base, base + table_end);
      store<std::uint32_t>(head.data() + 64, 0);
      if (crc32(head) != h.header_crc) fail("header checksum mismatch");
    }
    if (h.file_size != map_size_) {
      fail("file size mismatch (header says " + std::to_string(h.file_size) +
           " bytes, file has " + std::to_string(map_size_) + ")");
    }
    if (h.fp.nodes == 0 || h.fp.nodes > 0xffffffffull) {
      fail("implausible node count " + std::to_string(h.fp.nodes));
    }
    const std::size_t n = static_cast<std::size_t>(h.fp.nodes);
    const std::size_t data_start = align_up(table_end, kArtifactAlign);

    // --- section table ---------------------------------------------------
    SectionEntry entries[kMaxSectionId + 1] = {};
    bool present[kMaxSectionId + 1] = {};
    for (std::uint32_t i = 0; i < h.section_count; ++i) {
      const SectionEntry e = decode_entry(
          base + kArtifactHeaderSize + i * kArtifactSectionEntrySize);
      if (expected_elem_size(e.id) == 0) {
        fail("unknown section id " + std::to_string(e.id));
      }
      const std::string name = std::string("section '") + section_name(e.id);
      if (present[e.id]) fail(name + "' appears twice");
      if (e.elem_size != expected_elem_size(e.id)) {
        fail(name + "' has element size " + std::to_string(e.elem_size) +
             ", expected " + std::to_string(expected_elem_size(e.id)));
      }
      if (e.offset % kArtifactAlign != 0) fail(name + "' is misaligned");
      if (e.offset < data_start || e.offset > map_size_ ||
          e.size > map_size_ - e.offset) {
        fail(name + "' extends past end of file");
      }
      if (e.size % e.elem_size != 0) {
        fail(name + "' has a size that is not a multiple of its element");
      }
      present[e.id] = true;
      entries[e.id] = e;
    }
    for (std::uint32_t id = 1; id <= kMaxSectionId; ++id) {
      if (expected_elem_size(id) != 0 && !present[id]) {
        fail(std::string("required section '") + section_name(id) +
             "' is missing");
      }
    }

    // --- checksums (eager: a corrupt section must never reach a kernel) --
    for (std::uint32_t id = 1; id <= kMaxSectionId; ++id) {
      if (!present[id]) continue;
      const SectionEntry& e = entries[id];
      if (crc32({base + e.offset, static_cast<std::size_t>(e.size)}) !=
          e.crc) {
        fail(std::string("section '") + section_name(id) +
             "' checksum mismatch");
      }
    }
    if (crc32({base + data_start, map_size_ - data_start}) != h.file_crc) {
      fail("whole-file checksum mismatch");
    }

    // --- typed spans -----------------------------------------------------
    const auto span_of = [&](std::uint32_t id, auto tag) {
      using T = decltype(tag);
      const SectionEntry& e = entries[id];
      return std::span<const T>(
          reinterpret_cast<const T*>(base + e.offset),
          static_cast<std::size_t>(e.size) / sizeof(T));
    };
    name_blob_ = span_of(kSecNameBlob, std::uint8_t{});
    name_offsets_ = span_of(kSecNameOffsets, std::uint64_t{});
    const auto types = span_of(kSecTypes, std::uint8_t{});
    const auto is_sink = span_of(kSecIsSink, std::uint8_t{});
    const auto bucket_level = span_of(kSecBucketLevel, std::uint32_t{});
    const auto topo_pos = span_of(kSecTopoPos, std::uint32_t{});
    const auto fanin_offsets = span_of(kSecFaninOffsets, std::uint32_t{});
    const auto fanin_ids = span_of(kSecFaninIds, std::uint32_t{});
    const auto fanout_offsets = span_of(kSecFanoutOffsets, std::uint32_t{});
    const auto fanout_ids = span_of(kSecFanoutIds, std::uint32_t{});
    const auto sinks_by_rank = span_of(kSecSinksByRank, std::uint32_t{});
    const auto cone_estimate = span_of(kSecConeEstimate, double{});
    outputs_ = span_of(kSecOutputs, std::uint32_t{});
    const auto circuit_name = span_of(kSecCircuitName, std::uint8_t{});
    circuit_name_ = {reinterpret_cast<const char*>(circuit_name.data()),
                     circuit_name.size()};

    // --- structural invariants (the kernels index without bounds checks) -
    const auto expect_count = [&](std::uint32_t id, std::size_t have,
                                  std::size_t want) {
      if (have != want) {
        fail(std::string("section '") + section_name(id) + "' has " +
             std::to_string(have) + " elements, expected " +
             std::to_string(want));
      }
    };
    expect_count(kSecTypes, types.size(), n);
    expect_count(kSecIsSink, is_sink.size(), n);
    expect_count(kSecBucketLevel, bucket_level.size(), n);
    expect_count(kSecTopoPos, topo_pos.size(), n);
    expect_count(kSecConeEstimate, cone_estimate.size(), n);
    expect_count(kSecNameOffsets, name_offsets_.size(), n + 1);
    expect_count(kSecFaninOffsets, fanin_offsets.size(), n + 1);
    expect_count(kSecFanoutOffsets, fanout_offsets.size(), n + 1);

    const auto check_csr = [&](std::uint32_t offsets_id,
                               std::span<const std::uint32_t> offsets,
                               std::uint32_t ids_id,
                               std::span<const std::uint32_t> ids) {
      if (offsets.front() != 0) {
        fail(std::string("section '") + section_name(offsets_id) +
             "' does not start at 0");
      }
      for (std::size_t i = 1; i < offsets.size(); ++i) {
        if (offsets[i] < offsets[i - 1]) {
          fail(std::string("section '") + section_name(offsets_id) +
               "' is not monotonic");
        }
      }
      if (offsets.back() != ids.size()) {
        fail(std::string("section '") + section_name(offsets_id) +
             "' does not cover section '" + section_name(ids_id) + "'");
      }
      for (std::uint32_t id : ids) {
        if (id >= n) {
          fail(std::string("section '") + section_name(ids_id) +
               "' references node " + std::to_string(id) + " of " +
               std::to_string(n));
        }
      }
    };
    check_csr(kSecFaninOffsets, fanin_offsets, kSecFaninIds, fanin_ids);
    check_csr(kSecFanoutOffsets, fanout_offsets, kSecFanoutIds, fanout_ids);

    if (h.bucket_count == 0) fail("bucket count is zero");
    std::uint32_t max_bucket = 0;
    for (NodeId id = 0; id < n; ++id) {
      if (types[id] >= kGateTypeCount) {
        fail("section 'types' holds invalid gate type " +
             std::to_string(types[id]) + " at node " + std::to_string(id));
      }
      const auto type = static_cast<GateType>(types[id]);
      if (!arity_ok(type,
                    fanin_offsets[id + 1] - fanin_offsets[id])) {
        fail("node " + std::to_string(id) + " has illegal arity for its " +
             std::string(gate_type_name(type)) + " type");
      }
      if (is_sink[id] > 1) {
        fail("section 'is_sink' holds non-boolean value at node " +
             std::to_string(id));
      }
      if (bucket_level[id] >= h.bucket_count) {
        fail("section 'bucket_level' exceeds the bucket count at node " +
             std::to_string(id));
      }
      max_bucket = std::max(max_bucket, bucket_level[id]);
      if (!std::isfinite(cone_estimate[id])) {
        fail("section 'cone_estimate' holds a non-finite value at node " +
             std::to_string(id));
      }
    }
    if (max_bucket + 1 != h.bucket_count) {
      fail("bucket count disagrees with section 'bucket_level'");
    }

    if (name_offsets_.front() != 0 ||
        name_offsets_.back() != name_blob_.size()) {
      fail("section 'name_offsets' does not cover section 'name_blob'");
    }
    for (std::size_t i = 1; i < name_offsets_.size(); ++i) {
      if (name_offsets_[i] < name_offsets_[i - 1]) {
        fail("section 'name_offsets' is not monotonic");
      }
    }

    // Output flags: derived from the outputs section, checked against
    // is_sink so the two never drift.
    std::vector<std::uint8_t> is_output(n, 0);
    for (std::uint32_t out : outputs_) {
      if (out >= n) {
        fail("section 'outputs' references node " + std::to_string(out) +
             " of " + std::to_string(n));
      }
      if (is_output[out]) {
        fail("section 'outputs' lists node " + std::to_string(out) +
             " twice");
      }
      is_output[out] = 1;
    }
    std::size_t sink_count = 0;
    for (NodeId id = 0; id < n; ++id) {
      const bool expect =
          is_output[id] != 0 || static_cast<GateType>(types[id]) == GateType::kDff;
      if ((is_sink[id] != 0) != expect) {
        fail("section 'is_sink' disagrees with section 'outputs' at node " +
             std::to_string(id));
      }
      sink_count += is_sink[id];
    }
    if (sinks_by_rank.size() != sink_count) {
      fail("section 'sinks_by_rank' has " +
           std::to_string(sinks_by_rank.size()) + " entries, expected " +
           std::to_string(sink_count));
    }
    for (std::size_t i = 0; i < sinks_by_rank.size(); ++i) {
      const std::uint32_t s = sinks_by_rank[i];
      if (s >= n || !is_sink[s]) {
        fail("section 'sinks_by_rank' lists a non-sink node");
      }
      if (i > 0) {
        const std::uint32_t prev = sinks_by_rank[i - 1];
        if (topo_pos[prev] > topo_pos[s] ||
            (topo_pos[prev] == topo_pos[s] && prev >= s)) {
          fail("section 'sinks_by_rank' is not rank-sorted");
        }
      }
    }

    // All checks passed: hand the mapped tables to the kernels.
    CompiledCircuit::Parts p;
    p.types = {reinterpret_cast<const GateType*>(types.data()), types.size()};
    p.is_sink = is_sink;
    p.bucket_level = bucket_level;
    p.topo_pos = topo_pos;
    p.fanin_offsets = fanin_offsets;
    p.fanin_ids = fanin_ids;
    p.fanout_offsets = fanout_offsets;
    p.fanout_ids = fanout_ids;
    p.sinks_by_rank = sinks_by_rank;
    p.cone_estimate = cone_estimate;
    p.bucket_count = h.bucket_count;
    compiled_ = std::make_unique<const CompiledCircuit>(
        CompiledCircuit::borrow(p));
  } catch (...) {
    ::munmap(map_addr_, map_size_);
    map_addr_ = nullptr;
    map_size_ = 0;
    throw;
  }
}

ArtifactView::~ArtifactView() {
  if (map_addr_ != nullptr) ::munmap(map_addr_, map_size_);
}

Circuit ArtifactView::restore_circuit() const {
  const std::size_t n = node_count();
  const CompiledCircuit& c = *compiled_;
  std::vector<Node> nodes(n);
  const char* blob = reinterpret_cast<const char*>(name_blob_.data());
  for (NodeId id = 0; id < n; ++id) {
    Node& nd = nodes[id];
    nd.type = c.type(id);
    nd.name.assign(blob + name_offsets_[id],
                   name_offsets_[id + 1] - name_offsets_[id]);
    const auto fi = c.fanin(id);
    nd.fanin.assign(fi.begin(), fi.end());
    const auto fo = c.fanout(id);
    nd.fanout.assign(fo.begin(), fo.end());
  }
  try {
    Circuit circuit = Circuit::restore(
        std::string(circuit_name_), std::move(nodes),
        std::span<const NodeId>(outputs_.data(), outputs_.size()));
    const CircuitFingerprint actual = circuit_fingerprint(circuit);
    if (!(actual == fingerprint_)) {
      fail("restored circuit fingerprint " + to_string(actual) +
           " disagrees with the header's " + to_string(fingerprint_));
    }
    return circuit;
  } catch (const ArtifactError&) {
    throw;
  } catch (const std::exception& e) {
    fail(std::string("restore failed: ") + e.what());
  }
}

}  // namespace sereep
