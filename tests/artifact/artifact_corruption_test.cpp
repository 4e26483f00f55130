// .sca corruption rejection — a damaged artifact ALWAYS throws, never UB.
//
// The loader hands its arrays to kernels that index without bounds checks,
// so the validation pass in ArtifactView's constructor is the only wall
// between a flipped bit on disk and silent garbage (or a crash) in a sweep.
// These tests attack the file the way disks and truncated copies do —
// prefix truncation at every interesting length, a byte flipped in every
// section, tampered header fields, wrong magic/endianness/version, and a
// seeded random-flip fuzz — and require the SAME observable outcome each
// time: ArtifactError with a diagnostic carrying the path and, for section
// damage, the section NAME (a checksum failure you can act on beats
// "invalid file").
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "src/artifact/compiled_artifact.hpp"
#include "src/netlist/benchmarks.hpp"
#include "src/netlist/generator.hpp"
#include "src/util/crc32.hpp"

namespace sereep {
namespace {

std::string temp_path(const std::string& stem) {
  return ::testing::TempDir() + "sereep_corrupt_" + stem + "_" +
         std::to_string(::getpid()) + ".sca";
}

struct ScopedFile {
  explicit ScopedFile(std::string p) : path(std::move(p)) {}
  ~ScopedFile() { std::remove(path.c_str()); }
  std::string path;
};

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<std::uint8_t> out;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  // fwrite's buffer must not be null, and an empty vector's data() may be.
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  std::fclose(f);
}

/// Loads `path` expecting rejection; returns the diagnostic.
std::string expect_rejected(const std::string& path) {
  try {
    const ArtifactView view(path);
  } catch (const ArtifactError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("artifact '"), std::string::npos)
        << "diagnostic must carry the path: " << what;
    return what;
  }
  ADD_FAILURE() << "corrupt artifact loaded cleanly: " << path;
  return {};
}

/// One intact reference artifact per suite run (s953-sized, so every
/// section of the format is present and non-trivial).
const std::vector<std::uint8_t>& golden_bytes() {
  static const std::vector<std::uint8_t>* bytes = [] {
    const std::string path = temp_path("golden");
    write_artifact(path, generate_circuit(iscas89_profile("s953"), 3));
    auto* out = new std::vector<std::uint8_t>(read_bytes(path));
    std::remove(path.c_str());
    return out;
  }();
  return *bytes;
}

// ---- truncation ------------------------------------------------------------

TEST(ArtifactCorruption, TruncationAtEveryBoundaryRejected) {
  const std::vector<std::uint8_t>& good = golden_bytes();
  ASSERT_GT(good.size(), kArtifactHeaderSize);
  ScopedFile f(temp_path("trunc"));
  std::vector<std::size_t> lengths = {0,  1,  63, kArtifactHeaderSize - 1,
                                      kArtifactHeaderSize,
                                      kArtifactHeaderSize + 1,
                                      good.size() / 2, good.size() - 64,
                                      good.size() - 1};
  // ...plus a sweep so no structure-dependent length is missed.
  for (std::size_t len = 0; len < good.size(); len += 97) {
    lengths.push_back(len);
  }
  for (const std::size_t len : lengths) {
    write_bytes(f.path,
                std::vector<std::uint8_t>(good.begin(), good.begin() + len));
    expect_rejected(f.path);
  }
}

TEST(ArtifactCorruption, PeekRejectsTruncatedHeader) {
  const std::vector<std::uint8_t>& good = golden_bytes();
  ScopedFile f(temp_path("peek"));
  write_bytes(f.path,
              std::vector<std::uint8_t>(good.begin(), good.begin() + 64));
  EXPECT_THROW((void)peek_artifact_fingerprint(f.path), ArtifactError);
  EXPECT_THROW((void)artifact_sections(f.path), ArtifactError);
}

TEST(ArtifactCorruption, MissingFileRejectedWithPath) {
  const std::string path = temp_path("nonexistent");
  const std::string what = expect_rejected(path);
  EXPECT_NE(what.find(path), std::string::npos) << what;
}

// ---- per-section damage ----------------------------------------------------

TEST(ArtifactCorruption, ByteFlipInEverySectionNamesTheSection) {
  // The headline diagnostic contract: damage inside section X is reported
  // as section X, by name, so an operator knows which table is toast.
  const std::vector<std::uint8_t>& good = golden_bytes();
  ScopedFile f(temp_path("flip"));
  write_bytes(f.path, good);
  const std::vector<ArtifactSectionInfo> sections = artifact_sections(f.path);
  ASSERT_GE(sections.size(), 14u);
  for (const ArtifactSectionInfo& sec : sections) {
    ASSERT_GT(sec.size, 0u) << sec.name;
    for (const std::uint64_t where :
         {sec.offset, sec.offset + sec.size / 2, sec.offset + sec.size - 1}) {
      std::vector<std::uint8_t> bad = good;
      ASSERT_LT(where, bad.size());
      bad[where] ^= 0x40;
      write_bytes(f.path, bad);
      const std::string what = expect_rejected(f.path);
      EXPECT_NE(what.find("section '" + sec.name + "'"), std::string::npos)
          << "flip at " << where << " got: " << what;
      EXPECT_NE(what.find("checksum"), std::string::npos) << what;
    }
  }
}

// ---- header damage ---------------------------------------------------------

TEST(ArtifactCorruption, BadMagicRejected) {
  std::vector<std::uint8_t> bad = golden_bytes();
  bad[0] = 'X';
  ScopedFile f(temp_path("magic"));
  write_bytes(f.path, bad);
  const std::string what = expect_rejected(f.path);
  EXPECT_NE(what.find("not a .sca artifact"), std::string::npos) << what;
}

TEST(ArtifactCorruption, ByteSwappedMagicDiagnosedAsEndianness) {
  // A file written on (or by a hypothetical port to) a big-endian host
  // reads back with the magic byte-reversed — that deserves a targeted
  // message, not a generic "bad magic".
  std::vector<std::uint8_t> bad = golden_bytes();
  std::swap(bad[0], bad[3]);
  std::swap(bad[1], bad[2]);
  ScopedFile f(temp_path("endian"));
  write_bytes(f.path, bad);
  const std::string what = expect_rejected(f.path);
  EXPECT_NE(what.find("endian"), std::string::npos) << what;
}

TEST(ArtifactCorruption, FutureVersionRejectedByName) {
  std::vector<std::uint8_t> bad = golden_bytes();
  bad[4] = 0x2A;  // version 42
  bad[5] = 0;
  ScopedFile f(temp_path("version"));
  write_bytes(f.path, bad);
  const std::string what = expect_rejected(f.path);
  EXPECT_NE(what.find("version 42"), std::string::npos) << what;
  EXPECT_NE(what.find("version 2"), std::string::npos)
      << "the message should say what this build CAN read: " << what;
}

TEST(ArtifactCorruption, PreviousVersionRejectedByName) {
  // A version 1 file carried an SP table and a cluster plan this build no
  // longer reads; it is refused by its version field, naming both versions,
  // so the user knows to recompile it.
  std::vector<std::uint8_t> bad = golden_bytes();
  bad[4] = 1;
  bad[5] = 0;
  ScopedFile f(temp_path("oldversion"));
  write_bytes(f.path, bad);
  const std::string what = expect_rejected(f.path);
  EXPECT_NE(what.find("version 1"), std::string::npos) << what;
  EXPECT_NE(what.find("version 2"), std::string::npos) << what;
}

TEST(ArtifactCorruption, RetiredSectionIdRejectedAsUnknown) {
  // Ids 13 and 16-18 (version 1's SP table and plan) are never reused. A
  // table entry renamed to one, with a header CRC that still verifies, is
  // refused by the section-id check itself.
  const std::vector<std::uint8_t>& good = golden_bytes();
  std::uint32_t section_count = 0;
  std::memcpy(&section_count, good.data() + 32, sizeof section_count);
  const std::size_t table_end =
      kArtifactHeaderSize + section_count * kArtifactSectionEntrySize;
  ScopedFile f(temp_path("retired"));
  for (const std::uint32_t id : {13u, 16u, 17u, 18u}) {
    std::vector<std::uint8_t> bad = good;
    std::memcpy(bad.data() + kArtifactHeaderSize, &id, sizeof id);
    const std::uint32_t zero = 0;
    std::memcpy(bad.data() + 64, &zero, sizeof zero);
    const std::uint32_t crc = crc32({bad.data(), table_end});
    std::memcpy(bad.data() + 64, &crc, sizeof crc);
    write_bytes(f.path, bad);
    const std::string what = expect_rejected(f.path);
    EXPECT_NE(what.find("unknown section id " + std::to_string(id)),
              std::string::npos)
        << what;
  }
}

TEST(ArtifactCorruption, TamperedHeaderFieldsCaughtByHeaderCrc) {
  // Every header field — node count, fingerprint, file size, section count,
  // bucket count, the reserved bytes 40-59 — is under the header CRC; no
  // single-byte tamper may survive.
  const std::vector<std::uint8_t>& good = golden_bytes();
  ScopedFile f(temp_path("header"));
  for (const std::size_t offset : {8u, 16u, 24u, 32u, 36u, 40u, 48u, 56u,
                                   57u, 60u, 64u, 100u, 127u}) {
    std::vector<std::uint8_t> bad = good;
    bad[offset] ^= 0x01;
    write_bytes(f.path, bad);
    expect_rejected(f.path);
  }
}

TEST(ArtifactCorruption, TamperedSectionTableCaughtByHeaderCrc) {
  // The section table is covered by the header CRC too — redirecting a
  // section offset at intact data would otherwise pass every section CRC.
  const std::vector<std::uint8_t>& good = golden_bytes();
  ScopedFile f(temp_path("table"));
  for (std::size_t entry = 0; entry < 3; ++entry) {
    std::vector<std::uint8_t> bad = good;
    bad[kArtifactHeaderSize + entry * kArtifactSectionEntrySize + 8] ^= 0x40;
    write_bytes(f.path, bad);
    expect_rejected(f.path);
  }
}

TEST(ArtifactCorruption, AppendedGarbageRejected) {
  std::vector<std::uint8_t> bad = golden_bytes();
  bad.insert(bad.end(), 64, 0xAB);
  ScopedFile f(temp_path("appended"));
  write_bytes(f.path, bad);
  const std::string what = expect_rejected(f.path);
  EXPECT_NE(what.find("size"), std::string::npos) << what;
}

// ---- fuzz ------------------------------------------------------------------

TEST(ArtifactCorruption, SeededRandomFlipsNeverCrash) {
  // 300 random single-byte flips anywhere in the file. The contract is NOT
  // that every flip is detected — a flip in alignment padding changes no
  // covered byte and MAY load — but that the outcome is always one of two
  // things: a clean ArtifactError, or a fully-validated view whose
  // fingerprint still matches. Under ASan (CI runs this suite there) any
  // out-of-bounds read a flip could provoke becomes a hard failure.
  const std::vector<std::uint8_t>& good = golden_bytes();
  const CircuitFingerprint want = [&] {
    ScopedFile f(temp_path("fuzzref"));
    write_bytes(f.path, good);
    return peek_artifact_fingerprint(f.path);
  }();
  std::mt19937 rng(0xA51F);  // fixed seed: a failure names its iteration
  std::uniform_int_distribution<std::size_t> pos(0, good.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  ScopedFile f(temp_path("fuzz"));
  int detected = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[pos(rng)] ^= static_cast<std::uint8_t>(1u << bit(rng));
    write_bytes(f.path, bad);
    try {
      const ArtifactView view(f.path);
      EXPECT_TRUE(view.fingerprint() == want) << "iteration " << i;
    } catch (const ArtifactError&) {
      ++detected;
    }
  }
  // Almost the whole file is CRC-covered; the undetected residue is the
  // padding runs. Anything below this floor means validation went missing.
  EXPECT_GE(detected, 280) << "suspiciously low detection rate";
}

TEST(ArtifactCorruption, SectionListCoversTheFormat) {
  // artifact_sections is the corruption tests' targeting map — pin that it
  // names the load-bearing sections so the flip loop above really visits
  // the names, the CSR adjacency and the topological order.
  const std::vector<std::uint8_t>& good = golden_bytes();
  ScopedFile f(temp_path("sections"));
  write_bytes(f.path, good);
  const std::vector<ArtifactSectionInfo> sections = artifact_sections(f.path);
  auto has = [&](const char* name) {
    for (const ArtifactSectionInfo& s : sections) {
      if (s.name == name) return true;
    }
    return false;
  };
  for (const char* name :
       {"name_blob", "fanin_ids", "fanout_ids", "topo_pos", "outputs"}) {
    EXPECT_TRUE(has(name)) << name;
  }
  for (const ArtifactSectionInfo& s : sections) {
    EXPECT_EQ(s.offset % kArtifactAlign, 0u)
        << "section '" << s.name << "' is not 64-byte aligned";
  }
}

}  // namespace
}  // namespace sereep
