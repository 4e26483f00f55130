// CRC-32 (IEEE 802.3 / zlib polynomial, reflected) — the one checksum the
// repo uses: the shard wire protocol's per-frame payload CRC
// (src/epp/shard_protocol.hpp) and the .sca artifact format's per-section +
// whole-file checksums (src/artifact/compiled_artifact.hpp) both name this
// function, so a value computed by either side verifies against the other
// and tests can forge/flip exactly the checksum bytes. Slicing-by-8 tables,
// with carry-less-multiply folding for long inputs on x86 CPUs that have
// PCLMUL — no zlib dependency.
#pragma once

#include <cstdint>
#include <span>

namespace sereep {

/// CRC-32 of `data` (init/final XOR 0xffffffff, reflected 0xedb88320).
[[nodiscard]] std::uint32_t crc32(std::span<const std::uint8_t> data);

}  // namespace sereep
