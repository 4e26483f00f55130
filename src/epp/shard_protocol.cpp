#include "src/epp/shard_protocol.hpp"

#include <poll.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "src/util/crc32.hpp"

namespace sereep {

namespace {

/// Little-endian byte serializer.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { raw(v); }
  void u32(std::uint32_t v) { raw(v); }
  void u64(std::uint64_t v) { raw(v); }
  /// IEEE bit pattern — the double that crosses the wire IS the double.
  void f64(double v) { raw(std::bit_cast<std::uint64_t>(v)); }

 private:
  template <typename T>
  void raw(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian reader; throws on truncation.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return raw<std::uint16_t>(); }
  std::uint32_t u32() { return raw<std::uint32_t>(); }
  std::uint64_t u64() { return raw<std::uint64_t>(); }
  double f64() { return std::bit_cast<double>(raw<std::uint64_t>()); }

  void expect_end() const {
    if (pos_ != data_.size()) {
      throw std::runtime_error("shard protocol: trailing payload bytes");
    }
  }

  /// Validates an untrusted element count against the bytes actually left
  /// (`min_size` per element) BEFORE the caller sizes a vector by it — a
  /// corrupted count must be a protocol error, never a multi-GB allocation.
  [[nodiscard]] std::uint64_t count(std::uint64_t value,
                                    std::size_t min_size) const {
    if (value > (data_.size() - pos_) / min_size) {
      throw std::runtime_error(
          "shard protocol: element count exceeds payload size");
    }
    return value;
  }

 private:
  template <typename T>
  T raw() {
    const std::span<const std::uint8_t> b = take(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(b[i]) << (8 * i));
    }
    return v;
  }
  std::span<const std::uint8_t> take(std::size_t n) {
    if (data_.size() - pos_ < n) {
      throw std::runtime_error("shard protocol: truncated payload");
    }
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("shard protocol: write: ") +
                               std::strerror(errno));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// Blocks until `fd` is readable (or hung up) or `timeout_ms` elapses with
/// no byte available; expiry throws ShardTimeoutError. timeout_ms <= 0
/// returns immediately (unbounded reads).
void wait_readable(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return;
  struct pollfd pfd = {.fd = fd, .events = POLLIN, .revents = 0};
  for (;;) {
    const int n = ::poll(&pfd, 1, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("shard protocol: poll: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      throw ShardTimeoutError(
          "shard protocol: no bytes for " + std::to_string(timeout_ms) +
          " ms — peer stopped making progress (deadline expired)");
    }
    return;  // readable or POLLHUP; either way read() will not block
  }
}

/// Reads exactly `size` bytes. Returns false on EOF before the first byte;
/// throws on EOF mid-buffer, a read error, or — when `timeout_ms` > 0 — a
/// ShardTimeoutError once no byte arrives within the deadline (the clock
/// restarts on every byte, so this bounds silence, not total transfer time).
bool read_all(int fd, std::uint8_t* data, std::size_t size,
              int timeout_ms = 0) {
  std::size_t got = 0;
  while (got < size) {
    wait_readable(fd, timeout_ms);
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("shard protocol: read: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0) return false;
      throw std::runtime_error("shard protocol: unexpected EOF mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::uint32_t shard_crc32(std::span<const std::uint8_t> data) {
  return crc32(data);  // the repo-wide CRC-32 (src/util/crc32.hpp)
}

std::vector<std::uint8_t> encode_job_prefix(const ShardJob& job) {
  std::vector<std::uint8_t> out;
  out.reserve(40 + (job.sp.size() + job.latch_weights.size()) * 8);
  ByteWriter w(out);
  w.u8(job.epp.track_polarity ? 1 : 0);
  w.f64(job.epp.electrical_survival);
  w.u32(job.threads);
  w.u8(job.epp.simd ? 2 : 1);
  w.u8(static_cast<std::uint8_t>(job.output));
  w.u64(job.fingerprint.nodes);
  w.u64(job.fingerprint.digest);
  w.u64(job.sp.size());
  for (double p : job.sp) w.f64(p);
  w.u64(job.latch_weights.size());
  for (double weight : job.latch_weights) w.f64(weight);
  return out;
}

void append_job_dispatch(std::vector<std::uint8_t>& payload,
                         std::uint32_t spawn, std::span<const NodeId> sites) {
  payload.reserve(payload.size() + 12 + sites.size() * 4);
  ByteWriter w(payload);
  w.u32(spawn);
  w.u64(sites.size());
  for (NodeId site : sites) w.u32(site);
}

std::vector<std::uint8_t> encode_job(const ShardJob& job) {
  std::vector<std::uint8_t> out = encode_job_prefix(job);
  append_job_dispatch(out, job.spawn, job.sites);
  return out;
}

ShardJob decode_job(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  ShardJob job;
  job.epp.track_polarity = r.u8() != 0;
  job.epp.electrical_survival = r.f64();
  job.threads = r.u32();
  job.epp.simd = r.u8() == 2;
  const std::uint8_t output = r.u8();
  if (output != static_cast<std::uint8_t>(ShardOutput::kRow) &&
      output != static_cast<std::uint8_t>(ShardOutput::kRecord)) {
    throw std::runtime_error("shard protocol: unknown job output kind " +
                             std::to_string(output));
  }
  job.output = static_cast<ShardOutput>(output);
  job.fingerprint.nodes = r.u64();
  job.fingerprint.digest = r.u64();
  job.sp.resize(r.count(r.u64(), 8));
  for (double& p : job.sp) p = r.f64();
  job.latch_weights.resize(r.count(r.u64(), 8));
  for (double& weight : job.latch_weights) weight = r.f64();
  job.spawn = r.u32();
  job.sites.resize(r.count(r.u64(), 4));
  for (NodeId& site : job.sites) site = r.u32();
  r.expect_end();
  return job;
}

std::vector<std::uint8_t> encode_results(std::span<const SiteEpp> records) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const SiteEpp& rec : records) {
    w.u32(rec.site);
    w.f64(rec.p_sensitized);
    w.f64(rec.p_sens_lower);
    w.f64(rec.p_sens_upper);
    w.f64(rec.self_dpin_mass);
    w.u64(rec.cone_size);
    w.u64(rec.reconvergent_gates);
    w.u32(static_cast<std::uint32_t>(rec.sinks.size()));
    for (const SinkEpp& sink : rec.sinks) {
      w.u32(sink.sink);
      w.f64(sink.error_mass);
      for (int s = 0; s < 4; ++s) w.f64(sink.distribution.p[s]);
    }
  }
  return out;
}

std::vector<SiteEpp> decode_results(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  // 56 bytes = one record with no sinks — the minimum wire footprint.
  std::vector<SiteEpp> records(r.count(r.u32(), 56));
  for (SiteEpp& rec : records) {
    rec.site = r.u32();
    rec.p_sensitized = r.f64();
    rec.p_sens_lower = r.f64();
    rec.p_sens_upper = r.f64();
    rec.self_dpin_mass = r.f64();
    rec.cone_size = r.u64();
    rec.reconvergent_gates = r.u64();
    rec.sinks.resize(r.count(r.u32(), 44));  // 44 bytes per sink entry
    for (SinkEpp& sink : rec.sinks) {
      sink.sink = r.u32();
      sink.error_mass = r.f64();
      for (int s = 0; s < 4; ++s) sink.distribution.p[s] = r.f64();
    }
  }
  r.expect_end();
  return records;
}

std::vector<std::uint8_t> encode_rows(std::span<const SiteRow> rows) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + rows.size() * 20);
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(rows.size()));
  for (const SiteRow& row : rows) {
    w.u32(row.site);
    w.f64(row.p_sensitized);
    w.f64(row.latched);
  }
  return out;
}

std::vector<SiteRow> decode_rows(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  std::vector<SiteRow> rows(r.count(r.u32(), 20));
  for (SiteRow& row : rows) {
    row.site = r.u32();
    row.p_sensitized = r.f64();
    row.latched = r.f64();
  }
  r.expect_end();
  return rows;
}

std::vector<std::uint8_t> encode_done(std::uint64_t total) {
  std::vector<std::uint8_t> out;
  ByteWriter(out).u64(total);
  return out;
}

std::uint64_t decode_done(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  const std::uint64_t total = r.u64();
  r.expect_end();
  return total;
}

std::vector<std::uint8_t> encode_hello(const NetlistFingerprint& fp) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.u64(fp.nodes);
  w.u64(fp.digest);
  return out;
}

NetlistFingerprint decode_hello(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  NetlistFingerprint fp;
  fp.nodes = r.u64();
  fp.digest = r.u64();
  r.expect_end();
  return fp;
}

std::vector<std::uint8_t> encode_progress(std::uint64_t count) {
  return encode_done(count);  // same u64 shape, distinct frame type
}

std::uint64_t decode_progress(std::span<const std::uint8_t> payload) {
  return decode_done(payload);
}

void write_shard_frame(int fd, ShardFrameType type,
                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> header;
  header.reserve(20);
  ByteWriter w(header);
  w.u32(kShardMagic);
  w.u16(kShardProtocolVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u64(payload.size());
  w.u32(shard_crc32(payload));
  write_all(fd, header.data(), header.size());
  write_all(fd, payload.data(), payload.size());
}

std::optional<ShardFrame> read_shard_frame(int fd, int timeout_ms,
                                           std::uint64_t max_payload) {
  std::uint8_t header[20];
  if (!read_all(fd, header, sizeof header, timeout_ms)) return std::nullopt;
  ByteReader r({header, sizeof header});
  if (r.u32() != kShardMagic) {
    throw std::runtime_error(
        "shard protocol: bad frame magic (not a sereep frame stream?)");
  }
  ShardFrame frame;
  frame.version = r.u16();
  if (frame.version < kMinShardProtocolVersion ||
      frame.version > kShardProtocolVersion) {
    // v4..v6 frame identically to v3 (only the job payload moved, and the
    // worker checks that itself), so older peers stay accepted; anything
    // outside the window is a mismatched binary.
    throw std::runtime_error(
        "shard protocol: version mismatch (peer speaks v" +
        std::to_string(frame.version) + ", this side accepts v" +
        std::to_string(kMinShardProtocolVersion) + "..v" +
        std::to_string(kShardProtocolVersion) + ")");
  }
  frame.type = static_cast<ShardFrameType>(r.u16());
  const std::uint64_t size = r.u64();
  const std::uint32_t crc = r.u32();
  if (size > max_payload) {
    throw std::runtime_error("shard protocol: implausible payload size");
  }
  frame.payload.resize(size);
  if (size > 0 && !read_all(fd, frame.payload.data(), size, timeout_ms)) {
    throw std::runtime_error("shard protocol: unexpected EOF mid-frame");
  }
  if (shard_crc32(frame.payload) != crc) {
    throw std::runtime_error(
        "shard protocol: payload CRC mismatch (corrupted frame)");
  }
  return frame;
}

}  // namespace sereep
