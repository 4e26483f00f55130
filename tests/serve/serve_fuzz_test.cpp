// Protocol fuzzing against a LIVE `sereep serve` socket.
//
// The serve daemon reads frames from anyone who can connect, so its framing
// layer is the repo's one genuinely untrusted input path. The contract
// under garbage is absolute: every malformed input yields a clean kError
// frame (naming the cause) and/or an orderly close — NEVER a hang, a crash,
// a partial/garbage response, or an oversized allocation — and the daemon
// keeps serving correct byte-identical responses afterwards. The cases are
// seeded (fixed mt19937 seeds), so a failure reproduces exactly; the CI
// asan job re-runs this suite under AddressSanitizer, which turns any
// parser over-read into a loud failure instead of silent luck.
//
// Structured cases: truncation at every interesting boundary, bad magic,
// bad version, an oversized declared payload length (must be rejected by
// the server's tight bound, far below the protocol-wide cap), flipped CRC
// bytes, flipped payload bytes, garbage-then-valid on one connection, a
// half-sent frame left hanging (the request deadline must close it), plus
// seeded random garbage and random single-byte corruptions.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "sereep/sereep.hpp"
#include "src/epp/shard_protocol.hpp"
#include "src/serve/serve_protocol.hpp"
#include "src/util/net.hpp"
#include "src/util/subprocess.hpp"

namespace sereep {
namespace {

constexpr int kReadTimeoutMs = 15'000;  // generous: expiry means "server hung"

class ServeFuzz : public ::testing::Test {
 protected:
  // One daemon for the whole suite: surviving every case IS the property
  // under test. The 2 s request deadline bounds half-sent-frame cases.
  static void SetUpTestSuite() {
    daemon_ = new ChildProcess(ChildProcess::spawn(
        {SEREEP_CLI_PATH, "serve", "--port=0", "--request-timeout-ms=2000"}));
    port_ = parse_listening_port(daemon_->read_stdout_line());
  }
  static void TearDownTestSuite() {
    delete daemon_;
    daemon_ = nullptr;
  }

  static int connect_to_daemon() {
    return tcp_connect("127.0.0.1", port_, /*timeout_ms=*/10'000);
  }

  static void send_all(int fd, std::span<const std::uint8_t> bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) return;  // server already closed — that's a valid outcome
      sent += static_cast<std::size_t>(n);
    }
  }

  /// The full wire bytes (header + payload) of one valid sweep request,
  /// captured through the real frame writer so mutations start from a
  /// genuine frame.
  static std::vector<std::uint8_t> valid_frame() {
    ServeRequest req;
    req.kind = ServeRequestKind::kSweepCsv;
    req.netlist = "c17";
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    write_shard_frame(fds[1], ShardFrameType::kRequest, encode_request(req));
    ::close(fds[1]);
    std::vector<std::uint8_t> bytes(4096);
    const ssize_t n = ::read(fds[0], bytes.data(), bytes.size());
    ::close(fds[0]);
    EXPECT_GT(n, 20);
    bytes.resize(static_cast<std::size_t>(n));
    return bytes;
  }

  /// Feeds `bytes` to a fresh connection and requires the clean-rejection
  /// contract: any reply frames are kError only, and the connection reaches
  /// EOF (or a torn-connection error) within the deadline — no hang, no
  /// kResponse built from garbage.
  static void expect_rejected(std::span<const std::uint8_t> bytes,
                              const std::string& label) {
    const int fd = connect_to_daemon();
    send_all(fd, bytes);
    ::shutdown(fd, SHUT_WR);
    try {
      for (;;) {
        const std::optional<ShardFrame> frame =
            read_shard_frame(fd, kReadTimeoutMs);
        if (!frame) break;
        EXPECT_EQ(frame->type, ShardFrameType::kError)
            << label << ": the server must never answer garbage with a "
            << "non-error frame";
      }
    } catch (const ShardTimeoutError&) {
      ADD_FAILURE() << label << ": server neither replied nor closed";
    } catch (const std::exception&) {
      // A connection torn down while we read (RST after the server closed)
      // is an orderly rejection too.
    }
    ::close(fd);
  }

  /// The liveness probe between attacks: a valid request must still answer
  /// the exact in-process bytes.
  static void expect_still_serving(const std::string& label) {
    Session local = Session::open("c17");
    ServeRequest req;
    req.kind = ServeRequestKind::kSweepCsv;
    req.netlist = "c17";
    const int fd = connect_to_daemon();
    write_shard_frame(fd, ShardFrameType::kRequest, encode_request(req));
    const std::optional<ShardFrame> reply = read_shard_frame(fd, kReadTimeoutMs);
    ::close(fd);
    ASSERT_TRUE(reply.has_value()) << label;
    ASSERT_EQ(reply->type, ShardFrameType::kResponse) << label;
    EXPECT_EQ(std::string(reinterpret_cast<const char*>(
                              reply->payload.data()),
                          reply->payload.size()),
              local.sweep_csv())
        << label;
  }

  static ChildProcess* daemon_;
  static std::uint16_t port_;
};

ChildProcess* ServeFuzz::daemon_ = nullptr;
std::uint16_t ServeFuzz::port_ = 0;

TEST_F(ServeFuzz, TruncatedFramesAreRejectedCleanly) {
  const std::vector<std::uint8_t> frame = valid_frame();
  for (const std::size_t len :
       {std::size_t{1}, std::size_t{4}, std::size_t{10}, std::size_t{19},
        std::size_t{21}, frame.size() - 1}) {
    expect_rejected(std::span(frame).first(len),
                    "truncated to " + std::to_string(len) + " bytes");
  }
  expect_still_serving("after truncated frames");
}

TEST_F(ServeFuzz, BadMagicAndBadVersionAreRejectedByName) {
  std::vector<std::uint8_t> bad_magic = valid_frame();
  bad_magic[0] ^= 0xff;
  expect_rejected(bad_magic, "bad magic");

  std::vector<std::uint8_t> bad_version = valid_frame();
  bad_version[4] ^= 0xff;  // version is bytes 4..5
  expect_rejected(bad_version, "bad version");
  expect_still_serving("after bad magic/version");
}

TEST_F(ServeFuzz, OversizedDeclaredLengthNeverDrivesAnAllocation) {
  // Declared payload length of 1 GiB: under the protocol-wide cap, but far
  // over the server's per-request bound — the server must reject on the
  // DECLARED size, before reading (or allocating) anything like that much.
  std::vector<std::uint8_t> frame = valid_frame();
  const std::uint64_t huge = std::uint64_t{1} << 30;
  ASSERT_GT(huge, kMaxServeRequestPayload);
  ASSERT_LT(huge, kMaxShardPayload);
  std::memcpy(frame.data() + 8, &huge, 8);  // payload-size field, LE
  expect_rejected(frame, "1 GiB declared length");
  expect_still_serving("after oversized declared length");
}

TEST_F(ServeFuzz, FlippedCrcAndPayloadBytesAreRejected) {
  const std::vector<std::uint8_t> frame = valid_frame();
  for (std::size_t i = 16; i < 20; ++i) {  // the four CRC bytes
    std::vector<std::uint8_t> mutated = frame;
    mutated[i] ^= 0x01;
    expect_rejected(mutated, "CRC byte " + std::to_string(i) + " flipped");
  }
  for (const std::size_t i :
       {std::size_t{20}, std::size_t{24}, frame.size() - 1}) {
    std::vector<std::uint8_t> mutated = frame;
    mutated[i] ^= 0x80;
    expect_rejected(mutated, "payload byte " + std::to_string(i) + " flipped");
  }
  expect_still_serving("after CRC/payload flips");
}

TEST_F(ServeFuzz, GarbageThenValidOnOneConnectionClosesButDaemonServes) {
  // Garbage FIRST poisons the stream: the server must error out and close
  // even though a perfectly valid frame follows — resynchronizing inside a
  // corrupted stream would mean guessing at frame boundaries. A fresh
  // connection then works.
  std::vector<std::uint8_t> bytes = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
  const std::vector<std::uint8_t> frame = valid_frame();
  bytes.insert(bytes.end(), frame.begin(), frame.end());
  expect_rejected(bytes, "garbage then valid");
  expect_still_serving("after garbage-then-valid");
}

TEST_F(ServeFuzz, HalfSentFrameIsClosedByTheRequestDeadline) {
  // Send half a header and go silent WITHOUT closing: only the server's
  // request deadline (2 s here) can reclaim the connection. The bounded
  // read proves it does — and that a stalled client cannot park forever.
  const std::vector<std::uint8_t> frame = valid_frame();
  const int fd = connect_to_daemon();
  send_all(fd, std::span(frame).first(10));
  try {
    for (;;) {
      const std::optional<ShardFrame> reply = read_shard_frame(fd, 10'000);
      if (!reply) break;
      EXPECT_EQ(reply->type, ShardFrameType::kError);
    }
  } catch (const ShardTimeoutError&) {
    ADD_FAILURE() << "server kept a half-sent frame's connection open past "
                     "its request deadline";
  } catch (const std::exception&) {
  }
  ::close(fd);
  expect_still_serving("after half-sent frame");
}

TEST_F(ServeFuzz, SeededRandomGarbageNeverHangsOrKillsTheDaemon) {
  for (const std::uint32_t seed : {1u, 7u, 42u, 1337u, 99991u}) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<int> len_dist(1, 200);
    std::uniform_int_distribution<int> byte_dist(0, 255);
    std::vector<std::uint8_t> garbage(
        static_cast<std::size_t>(len_dist(rng)));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(byte_dist(rng));
    expect_rejected(garbage, "random garbage, seed " + std::to_string(seed));
  }
  expect_still_serving("after random garbage");
}

TEST_F(ServeFuzz, SeededSingleByteCorruptionsAreAlwaysErrorOrClose) {
  // 64 seeded single-byte corruptions across the whole frame. The CRC (or
  // the header checks) must catch every one — expect_rejected() asserts the
  // server never answers a corrupted frame with kResponse.
  const std::vector<std::uint8_t> frame = valid_frame();
  std::mt19937 rng(0xc0ffee);
  std::uniform_int_distribution<std::size_t> pos_dist(0, frame.size() - 1);
  std::uniform_int_distribution<int> bit_dist(0, 7);
  for (int i = 0; i < 64; ++i) {
    std::vector<std::uint8_t> mutated = frame;
    const std::size_t pos = pos_dist(rng);
    mutated[pos] ^= static_cast<std::uint8_t>(1u << bit_dist(rng));
    expect_rejected(mutated,
                    "single-byte corruption #" + std::to_string(i) +
                        " at offset " + std::to_string(pos));
  }
  expect_still_serving("after single-byte corruptions");
}

}  // namespace
}  // namespace sereep
