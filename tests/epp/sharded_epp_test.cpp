// Sharded multi-process sweep engine — planner, protocol, supervisor and
// end-to-end equivalence + failure-contract tests.
//
// The "sharded" tier joins the oracle hierarchy with the same contract as
// every other engine: bit-for-bit equality (EXPECT_EQ, no tolerance) with
// the batched engine it delegates to — sharding only partitions work across
// `sereep worker` processes (SEREEP_CLI_PATH, the real CLI binary built by
// this tree). The failure half of the contract matters just as much: under
// the default fail policy a worker that dies, truncates its stream, or
// miscounts its results must abort the sweep with a diagnostic naming the
// shard — silent partial sweeps are the one outcome these tests exist to
// forbid. Under the retry/degrade policies the supervisor must RECOVER from
// every fault the SEREEP_FAULT_PLAN harness (src/epp/fault_plan.hpp) can
// inject — death at any protocol phase, hangs past the progress deadline,
// corrupt frames, a worker binary that never starts — and the recovered
// sweep must still be bit-identical, with every recovery visible in
// Diagnostics and every dispatch torn down (workers_reaped ==
// workers_spawned, the hygiene assertion). Table fills — the only sweeps
// that fan out; records sweeps run in-process — run here on the loopback
// fleet each one starts; tests/epp/tcp_transport_test.cpp covers remote
// hosts. No worker may outlive its parent, even a SIGKILLed one.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sereep/sereep.hpp"
#include "src/netlist/benchmarks.hpp"
#include "src/epp/shard_plan.hpp"
#include "src/epp/shard_protocol.hpp"
#include "src/epp/sharded_epp.hpp"
#include "src/netlist/bench_io.hpp"
#include "src/netlist/generator.hpp"
#include "src/util/crc32.hpp"
#include "src/util/subprocess.hpp"
#include "tests/epp/site_epp_testutil.hpp"

namespace sereep {
namespace {

// ---- shard planner ---------------------------------------------------------

std::vector<ConeCluster> toy_clusters(
    std::initializer_list<std::pair<std::vector<std::uint32_t>, double>>
        spec) {
  std::vector<ConeCluster> out;
  for (const auto& [members, mass] : spec) {
    out.push_back({.members = members, .mass = mass});
  }
  return out;
}

TEST(ShardPlan, EveryMemberLandsInExactlyOneShard) {
  const auto clusters = toy_clusters(
      {{{0, 1, 2}, 9.0}, {{3, 4}, 7.0}, {{5}, 5.0}, {{6}, 3.0}, {{7}, 1.0}});
  const std::vector<Shard> shards = plan_shards(clusters, 3);
  ASSERT_EQ(shards.size(), 3u);
  std::vector<int> seen(8, 0);
  for (const Shard& s : shards) {
    for (std::uint32_t m : s.members) ++seen[m];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(ShardPlan, LptGreedyBalancesByMass) {
  // Masses 9, 7, 5, 3, 1 over two shards: LPT gives {9, 3, 1} vs {7, 5}.
  const auto clusters = toy_clusters(
      {{{0}, 9.0}, {{1}, 7.0}, {{2}, 5.0}, {{3}, 3.0}, {{4}, 1.0}});
  const std::vector<Shard> shards = plan_shards(clusters, 2);
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_DOUBLE_EQ(shards[0].mass, 13.0);
  EXPECT_DOUBLE_EQ(shards[1].mass, 12.0);
  EXPECT_EQ(shards[0].members, (std::vector<std::uint32_t>{0, 3, 4}));
  EXPECT_EQ(shards[1].members, (std::vector<std::uint32_t>{1, 2}));
}

TEST(ShardPlan, ClustersAreNeverSplit) {
  const auto clusters = toy_clusters({{{0, 1, 2, 3}, 4.0}, {{4, 5}, 2.0}});
  for (unsigned n : {2u, 3u, 8u}) {
    const std::vector<Shard> shards = plan_shards(clusters, n);
    ASSERT_EQ(shards.size(), 2u) << n;  // empties dropped
    EXPECT_EQ(shards[0].members.size(), 4u);
    EXPECT_EQ(shards[1].members.size(), 2u);
  }
}

TEST(ShardPlan, DeterministicAndEdgeCases) {
  const auto clusters = toy_clusters(
      {{{0}, 2.0}, {{1}, 2.0}, {{2}, 2.0}});
  const auto a = plan_shards(clusters, 2);
  const auto b = plan_shards(clusters, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].members, b[i].members);
  }
  EXPECT_TRUE(plan_shards({}, 4).empty());
  const auto one = plan_shards(clusters, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].members.size(), 3u);
}

// ---- wire protocol ---------------------------------------------------------

TEST(ShardProtocol, JobRoundTripsExactly) {
  ShardJob job;
  job.epp.track_polarity = false;
  job.epp.electrical_survival = 0.97251;
  job.threads = 7;
  job.epp.simd = false;
  job.fingerprint = {.nodes = 12345, .digest = 0x1122334455667788};
  job.sp = {0.0, 1.0, 0.5, 0.123456789012345678, 1e-300};
  job.latch_weights = {0.115, 1.0, 0.5, 0.0, 5e-324};
  job.spawn = 41;
  job.sites = {3, 1, 4, 1'000'000};
  const ShardJob back = decode_job(encode_job(job));
  EXPECT_EQ(back.epp.track_polarity, job.epp.track_polarity);
  EXPECT_EQ(back.epp.electrical_survival, job.epp.electrical_survival);
  EXPECT_EQ(back.threads, job.threads);
  EXPECT_EQ(back.epp.simd, job.epp.simd);
  EXPECT_EQ(back.fingerprint, job.fingerprint);
  EXPECT_EQ(back.sp, job.sp);
  EXPECT_EQ(back.latch_weights, job.latch_weights);
  EXPECT_EQ(back.spawn, job.spawn);
  EXPECT_EQ(back.sites, job.sites);

  // The kernel choice is the byte after track_polarity (u8),
  // electrical_survival (f64) and threads (u32): 1 = scalar, 2 = SIMD, the
  // values every worker of this protocol version decodes. The netlist
  // fingerprint follows it directly: a v7 job has no output-kind byte.
  constexpr std::size_t kSimdByte = 1 + 8 + 4;
  for (const bool simd : {false, true}) {
    job.epp.simd = simd;
    const std::vector<std::uint8_t> bytes = encode_job(job);
    EXPECT_EQ(bytes[kSimdByte], simd ? 2 : 1);
    EXPECT_EQ(bytes[kSimdByte + 1], 12345 & 0xff);  // fingerprint.nodes
    EXPECT_EQ(decode_job(bytes).epp.simd, simd);
  }
}

TEST(ShardProtocol, RowBatchRoundTripsBitForBit) {
  const std::vector<SiteRow> rows = {
      {.site = 9,
       .p_sensitized = 0.12345678901234567,
       .latched = 0.02839506172839506},
      {.site = 1'000'000, .p_sensitized = 1.0, .latched = 5e-324}};
  const std::vector<std::uint8_t> bytes = encode_rows(rows);
  EXPECT_EQ(bytes.size(), 4 + rows.size() * 20);  // 20 bytes a row
  const std::vector<SiteRow> back = decode_rows(bytes);
  ASSERT_EQ(back.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(back[i].site, rows[i].site);
    EXPECT_EQ(back[i].p_sensitized, rows[i].p_sensitized);
    EXPECT_EQ(back[i].latched, rows[i].latched);
  }
  EXPECT_THROW((void)decode_rows(std::span(bytes).subspan(0, 23)),
               std::runtime_error);
}

/// One frame as raw bytes with an explicit header version (the writer
/// always stamps kShardProtocolVersion).
std::vector<std::uint8_t> frame_bytes(std::uint16_t version,
                                      ShardFrameType type,
                                      std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out;
  const auto put = [&out](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put(kShardMagic, 4);
  put(version, 2);
  put(static_cast<std::uint16_t>(type), 2);
  put(payload.size(), 8);
  put(crc32(payload), 4);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

TEST(ShardProtocol, OlderFramesReadButPreV7JobsAreRefused) {
  // Frames from v3..v6 peers (serve clients) frame identically and still
  // read; the job layout changed in v7 (its output byte went), so a worker
  // refuses an older job with a kError naming both versions instead of
  // misreading its bytes.
  for (const std::uint16_t version : {3, 4, 5, 6, 7}) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::vector<std::uint8_t> bytes =
        frame_bytes(version, ShardFrameType::kDone, encode_done(7));
    ASSERT_EQ(::write(fds[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    ::close(fds[1]);
    const std::optional<ShardFrame> frame = read_shard_frame(fds[0]);
    ::close(fds[0]);
    ASSERT_TRUE(frame.has_value()) << version;
    EXPECT_EQ(frame->version, version);
    EXPECT_EQ(decode_done(frame->payload), 7u);
  }

  const Circuit c17 = make_c17();
  ShardJob job;
  job.fingerprint = circuit_fingerprint(c17);
  job.sp.assign(c17.node_count(), 0.5);
  job.sites = {0};
  // The worker's one connection: parent end sv[0], worker end sv[1].
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::vector<std::uint8_t> bytes =
      frame_bytes(6, ShardFrameType::kJob, encode_job(job));
  ASSERT_EQ(::write(sv[0], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::shutdown(sv[0], SHUT_WR);
  EXPECT_EQ(run_shard_worker(CompiledCircuit(c17), job.fingerprint, sv[1]), 1);
  ::close(sv[1]);
  const std::optional<ShardFrame> reply = read_shard_frame(sv[0]);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, ShardFrameType::kError);  // before any ack
  const std::string message(reply->payload.begin(), reply->payload.end());
  EXPECT_NE(message.find("v6"), std::string::npos) << message;
  EXPECT_NE(message.find("v7"), std::string::npos) << message;
  EXPECT_FALSE(read_shard_frame(sv[0]).has_value());
  ::close(sv[0]);
}

TEST(ShardProtocol, HelloAndProgressRoundTrip) {
  const CircuitFingerprint fp{.nodes = 123, .digest = 0xdeadbeefcafebabe};
  EXPECT_EQ(decode_hello(encode_hello(fp)), fp);
  EXPECT_EQ(decode_progress(encode_progress(77)), 77u);
  EXPECT_EQ(decode_done(encode_done(12345)), 12345u);
  // A progress payload is half a hello payload — size confusion must throw,
  // not read garbage.
  EXPECT_THROW((void)decode_hello(encode_progress(1)), std::runtime_error);
}

TEST(ShardProtocol, FingerprintsIdentifyCircuits) {
  // Same circuit -> same fingerprint (what a matching worker echoes);
  // different circuits -> different fingerprints (what the handshake
  // rejects). to_string is the diagnostic surface, so it must carry the
  // node count.
  EXPECT_EQ(circuit_fingerprint(make_c17()), circuit_fingerprint(make_c17()));
  EXPECT_FALSE(circuit_fingerprint(make_c17()) ==
               circuit_fingerprint(make_s27()));
  const std::string text = to_string(circuit_fingerprint(make_c17()));
  EXPECT_NE(text.find("nodes"), std::string::npos) << text;
  EXPECT_NE(text.find("0x"), std::string::npos) << text;
}

TEST(ShardProtocol, ProgressDeadlineThrowsDistinctType) {
  // An empty pipe with an armed deadline must throw ShardTimeoutError — the
  // supervisor tells hangs apart from malformed streams by this type.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  EXPECT_THROW((void)read_shard_frame(fds[0], 50), ShardTimeoutError);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ShardProtocol, SplitJobEncodingEqualsOneShot) {
  // The fan-out loop reuses one encoded prefix + per-shard site lists; the
  // bytes must be exactly what a one-shot encode_job would produce.
  ShardJob job;
  job.threads = 3;
  job.sp = {0.25, 0.75, 0.5};
  job.spawn = 5;
  job.sites = {2, 0, 1};
  std::vector<std::uint8_t> split = encode_job_prefix(job);
  append_job_dispatch(split, job.spawn, job.sites);
  EXPECT_EQ(split, encode_job(job));
}

TEST(ShardProtocol, ImplausibleElementCountsRejectedBeforeAllocation) {
  // A corrupted count field must be a protocol error, not a multi-GB
  // vector resize: payload claims 2^32-1 rows but carries 4 bytes.
  std::vector<std::uint8_t> payload = {0xff, 0xff, 0xff, 0xff};
  EXPECT_THROW((void)decode_rows(payload), std::runtime_error);
  // And a job whose SP count outruns the payload.
  ShardJob job;
  job.sp = {0.5};
  std::vector<std::uint8_t> bytes = encode_job(job);
  bytes[30] = 0xff;  // sp count follows the 14-byte option block + 16-byte
                     // netlist fingerprint
  EXPECT_THROW((void)decode_job(bytes), std::runtime_error);
}

TEST(ShardProtocol, TruncatedPayloadThrows) {
  const std::vector<std::uint8_t> payload = encode_done(7);
  EXPECT_THROW(
      (void)decode_done(std::span(payload).subspan(0, payload.size() - 1)),
      std::runtime_error);
  EXPECT_THROW((void)decode_job(payload), std::runtime_error);
}

TEST(ShardProtocol, FrameStreamOverAPipe) {
  // write_shard_frame sends on sockets (MSG_NOSIGNAL), so the "pipe" is a
  // connected socket pair.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  write_shard_frame(fds[1], ShardFrameType::kDone, encode_done(3));
  ::close(fds[1]);
  const std::optional<ShardFrame> frame = read_shard_frame(fds[0]);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, ShardFrameType::kDone);
  EXPECT_EQ(decode_done(frame->payload), 3u);
  EXPECT_FALSE(read_shard_frame(fds[0]).has_value());  // clean EOF
  ::close(fds[0]);
}

TEST(ShardProtocol, WriteToAHungUpPeerThrowsInsteadOfRaisingSigpipe) {
  // Frames are sent with MSG_NOSIGNAL, so a peer that hung up is an EPIPE
  // error for the one writer, whatever the process's SIGPIPE disposition —
  // no sweep flips that process-wide setting to survive a dead worker. The
  // child runs at SIG_DFL, where a plain write() would die of the signal.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        std::signal(SIGPIPE, SIG_DFL);
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) std::_Exit(2);
        ::close(fds[1]);
        try {
          write_shard_frame(fds[0], ShardFrameType::kDone, encode_done(1));
        } catch (const std::runtime_error& e) {
          const bool epipe = std::string(e.what()).find(std::strerror(
                                 EPIPE)) != std::string::npos;
          std::_Exit(epipe ? 0 : 3);
        }
        std::_Exit(4);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(ShardProtocol, GarbageAndMidFrameEofThrow) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const char garbage[] = "node,type,p_sensitized\n";  // a stray print
  ASSERT_GT(::write(fds[1], garbage, sizeof garbage), 0);
  ::close(fds[1]);
  EXPECT_THROW((void)read_shard_frame(fds[0]), std::runtime_error);
  ::close(fds[0]);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A valid header promising 100 payload bytes, then death.
  write_shard_frame(fds[1], ShardFrameType::kRowBatch,
                    std::vector<std::uint8_t>(100));
  // Re-read only part: write a fresh truncated copy instead.
  ::close(fds[1]);
  ASSERT_TRUE(read_shard_frame(fds[0]).has_value());
  ::close(fds[0]);

  ASSERT_EQ(::pipe(fds), 0);
  std::uint8_t header[20] = {};
  header[0] = 0x46;  // kShardMagic little-endian first byte
  header[1] = 0x50;
  header[2] = 0x52;
  header[3] = 0x53;
  header[4] = 1;  // version 1
  header[6] = 10;  // kRowBatch
  header[8] = 100;  // promises 100 bytes that never arrive
  ASSERT_EQ(::write(fds[1], header, sizeof header),
            static_cast<ssize_t>(sizeof header));
  ::close(fds[1]);
  EXPECT_THROW((void)read_shard_frame(fds[0]), std::runtime_error);
  ::close(fds[0]);
}

TEST(ShardProtocol, CorruptedPayloadFailsTheCrcCheck) {
  // Flip one payload bit behind an otherwise valid v3 frame: the reader
  // must reject it by CRC, naming the cause — silent acceptance would let
  // a flaky transport corrupt merged sweep values undetected.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  write_shard_frame(fds[1], ShardFrameType::kDone, encode_done(3));
  ::close(fds[1]);
  std::vector<std::uint8_t> stream(20 + 8);
  ASSERT_EQ(::read(fds[0], stream.data(), stream.size()),
            static_cast<ssize_t>(stream.size()));
  ::close(fds[0]);
  stream[20] ^= 0x01;  // first payload byte
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], stream.data(), stream.size()),
            static_cast<ssize_t>(stream.size()));
  ::close(fds[1]);
  try {
    (void)read_shard_frame(fds[0]);
    FAIL() << "corrupted payload was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
        << e.what();
  }
  ::close(fds[0]);
}

TEST(ShardProtocol, Crc32MatchesKnownVector) {
  // The classic check value: CRC-32("123456789") = 0xcbf43926. Pins the
  // polynomial and reflection conventions so both ends always agree.
  const std::string check = "123456789";
  EXPECT_EQ(crc32(std::span(
                reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size())),
            0xcbf43926u);
  EXPECT_EQ(crc32({}), 0u);
}

TEST(ShardProtocol, OversizedDeclaredLengthRespectsCallerBound) {
  // A server reading untrusted requests passes a tight max_payload; a
  // declared length past it must throw BEFORE any allocation or payload
  // read (the frame below has no payload bytes at all).
  std::vector<std::uint8_t> frame;
  {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    write_shard_frame(fds[1], ShardFrameType::kRequest,
                      std::vector<std::uint8_t>(64));
    ::close(fds[1]);
    frame.resize(20 + 64);
    ASSERT_EQ(::read(fds[0], frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    ::close(fds[0]);
  }
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  ::close(fds[1]);
  EXPECT_THROW((void)read_shard_frame(fds[0], 0, /*max_payload=*/16),
               std::runtime_error);
  ::close(fds[0]);
}

// ---- end-to-end equivalence over real worker processes ---------------------

Options sharded_options(unsigned shards, unsigned threads = 1) {
  Options opt;
  opt.engine = "sharded";
  opt.threads = threads;
  opt.shard.shards = shards;
  opt.shard.worker_path = SEREEP_CLI_PATH;
  return opt;
}

void expect_sweeps_equal(Session& expected, Session& actual) {
  // Table reads only: on a fresh sharded session the first is its one rows
  // fill, which fans out (records sweeps never do), and the rest read the
  // table it filled.
  const CircuitSer& want = expected.ser();
  const CircuitSer& got = actual.ser();
  EXPECT_EQ(got.total_ser, want.total_ser);
  testutil::expect_rows_equal(want.nodes, got.nodes);
  EXPECT_EQ(actual.sweep_csv(), expected.sweep_csv());
  EXPECT_EQ(actual.sweep_p_sensitized(), expected.sweep_p_sensitized());
}

TEST(ShardedEngine, BitIdenticalToBatchedOnEmbeddedCircuits) {
  for (const char* name : {"c17", "s27", "s953"}) {
    for (unsigned shards : {2u, 3u, 4u}) {
      Session batched = Session::open(name);
      Session sharded = Session::open(name, sharded_options(shards));
      expect_sweeps_equal(batched, sharded);
      const ShardedEppEngine::Diagnostics* diag = sharded.shard_diagnostics();
      ASSERT_NE(diag, nullptr);
      if (std::string(name) != "c17") {  // c17 may fit one cluster
        EXPECT_FALSE(diag->in_process) << name << " shards=" << shards;
        EXPECT_GE(diag->workers_spawned, 2u);
      }
    }
  }
}

TEST(ShardedEngine, BitIdenticalOnAGeneratedNetlistFromDisk) {
  // A generated circuit written to a temp .bench and opened from there:
  // the parent parses the file, the workers map the parent's artifact of
  // the circuit it parsed.
  GeneratorProfile profile;
  profile.name = "shardfuzz";
  profile.num_inputs = 16;
  profile.num_outputs = 12;
  profile.num_dffs = 40;
  profile.num_gates = 900;
  profile.target_depth = 14;
  profile.reuse_bias = 0.5;
  const Circuit circuit = generate_circuit(profile, 777);
  const std::string path =
      ::testing::TempDir() + "/sereep_sharded_fuzz.bench";
  ASSERT_TRUE(save_bench_file(circuit, path));

  Session batched = Session::open(path);
  Session sharded = Session::open(path, sharded_options(3, /*threads=*/2));
  expect_sweeps_equal(batched, sharded);
  std::remove(path.c_str());
}

std::string read_golden(const char* name) {
  const std::string path =
      std::string(SEREEP_SOURCE_DIR) + "/tests/data/" + name;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << "missing golden file: " << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(ShardedEngine, GoldenCsvsByteEqualAtEveryShardCount) {
  // The acceptance bar: --engine=sharded --shards=2..4 reproduces the
  // committed golden bytes exactly — the same files every in-process engine
  // is pinned against.
  for (unsigned shards : {2u, 3u, 4u}) {
    Session c17 = Session::open("c17", sharded_options(shards));
    EXPECT_EQ(c17.sweep_csv(), read_golden("sweep_c17.golden.csv"))
        << "shards=" << shards;
    EXPECT_EQ(c17.ser_csv(), read_golden("ser_c17.golden.csv"))
        << "shards=" << shards;
    Session s27 = Session::open("s27", sharded_options(shards));
    EXPECT_EQ(s27.sweep_csv(), read_golden("sweep_s27.golden.csv"))
        << "shards=" << shards;
    EXPECT_EQ(s27.ser_csv(), read_golden("ser_s27.golden.csv"))
        << "shards=" << shards;
  }
}

TEST(ShardedEngine, SerAndGoldenTextIdenticalThroughTheFacade) {
  // ser()/harden() read the rows the workers streamed — the whole analysis
  // stack must be byte-identical through worker processes.
  Session batched = Session::open("s27");
  Session sharded = Session::open("s27", sharded_options(2));
  EXPECT_EQ(sharded.sweep_csv(), batched.sweep_csv());
  EXPECT_EQ(sharded.ser_csv(), batched.ser_csv());
  EXPECT_EQ(sharded.harden_text(0.5), batched.harden_text(0.5));
}

TEST(ShardedEngine, PerSiteQueriesNeverFork) {
  Session sharded = Session::open("s27", sharded_options(2));
  Session batched = Session::open("s27");
  for (NodeId site : sharded.sites()) {
    EXPECT_EQ(sharded.p_sensitized(site), batched.p_sensitized(site));
  }
  const ShardedEppEngine::Diagnostics* diag = sharded.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->sweeps, 0u);  // per-site traffic is not a sweep
}

// ---- failure contract ------------------------------------------------------

TEST(ShardedEngine, DeadWorkerBinaryErrorsLoudly) {
  Options opt = sharded_options(2);
  opt.shard.worker_path = "/bin/false";  // spawns, exits 1, streams nothing
  Session session = Session::open("s953", std::move(opt));
  try {
    (void)session.ser();
    FAIL() << "a dead worker must abort the sweep";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard"), std::string::npos) << what;
    EXPECT_NE(what.find("no partial results"), std::string::npos) << what;
  }

  // A worker that never starts fails every dispatch aimed at it, exactly
  // like a refused host: under kDegrade each shard burns its two retries,
  // then finishes in-process, bit-identically.
  Options degrade = sharded_options(2);
  degrade.shard.worker_path = "/bin/false";
  degrade.shard.retry.on_failure = OnShardFailure::kDegrade;
  degrade.shard.retry.backoff_base_ms = 1;
  Session batched = Session::open("s953");
  Session degraded = Session::open("s953", std::move(degrade));
  expect_sweeps_equal(batched, degraded);
  const ShardedEppEngine::Diagnostics* diag = degraded.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->degraded_shards, 2u);
  EXPECT_EQ(diag->respawns, 4u);
  EXPECT_EQ(diag->workers_spawned, 6u);
  EXPECT_EQ(diag->workers_reaped, diag->workers_spawned);
}

TEST(ShardedEngine, SilentWorkerFailsItsStartAtTheDeadline) {
  // A worker binary that runs but never prints its port line must not hang
  // the sweep: past the progress deadline its start fails (the diagnostic
  // names the wait), like any dispatch that cannot reach a worker.
  const std::string script = ::testing::TempDir() + "sereep_silent_worker_" +
                             std::to_string(::getpid()) + ".sh";
  {
    std::ofstream out(script);
    out << "#!/bin/sh\nexec sleep 60\n";
  }
  ASSERT_EQ(::chmod(script.c_str(), 0755), 0);
  Options opt = sharded_options(2);
  opt.shard.worker_path = script;
  opt.shard.retry.timeout_ms = 200;
  Session session = Session::open("s953", std::move(opt));
  try {
    (void)session.ser();
    FAIL() << "a worker that never starts must abort the sweep";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("did not start"), std::string::npos) << what;
    EXPECT_NE(what.find("200 ms"), std::string::npos) << what;
  }
  std::remove(script.c_str());
}

TEST(ShardedEngine, MissingWorkerBinaryErrorsLoudly) {
  Options opt = sharded_options(2);
  opt.shard.worker_path = "/nonexistent/sereep";
  Session session = Session::open("s953", std::move(opt));
  EXPECT_THROW((void)session.ser(), std::runtime_error);
}

/// Sets an environment variable for one test scope; workers inherit it.
/// Restores the prior value on exit so nothing leaks across tests.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    if (const char* prior = std::getenv(name)) prior_ = prior;
    EXPECT_EQ(::setenv(name, value.c_str(), 1), 0);
  }
  ~ScopedEnv() {
    if (prior_.has_value()) {
      ::setenv(name_, prior_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> prior_;
};

/// SEREEP_FAULT_PLAN for one test scope.
struct FaultPlanEnv : ScopedEnv {
  explicit FaultPlanEnv(const char* plan)
      : ScopedEnv("SEREEP_FAULT_PLAN", plan) {}
};

TEST(ShardedEngine, WorkerKilledMidStreamErrorsLoudly) {
  // Under the DEFAULT policy (fail), a fault-plan death at any stream
  // position aborts the sweep: exit dies before reading the job,
  // die-after-frames=0 after the handshake but before any results, and
  // die-after-frames=1 after genuinely streaming a result frame (the
  // nastiest case: plausible-looking but incomplete).
  for (const char* plan :
       {"0:exit", "0:die-after-frames=0", "0:die-after-frames=1"}) {
    FaultPlanEnv env(plan);
    Session session = Session::open("s953", sharded_options(2));
    try {
      (void)session.ser();
      FAIL() << "plan " << plan << " must abort the sweep";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("shard"), std::string::npos) << plan << ": " << what;
    }
  }
}

/// Live `sereep worker` processes — listen workers and their connection
/// children alike — whose --netlist lies under `dir`. Zombies have an empty
/// command line, so only running processes count.
std::vector<pid_t> workers_under(const std::string& dir) {
  const std::string flag = "--netlist=" + dir + "/";
  std::vector<pid_t> pids;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", ec)) {
    const std::string pid = entry.path().filename().string();
    if (pid.find_first_not_of("0123456789") != std::string::npos) continue;
    std::ifstream in(entry.path() / "cmdline", std::ios::binary);
    std::vector<std::string> args;
    for (std::string arg; std::getline(in, arg, '\0');) args.push_back(arg);
    if (args.size() >= 3 && args[1] == "worker" &&
        std::any_of(args.begin(), args.end(), [&](const std::string& arg) {
          return arg.starts_with(flag);
        })) {
      pids.push_back(static_cast<pid_t>(std::stol(pid)));
    }
  }
  return pids;
}

TEST(ShardedEngine, NoWorkerOutlivesAKilledParent) {
  // SIGKILL gives the sweeping CLI no chance to tear its fleet down. Its
  // listen workers must die with it, and their hung connection children
  // with them (PR_SET_PDEATHSIG at both levels) — never re-parented to
  // init and left running. The CLI runs under a test-private TMPDIR, so its
  // workers are the ones mapping an artifact under it, and the fleet's
  // directory there must be gone as well.
  const std::string tmpdir = ::testing::TempDir() + "sereep_orphan_" +
                             std::to_string(::getpid());
  ASSERT_EQ(::mkdir(tmpdir.c_str(), 0700), 0);
  std::optional<ChildProcess> cli;
  {
    // Both shards hang, so the sweep never returns and every worker stays
    // up until the kill: two listen workers and two connection children.
    FaultPlanEnv env("0:hang;1:hang");
    ScopedEnv tmp("TMPDIR", tmpdir);
    cli.emplace(ChildProcess::spawn(
        {SEREEP_CLI_PATH, "sweep", "s953", "--engine=sharded", "--shards=2"}));
  }
  const auto wait_until = [&](auto done, std::chrono::milliseconds limit) {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  };
  wait_until([&] { return workers_under(tmpdir).size() >= 4; },
             std::chrono::seconds(20));
  ASSERT_GE(workers_under(tmpdir).size(), 2u) << "the workers never came up";

  cli->send_signal(SIGKILL);
  wait_until([&] { return workers_under(tmpdir).empty(); },
             std::chrono::seconds(2));
  const std::vector<pid_t> orphans = workers_under(tmpdir);
  EXPECT_TRUE(orphans.empty()) << orphans.size()
                               << " workers outlived their SIGKILLed parent";
  for (const pid_t pid : orphans) ::kill(pid, SIGKILL);
  EXPECT_TRUE(std::filesystem::is_empty(tmpdir))
      << "the fleet's artifact directory outlived its SIGKILLed parent";
  std::filesystem::remove_all(tmpdir);
}

TEST(ShardedEngine, InMemorySessionFansOut) {
  // No file stands behind an in-memory circuit: its fleet maps the artifact
  // the parent writes, so it fans out like a session opened from a spec.
  Session batched(make_s27());
  Session sharded(make_s27(), sharded_options(2));
  expect_sweeps_equal(batched, sharded);
  const ShardedEppEngine::Diagnostics* diag = sharded.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_FALSE(diag->in_process);
  EXPECT_EQ(diag->transport, "tcp");
  EXPECT_GE(diag->workers_spawned, 2u);
}

TEST(ShardedEngine, RecordsSweepRunsInProcessAndRowsFanOut) {
  // Only table fills cross the wire. A records sweep (per-sink
  // distributions) is the base batched engine's, in-process: it starts no
  // worker, so the fleet's TMPDIR never sees a directory. A rows sweep on
  // the same session still fans out.
  const std::string tmpdir = ::testing::TempDir() + "sereep_records_" +
                             std::to_string(::getpid());
  ASSERT_EQ(::mkdir(tmpdir.c_str(), 0700), 0);
  {
    ScopedEnv tmp("TMPDIR", tmpdir);
    Session batched = Session::open("s27");
    Session sharded = Session::open("s27", sharded_options(2));
    const std::vector<SiteEpp> want = batched.sweep();
    const std::vector<SiteEpp> got = sharded.sweep();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      testutil::expect_site_epp_equal(batched.circuit(), want[i], got[i]);
    }
    const ShardedEppEngine::Diagnostics* diag = sharded.shard_diagnostics();
    ASSERT_NE(diag, nullptr);
    EXPECT_TRUE(diag->in_process);
    EXPECT_EQ(diag->workers_spawned, 0u);
    EXPECT_TRUE(std::filesystem::is_empty(tmpdir));

    testutil::expect_rows_equal(
        batched.engine().sweep_rows(batched.sites(), 1),
        sharded.engine().sweep_rows(sharded.sites(), 1));
    diag = sharded.shard_diagnostics();
    EXPECT_FALSE(diag->in_process);
    EXPECT_EQ(diag->transport, "tcp");
    EXPECT_GE(diag->workers_spawned, 2u);
  }
  EXPECT_TRUE(std::filesystem::is_empty(tmpdir));
  std::filesystem::remove_all(tmpdir);
}

TEST(ShardedEngine, NoWorkerPathAndNoHostsThrows) {
  // With neither a worker binary nor hosts there is no transport: a table
  // fill of two or more shards fails loudly instead of quietly running
  // in-process.
  Options opt = sharded_options(2);
  opt.shard.worker_path.clear();
  Session session(make_s27(), opt);
  try {
    (void)session.ser();
    FAIL() << "a sharded sweep with no transport must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("worker_path"), std::string::npos)
        << e.what();
  }
}

TEST(ShardedEngine, UnwritableTmpdirFailsBeforeAnyWorkerStarts) {
  // The fleet's artifact directory is made under TMPDIR. A TMPDIR naming a
  // regular file admits no directory, for root too: the sweep must throw,
  // name it, and start no worker (the worker binary here is a script that
  // leaves a marker file before it execs the real one); under kDegrade it
  // finishes in-process instead.
  const std::string base = ::testing::TempDir() + "sereep_no_tmpdir_" +
                           std::to_string(::getpid());
  const std::string not_a_dir = base + ".file";
  const std::string marker = base + ".started";
  const std::string script = base + ".sh";
  {
    std::ofstream file(not_a_dir);
    std::ofstream out(script);
    out << "#!/bin/sh\ntouch '" << marker << "'\nexec '" << SEREEP_CLI_PATH
        << "' \"$@\"\n";
  }
  ASSERT_EQ(::chmod(script.c_str(), 0755), 0);
  Options opt = sharded_options(2);
  opt.shard.worker_path = script;
  Session session = Session::open("s953", opt);
  Session batched = Session::open("s953");
  {
    ScopedEnv tmp("TMPDIR", not_a_dir);
    try {
      (void)session.ser();
      FAIL() << "a fleet without a directory must abort the sweep";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(not_a_dir), std::string::npos)
          << e.what();
    }
    // It is a start failure like any other: kDegrade finishes in-process.
    opt.shard.retry.on_failure = OnShardFailure::kDegrade;
    opt.shard.retry.retries = 0;
    Session degrade = Session::open("s953", opt);
    EXPECT_EQ(degrade.sweep_csv(), batched.sweep_csv());
    ASSERT_NE(degrade.shard_diagnostics(), nullptr);
    EXPECT_EQ(degrade.shard_diagnostics()->degraded_shards,
              degrade.shard_diagnostics()->shard_sites.size());
  }
  EXPECT_FALSE(std::filesystem::exists(marker)) << "a worker was started";
  // With a usable TMPDIR the same session fans out.
  EXPECT_EQ(session.sweep_csv(), batched.sweep_csv());
  ASSERT_NE(session.shard_diagnostics(), nullptr);
  EXPECT_FALSE(session.shard_diagnostics()->in_process);
  EXPECT_TRUE(std::filesystem::exists(marker));
  for (const std::string& path : {not_a_dir, marker, script}) {
    std::remove(path.c_str());
  }
}

TEST(ShardedEngine, SingleShardIsAConfiguredInProcessRun) {
  // shards=1 is a legitimate configuration, not a fallback — it must work
  // with no worker binary at all and stay bit-identical.
  Options opt = sharded_options(1);
  opt.shard.worker_path.clear();
  Session single(make_s27(), opt);
  Session batched(make_s27());
  expect_sweeps_equal(batched, single);
}

// ---- the shard supervisor: retry / deadline / degrade ----------------------

Options retry_options(unsigned shards, unsigned retries,
                      OnShardFailure policy = OnShardFailure::kRetry,
                      unsigned timeout_ms = 0) {
  Options opt = sharded_options(shards);
  opt.shard.retry.retries = retries;
  opt.shard.retry.on_failure = policy;
  opt.shard.retry.timeout_ms = timeout_ms;
  // Keep tests fast; the respawn path is identical, only the sleep shrinks.
  opt.shard.retry.backoff_base_ms = 1;
  return opt;
}

void expect_reap_hygiene(const ShardedEppEngine::Diagnostics* diag) {
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->workers_reaped, diag->workers_spawned)
      << "a completed sweep must have closed every dispatch it opened";
}

TEST(ShardedRetry, CleanSweepSpawnsExactlyOneWorkerPerShard) {
  Session sharded = Session::open("s953", retry_options(2, 2));
  Session batched = Session::open("s953");
  expect_sweeps_equal(batched, sharded);
  const ShardedEppEngine::Diagnostics* diag = sharded.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->respawns, 0u);
  EXPECT_EQ(diag->deadline_expiries, 0u);
  EXPECT_EQ(diag->degraded_shards, 0u);
  EXPECT_EQ(diag->redispatched_sites, 0u);
  EXPECT_EQ(diag->workers_spawned, diag->shard_sites.size());
  expect_reap_hygiene(diag);
}

TEST(ShardedRetry, RecoversFromDeathAtEveryProtocolPhase) {
  // Spawn 0 (shard 0's first worker) dies at each protocol phase in turn:
  // before reading the job, after the job ack, after the handshake, and on
  // the second shard instead (1:exit). Every schedule must recover via
  // re-dispatch and stay bit-identical.
  Session batched = Session::open("s953");
  for (const char* plan : {"0:exit", "0:die-before-handshake",
                           "0:die-after-frames=0", "1:exit"}) {
    SCOPED_TRACE(plan);
    FaultPlanEnv env(plan);
    Session sharded = Session::open("s953", retry_options(2, 2));
    testutil::expect_rows_equal(batched.ser().nodes, sharded.ser().nodes);
    const ShardedEppEngine::Diagnostics* diag = sharded.shard_diagnostics();
    ASSERT_NE(diag, nullptr);
    EXPECT_GE(diag->respawns, 1u) << plan;
    EXPECT_GT(diag->redispatched_sites, 0u) << plan;
    expect_reap_hygiene(diag);
  }
}

TEST(ShardedRetry, LostCompletionFrameRecoversWithoutRecompute) {
  // die-before-done delivers EVERY record, each verified against its
  // expected site, then kills the worker before kDone. The supervisor keeps
  // the complete verified set — nothing to recompute, no respawn burned.
  FaultPlanEnv env("0:die-before-done");
  Session batched = Session::open("s953");
  Session sharded = Session::open("s953", retry_options(2, 2));
  expect_sweeps_equal(batched, sharded);
  const ShardedEppEngine::Diagnostics* diag = sharded.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->respawns, 0u);
  EXPECT_EQ(diag->redispatched_sites, 0u);
  expect_reap_hygiene(diag);
}

TEST(ShardedRetry, KeepsVerifiedPrefixAndRedispatchesOnlyResidual) {
  // A shard big enough for multiple result frames (slice = 1024 sites),
  // dying after the first frame: the supervisor must keep the verified
  // prefix and re-dispatch strictly fewer sites than the whole shard.
  GeneratorProfile profile;
  profile.name = "shardretry";
  profile.num_inputs = 16;
  profile.num_outputs = 12;
  profile.num_dffs = 40;
  profile.num_gates = 2600;
  profile.target_depth = 14;
  profile.reuse_bias = 0.5;
  const Circuit circuit = generate_circuit(profile, 4242);
  const std::string path =
      ::testing::TempDir() + "/sereep_shard_retry.bench";
  ASSERT_TRUE(save_bench_file(circuit, path));

  FaultPlanEnv env("0:die-after-frames=1");
  Session batched = Session::open(path);
  Session sharded = Session::open(path, retry_options(2, 2));
  testutil::expect_rows_equal(batched.ser().nodes, sharded.ser().nodes);
  const ShardedEppEngine::Diagnostics* diag = sharded.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  ASSERT_GE(diag->shard_sites.size(), 1u);
  EXPECT_EQ(diag->respawns, 1u);
  EXPECT_GT(diag->redispatched_sites, 0u);
  EXPECT_LT(diag->redispatched_sites, diag->shard_sites[0])
      << "the verified prefix must not be recomputed";
  expect_reap_hygiene(diag);
  std::remove(path.c_str());
}

TEST(ShardedRetry, CorruptFrameMidRetryDistrustsAndRecomputes) {
  // Spawn 0 garbles its stream (the whole attempt is distrusted and
  // recomputed), then the FIRST retry worker (spawn 2 — ordinals continue
  // past the initial fleet) dies too; the second retry completes. Exercises
  // a fault INSIDE the retry path, not just on the first dispatch.
  FaultPlanEnv env("0:corrupt-frame;2:die-after-frames=0");
  Session batched = Session::open("s953");
  Session sharded = Session::open("s953", retry_options(2, 2));
  expect_sweeps_equal(batched, sharded);
  const ShardedEppEngine::Diagnostics* diag = sharded.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_GE(diag->respawns, 2u);
  expect_reap_hygiene(diag);
}

TEST(ShardedRetry, HangingWorkerTripsDeadlineAndRecovers) {
  // hang = the worker stops producing bytes entirely; only the progress
  // deadline can unstick the sweep. The respawned worker completes and the
  // expiry is counted.
  FaultPlanEnv env("0:hang");
  Session batched = Session::open("s953");
  Session sharded = Session::open(
      "s953", retry_options(2, 2, OnShardFailure::kRetry, /*timeout_ms=*/400));
  expect_sweeps_equal(batched, sharded);
  const ShardedEppEngine::Diagnostics* diag = sharded.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_GE(diag->deadline_expiries, 1u);
  EXPECT_GE(diag->respawns, 1u);
  expect_reap_hygiene(diag);
}

TEST(ShardedRetry, HangingWorkerUnderFailPolicyAbortsAtTheDeadline) {
  // The deadline is orthogonal to retries: under the default fail policy it
  // turns an infinite hang into a loud, prompt abort.
  FaultPlanEnv env("0:hang");
  Options opt = sharded_options(2);
  opt.shard.retry.timeout_ms = 300;
  Session session = Session::open("s953", std::move(opt));
  try {
    (void)session.ser();
    FAIL() << "a hung worker must abort under the fail policy";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadline"), std::string::npos) << what;
    EXPECT_NE(what.find("shard"), std::string::npos) << what;
  }
}

TEST(ShardedRetry, SlowButLiveStreamNeverTripsTheDeadline) {
  // The deadline is an INTER-BYTE clock: a stream that keeps producing,
  // however slowly relative to the sweep, must pass untouched.
  FaultPlanEnv env("0:slow-stream=50");
  Session batched = Session::open("s27");
  Session sharded = Session::open(
      "s27", retry_options(2, 0, OnShardFailure::kFail, /*timeout_ms=*/2000));
  expect_sweeps_equal(batched, sharded);
  const ShardedEppEngine::Diagnostics* diag = sharded.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->deadline_expiries, 0u);
  EXPECT_EQ(diag->respawns, 0u);
}

TEST(ShardedRetry, BudgetExhaustionFailsLoudly) {
  // Shard 0's initial worker (spawn 0) and both retry workers (spawns 2, 3)
  // die: the budget of 2 retries is exhausted and the sweep must abort with
  // a diagnostic naming the shard and the budget.
  FaultPlanEnv env("0:exit;2:exit;3:exit");
  Session session = Session::open("s953", retry_options(2, 2));
  try {
    (void)session.ser();
    FAIL() << "an exhausted retry budget must abort the sweep";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("retry budget exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find("shard"), std::string::npos) << what;
  }
}

TEST(ShardedRetry, BudgetExhaustionUnderDegradeFinishesInProcess) {
  // Same triple-death schedule, degrade policy: the sweep completes
  // bit-identically, with the dead shard's residual computed in-process.
  FaultPlanEnv env("0:exit;2:exit;3:exit");
  Session batched = Session::open("s953");
  Session sharded = Session::open(
      "s953", retry_options(2, 2, OnShardFailure::kDegrade));
  expect_sweeps_equal(batched, sharded);
  const ShardedEppEngine::Diagnostics* diag = sharded.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->degraded_shards, 1u);
  EXPECT_EQ(diag->respawns, 2u);
  EXPECT_GT(diag->redispatched_sites, 0u);
  expect_reap_hygiene(diag);
}

TEST(ShardedRetry, RecoveredSweepReproducesGoldenCsvBytes) {
  // The acceptance bar: a worker killed mid-stream plus --shard-retries=2
  // still reproduces the committed golden bytes exactly, and the recovery
  // is visible in the diagnostics.
  FaultPlanEnv env("0:die-after-frames=0");
  Session s27 = Session::open("s27", retry_options(2, 2));
  EXPECT_EQ(s27.sweep_csv(), read_golden("sweep_s27.golden.csv"));
  const ShardedEppEngine::Diagnostics* diag = s27.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_GE(diag->respawns, 1u);
  expect_reap_hygiene(diag);
}

TEST(ShardedRetry, FaultScheduleFuzzStaysBitIdentical) {
  // A spread of fault schedules — single faults, faults on both shards,
  // faults inside the retry path, mixed modes — must all recover to
  // bit-identical results with clean process accounting. Plans are fixed
  // (not random at runtime) so a failure names its schedule.
  Session batched = Session::open("s953");
  for (const char* plan : {
           "0:exit;1:die-after-frames=0",
           "0:die-before-handshake;2:corrupt-frame",
           "0:corrupt-frame;1:die-before-done",
           "1:hang",
           "0:slow-stream=20;1:exit",
           "0:die-after-frames=0;2:die-after-frames=0;3:exit",
       }) {
    SCOPED_TRACE(plan);
    FaultPlanEnv env(plan);
    Session sharded = Session::open(
        "s953",
        retry_options(2, 3, OnShardFailure::kRetry, /*timeout_ms=*/1500));
    testutil::expect_rows_equal(batched.ser().nodes, sharded.ser().nodes);
    expect_reap_hygiene(sharded.shard_diagnostics());
  }
}

TEST(ShardedRetry, DiagnosticsResetBetweenSweepsOnOneSession) {
  // Two rows sweeps on the SAME Session: the first recovers from a worker
  // death (respawns >= 1), the second runs clean. Every per-sweep counter
  // must describe ONLY the last sweep — a second report still showing the
  // first sweep's respawns would make a healthy fleet look like it is
  // dying. Only the cumulative `sweeps` counter may grow.
  Session sharded = Session::open("s953", retry_options(2, 2));
  {
    FaultPlanEnv env("0:exit");
    (void)sharded.engine().sweep_rows(sharded.sites(), 1);
  }
  const ShardedEppEngine::Diagnostics* diag = sharded.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->sweeps, 1u);
  EXPECT_GE(diag->respawns, 1u);
  EXPECT_GT(diag->redispatched_sites, 0u);
  const unsigned faulted_spawns = diag->workers_spawned;

  // No fault plan in the environment now.
  (void)sharded.engine().sweep_rows(sharded.sites(), 1);
  diag = sharded.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->sweeps, 2u) << "sweeps is the one cumulative counter";
  EXPECT_EQ(diag->respawns, 0u) << "stale respawns leaked across sweeps";
  EXPECT_EQ(diag->redispatched_sites, 0u);
  EXPECT_EQ(diag->deadline_expiries, 0u);
  EXPECT_EQ(diag->degraded_shards, 0u);
  EXPECT_EQ(diag->transport, "tcp");
  EXPECT_LT(diag->workers_spawned, faulted_spawns)
      << "a clean sweep spawns exactly the shard fleet, no respawns";
  expect_reap_hygiene(diag);
}

}  // namespace
}  // namespace sereep
