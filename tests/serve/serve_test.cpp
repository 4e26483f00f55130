// `sereep serve` loopback differential tests — a REAL daemon process on an
// ephemeral 127.0.0.1 port, pinned byte-for-byte against the in-process
// Session renderings.
//
// The serve contract is the transport-level twin of the engine-equivalence
// contract: a kResponse body IS the string the local Session would have
// produced — sweep_csv() / ser_csv() / harden_text() / "%.17g\n" of
// p_sensitized — with no tolerance, because the daemon calls exactly those
// renderings on a cached Session. These tests also pin the connection
// semantics: one connection serves many requests, semantic errors (bad
// netlist, unknown node) answer kError WITHOUT closing, LRU eviction at
// --sessions=1 is invisible to correctness, and concurrent clients are
// served without cross-talk. The framing-garbage half lives in
// serve_fuzz_test.cpp.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sereep/sereep.hpp"
#include "src/artifact/compiled_artifact.hpp"
#include "src/epp/shard_protocol.hpp"
#include "src/netlist/bench_io.hpp"
#include "src/netlist/benchmarks.hpp"
#include "src/netlist/generator.hpp"
#include "src/serve/serve_protocol.hpp"
#include "src/util/net.hpp"
#include "src/util/subprocess.hpp"

namespace sereep {
namespace {

struct ServeDaemon {
  ChildProcess proc;
  std::uint16_t port = 0;
};

ServeDaemon start_serve(const std::vector<std::string>& extra_flags = {}) {
  std::vector<std::string> argv = {SEREEP_CLI_PATH, "serve", "--port=0"};
  argv.insert(argv.end(), extra_flags.begin(), extra_flags.end());
  ChildProcess proc = ChildProcess::spawn(argv);
  const std::uint16_t port = parse_listening_port(proc.read_stdout_line());
  return {std::move(proc), port};
}

/// An open client connection speaking the request protocol.
class Client {
 public:
  explicit Client(std::uint16_t port)
      : fd_(tcp_connect("127.0.0.1", port, /*timeout_ms=*/10'000)) {}
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request, returns the reply frame (nullopt = server closed).
  std::optional<ShardFrame> round_trip(const ServeRequest& req) {
    write_shard_frame(fd_, ShardFrameType::kRequest, encode_request(req));
    return read_shard_frame(fd_, /*timeout_ms=*/30'000);
  }

  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
};

std::string body_of(const std::optional<ShardFrame>& frame) {
  if (!frame) return {};
  return std::string(reinterpret_cast<const char*>(frame->payload.data()),
                     frame->payload.size());
}

ServeRequest make_request(ServeRequestKind kind, const std::string& netlist,
                          double target = 0.5, const std::string& node = "") {
  ServeRequest req;
  req.kind = kind;
  req.netlist = netlist;
  req.target = target;
  req.node = node;
  return req;
}

void expect_response(Client& client, const ServeRequest& req,
                     const std::string& want, const char* label) {
  const std::optional<ShardFrame> reply = client.round_trip(req);
  ASSERT_TRUE(reply.has_value()) << label;
  ASSERT_EQ(reply->type, ShardFrameType::kResponse)
      << label << ": " << body_of(reply);
  EXPECT_EQ(body_of(reply), want) << label;
}

TEST(Serve, ResponsesByteIdenticalToInProcessRenderings) {
  // The acceptance bar: every request kind, on c17 and s27, answers with
  // EXACTLY the bytes the in-process Session produces.
  ServeDaemon daemon = start_serve();
  for (const char* name : {"c17", "s27"}) {
    Session local = Session::open(name);
    Client client(daemon.port);
    expect_response(client,
                    make_request(ServeRequestKind::kSweepCsv, name),
                    local.sweep_csv(), name);
    expect_response(client, make_request(ServeRequestKind::kSerCsv, name),
                    local.ser_csv(), name);
    expect_response(client,
                    make_request(ServeRequestKind::kHardenText, name, 0.4),
                    local.harden_text(0.4), name);
    const NodeId site = local.sites().front();
    char want[64];
    std::snprintf(want, sizeof want, "%.17g\n", local.p_sensitized(site));
    expect_response(client,
                    make_request(ServeRequestKind::kPSensitized, name, 0.5,
                                 local.circuit().node(site).name),
                    want, name);
  }
}

TEST(Serve, OneConnectionServesManyRequestsAndRepeatsAreStable) {
  // The whole point of the daemon is amortization: the SECOND sweep of the
  // same netlist hits the cached Session. Repeats must be byte-identical to
  // the first answer (and to the local rendering) — a cache that drifted
  // would be worse than no cache.
  ServeDaemon daemon = start_serve();
  Session local = Session::open("s27");
  const std::string want = local.sweep_csv();
  Client client(daemon.port);
  for (int i = 0; i < 3; ++i) {
    expect_response(client, make_request(ServeRequestKind::kSweepCsv, "s27"),
                    want, "repeat");
  }
  // A fresh connection sees the same cached Session.
  Client second(daemon.port);
  expect_response(second, make_request(ServeRequestKind::kSweepCsv, "s27"),
                  want, "second connection");
}

TEST(Serve, SemanticErrorsAnswerKErrorAndKeepTheConnection) {
  ServeDaemon daemon = start_serve();
  Client client(daemon.port);

  // Unloadable netlist: kError naming it, connection survives.
  std::optional<ShardFrame> reply = client.round_trip(
      make_request(ServeRequestKind::kSweepCsv, "/no/such/netlist.bench"));
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, ShardFrameType::kError);

  // Unknown node: same contract.
  reply = client.round_trip(
      make_request(ServeRequestKind::kPSensitized, "c17", 0.5, "nope"));
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, ShardFrameType::kError);
  EXPECT_NE(body_of(reply).find("unknown node 'nope'"), std::string::npos)
      << body_of(reply);

  // The SAME connection still serves a valid request afterwards.
  Session local = Session::open("c17");
  expect_response(client, make_request(ServeRequestKind::kSweepCsv, "c17"),
                  local.sweep_csv(), "after semantic errors");
}

TEST(Serve, LruEvictionAtOneSessionStaysCorrect) {
  // --sessions=1: requesting c17, then s27 (evicts c17), then c17 again
  // (rebuilds it) — eviction must be invisible in the bytes.
  ServeDaemon daemon = start_serve({"--sessions=1"});
  Session c17 = Session::open("c17");
  Session s27 = Session::open("s27");
  Client client(daemon.port);
  expect_response(client, make_request(ServeRequestKind::kSweepCsv, "c17"),
                  c17.sweep_csv(), "first c17");
  expect_response(client, make_request(ServeRequestKind::kSweepCsv, "s27"),
                  s27.sweep_csv(), "s27 evicts c17");
  expect_response(client, make_request(ServeRequestKind::kSweepCsv, "c17"),
                  c17.sweep_csv(), "c17 rebuilt after eviction");
}

TEST(Serve, RewrittenArtifactAnswersTheNewCircuit) {
  // A .sca path rewritten with another circuit while the daemon holds a
  // session of the old file: the next request keys on the new file's
  // fingerprint and must answer the new circuit's committed golden bytes,
  // never the old circuit's.
  const std::string path = ::testing::TempDir() + "sereep_serve_rewrite_" +
                           std::to_string(::getpid()) + ".sca";
  const auto golden = [](const char* name) {
    std::ifstream f(std::string(SEREEP_SOURCE_DIR) + "/tests/data/" + name);
    std::ostringstream bytes;
    bytes << f.rdbuf();
    return bytes.str();
  };
  ServeDaemon daemon = start_serve();
  Client client(daemon.port);
  write_artifact(path, make_c17());
  expect_response(client, make_request(ServeRequestKind::kSweepCsv, path),
                  golden("sweep_c17.golden.csv"), "c17 artifact");
  write_artifact(path, make_s27());
  expect_response(client, make_request(ServeRequestKind::kSweepCsv, path),
                  golden("sweep_s27.golden.csv"), "rewritten with s27");
  std::remove(path.c_str());
}

TEST(Serve, ConcurrentClientsGetIndependentCorrectAnswers) {
  // A second client connecting WHILE another one's request computes must be
  // accepted and answered — different netlists compute concurrently, the
  // same netlist serializes on its Session mutex; either way the bytes
  // must not interleave or cross connections.
  ServeDaemon daemon = start_serve();
  Session c17 = Session::open("c17");
  Session s27 = Session::open("s27");
  const std::string want_c17 = c17.sweep_csv();
  const std::string want_s27 = s27.ser_csv();

  std::vector<std::string> got_a(4);
  std::vector<std::string> got_b(4);
  std::thread other([&] {
    Client client(daemon.port);
    for (auto& slot : got_b) {
      const auto reply =
          client.round_trip(make_request(ServeRequestKind::kSerCsv, "s27"));
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->type, ShardFrameType::kResponse);
      slot = body_of(reply);
    }
  });
  Client client(daemon.port);
  for (auto& slot : got_a) {
    const auto reply =
        client.round_trip(make_request(ServeRequestKind::kSweepCsv, "c17"));
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, ShardFrameType::kResponse);
    slot = body_of(reply);
  }
  other.join();
  for (const std::string& got : got_a) EXPECT_EQ(got, want_c17);
  for (const std::string& got : got_b) EXPECT_EQ(got, want_s27);
}

/// `clients` concurrent connections each send `req` once; reply i lands in
/// out[i] (nullopt when the server closed).
std::vector<std::optional<ShardFrame>> race(std::uint16_t port,
                                            const ServeRequest& req,
                                            int clients) {
  std::vector<std::optional<ShardFrame>> out(clients);
  std::vector<std::thread> threads;
  for (auto& slot : out) {
    threads.emplace_back([&slot, &req, port] {
      Client client(port);
      slot = client.round_trip(req);
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

std::map<std::string, long long> stats_of(std::uint16_t port) {
  Client client(port);
  const auto reply =
      client.round_trip(make_request(ServeRequestKind::kStats, ""));
  std::map<std::string, long long> out;
  std::istringstream in(body_of(reply));
  std::string name;
  long long value = 0;
  while (in >> name >> value) out[name] = value;
  return out;
}

TEST(Serve, ConcurrentColdOpensShareOneBuild) {
  // Four first requests for one cold netlist arrive while it is still
  // being opened: they must wait on ONE build (one miss) and get the same
  // bytes. A failed build reaches every racer as kError and caches nothing.
  GeneratorProfile profile;
  profile.name = "serve_cold";
  profile.num_inputs = 32;
  profile.num_outputs = 32;
  profile.num_dffs = 200;
  profile.num_gates = 6000;
  profile.target_depth = 24;
  const std::string path = ::testing::TempDir() + "sereep_serve_cold_" +
                           std::to_string(::getpid()) + ".bench";
  {
    std::ofstream out(path);
    out << write_bench(generate_circuit(profile, 7));
  }
  const std::string want = Session::open(path).sweep_csv();

  ServeDaemon daemon = start_serve({"--serve-threads=4"});
  for (const auto& reply :
       race(daemon.port, make_request(ServeRequestKind::kSweepCsv, path), 4)) {
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, ShardFrameType::kResponse) << body_of(reply);
    EXPECT_EQ(body_of(reply), want);
  }
  std::map<std::string, long long> m = stats_of(daemon.port);
  EXPECT_EQ(m.at("serve_session_cache_misses"), 1);
  EXPECT_EQ(m.at("serve_session_cache_hits"), 3);
  EXPECT_EQ(m.at("serve_sessions_cached"), 1);

  const std::string missing = path + ".missing";
  const auto errors = race(
      daemon.port, make_request(ServeRequestKind::kSweepCsv, missing), 2);
  for (const auto& reply : errors) {
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, ShardFrameType::kError);
    EXPECT_EQ(body_of(reply), body_of(errors.front()));
  }
  m = stats_of(daemon.port);
  EXPECT_EQ(m.at("serve_sessions_cached"), 1);
  std::remove(path.c_str());
}

TEST(Serve, NonRequestFrameTypeAnswersKErrorAndCloses) {
  // A well-framed but wrong-typed frame is a protocol violation: the server
  // names it and closes (the stream's intent can no longer be trusted).
  ServeDaemon daemon = start_serve();
  Client client(daemon.port);
  write_shard_frame(client.fd(), ShardFrameType::kDone, encode_done(0));
  const std::optional<ShardFrame> reply =
      read_shard_frame(client.fd(), /*timeout_ms=*/10'000);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, ShardFrameType::kError);
  EXPECT_NE(body_of(reply).find("expected a kRequest"), std::string::npos)
      << body_of(reply);
  EXPECT_EQ(read_shard_frame(client.fd(), /*timeout_ms=*/10'000),
            std::nullopt)
      << "the connection must be closed after a protocol violation";
  // The daemon itself keeps serving.
  Session local = Session::open("c17");
  Client next(daemon.port);
  expect_response(next, make_request(ServeRequestKind::kSweepCsv, "c17"),
                  local.sweep_csv(), "after protocol violation");
}

TEST(Serve, EditMutatesTheCachedSessionForLaterRequests) {
  // Protocol v5 kEdit: the edit applies to the server's CACHED session, so
  // every later request against the same netlist — on this connection or a
  // fresh one — renders the edited circuit. The differential oracle is a
  // local Session fed the same edit batch.
  ServeDaemon daemon = start_serve();
  Session local = Session::open("s27");
  Client client(daemon.port);
  expect_response(client, make_request(ServeRequestKind::kSweepCsv, "s27"),
                  local.sweep_csv(), "pre-edit sweep");

  const std::string spec = "retype G11 NAND; tmr G10";
  local.apply_edit(parse_edit_spec(spec));
  ServeRequest edit = make_request(ServeRequestKind::kEdit, "s27");
  edit.edit = spec;
  const std::optional<ShardFrame> reply = client.round_trip(edit);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, ShardFrameType::kResponse) << body_of(reply);
  EXPECT_NE(body_of(reply).find("edit applied: ops=2"), std::string::npos)
      << body_of(reply);

  expect_response(client, make_request(ServeRequestKind::kSweepCsv, "s27"),
                  local.sweep_csv(), "post-edit sweep, same connection");
  expect_response(client, make_request(ServeRequestKind::kSerCsv, "s27"),
                  local.ser_csv(), "post-edit ser");
  Client fresh(daemon.port);
  expect_response(fresh, make_request(ServeRequestKind::kSweepCsv, "s27"),
                  local.sweep_csv(), "post-edit sweep, new connection");
}

TEST(Serve, BadEditSpecAnswersKErrorWithoutPoisoningTheSession) {
  ServeDaemon daemon = start_serve();
  Session local = Session::open("c17");
  Client client(daemon.port);
  expect_response(client, make_request(ServeRequestKind::kSweepCsv, "c17"),
                  local.sweep_csv(), "pre-error sweep");

  ServeRequest bad = make_request(ServeRequestKind::kEdit, "c17");
  bad.edit = "tmr no_such_node";
  const std::optional<ShardFrame> reply = client.round_trip(bad);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, ShardFrameType::kError);
  EXPECT_NE(body_of(reply).find("unknown node"), std::string::npos)
      << body_of(reply);

  // A semantic edit failure keeps the connection AND the cached session:
  // the circuit is unchanged (the failing op was the first in its batch).
  expect_response(client, make_request(ServeRequestKind::kSweepCsv, "c17"),
                  local.sweep_csv(), "post-error sweep");
}

TEST(Serve, FailedEditBatchLeavesNoTraceAndIsSafeToRetry) {
  // The first op applies before the second names an unknown node. Batches
  // are all-or-nothing, so both sends answer kError (a half-applied batch
  // would make the retry TMR G10 a second time) and s27 keeps sweeping to
  // its golden bytes.
  ServeDaemon daemon = start_serve();
  Client client(daemon.port);
  ServeRequest edit = make_request(ServeRequestKind::kEdit, "s27");
  edit.edit = "tmr G10; retype NOPE NAND";
  for (const char* send : {"first send", "retry"}) {
    const std::optional<ShardFrame> reply = client.round_trip(edit);
    ASSERT_TRUE(reply.has_value()) << send;
    ASSERT_EQ(reply->type, ShardFrameType::kError) << send;
    EXPECT_NE(body_of(reply).find("unknown node 'NOPE'"), std::string::npos)
        << send << ": " << body_of(reply);
  }
  std::ifstream golden(std::string(SEREEP_SOURCE_DIR) +
                           "/tests/data/sweep_s27.golden.csv",
                       std::ios::binary);
  ASSERT_TRUE(golden.good());
  std::ostringstream want;
  want << golden.rdbuf();
  expect_response(client, make_request(ServeRequestKind::kSweepCsv, "s27"),
                  want.str(), "after the failed batch");
}

TEST(Serve, EmptyEditSpecIsAFramingLevelDefect) {
  // decode_request rejects an empty edit spec before any session work; like
  // every decode failure the server answers kError and closes.
  ServeDaemon daemon = start_serve();
  Client client(daemon.port);
  const std::optional<ShardFrame> reply =
      client.round_trip(make_request(ServeRequestKind::kEdit, "c17"));
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, ShardFrameType::kError);
  EXPECT_NE(body_of(reply).find("empty edit spec"), std::string::npos)
      << body_of(reply);
}

}  // namespace
}  // namespace sereep
