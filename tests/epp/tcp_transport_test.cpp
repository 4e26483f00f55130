// The shard transport with pre-started hosts — loopback differential tests
// against REAL `sereep worker --listen` processes named in
// ShardOptions::hosts.
//
// Sweeps without hosts start the same workers themselves (the loopback
// fleet that tests/epp/sharded_epp_test.cpp drives); these tests start them
// by hand, the way a deployment on other machines does. Every sweep
// dispatched to them must be bit-for-bit EXPECT_EQ-equal to the in-process
// batched engine (and byte-equal to the committed golden CSVs), because the
// transport only moves bytes. The failure half re-runs the fault matrix
// against hosts (death at protocol phases, corrupt frames, hangs vs the
// inter-byte deadline) plus the faults only a host list can produce: a
// connect-refused dead host, a worker process SIGKILLed mid-stream
// (mid-sweep socket close), and a peer that answers with frames no worker
// sends. Recovery rides the same retry machinery; dispatch ordinal k
// connects to hosts[k % hosts.size()], so a dead host's retries rotate onto
// survivors.
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sereep/sereep.hpp"
#include "src/epp/sharded_epp.hpp"
#include "src/util/net.hpp"
#include "src/util/subprocess.hpp"
#include "tests/epp/site_epp_testutil.hpp"

namespace sereep {
namespace {

/// One live `sereep worker --listen=0` on loopback, killed (whole process
/// group, so fork-per-connection children go too) when the test ends.
struct TcpWorker {
  ChildProcess proc;
  std::string endpoint;  // "127.0.0.1:PORT"
};

TcpWorker start_worker(const std::string& netlist) {
  ChildProcess proc = ChildProcess::spawn(
      {SEREEP_CLI_PATH, "worker", "--netlist=" + netlist, "--listen=0"});
  const std::uint16_t port = parse_listening_port(proc.read_stdout_line());
  return {std::move(proc), "127.0.0.1:" + std::to_string(port)};
}

std::vector<std::string> endpoints(const std::vector<TcpWorker>& workers) {
  std::vector<std::string> hosts;
  for (const TcpWorker& w : workers) hosts.push_back(w.endpoint);
  return hosts;
}

Options tcp_options(std::vector<std::string> hosts, unsigned shards,
                    unsigned retries = 0,
                    OnShardFailure policy = OnShardFailure::kFail,
                    unsigned timeout_ms = 0) {
  Options opt;
  opt.engine = "sharded";
  opt.shard.shards = shards;
  opt.shard.hosts = std::move(hosts);
  opt.shard.retry.retries = retries;
  opt.shard.retry.on_failure = policy;
  opt.shard.retry.timeout_ms = timeout_ms;
  opt.shard.retry.backoff_base_ms = 1;  // keep retry tests fast
  return opt;
}

/// Table reads only: on a fresh session the first is its one rows fill,
/// which is what fans out (records sweeps run in-process).
void expect_sweeps_equal(Session& expected, Session& actual) {
  testutil::expect_rows_equal(expected.ser().nodes, actual.ser().nodes);
  EXPECT_EQ(actual.sweep_p_sensitized(), expected.sweep_p_sensitized());
}

/// Same FaultPlanEnv as the sharded tests — workers READ the plan from
/// their inherited environment, so it must be set BEFORE start_worker().
class FaultPlanEnv {
 public:
  explicit FaultPlanEnv(const char* plan) {
    EXPECT_EQ(::setenv("SEREEP_FAULT_PLAN", plan, 1), 0);
  }
  ~FaultPlanEnv() { ::unsetenv("SEREEP_FAULT_PLAN"); }
  FaultPlanEnv(const FaultPlanEnv&) = delete;
  FaultPlanEnv& operator=(const FaultPlanEnv&) = delete;
};

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

// ---- differential equivalence over loopback --------------------------------

TEST(TcpTransport, BitIdenticalToBatchedAcrossShardCountsAndSimd) {
  for (const char* name : {"c17", "s27"}) {
    std::vector<TcpWorker> workers;
    workers.push_back(start_worker(name));
    workers.push_back(start_worker(name));
    for (unsigned shards : {1u, 2u, 3u, 4u}) {
      for (bool simd : {false, true}) {
        Options opt = tcp_options(endpoints(workers), shards);
        opt.epp.simd = simd;
        Options ref;
        ref.epp.simd = simd;
        Session batched = Session::open(name, std::move(ref));
        Session tcp = Session::open(name, std::move(opt));
        expect_sweeps_equal(batched, tcp);
      }
    }
  }
}

TEST(TcpTransport, GoldenCsvBytesOverLoopbackWorkers) {
  // The acceptance bar: a 2-shard TCP sweep over loopback workers renders
  // byte-for-byte the SAME committed golden files every in-process engine
  // is pinned to — on the sweep CSV and the full SER CSV, for c17 and s27.
  for (const char* name : {"c17", "s27"}) {
    std::vector<TcpWorker> workers;
    workers.push_back(start_worker(name));
    workers.push_back(start_worker(name));
    Session tcp = Session::open(name, tcp_options(endpoints(workers), 2));
    const std::string base = name;
    EXPECT_EQ(tcp.sweep_csv(), read_golden(("sweep_" + base + ".golden.csv").c_str()));
    EXPECT_EQ(tcp.ser_csv(), read_golden(("ser_" + base + ".golden.csv").c_str()));
  }
}

TEST(TcpTransport, DiagnosticsReportTcpTransportAndCloseEveryConnection) {
  std::vector<TcpWorker> workers;
  workers.push_back(start_worker("s953"));
  workers.push_back(start_worker("s953"));
  Session tcp = Session::open("s953", tcp_options(endpoints(workers), 2));
  (void)tcp.ser();
  const ShardedEppEngine::Diagnostics* diag = tcp.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->transport, "tcp");
  EXPECT_FALSE(diag->in_process);
  EXPECT_EQ(diag->workers_spawned, 2u);
  EXPECT_EQ(diag->workers_reaped, diag->workers_spawned)
      << "every TCP connection the sweep opened must be closed";
}

TEST(TcpTransport, ConcurrentSweepsShareTheSameWorkerFleet) {
  // Two sweeps hitting the same workers at once: the fork-per-connection
  // accept loop must serve both concurrently and both must stay
  // bit-identical — no cross-talk between connections.
  std::vector<TcpWorker> workers;
  workers.push_back(start_worker("s953"));
  workers.push_back(start_worker("s953"));
  const std::vector<std::string> hosts = endpoints(workers);
  Session batched = Session::open("s953");
  const std::vector<double> want = batched.sweep_p_sensitized();

  std::vector<double> got_a;
  std::vector<double> got_b;
  std::thread second([&] {
    Session tcp = Session::open("s953", tcp_options(hosts, 2));
    got_b = tcp.sweep_p_sensitized();
  });
  Session tcp = Session::open("s953", tcp_options(hosts, 2));
  got_a = tcp.sweep_p_sensitized();
  second.join();
  EXPECT_EQ(got_a, want);
  EXPECT_EQ(got_b, want);
}

// ---- the PR-6 fault matrix, over sockets -----------------------------------

TEST(TcpTransport, FaultMatrixRecoversBitIdentically) {
  // Death at protocol phases and a corrupted stream, injected into the
  // worker serving dispatch ordinal 0 (the ordinal travels in-band with the
  // job). Retries must recover to bit-identical results. "0:exit" dies
  // right after reading the job: EOF before any frame.
  Session batched = Session::open("s953");
  for (const char* plan : {"0:exit", "0:die-before-handshake",
                           "0:die-after-frames=0", "0:corrupt-frame",
                           "0:die-before-done"}) {
    FaultPlanEnv env(plan);  // before spawn: workers inherit the plan
    std::vector<TcpWorker> workers;
    workers.push_back(start_worker("s953"));
    workers.push_back(start_worker("s953"));
    Session tcp = Session::open(
        "s953", tcp_options(endpoints(workers), 2, /*retries=*/3,
                            OnShardFailure::kRetry));
    SCOPED_TRACE(plan);
    expect_sweeps_equal(batched, tcp);
    const ShardedEppEngine::Diagnostics* diag = tcp.shard_diagnostics();
    ASSERT_NE(diag, nullptr);
    EXPECT_FALSE(diag->in_process);
    EXPECT_EQ(diag->workers_reaped, diag->workers_spawned);
  }
}

TEST(TcpTransport, HangingWorkerTripsTheInterByteDeadline) {
  // The progress deadline is a poll()-based inter-byte clock — a worker
  // that stops producing bytes must be abandoned at the deadline and its
  // shard re-dispatched.
  FaultPlanEnv env("0:hang");
  std::vector<TcpWorker> workers;
  workers.push_back(start_worker("s953"));
  workers.push_back(start_worker("s953"));
  Session batched = Session::open("s953");
  Session tcp = Session::open(
      "s953", tcp_options(endpoints(workers), 2, /*retries=*/3,
                          OnShardFailure::kRetry, /*timeout_ms=*/400));
  expect_sweeps_equal(batched, tcp);
  const ShardedEppEngine::Diagnostics* diag = tcp.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_GE(diag->deadline_expiries, 1u);
  EXPECT_GE(diag->respawns, 1u);
}

TEST(TcpTransport, DeadHostRecoversViaRetryRotationToSurvivors) {
  // Worker 0 is SIGKILLed before the sweep: its dispatches are refused at
  // connect. Because retry ordinals rotate hosts (k % hosts.size()), the
  // dead host's shard lands on the survivor within the budget and the
  // sweep completes bit-identically.
  std::vector<TcpWorker> workers;
  workers.push_back(start_worker("s953"));
  workers.push_back(start_worker("s953"));
  workers[0].proc.kill_tree();
  Session batched = Session::open("s953");
  Session tcp = Session::open(
      "s953", tcp_options(endpoints(workers), 2, /*retries=*/3,
                          OnShardFailure::kRetry));
  expect_sweeps_equal(batched, tcp);
  const ShardedEppEngine::Diagnostics* diag = tcp.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_GE(diag->respawns, 1u);
  EXPECT_EQ(diag->workers_reaped, diag->workers_spawned);
}

TEST(TcpTransport, WorkerSigkilledMidSweepRecovers) {
  // The acceptance scenario: a remote worker is SIGKILLed WHILE streaming
  // results (mid-stream socket close). slow-stream=150 on dispatch 0 holds
  // that worker's result stream open long enough for the kill to land
  // mid-sweep deterministically; the supervisor must treat the EOF as a
  // retryable shard failure, rotate onto the surviving worker, and produce
  // the identical final output.
  FaultPlanEnv env("0:slow-stream=150");
  std::vector<TcpWorker> workers;
  workers.push_back(start_worker("s953"));
  workers.push_back(start_worker("s953"));
  Session batched = Session::open("s953");
  Session tcp = Session::open(
      "s953", tcp_options(endpoints(workers), 2, /*retries=*/3,
                          OnShardFailure::kRetry));
  std::thread killer([&workers] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    workers[0].proc.kill_tree();  // the whole group: accept loop + children
  });
  // Join the killer even if the sweep throws — a joinable thread destroyed
  // by an unwinding exception calls std::terminate and eats the real error.
  try {
    expect_sweeps_equal(batched, tcp);
  } catch (...) {
    killer.join();
    throw;
  }
  killer.join();
  const ShardedEppEngine::Diagnostics* diag = tcp.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_GE(diag->respawns, 1u) << "the kill must have been recovered, not "
                                   "missed";
  EXPECT_EQ(diag->workers_reaped, diag->workers_spawned);
}

TEST(TcpTransport, FingerprintMismatchIsNonRetryableOverTcp) {
  // The workers loaded c17 but the parent analyses s27: a deterministic
  // configuration error every retry would repeat — must throw immediately,
  // naming both fingerprints, without burning the retry budget.
  std::vector<TcpWorker> workers;
  workers.push_back(start_worker("c17"));
  workers.push_back(start_worker("c17"));
  Session session = Session::open(
      "s27", tcp_options(endpoints(workers), 2, /*retries=*/5,
                         OnShardFailure::kRetry));
  try {
    (void)session.ser();
    FAIL() << "a fingerprint mismatch must abort the sweep";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("netlist fingerprint mismatch"), std::string::npos)
        << what;
    EXPECT_NE(what.find("non-retryable"), std::string::npos) << what;
    // Both digests: the parent's and the one the worker serves.
    EXPECT_NE(what.find("0x"), std::string::npos) << what;
    EXPECT_NE(what.rfind("0x"), what.find("0x")) << what;
  }
  const ShardedEppEngine::Diagnostics* diag = session.shard_diagnostics();
  ASSERT_NE(diag, nullptr);
  EXPECT_EQ(diag->respawns, 0u);
}

TEST(TcpTransport, EditedSessionWithHostsSweepsInProcess) {
  // Hosts serve the netlist they were started on and cannot follow an
  // edit: after apply_edit a session with hosts sweeps in-process, with the
  // bytes of a batched session given the same edit.
  std::vector<TcpWorker> workers;
  workers.push_back(start_worker("s27"));
  workers.push_back(start_worker("s27"));
  Session tcp = Session::open("s27", tcp_options(endpoints(workers), 2));
  Session batched = Session::open("s27");
  EXPECT_EQ(tcp.sweep_csv(), batched.sweep_csv());
  ASSERT_NE(tcp.shard_diagnostics(), nullptr);
  EXPECT_FALSE(tcp.shard_diagnostics()->in_process);

  const EditPlan plan = parse_edit_spec("retype G11 NAND");
  tcp.apply_edit(plan);
  batched.apply_edit(plan);
  EXPECT_EQ(tcp.options().shard.shards, 1u);
  EXPECT_EQ(tcp.ser_csv(), batched.ser_csv());
  EXPECT_EQ(tcp.sweep_csv(), batched.sweep_csv());
  // A rows sweep over every site, the kind that fans out when it can.
  testutil::expect_rows_equal(batched.engine().sweep_rows(batched.sites(), 1),
                              tcp.engine().sweep_rows(tcp.sites(), 1));
  ASSERT_NE(tcp.shard_diagnostics(), nullptr);
  EXPECT_TRUE(tcp.shard_diagnostics()->in_process);
  EXPECT_EQ(tcp.shard_diagnostics()->transport, "in-process");
}

TEST(TcpTransport, DeadPortFailsLoudlyUnderTheDefaultPolicy) {
  // No worker ever listened here. Under kFail the very first dispatch
  // failure must abort the sweep with a diagnostic naming the shard and
  // the host — never a silent partial result.
  Session session =
      Session::open("s27", tcp_options({"127.0.0.1:9"}, 2));
  try {
    (void)session.ser();
    FAIL() << "an unreachable worker host must abort the sweep";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard"), std::string::npos) << what;
    EXPECT_NE(what.find("127.0.0.1"), std::string::npos) << what;
  }
}

/// A loopback peer that answers every job with one payload-less frame of
/// `type` and hangs up — a stand-in for a worker gone wrong.
class FakeWorker {
 public:
  explicit FakeWorker(std::uint16_t type)
      : listen_fd_(tcp_listen("127.0.0.1", 0)),
        thread_([this, type] { serve(type); }) {}
  ~FakeWorker() {
    ::shutdown(listen_fd_, SHUT_RDWR);  // wakes the blocked accept()
    thread_.join();
    ::close(listen_fd_);
  }
  FakeWorker(const FakeWorker&) = delete;
  FakeWorker& operator=(const FakeWorker&) = delete;

  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(tcp_local_port(listen_fd_));
  }

 private:
  void serve(std::uint16_t type) {
    // A parent that already hung up is EPIPE for this thread, not a
    // process-killing SIGPIPE.
    sigset_t sigpipe;
    sigemptyset(&sigpipe);
    sigaddset(&sigpipe, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &sigpipe, nullptr);
    for (;;) {
      const int conn = ::accept(listen_fd_, nullptr, nullptr);
      if (conn < 0) return;
      try {
        (void)read_shard_frame(conn);  // the job
        write_shard_frame(conn, static_cast<ShardFrameType>(type), {});
      } catch (const std::exception&) {
      }
      ::close(conn);
    }
  }

  int listen_fd_;
  std::thread thread_;
};

TEST(TcpTransport, UnexpectedFrameTypesDistrustTheAttempt) {
  // kBusy (9) is serve traffic; 0, 11 and 2 (the full-record batch v6
  // workers streamed) are types no sereep build sends. Each must fail a
  // table fill's attempt by name instead of being skipped while the drain
  // keeps reading.
  for (const std::uint16_t type : {9, 0, 11, 2}) {
    FakeWorker fake(type);
    Session session = Session::open("s27", tcp_options({fake.endpoint()}, 2));
    try {
      (void)session.ser();
      FAIL() << "frame type " << type << " must abort the sweep";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("unexpected frame type " + std::to_string(type) +
                          " from worker"),
                std::string::npos)
          << what;
    }
  }
}

TEST(TcpTransport, MalformedHostListRejectedAtValidation) {
  for (const char* bad : {"nocolon", "host:", ":123", "host:0",
                          "host:65536", "host:abc"}) {
    Options opt = tcp_options({bad}, 2);
    EXPECT_THROW((void)Session::open("c17", std::move(opt)),
                 std::invalid_argument)
        << bad;
  }
}

}  // namespace
}  // namespace sereep
