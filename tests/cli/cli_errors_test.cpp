// CLI input-validation regression — the error paths must ERROR.
//
// Before this suite, `sereep sweep --threads=abc` parsed as 0 threads via
// unchecked strtol, `--threads=-1` wrapped through a cast to unsigned into
// ~4.3 billion threads, and `--vectors=1e4` silently became 1 vector. Every
// malformed or out-of-range numeric flag must now exit NON-ZERO with a
// diagnostic naming the flag — these tests exec the real `sereep` binary
// (SEREEP_CLI_PATH, wired by CMake) so the whole path from argv to exit code
// is pinned, not just the parser in isolation.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>

namespace sereep {
namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr interleaved
};

/// Runs `sereep ARGS`, inside directory `cwd` when one is given.
CliResult run_cli(const std::string& args, const std::string& cwd = "") {
  const std::string command = (cwd.empty() ? "" : "cd " + cwd + " && ") +
                              std::string(SEREEP_CLI_PATH) + " " + args +
                              " 2>&1";
  CliResult result;
  std::FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << command;
    return result;
  }
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) {
    result.output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

void expect_rejected(const std::string& args, const std::string& flag) {
  const CliResult r = run_cli(args);
  EXPECT_NE(r.exit_code, 0) << "`sereep " << args
                            << "` should fail, printed:\n"
                            << r.output;
  EXPECT_NE(r.output.find("error"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(flag), std::string::npos)
      << "diagnostic should name " << flag << ", printed:\n"
      << r.output;
}

// ---- the pinned regressions from the issue ---------------------------------

TEST(CliErrors, NegativeThreadsRejectedNotWrapped) {
  // -1 used to become ~4.3e9 workers through static_cast<unsigned>.
  expect_rejected("sweep c17 --threads=-1", "--threads");
  expect_rejected("ser c17 --threads=-1", "--threads");
}

TEST(CliErrors, GarbageThreadsRejectedNotZero) {
  expect_rejected("sweep c17 --threads=abc", "--threads");
  expect_rejected("harden c17 --threads=abc", "--threads");
}

TEST(CliErrors, ScientificNotationIntegerRejectedNotTruncated) {
  // "1e4" used to strtol-parse as 1 (four orders of magnitude off).
  expect_rejected("sp c17 --engine=mc --vectors=1e4", "--vectors");
}

// ---- the audited remainder of the numeric flag surface ---------------------

TEST(CliErrors, ThreadsAboveBoundRejected) {
  expect_rejected("sweep c17 --threads=1000000", "--threads");
}

TEST(CliErrors, TrailingGarbageRejected) {
  expect_rejected("sweep c17 --threads=4x", "--threads");
  expect_rejected("ser c17 --top=20abc", "--top");
}

TEST(CliErrors, NegativeTopRejected) {
  expect_rejected("sweep c17 --top=-5", "--top");
  expect_rejected("ser c17 --top=-1", "--top");
}

TEST(CliErrors, ShardsValidated) {
  expect_rejected("sweep c17 --engine=sharded --shards=0", "--shards");
  expect_rejected("sweep c17 --engine=sharded --shards=abc", "--shards");
  expect_rejected("sweep c17 --engine=sharded --shards=100000", "--shards");
  expect_rejected("sweep c17 --engine=sharded --shards=-2", "--shards");
}

TEST(CliErrors, ShardRetryFlagsValidated) {
  expect_rejected("sweep c17 --engine=sharded --shard-retries=-1",
                  "--shard-retries");
  expect_rejected("sweep c17 --engine=sharded --shard-retries=abc",
                  "--shard-retries");
  expect_rejected("sweep c17 --engine=sharded --shard-retries=99",
                  "--shard-retries");
  expect_rejected("sweep c17 --engine=sharded --shard-timeout-ms=-5",
                  "--shard-timeout-ms");
  expect_rejected("ser c17 --engine=sharded --shard-timeout-ms=1e3",
                  "--shard-timeout-ms");
}

TEST(CliErrors, UnknownShardFailurePolicyListsTheVocabulary) {
  const CliResult r =
      run_cli("sweep c17 --engine=sharded --on-shard-failure=explode");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("--on-shard-failure"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("degrade"), std::string::npos)
      << "policy error should list fail|retry|degrade:\n"
      << r.output;
}

TEST(CliErrors, HardenTargetValidated) {
  expect_rejected("harden c17 --target=1.5", "--target");
  expect_rejected("harden c17 --target=-0.1", "--target");
  expect_rejected("harden c17 --target=abc", "--target");
  expect_rejected("report c17 --target=nan", "--target");
}

TEST(CliErrors, VectorsValidated) {
  expect_rejected("sp c17 --engine=mc --vectors=0", "--vectors");
  expect_rejected("sp c17 --engine=mc --vectors=abc", "--vectors");
}

TEST(CliErrors, GenSeedGarbageRejected) {
  expect_rejected("gen --profile=s953 --seed=banana --o=/dev/null", "--seed");
}

TEST(CliErrors, UnknownEngineListsRegisteredKeys) {
  const CliResult r = run_cli("sweep c17 --engine=turbo");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("sharded"), std::string::npos)
      << "engine error should list the registered keys:\n"
      << r.output;
}

// ---- serve / client flag surface -------------------------------------------
// None of these bind a port or connect anywhere: flag validation runs before
// any socket work, so a rejected flag proves the daemon never started.

TEST(CliErrors, ServeSessionsValidated) {
  // --sessions=0 used to silently clamp to 1 inside the cache; now it is a
  // usage error like every other out-of-range flag.
  expect_rejected("serve --sessions=0", "--sessions");
  expect_rejected("serve --sessions=-1", "--sessions");
  expect_rejected("serve --sessions=abc", "--sessions");
  expect_rejected("serve --sessions=100000", "--sessions");
}

TEST(CliErrors, ServeThreadPoolFlagsValidated) {
  expect_rejected("serve --serve-threads=0", "--serve-threads");
  expect_rejected("serve --serve-threads=-4", "--serve-threads");
  expect_rejected("serve --serve-threads=abc", "--serve-threads");
  expect_rejected("serve --serve-threads=1000", "--serve-threads");
  expect_rejected("serve --max-connections=0", "--max-connections");
  expect_rejected("serve --max-connections=1e3", "--max-connections");
  expect_rejected("serve --max-connections=100000000", "--max-connections");
}

TEST(CliErrors, ServeTimeoutFlagsValidated) {
  expect_rejected("serve --request-timeout-ms=-1", "--request-timeout-ms");
  expect_rejected("serve --drain-timeout-ms=abc", "--drain-timeout-ms");
  expect_rejected("serve --drain-timeout-ms=-100", "--drain-timeout-ms");
  expect_rejected("serve --stats-interval-ms=1e2", "--stats-interval-ms");
  expect_rejected("serve --port=65536", "--port");
  expect_rejected("serve --port=-1", "--port");
}

TEST(CliErrors, ClientRetryFlagsValidated) {
  expect_rejected(
      "client sweep c17 --connect=127.0.0.1:1 --retries=-1", "--retries");
  expect_rejected(
      "client sweep c17 --connect=127.0.0.1:1 --retries=abc", "--retries");
  expect_rejected(
      "client sweep c17 --connect=127.0.0.1:1 --retries=1000", "--retries");
  expect_rejected(
      "client sweep c17 --connect=127.0.0.1:1 --retry-backoff-ms=0",
      "--retry-backoff-ms");
  expect_rejected(
      "client sweep c17 --connect=127.0.0.1:1 --retry-backoff-ms=-5",
      "--retry-backoff-ms");
}

TEST(CliErrors, ClientStatsStillRequiresConnect) {
  const CliResult r = run_cli("client --stats");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("--connect"), std::string::npos) << r.output;
}

TEST(CliErrors, StatsAgainstDeadServerExitsTwoWithDiagnostic) {
  // `client --stats` is the health probe ops scripts and CI poll: a drained
  // or never-started server must answer with a CLEAN exit-2 diagnostic that
  // says what to check, not a raw "Connection refused" strerror with exit 1.
  // Find a port with nothing behind it by binding an ephemeral one and
  // closing it before the probe.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
            0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  ::close(fd);

  const CliResult r = run_cli("client --stats --connect=127.0.0.1:" +
                              std::to_string(port));
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("no server listening"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("sereep serve"), std::string::npos)
      << "the diagnostic should say what to start:\n"
      << r.output;
  EXPECT_EQ(r.output.find("Connection refused"), std::string::npos)
      << "raw socket errors are what this path exists to replace:\n"
      << r.output;
}

// ---- netlist loader error paths (the real binary, real files) --------------
// The parse diagnostics below are load-bearing for every front end that
// takes a netlist spec; exec the binary so the path from a broken FILE to a
// non-zero exit with the parser's message is what gets pinned.

/// Writes `text` to a unique temp file with the given extension and returns
/// the path (caller removes).
std::string write_temp_netlist(const std::string& stem, const char* ext,
                               const std::string& text) {
  const std::string path =
      ::testing::TempDir() + "sereep_cli_" + stem + ext;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr) << path;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return path;
}

TEST(CliErrors, TruncatedBenchFileRejected) {
  // An interrupted copy chops mid-declaration: the malformed line must be
  // named, not skipped.
  const std::string path = write_temp_netlist(
      "truncated", ".bench", "INPUT(G1)\nINPUT(G2)\nOUTPUT(G3)\nG3 = AND(G1");
  const CliResult r = run_cli("stats " + path);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find(".bench"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("line 4"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

TEST(CliErrors, UndefinedSignalInBenchNamed) {
  const std::string path = write_temp_netlist(
      "undef", ".bench",
      "INPUT(G1)\nOUTPUT(G3)\nG3 = AND(G1, PHANTOM)\n");
  const CliResult r = run_cli("stats " + path);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("undefined signal 'PHANTOM'"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

TEST(CliErrors, DuplicateGateDefinitionInBenchNamed) {
  const std::string path = write_temp_netlist(
      "dup", ".bench",
      "INPUT(G1)\nINPUT(G2)\nOUTPUT(G3)\n"
      "G3 = AND(G1, G2)\nG3 = OR(G1, G2)\n");
  const CliResult r = run_cli("stats " + path);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("'G3' defined twice"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

TEST(CliErrors, TruncatedVerilogRejected) {
  const std::string path = write_temp_netlist(
      "vtrunc", ".v", "module m(a, y);\n  input a;\n  output y;\n");
  const CliResult r = run_cli("stats " + path);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("endmodule"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

TEST(CliErrors, UndrivenVerilogNetNamed) {
  const std::string path = write_temp_netlist(
      "vundef", ".v",
      "module m(a, y);\n  input a;\n  output y;\n  wire ghost;\n"
      "  and g1(y, a, ghost);\nendmodule\n");
  const CliResult r = run_cli("stats " + path);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("undriven net 'ghost'"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

TEST(CliErrors, DoublyDrivenVerilogSignalNamed) {
  const std::string path = write_temp_netlist(
      "vdup", ".v",
      "module m(a, b, y);\n  input a, b;\n  output y;\n"
      "  and g1(y, a, b);\n  or g2(y, a, b);\nendmodule\n");
  const CliResult r = run_cli("stats " + path);
  EXPECT_NE(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("'y' driven twice"), std::string::npos) << r.output;
  std::remove(path.c_str());
}

// ---- the compile subcommand ------------------------------------------------

TEST(CliErrors, CompileRequiresANetlist) {
  const CliResult r = run_cli("compile");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("netlist"), std::string::npos) << r.output;
}

TEST(CliErrors, CompileRefusesArtifactInput) {
  const CliResult r = run_cli("compile already.sca -o out.sca");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("already a compiled .sca artifact"),
            std::string::npos)
      << r.output;
}

TEST(CliErrors, CompileRefusesNonScaOutput) {
  const CliResult r = run_cli("compile c17 -o c17.bench");
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("must end in .sca"), std::string::npos) << r.output;
}

TEST(CliErrors, CompiledArtifactRoundTripsThroughTheCli) {
  // The happy path end to end in the real binary: compile an embedded
  // circuit, then sweep from BOTH specs and require identical CSV bytes.
  const std::string sca = ::testing::TempDir() + "sereep_cli_roundtrip.sca";
  const CliResult c = run_cli("compile c17 -o " + sca);
  EXPECT_EQ(c.exit_code, 0) << c.output;
  EXPECT_NE(c.output.find("fingerprint"), std::string::npos) << c.output;
  // The CSV artifact of each run (the table on stdout carries timings).
  const std::string csv_name = ::testing::TempDir() + "sereep_cli_rt_name.csv";
  const std::string csv_sca = ::testing::TempDir() + "sereep_cli_rt_sca.csv";
  EXPECT_EQ(run_cli("sweep c17 --csv=" + csv_name).exit_code, 0);
  const CliResult from_sca = run_cli("sweep " + sca + " --csv=" + csv_sca);
  EXPECT_EQ(from_sca.exit_code, 0) << from_sca.output;
  auto slurp = [](const std::string& path) {
    std::string out;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (f == nullptr) return out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
    std::fclose(f);
    return out;
  };
  const std::string want = slurp(csv_name);
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(slurp(csv_sca), want);
  std::remove(sca.c_str());
  std::remove(csv_name.c_str());
  std::remove(csv_sca.c_str());
}

TEST(CliErrors, CorruptArtifactRejectedThroughTheCli) {
  const std::string sca = ::testing::TempDir() + "sereep_cli_corrupt.sca";
  std::FILE* f = std::fopen(sca.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("these are not the bytes you are looking for", f);
  std::fclose(f);
  const CliResult r = run_cli("sweep " + sca);
  EXPECT_NE(r.exit_code, 0);
  EXPECT_NE(r.output.find("artifact '" + sca + "'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("truncated header"), std::string::npos) << r.output;
  std::remove(sca.c_str());
}

// ---- one spelling per flag -------------------------------------------------

std::string slurp(const std::string& path) {
  std::string out;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

TEST(CliErrors, SpaceSeparatedValueNeverEatsTheNetlist) {
  // `--csv FILE` is not a spelling of --csv=FILE: the next word stays the
  // positional netlist. It used to be taken as the CSV path, so the netlist
  // was loaded and then overwritten with the SER CSV.
  const std::string path = write_temp_netlist(
      "space_form", ".bench",
      "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n");
  const std::string before = slurp(path);
  const CliResult r = run_cli("ser --csv " + path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output.rfind("node,type,r_seu,p_latched,p_sensitized,ser\n", 0),
            0u)
      << "the CSV belongs on stdout, printed:\n"
      << r.output;
  EXPECT_EQ(slurp(path), before) << "the netlist's bytes changed";
  std::remove(path.c_str());
}

TEST(CliErrors, BareOutputFlagWritesStdoutNotAFileNamedOne) {
  // A bare flag used to store "1", so `ser s953 --csv` wrote a file named
  // `1` in the working directory. Bare --csv and --o mean stdout.
  std::string dir = ::testing::TempDir() + "sereep_cli_bareXXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  for (const char* args :
       {"ser s953 --csv", "sweep c17 --csv", "report c17 --o"}) {
    const CliResult r = run_cli(args, dir);
    EXPECT_EQ(r.exit_code, 0) << args << ":\n" << r.output;
    EXPECT_EQ(r.output.find("written to"), std::string::npos)
        << args << ":\n" << r.output;
    EXPECT_NE(::access((dir + "/1").c_str(), F_OK), 0)
        << args << " wrote a file named 1";
  }
  EXPECT_EQ(::rmdir(dir.c_str()), 0) << "the run left files behind in " << dir;
}

TEST(CliErrors, BareValueFlagsExitTwoNamingTheFlag) {
  for (const char* args :
       {"sweep c17 --threads", "ser c17 --top", "harden c17 --target",
        "harden c17 --emit", "gen --o"}) {
    const CliResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args << ":\n" << r.output;
    const std::string flag = std::string(args).substr(
        std::string(args).rfind("--"));
    EXPECT_NE(r.output.find("error: " + flag), std::string::npos)
        << args << ":\n" << r.output;
  }
}

// ---- valid usage must still work -------------------------------------------

TEST(CliErrors, ValidNumericFlagsStillAccepted) {
  const CliResult r = run_cli("sweep c17 --threads=2 --top=3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const CliResult h = run_cli("harden c17 --target=0.5");
  EXPECT_EQ(h.exit_code, 0) << h.output;
  const CliResult s = run_cli(
      "sweep s27 --engine=sharded --shards=2 --shard-retries=2 "
      "--shard-timeout-ms=5000 --on-shard-failure=retry --top=3");
  EXPECT_EQ(s.exit_code, 0) << s.output;
}

}  // namespace
}  // namespace sereep
