#include "src/epp/shard_transport.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "sereep/session.hpp"  // load_netlist — the worker's input vocabulary
#include "src/artifact/artifact_cache.hpp"
#include "src/artifact/compiled_artifact.hpp"
#include "src/epp/shard_protocol.hpp"
#include "src/epp/sharded_epp.hpp"
#include "src/util/net.hpp"

namespace sereep {

ShardFleet::ShardFleet(const ShardOptions& shard, std::size_t local_workers)
    : connect_timeout_ms_(shard.retry.timeout_ms > 0
                              ? static_cast<int>(shard.retry.timeout_ms)
                              : 10'000) {
  if (!shard.hosts.empty()) {
    peer_ = "hosts ";
    for (const std::string& host : shard.hosts) {
      if (!endpoints_.empty()) peer_ += ',';
      peer_ += host;
      endpoints_.push_back({.address = host, .start_error = {}});
    }
    return;
  }
  peer_ = "worker '" + shard.worker_path + "'";
  // Start the whole fleet before reading any port line, so the workers load
  // their netlists concurrently.
  local_.reserve(local_workers);
  for (std::size_t i = 0; i < local_workers; ++i) {
    local_.push_back(ChildProcess::spawn({shard.worker_path, "worker",
                                          "--netlist=" + shard.netlist,
                                          "--listen=0"}));
  }
  const int line_timeout_ms =
      shard.retry.timeout_ms > 0 ? static_cast<int>(shard.retry.timeout_ms)
                                 : -1;
  for (std::size_t i = 0; i < local_.size(); ++i) {
    Endpoint& endpoint = endpoints_.emplace_back();
    try {
      const std::uint16_t port =
          parse_listening_port(local_[i].read_stdout_line(line_timeout_ms));
      endpoint.address = "127.0.0.1:" + std::to_string(port);
    } catch (const std::exception& e) {
      endpoint.start_error =
          "local worker " + std::to_string(i) + " did not start: " + e.what();
    }
  }
}

ShardFleet::~ShardFleet() {
  for (ShardConnection& connection : connections_) close(connection);
  // local_'s destructors then kill and reap each worker's process group.
}

ShardConnection& ShardFleet::dispatch(std::span<const std::uint8_t> payload,
                                      unsigned spawn) {
  ShardConnection& connection = connections_.emplace_back();
  ++opened_;
  const Endpoint& endpoint = endpoints_[spawn % endpoints_.size()];
  if (!endpoint.start_error.empty()) {
    ++closed_;
    connection.send_error = endpoint.start_error;
    return connection;
  }
  try {
    const HostPort hp = parse_host_port(endpoint.address);
    connection.fd = tcp_connect(hp.host, hp.port, connect_timeout_ms_);
    write_shard_frame(connection.fd, ShardFrameType::kJob, payload);
    ::shutdown(connection.fd, SHUT_WR);
  } catch (const std::exception& e) {
    // A dead or unreachable worker is a per-dispatch failure the retry loop
    // handles (the NEXT ordinal lands on another endpoint) — never a throw.
    // It counts as closed even when tcp_connect threw before a socket
    // existed, so opened == closed holds across refusals.
    if (connection.fd >= 0) ::close(std::exchange(connection.fd, -1));
    ++closed_;
    connection.send_error =
        "job dispatch to " + endpoint.address + " failed: " + e.what();
  }
  return connection;
}

void ShardFleet::close(ShardConnection& connection) {
  if (connection.fd < 0) return;
  ::close(std::exchange(connection.fd, -1));
  ++closed_;
}

int run_tcp_worker(const std::string& netlist_spec,
                   const std::string& bind_addr, std::uint16_t port) {
  // A client that disconnects mid-result-stream must surface as EPIPE in
  // the serving child, not kill the accept loop; SIG_IGN is inherited
  // across fork. SIGCHLD SIG_IGN makes the kernel auto-reap connection
  // children — the accept loop never blocks on waitpid.
  ::signal(SIGPIPE, SIG_IGN);
  ::signal(SIGCHLD, SIG_IGN);
  try {
    // Load once, serve many: every connection child inherits the parsed
    // circuit through fork's copy-on-write pages. For a .sca spec the host
    // instead pre-warms the process-wide ArtifactCache — children inherit
    // the read-only mapping outright (no COW faults, no restore at all)
    // and run_shard_worker's artifact fast path finds it by path.
    std::shared_ptr<const ArtifactView> artifact;
    std::optional<Circuit> parsed;
    if (is_artifact_path(netlist_spec)) {
      artifact = ArtifactCache::global().load(netlist_spec);
    } else {
      parsed.emplace(load_netlist(netlist_spec));
    }
    const Circuit* circuit = parsed.has_value() ? &*parsed : nullptr;
    const int listen_fd = tcp_listen(bind_addr, port);
    std::printf("sereep worker listening on %s:%u\n", bind_addr.c_str(),
                static_cast<unsigned>(tcp_local_port(listen_fd)));
    std::fflush(stdout);
    const pid_t self = ::getpid();
    for (;;) {
      const int conn = ::accept(listen_fd, nullptr, nullptr);
      if (conn < 0) {
        if (errno == EINTR) continue;
        std::fprintf(stderr, "sereep worker: accept: %s\n",
                     std::strerror(errno));
        return 1;
      }
      const pid_t pid = ::fork();
      if (pid == 0) {
        // Die with the accept loop: a hung child (nothing left to read its
        // results) must not outlive a killed worker. The getppid() check
        // covers a parent that died before prctl took effect.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != self) ::_exit(1);
        ::close(listen_fd);
        ::_exit(run_shard_worker(netlist_spec, conn, circuit));
      }
      ::close(conn);
      if (pid < 0) {
        // Transient (EAGAIN): drop this connection — the supervisor's retry
        // loop re-dispatches — and keep accepting.
        std::fprintf(stderr, "sereep worker: fork: %s\n",
                     std::strerror(errno));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sereep worker: %s\n", e.what());
    return 1;
  }
}

}  // namespace sereep
