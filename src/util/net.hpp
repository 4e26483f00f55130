// Minimal TCP helpers for the shard transport and the serve daemon — thin
// wrappers over the BSD socket calls so every user gets the same error
// strings, SO_REUSEADDR hygiene, and deadline-bounded connect behavior.
// Frame I/O on the returned fds goes through shard_protocol's
// read_shard_frame/write_shard_frame; every frame the library writes goes to
// one of these sockets, sent with MSG_NOSIGNAL (a hung-up peer is an EPIPE
// error, never a SIGPIPE).
#pragma once

#include <cstdint>
#include <string>

namespace sereep {

/// A "host:port" pair split and strictly validated. Throws
/// std::invalid_argument naming the defect (missing colon, empty host,
/// non-numeric or out-of-range port).
struct HostPort {
  std::string host;
  std::uint16_t port = 0;
};
[[nodiscard]] HostPort parse_host_port(const std::string& spec);

/// Binds + listens on `bind_addr:port` (port 0 = kernel-chosen ephemeral).
/// Returns the listening fd (CLOEXEC); throws std::runtime_error naming the
/// failing call on error.
[[nodiscard]] int tcp_listen(const std::string& bind_addr, std::uint16_t port);

/// The locally-bound port of a listening/connected socket — how callers
/// discover the ephemeral port after tcp_listen(addr, 0).
[[nodiscard]] std::uint16_t tcp_local_port(int fd);

/// Connects to host:port (numeric or resolvable name) with a bounded
/// connect deadline. Returns the connected fd (CLOEXEC, blocking); throws
/// std::runtime_error naming host, port and cause on failure or deadline
/// expiry. timeout_ms <= 0 waits however long the kernel does.
[[nodiscard]] int tcp_connect(const std::string& host, std::uint16_t port,
                              int timeout_ms);

}  // namespace sereep
