// A fork/exec'd helper process with its stdout captured through a pipe.
// The loopback tests and the bench emitter both need to launch real
// `sereep worker --listen=0` / `sereep serve --port=0` processes and read
// back the single "listening on HOST:PORT" line to learn the ephemeral
// port; this wraps the pipe plumbing, the deadline-bounded line read, and
// the kill/reap hygiene in one RAII owner.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sereep {

class ChildProcess {
 public:
  /// fork/execv's `argv` (argv[0] is the binary path). The child is placed
  /// in its OWN process group so kill_tree() can take out helpers that fork
  /// per connection (a TCP worker's accept loop) along with their children.
  /// It also gets SIGKILL when the spawning THREAD exits (PR_SET_PDEATHSIG),
  /// so a killed parent never leaves it running — spawn long-lived helpers
  /// from a thread that outlives them. `stderr_path` non-empty redirects the
  /// child's stderr to that file (append) — how CI captures server logs as
  /// artifacts.
  static ChildProcess spawn(const std::vector<std::string>& argv,
                            const std::string& stderr_path = "");

  ChildProcess(ChildProcess&& other) noexcept;
  ChildProcess& operator=(ChildProcess&& other) noexcept;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  /// SIGKILLs the process group and reaps if still running.
  ~ChildProcess();

  /// Reads one '\n'-terminated line from the child's stdout; throws if the
  /// child closes stdout or produces no byte for `timeout_ms` (negative
  /// waits forever).
  [[nodiscard]] std::string read_stdout_line(int timeout_ms = 10'000);

  /// SIGKILLs the whole process group (the child and anything it forked),
  /// then reaps the direct child. Idempotent.
  void kill_tree();

  /// Sends `signo` to the direct child only (NOT the group) — how the drain
  /// tests deliver SIGTERM to a serve daemon. No-op after reaping.
  void send_signal(int signo);

  /// Waits (polling) up to `timeout_ms` for the direct child to exit and
  /// reaps it. Returns the exit status (0..255), -1 if it died on a signal,
  /// or nullopt if it is still running at the deadline (NOT reaped — the
  /// caller can still kill_tree()).
  [[nodiscard]] std::optional<int> wait_exit(int timeout_ms = 10'000);

  /// True while the direct child has not been reaped and still exists.
  [[nodiscard]] bool alive() const;

  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  ChildProcess() = default;
  void reap();

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  bool reaped_ = true;
};

/// Extracts the trailing ":PORT" of a "... listening on HOST:PORT" line.
/// Throws std::runtime_error when the line does not end in a valid port.
[[nodiscard]] std::uint16_t parse_listening_port(const std::string& line);

}  // namespace sereep
