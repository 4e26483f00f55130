#include "src/util/subprocess.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace sereep {

ChildProcess ChildProcess::spawn(const std::vector<std::string>& argv,
                                 const std::string& stderr_path) {
  if (argv.empty()) throw std::invalid_argument("ChildProcess: empty argv");
  // Built before fork: the child of a multi-threaded parent must not
  // allocate (another thread may hold the allocator's lock).
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& arg : argv) {
    cargv.push_back(const_cast<char*>(arg.c_str()));
  }
  cargv.push_back(nullptr);
  const pid_t parent = ::getpid();
  int out_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) < 0) {
    throw std::runtime_error(std::string("ChildProcess: pipe2: ") +
                             std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int saved = errno;
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    throw std::runtime_error(std::string("ChildProcess: fork: ") +
                             std::strerror(saved));
  }
  if (pid == 0) {
    // Die with the parent: a SIGKILLed parent never runs kill_tree(). The
    // getppid() check covers a parent that died before prctl took effect.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::setpgid(0, 0);  // own group, so kill_tree(-pgid) reaches grandchildren
    ::dup2(out_pipe[1], STDOUT_FILENO);
    if (!stderr_path.empty()) {
      const int err_fd = ::open(stderr_path.c_str(),
                                O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (err_fd >= 0) ::dup2(err_fd, STDERR_FILENO);
    }
    ::execv(cargv[0], cargv.data());
    ::_exit(127);  // exec failed; the parent sees EOF + exit 127
  }
  ::setpgid(pid, pid);  // parent side too: win the race before any kill_tree
  ::close(out_pipe[1]);
  ChildProcess child;
  child.pid_ = pid;
  child.stdout_fd_ = out_pipe[0];
  child.reaped_ = false;
  return child;
}

ChildProcess::ChildProcess(ChildProcess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      stdout_fd_(std::exchange(other.stdout_fd_, -1)),
      reaped_(std::exchange(other.reaped_, true)) {}

ChildProcess& ChildProcess::operator=(ChildProcess&& other) noexcept {
  if (this != &other) {
    kill_tree();
    if (stdout_fd_ >= 0) ::close(stdout_fd_);
    pid_ = std::exchange(other.pid_, -1);
    stdout_fd_ = std::exchange(other.stdout_fd_, -1);
    reaped_ = std::exchange(other.reaped_, true);
  }
  return *this;
}

ChildProcess::~ChildProcess() {
  kill_tree();
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

std::string ChildProcess::read_stdout_line(int timeout_ms) {
  std::string line;
  for (;;) {
    struct pollfd pfd = {.fd = stdout_fd_, .events = POLLIN, .revents = 0};
    int rc;
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      throw std::runtime_error(
          "ChildProcess: no stdout line within " + std::to_string(timeout_ms) +
          " ms (helper failed to start?)");
    }
    char c;
    const ssize_t n = ::read(stdout_fd_, &c, 1);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("ChildProcess: read: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      throw std::runtime_error(
          "ChildProcess: stdout closed before a full line (exited early?)");
    }
    if (c == '\n') return line;
    line.push_back(c);
  }
}

void ChildProcess::kill_tree() {
  if (reaped_ || pid_ < 0) return;
  ::kill(-pid_, SIGKILL);  // the group: the child plus anything it forked
  ::kill(pid_, SIGKILL);   // belt and braces if it left its group
  reap();
}

void ChildProcess::send_signal(int signo) {
  if (reaped_ || pid_ < 0) return;
  ::kill(pid_, signo);
}

std::optional<int> ChildProcess::wait_exit(int timeout_ms) {
  if (reaped_ || pid_ < 0) return std::nullopt;
  // WNOHANG + sleep instead of a blocking waitpid: a hung child must not
  // hang the test — the caller's next move is kill_tree(), which needs the
  // pid un-reaped.
  const int step_ms = 10;
  for (int waited = 0;; waited += step_ms) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      reaped_ = true;
      if (WIFEXITED(status)) return WEXITSTATUS(status);
      return -1;  // killed by a signal
    }
    if (r < 0 && errno != EINTR) {
      reaped_ = true;  // ECHILD: someone else reaped it; nothing to report
      return std::nullopt;
    }
    if (waited >= timeout_ms) return std::nullopt;
    ::usleep(step_ms * 1000);
  }
}

bool ChildProcess::alive() const {
  if (reaped_ || pid_ < 0) return false;
  return ::kill(pid_, 0) == 0;
}

void ChildProcess::reap() {
  if (reaped_ || pid_ < 0) return;
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &status, 0);
  } while (r < 0 && errno == EINTR);
  reaped_ = true;
}

std::uint16_t parse_listening_port(const std::string& line) {
  const std::size_t colon = line.rfind(':');
  if (colon == std::string::npos || colon + 1 >= line.size()) {
    throw std::runtime_error("no ':PORT' suffix in line: " + line);
  }
  const std::string digits = line.substr(colon + 1);
  if (digits.find_first_not_of("0123456789") != std::string::npos) {
    throw std::runtime_error("non-numeric port in line: " + line);
  }
  const unsigned long port = std::strtoul(digits.c_str(), nullptr, 10);
  if (port < 1 || port > 65535) {
    throw std::runtime_error("port out of range in line: " + line);
  }
  return static_cast<std::uint16_t>(port);
}

}  // namespace sereep
