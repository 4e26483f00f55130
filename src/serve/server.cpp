#include "src/serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sereep/options.hpp"
#include "sereep/session.hpp"
#include "src/artifact/compiled_artifact.hpp"
#include "src/epp/shard_protocol.hpp"
#include "src/serve/metrics.hpp"
#include "src/serve/serve_protocol.hpp"
#include "src/util/net.hpp"
#include "src/util/timer.hpp"

namespace sereep {

namespace {

/// One hot Session plus the mutex that serializes computation on it —
/// Sessions memoize through non-thread-safe lazy builders, so concurrent
/// clients of the SAME netlist must take turns (different netlists don't).
struct CachedSession {
  explicit CachedSession(Session s) : session(std::move(s)) {}
  std::mutex mutex;
  Session session;
};

/// LRU of open Sessions keyed by netlist spec. Capacity is small (the
/// --sessions flag, default 8), so lookup is a linear scan — a hash map
/// over a handful of entries would buy nothing. Hit/miss/eviction counts
/// land in the shared ServeMetrics (a repeated-netlist workload should show
/// a hit rate near 1; a thrashing one shows evictions climbing).
class SessionCache {
 public:
  /// `capacity` >= 1 — guaranteed by ServeConfig::validate(); there is no
  /// silent clamp here anymore, a zero is a caller bug.
  SessionCache(std::size_t capacity, unsigned threads, ServeMetrics& metrics)
      : capacity_(capacity), threads_(threads), metrics_(metrics) {}

  /// The cached Session for `spec`, building (and caching) it on miss.
  /// Builds are single-flight: the first miss on a key builds OUTSIDE the
  /// cache lock, and every request for that key arriving meanwhile waits on
  /// the same in-flight build (and counts as a hit), so N concurrent cold
  /// requests open one Session, not N. A failed build reaches each waiter
  /// as the same exception and caches nothing. Eviction only drops the
  /// cache's reference — in-flight requests hold their own shared_ptr, so
  /// an evicted Session dies when its last computation finishes.
  std::shared_ptr<CachedSession> get(const std::string& spec) {
    const std::string key = cache_key(spec);
    std::promise<std::shared_ptr<CachedSession>> promise;
    Build in_flight;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (std::shared_ptr<CachedSession> hit = find_locked(key)) {
        metrics_.session_cache_hits.fetch_add(1, std::memory_order_relaxed);
        return hit;
      }
      if (const auto it = building_.find(key); it != building_.end()) {
        in_flight = it->second;
      } else {
        building_.emplace(key, promise.get_future().share());
      }
    }
    if (in_flight.valid()) {
      metrics_.session_cache_hits.fetch_add(1, std::memory_order_relaxed);
      return in_flight.get();  // rethrows a failed build's exception
    }
    metrics_.session_cache_misses.fetch_add(1, std::memory_order_relaxed);
    std::shared_ptr<CachedSession> built;
    try {
      Options options;
      options.threads = threads_;
      built = std::make_shared<CachedSession>(Session::open(spec, options));
    } catch (...) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        building_.erase(key);
      }
      promise.set_exception(std::current_exception());
      throw;
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      building_.erase(key);
      lru_.emplace_front(key, built);
      if (lru_.size() > capacity_) {
        lru_.pop_back();
        metrics_.session_cache_evictions.fetch_add(1,
                                                   std::memory_order_relaxed);
      }
    }
    promise.set_value(built);
    return built;
  }

  [[nodiscard]] std::size_t size() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
  }

 private:
  /// Artifact specs cache by CONTENT, not by path: the .sca header's
  /// fingerprint is the identity, so two paths to the same compiled circuit
  /// share one hot Session, and a path rewritten with another circuit is a
  /// miss that opens the new file. An unreadable artifact falls back to the
  /// spec string — the open below produces the real diagnostic.
  static std::string cache_key(const std::string& spec) {
    if (!is_artifact_path(spec)) return spec;
    try {
      const CircuitFingerprint fp = peek_artifact_fingerprint(spec);
      return "sca:" + to_string(fp);
    } catch (const ArtifactError&) {
      return spec;
    }
  }

  std::shared_ptr<CachedSession> find_locked(const std::string& key) {
    for (auto it = lru_.begin(); it != lru_.end(); ++it) {
      if (it->first == key) {
        lru_.splice(lru_.begin(), lru_, it);
        return it->second;
      }
    }
    return nullptr;
  }

  using Build = std::shared_future<std::shared_ptr<CachedSession>>;

  std::mutex mutex_;
  const std::size_t capacity_;
  const unsigned threads_;
  ServeMetrics& metrics_;
  std::list<std::pair<std::string, std::shared_ptr<CachedSession>>> lru_;
  std::map<std::string, Build> building_;  ///< in-flight builds, by key
};

/// Everything the accept loop, the workers, and the drain path share.
struct ServerState {
  explicit ServerState(const ServeConfig& cfg)
      : config(cfg), cache(cfg.max_sessions, cfg.threads, metrics) {}

  const ServeConfig& config;
  ServeMetrics metrics;
  SessionCache cache;
  Stopwatch uptime;

  std::mutex mutex;
  std::condition_variable cv;        ///< queue + drain handshake
  std::condition_variable stats_cv;  ///< wakes the periodic-snapshot thread
  std::deque<int> pending;     ///< accepted, waiting for a worker
  std::vector<int> active;     ///< claimed by a worker, being served
  std::atomic<bool> draining{false};
  bool stop_stats = false;
};

// ---- drain signal plumbing -------------------------------------------------
// SIGTERM/SIGINT must wake a poll()-blocked accept loop immediately, so the
// handler writes one byte into a self-pipe besides setting the flag —
// write() and atomic stores are the async-signal-safe vocabulary.

std::atomic<bool> g_drain_requested{false};
std::atomic<int> g_wake_fd{-1};

void drain_signal_handler(int) {
  g_drain_requested.store(true, std::memory_order_relaxed);
  const int fd = g_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    // The pipe is non-blocking; a full pipe means a wake byte is already
    // queued, which is all we need.
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

/// Best-effort kError; the peer may already be gone (EPIPE), which is fine —
/// the error was for its benefit, not ours.
void send_error(int fd, ServeMetrics& metrics, const std::string& message) {
  try {
    const std::vector<std::uint8_t> bytes(message.begin(), message.end());
    write_shard_frame(fd, ShardFrameType::kError, bytes);
    metrics.errors_sent.fetch_add(1, std::memory_order_relaxed);
  } catch (...) {
  }
}

/// Best-effort kBusy — the overload (or drain) shed. A fresh connection's
/// send buffer is empty, so this cannot block the accept loop.
void send_busy(int fd, const std::string& reason) {
  try {
    const std::vector<std::uint8_t> bytes(reason.begin(), reason.end());
    write_shard_frame(fd, ShardFrameType::kBusy, bytes);
  } catch (...) {
  }
}

/// The response body for one request — EXACTLY the bytes the in-process
/// Session rendering produces (the loopback differential tests cmp this
/// against local output). Throws on semantic failure (unknown node, invalid
/// target); the caller turns that into kError without closing.
std::string render(CachedSession& cached, const ServeRequest& req) {
  const std::lock_guard<std::mutex> lock(cached.mutex);
  Session& session = cached.session;
  switch (req.kind) {
    case ServeRequestKind::kSweepCsv:
      return session.sweep_csv();
    case ServeRequestKind::kSerCsv:
      return session.ser_csv();
    case ServeRequestKind::kHardenText:
      return session.harden_text(req.target);
    case ServeRequestKind::kPSensitized: {
      const std::optional<NodeId> site = session.find(req.node);
      if (!site) {
        throw std::runtime_error("unknown node '" + req.node + "'");
      }
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g\n", session.p_sensitized(*site));
      return buf;
    }
    case ServeRequestKind::kEdit: {
      // The edit mutates the CACHED session in place (under its mutex), so
      // every later request against this netlist — from any connection —
      // sees the edited circuit and splices its results from the session's
      // table. Batches are all-or-nothing: a bad spec or a mid-batch failure
      // throws with the session exactly as it was, so the kError answer is
      // safe to retry against.
      const EditPlan plan = parse_edit_spec(req.edit);
      const EditResult result = session.apply_edit(plan);
      const Session::IncrementalStats& inc = session.incremental_stats();
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "edit applied: ops=%zu dirty=%zu inserted=%zu "
                    "structural=%d edits=%zu compiled_patched=%zu "
                    "sp_incremental=%zu\n",
                    plan.ops.size(), result.dirty.size(),
                    result.inserted.size(), result.structure_changed ? 1 : 0,
                    inc.edits, inc.compiled_patched, inc.sp_incremental);
      return buf;
    }
    case ServeRequestKind::kStats:
      break;  // handled by the caller — it never touches a Session
  }
  throw std::runtime_error("unhandled request kind");
}

/// Serves one connection's request sequence. Does NOT close `fd` — the
/// worker loop owns the fd's lifetime (the drain path needs it registered
/// in `active` right up to the close).
void handle_connection(int fd, ServerState& s) {
  ServeMetrics& metrics = s.metrics;
  const unsigned timeout_ms = s.config.request_timeout_ms;
  for (;;) {
    // Wait for the NEXT request's first byte in short poll slices, checking
    // the drain flag each slice: an idle connection must notice a drain
    // within ~50 ms, not hold it hostage for the full request deadline. A
    // request already in flight (bytes arrived) still completes — the
    // draining check sits BEFORE the frame read, never inside it.
    bool have_data = false;
    unsigned idle_ms = 0;
    while (!s.draining.load(std::memory_order_relaxed)) {
      struct pollfd p = {.fd = fd, .events = POLLIN, .revents = 0};
      const int rc = ::poll(&p, 1, 50);
      if (rc < 0) {
        if (errno == EINTR) continue;
        break;  // a broken fd; the read below turns it into a close
      }
      if (rc > 0) {  // data, EOF, or error — the frame read resolves which
        have_data = true;
        break;
      }
      idle_ms += 50;
      if (timeout_ms > 0 && idle_ms >= timeout_ms) break;
    }
    if (!have_data) {
      if (!s.draining.load(std::memory_order_relaxed)) {
        // Idle past the request deadline: the bounded-resource rule — a
        // parked client cannot hold a pool slot forever.
        send_error(fd, metrics,
                   "serve: no request within " + std::to_string(timeout_ms) +
                       " ms idle deadline");
      }
      break;  // on drain: close quietly, the connection was between requests
    }
    std::optional<ShardFrame> frame;
    try {
      frame = read_shard_frame(fd, static_cast<int>(timeout_ms),
                               kMaxServeRequestPayload);
    } catch (const std::exception& e) {
      // Framing-level garbage or an idle deadline: the stream can no longer
      // be trusted to be at a frame boundary, so name the cause and close.
      send_error(fd, metrics, std::string("serve: ") + e.what());
      break;
    }
    if (!frame) break;  // clean EOF — client hung up between requests
    if (frame->type != ShardFrameType::kRequest) {
      send_error(fd, metrics,
                 "serve: expected a kRequest frame, got type " +
                     std::to_string(static_cast<unsigned>(frame->type)));
      break;
    }
    ServeRequest req;
    try {
      req = decode_request(frame->payload);
    } catch (const std::exception& e) {
      send_error(fd, metrics, std::string("serve: ") + e.what());
      break;
    }
    metrics.count_request(req.kind);
    Stopwatch clock;
    std::string body;
    if (req.kind == ServeRequestKind::kStats) {
      body = metrics.snapshot_text(
          static_cast<std::uint64_t>(s.uptime.millis()), s.cache.size());
    } else {
      try {
        const std::shared_ptr<CachedSession> cached = s.cache.get(req.netlist);
        body = render(*cached, req);
      } catch (const std::exception& e) {
        // Semantic failure — this request loses, the connection survives.
        send_error(fd, metrics, std::string("serve: ") + e.what());
        continue;
      }
    }
    try {
      write_shard_frame(
          fd, ShardFrameType::kResponse,
          std::span(reinterpret_cast<const std::uint8_t*>(body.data()),
                    body.size()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sereep serve: response write failed: %s\n",
                   e.what());
      break;
    }
    metrics.record_latency_ms(clock.millis());
  }
}

/// One pool worker: claim a connection, serve it to completion, repeat.
/// Exits when draining and the queue is dry.
void worker_main(ServerState& s) {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(s.mutex);
      s.cv.wait(lock, [&] {
        return !s.pending.empty() ||
               s.draining.load(std::memory_order_relaxed);
      });
      if (s.pending.empty()) return;  // draining, nothing left to serve
      fd = s.pending.front();
      s.pending.pop_front();
      s.active.push_back(fd);
    }
    s.metrics.connections_queued.fetch_sub(1, std::memory_order_relaxed);
    s.metrics.connections_active.fetch_add(1, std::memory_order_relaxed);
    handle_connection(fd, s);
    {
      const std::lock_guard<std::mutex> lock(s.mutex);
      s.active.erase(std::find(s.active.begin(), s.active.end(), fd));
      // Close UNDER the lock: the drain path shutdown()s fds it reads from
      // `active`, and a close/reuse race would aim that at a stranger.
      ::close(fd);
    }
    s.metrics.connections_active.fetch_sub(1, std::memory_order_relaxed);
    s.cv.notify_all();  // the drain path waits for active to empty
  }
}

/// Periodic stderr metrics snapshot (--stats-interval-ms > 0 only).
void stats_main(ServerState& s) {
  const auto interval =
      std::chrono::milliseconds(s.config.stats_interval_ms);
  std::unique_lock<std::mutex> lock(s.mutex);
  while (!s.stop_stats) {
    if (s.stats_cv.wait_for(lock, interval, [&] { return s.stop_stats; })) {
      return;
    }
    const std::string snapshot = s.metrics.snapshot_text(
        static_cast<std::uint64_t>(s.uptime.millis()), s.cache.size());
    lock.unlock();
    std::fprintf(stderr, "sereep serve: stats\n%s", snapshot.c_str());
    lock.lock();
  }
}

}  // namespace

void ServeConfig::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("ServeConfig: " + what);
  };
  if (bind.empty()) fail("bind address must not be empty");
  if (max_sessions < 1 || max_sessions > kMaxSessions) {
    fail("max_sessions must be in [1, " + std::to_string(kMaxSessions) +
         "], got " + std::to_string(max_sessions));
  }
  if (threads > Options::kMaxThreads) {
    fail("threads must be at most " + std::to_string(Options::kMaxThreads) +
         ", got " + std::to_string(threads));
  }
  if (serve_threads < 1 || serve_threads > kMaxServeThreads) {
    fail("serve_threads must be in [1, " + std::to_string(kMaxServeThreads) +
         "], got " + std::to_string(serve_threads));
  }
  if (max_connections < 1 || max_connections > kMaxConnections) {
    fail("max_connections must be in [1, " +
         std::to_string(kMaxConnections) + "], got " +
         std::to_string(max_connections));
  }
  if (request_timeout_ms > kMaxTimeoutMs) {
    fail("request_timeout_ms must be at most " +
         std::to_string(kMaxTimeoutMs) + " (24 h — unit confusion?), got " +
         std::to_string(request_timeout_ms));
  }
  if (drain_timeout_ms > kMaxTimeoutMs) {
    fail("drain_timeout_ms must be at most " + std::to_string(kMaxTimeoutMs) +
         " (24 h — unit confusion?), got " + std::to_string(drain_timeout_ms));
  }
  if (stats_interval_ms > kMaxTimeoutMs) {
    fail("stats_interval_ms must be at most " + std::to_string(kMaxTimeoutMs) +
         " (24 h — unit confusion?), got " + std::to_string(stats_interval_ms));
  }
}

int run_serve(const ServeConfig& config) {
  try {
    config.validate();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sereep serve: %s\n", e.what());
    return 2;
  }
  // A client that disconnects mid-response must surface as EPIPE from the
  // frame writer, not kill the whole daemon.
  std::signal(SIGPIPE, SIG_IGN);

  int listen_fd = -1;
  try {
    listen_fd = tcp_listen(config.bind, config.port);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sereep serve: %s\n", e.what());
    return 1;
  }

  // Self-pipe + flag before the handlers are live, so a signal arriving at
  // any point after installation finds a working wake path.
  int wake[2] = {-1, -1};
  if (::pipe2(wake, O_CLOEXEC | O_NONBLOCK) < 0) {
    std::fprintf(stderr, "sereep serve: pipe2: %s\n", std::strerror(errno));
    ::close(listen_fd);
    return 1;
  }
  g_drain_requested.store(false, std::memory_order_relaxed);
  g_wake_fd.store(wake[1], std::memory_order_relaxed);
  struct sigaction sa = {};
  sa.sa_handler = drain_signal_handler;
  ::sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: blocked syscalls must see EINTR
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  const std::uint16_t port = tcp_local_port(listen_fd);
  // Tests and scripts parse this exact line for the ephemeral port.
  std::printf("sereep serve listening on %s:%u\n", config.bind.c_str(),
              static_cast<unsigned>(port));
  std::fflush(stdout);

  ServerState state(config);
  std::vector<std::thread> workers;
  workers.reserve(config.serve_threads);
  for (unsigned i = 0; i < config.serve_threads; ++i) {
    workers.emplace_back(worker_main, std::ref(state));
  }
  std::thread stats_thread;
  if (config.stats_interval_ms > 0) {
    stats_thread = std::thread(stats_main, std::ref(state));
  }

  bool fatal = false;
  int backoff_ms = 0;
  // Shed connections linger briefly after their kBusy: an immediate close()
  // would RST the unread frame away the moment the client's request bytes
  // arrive (TCP discards the receive queue on reset), turning a polite
  // "at capacity, retry" into an opaque broken pipe. So the shed path
  // half-closes (SHUT_WR = kBusy + FIN), and the accept loop discards
  // whatever the client sends until it sees EOF or a grace deadline —
  // bounded at kMaxShedding fds, so a malicious flood cannot park here.
  struct Shedding {
    int fd;
    Stopwatch age;
  };
  std::vector<Shedding> shedding;
  constexpr int kShedGraceMs = 250;
  constexpr std::size_t kMaxShedding = 256;
  std::vector<struct pollfd> fds;
  while (!g_drain_requested.load(std::memory_order_relaxed)) {
    if (backoff_ms > 0) {
      // fd/buffer exhaustion: sleep before the next accept() instead of
      // spinning at 100% CPU — but sleep on the wake pipe, so a drain
      // signal still interrupts instantly.
      struct pollfd wp = {.fd = wake[0], .events = POLLIN, .revents = 0};
      (void)::poll(&wp, 1, backoff_ms);
      if (g_drain_requested.load(std::memory_order_relaxed)) break;
    }
    fds.clear();
    fds.push_back({.fd = listen_fd, .events = POLLIN, .revents = 0});
    fds.push_back({.fd = wake[0], .events = POLLIN, .revents = 0});
    for (const Shedding& shed : shedding) {
      fds.push_back({.fd = shed.fd, .events = POLLIN, .revents = 0});
    }
    const int n = ::poll(fds.data(), fds.size(),
                         shedding.empty() ? -1 : 50);
    if (n < 0) {
      if (errno == EINTR) continue;  // the drain flag check re-runs above
      std::fprintf(stderr, "sereep serve: poll: %s\n", std::strerror(errno));
      fatal = true;
      break;
    }
    if (g_drain_requested.load(std::memory_order_relaxed)) break;
    // Retire shed connections: discard arriving bytes (they are a request
    // we already answered kBusy to), close on the client's EOF or once the
    // grace expires. fds[2 + i] mirrors shedding[i]; the swap-removal below
    // swaps both the same way to keep them aligned.
    for (std::size_t i = 0; i < shedding.size();) {
      bool done = false;
      if (fds[2 + i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char sink[4096];
        const ssize_t r = ::read(shedding[i].fd, sink, sizeof sink);
        if (r <= 0) done = true;  // EOF or error — the client moved on
      }
      if (shedding[i].age.millis() >= kShedGraceMs) done = true;
      if (done) {
        ::close(shedding[i].fd);
        shedding[i] = shedding.back();
        shedding.pop_back();
        fds[2 + i] = fds.back();
        fds.pop_back();
      } else {
        ++i;
      }
    }
    if (!(fds[0].revents & (POLLIN | POLLERR | POLLHUP))) continue;
    const int conn =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) {
      if (errno == EINTR) continue;  // silent — routine, not an error
      if (errno == ECONNABORTED) continue;  // peer gave up while queued
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM) {
        state.metrics.accept_errors.fetch_add(1, std::memory_order_relaxed);
        backoff_ms = backoff_ms == 0
                         ? 10
                         : std::min(backoff_ms * 2, 1'000);
        std::fprintf(stderr,
                     "sereep serve: accept failed (%s); backing off %d ms\n",
                     std::strerror(errno), backoff_ms);
        continue;
      }
      std::fprintf(stderr, "sereep serve: accept failed: %s\n",
                   std::strerror(errno));
      fatal = true;
      break;
    }
    backoff_ms = 0;
    state.metrics.connections_accepted.fetch_add(1,
                                                 std::memory_order_relaxed);
    bool admitted = false;
    {
      const std::lock_guard<std::mutex> lock(state.mutex);
      if (state.pending.size() < config.max_connections) {
        state.pending.push_back(conn);
        admitted = true;
      }
    }
    if (admitted) {
      state.metrics.connections_queued.fetch_add(1,
                                                 std::memory_order_relaxed);
      state.cv.notify_one();
    } else {
      // Overload shed: tell the client why, half-close, and let the linger
      // list above retire the fd. Bounded capacity is the whole design —
      // the alternative is unbounded threads until fd or thread-creation
      // exhaustion kills everyone mid-request.
      state.metrics.connections_rejected_busy.fetch_add(
          1, std::memory_order_relaxed);
      send_busy(conn, "serve: at capacity (" +
                          std::to_string(config.max_connections) +
                          " connections queued); retry with backoff");
      ::shutdown(conn, SHUT_WR);
      if (shedding.size() >= kMaxShedding) {
        ::close(shedding.front().fd);
        shedding.front() = shedding.back();
        shedding.pop_back();
      }
      shedding.push_back({conn, Stopwatch()});
    }
  }
  for (const Shedding& shed : shedding) ::close(shed.fd);

  // ---- drain ---------------------------------------------------------------
  ::close(listen_fd);  // new connects now refused by the kernel
  std::fprintf(stderr,
               "sereep serve: draining (in-flight deadline %u ms)\n",
               config.drain_timeout_ms);
  {
    const std::lock_guard<std::mutex> lock(state.mutex);
    state.draining.store(true, std::memory_order_relaxed);
    // Accepted-but-unserved connections never got a request read; shed them
    // like overload so their clients retry against a live instance.
    for (const int fd : state.pending) {
      send_busy(fd, "serve: draining; retry against a live instance");
      ::close(fd);
      state.metrics.connections_dropped_at_drain.fetch_add(
          1, std::memory_order_relaxed);
      state.metrics.connections_queued.fetch_sub(1,
                                                 std::memory_order_relaxed);
    }
    state.pending.clear();
    state.stop_stats = true;
  }
  state.cv.notify_all();
  state.stats_cv.notify_all();
  {
    std::unique_lock<std::mutex> lock(state.mutex);
    if (!state.active.empty() && config.drain_timeout_ms > 0) {
      state.cv.wait_for(lock,
                        std::chrono::milliseconds(config.drain_timeout_ms),
                        [&] { return state.active.empty(); });
    }
    // Deadline expired (or zero): force the stragglers' reads/writes to
    // fail so their workers come home. The fds stay owned (and closed) by
    // their workers.
    for (const int fd : state.active) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : workers) t.join();
  if (stats_thread.joinable()) stats_thread.join();
  g_wake_fd.store(-1, std::memory_order_relaxed);
  ::close(wake[0]);
  ::close(wake[1]);
  const std::string final_snapshot = state.metrics.snapshot_text(
      static_cast<std::uint64_t>(state.uptime.millis()), state.cache.size());
  std::fprintf(stderr, "sereep serve: drained; final stats\n%s",
               final_snapshot.c_str());
  return fatal ? 1 : 0;
}

}  // namespace sereep
