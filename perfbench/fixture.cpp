#include "fixture.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <array>
#include <exception>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "src/epp/incremental.hpp"
#include "src/epp/shard_protocol.hpp"
#include "src/netlist/bench_io.hpp"
#include "src/netlist/generator.hpp"
#include "src/util/net.hpp"
#include "src/util/rng.hpp"
#include "trace.hpp"

namespace perfbench {

using sereep::GateType;
using sereep::NodeId;
using sereep::Options;
using sereep::Session;

namespace {

/// Sites per netlist checked against the reference engine during set-up.
constexpr std::size_t kSpotSites = 256;
/// Distinct sites per netlist that serve_hot's psens requests draw from.
constexpr std::size_t kPsensPool = 64;
/// Request/response deadline of one serve round trip.
constexpr int kServeTimeoutMs = 60'000;

/// Splits sweep_csv rows (node,type,p_sensitized) into site names and the
/// exact doubles (%.17g round-trips).
void parse_sweep_csv(Netlist& net) {
  const std::string& csv = net.sweep_csv;
  std::size_t pos = csv.find('\n');
  if (pos == std::string::npos) throw std::runtime_error("empty sweep_csv");
  for (++pos; pos < csv.size();) {
    std::size_t end = csv.find('\n', pos);
    if (end == std::string::npos) end = csv.size();
    const std::string row = csv.substr(pos, end - pos);
    const std::size_t first = row.find(',');
    const std::size_t last = row.rfind(',');
    if (first == std::string::npos || last == first) {
      throw std::runtime_error("malformed sweep_csv row: " + row);
    }
    net.site_names.push_back(row.substr(0, first));
    net.psens.push_back(std::strtod(row.c_str() + last + 1, nullptr));
    pos = end + 1;
  }
}

/// Runs fn(i) for i in [0, n) on n threads and rethrows the first failure.
template <typename Fn>
void parallel_for(std::size_t n, Fn fn) {
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

bool wants(const std::vector<std::string>& workloads, std::string_view name) {
  for (const std::string& w : workloads) {
    if (w == name) return true;
  }
  return false;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::string_view purpose) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const char c : purpose) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  std::uint64_t state = seed ^ h;
  return sereep::splitmix64(state);
}

std::vector<std::string> workload_profiles(const std::string& workload) {
  if (workload == "cold_sweep") return {"s15850", "s35932", "s38417"};
  if (workload == "serve_hot") return {"s9234", "s15850", "s35932"};
  if (workload == "whatif_edit" || workload == "sharded_sweep") {
    return {"s38417"};
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

Netlist& Fixture::net(const std::string& profile) {
  for (Netlist& n : nets) {
    if (n.profile == profile) return n;
  }
  throw std::logic_error("fixture has no " + profile + " netlist");
}

namespace {

/// whatif_edit's victims: of kVictimDraws seeded AND/NAND/OR/NOR gates,
/// the kVictims whose retype reaches the fewest sites (downstream_closure +
/// affected_site_mask at set-up) — the most local edits a hardening loop
/// would try.
constexpr std::size_t kVictimDraws = 256;
constexpr std::size_t kVictims = 32;

struct NetNeeds {
  bool ser = false;    ///< cold_sweep or serve_hot read SER
  bool serve = false;  ///< serve_hot: harden text + the warm hot session
};

void write_netlist(const Config& cfg, Netlist& net) {
  const sereep::Circuit circuit =
      sereep::generate_circuit(sereep::iscas89_profile(net.profile),
                               derive_seed(cfg.seed, net.profile));
  net.path = cfg.work_dir + "/" + net.profile + ".bench";
  if (!sereep::save_bench_file(circuit, net.path)) {
    throw std::runtime_error("cannot write " + net.path);
  }
}

/// The reference engine's psens at kSpotSites seeded site indices, as
/// (index, value); also draws the netlist's psens request pool.
std::vector<std::pair<std::size_t, double>> reference_spots(const Config& cfg,
                                                            Netlist& net) {
  Options reference;
  reference.engine = "reference";
  Session ref = Session::open(net.path, reference);
  const std::span<const NodeId> sites = ref.sites();
  sereep::Rng rng(derive_seed(cfg.seed, net.profile + "/sites"));
  std::vector<std::pair<std::size_t, double>> spots;
  for (std::size_t k = 0; k < kSpotSites && !sites.empty(); ++k) {
    const std::size_t i = rng.below(sites.size());
    spots.emplace_back(i, ref.p_sensitized(sites[i]));
  }
  for (std::size_t k = 0; k < kPsensPool && !sites.empty(); ++k) {
    net.psens_pool.push_back(rng.below(sites.size()));
  }
  return spots;
}

/// whatif_edit's warm nproc-thread session, with the psens and full sweep
/// caches every edit splices into already built (so the first op costs what
/// every later one does), and its victim pool. Returns the session's psens
/// for checking against the expected bytes.
std::vector<double> warm_whatif(
    const Config& cfg, Fixture& f, const Netlist& net) {
  Options options;
  options.threads = cfg.nproc;
  f.whatif = std::make_unique<Session>(Session::open(net.path, options));
  Session& s = *f.whatif;
  std::vector<double> first = s.sweep_p_sensitized();
  (void)s.sweep();
  (void)s.ser();

  const std::span<const NodeId> sites = s.sites();
  std::vector<NodeId> gates;
  for (NodeId id = 0; id < s.circuit().node_count(); ++id) {
    const GateType t = s.circuit().type(id);
    if (t == GateType::kAnd || t == GateType::kNand || t == GateType::kOr ||
        t == GateType::kNor) {
      gates.push_back(id);
    }
  }
  sereep::Rng rng(derive_seed(cfg.seed, "whatif/victims"));
  std::vector<std::pair<std::size_t, NodeId>> reach;  // (sites reached, gate)
  for (std::size_t k = 0; k < kVictimDraws && !gates.empty(); ++k) {
    const NodeId victim[] = {gates[rng.below(gates.size())]};
    const std::vector<NodeId> closure =
        sereep::downstream_closure(s.compiled(), victim);
    const std::vector<std::uint8_t> mask = sereep::affected_site_mask(
        s.compiled(), closure, sites, &s.planner());
    reach.emplace_back(std::count(mask.begin(), mask.end(), 1), victim[0]);
  }
  if (reach.empty()) throw std::runtime_error("no gate to retype");
  std::stable_sort(reach.begin(), reach.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  reach.resize(std::min(reach.size(), kVictims));
  for (const auto& [count, gate] : reach) f.whatif_victims.push_back(gate);

  return first;
}

}  // namespace

Fixture make_fixture(const Config& cfg,
                     const std::vector<std::string>& workloads) {
  std::filesystem::create_directories(cfg.work_dir);
  Fixture f;
  std::vector<NetNeeds> needs;
  for (const std::string& w : workloads) {
    for (const std::string& profile : workload_profiles(w)) {
      std::size_t i = 0;
      while (i < f.nets.size() && f.nets[i].profile != profile) ++i;
      if (i == f.nets.size()) {
        f.nets.emplace_back().profile = profile;
        needs.emplace_back();
      }
      needs[i].ser |= w == "cold_sweep" || w == "serve_hot";
      needs[i].serve |= w == "serve_hot";
    }
  }
  parallel_for(f.nets.size(),
               [&](std::size_t i) { write_netlist(cfg, f.nets[i]); });

  const bool serve = wants(workloads, "serve_hot");
  const std::vector<std::string> serve_profiles =
      workload_profiles("serve_hot");
  if (serve) {
    f.daemon.emplace(sereep::ChildProcess::spawn(
        {cfg.sereep, "serve", "--port=0", "--serve-threads=4", "--threads=1",
         "--sessions=" + std::to_string(serve_profiles.size()),
         "--request-timeout-ms=60000"},
        cfg.work_dir + "/serve.log"));
    f.port = sereep::parse_listening_port(f.daemon->read_stdout_line(30'000));
  }

  // Every independent piece of set-up runs at once; each task writes its
  // own fields. Checks that compare two tasks' results follow the join.
  std::vector<std::function<void()>> tasks;
  std::vector<std::vector<std::pair<std::size_t, double>>> spots(
      f.nets.size());
  for (std::size_t i = 0; i < f.nets.size(); ++i) {
    Netlist& net = f.nets[i];
    tasks.emplace_back([&net] {
      Options one;
      one.threads = 1;
      Session s = Session::open(net.path, one);
      net.sweep_csv = s.sweep_csv();
      parse_sweep_csv(net);
    });
    if (needs[i].ser) {
      tasks.emplace_back([&net, serve_net = needs[i].serve] {
        Options one;
        one.threads = 1;
        auto s = std::make_unique<Session>(Session::open(net.path, one));
        net.ser_csv = s->ser_csv();
        if (serve_net) {
          net.harden_text = s->harden_text(0.5);
          net.hot = std::move(s);
        }
      });
    }
    tasks.emplace_back([&, i] { spots[i] = reference_spots(cfg, net); });
  }
  // Warm-up requests build the daemon's sessions; kept for checking.
  std::vector<std::array<Reply, 3>> warm(serve ? serve_profiles.size() : 0);
  for (std::size_t k = 0; k < warm.size(); ++k) {
    tasks.emplace_back([&, k] {
      sereep::ServeRequest req;
      req.netlist = f.net(serve_profiles[k]).path;
      req.kind = sereep::ServeRequestKind::kSweepCsv;
      warm[k][0] = serve_request(f.port, req);
      req.kind = sereep::ServeRequestKind::kSerCsv;
      warm[k][1] = serve_request(f.port, req);
      req.kind = sereep::ServeRequestKind::kHardenText;
      req.target = 0.5;
      warm[k][2] = serve_request(f.port, req);
    });
  }
  std::vector<double> whatif_psens;
  if (wants(workloads, "whatif_edit")) {
    tasks.emplace_back(
        [&] { whatif_psens = warm_whatif(cfg, f, f.net("s38417")); });
  }
  parallel_for(tasks.size(), [&](std::size_t i) { tasks[i](); });

  for (std::size_t i = 0; i < f.nets.size(); ++i) {
    const Netlist& net = f.nets[i];
    for (const auto& [index, value] : spots[i]) {
      if (index >= net.psens.size() || value != net.psens[index]) {
        f.mismatches.push_back(net.profile +
                               ": reference engine disagrees at site " +
                               std::to_string(index));
      }
    }
  }
  for (std::size_t k = 0; k < warm.size(); ++k) {
    const Netlist& net = f.net(serve_profiles[k]);
    const std::string* want[] = {&net.sweep_csv, &net.ser_csv,
                                 &net.harden_text};
    for (std::size_t j = 0; j < 3; ++j) {
      if (!warm[k][j].ok || warm[k][j].body != *want[j]) {
        f.mismatches.push_back(
            net.profile + ": daemon warm-up request failed: " +
            (warm[k][j].ok ? "byte mismatch" : warm[k][j].error));
      }
    }
  }
  if (f.whatif) {
    const Netlist& net = f.net("s38417");
    const std::span<const NodeId> sites = f.whatif->sites();
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (i >= net.psens.size() || whatif_psens[sites[i]] != net.psens[i]) {
        f.mismatches.push_back("whatif warm session disagrees at site " +
                               std::to_string(i));
        break;
      }
    }
  }
  return f;
}

sereep::GateType dual(sereep::GateType type) {
  switch (type) {
    case GateType::kAnd:
      return GateType::kNand;
    case GateType::kNand:
      return GateType::kAnd;
    case GateType::kOr:
      return GateType::kNor;
    case GateType::kNor:
      return GateType::kOr;
    default:
      throw std::invalid_argument("dual: not an AND/NAND/OR/NOR type");
  }
}

sereep::EditPlan retype_plan(const std::string& node, sereep::GateType type) {
  sereep::EditOp op;
  op.kind = sereep::EditOp::Kind::kRetype;
  op.node = node;
  op.type = type;
  return sereep::EditPlan{{op}};
}

void stop_daemon(Fixture& fixture) {
  if (!fixture.daemon) return;
  fixture.daemon->send_signal(SIGTERM);
  if (!fixture.daemon->wait_exit(10'000)) fixture.daemon->kill_tree();
  fixture.daemon.reset();
}

Reply serve_request(std::uint16_t port, const sereep::ServeRequest& request) {
  Reply reply;
  const std::int64_t start = now_ns();
  int fd = -1;
  try {
    fd = sereep::tcp_connect("127.0.0.1", port, 10'000);
    sereep::write_shard_frame(fd, sereep::ShardFrameType::kRequest,
                              sereep::encode_request(request));
    const std::int64_t sent = now_ns();
    pollfd pfd{fd, POLLIN, 0};
    int rc = 0;
    do {
      rc = ::poll(&pfd, 1, kServeTimeoutMs);
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) throw std::runtime_error("no response byte within 60 s");
    const std::int64_t first = now_ns();
    const std::optional<sereep::ShardFrame> frame =
        sereep::read_shard_frame(fd, kServeTimeoutMs);
    const std::int64_t done = now_ns();
    ::close(fd);
    fd = -1;
    reply.ttfb_ms = static_cast<double>(first - sent) / 1e6;
    reply.transfer_ms = static_cast<double>(done - first) / 1e6;
    reply.total_ms = static_cast<double>(done - start) / 1e6;
    if (!frame) {
      reply.error = "connection closed without a response";
    } else {
      const std::string payload(
          reinterpret_cast<const char*>(frame->payload.data()),
          frame->payload.size());
      if (frame->type == sereep::ShardFrameType::kResponse) {
        reply.ok = true;
        reply.body = payload;
      } else if (frame->type == sereep::ShardFrameType::kBusy) {
        reply.error = "kBusy: " + payload;
      } else {
        reply.error = "kError: " + payload;
      }
    }
  } catch (const std::exception& e) {
    if (fd >= 0) ::close(fd);
    reply.error = e.what();
    reply.total_ms = ms_since(start);
  }
  return reply;
}

std::map<std::string, std::uint64_t> serve_stats(std::uint16_t port) {
  sereep::ServeRequest request;
  request.kind = sereep::ServeRequestKind::kStats;
  const Reply reply = serve_request(port, request);
  if (!reply.ok) throw std::runtime_error("kStats failed: " + reply.error);
  std::map<std::string, std::uint64_t> stats;
  std::size_t pos = 0;
  while (pos < reply.body.size()) {
    std::size_t end = reply.body.find('\n', pos);
    if (end == std::string::npos) end = reply.body.size();
    const std::string line = reply.body.substr(pos, end - pos);
    const std::size_t space = line.find(' ');
    if (space != std::string::npos) {
      stats[line.substr(0, space)] =
          std::strtoull(line.c_str() + space + 1, nullptr, 10);
    }
    pos = end + 1;
  }
  return stats;
}

std::string psens_bytes(const Netlist& net, std::size_t index) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g\n", net.psens[index]);
  return buf;
}

}  // namespace perfbench
