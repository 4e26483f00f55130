#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/epp/incremental.hpp"
#include "src/util/rng.hpp"
#include "trace.hpp"

namespace perfbench {

using sereep::NodeId;
using sereep::Options;
using sereep::Session;

void Report::add(std::string name, double value, std::string unit,
                 std::string note) {
  metrics.push_back(
      {std::move(name), value, std::move(unit), std::move(note)});
}

void Report::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 10) failures.push_back(why);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

namespace {

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Median duration of the spans called `name`, in ms.
double span_ms(const std::string& name) {
  return median(Tracer::global().durations_ms(name));
}

std::string count_note(std::size_t n) {
  return "n=" + std::to_string(n);
}

/// Deadline of a pass: the run's --seconds, or a short window for kLayers.
std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

/// A status line of /proc/<pid>/status ("VmRSS", "VmHWM") in MiB; 0 when
/// unreadable.
double proc_status_mb(const std::string& pid, const char* key) {
  std::ifstream status("/proc/" + pid + "/status");
  const std::string prefix = std::string(key) + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with(prefix)) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Peak resident set of this process per op: begin_op() returns freed heap
/// to the OS (as a fresh `sereep` process would start) and opens a window
/// that a 5 ms sampler and end_op() close over. The loop reports the median
/// of the per-op peaks, so heap kept from set-up or earlier ops does not
/// count. begin_op() also resets this process's VmHWM: a forked child
/// inherits it, and would otherwise report set-up's peak as its own.
class RssSampler {
 public:
  RssSampler()
      : thread_([this] {
          while (!stop_.load()) {
            const double mb = proc_status_mb("self", "VmRSS");
            {
              const std::lock_guard<std::mutex> lock(mutex_);
              if (in_op_) peak_ = std::max(peak_, mb);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        }) {}
  ~RssSampler() {
    stop_.store(true);
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void begin_op() {
    ::malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
    const double mb = proc_status_mb("self", "VmRSS");
    const std::lock_guard<std::mutex> lock(mutex_);
    peak_ = mb;
    in_op_ = true;
  }
  void end_op() {
    const double mb = proc_status_mb("self", "VmRSS");
    const std::lock_guard<std::mutex> lock(mutex_);
    peaks_.push_back(std::max(peak_, mb));
    in_op_ = false;
  }
  [[nodiscard]] double median_peak_mb() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return median(peaks_);
  }

 private:
  std::mutex mutex_;  // guards the three fields below
  bool in_op_ = false;
  double peak_ = 0.0;
  std::vector<double> peaks_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Seconds a kLayers pass spends in a timed loop.
constexpr double kLayerPassSeconds = 3.0;

std::vector<Netlist*> nets_of(Fixture& f, const std::string& workload) {
  std::vector<Netlist*> nets;
  for (const std::string& p : workload_profiles(workload)) {
    nets.push_back(&f.net(p));
  }
  return nets;
}

/// True for odd ops of a kTraced pass, every op of kLayers, never kMeasure.
bool traced_op(Pass pass, std::uint64_t k) {
  return pass == Pass::kLayers || (pass == Pass::kTraced && k % 2 == 1);
}

// ---- cold_sweep --------------------------------------------------------------

LoopResult run_cold_sweep(const Config& cfg, Fixture& f, Report& report,
                          Pass pass) {
  const std::vector<Netlist*> nets = nets_of(f, "cold_sweep");
  Options options;
  options.threads = cfg.nproc;
  LoopResult out;
  RssSampler rss;

  // One user-visible op: the path `sereep sweep` + `sereep ser` take.
  // Returns whether it completed with the expected bytes.
  const auto op = [&](const Netlist& net, bool traced) {
    OpScope scope(traced);
    ++report.attempted;
    rss.begin_op();
    const std::int64_t start = now_ns();
    try {
      Session session = [&] {
        Span span("cold_sweep.open");
        return Session::open(net.path, options);
      }();
      std::string sweep;
      std::string ser;
      {
        Span span("cold_sweep.sweep_csv");
        sweep = session.sweep_csv();
      }
      {
        Span span("cold_sweep.ser_csv");
        ser = session.ser_csv();
      }
      const double ms = ms_since(start);
      rss.end_op();
      if (sweep != net.sweep_csv || ser != net.ser_csv) {
        report.fail(net.profile + ": cold_sweep bytes differ");
        return false;
      }
      (traced ? out.traced_latency_ms : out.latency_ms).push_back(ms);
      return true;
    } catch (const std::exception& e) {
      report.fail(net.profile + ": " + e.what());
      return false;
    }
  };

  // The same work taken apart layer by layer, one span per public call.
  std::vector<double> sites;
  std::vector<double> clusters;
  std::vector<double> singletons;
  const auto probe = [&](const Netlist& net) {
    OpScope scope(true);
    ++report.attempted;
    try {
      sereep::Circuit circuit;
      {
        Span span("netlist.load");
        circuit = sereep::load_netlist(net.path);
      }
      Session session(std::move(circuit), options);
      {
        Span span("netlist.flatten");
        (void)session.compiled();
      }
      {
        Span span("sigprob.sp");
        (void)session.sp();
      }
      {
        Span span("netlist.plan");
        (void)session.planner();
      }
      {
        Span span("epp.sweep");
        (void)session.sweep_p_sensitized();
      }
      std::string sweep;
      std::string ser;
      {
        Span span("api.sweep_csv");
        sweep = session.sweep_csv();
      }
      {
        Span span("ser.fold");
        (void)session.ser();
      }
      {
        Span span("api.ser_csv");
        ser = session.ser_csv();
      }
      if (sweep != net.sweep_csv || ser != net.ser_csv) {
        report.fail(net.profile + ": layer probe bytes differ");
      }
      const std::vector<sereep::ConeCluster> plan =
          session.planner().plan(session.sites());
      sites.push_back(static_cast<double>(session.sites().size()));
      clusters.push_back(static_cast<double>(plan.size()));
      singletons.push_back(static_cast<double>(
          std::count_if(plan.begin(), plan.end(), [](const auto& c) {
            return c.members.size() == 1;
          })));
    } catch (const std::exception& e) {
      report.fail(net.profile + ": " + e.what());
    }
  };

  if (pass == Pass::kLayers) {
    for (const Netlist* net : nets) probe(*net);
  } else {
    // Whole rotations only, so every run weighs the netlists equally.
    const std::int64_t start = now_ns();
    const std::int64_t deadline = deadline_after(cfg.seconds);
    do {
      for (const Netlist* net : nets) {
        const bool ok = op(*net, false);
        if (pass == Pass::kTraced) {
          (void)op(*net, true);
          probe(*net);
        } else if (ok) {
          ++out.ops;
          out.sites += static_cast<double>(net->psens.size());
        }
      }
    } while (now_ns() < deadline);
    out.elapsed_s = ms_since(start) / 1e3;
  }
  out.peak_rss_mb = rss.median_peak_mb();

  if (pass != Pass::kMeasure) {
    const std::string n = count_note(sites.size()) + " probes";
    for (const char* layer :
         {"netlist.load", "netlist.flatten", "sigprob.sp", "netlist.plan",
          "epp.sweep", "api.sweep_csv", "ser.fold", "api.ser_csv"}) {
      report.add(std::string(layer) + "_ms", span_ms(layer), "ms", n);
    }
    report.add("netlist.sites", median(sites), "count", n);
    report.add("netlist.clusters", median(clusters), "count", n);
    report.add("netlist.singleton_sites", median(singletons), "count", n);
  }
  return out;
}

// ---- serve_hot ---------------------------------------------------------------

enum Kind : std::size_t { kSweep, kSer, kPsens, kHarden, kKinds };
constexpr std::array<const char*, kKinds> kKindName = {"sweep_csv", "ser_csv",
                                                       "psens", "harden"};
constexpr std::array<const char*, kKinds> kServeSpan = {
    "serve.sweep_csv", "serve.ser_csv", "serve.psens", "serve.harden"};
constexpr std::array<const char*, kKinds> kHotSpan = {
    "api.hot_sweep_csv", "api.hot_ser_csv", "api.hot_psens",
    "api.hot_harden"};

/// One deck of the request mix per netlist: 8 sweep_csv, 8 ser_csv,
/// 3 psens and 1 harden_text in 20 (40/40/15/5%).
constexpr std::array<Kind, 20> kKindDeck = {
    kSweep, kSweep, kSweep, kSweep, kSweep, kSweep, kSweep, kSweep, kSer, kSer,
    kSer,   kSer,   kSer,   kSer,   kSer,   kSer,   kPsens, kPsens, kPsens,
    kHarden};

/// The request sequence all clients draw from: seeded shuffles of the full
/// deck (every kind slot with every netlist), so any run's requests follow
/// the mix exactly, whole decks at a time.
std::vector<std::pair<Kind, std::size_t>> request_schedule(
    std::uint64_t seed, std::size_t nets, std::size_t decks) {
  std::vector<std::pair<Kind, std::size_t>> deck;
  for (std::size_t n = 0; n < nets; ++n) {
    for (const Kind k : kKindDeck) deck.emplace_back(k, n);
  }
  sereep::Rng rng(derive_seed(seed, "serve/schedule"));
  std::vector<std::pair<Kind, std::size_t>> schedule;
  for (std::size_t d = 0; d < decks; ++d) {
    for (std::size_t i = deck.size(); i > 1; --i) {
      std::swap(deck[i - 1], deck[rng.below(i)]);
    }
    schedule.insert(schedule.end(), deck.begin(), deck.end());
  }
  return schedule;
}

constexpr unsigned kServeClients = 4;

struct ServeSample {
  Kind kind = kSweep;
  std::size_t net = 0;
  double total_ms = 0;
  std::size_t bytes = 0;
  bool traced = false;
};

/// Uncontended in-process renderings on the warm 1-thread sessions the
/// expected bytes came from: hot[kind][net] is the median of a few reps.
std::array<std::vector<double>, kKinds> hot_in_process(
    const std::vector<Netlist*>& nets, Report& report, int reps) {
  std::array<std::vector<double>, kKinds> hot;
  for (std::size_t n = 0; n < nets.size(); ++n) {
    Netlist& net = *nets[n];
    Session& s = *net.hot;
    const std::size_t site = net.psens_pool.front();
    for (std::size_t k = 0; k < kKinds; ++k) {
      std::vector<double> ms;
      for (int r = 0; r < reps; ++r) {
        OpScope scope(true);
        ++report.attempted;
        std::string body;
        const std::int64_t start = now_ns();
        {
          Span span(kHotSpan[k]);
          switch (k) {
            case kSweep:
              body = s.sweep_csv();
              break;
            case kSer:
              body = s.ser_csv();
              break;
            case kPsens: {
              const std::optional<NodeId> id = s.find(net.site_names[site]);
              char buf[64];
              std::snprintf(buf, sizeof buf, "%.17g\n",
                            id ? s.p_sensitized(*id) : -1.0);
              body = buf;
              break;
            }
            default:
              body = s.harden_text(0.5);
          }
        }
        ms.push_back(ms_since(start));
        const std::string& want =
            k == kSweep   ? net.sweep_csv
            : k == kSer   ? net.ser_csv
            : k == kPsens ? psens_bytes(net, site)
                          : net.harden_text;
        if (body != want) {
          report.fail(net.profile + ": in-process " + kKindName[k] +
                      " bytes differ");
        }
      }
      hot[k].push_back(median(ms));
    }
  }
  return hot;
}

LoopResult run_serve_hot(const Config& cfg, Fixture& f, Report& report,
                         Pass pass) {
  const std::vector<Netlist*> nets = nets_of(f, "serve_hot");
  const std::map<std::string, std::uint64_t> before = serve_stats(f.port);
  LoopResult out;

  std::mutex mutex;  // guards report, out and samples
  std::vector<ServeSample> samples;
  // kLayers keeps going past its window until every kind has a traced
  // sample, so each per-kind metric has data.
  std::array<std::atomic<std::size_t>, kKinds> traced_seen{};
  const auto every_kind_seen = [&] {
    return std::all_of(traced_seen.begin(), traced_seen.end(),
                       [](const auto& n) { return n.load() > 0; });
  };
  const std::int64_t start = now_ns();
  const std::int64_t deadline = deadline_after(
      pass == Pass::kLayers ? kLayerPassSeconds : cfg.seconds);
  const std::int64_t hard_deadline = deadline + 60'000'000'000;

  const std::vector<std::pair<Kind, std::size_t>> schedule =
      request_schedule(cfg.seed, nets.size(), 200);
  std::atomic<std::size_t> next{0};
  const auto client = [&](unsigned id) {
    sereep::Rng rng(derive_seed(cfg.seed, "serve/client" + std::to_string(id)));
    for (std::uint64_t k = 0;; ++k) {
      const std::int64_t now = now_ns();
      const bool more = now < deadline ||
                        (pass != Pass::kMeasure && !every_kind_seen() &&
                         now < hard_deadline);
      if (!more) break;
      const auto [kind, n] = schedule[next++ % schedule.size()];
      const Netlist& net = *nets[n];
      sereep::ServeRequest req;
      req.netlist = net.path;
      std::string want;
      std::size_t sites = net.psens.size();
      switch (kind) {
        case kSweep:
          req.kind = sereep::ServeRequestKind::kSweepCsv;
          want = net.sweep_csv;
          break;
        case kSer:
          req.kind = sereep::ServeRequestKind::kSerCsv;
          want = net.ser_csv;
          break;
        case kPsens: {
          req.kind = sereep::ServeRequestKind::kPSensitized;
          const std::size_t site =
              net.psens_pool[rng.below(net.psens_pool.size())];
          req.node = net.site_names[site];
          want = psens_bytes(net, site);
          sites = 1;
          break;
        }
        default:
          req.kind = sereep::ServeRequestKind::kHardenText;
          req.target = 0.5;
          want = net.harden_text;
      }
      const bool traced = traced_op(pass, k);
      OpScope scope(traced, id + 1);
      const std::int64_t t0 = now_ns();
      const Reply reply = serve_request(f.port, req);
      const bool ok = reply.ok && reply.body == want;
      if (ok && traced) {
        const std::int64_t t_end =
            t0 + static_cast<std::int64_t>(reply.total_ms * 1e6);
        const std::int64_t t_first =
            t_end - static_cast<std::int64_t>(reply.transfer_ms * 1e6);
        const std::int64_t t_sent =
            t_first - static_cast<std::int64_t>(reply.ttfb_ms * 1e6);
        const std::int64_t parent =
            record_span(kServeSpan[kind], t0, t_end, -1);
        record_span("serve.ttfb", t_sent, t_first, parent);
        record_span("serve.transfer", t_first, t_end, parent);
        ++traced_seen[kind];
      }
      const std::lock_guard<std::mutex> lock(mutex);
      ++report.attempted;
      if (!ok) {
        report.fail(net.profile + " " + kKindName[kind] + ": " +
                    (reply.ok ? "byte mismatch" : reply.error));
        continue;
      }
      samples.push_back({kind, n, reply.total_ms, reply.body.size(), traced});
      (traced ? out.traced_latency_ms : out.latency_ms)
          .push_back(reply.total_ms);
      if (t0 < deadline) {
        ++out.ops;
        out.sites += static_cast<double>(sites);
      }
    }
  };
  std::vector<std::thread> clients;
  for (unsigned i = 0; i < kServeClients; ++i) clients.emplace_back(client, i);
  for (std::thread& t : clients) t.join();
  out.elapsed_s = ms_since(start) / 1e3;
  out.peak_rss_mb =
      proc_status_mb(std::to_string(f.daemon->pid()), "VmHWM");
  const std::map<std::string, std::uint64_t> after = serve_stats(f.port);

  if (pass != Pass::kMeasure) {
    const std::array<std::vector<double>, kKinds> hot =
        hot_in_process(nets, report, 3);
    std::array<std::vector<double>, kKinds> bytes;
    std::vector<double> wait;
    for (const ServeSample& s : samples) {
      if (!s.traced) continue;
      bytes[s.kind].push_back(static_cast<double>(s.bytes));
      wait.push_back(s.total_ms - hot[s.kind][s.net]);
    }
    for (std::size_t k = 0; k < kKinds; ++k) {
      const std::string note = count_note(bytes[k].size());
      report.add(std::string(kServeSpan[k]) + "_ms", span_ms(kServeSpan[k]),
                 "ms", note);
      if (k != kHarden) {
        report.add(std::string(kHotSpan[k]) + "_ms", span_ms(kHotSpan[k]),
                   "ms", "3 reps per netlist");
      }
      report.add(std::string("serve.response_bytes.") + kKindName[k],
                 median(bytes[k]), "bytes", note);
    }
    const std::string n = count_note(wait.size());
    report.add("serve.wait_ms", median(wait), "ms", n);
    report.add("serve.ttfb_ms", span_ms("serve.ttfb"), "ms", n);
    report.add("serve.transfer_ms", span_ms("serve.transfer"), "ms", n);
    const auto delta = [&](const char* key) {
      const auto a = after.find(key);
      const auto b = before.find(key);
      return a == after.end() || b == before.end()
                 ? 0.0
                 : static_cast<double>(a->second - b->second);
    };
    report.add("serve.cache_hits", delta("serve_session_cache_hits"), "count");
    report.add("serve.cache_misses", delta("serve_session_cache_misses"),
               "count");
    report.add("serve.evictions", delta("serve_session_cache_evictions"),
               "count");
    report.add("serve.errors_sent", delta("serve_errors_sent"), "count");
    report.add("serve.rejected_busy", delta("serve_connections_rejected_busy"),
               "count");
  }
  return out;
}

// ---- whatif_edit ---------------------------------------------------------------

LoopResult run_whatif_edit(const Config& cfg, Fixture& f, Report& report,
                           Pass pass) {
  const Netlist& net = f.net("s38417");
  Session& session = *f.whatif;
  const std::span<const NodeId> site_span = session.sites();
  const std::vector<NodeId> sites(site_span.begin(), site_span.end());
  const std::vector<NodeId>& victims = f.whatif_victims;
  sereep::Rng rng(derive_seed(cfg.seed, "whatif"));
  LoopResult out;
  std::vector<double> resweep;
  double resweep_total = 0;
  double spliced_total = 0;
  double patched = 0;
  double sp_incremental = 0;
  RssSampler rss;

  // One op: edit, re-read psens, re-fold SER. Returns psens by NodeId.
  const auto op = [&](const sereep::EditPlan& plan, bool traced,
                      std::vector<double>& psens) {
    OpScope scope(traced);
    const Session::IncrementalStats stats_before = session.incremental_stats();
    rss.begin_op();
    const std::int64_t start = now_ns();
    double probe_ms = 0;
    sereep::EditResult edit;
    {
      Span span("api.apply_edit");
      edit = session.apply_edit(plan);
    }
    if (traced) {
      // Not part of the op: the affected-site mask the re-sweep is scoped
      // by, timed on its own and subtracted from the op's latency.
      const std::int64_t probe = now_ns();
      Span span("epp.affected_mask");
      const std::vector<NodeId> closure =
          sereep::downstream_closure(session.compiled(), edit.dirty);
      (void)sereep::affected_site_mask(session.compiled(), closure, sites,
                                       &session.planner());
      probe_ms = ms_since(probe);
    }
    {
      Span span("api.reconcile");
      psens = session.sweep_p_sensitized();
    }
    {
      Span span("ser.fold_after_edit");
      (void)session.ser();
    }
    const double ms = ms_since(start) - probe_ms;
    rss.end_op();
    if (traced) {
      const Session::IncrementalStats& s = session.incremental_stats();
      const double re =
          static_cast<double>(s.resweeped_sites - stats_before.resweeped_sites);
      resweep.push_back(re);
      resweep_total += re;
      spliced_total +=
          static_cast<double>(s.spliced_sites - stats_before.spliced_sites);
      patched += static_cast<double>(s.compiled_patched -
                                     stats_before.compiled_patched);
      sp_incremental += static_cast<double>(s.sp_incremental -
                                            stats_before.sp_incremental);
    }
    return ms;
  };

  const auto matches_pristine = [&](const std::vector<double>& psens) {
    for (std::size_t i = 0; i < sites.size(); ++i) {
      if (psens[sites[i]] != net.psens[i]) return false;
    }
    return true;
  };

  // Op pairs: retype a seeded victim to its dual, then toggle it back.
  std::vector<double> psens;
  const std::int64_t start = now_ns();
  const std::int64_t deadline = deadline_after(cfg.seconds);
  std::uint64_t pair = 0;
  const std::uint64_t layer_pairs = 3;
  for (;; ++pair) {
    // A kTraced pass runs at least one untraced and one traced pair.
    const bool done = pass == Pass::kLayers
                          ? pair >= layer_pairs
                          : now_ns() >= deadline &&
                                (pass == Pass::kMeasure || pair >= 2);
    if (done) break;
    const NodeId victim = victims[rng.below(victims.size())];
    const std::string& name = session.circuit().node(victim).name;
    const sereep::GateType type = session.circuit().type(victim);
    const bool traced = traced_op(pass, pair);
    for (const sereep::GateType t : {dual(type), type}) {
      ++report.attempted;
      try {
        const double ms = op(retype_plan(name, t), traced, psens);
        if (t == type && !matches_pristine(psens)) {
          report.fail("whatif: psens after toggle-back of " + name +
                      " differs from the pristine sweep");
          continue;
        }
        (traced ? out.traced_latency_ms : out.latency_ms).push_back(ms);
        ++out.ops;
        out.sites += static_cast<double>(sites.size());
      } catch (const std::exception& e) {
        report.fail("whatif: " + std::string(e.what()));
      }
    }
  }
  out.elapsed_s = ms_since(start) / 1e3;

  if (pass != Pass::kLayers) {
    // The edited session must equal a from-scratch Session of the edited
    // circuit, psens and SER bytes alike.
    ++report.attempted;
    try {
      const NodeId victim = victims[rng.below(victims.size())];
      const std::string name = session.circuit().node(victim).name;
      const sereep::GateType type = session.circuit().type(victim);
      (void)op(retype_plan(name, dual(type)), false, psens);
      Options options;
      options.threads = cfg.nproc;
      Session fresh(sereep::Circuit(session.circuit()), options);
      if (psens != fresh.sweep_p_sensitized() ||
          session.ser_csv() != fresh.ser_csv()) {
        report.fail("whatif: edited session differs from a fresh Session");
      }
      (void)op(retype_plan(name, type), false, psens);
    } catch (const std::exception& e) {
      report.fail("whatif: " + std::string(e.what()));
    }
  }
  out.peak_rss_mb = rss.median_peak_mb();

  if (pass != Pass::kMeasure) {
    const std::string n = count_note(resweep.size()) + " traced edits";
    const double edits = std::max<double>(1.0, static_cast<double>(resweep.size()));
    report.add("api.apply_edit_ms", span_ms("api.apply_edit"), "ms", n);
    report.add("api.reconcile_ms", span_ms("api.reconcile"), "ms", n);
    report.add("ser.fold_after_edit_ms", span_ms("ser.fold_after_edit"), "ms",
               n);
    report.add("epp.affected_mask_ms", span_ms("epp.affected_mask"), "ms", n);
    report.add("epp.resweep_sites", median(resweep), "count", n);
    report.add("epp.resweep_frac",
               resweep_total / std::max(1.0, resweep_total + spliced_total),
               "ratio", n);
    report.add("api.compiled_patched", patched / edits, "count", "per edit");
    report.add("sigprob.sp_incremental", sp_incremental / edits, "count",
               "per edit");
  }
  return out;
}

// ---- sharded_sweep ---------------------------------------------------------------

constexpr unsigned kShards = 2;

LoopResult run_sharded_sweep(const Config& cfg, Fixture& f, Report& report,
                             Pass pass) {
  const Netlist& net = f.net("s38417");
  Options sharded;
  sharded.engine = "sharded";
  sharded.threads = 1;  // one sweep thread per worker: kShards in total
  sharded.shard.shards = kShards;
  sharded.shard.worker_path = cfg.sereep;
  Options batched;
  batched.threads = kShards;
  LoopResult out;
  RssSampler rss;

  const auto fanned_out = [&](const Session& s, const std::string& what) {
    const sereep::ShardedEppEngine::Diagnostics* d = s.shard_diagnostics();
    if (d == nullptr || d->in_process || d->respawns > 0) {
      report.fail(what + ": sweep did not fan out cleanly");
      return false;
    }
    return true;
  };

  // Returns whether the op fanned out cleanly with the expected bytes.
  const auto op = [&](bool traced) {
    OpScope scope(traced);
    ++report.attempted;
    rss.begin_op();
    const std::int64_t start = now_ns();
    try {
      Session session = [&] {
        Span span("sharded_sweep.open");
        return Session::open(net.path, sharded);
      }();
      std::string csv;
      {
        Span span("sharded_sweep.sweep_csv");
        csv = session.sweep_csv();
      }
      const double ms = ms_since(start);
      rss.end_op();
      if (!fanned_out(session, "sharded op")) return false;
      if (csv != net.sweep_csv) {
        report.fail("sharded op: sweep_csv bytes differ");
        return false;
      }
      (traced ? out.traced_latency_ms : out.latency_ms).push_back(ms);
      return true;
    } catch (const std::exception& e) {
      report.fail(std::string("sharded op: ") + e.what());
      return false;
    }
  };

  // Fan-out against the in-process batched sweep at threads = shards, both
  // on sessions whose flatten, SP and plan are already built.
  std::vector<double> overhead;
  std::vector<double> spawned;
  std::vector<double> respawns;
  std::vector<double> imbalance;
  std::string transport;
  const auto probe = [&] {
    OpScope scope(true);
    ++report.attempted;
    try {
      {
        Span span("epp.shard_worker_load");
        Session worker(sereep::load_netlist(net.path));
        (void)worker.compiled();
      }
      const auto warm = [&](const Options& options) {
        Session s = Session::open(net.path, options);
        (void)s.compiled();
        (void)s.sp();
        (void)s.planner();
        return s;
      };
      Session fan = warm(sharded);
      Session local = warm(batched);
      std::int64_t t = now_ns();
      std::vector<double> p_fan;
      {
        Span span("epp.shard_sweep");
        p_fan = fan.sweep_p_sensitized();
      }
      const double fan_ms = ms_since(t);
      t = now_ns();
      std::vector<double> p_local;
      {
        Span span("epp.shard_batched");
        p_local = local.sweep_p_sensitized();
      }
      overhead.push_back(fan_ms - ms_since(t));
      if (!fanned_out(fan, "shard probe")) return;
      if (p_fan != p_local) report.fail("shard probe: psens differs");
      const sereep::ShardedEppEngine::Diagnostics& d = *fan.shard_diagnostics();
      spawned.push_back(d.workers_spawned);
      respawns.push_back(d.respawns);
      double max_sites = 0;
      double sum_sites = 0;
      for (const std::size_t n : d.shard_sites) {
        max_sites = std::max(max_sites, static_cast<double>(n));
        sum_sites += static_cast<double>(n);
      }
      imbalance.push_back(
          d.shard_sites.empty()
              ? 0.0
              : max_sites * static_cast<double>(d.shard_sites.size()) /
                    sum_sites);
      transport = d.transport;
    } catch (const std::exception& e) {
      report.fail(std::string("shard probe: ") + e.what());
    }
  };

  if (pass == Pass::kLayers) {
    probe();
    probe();
  } else {
    const std::int64_t start = now_ns();
    const std::int64_t deadline = deadline_after(cfg.seconds);
    do {
      const bool ok = op(false);
      if (pass == Pass::kTraced) {
        (void)op(true);
        probe();
      } else if (ok) {
        ++out.ops;
        out.sites += static_cast<double>(net.psens.size());
      }
    } while (now_ns() < deadline);
    out.elapsed_s = ms_since(start) / 1e3;
  }
  // The sweep itself runs in the workers: report the larger of this
  // process's per-op peak and the largest reaped worker's (a kMeasure
  // set-up starts no child, so every reaped child is a worker of an op).
  struct rusage children {};
  ::getrusage(RUSAGE_CHILDREN, &children);
  out.peak_rss_mb = std::max(rss.median_peak_mb(),
                             static_cast<double>(children.ru_maxrss) / 1024.0);

  if (pass != Pass::kMeasure) {
    const std::string n = count_note(overhead.size()) + " probes";
    report.add("epp.shard_sweep_ms", span_ms("epp.shard_sweep"), "ms", n);
    report.add("epp.shard_batched_ms", span_ms("epp.shard_batched"), "ms", n);
    report.add("epp.shard_overhead_ms", median(overhead), "ms", n);
    report.add("epp.shard_worker_load_ms", span_ms("epp.shard_worker_load"),
               "ms", n);
    report.add("epp.shard_workers_spawned", median(spawned), "count",
               "transport=" + transport);
    report.add("epp.shard_respawns", median(respawns), "count",
               "transport=" + transport);
    report.add("epp.shard_imbalance", median(imbalance), "ratio",
               "max/mean shard sites");
  }
  return out;
}

}  // namespace

LoopResult run_workload(const std::string& workload, const Config& cfg,
                        Fixture& fixture, Report& report, Pass pass) {
  if (workload == "cold_sweep") {
    return run_cold_sweep(cfg, fixture, report, pass);
  }
  if (workload == "serve_hot") {
    return run_serve_hot(cfg, fixture, report, pass);
  }
  if (workload == "whatif_edit") {
    return run_whatif_edit(cfg, fixture, report, pass);
  }
  if (workload == "sharded_sweep") {
    return run_sharded_sweep(cfg, fixture, report, pass);
  }
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace perfbench
