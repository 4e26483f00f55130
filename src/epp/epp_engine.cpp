#include "src/epp/epp_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <thread>

#include "src/epp/batched_epp.hpp"
#include "src/epp/compiled_epp.hpp"
#include "src/netlist/compiled.hpp"
#include "src/netlist/cone_cluster.hpp"
#include "src/sim/fault_injection.hpp"  // error_sites / subsample_sites

namespace sereep {

EppEngine::EppEngine(const Circuit& circuit, const SignalProbabilities& sp,
                     EppOptions options)
    : circuit_(circuit),
      sp_(sp),
      options_(options),
      cones_(circuit),
      dist_(circuit.node_count()),
      on_path_stamp_(circuit.node_count(), 0) {
  assert(circuit.finalized());
  assert(sp.size() == circuit.node_count());
}

const Cone& EppEngine::propagate(NodeId site) {
  const Cone& cone = cones_.extract(site);
  ++epoch_;
  for (NodeId id : cone.on_path) on_path_stamp_[id] = epoch_;

  // The SEU flips the site: it carries the erroneous value with certainty.
  dist_[site] = Prob4::error_site();

  for (NodeId id : cone.on_path) {
    if (id == site) continue;
    const Node& node = circuit_.node(id);
    if (node.type == GateType::kDff) {
      // Sink: the distribution that would be latched lives at the D pin;
      // copy it onto the DFF node for uniform sink handling.
      dist_[id] = dist_[node.fanin[0]];
      continue;
    }
    fanin_scratch_.clear();
    for (NodeId f : node.fanin) {
      // A flip-flop can be on-path only as a *sink* (the error reaches its D
      // pin and is latched for the next cycle); within the current cycle its
      // output still holds clean state, so as a fanin it is off-path — with
      // the single exception of the error site being the flip-flop itself
      // (an upset of the state bit).
      const bool dff_state =
          circuit_.type(f) == GateType::kDff && f != site;
      if (!dff_state && on_path_stamp_[f] == epoch_) {
        fanin_scratch_.push_back(dist_[f]);
      } else {
        fanin_scratch_.push_back(Prob4::off_path(sp_.p1[f]));
      }
    }
    Prob4 d = options_.track_polarity
                  ? prob4_propagate(node.type, fanin_scratch_)
                  : prob4_propagate_no_polarity(node.type, fanin_scratch_);
    if (options_.electrical_survival < 1.0) {
      // Pulse attenuation: a (1 - survival) share of the error dies at this
      // gate; the killed mass becomes the correct value, split by the
      // node's signal probability.
      const double survival = options_.electrical_survival;
      const double killed = d.error_mass() * (1.0 - survival);
      d[Sym::kA] *= survival;
      d[Sym::kABar] *= survival;
      d[Sym::kOne] += killed * sp_.p1[id];
      d[Sym::kZero] += killed * (1.0 - sp_.p1[id]);
    }
    dist_[id] = d;
  }
  return cone;
}

SiteEpp EppEngine::compute(NodeId site) {
  assert(site < circuit_.node_count());
  const Cone& cone = propagate(site);

  SiteEpp result;
  result.site = site;
  result.cone_size = cone.on_path.size();
  result.reconvergent_gates = cone.reconvergent_gates.size();
  result.sinks.reserve(cone.reachable_sinks.size());

  double miss = 1.0;
  double max_mass = 0.0;
  double sum_mass = 0.0;
  for (NodeId sink : cone.reachable_sinks) {
    SinkEpp s;
    s.sink = sink;
    s.distribution = dist_[sink];
    s.error_mass = dist_[sink].error_mass();
    miss *= 1.0 - s.error_mass;
    max_mass = std::max(max_mass, s.error_mass);
    sum_mass += s.error_mass;
    result.sinks.push_back(s);
  }
  result.p_sensitized = 1.0 - miss;
  result.p_sens_lower = max_mass;
  result.p_sens_upper = std::min(1.0, sum_mass);
  if (circuit_.type(site) == GateType::kDff) {
    const NodeId d = circuit_.fanin(site)[0];
    result.self_dpin_mass =
        on_path_stamp_[d] == epoch_ ? dist_[d].error_mass() : 0.0;
  }
  return result;
}

double EppEngine::p_sensitized(NodeId site) {
  assert(site < circuit_.node_count());
  const Cone& cone = propagate(site);
  double miss = 1.0;
  for (NodeId sink : cone.reachable_sinks) {
    miss *= 1.0 - dist_[sink].error_mass();
  }
  return 1.0 - miss;
}

std::vector<SiteEpp> EppEngine::compute_all(std::size_t max_sites) {
  std::vector<SiteEpp> results;
  for (NodeId site : subsample_sites(error_sites(circuit_), max_sites)) {
    results.push_back(compute(site));
  }
  return results;
}

namespace {

/// Minimum sites per cursor grab. Chunks are cluster-granular (a cluster is
/// never split across workers — its lanes share one traversal) and packed to
/// at least this many sites: small enough to keep all workers busy on a
/// skewed tail, large enough to amortize the atomic.
constexpr std::size_t kSweepChunk = 32;

}  // namespace

void sweep_sites(const CompiledCircuit& compiled,
                 const ConeClusterPlanner& planner,
                 std::span<const NodeId> sites, const SignalProbabilities& sp,
                 const EppOptions& options, unsigned threads,
                 const SweepOutput& out) {
  const bool records = !out.records.empty();
  assert(records ? out.records.size() == sites.size()
                 : out.rows.size() == sites.size() &&
                       out.latch_weights.size() == compiled.node_count());
  // Clusters come in descending mass order (biggest first, so no thread
  // idles on a late giant); chunk i is clusters [bounds[i], bounds[i+1]).
  const std::vector<ConeCluster> clusters = planner.plan(sites);
  std::vector<std::size_t> bounds;
  for (std::size_t i = 0; i < clusters.size();) {
    bounds.push_back(i);
    for (std::size_t n = 0; i < clusters.size() && n < kSweepChunk;) {
      n += clusters[i++].members.size();
    }
  }
  if (bounds.empty()) return;  // before any O(n) engine build
  bounds.push_back(clusters.size());
  const std::size_t chunks = bounds.size() - 1;

  // One off-path table for the whole sweep; every worker's engine pair
  // borrows it instead of building identical per-engine copies. Each worker
  // owns one BatchedEppEngine plus one CompiledEppEngine — the latter serves
  // 1-member clusters, where the lane machinery buys nothing (both produce
  // bit-identical results, so the split is invisible) — and pulls chunks
  // from an atomic cursor (dynamic work stealing).
  const std::vector<Prob4> off_path = build_off_path_table(sp);
  std::atomic<std::size_t> cursor{0};
  const auto worker = [&] {
    BatchedEppEngine batched(compiled, sp, off_path, options);
    CompiledEppEngine single(compiled, sp, off_path, options);
    for (std::size_t chunk; (chunk = cursor.fetch_add(1)) < chunks;) {
      for (std::size_t c = bounds[chunk]; c < bounds[chunk + 1]; ++c) {
        if (records) {
          run_cluster_compute(batched, single, clusters[c], sites,
                              [&](std::uint32_t idx, SiteEpp&& epp) {
                                out.records[idx] = std::move(epp);
                              });
        } else {
          run_cluster_rows(batched, single, clusters[c], sites,
                           out.latch_weights,
                           [&](std::uint32_t idx, const SiteRow& row) {
                             out.rows[idx] = row;
                           });
        }
      }
    }
  };
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  // Never spawn more workers than there are chunks to hand out; one worker
  // runs the same chunked loop on the calling thread.
  threads = static_cast<unsigned>(std::min<std::size_t>(threads, chunks));
  if (threads <= 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();
}

}  // namespace sereep
