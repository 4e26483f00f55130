#include "src/netlist/cone_cluster.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

#include "src/util/rng.hpp"

namespace sereep {

namespace {

/// Bloom bit of one sink node: every sink hashes to one of the 64 signature
/// bits (splitmix64 mixes the id so consecutive sinks land on unrelated
/// bits).
std::uint64_t sink_bit(NodeId id) {
  std::uint64_t state = id;
  return std::uint64_t{1} << (splitmix64(state) & 63);
}

/// What a fanout edge into `consumer` contributes to a signature: a DFF is an
/// observation point (its own bit) — the cone never continues through it —
/// while a gate passes its whole downstream sink set.
std::uint64_t pass_through(const CompiledCircuit& c, NodeId consumer,
                           const std::vector<std::uint64_t>& sig) {
  return c.is_dff(consumer) ? sink_bit(consumer) : sig[consumer];
}

/// Same edge rule for the immediate-dominator sink: an error entering a DFF
/// is latched there first; through a gate it inherits the gate's dominator.
NodeId dom_through(const CompiledCircuit& c, NodeId consumer,
                   const std::vector<NodeId>& dom) {
  return c.is_dff(consumer) ? consumer : dom[consumer];
}

/// Dominator fold over one node's consumers: the unique first-crossed sink
/// if all paths agree, else kInvalidNode. A sink is its own dominator (the
/// error is observed at the node before travelling anywhere).
NodeId fold_dominator(const CompiledCircuit& c, NodeId id,
                      const std::vector<NodeId>& dom) {
  if (c.is_sink(id)) return id;
  NodeId d = kInvalidNode;
  bool first = true;
  for (NodeId consumer : c.fanout(id)) {
    const NodeId cd = dom_through(c, consumer, dom);
    if (cd == kInvalidNode) return kInvalidNode;
    if (first) {
      d = cd;
      first = false;
    } else if (cd != d) {
      return kInvalidNode;
    }
  }
  return d;  // kInvalidNode when the node has no consumers (dead cone)
}

/// Nearest-sink fold: the reachable sink of minimum DFF-adjusted topo rank
/// (the first sink the engines' rank-filtered fold visits) — the level-2
/// key's fallback when no unique dominator exists.
NodeId fold_nearest(const CompiledCircuit& c, NodeId id,
                    const std::vector<NodeId>& near) {
  const auto rank_less = [&](NodeId a, NodeId b) {
    if (a == kInvalidNode) return false;
    if (b == kInvalidNode) return true;
    if (c.topo_pos(a) != c.topo_pos(b)) return c.topo_pos(a) < c.topo_pos(b);
    return a < b;
  };
  NodeId best = c.is_sink(id) ? id : kInvalidNode;
  for (NodeId consumer : c.fanout(id)) {
    const NodeId cand = c.is_dff(consumer) ? consumer : near[consumer];
    if (rank_less(cand, best)) best = cand;
  }
  return best;
}

}  // namespace

ConeClusterPlanner::ConeClusterPlanner(const CompiledCircuit& circuit)
    : circuit_(circuit),
      sig_(circuit.node_count(), 0),
      dom_(circuit.node_count(), kInvalidNode) {
  const std::size_t n = circuit.node_count();

  // Reverse-topological signature + dominator pass, same two-pass structure
  // as the cone-size estimate (compiled.cpp): descending bucket level covers
  // the combinational nodes (a gate sits strictly above its non-DFF fanins,
  // so every non-DFF consumer is processed first), then DFF sites, whose
  // consumers only ever contribute pass-1 values or plain sink bits.
  // The two level-2 ingredients recurse independently (a fallback value must
  // never feed the unique-dominator agreement test), so each gets its own
  // table; dom_ stores the merged key.
  std::vector<NodeId> unique_dom(n, kInvalidNode);
  std::vector<NodeId> nearest(n, kInvalidNode);
  std::vector<std::vector<NodeId>> by_level(circuit.bucket_count());
  for (NodeId id = 0; id < n; ++id) {
    if (!circuit.is_dff(id)) by_level[circuit.bucket_level(id)].push_back(id);
  }
  for (std::size_t b = by_level.size(); b-- > 0;) {
    for (NodeId id : by_level[b]) {
      std::uint64_t s = circuit.is_sink(id) ? sink_bit(id) : 0;
      for (NodeId consumer : circuit.fanout(id)) {
        s |= pass_through(circuit, consumer, sig_);
      }
      sig_[id] = s;
      unique_dom[id] = fold_dominator(circuit, id, unique_dom);
      nearest[id] = fold_nearest(circuit, id, nearest);
      dom_[id] = unique_dom[id] != kInvalidNode ? unique_dom[id] : nearest[id];
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    if (!circuit.is_dff(id)) continue;
    std::uint64_t s = sink_bit(id);  // a DFF site is a sink of its own cone
    for (NodeId consumer : circuit.fanout(id)) {
      s |= pass_through(circuit, consumer, sig_);
    }
    sig_[id] = s;
    dom_[id] = id;  // the upset state bit is observed at the FF itself first
  }
}

std::vector<ConeCluster> ConeClusterPlanner::plan(
    std::span<const NodeId> sites) const {
  // Scratch-memory cap: the batched engine allocates one lane-plane entry
  // per (merged-cone slot, member site), and the merged cone is bounded both
  // by the sum of the member cone estimates (disjoint worst case — Bloom
  // collisions can cluster disjoint cones) and by the circuit itself.
  // Bounding lanes x that merged bound keeps per-worker scratch a few
  // hundred MB even on million-gate netlists while leaving full 64-way
  // sharing available at every size the repo currently runs.
  constexpr double kScratchEntryBudget = 1 << 23;

  const double n = static_cast<double>(circuit_.node_count());
  const auto capped_estimate = [&](NodeId site) {
    // The path-count estimate can overshoot exponentially; a cone can never
    // exceed the circuit.
    return std::min(circuit_.cone_size_estimate(site), n);
  };
  const auto fits = [&](const ConeCluster& cur, double est) {
    return cur.members.size() < kMaxLanes &&
           static_cast<double>(cur.members.size() + 1) *
                   std::min(cur.mass + est, n) <=
               kScratchEntryBudget;
  };

  // ---- level 1: greedy packing in Bloom-signature order --------------------
  // Signature-sorted order: equal-signature sites become adjacent, and
  // topological position keeps sites of one region together within a
  // signature run.
  std::vector<std::uint32_t> order(sites.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (sig_[sites[a]] != sig_[sites[b]]) {
      return sig_[sites[a]] < sig_[sites[b]];
    }
    if (circuit_.topo_pos(sites[a]) != circuit_.topo_pos(sites[b])) {
      return circuit_.topo_pos(sites[a]) < circuit_.topo_pos(sites[b]);
    }
    return sites[a] < sites[b];
  });

  std::vector<ConeCluster> clusters;
  std::uint64_t cluster_sig = 0;
  for (std::uint32_t idx : order) {
    const NodeId site = sites[idx];
    const std::uint64_t sig = sig_[site];
    const double est = capped_estimate(site);

    bool join = false;
    if (!clusters.empty() && fits(clusters.back(), est)) {
      // Share a traversal only when the sink sets plausibly overlap:
      // identical signatures (the common case — chains and reconvergent
      // regions), or a Jaccard overlap of at least one half. Two empty
      // signatures are both sink-free cones and trivially share.
      const std::uint64_t both = sig & cluster_sig;
      const std::uint64_t any = sig | cluster_sig;
      join = sig == cluster_sig ||
             (any != 0 && 2 * std::popcount(both) >= std::popcount(any));
    }
    if (!join) {
      clusters.emplace_back();
      cluster_sig = 0;
    }
    ConeCluster& cur = clusters.back();
    cur.members.push_back(idx);
    cur.mass += est;
    cluster_sig |= sig;
  }

  // ---- level 2: regroup singletons by immediate-dominator sink -------------
  // Sites the Bloom pass left alone (rare signatures, asymmetric overlaps
  // failing the Jaccard test) still share their sink funnel whenever their
  // dominator-sink key (unique first-crossed sink, else nearest reachable
  // sink) is the same node; pack those runs together. Only sink-free cones
  // (key == kInvalidNode) are guaranteed to stay singleton.
  std::vector<std::uint32_t> lone;  // site indices from singleton clusters
  std::erase_if(clusters, [&](const ConeCluster& c) {
    if (c.members.size() != 1 ||
        dominator_sink(sites[c.members[0]]) == kInvalidNode) {
      return false;
    }
    lone.push_back(c.members[0]);
    return true;
  });
  std::sort(lone.begin(), lone.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const NodeId da = dominator_sink(sites[a]);
              const NodeId db = dominator_sink(sites[b]);
              if (da != db) {
                if (circuit_.topo_pos(da) != circuit_.topo_pos(db)) {
                  return circuit_.topo_pos(da) < circuit_.topo_pos(db);
                }
                return da < db;
              }
              if (circuit_.topo_pos(sites[a]) != circuit_.topo_pos(sites[b])) {
                return circuit_.topo_pos(sites[a]) <
                       circuit_.topo_pos(sites[b]);
              }
              return sites[a] < sites[b];
            });
  NodeId open_dom = kInvalidNode;
  for (std::uint32_t idx : lone) {
    const NodeId d = dominator_sink(sites[idx]);
    const double est = capped_estimate(sites[idx]);
    if (clusters.empty() || d != open_dom || !fits(clusters.back(), est)) {
      clusters.emplace_back();
      open_dom = d;
    }
    ConeCluster& cur = clusters.back();
    cur.members.push_back(idx);
    cur.mass += est;
  }

  // Biggest first: the parallel sweep drains heavy clusters before the tail
  // of small ones, exactly like the per-site scheduler it replaces.
  std::stable_sort(clusters.begin(), clusters.end(),
                   [](const ConeCluster& a, const ConeCluster& b) {
                     return a.mass > b.mass;
                   });
  return clusters;
}

}  // namespace sereep
