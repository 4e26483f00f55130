// ConeClusterPlanner — groups error sites whose fanout cones overlap.
//
// The per-site EPP sweep re-walks each site's whole output cone: a DFS over
// the CSR fanout arrays, a level-bucket concatenation, and a filtered scan of
// the global sink list — once per site. Neighbouring sites, however, mostly
// see the *same* fanout region (a chain of single-fanout gates has one cone,
// entered at successive points; a stem's branches all funnel into the same
// reconvergence region), so the structural part of that work is shared. The
// planner finds those groups ahead of the sweep, so BatchedEppEngine
// (src/epp/batched_epp.hpp) can extract one merged frontier per group and
// propagate every member site through the shared traversal.
//
// Grouping key, level 1: a 64-bit reachable-sink signature per node — each
// sink hashes to one bit, and a node's signature is the OR of its consumers'
// pass-through signatures (a Bloom filter of the cone's sink set), computed
// for all nodes in one reverse-topological pass over the compiled view.
// Sites whose signatures coincide almost always share most of their cone;
// sites whose signatures differ cannot share sinks (no false negatives —
// only hash collisions can overestimate overlap, which costs efficiency,
// never correctness). Clusters are packed greedily from the signature-sorted
// site list under two caps: kMaxLanes member sites (one bit each in the
// engine's per-node lane mask) and a total cone-size-estimate budget that
// bounds the engine's per-cluster scratch memory.
//
// Grouping key, level 2: the immediate-dominator sink — the sink every
// propagation path from a node crosses FIRST, when a unique such sink
// exists, computed in the same reverse-topological pass (a node inherits
// the key iff all its pass-through consumers agree; a DFF consumer
// contributes itself — the error latches there first). Wide cones rarely
// have one, so the key falls back to the NEAREST reachable sink (minimum
// DFF-adjusted topo rank — the first sink the engines fold), which always
// exists for any observable cone. Sites left singleton by the Bloom pass —
// rare signatures, asymmetric overlaps that fail the Jaccard test — are
// regrouped by this key: an equal key guarantees the cones share at least
// the funnel into that sink, which is exactly the region a merged traversal
// de-duplicates. Grouping is ALWAYS correct regardless of overlap (lanes
// are independent); both levels only decide how much structural work is
// shared.
//
// The planner is deterministic: identical circuit + site list => identical
// clusters, regardless of thread count (the parallel sweep's results must not
// depend on scheduling).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/netlist/compiled.hpp"

namespace sereep {

/// One planned cluster: member sites, referenced by their index into the
/// site list given to plan() (so callers can scatter per-site results back
/// into their own order), plus the scheduling mass.
struct ConeCluster {
  /// Indices into the planned site span, in deterministic planner order.
  std::vector<std::uint32_t> members;
  /// Sum of the members' capped cone-size estimates — the scheduling key
  /// (biggest clusters are drained first by the parallel sweep).
  double mass = 0.0;
};

/// Plans cone-sharing clusters over a CompiledCircuit (see file comment).
class ConeClusterPlanner {
 public:
  /// Hard cap on cluster size: one lane per member site, one bit per lane in
  /// the batched engine's per-node membership mask.
  static constexpr std::size_t kMaxLanes = 64;

  explicit ConeClusterPlanner(const CompiledCircuit& circuit);

  /// Groups `sites` into clusters of <= kMaxLanes members each, by both
  /// grouping levels (see file comment). Every site appears in exactly one
  /// cluster; clusters are returned in descending mass order (ties broken
  /// by first member index). `sites` must not contain duplicates.
  [[nodiscard]] std::vector<ConeCluster> plan(
      std::span<const NodeId> sites) const;

  /// The 64-bit Bloom signature of the reachable-sink set of `id`'s output
  /// cone. Equal cones have equal signatures; distinct signatures imply the
  /// sink sets differ.
  [[nodiscard]] std::uint64_t sink_signature(NodeId id) const {
    return sig_[id];
  }

  /// The level-2 cluster key of `id`'s output cone: the unique sink every
  /// propagation path from `id` crosses first when one exists (a sink is
  /// its own dominator), otherwise the nearest reachable sink (minimum
  /// DFF-adjusted topo rank). kInvalidNode only for cones that reach no
  /// sink at all.
  [[nodiscard]] NodeId dominator_sink(NodeId id) const { return dom_[id]; }

 private:
  const CompiledCircuit& circuit_;
  std::vector<std::uint64_t> sig_;
  std::vector<NodeId> dom_;
};

}  // namespace sereep
