// BatchedEppEngine — multi-site EPP propagation through one shared traversal,
// with SIMD lane-plane arithmetic.
//
// CompiledEppEngine re-extracts a cone per error site even when neighbouring
// sites cover the same fanout region. This engine takes a *cluster* of sites
// (planned by ConeClusterPlanner), runs ONE merged forward DFS / level-bucket
// ordering / sink-list filter over the union of their cones, and propagates
// every member site as an independent lane through the shared node order.
// The structural work (DFS stack, visited stamps, bucket concatenation,
// rank-filtered sink scan) is paid once per cluster instead of once per
// site, and one gate evaluation updates every lane of the cluster at once.
//
// Prob4 plane memory layout
// -------------------------
// Lane distributions are stored structure-of-arrays, not as Prob4 structs.
// Each merged slot owns one plane BLOCK: the cluster's lanes in groups of
// simd::kLaneWidth (one cache line of doubles), and within a group the four
// symbol vectors back to back,
//
//   planes_[blk_[slot] * block_size_ + simd::lane_offset(lane, sym)]
//
// with sym indexed by Sym (kZero, kOne, kA, kABar) and block_size_ the
// doubles of the cluster's lane groups. One gate evaluation reads each
// fanin group as four adjacent cache lines and writes its output group the
// same way, with the lane-plane kernels in src/util/simd.hpp, which
// auto-vectorize with no intrinsics. Per-fanin on/off-path selection is a
// branch-free per-lane blend against the node's 64-bit membership mask
// (mask_, indexed by merged-cone slot like every other per-node table).
//
// One walk per cluster. After the merged DFS, the bucket concatenation gives
// every slot its reader count: a non-sink node is read once per fanout edge,
// since every consumer of an expanded node is in the cone and the fanout
// lists are the exact reverse multiset of the fanin lists (Circuit checks
// this). Then one pass over the merged order does everything per node: a
// non-site node takes a block from a LIFO free list (or a fresh one), and one
// loop over its fanins builds the membership mask and the kernels' fanin
// entries and counts each fanin's read down, returning the fanin's block to
// the list at its last read. A node takes its block BEFORE its fanins' blocks
// return, so an output never aliases an input it reads. Member sites take the
// first blocks, before the walk — every site is seeded up front, and a DFF
// site is read by consumers in lower buckets. Two sets of nodes are pinned
// for the whole cluster: every sink (the rank-order sink fold reads it after
// the pass; a DFF, the only node read before its own bucket, is always a
// sink) and the D pin of each DFF member site (compute_cluster's
// self_dpin_mass reads it after the pass). A cluster thus holds its peak live
// frontier plus its pinned nodes: on the generated s38417 (seed 1) at most
// 6,379 blocks, where its largest merged cone has 22,002 nodes.
//
// Every id the pass reads was handed out in this cluster: blk_ and mask_ are
// reset per cluster, so even a view whose bucket order or fanout lists
// disagree with its fanins (values then unspecified) stays inside the planes
// and lanes of the cluster.
//
// The planes live in one anonymous page mapping per engine, reserved
// (MAP_NORESERVE) for one block per merged node before the pass — only the
// blocks handed out are ever touched — grown by mapping a larger region (no
// contents survive a cluster, so nothing is copied) and unmapped when the
// engine dies. A std::vector would keep the pages resident after the sweep:
// once glibc's dynamic mmap threshold has risen past the buffer size, a
// sweep thread's buffer comes from its per-thread arena, whose top chunk
// malloc_trim() does not release, and every process forked afterwards
// inherits those pages.
//
// Lanes a node does not belong to compute harmless garbage (all inputs
// blend to finite off-path constants, stale finite doubles of a recycled
// block, or the 0.0 of a fresh page) that no reader ever consumes: every
// downstream read — fanin blend, sink fold, self-D-pin probe — is gated by
// the membership mask.
//
// Bit-for-bit contract
// --------------------
// For every member site, each lane performs exactly the floating-point
// operations of the reference EppEngine, on the same values, in the same
// order — the merged bucket order restricted to one lane's cone is a valid
// topological order of that cone, same-bucket nodes never read each other,
// per-lane sinks fold in the same rank-filtered sequence the compiled and
// reference engines use (so does rows_cluster's latch-weighted product, in
// the sequence node_ser_from_epp walks), and each simd kernel replays the
// scalar gate_rules arithmetic per lane (pinned by
// tests/epp/simd_kernels_test.cpp). The
// error-site seed is a constant re-applied after the kernel writes the
// site's slot, never a kernel output. The SIMD and scalar per-lane paths
// are therefore interchangeable per engine (EppOptions::simd; the scalar
// path also serves the polarity-blind ablation, whose 3-symbol fold is not
// vectorized). The engine-equivalence tests assert exact equality
// (EXPECT_EQ, no tolerance) against both oracles and with SIMD on and off:
// reference EppEngine -> CompiledEppEngine -> BatchedEppEngine.
//
// One engine per thread (it owns the merged-cone scratch); the underlying
// CompiledCircuit and SignalProbabilities are read-only and safely shared.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/epp/compiled_epp.hpp"
#include "src/epp/epp_engine.hpp"
#include "src/netlist/compiled.hpp"
#include "src/netlist/cone_cluster.hpp"
#include "src/util/simd.hpp"

namespace sereep {

/// Multi-site EPP engine over one CompiledCircuit + one SP assignment.
class BatchedEppEngine {
 public:
  static constexpr std::size_t kMaxLanes = ConeClusterPlanner::kMaxLanes;

  /// `circuit` and `sp` must outlive the engine; `sp` must cover every node.
  BatchedEppEngine(const CompiledCircuit& circuit,
                   const SignalProbabilities& sp, EppOptions options = {});

  /// Same, sharing a prebuilt off-path table (build_off_path_table(sp));
  /// `off_path` must cover every node and outlive the engine.
  BatchedEppEngine(const CompiledCircuit& circuit,
                   const SignalProbabilities& sp,
                   std::span<const Prob4> off_path, EppOptions options = {});

  ~BatchedEppEngine();
  BatchedEppEngine(const BatchedEppEngine&) = delete;
  BatchedEppEngine& operator=(const BatchedEppEngine&) = delete;

  /// Full SiteEpp for every site of one cluster; out[i] receives sites[i]'s
  /// record. `sites` must hold 1..kMaxLanes distinct sites.
  void compute_cluster(std::span<const NodeId> sites, std::span<SiteEpp> out);

  /// SiteRow output (P_sensitized and the latch-weighted fold beside it,
  /// `latch_weights` one weight per node) — skips per-sink record assembly
  /// and the cone-size and reconvergent-gate counts. out[i] receives
  /// sites[i]'s row.
  void rows_cluster(std::span<const NodeId> sites,
                    std::span<const double> latch_weights,
                    std::span<SiteRow> out);

  /// Single-site conveniences (a 1-lane cluster); used by tests to pin the
  /// degenerate case against CompiledEppEngine.
  [[nodiscard]] SiteEpp compute(NodeId site);
  [[nodiscard]] SiteRow row(NodeId site, std::span<const double> latch_weights);

  [[nodiscard]] const CompiledCircuit& circuit() const noexcept {
    return circuit_;
  }
  [[nodiscard]] const EppOptions& options() const noexcept { return options_; }

  /// Plane blocks the last cluster used: its peak live frontier plus its
  /// pinned nodes (see the file comment), never more than its merged cone.
  [[nodiscard]] std::size_t plane_blocks() const noexcept { return blocks_; }

 private:
  /// Merged extraction + the one-walk per-lane propagation for one cluster.
  /// Fills merged_, slot_, mask_, blk_ and the planes and resets folds_;
  /// `records` (compute_cluster) also counts reconvergent gates.
  void propagate_cluster(std::span<const NodeId> sites, bool records);

  /// Maps planes for `blocks` blocks of block_size_ doubles.
  void reserve_planes(std::size_t blocks);

  /// One slot's lane-plane block (block_size_ doubles, group-contiguous).
  [[nodiscard]] double* block(std::size_t slot) const noexcept {
    return planes_ + blk_[slot] * block_size_;
  }
  /// Gathers one lane's Prob4 from a block (pure data movement).
  [[nodiscard]] static Prob4 lane_prob4(const double* block,
                                        std::size_t lane) noexcept {
    Prob4 d;
    for (int s = 0; s < kSymCount; ++s) {
      d.p[s] = block[simd::lane_offset(lane, s)];
    }
    return d;
  }

  const CompiledCircuit& circuit_;
  const SignalProbabilities& sp_;
  EppOptions options_;
  std::vector<Prob4> owned_off_path_;   ///< empty when the table is shared
  std::span<const Prob4> off_path_;     ///< Prob4::off_path(sp) per node

  // Node-indexed scratch (epoch-stamped, reused across clusters).
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> slot_;     ///< node -> merged-cone slot
  std::vector<std::uint8_t> site_lane_; ///< node -> lane + 1, 0 = not a site

  // Cluster scratch (slot-indexed / lane-indexed).
  std::vector<NodeId> stack_;
  std::vector<std::vector<NodeId>> buckets_;
  std::vector<NodeId> merged_;          ///< merged cone, bucket order
  std::vector<std::uint64_t> mask_;     ///< per slot: lane-membership bits
  std::vector<std::uint32_t> readers_;  ///< per slot: in-cone reads left
  std::vector<std::uint32_t> blk_;      ///< per slot: plane block id
  std::vector<std::uint32_t> free_;     ///< released block ids (LIFO)
  std::size_t blocks_ = 0;              ///< blocks the last cluster used
  double* planes_ = nullptr;            ///< SoA lane planes (see file comment)
  std::size_t planes_bytes_ = 0;        ///< size of the planes_ mapping
  std::size_t block_size_ = 0;          ///< doubles per block, this cluster
  std::vector<simd::FaninLanes> fanin_lanes_;  ///< the node's fanin entries
  std::vector<Prob4> fanin_scratch_;    ///< scalar-path gather buffer
  std::size_t merged_sink_count_ = 0;

  // Per-lane fold state, filled by propagate_cluster; reconvergent is
  // counted for compute_cluster only (a SiteRow has no such count).
  struct LaneFold {
    double miss = 1.0;
    double miss_latched = 1.0;  ///< rows_cluster's latch-weighted product
    double max_mass = 0.0;
    double sum_mass = 0.0;
    std::size_t reconvergent = 0;
  };
  LaneFold folds_[kMaxLanes];
};

// ---- cluster runners -------------------------------------------------------
//
// The one place that knows how to execute a planned ConeCluster: gather the
// member sites into lane order, run the batched engine — or the compiled
// engine for 1-member clusters, where the lane machinery buys nothing (both
// are bit-identical, so the split is invisible) — and hand each member's
// result to `emit(member_index, value)`, with member_index the site's index
// into `sites` (= the planner's input order). Shared by the sweep driver
// in epp_engine.cpp (sweep_sites) and the bench harnesses.

template <typename Emit>
void run_cluster_rows(BatchedEppEngine& batched, CompiledEppEngine& single,
                      const ConeCluster& cluster, std::span<const NodeId> sites,
                      std::span<const double> latch_weights, Emit&& emit) {
  const std::size_t m = cluster.members.size();
  if (m == 1) {
    emit(cluster.members[0],
         single.row(sites[cluster.members[0]], latch_weights));
    return;
  }
  NodeId lane_sites[BatchedEppEngine::kMaxLanes];
  SiteRow lane_out[BatchedEppEngine::kMaxLanes];
  for (std::size_t k = 0; k < m; ++k) {
    lane_sites[k] = sites[cluster.members[k]];
  }
  batched.rows_cluster({lane_sites, m}, latch_weights, {lane_out, m});
  for (std::size_t k = 0; k < m; ++k) emit(cluster.members[k], lane_out[k]);
}

template <typename Emit>
void run_cluster_compute(BatchedEppEngine& batched, CompiledEppEngine& single,
                         const ConeCluster& cluster,
                         std::span<const NodeId> sites, Emit&& emit) {
  const std::size_t m = cluster.members.size();
  if (m == 1) {
    emit(cluster.members[0], single.compute(sites[cluster.members[0]]));
    return;
  }
  NodeId lane_sites[BatchedEppEngine::kMaxLanes];
  for (std::size_t k = 0; k < m; ++k) {
    lane_sites[k] = sites[cluster.members[k]];
  }
  std::vector<SiteEpp> lane_out(m);
  batched.compute_cluster({lane_sites, m}, lane_out);
  for (std::size_t k = 0; k < m; ++k) {
    emit(cluster.members[k], std::move(lane_out[k]));
  }
}

}  // namespace sereep
