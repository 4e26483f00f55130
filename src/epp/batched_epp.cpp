#include "src/epp/batched_epp.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <new>

namespace sereep {

BatchedEppEngine::BatchedEppEngine(const CompiledCircuit& circuit,
                                   const SignalProbabilities& sp,
                                   EppOptions options)
    : circuit_(circuit),
      sp_(sp),
      options_(options),
      owned_off_path_(build_off_path_table(sp)),
      off_path_(owned_off_path_),
      stamp_(circuit.node_count(), 0),
      slot_(circuit.node_count(), 0),
      site_lane_(circuit.node_count(), 0),
      buckets_(circuit.bucket_count()) {
  assert(sp.size() == circuit.node_count());
}

BatchedEppEngine::BatchedEppEngine(const CompiledCircuit& circuit,
                                   const SignalProbabilities& sp,
                                   std::span<const Prob4> off_path,
                                   EppOptions options)
    : circuit_(circuit),
      sp_(sp),
      options_(options),
      off_path_(off_path),
      stamp_(circuit.node_count(), 0),
      slot_(circuit.node_count(), 0),
      site_lane_(circuit.node_count(), 0),
      buckets_(circuit.bucket_count()) {
  assert(sp.size() == circuit.node_count());
  assert(off_path.size() == circuit.node_count());
}

BatchedEppEngine::~BatchedEppEngine() {
  if (planes_ != nullptr) ::munmap(planes_, planes_bytes_);
}

void BatchedEppEngine::assign_blocks(std::span<const NodeId> sites) {
  // A reader count with this bit set never drops to zero: the node keeps
  // its block for the whole cluster.
  constexpr std::uint32_t kPinned = std::uint32_t{1} << 31;
  readers_.assign(merged_.size(), 0);
  for (const NodeId id : merged_) {
    if (circuit_.is_sink(id)) readers_[slot_[id]] |= kPinned;
    for (const NodeId f : circuit_.fanin(id)) {
      if (stamp_[f] == epoch_) ++readers_[slot_[f]];
    }
  }
  for (const NodeId s : sites) {
    if (!circuit_.is_dff(s)) continue;
    const NodeId d = circuit_.fanin(s)[0];
    if (stamp_[d] == epoch_) readers_[slot_[d]] |= kPinned;
  }

  // Every reader of an unpinned node sits later in the merged order than
  // the node itself (only DFFs are read before their bucket, and DFFs are
  // sinks), so a block is only ever released after it was handed out.
  blk_.resize(merged_.size());
  free_.clear();
  std::uint32_t blocks = 0;
  for (const NodeId s : sites) blk_[slot_[s]] = blocks++;
  for (const NodeId id : merged_) {
    if (site_lane_[id] == 0) {
      if (free_.empty()) {
        blk_[slot_[id]] = blocks++;
      } else {
        blk_[slot_[id]] = free_.back();
        free_.pop_back();
      }
    }
    for (const NodeId f : circuit_.fanin(id)) {
      if (stamp_[f] == epoch_ && --readers_[slot_[f]] == 0) {
        free_.push_back(blk_[slot_[f]]);
      }
    }
  }
  blocks_ = blocks;

  const std::size_t bytes =
      blocks_ * static_cast<std::size_t>(kSymCount) * stride_ * sizeof(double);
  if (bytes <= planes_bytes_) return;
  // No contents survive a cluster, so growing maps a fresh region instead of
  // copying; doubling keeps remaps rare, and untouched pages cost nothing.
  const std::size_t size = std::max(bytes, 2 * planes_bytes_);
  if (planes_ != nullptr) ::munmap(planes_, planes_bytes_);
  planes_ = nullptr;
  planes_bytes_ = 0;
  void* addr = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (addr == MAP_FAILED) throw std::bad_alloc();
  planes_ = static_cast<double*>(addr);
  planes_bytes_ = size;
}

void BatchedEppEngine::propagate_cluster(std::span<const NodeId> sites,
                                         bool with_reconvergence) {
  const std::size_t lanes = sites.size();
  assert(lanes >= 1 && lanes <= kMaxLanes);

  // ---- merged extraction: one DFS over the union of the member cones -----
  ++epoch_;
  stack_.clear();
  merged_.clear();
  merged_sink_count_ = 0;
  for (std::size_t l = 0; l < lanes; ++l) {
    const NodeId s = sites[l];
    assert(s < circuit_.node_count());
    assert(stamp_[s] != epoch_ && "cluster sites must be distinct");
    stamp_[s] = epoch_;
    site_lane_[s] = static_cast<std::uint8_t>(l + 1);
    stack_.push_back(s);
  }
  std::uint32_t min_bucket = circuit_.bucket_count();
  std::uint32_t max_bucket = 0;
  while (!stack_.empty()) {
    const NodeId id = stack_.back();
    stack_.pop_back();
    const std::uint32_t b = circuit_.bucket_level(id);
    buckets_[b].push_back(id);
    min_bucket = std::min(min_bucket, b);
    max_bucket = std::max(max_bucket, b);
    if (circuit_.is_sink(id)) ++merged_sink_count_;
    // Same stopping rule as the per-site extractors: a DFF is an observation
    // point, not a pass-through — unless it is itself a member site (an
    // upset of the state bit propagates from the FF output).
    if (circuit_.is_dff(id) && site_lane_[id] == 0) continue;
    for (NodeId consumer : circuit_.fanout(id)) {
      if (stamp_[consumer] != epoch_) {
        stamp_[consumer] = epoch_;
        stack_.push_back(consumer);
      }
    }
  }

  // Bucket concatenation is a valid propagation order for every lane at
  // once: restricted to one lane's cone it is exactly the order the per-site
  // extractors produce, and same-bucket nodes never read each other.
  for (std::uint32_t b = min_bucket; b <= max_bucket && b < buckets_.size();
       ++b) {
    for (NodeId id : buckets_[b]) {
      slot_[id] = static_cast<std::uint32_t>(merged_.size());
      merged_.push_back(id);
    }
    buckets_[b].clear();
  }

  mask_.resize(merged_.size());
  stride_ = simd::round_up_lanes(lanes);
  assign_blocks(sites);
  for (std::size_t l = 0; l < lanes; ++l) {
    folds_[l] = LaneFold{};
    // The SEU flips the site: it carries the erroneous value with certainty.
    // Seeded before the pass (a DFF site's block can be read by consumers in
    // LOWER buckets) and re-applied after the kernel writes the site's block.
    simd::seed_error_lane(block(slot_[sites[l]]), stride_, l);
  }

  // ---- one pass in merged order: membership masks + per-lane Table-1 -----
  const bool track = options_.track_polarity;
  const double survival = options_.electrical_survival;
  // The vector kernels replay the scalar polarity-tracking arithmetic; the
  // polarity-blind ablation keeps the per-lane scalar fold.
  const bool vector = track && options_.simd;
  for (const NodeId id : merged_) {
    const std::size_t slot = slot_[id];
    const auto fanin = circuit_.fanin(id);
    const bool id_is_dff = circuit_.is_dff(id);

    // Lane membership: a lane covers this node iff the node is its site or
    // some fanin already carries the lane through a traversable edge (a
    // non-DFF fanin passes its whole mask; a DFF fanin passes only its own
    // seed bit — the cone never crosses a clean state bit). Non-DFF fanins
    // sit in strictly lower buckets, so their masks are final; DFF fanins
    // are read via site_lane_, which is known up front.
    std::uint64_t mask =
        site_lane_[id] ? std::uint64_t{1} << (site_lane_[id] - 1) : 0;
    for (const NodeId f : fanin) {
      if (stamp_[f] != epoch_) continue;
      if (circuit_.is_dff(f)) {
        if (site_lane_[f]) mask |= std::uint64_t{1} << (site_lane_[f] - 1);
      } else {
        mask |= mask_[slot_[f]];
      }
    }
    mask_[slot] = mask;

    // The lane-plane kernels win once a node carries enough lanes to fill
    // vector registers; sparse nodes (cone fringes) stay on the per-lane
    // scalar branch. Both branches are bit-identical, so the threshold is a
    // pure scheduling choice.
    constexpr int kVectorMinLanes = 4;
    if (vector && std::popcount(mask) >= kVectorMinLanes) {
      // ---- lane-plane path: one kernel updates every member lane group ---
      for (std::uint64_t work = mask; work != 0; work &= work - 1) {
        ++folds_[std::countr_zero(work)].cone_size;
      }
      if (fanin.empty()) continue;  // source node: only its own seed lane
      const simd::GroupMask groups = simd::active_groups(mask);
      double* out = block(slot);
      if (id_is_dff) {
        // Sink: the latched distribution lives at the D pin. Member lanes
        // always have the D pin on-path (it is how the DFS reached the FF);
        // the group copy drags garbage sibling lanes along, which no reader
        // uses.
        if (stamp_[fanin[0]] == epoch_) {
          simd::copy_groups(out, block(slot_[fanin[0]]), groups, stride_);
        }
        if (site_lane_[id]) {
          simd::seed_error_lane(out, stride_, site_lane_[id] - 1);
        }
        continue;
      }
      fanin_lanes_.clear();
      for (const NodeId f : fanin) {
        simd::FaninLanes in;
        in.off = off_path_[f];
        // Same rule as the reference engine: a non-site DFF fanin holds
        // clean state within the cycle and is off-path even when its D pin
        // is in the cone; the member site itself is always on-path.
        if (circuit_.is_dff(f)) {
          if (site_lane_[f]) {
            in.on = std::uint64_t{1} << (site_lane_[f] - 1);
            in.src = block(slot_[f]);
          }
        } else if (stamp_[f] == epoch_) {
          in.on = mask_[slot_[f]];
          in.src = block(slot_[f]);
        }
        fanin_lanes_.push_back(in);
      }
      // Reconvergence bookkeeping reads the true on-masks; the kernels get
      // don't-care-widened copies (lanes outside `mask` may read either
      // side — nothing consumes them), which turns most per-lane blends
      // into whole-group copies.
      std::uint64_t seen = 0, twice = 0;
      for (simd::FaninLanes& in : fanin_lanes_) {
        twice |= seen & in.on;
        seen |= in.on;
        if (in.src != nullptr) in.on |= ~mask;
      }
      simd::propagate_gate(circuit_.type(id), out, fanin_lanes_.data(),
                           fanin_lanes_.size(), groups, stride_);
      if (survival < 1.0) {
        simd::attenuate(out, survival, sp_.p1[id], groups, stride_);
      }
      if (site_lane_[id]) {
        simd::seed_error_lane(out, stride_, site_lane_[id] - 1);
      }
      if (with_reconvergence) {
        // A gate with >= 2 error-carrying fanins is reconvergent for a lane;
        // the carry-save pass above gives "at least two" per lane without a
        // per-lane loop (matches the scalar count exactly).
        std::uint64_t rework = mask & twice;
        if (site_lane_[id]) {
          rework &= ~(std::uint64_t{1} << (site_lane_[id] - 1));
        }
        for (; rework != 0; rework &= rework - 1) {
          ++folds_[std::countr_zero(rework)].reconvergent;
        }
      }
      continue;
    }

    // ---- scalar per-lane path (SIMD off / polarity-blind ablation) -------
    // Identical arithmetic, in identical order, to the reference engine's
    // per-site pass — only the traversal is shared. Gathers each lane's
    // Prob4 from the planes and scatters the result back (data movement
    // only; the planes are the single source of truth for both paths).
    std::uint64_t work = mask;
    while (work != 0) {
      const int l = std::countr_zero(work);
      work &= work - 1;
      ++folds_[l].cone_size;
      if (site_lane_[id] == l + 1) continue;  // seeded error site
      double* out = block(slot);
      if (id_is_dff) {
        // Sink: the latched distribution lives at the D pin (the D pin is
        // always on this lane's path — it is how the DFS reached the FF).
        const double* d_pin = block(slot_[fanin[0]]);
        for (int s = 0; s < kSymCount; ++s) {
          out[static_cast<std::size_t>(s) * stride_ + l] =
              d_pin[static_cast<std::size_t>(s) * stride_ + l];
        }
        continue;
      }
      fanin_scratch_.clear();
      int on_path_fanins = 0;
      for (const NodeId f : fanin) {
        // Same rule as the reference engine: a non-site DFF fanin holds
        // clean state within the cycle and is off-path even when its D pin
        // is in the cone; the member site itself is always on-path.
        bool on;
        if (circuit_.is_dff(f)) {
          on = site_lane_[f] == l + 1;
        } else {
          on = stamp_[f] == epoch_ && (mask_[slot_[f]] >> l & 1) != 0;
        }
        if (on) {
          fanin_scratch_.push_back(
              lane_prob4(slot_[f], static_cast<std::size_t>(l)));
          ++on_path_fanins;
        } else {
          fanin_scratch_.push_back(off_path_[f]);
        }
      }
      const GateType type = circuit_.type(id);
      Prob4 d = track ? prob4_propagate(type, fanin_scratch_)
                      : prob4_propagate_no_polarity(type, fanin_scratch_);
      if (survival < 1.0) {
        const double killed = d.error_mass() * (1.0 - survival);
        d[Sym::kA] *= survival;
        d[Sym::kABar] *= survival;
        d[Sym::kOne] += killed * sp_.p1[id];
        d[Sym::kZero] += killed * (1.0 - sp_.p1[id]);
      }
      for (int s = 0; s < kSymCount; ++s) {
        out[static_cast<std::size_t>(s) * stride_ + l] = d.p[s];
      }
      // A gate with >= 2 error-carrying fanins is reconvergent for this lane
      // (the on-path test above matches the reference scan's condition).
      if (with_reconvergence && on_path_fanins >= 2) ++folds_[l].reconvergent;
    }
  }

  for (const NodeId s : sites) site_lane_[s] = 0;
}

void BatchedEppEngine::compute_cluster(std::span<const NodeId> sites,
                                       std::span<SiteEpp> out) {
  assert(out.size() >= sites.size());
  const std::size_t lanes = sites.size();
  propagate_cluster(sites, /*with_reconvergence=*/true);

  for (std::size_t l = 0; l < lanes; ++l) {
    SiteEpp r;
    r.site = sites[l];
    r.cone_size = folds_[l].cone_size;
    r.reconvergent_gates = folds_[l].reconvergent;
    out[l] = std::move(r);
  }

  // One rank-filtered scan of the global sink list serves every lane; each
  // lane picks up its own sinks in exactly the reference fold order.
  std::size_t seen = 0;
  for (const NodeId sink : circuit_.sinks_by_rank()) {
    if (stamp_[sink] != epoch_) continue;
    const std::size_t slot = slot_[sink];
    std::uint64_t work = mask_[slot];
    while (work != 0) {
      const int l = std::countr_zero(work);
      work &= work - 1;
      SinkEpp s;
      s.sink = sink;
      s.distribution = lane_prob4(slot, static_cast<std::size_t>(l));
      s.error_mass = s.distribution.error_mass();
      folds_[l].miss *= 1.0 - s.error_mass;
      folds_[l].max_mass = std::max(folds_[l].max_mass, s.error_mass);
      folds_[l].sum_mass += s.error_mass;
      out[l].sinks.push_back(s);
    }
    if (++seen == merged_sink_count_) break;
  }

  for (std::size_t l = 0; l < lanes; ++l) {
    out[l].p_sensitized = 1.0 - folds_[l].miss;
    out[l].p_sens_lower = folds_[l].max_mass;
    out[l].p_sens_upper = std::min(1.0, folds_[l].sum_mass);
    if (circuit_.is_dff(sites[l])) {
      const NodeId d = circuit_.fanin(sites[l])[0];
      const bool on_path =
          stamp_[d] == epoch_ && (mask_[slot_[d]] >> l & 1) != 0;
      out[l].self_dpin_mass =
          on_path ? lane_prob4(slot_[d], l).error_mass() : 0.0;
    }
  }
}

void BatchedEppEngine::rows_cluster(std::span<const NodeId> sites,
                                    std::span<const double> latch_weights,
                                    std::span<SiteRow> out) {
  assert(out.size() >= sites.size());
  assert(latch_weights.size() == circuit_.node_count());
  propagate_cluster(sites, /*with_reconvergence=*/false);

  std::size_t seen = 0;
  for (const NodeId sink : circuit_.sinks_by_rank()) {
    if (stamp_[sink] != epoch_) continue;
    const std::size_t slot = slot_[sink];
    const double weight = latch_weights[sink];
    std::uint64_t work = mask_[slot];
    while (work != 0) {
      const int l = std::countr_zero(work);
      work &= work - 1;
      const double mass =
          lane_prob4(slot, static_cast<std::size_t>(l)).error_mass();
      folds_[l].miss *= 1.0 - mass;
      folds_[l].miss_latched *= 1.0 - weight * mass;
    }
    if (++seen == merged_sink_count_) break;
  }
  for (std::size_t l = 0; l < sites.size(); ++l) {
    out[l] = {.site = sites[l],
              .p_sensitized = 1.0 - folds_[l].miss,
              .latched = 1.0 - folds_[l].miss_latched};
  }
}

SiteEpp BatchedEppEngine::compute(NodeId site) {
  SiteEpp out;
  compute_cluster({&site, 1}, {&out, 1});
  return out;
}

SiteRow BatchedEppEngine::row(NodeId site,
                              std::span<const double> latch_weights) {
  SiteRow out;
  rows_cluster({&site, 1}, latch_weights, {&out, 1});
  return out;
}

}  // namespace sereep
