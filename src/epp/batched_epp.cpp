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

void BatchedEppEngine::reserve_planes(std::size_t blocks) {
  const std::size_t bytes = blocks * block_size_ * sizeof(double);
  if (bytes <= planes_bytes_) return;
  // No contents survive a cluster, so growing maps a fresh region instead of
  // copying; doubling keeps remaps rare, and untouched pages cost nothing.
  const std::size_t size = std::max(bytes, 2 * planes_bytes_);
  if (planes_ != nullptr) ::munmap(planes_, planes_bytes_);
  planes_ = nullptr;
  planes_bytes_ = 0;
  void* addr = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (addr == MAP_FAILED) throw std::bad_alloc();
  planes_ = static_cast<double*>(addr);
  planes_bytes_ = size;
}

void BatchedEppEngine::propagate_cluster(std::span<const NodeId> sites,
                                         bool records) {
  const std::size_t lanes = sites.size();
  assert(lanes >= 1 && lanes <= kMaxLanes);

  // ---- merged extraction: one DFS over the union of the member cones -----
  ++epoch_;
  stack_.clear();
  merged_.clear();
  readers_.clear();
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
  // extractors produce, and same-bucket nodes never read each other. Each
  // slot gets its reader count on the way (see the file comment); a count
  // with kPinned set never drops to zero, so the node keeps its block for
  // the whole cluster.
  constexpr std::uint32_t kPinned = std::uint32_t{1} << 31;
  for (std::uint32_t b = min_bucket; b <= max_bucket && b < buckets_.size();
       ++b) {
    for (NodeId id : buckets_[b]) {
      slot_[id] = static_cast<std::uint32_t>(merged_.size());
      merged_.push_back(id);
      readers_.push_back(
          circuit_.is_sink(id)
              ? kPinned
              : static_cast<std::uint32_t>(circuit_.fanout(id).size()));
    }
    buckets_[b].clear();
  }
  for (const NodeId s : sites) {
    if (!circuit_.is_dff(s)) continue;
    const NodeId d = circuit_.fanin(s)[0];
    if (stamp_[d] == epoch_) readers_[slot_[d]] |= kPinned;
  }

  mask_.assign(merged_.size(), 0);
  blk_.assign(merged_.size(), 0);
  free_.clear();
  block_size_ = simd::block_size(lanes);
  // Each merged node takes at most one block, so the hand-out below never
  // outgrows this reservation.
  reserve_planes(merged_.size());
  std::uint32_t blocks = 0;
  for (std::size_t l = 0; l < lanes; ++l) {
    folds_[l] = LaneFold{};
    blk_[slot_[sites[l]]] = blocks++;
    // The SEU flips the site: it carries the erroneous value with certainty.
    // Seeded before the pass (a DFF site's block can be read by consumers in
    // LOWER buckets) and re-applied after the kernel writes the site's block.
    simd::seed_error_lane(block(slot_[sites[l]]), l);
  }

  // ---- one pass in merged order: blocks, membership masks, Table-1 -------
  const bool track = options_.track_polarity;
  const double survival = options_.electrical_survival;
  // The vector kernels replay the scalar polarity-tracking arithmetic; the
  // polarity-blind ablation keeps the per-lane scalar fold.
  const bool vector = track && options_.simd;
  for (const NodeId id : merged_) {
    const std::size_t slot = slot_[id];
    const auto fanin = circuit_.fanin(id);
    const bool id_is_dff = circuit_.is_dff(id);
    const std::uint64_t site_bit =
        site_lane_[id] ? std::uint64_t{1} << (site_lane_[id] - 1) : 0;
    if (site_bit == 0) {
      if (free_.empty()) {
        blk_[slot] = blocks++;
      } else {
        blk_[slot] = free_.back();
        free_.pop_back();
      }
    }

    // Lane membership: a lane covers this node iff the node is its site or
    // some fanin already carries the lane through a traversable edge (a
    // non-DFF fanin passes its whole mask; a DFF fanin passes only its own
    // seed bit — the cone never crosses a clean state bit, and a non-site
    // DFF fanin holds clean state within the cycle, so it is off-path even
    // when its D pin is in the cone). Non-DFF fanins sit in strictly lower
    // buckets, so their masks are final; DFF fanins are read via site_lane_,
    // which is known up front. The same loop builds the kernels' fanin
    // entries and counts each in-cone fanin's read down.
    fanin_lanes_.clear();
    std::uint64_t seen = 0, twice = 0;
    for (const NodeId f : fanin) {
      simd::FaninLanes in{nullptr, 0, off_path_[f]};
      if (stamp_[f] == epoch_) {
        const std::size_t fs = slot_[f];
        if (!circuit_.is_dff(f)) {
          in.on = mask_[fs];
          in.src = block(fs);
        } else if (site_lane_[f]) {
          in.on = std::uint64_t{1} << (site_lane_[f] - 1);
          in.src = block(fs);
        }
        if (--readers_[fs] == 0) free_.push_back(blk_[fs]);
      }
      twice |= seen & in.on;
      seen |= in.on;
      fanin_lanes_.push_back(in);
    }
    const std::uint64_t mask = site_bit | seen;
    mask_[slot] = mask;
    // A gate with >= 2 error-carrying fanins is reconvergent for a lane;
    // the carry-save pass above gives "at least two" per lane without a
    // per-lane loop (matches the reference count exactly).
    if (records && !id_is_dff) {
      for (std::uint64_t work = twice & ~site_bit; work != 0;
           work &= work - 1) {
        ++folds_[std::countr_zero(work)].reconvergent;
      }
    }
    // A source node holds only its own seed lane.
    if (fanin.empty()) continue;
    double* out = block(slot);

    // The lane-plane kernels win once a node carries enough lanes to fill
    // vector registers; sparse nodes (cone fringes) stay on the per-lane
    // scalar branch. Both branches are bit-identical, so the threshold is a
    // pure scheduling choice.
    constexpr int kVectorMinLanes = 4;
    if (vector && std::popcount(mask) >= kVectorMinLanes) {
      // ---- lane-plane path: one kernel updates every member lane group ---
      const simd::GroupMask groups = simd::active_groups(mask);
      if (id_is_dff) {
        // Sink: the latched distribution lives at the D pin. Member lanes
        // always have the D pin on-path (it is how the DFS reached the FF);
        // the group copy drags garbage sibling lanes along, which no reader
        // uses.
        if (fanin_lanes_[0].src != nullptr) {
          simd::copy_groups(out, fanin_lanes_[0].src, groups);
        }
      } else {
        // The kernels get don't-care-widened on-masks (lanes outside `mask`
        // may read either side — nothing consumes them), which turns most
        // per-lane blends into whole-group copies.
        for (simd::FaninLanes& in : fanin_lanes_) {
          if (in.src != nullptr) in.on |= ~mask;
        }
        simd::propagate_gate(circuit_.type(id), out, fanin_lanes_.data(),
                             fanin_lanes_.size(), groups);
        if (survival < 1.0) {
          simd::attenuate(out, survival, sp_.p1[id], groups);
        }
      }
      if (site_bit != 0) simd::seed_error_lane(out, site_lane_[id] - 1);
      continue;
    }

    // ---- scalar per-lane path (SIMD off / polarity-blind ablation) -------
    // Identical arithmetic, in identical order, to the reference engine's
    // per-site pass — only the traversal is shared. Gathers each lane's
    // Prob4 from the fanin entries and scatters the result back (data
    // movement only; the planes are the single source of truth for both
    // paths). The seeded error site keeps its seed.
    fanin_scratch_.resize(fanin_lanes_.size());
    for (std::uint64_t work = mask & ~site_bit; work != 0; work &= work - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(work));
      Prob4 d;
      if (id_is_dff) {
        // Sink: the latched distribution lives at the D pin (the D pin is
        // always on this lane's path — it is how the DFS reached the FF).
        d = lane_prob4(fanin_lanes_[0].src, l);
      } else {
        for (std::size_t i = 0; i < fanin_lanes_.size(); ++i) {
          const simd::FaninLanes& in = fanin_lanes_[i];
          fanin_scratch_[i] =
              (in.on >> l & 1) != 0 ? lane_prob4(in.src, l) : in.off;
        }
        const GateType type = circuit_.type(id);
        d = track ? prob4_propagate(type, fanin_scratch_)
                  : prob4_propagate_no_polarity(type, fanin_scratch_);
        if (survival < 1.0) {
          const double killed = d.error_mass() * (1.0 - survival);
          d[Sym::kA] *= survival;
          d[Sym::kABar] *= survival;
          d[Sym::kOne] += killed * sp_.p1[id];
          d[Sym::kZero] += killed * (1.0 - sp_.p1[id]);
        }
      }
      for (int s = 0; s < kSymCount; ++s) out[simd::lane_offset(l, s)] = d.p[s];
    }
  }
  blocks_ = blocks;

  for (const NodeId s : sites) site_lane_[s] = 0;
}

void BatchedEppEngine::compute_cluster(std::span<const NodeId> sites,
                                       std::span<SiteEpp> out) {
  assert(out.size() >= sites.size());
  const std::size_t lanes = sites.size();
  propagate_cluster(sites, /*records=*/true);

  for (std::size_t l = 0; l < lanes; ++l) {
    SiteEpp r;
    r.site = sites[l];
    r.reconvergent_gates = folds_[l].reconvergent;
    out[l] = std::move(r);
  }
  // A lane's cone is every merged node whose mask carries it.
  for (const std::uint64_t mask : mask_) {
    for (std::uint64_t work = mask; work != 0; work &= work - 1) {
      ++out[std::countr_zero(work)].cone_size;
    }
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
      s.distribution = lane_prob4(block(slot), static_cast<std::size_t>(l));
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
          on_path ? lane_prob4(block(slot_[d]), l).error_mass() : 0.0;
    }
  }
}

void BatchedEppEngine::rows_cluster(std::span<const NodeId> sites,
                                    std::span<const double> latch_weights,
                                    std::span<SiteRow> out) {
  assert(out.size() >= sites.size());
  assert(latch_weights.size() == circuit_.node_count());
  propagate_cluster(sites, /*records=*/false);

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
          lane_prob4(block(slot), static_cast<std::size_t>(l)).error_mass();
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
