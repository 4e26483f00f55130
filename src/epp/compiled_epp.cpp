#include "src/epp/compiled_epp.hpp"

#include <algorithm>
#include <cassert>

namespace sereep {

std::vector<Prob4> build_off_path_table(const SignalProbabilities& sp) {
  std::vector<Prob4> table;
  table.reserve(sp.size());
  for (double p1 : sp.p1) table.push_back(Prob4::off_path(p1));
  return table;
}

CompiledEppEngine::CompiledEppEngine(const CompiledCircuit& circuit,
                                     const SignalProbabilities& sp,
                                     EppOptions options)
    : circuit_(circuit),
      sp_(sp),
      options_(options),
      cones_(circuit),
      owned_off_path_(build_off_path_table(sp)),
      off_path_(owned_off_path_),
      dist_(circuit.node_count()),
      on_path_stamp_(circuit.node_count(), 0) {
  assert(sp.size() == circuit.node_count());
}

CompiledEppEngine::CompiledEppEngine(const CompiledCircuit& circuit,
                                     const SignalProbabilities& sp,
                                     std::span<const Prob4> off_path,
                                     EppOptions options)
    : circuit_(circuit),
      sp_(sp),
      options_(options),
      cones_(circuit),
      off_path_(off_path),
      dist_(circuit.node_count()),
      on_path_stamp_(circuit.node_count(), 0) {
  assert(sp.size() == circuit.node_count());
  assert(off_path.size() == circuit.node_count());
}

const Cone& CompiledEppEngine::propagate(NodeId site,
                                         bool with_reconvergence) {
  const Cone& cone = cones_.extract(site, with_reconvergence);
  ++epoch_;
  for (NodeId id : cone.on_path) on_path_stamp_[id] = epoch_;

  dist_[site] = Prob4::error_site();

  for (NodeId id : cone.on_path) {
    if (id == site) continue;
    const auto fanin = circuit_.fanin(id);
    if (circuit_.is_dff(id)) {
      dist_[id] = dist_[fanin[0]];
      continue;
    }
    fanin_scratch_.clear();
    for (NodeId f : fanin) {
      // Same rule as the reference engine: a non-site DFF fanin holds clean
      // state within the cycle and is off-path even when its D pin is in the
      // cone.
      const bool dff_state = circuit_.is_dff(f) && f != site;
      if (!dff_state && on_path_stamp_[f] == epoch_) {
        fanin_scratch_.push_back(dist_[f]);
      } else {
        fanin_scratch_.push_back(off_path_[f]);
      }
    }
    const GateType type = circuit_.type(id);
    Prob4 d = options_.track_polarity
                  ? prob4_propagate(type, fanin_scratch_)
                  : prob4_propagate_no_polarity(type, fanin_scratch_);
    if (options_.electrical_survival < 1.0) {
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

SiteEpp CompiledEppEngine::compute(NodeId site) {
  assert(site < circuit_.node_count());
  const Cone& cone = propagate(site, /*with_reconvergence=*/true);

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
  if (circuit_.is_dff(site)) {
    const NodeId d = circuit_.fanin(site)[0];
    result.self_dpin_mass =
        on_path_stamp_[d] == epoch_ ? dist_[d].error_mass() : 0.0;
  }
  return result;
}

double CompiledEppEngine::p_sensitized(NodeId site) {
  assert(site < circuit_.node_count());
  const Cone& cone = propagate(site, /*with_reconvergence=*/false);
  double miss = 1.0;
  for (NodeId sink : cone.reachable_sinks) {
    miss *= 1.0 - dist_[sink].error_mass();
  }
  return 1.0 - miss;
}

SiteRow CompiledEppEngine::row(NodeId site,
                               std::span<const double> latch_weights) {
  assert(site < circuit_.node_count());
  assert(latch_weights.size() == circuit_.node_count());
  const Cone& cone = propagate(site, /*with_reconvergence=*/false);
  double miss = 1.0;
  double miss_latched = 1.0;
  for (NodeId sink : cone.reachable_sinks) {
    const double mass = dist_[sink].error_mass();
    miss *= 1.0 - mass;
    miss_latched *= 1.0 - latch_weights[sink] * mass;
  }
  return {.site = site,
          .p_sensitized = 1.0 - miss,
          .latched = 1.0 - miss_latched};
}

}  // namespace sereep
