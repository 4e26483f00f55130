#include "sereep/session.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/artifact/compiled_artifact.hpp"
#include "src/epp/incremental.hpp"
#include "src/netlist/bench_io.hpp"
#include "src/netlist/benchmarks.hpp"
#include "src/netlist/verilog_io.hpp"
#include "src/sim/fault_injection.hpp"  // error_sites
#include "src/util/csv.hpp"
#include "src/util/strings.hpp"

namespace sereep {

Circuit load_netlist(const std::string& spec) {
  for (const std::string& name : known_circuit_names()) {
    if (spec == name) return make_circuit(spec);
  }
  if (is_artifact_path(spec)) return ArtifactView(spec).restore_circuit();
  if (spec.ends_with(".v")) return load_verilog_file(spec);
  return load_bench_file(spec);
}

/// The memoized cluster plan behind one stable heap address: deferred
/// planner handles held by engines (EngineContext::planner_source) stay
/// valid across Session moves, and the build-at-most-once counter lives in
/// the (equally stable) BuildCounts block.
struct Session::PlannerCache {
  const CompiledCircuit* compiled = nullptr;
  BuildCounts* counts = nullptr;
  std::unique_ptr<ConeClusterPlanner> planner;

  const ConeClusterPlanner& get() {
    if (planner == nullptr) {
      planner = std::make_unique<ConeClusterPlanner>(*compiled);
      ++counts->planner;
    }
    return *planner;
  }
};

Session::Session(Circuit circuit, Options options)
    : circuit_(std::make_unique<Circuit>(std::move(circuit))),
      options_(std::move(options)),
      counts_(std::make_unique<BuildCounts>()) {
  options_.validate();
}

Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;
Session::~Session() = default;

Session Session::open(const std::string& spec, Options options) {
  if (is_artifact_path(spec)) {
    auto artifact = std::make_unique<const ArtifactView>(spec);
    Session session(artifact->restore_circuit(), std::move(options));
    session.adopt_artifact(std::move(artifact));
    return session;
  }
  return Session(load_netlist(spec), std::move(options));
}

void Session::adopt_artifact(std::unique_ptr<const ArtifactView> artifact) {
  artifact_fingerprint_ = artifact->fingerprint();
  artifact_ = std::move(artifact);
  // Compiled view: borrowed zero-copy from the mapping — the point of the
  // artifact. Not counted in BuildCounts: the caching contract's "0 or 1"
  // counts constructions this session performs, and nothing was flattened
  // here. The SP table and cluster plan are built from it on first need,
  // as for every other netlist source.
  compiled_ = std::make_unique<CompiledCircuit>(
      CompiledCircuit::borrow(artifact_->compiled().view()));
}

const ShardedEppEngine::Diagnostics* Session::shard_diagnostics()
    const noexcept {
  const auto* sharded = dynamic_cast<const ShardedEppEngine*>(engine_.get());
  return sharded == nullptr ? nullptr : &sharded->last_sweep();
}

void Session::set_options(Options options) {
  options.validate();
  const bool sp_changed =
      options.sp.source != options_.sp.source ||
      options.sp.probabilities.input_sp !=
          options_.sp.probabilities.input_sp ||
      options.sp.probabilities.dff_sp != options_.sp.probabilities.dff_sp ||
      (options.sp.source == SpSource::kMonteCarlo &&
       options.sp.monte_carlo_vectors != options_.sp.monte_carlo_vectors);
  options_ = std::move(options);
  // Always dropped: the engine (binds the SP table, EPP options and — for
  // batched — the planner) and the multicycle engine (same bindings plus a
  // model-dependent matrix). Never dropped: the compiled view and the site
  // list (pure functions of the immutable circuit).
  engine_.reset();
  multicycle_.reset();
  if (sp_changed) {
    sp_.reset();
    sp_diagnostics_.reset();
  }
  // The cluster plan survives: it depends on the circuit alone.
  // The result table binds the full option set (EPP knobs, SER models, SP
  // source); re-scoping which of those actually moved is not worth it here —
  // reconfiguration is rare, edits are the hot loop.
  drop_table();
}

void Session::drop_table() {
  table_ = {};
  table_filled_ = false;
  pending_seeds_.clear();
  pending_sp_changed_.clear();
  pending_structural_ = false;
}

EditResult Session::apply_edit(const EditPlan& plan) {
  // All-or-nothing (apply_edit_plan restores the circuit when any op fails),
  // so a throw here leaves every artifact and the table valid as they are.
  EditResult result = apply_edit_plan(*circuit_, plan);
  ++inc_stats_.edits;
  // The artifact fingerprint the serve cache keys on describes the PRE-edit
  // bits. A local shard fleet maps an artifact of the circuit it sweeps, so
  // it follows the edit; remote hosts serve the netlist they were started
  // on and cannot, so a session with hosts sweeps in-process from now on
  // (shards = 1 is the engine's configured in-process path).
  artifact_fingerprint_.reset();
  if (!options_.shard.hosts.empty()) options_.shard.shards = 1;

  // Compiled view: a retype-only batch over owned arrays patches the type
  // table in place (the CSR layout is untouched by definition); anything
  // else — structural batches, or a view borrowed from an mmapped artifact —
  // re-flattens from the edited circuit.
  if (compiled_ != nullptr) {
    bool patched = false;
    if (!result.structure_changed) {
      std::vector<GateType> types;
      types.reserve(result.dirty.size());
      for (NodeId id : result.dirty) types.push_back(circuit_->type(id));
      patched = compiled_->patch_types(result.dirty, types);
    }
    if (patched) {
      ++inc_stats_.compiled_patched;
    } else {
      engine_.reset();         // binds the old view
      planner_cache_.reset();  // holds a raw pointer to the old view
      compiled_ = std::make_unique<CompiledCircuit>(*circuit_);
      ++counts_->compiled;
    }
  }
  artifact_.reset();  // nothing borrows the mapping anymore

  // SP table: repaired in place for the Parker-McCluskey source (the repair
  // returns the bitwise-changed node set P, part of the dirty frontier);
  // other sources re-derive from scratch — their deltas are unbounded, so
  // the result table goes with them.
  std::vector<NodeId> sp_changed;
  if (sp_ != nullptr) {
    if (options_.sp.source == SpSource::kParkerMcCluskey) {
      sp_changed = incremental_parker_mccluskey_sp(
          compiled(), options_.sp.probabilities, result.dirty, *sp_);
      ++inc_stats_.sp_incremental;
    } else {
      sp_.reset();
      sp_diagnostics_.reset();
    }
  }

  // Accumulate the dirty frontier for the next read's reconcile.
  pending_seeds_.insert(pending_seeds_.end(), result.dirty.begin(),
                        result.dirty.end());
  pending_sp_changed_.insert(pending_sp_changed_.end(), sp_changed.begin(),
                             sp_changed.end());
  pending_structural_ |= result.structure_changed;
  if (sp_ == nullptr) drop_table();  // non-PM source was dropped

  // Engines carry per-node scratch and bind the (possibly replaced) compiled
  // view. Both are cheap to rebuild next to any cone re-sweep.
  engine_.reset();
  multicycle_.reset();
  if (!result.inserted.empty()) sites_.reset();
  return result;
}

void Session::reconcile_table() {
  if (pending_seeds_.empty()) return;
  if (!table_filled_) {
    drop_table();  // nothing to splice into — the next fill sweeps it all
    return;
  }
  // The frontier (see src/epp/incremental.hpp): structural batches need the
  // downstream closure — topological ranks may have moved anywhere below the
  // edit; retype-only batches need the dirty set plus the SP delta P and
  // fanout(P) (an SP change reaches a site on-path or as an off-path fanin).
  std::vector<NodeId> frontier;
  if (pending_structural_) {
    frontier = downstream_closure(compiled(), pending_seeds_);
  } else {
    frontier = pending_seeds_;
    for (NodeId p : pending_sp_changed_) {
      frontier.push_back(p);
      const std::span<const NodeId> consumers = compiled().fanout(p);
      frontier.insert(frontier.end(), consumers.begin(), consumers.end());
    }
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
  }
  pending_seeds_.clear();
  pending_sp_changed_.clear();
  pending_structural_ = false;

  const std::span<const NodeId> all = sites();
  const ConeClusterPlanner* bloom =
      planner_cache_ != nullptr && planner_cache_->planner != nullptr
          ? planner_cache_->planner.get()
          : nullptr;
  const std::vector<std::uint8_t> mask =
      affected_site_mask(compiled(), frontier, all, bloom);

  // Inserted sites land past the table's end with mask 1 (they are their
  // own frontier); the explicit bound check covers them regardless.
  std::vector<NodeId> affected;
  std::vector<std::size_t> affected_idx;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (mask[i] != 0 || i >= table_.nodes.size()) {
      affected_idx.push_back(i);
      affected.push_back(all[i]);
    }
  }
  ++inc_stats_.spliced_sweeps;
  inc_stats_.resweeped_sites += affected.size();
  inc_stats_.spliced_sites += all.size() - affected.size();
  if (affected.empty()) return;

  // Re-sweep ONLY the affected sites' rows through the session's own engine
  // (site subsets are bit-identical to the matching slice of a full sweep —
  // pinned by the engine-equivalence suite) and write them over their rows.
  table_.nodes.resize(all.size());
  const std::vector<NodeSer> fresh =
      engine().sweep_rows(affected, options_.threads);
  for (std::size_t k = 0; k < affected_idx.size(); ++k) {
    table_.nodes[affected_idx[k]] = fresh[k];
  }
  sum_ser();
}

void Session::fill_table() {
  reconcile_table();
  if (table_filled_) return;
  table_.nodes = engine().sweep_rows(sites(), options_.threads);
  sum_ser();
  table_filled_ = true;
  ++counts_->ser;
}

void Session::sum_ser() {
  table_.total_ser = 0.0;
  for (const NodeSer& row : table_.nodes) table_.total_ser += row.ser;
}

const CompiledCircuit& Session::compiled() {
  if (compiled_ == nullptr) {
    compiled_ = std::make_unique<CompiledCircuit>(*circuit_);
    ++counts_->compiled;
  }
  return *compiled_;
}

const SignalProbabilities& Session::sp() {
  if (sp_ == nullptr) {
    SignalProbabilities built;
    switch (options_.sp.source) {
      case SpSource::kParkerMcCluskey:
        built = compiled_parker_mccluskey_sp(compiled(),
                                             options_.sp.probabilities);
        break;
      case SpSource::kSequentialFixedPoint: {
        SequentialSpResult result =
            sequential_fixed_point_sp(*circuit_, options_.sp.probabilities);
        sp_diagnostics_ = SpDiagnostics{.iterations = result.iterations,
                                        .residual = result.residual,
                                        .converged = result.converged};
        built = std::move(result.sp);
        break;
      }
      case SpSource::kMonteCarlo:
        built = monte_carlo_sp(*circuit_, options_.sp.monte_carlo_vectors);
        break;
    }
    sp_ = std::make_unique<SignalProbabilities>(std::move(built));
    ++counts_->sp;
  }
  return *sp_;
}

Session::PlannerCache& Session::planner_cache() {
  if (planner_cache_ == nullptr) {
    planner_cache_ = std::make_unique<PlannerCache>();
    planner_cache_->compiled = &compiled();
    planner_cache_->counts = counts_.get();
  }
  return *planner_cache_;
}

const ConeClusterPlanner& Session::planner() { return planner_cache().get(); }

IEppEngine& Session::engine() {
  if (engine_ == nullptr) {
    EngineContext context;
    context.circuit = circuit_.get();
    context.compiled = &compiled();
    context.sp = &sp();
    // Sweep-capable engines get a DEFERRED handle on the session's plan:
    // built on their first sweep, shared and memoized after that, never
    // built for per-site-only workloads. Sequential engines get nothing.
    if (EngineRegistry::instance().caps(options_.engine).threads) {
      context.planner_source = [cache = &planner_cache()] {
        return &cache->get();
      };
    }
    context.epp = options_.epp;
    context.ser = options_.ser;
    context.shard = options_.shard;
    engine_ = EngineRegistry::instance().create(options_.engine, context);
    ++counts_->engine;
  }
  return *engine_;
}

std::span<const NodeId> Session::sites() {
  if (!sites_.has_value()) sites_ = error_sites(*circuit_);
  return *sites_;
}

std::optional<NodeId> Session::find(std::string_view name) const {
  return circuit_->find(name);
}

SiteEpp Session::epp(NodeId site) {
  return engine().compute(site);
}

double Session::p_sensitized(NodeId site) {
  return engine().p_sensitized(site);
}

std::vector<SiteEpp> Session::sweep() {
  reconcile_table();
  std::vector<SiteEpp> records = engine().sweep(sites(), options_.threads);
  if (!table_filled_) {
    table_.nodes.resize(records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      table_.nodes[i] = node_ser_from_epp(*circuit_, records[i],
                                          options_.ser.seu,
                                          options_.ser.latching);
    }
    sum_ser();
    table_filled_ = true;
    ++counts_->ser;
  }
  return records;
}

std::vector<double> Session::sweep_p_sensitized() {
  fill_table();
  std::vector<double> out(circuit_->node_count(), 0.0);
  for (const NodeSer& row : table_.nodes) out[row.node] = row.p_sensitized;
  return out;
}

const CircuitSer& Session::ser() {
  fill_table();
  return table_;
}

HardeningPlan Session::harden(double target_reduction) {
  return select_hardening(ser(), target_reduction);
}

MultiCycleEpp Session::multicycle(NodeId site, std::size_t cycles) {
  if (multicycle_ == nullptr) {
    multicycle_ = std::make_unique<MultiCycleEppEngine>(
        *circuit_, compiled(), sp(), options_.epp, options_.threads,
        &planner());
    ++counts_->multicycle;
  }
  return multicycle_->compute(site, cycles);
}

std::string Session::sweep_csv() {
  fill_table();
  // Bytes per row: a name, a type and one round-trip double (<= 24 chars).
  CsvWriter csv({"node", "type", "p_sensitized"}, table_.nodes.size() * 48);
  for (const NodeSer& row : table_.nodes) {
    csv.cell(circuit_->node(row.node).name)
        .cell(gate_type_name(circuit_->type(row.node)))
        .cell(row.p_sensitized)
        .end_row();
  }
  return std::move(csv).str();
}

std::string Session::ser_csv() {
  const CircuitSer& circuit_ser = ser();
  CsvWriter csv({"node", "type", "r_seu", "p_latched", "p_sensitized", "ser"},
                circuit_ser.nodes.size() * 112);
  for (const NodeSer& n : circuit_ser.nodes) {
    csv.cell(circuit_->node(n.node).name)
        .cell(gate_type_name(circuit_->type(n.node)))
        .cell(n.r_seu)
        .cell(n.p_latched)
        .cell(n.p_sensitized)
        .cell(n.ser)
        .end_row();
  }
  return std::move(csv).str();
}

std::string Session::harden_text(double target_reduction) {
  return harden_plan_text(*circuit_, harden(target_reduction),
                          target_reduction);
}

std::string harden_plan_text(const Circuit& circuit, const HardeningPlan& plan,
                             double target_reduction) {
  char head[128];
  std::snprintf(head, sizeof head,
                "protect %zu nodes for a %.0f%% reduction (achieved %.1f%%):\n",
                plan.protect.size(), 100 * target_reduction,
                100 * plan.reduction());
  std::string out = head;
  for (NodeId id : plan.protect) {
    out += "  ";
    out += circuit.node(id).name;
    out += "\n";
  }
  return out;
}

}  // namespace sereep
