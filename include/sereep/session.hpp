// sereep public API — the Session facade.
//
// A Session owns one finalized Circuit plus one Options value, and serves
// every analysis the library offers — per-site EPP, full sweeps, SER
// estimation, hardening selection, multi-cycle propagation — from shared,
// lazily-built artifacts:
//
//   CompiledCircuit      flat-CSR kernel view          built on first need
//   SignalProbabilities  SP assignment (Options-selected source)    "
//   ConeClusterPlanner   cone-sharing sweep plan                    "
//   IEppEngine           the Options-selected engine (registry)     "
//
// Each artifact is built AT MOST ONCE per (Session, Options) and memoized;
// sweep() + ser() + harden() on one session share one flatten, one SP pass
// and one cluster plan (the caching contract is pinned by
// tests/api/session_test.cpp through build_counts(), and documented in
// tests/README.md). set_options() invalidates exactly the artifacts the
// changed layers feed — see the table there.
//
// Results live in ONE per-site table per circuit generation: a full NodeSer
// row per site (P_sensitized and the SER terms). Reads come from the table —
// sweep_p_sensitized(), sweep_csv(), ser(), ser_csv(), harden() and
// harden_text() fill an empty table with ONE engine rows sweep, which folds
// the latching term beside P_sensitized in the sweep itself. Records come
// from the engine — sweep() re-runs it on every call, so per-sweep
// diagnostics stay honest, and folds them into an empty table.
//
// Sessions are movable (artifacts live behind stable pointers) but not
// copyable, and are NOT thread-safe: one session per thread, or external
// synchronization. Internal sweep parallelism (Options::threads) is safe and
// bit-identical at any thread count.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sereep/engine.hpp"
#include "sereep/options.hpp"
#include "src/epp/multicycle.hpp"
#include "src/epp/sharded_epp.hpp"
#include "src/netlist/circuit_edit.hpp"
#include "src/ser/ser_estimator.hpp"

namespace sereep {

class ArtifactView;

/// Loads a netlist the way every sereep front end spells it: an embedded
/// circuit name (c17, s27, s953, ...), a compiled-artifact path (*.sca,
/// mapped and restored from the file as it is now), a structural-Verilog
/// path (*.v), or an ISCAS .bench path (anything else). Throws
/// std::runtime_error with the parser's message on failure.
[[nodiscard]] Circuit load_netlist(const std::string& spec);

/// The facade. See the file comment for the ownership and caching model.
class Session {
 public:
  /// Build counters behind the caching contract: how many times each shared
  /// artifact has been constructed over the session's lifetime. After any
  /// call sequence with unchanged Options and no apply_edit(), every field
  /// is 0 or 1 (structural edits re-flatten, so `compiled` counts each).
  struct BuildCounts {
    std::size_t compiled = 0;
    std::size_t sp = 0;
    std::size_t planner = 0;
    std::size_t engine = 0;
    std::size_t multicycle = 0;
    std::size_t ser = 0;  ///< result-table fills (rows sweep or sweep())
  };

  /// Convergence diagnostics of the kSequentialFixedPoint SP source —
  /// callers must be able to see a fixed point that hit the iteration cap
  /// (unconverged SPs silently feeding SER numbers would look
  /// authoritative).
  struct SpDiagnostics {
    std::size_t iterations = 0;
    double residual = 0.0;
    bool converged = true;
  };

  /// Takes ownership of a finalized circuit. Validates `options` (throws
  /// std::invalid_argument, e.g. unknown engine keys list the registered
  /// ones). No artifact is built yet — construction is cheap.
  explicit Session(Circuit circuit, Options options = {});

  /// load_netlist() + Session in one step — the CLI / quickstart route.
  /// A `.sca` spec is mapped by this session: the compiled view is borrowed
  /// zero-copy from the mapping, the SP table and cluster plan are built
  /// from it on first need like any session's, and artifact_fingerprint()
  /// records which artifact this session serves. The file is read as it is
  /// at the call: a rewritten path opens the new circuit.
  [[nodiscard]] static Session open(const std::string& spec,
                                    Options options = {});

  Session(Session&&) noexcept;
  Session& operator=(Session&&) noexcept;
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] const Circuit& circuit() const noexcept { return *circuit_; }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

  /// Re-configures the session, validating first. Memoized artifacts are
  /// invalidated selectively: only what the changed layers feed is dropped
  /// (e.g. a new engine key drops the engine + result table but keeps the
  /// compiled view, SPs and cluster plan). See tests/README.md.
  void set_options(Options options);

  // ---- incremental what-if loop --------------------------------------------

  /// Counters behind the incremental-edit contract: how much of each layer
  /// the dirty-cone machinery actually reused. Tests pin these to prove the
  /// fast path ran; `sereep serve` reports them per kEdit reply.
  struct IncrementalStats {
    std::size_t edits = 0;            ///< apply_edit() batches applied
    std::size_t compiled_patched = 0; ///< in-place CSR type patches (no re-flatten)
    std::size_t sp_incremental = 0;   ///< SP tables repaired in place
    std::size_t spliced_sweeps = 0;   ///< table reconciliations that spliced
    std::size_t resweeped_sites = 0;  ///< sites recomputed across splices
    std::size_t spliced_sites = 0;    ///< table rows reused across splices
  };

  /// Applies an edit batch to the session's circuit and repairs the cached
  /// artifacts incrementally instead of rebuilding them:
  ///   * compiled view — patched in place for retype-only batches (owned
  ///     arrays), re-flattened otherwise; the fingerprint the sharded
  ///     dispatcher and serve daemon key on follows the edited circuit.
  ///   * SP table — repaired by incremental_parker_mccluskey_sp when the
  ///     source is kParkerMcCluskey (dropped wholesale for other sources).
  ///   * result table — the batch's dirty cone is accumulated; the next read
  ///     re-sweeps exactly the affected sites (src/epp/incremental.hpp), once,
  ///     and splices them over their rows, bit-identical to a from-scratch
  ///     rebuild + full sweep (pinned by tests/epp/engine_equivalence_test.cpp's
  ///     edit fuzz).
  /// A session opened from a .sca artifact drops the artifact fingerprint
  /// on its first edit and re-flattens its borrowed view. A sharded session
  /// keeps fanning out: each sweep's local fleet maps an artifact of the
  /// edited circuit. Remote `shard.hosts` serve the netlist they were
  /// started on, so with hosts the first edit sets shard.shards to 1 and
  /// the session sweeps in-process from then on.
  /// Batches are all-or-nothing: an invalid op throws std::runtime_error with
  /// the circuit, every artifact and every result exactly as before the call.
  EditResult apply_edit(const EditPlan& plan);

  [[nodiscard]] const IncrementalStats& incremental_stats() const noexcept {
    return inc_stats_;
  }

  // ---- shared artifacts (lazily built, memoized) ---------------------------

  [[nodiscard]] const CompiledCircuit& compiled();
  [[nodiscard]] const SignalProbabilities& sp();
  /// Fixed-point convergence info once sp() has been built from the
  /// kSequentialFixedPoint source; nullopt before that and for every other
  /// source.
  [[nodiscard]] const std::optional<SpDiagnostics>& sp_diagnostics()
      const noexcept {
    return sp_diagnostics_;
  }
  /// The sharded engine's last-sweep record (shard layout, worker count,
  /// whether it ran in-process) — non-null only when the session's
  /// engine is the sharded tier and has been built. Worker FAILURES are
  /// exceptions from the sweep itself, carrying the shard index and exit
  /// status; this accessor is for verifying that healthy table fills
  /// really fan out.
  [[nodiscard]] const ShardedEppEngine::Diagnostics* shard_diagnostics()
      const noexcept;
  /// NOTE: sweeps consult the plan lazily — batched-engine sessions running
  /// only per-site queries never pay for it; calling this forces the build.
  [[nodiscard]] const ConeClusterPlanner& planner();
  /// The Options-selected engine, resolved through EngineRegistry.
  [[nodiscard]] IEppEngine& engine();
  /// All error sites of the circuit, in error_sites() order.
  [[nodiscard]] std::span<const NodeId> sites();

  // ---- queries -------------------------------------------------------------

  [[nodiscard]] std::optional<NodeId> find(std::string_view name) const;

  /// Full per-site EPP record (cone metadata, per-sink distributions).
  [[nodiscard]] SiteEpp epp(NodeId site);

  /// P_sensitized of one site — the fastest per-site query.
  [[nodiscard]] double p_sensitized(NodeId site);

  /// Full SiteEpp records for every error site, in sites() order, from the
  /// engine's records sweep on every call. An empty result table is filled
  /// from them (node_ser_from_epp), so a ser() after a sweep() sweeps
  /// nothing. A sharded session computes records in-process (its
  /// shard_diagnostics() reads in_process, no worker starts): only table
  /// fills fan out — to re-run one on a warm session, call
  /// engine().sweep_rows(sites(), threads).
  [[nodiscard]] std::vector<SiteEpp> sweep();

  /// All-nodes P_sensitized, indexed by NodeId (non-sites 0.0), from the
  /// result table (one rows sweep fills an empty one — SER terms included,
  /// so a later ser() sweeps nothing).
  [[nodiscard]] std::vector<double> sweep_p_sensitized();

  /// Whole-circuit SER with the SER-layer models of Options: the result
  /// table itself, one row per site in sites() order (every read shares one
  /// sweep). An empty table is filled by one engine rows sweep, which folds
  /// the latching term in the sweep and keeps no per-sink records, so peak
  /// memory is O(sites). The reference stays valid until the session is
  /// moved or destroyed; edits update it in place on the next read.
  [[nodiscard]] const CircuitSer& ser();

  /// Greedy hardening selection over ser().
  [[nodiscard]] HardeningPlan harden(double target_reduction);

  /// Multi-cycle detection profile of one site (the engine behind it is
  /// memoized and reuses the session's compiled view + SPs).
  [[nodiscard]] MultiCycleEpp multicycle(NodeId site, std::size_t cycles);

  // ---- canonical text renderings ------------------------------------------
  // The exact bytes the CLI emits and the golden-file tests (tests/cli/)
  // pin. Probabilities print at round-trip precision (%.17g); every engine
  // selection produces identical text (bit-for-bit contract).

  /// One row per error site: node,type,p_sensitized.
  [[nodiscard]] std::string sweep_csv();

  /// One row per error site: node,type,r_seu,p_latched,p_sensitized,ser.
  [[nodiscard]] std::string ser_csv();

  /// The hardening-plan text `sereep harden` prints — harden_plan_text()
  /// over harden(target_reduction).
  [[nodiscard]] std::string harden_text(double target_reduction);

  [[nodiscard]] const BuildCounts& build_counts() const noexcept {
    return *counts_;
  }

  /// The fingerprint of the .sca artifact this session was opened from;
  /// nullopt for every other netlist source. This is the identity the serve
  /// daemon keys its session cache on and the sharded dispatcher verifies
  /// against its workers before any result is trusted.
  [[nodiscard]] const std::optional<CircuitFingerprint>& artifact_fingerprint()
      const noexcept {
    return artifact_fingerprint_;
  }

 private:
  /// Lazily-built cluster plan behind a stable address, so engines can hold
  /// a deferred handle to it that survives Session moves (defined in
  /// session.cpp).
  struct PlannerCache;

  /// The planner cache, created (not built) on demand.
  PlannerCache& planner_cache();

  /// Records a validated artifact's fingerprint and borrows its compiled
  /// view zero-copy.
  void adopt_artifact(std::unique_ptr<const ArtifactView> artifact);

  /// Drops the result table and any pending dirty frontier — the fallback
  /// for invalidations the dirty-cone machinery cannot scope.
  void drop_table();

  /// Drains the pending dirty frontier into the result table: computes the
  /// exact affected-site mask on the edited compiled view, re-sweeps only
  /// those sites' rows (one engine rows sweep) and splices the other rows
  /// through.
  void reconcile_table();

  /// Reconciles the table, then fills it with one engine rows sweep when it
  /// is empty.
  void fill_table();

  /// Re-sums total_ser over the rows in site order — the order every fill
  /// has summed in, so a total is bit-identical however its rows were filled.
  void sum_ser();

  /// Mutable only through apply_edit(); stable address across moves.
  std::unique_ptr<Circuit> circuit_;
  /// Keeps the mmapped artifact alive for as long as compiled_ borrows its
  /// arrays — declared before compiled_ so it is destroyed after it.
  std::unique_ptr<const ArtifactView> artifact_;
  std::optional<CircuitFingerprint> artifact_fingerprint_;
  Options options_;
  std::unique_ptr<BuildCounts> counts_;  ///< stable: the planner cache and
                                         ///< engines reference it

  // Memoized artifacts; unique_ptr keeps addresses stable across Session
  // moves (engines hold references into their context). compiled_ and sp_
  // are non-const so apply_edit() can patch them in place — every accessor
  // still hands out const views.
  std::unique_ptr<CompiledCircuit> compiled_;
  std::unique_ptr<SignalProbabilities> sp_;
  std::optional<SpDiagnostics> sp_diagnostics_;
  std::unique_ptr<PlannerCache> planner_cache_;
  std::unique_ptr<IEppEngine> engine_;
  std::unique_ptr<MultiCycleEppEngine> multicycle_;
  std::optional<std::vector<NodeId>> sites_;

  // ---- the result table (reads, sweep() folds, apply_edit splices) ---------
  // Once filled, one full NodeSer row per site in sites() order plus
  // total_ser. The rows are pure functions of (circuit, SP, options). Inserted
  // nodes only ever append to sites(), so after an edit the table stays an
  // aligned prefix until the next read reconciles it; the pending frontier
  // accumulates dirty sets across edits until then.
  CircuitSer table_;
  bool table_filled_ = false;
  std::vector<NodeId> pending_seeds_;       ///< union of dirty sets
  std::vector<NodeId> pending_sp_changed_;  ///< union of bitwise-SP deltas
  bool pending_structural_ = false;
  IncrementalStats inc_stats_;
};

/// Renders a hardening plan as the canonical text Session::harden_text()
/// returns and `sereep harden` prints (golden-pinned) — for callers that
/// already hold the plan and must not recompute the selection.
[[nodiscard]] std::string harden_plan_text(const Circuit& circuit,
                                           const HardeningPlan& plan,
                                           double target_reduction);

}  // namespace sereep
