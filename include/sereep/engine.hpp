// sereep public API — the EPP engine strategy interface and its registry.
//
// The engine tiers (reference / compiled / batched — the oracle hierarchy of
// tests/README.md — plus sharded, which fans batched sweeps out to worker
// processes) share one arithmetic contract but different construction
// signatures; before this interface every consumer hard-wired one of them
// through #includes. IEppEngine erases that difference behind a uniform
// per-site + sweep surface (two sweeps: full records, and the result
// table's rows with the SER terms folded in the same pass), and
// EngineRegistry makes the selection DATA: a string key resolved at
// runtime, so the CLI's --engine flag, the benches' A/B loops and the
// equivalence fuzz all pick engines the same way, and new engines join by
// registering a factory — no call-site edits.
//
// Bit-for-bit contract: every registered built-in produces results exactly
// equal (EXPECT_EQ on doubles, no tolerance) to direct construction of the
// underlying engine; tests/api/engine_registry_test.cpp pins this.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sereep/options.hpp"
#include "src/epp/epp_engine.hpp"
#include "src/netlist/circuit.hpp"
#include "src/netlist/compiled.hpp"
#include "src/netlist/cone_cluster.hpp"
#include "src/ser/ser_estimator.hpp"
#include "src/sigprob/signal_prob.hpp"

namespace sereep {

/// Everything an engine factory may bind to. All pointers outlive the
/// created engine (the Session owns them; direct users must guarantee the
/// same). `ser` binds the SER models the rows sweep folds in. The cluster
/// plan feeds batched sweeps only and can arrive two ways: `planner`
/// (already built), or `planner_source` (a callable the engine invokes ON
/// FIRST SWEEP — a session's per-site-only workloads never pay the O(V+E)
/// planning pass). Both null/empty: sweep-capable engines build a private
/// plan on their first sweep and keep it.
struct EngineContext {
  const Circuit* circuit = nullptr;          ///< required
  const CompiledCircuit* compiled = nullptr; ///< required
  const SignalProbabilities* sp = nullptr;   ///< required
  const ConeClusterPlanner* planner = nullptr;  ///< optional (batched sweeps)
  std::function<const ConeClusterPlanner*()> planner_source;  ///< lazy form
  EppOptions epp;                            ///< EPP-layer options
  SerLayerOptions ser;                       ///< SER models (rows sweeps)
  ShardOptions shard;                        ///< sharded-engine layer
};

/// Static capability flags, declared once, at registration (EngineRegistry::
/// caps reads them), so callers can pick engines by property ("fastest
/// multi-threaded engine") instead of by name, and so help text / errors
/// can describe what a key buys.
struct EngineCaps {
  /// Sweeps honour a thread count (engines without it run sequentially).
  bool threads = false;
  /// Has lane-plane SIMD kernels (run when EppOptions::simd is set).
  bool simd = false;
  /// Sweeps fan out across worker PROCESSES (the sharded tier) — needs TCP
  /// hosts, or a worker binary + a loadable netlist spec (ShardOptions).
  bool processes = false;
};

/// Uniform EPP engine surface: per-site queries plus two explicit-site-list
/// sweeps — full records, and the rows a Session's result table holds. One
/// instance per thread of external parallelism (engines own per-site
/// scratch); sweeps manage their own internal parallelism where the
/// capability allows.
class IEppEngine {
 public:
  virtual ~IEppEngine() = default;

  /// Full three-step computation for one error site.
  [[nodiscard]] virtual SiteEpp compute(NodeId site) = 0;

  /// P_sensitized only — the fastest per-site path.
  [[nodiscard]] virtual double p_sensitized(NodeId site) = 0;

  /// Full SiteEpp records for an explicit site list; out[i] for sites[i].
  /// `threads` follows the Options convention (1 sequential, 0 = hardware
  /// concurrency); ignored without the `threads` capability.
  [[nodiscard]] virtual std::vector<SiteEpp> sweep(
      std::span<const NodeId> sites, unsigned threads) = 0;

  /// The result-table rows for an explicit site list; out[i] for sites[i]:
  /// P_sensitized and the SER terms of the context's SER models, folded in
  /// the sweep itself (no per-sink records). Every field is bit-identical to
  /// node_ser_from_epp over compute(sites[i]). `threads` as for sweep().
  [[nodiscard]] virtual std::vector<NodeSer> sweep_rows(
      std::span<const NodeId> sites, unsigned threads) = 0;
};

/// String-keyed engine registry. The built-ins ("reference", "compiled",
/// "batched", "sharded") self-register when the library is linked; anything
/// else can be added at runtime through add() (e.g. an experimental tier in
/// a bench, a remote backend in a service build). Keys are unique; lookups
/// are case-sensitive. Not thread-safe for concurrent mutation — register
/// engines at startup, resolve freely afterwards.
class EngineRegistry {
 public:
  using Factory = std::function<std::unique_ptr<IEppEngine>(
      const EngineContext&)>;

  /// The process-wide registry (built-ins pre-registered).
  [[nodiscard]] static EngineRegistry& instance();

  /// Registers a new engine; returns false (and changes nothing) if the key
  /// is already taken.
  bool add(std::string name, EngineCaps caps, Factory factory);

  [[nodiscard]] bool contains(std::string_view name) const;

  /// Registered keys, sorted — the vocabulary error messages and --help
  /// print.
  [[nodiscard]] std::vector<std::string> names() const;

  /// One "a, b, c" line of names(), for error messages.
  [[nodiscard]] std::string names_joined() const;

  /// Capability flags of a registered engine (throws std::invalid_argument
  /// listing the registered keys when unknown).
  [[nodiscard]] EngineCaps caps(std::string_view name) const;

  /// Creates an engine. `context.circuit/compiled/sp` must be set and
  /// outlive the result. Throws std::invalid_argument listing the
  /// registered keys when the name is unknown.
  [[nodiscard]] std::unique_ptr<IEppEngine> create(
      std::string_view name, const EngineContext& context) const;

 private:
  struct Entry {
    std::string name;
    EngineCaps caps;
    Factory factory;
  };
  [[nodiscard]] const Entry* find(std::string_view name) const;

  std::vector<Entry> entries_;  ///< registration order; names() sorts
};

}  // namespace sereep
