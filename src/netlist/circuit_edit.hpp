// Post-finalize circuit editing — the what-if loop's entry point.
//
// Every mutating workflow (selective TMR hardening, ECO gate swaps, fanin
// rewires) used to rebuild the Circuit from scratch: the add_* API throws
// after finalize(), so a one-gate change paid a full reconstruction, a full
// re-flatten, a full SP pass and a full sweep. EditBatch is the narrow
// mutation channel that replaces that: obtained from Circuit::edit(), it
// applies a batch of validated edits to a FINALIZED circuit in place,
// re-derives the frozen indexes (sources/sinks/topo order/levels) exactly
// the way finalize() does, and reports the dirty node set so downstream
// layers (CompiledCircuit patching, incremental SP, the Session's
// dirty-cone re-sweep) can invalidate O(touched cones) instead of
// everything.
//
// Determinism contract: after commit(), the edited circuit is
// INDISTINGUISHABLE from Circuit::restore() over the same node table — the
// reindex runs the same Kahn pass over the same adjacency, so topo order,
// levels, and every float produced downstream are bit-identical to a
// from-scratch rebuild (pinned by tests/netlist/edit_test.cpp and the
// engine-equivalence edit fuzz).
//
// Ops validate eagerly (throwing std::runtime_error with the offending op
// named) and apply eagerly; commit() performs one reindex for the whole
// batch and returns the EditResult. A batch abandoned without commit()
// still reindexes in its destructor — the circuit is never left with stale
// frozen indexes — but the dirty set is lost, so callers that care (all of
// them) must commit().
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/netlist/circuit.hpp"

namespace sereep {

/// What a committed batch touched — the seed of every downstream
/// invalidation.
struct EditResult {
  /// Nodes whose function or local structure changed: retyped gates, rewired
  /// gates, inserted gates, and every consumer whose fanin list was redirected
  /// (TMR voter splice). Sorted ascending, unique.
  std::vector<NodeId> dirty;
  /// Nodes appended by insert_gate/protect_tmr (a subset of `dirty`), in
  /// insertion order. Non-empty implies the node count grew.
  std::vector<NodeId> inserted;
  /// False only when every op was a retype — the one edit class that
  /// preserves the adjacency arrays (and therefore the compiled CSR layout).
  bool structure_changed = false;
};

/// One in-flight edit batch over a finalized Circuit (see file comment).
/// Move-only; at most one live batch per circuit at a time.
class EditBatch {
 public:
  EditBatch(EditBatch&& other) noexcept;
  EditBatch& operator=(EditBatch&&) = delete;
  EditBatch(const EditBatch&) = delete;
  EditBatch& operator=(const EditBatch&) = delete;
  ~EditBatch();

  /// Changes a combinational gate's type. The new type must be combinational
  /// and accept the gate's current fanin count.
  void retype(NodeId gate, GateType type);

  /// Redirects one fanin slot of a gate (or a DFF's D pin) to a different
  /// existing node. Rejects edits that would create a combinational cycle.
  void rewire_fanin(NodeId gate, std::size_t slot, NodeId new_source);

  /// Appends a new combinational gate over existing nodes. The gate starts
  /// with no consumers (rewire_fanin splices it in) — a dangling gate is a
  /// legal, merely unobservable, error site.
  NodeId insert_gate(GateType type, std::string name,
                     std::vector<NodeId> fanin);

  /// Protects a combinational gate with triple modular redundancy in place:
  /// two extra copies plus the same 2-level AND/OR majority voter
  /// apply_tmr() builds, with every pre-existing consumer (and primary-output
  /// flag) moved onto the voter. Returns the voter's NodeId.
  NodeId protect_tmr(NodeId gate);

  /// Reindexes the circuit (one Kahn pass for the whole batch) and returns
  /// what changed. The batch is spent afterwards; further ops throw.
  EditResult commit();

 private:
  friend class Circuit;
  explicit EditBatch(Circuit& circuit) : circuit_(&circuit) {}

  void require_open(const char* op) const;
  void mark_dirty(NodeId id);

  Circuit* circuit_ = nullptr;  ///< null once committed/moved-from
  EditResult result_;
  std::vector<std::uint8_t> dirty_flag_;  ///< lazily sized, dedups `dirty`
};

// ---- serializable edit plans ----------------------------------------------
// The name-based value form of a batch: what `sereep client --edit` ships
// over the wire (serve kEdit) and what the CLI parses. Ops reference nodes
// by NAME so a plan is meaningful to any process holding the same netlist.

/// One name-based edit op.
struct EditOp {
  enum class Kind : std::uint8_t {
    kRetype = 1,  ///< retype <node> <TYPE>
    kRewire = 2,  ///< rewire <gate> <slot> <source>
    kInsert = 3,  ///< insert <TYPE> <name> <fanin...>
    kTmr = 4,     ///< tmr <gate>
  };
  Kind kind = Kind::kRetype;
  std::string node;    ///< target gate name (retype / rewire / tmr)
  GateType type = GateType::kAnd;  ///< retype / insert
  std::uint32_t slot = 0;          ///< rewire
  std::string source;              ///< rewire: new source name
  std::string name;                ///< insert: new gate name
  std::vector<std::string> fanin;  ///< insert: fanin names
};

/// A sequence of ops applied as one batch.
struct EditPlan {
  std::vector<EditOp> ops;
};

/// Parses the CLI/wire text form: ops separated by ';' or newlines, each
///   retype <node> <TYPE>
///   rewire <gate> <slot> <source>
///   insert <TYPE> <name> <fanin> [<fanin> ...]
///   tmr <gate>
/// Throws std::runtime_error naming the malformed op. The empty spec is an
/// error (an edit request that edits nothing is a caller bug).
[[nodiscard]] EditPlan parse_edit_spec(std::string_view spec);

/// The canonical text rendering parse_edit_spec() accepts (ops joined with
/// "; ") — the wire form and the round-trip pin.
[[nodiscard]] std::string to_string(const EditPlan& plan);

/// Resolves names and applies `plan` to a finalized circuit as one
/// EditBatch, all or nothing. Throws std::runtime_error on unknown names or
/// invalid ops with the circuit restored to its pre-batch state (a copy
/// taken up front), so a failed plan can be fixed and resent.
EditResult apply_edit_plan(Circuit& circuit, const EditPlan& plan);

}  // namespace sereep
