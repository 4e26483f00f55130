// Gate-level circuit graph.
//
// A Circuit is a DAG of nodes; each node is a gate whose single output net is
// identified with the node itself (the .bench convention). Sequential
// circuits contain DFF nodes; every analysis in sereep uses the full-scan
// view the paper uses: a DFF's output is a pseudo-primary-input (a
// combinational *source*) and its D pin is a pseudo-primary-output (a
// combinational *sink*), so the combinational core is acyclic even when the
// sequential circuit has feedback loops.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/netlist/gate.hpp"

namespace sereep {

class EditBatch;

/// Dense node identifier; indexes into Circuit's node arrays.
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);

/// One gate instance. `fanin`/`fanout` reference other nodes by id.
struct Node {
  GateType type = GateType::kInput;
  std::string name;
  std::vector<NodeId> fanin;
  std::vector<NodeId> fanout;
  bool is_primary_output = false;
};

/// Mutable gate-level netlist.
///
/// Construction protocol: add nodes (add_input / add_gate / add_dff /
/// add_const), mark primary outputs, then call finalize(). finalize()
/// validates arities and acyclicity of the combinational core and freezes
/// the derived index lists (inputs(), outputs(), dffs(), sources(), sinks()).
class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::string name) : name_(std::move(name)) {}

  // ---- construction -----------------------------------------------------

  /// Capacity hint: room for `nodes` nodes and their names, so a loader that
  /// knows its node count adds them without regrowing either table.
  void reserve(std::size_t nodes);

  /// Adds a primary input. Name must be unique.
  NodeId add_input(std::string name);

  /// Adds a combinational gate over existing fanin nodes. Every add_*
  /// validates its name and fanins before it changes anything, so one that
  /// throws leaves the circuit as it was.
  NodeId add_gate(GateType type, std::string name,
                  std::vector<NodeId> fanin);

  /// Adds a D flip-flop with data input `d`.
  NodeId add_dff(std::string name, NodeId d);

  /// Adds a D flip-flop whose data input will be connected later with
  /// connect_dff(). Sequential feedback loops make forward references
  /// unavoidable when loading netlists, so DFFs may be created before the
  /// logic that feeds them.
  NodeId add_dff_placeholder(std::string name);

  /// Connects the D input of a placeholder flip-flop. Must be called exactly
  /// once per placeholder before finalize().
  void connect_dff(NodeId dff, NodeId d);

  /// Adds a constant node.
  NodeId add_const(std::string name, bool value);

  /// Flags an existing node as a primary output.
  void mark_output(NodeId id);

  /// Rewires one fanin slot (used by the generator's fixups). Call before
  /// finalize().
  void replace_fanin(NodeId gate, std::size_t slot, NodeId new_source);

  /// Appends an extra fanin to an n-ary gate (AND/OR/NAND/NOR/XOR/XNOR).
  /// Used by the generator to give dangling gates an observer. The source
  /// must precede the gate (keeps construction acyclic by construction).
  void append_fanin(NodeId gate, NodeId source);

  /// Validates the netlist and freezes derived indexes. Throws
  /// std::runtime_error with a diagnostic on malformed input (bad arity,
  /// combinational cycle, dangling reference).
  void finalize();

  /// Rebuilds a finalized circuit from a complete node table (the .sca
  /// artifact loader's entry point). The nodes arrive with BOTH adjacency
  /// sides populated and are installed verbatim — fanout order is an input
  /// here, not derived, because compute_topo_order() drains a LIFO over the
  /// fanout arrays and the engines' summation order follows the resulting
  /// topo order; re-deriving fanouts could legally permute them and shift
  /// float results. restore() therefore cross-checks the two sides as an
  /// edge multiset, requires is_primary_output to be delivered via
  /// `output_order` (marking order is observable through outputs()), and
  /// runs the full finalize() validation on the result. Throws
  /// std::runtime_error on any inconsistency.
  [[nodiscard]] static Circuit restore(std::string name,
                                       std::vector<Node> nodes,
                                       std::span<const NodeId> output_order);

  // ---- post-finalize editing ----------------------------------------------

  /// Opens an edit batch over a FINALIZED circuit (the what-if loop's
  /// mutation channel — see src/netlist/circuit_edit.hpp). Ops apply
  /// eagerly; EditBatch::commit() re-derives the frozen indexes exactly as
  /// finalize() would and reports the dirty node set. The construction-time
  /// add_* API stays finalize()-only.
  [[nodiscard]] EditBatch edit();

  // ---- observers ---------------------------------------------------------

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] const Node& node(NodeId id) const { return nodes_[id]; }
  [[nodiscard]] std::span<const Node> nodes() const noexcept { return nodes_; }

  [[nodiscard]] GateType type(NodeId id) const { return nodes_[id].type; }
  [[nodiscard]] std::span<const NodeId> fanin(NodeId id) const {
    return nodes_[id].fanin;
  }
  [[nodiscard]] std::span<const NodeId> fanout(NodeId id) const {
    return nodes_[id].fanout;
  }
  [[nodiscard]] bool is_primary_output(NodeId id) const {
    return nodes_[id].is_primary_output;
  }

  /// Primary inputs, in insertion order.
  [[nodiscard]] std::span<const NodeId> inputs() const noexcept {
    return inputs_;
  }
  /// Nodes flagged as primary outputs, in marking order.
  [[nodiscard]] std::span<const NodeId> outputs() const noexcept {
    return outputs_;
  }
  /// All DFF nodes.
  [[nodiscard]] std::span<const NodeId> dffs() const noexcept { return dffs_; }

  /// Combinational sources: primary inputs, constants, and DFF outputs.
  [[nodiscard]] std::span<const NodeId> sources() const noexcept {
    return sources_;
  }
  /// Combinational observation points: primary-output nodes and DFF nodes
  /// (standing for their D pins). This is the set `{PO_j, FF_k}` the paper
  /// propagates errors to.
  [[nodiscard]] std::span<const NodeId> sinks() const noexcept {
    return sinks_;
  }

  /// Number of combinational logic gates (excludes inputs, constants, DFFs).
  [[nodiscard]] std::size_t gate_count() const noexcept { return gate_count_; }

  /// Looks a node up by name.
  [[nodiscard]] std::optional<NodeId> find(std::string_view name) const;

  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  /// Nodes in a combinational topological order (sources first). Valid after
  /// finalize(). DFF nodes appear after their D fanin (they are sinks), but
  /// their *output* value is treated as a source by consumers.
  [[nodiscard]] std::span<const NodeId> topo_order() const noexcept {
    return topo_;
  }

  /// Combinational level: 0 for sources; 1 + max(fanin level) for gates.
  /// DFF nodes carry the level of their D pin (as sinks).
  [[nodiscard]] std::span<const std::uint32_t> levels() const noexcept {
    return levels_;
  }
  [[nodiscard]] std::uint32_t depth() const noexcept { return depth_; }

 private:
  friend class EditBatch;  ///< the one post-finalize mutation channel

  NodeId add_node(GateType type, std::string name, std::vector<NodeId> fanin);
  void compute_topo_order();  // throws on combinational cycle
  void reindex();  // finalize()'s frozen-index derivation, for EditBatch

  std::string name_;
  std::vector<Node> nodes_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<NodeId> dffs_;
  std::vector<NodeId> sources_;
  std::vector<NodeId> sinks_;
  std::vector<NodeId> topo_;
  std::vector<std::uint32_t> levels_;
  std::uint32_t depth_ = 0;
  std::size_t gate_count_ = 0;
  bool finalized_ = false;
};

}  // namespace sereep
