#include "src/netlist/circuit.hpp"

#include <algorithm>
#include <stdexcept>

namespace sereep {

namespace {
[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("circuit: " + what);
}

/// The construction API is finalize()-only; every post-finalize change goes
/// through the edit channel. Naming it here turns the classic "mutated a
/// frozen netlist" bug into a pointer at the fix.
[[noreturn]] void fail_finalized(const char* op) {
  fail(std::string(op) +
       ": circuit is finalized — post-finalize changes go through "
       "Circuit::edit() (src/netlist/circuit_edit.hpp)");
}
}  // namespace

void Circuit::reserve(std::size_t nodes) {
  nodes_.reserve(nodes);
  by_name_.reserve(nodes);
}

NodeId Circuit::add_node(GateType type, std::string name,
                         std::vector<NodeId> fanin) {
  if (finalized_) fail_finalized("add_node");
  if (name.empty()) fail("node name must be non-empty");
  if (!arity_ok(type, fanin.size())) {
    fail("illegal fanin count " + std::to_string(fanin.size()) + " for " +
         std::string(gate_type_name(type)) + " '" + name + "'");
  }
  const NodeId id = static_cast<NodeId>(nodes_.size());
  for (NodeId f : fanin) {
    if (f >= id) fail("fanin of '" + name + "' references unknown node");
  }
  // Everything is validated; the name claim is the first mutation.
  if (!by_name_.try_emplace(name, id).second) {
    fail("duplicate node name '" + name + "'");
  }
  for (NodeId f : fanin) nodes_[f].fanout.push_back(id);
  nodes_.push_back(Node{type, std::move(name), std::move(fanin), {}, false});
  return id;
}

NodeId Circuit::add_input(std::string name) {
  const NodeId id = add_node(GateType::kInput, std::move(name), {});
  inputs_.push_back(id);
  return id;
}

NodeId Circuit::add_gate(GateType type, std::string name,
                         std::vector<NodeId> fanin) {
  if (!is_combinational(type)) {
    fail("add_gate requires a combinational type, got " +
         std::string(gate_type_name(type)));
  }
  const NodeId id = add_node(type, std::move(name), std::move(fanin));
  ++gate_count_;
  return id;
}

NodeId Circuit::add_dff(std::string name, NodeId d) {
  const NodeId id = add_node(GateType::kDff, std::move(name), {d});
  dffs_.push_back(id);
  return id;
}

NodeId Circuit::add_dff_placeholder(std::string name) {
  if (finalized_) fail_finalized("add_dff_placeholder");
  if (name.empty()) fail("node name must be non-empty");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  if (!by_name_.try_emplace(name, id).second) {
    fail("duplicate node name '" + name + "'");
  }
  nodes_.push_back(Node{GateType::kDff, std::move(name), {}, {}, false});
  dffs_.push_back(id);
  return id;
}

void Circuit::connect_dff(NodeId dff, NodeId d) {
  if (finalized_) fail_finalized("connect_dff");
  if (dff >= nodes_.size() || d >= nodes_.size()) fail("connect_dff: unknown node");
  Node& nd = nodes_[dff];
  if (nd.type != GateType::kDff) fail("connect_dff: node is not a DFF");
  if (!nd.fanin.empty()) fail("connect_dff: DFF '" + nd.name + "' already connected");
  nd.fanin.push_back(d);
  nodes_[d].fanout.push_back(dff);
}

NodeId Circuit::add_const(std::string name, bool value) {
  return add_node(value ? GateType::kConst1 : GateType::kConst0,
                  std::move(name), {});
}

void Circuit::mark_output(NodeId id) {
  if (finalized_) fail_finalized("mark_output");
  if (id >= nodes_.size()) fail("mark_output: unknown node");
  if (!nodes_[id].is_primary_output) {
    nodes_[id].is_primary_output = true;
    outputs_.push_back(id);
  }
}

void Circuit::replace_fanin(NodeId gate, std::size_t slot, NodeId new_source) {
  if (finalized_) fail_finalized("replace_fanin");
  if (gate >= nodes_.size() || new_source >= nodes_.size()) {
    fail("replace_fanin: unknown node");
  }
  Node& g = nodes_[gate];
  if (slot >= g.fanin.size()) fail("replace_fanin: bad slot");
  const NodeId old = g.fanin[slot];
  auto& old_fanout = nodes_[old].fanout;
  // Remove exactly one occurrence (multi-edges are legal).
  const auto it = std::find(old_fanout.begin(), old_fanout.end(), gate);
  if (it != old_fanout.end()) old_fanout.erase(it);
  g.fanin[slot] = new_source;
  nodes_[new_source].fanout.push_back(gate);
}

void Circuit::append_fanin(NodeId gate, NodeId source) {
  if (finalized_) fail_finalized("append_fanin");
  if (gate >= nodes_.size() || source >= nodes_.size()) {
    fail("append_fanin: unknown node");
  }
  Node& g = nodes_[gate];
  const ArityRange r = gate_arity(g.type);
  if (r.max != 0) fail("append_fanin: gate is not n-ary");
  if (source >= gate) fail("append_fanin: source must precede gate");
  g.fanin.push_back(source);
  nodes_[source].fanout.push_back(gate);
}

std::optional<NodeId> Circuit::find(std::string_view name) const {
  const auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

void Circuit::compute_topo_order() {
  // Kahn's algorithm over the combinational DAG. DFF nodes *consume* their D
  // fanin edge like any gate (they are sinks), but their fanout edges do not
  // create dependencies for this clock cycle: a DFF's output is available at
  // time zero. We realize that by giving every DFF an in-degree of 1 (its D
  // edge) while its consumers do NOT count the DFF edge as a dependency.
  const std::size_t n = nodes_.size();
  std::vector<std::uint32_t> indeg(n, 0);
  for (NodeId id = 0; id < n; ++id) {
    if (is_source(nodes_[id].type)) continue;
    std::uint32_t deg = 0;
    for (NodeId f : nodes_[id].fanin) {
      // Only pending combinational gates are real dependencies: sources and
      // DFF outputs carry defined values at cycle start.
      if (is_combinational(nodes_[f].type)) ++deg;
    }
    indeg[id] = deg;
  }

  topo_.clear();
  topo_.reserve(n);
  std::vector<NodeId> ready;
  levels_.assign(n, 0);

  // Seed: sources (PIs, constants) and DFFs-as-sources. We push actual
  // source nodes into the order first so consumers can iterate topo_ and
  // know every fanin value (including DFF outputs) is defined beforehand.
  for (NodeId id = 0; id < n; ++id) {
    if (is_source(nodes_[id].type)) {
      topo_.push_back(id);
    }
  }
  // DFF outputs are defined at cycle start: emit DFF nodes early *as value
  // providers*; their D-pin "sink" role does not need ordering because no
  // one reads the D pin combinationally. Level of the DFF node itself is
  // recomputed below as a sink once its fanin settles; for value-provision
  // order we list DFFs right after the sources.
  for (NodeId id : dffs_) topo_.push_back(id);

  for (NodeId id = 0; id < n; ++id) {
    if (indeg[id] == 0 && is_combinational(nodes_[id].type)) {
      ready.push_back(id);
    }
  }

  std::size_t emitted_gates = 0;
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    topo_.push_back(id);
    ++emitted_gates;
    std::uint32_t lvl = 0;
    for (NodeId f : nodes_[id].fanin) {
      const std::uint32_t fl =
          nodes_[f].type == GateType::kDff ? 0 : levels_[f];
      lvl = std::max(lvl, fl + 1);
    }
    levels_[id] = lvl;
    depth_ = std::max(depth_, lvl);
    for (NodeId consumer : nodes_[id].fanout) {
      if (nodes_[consumer].type == GateType::kDff) continue;  // sink only
      if (--indeg[consumer] == 0) ready.push_back(consumer);
    }
  }

  if (emitted_gates != gate_count_) {
    fail("combinational cycle detected (" + std::to_string(emitted_gates) +
         " of " + std::to_string(gate_count_) + " gates orderable)");
  }
  // Sink level of each DFF = level of its D pin + 1 (capture edge).
  for (NodeId id : dffs_) {
    const NodeId d = nodes_[id].fanin[0];
    levels_[id] = nodes_[d].type == GateType::kDff ? 1 : levels_[d] + 1;
  }
}

Circuit Circuit::restore(std::string name, std::vector<Node> nodes,
                         std::span<const NodeId> output_order) {
  const std::size_t n = nodes.size();
  if (n == 0) fail("restore: empty circuit");

  // The fanout arrays must describe exactly the reverse of the fanin arrays,
  // as a multiset per (from, to) pair — multi-edges are legal, so count them.
  std::unordered_map<std::uint64_t, std::int64_t> edges;
  for (NodeId id = 0; id < n; ++id) {
    for (NodeId f : nodes[id].fanin) {
      if (f >= n) fail("restore: fanin of node " + std::to_string(id) +
                       " references unknown node");
      ++edges[(static_cast<std::uint64_t>(f) << 32) | id];
    }
  }
  for (NodeId id = 0; id < n; ++id) {
    for (NodeId consumer : nodes[id].fanout) {
      if (consumer >= n) {
        fail("restore: fanout of node " + std::to_string(id) +
             " references unknown node");
      }
      const auto it =
          edges.find((static_cast<std::uint64_t>(id) << 32) | consumer);
      if (it == edges.end() || it->second == 0) {
        fail("restore: fanout edge " + std::to_string(id) + " -> " +
             std::to_string(consumer) + " has no matching fanin");
      }
      --it->second;
    }
  }
  for (const auto& [key, count] : edges) {
    if (count != 0) {
      fail("restore: fanin edge " + std::to_string(key >> 32) + " -> " +
           std::to_string(key & 0xffffffffu) + " has no matching fanout");
    }
  }

  Circuit c(std::move(name));
  c.nodes_ = std::move(nodes);
  for (NodeId id = 0; id < n; ++id) {
    Node& nd = c.nodes_[id];
    if (nd.name.empty()) fail("restore: node name must be non-empty");
    if (nd.is_primary_output) {
      fail("restore: output flags must come via output_order");
    }
    if (!c.by_name_.emplace(nd.name, id).second) {
      fail("restore: duplicate node name '" + nd.name + "'");
    }
    if (nd.type == GateType::kInput) {
      c.inputs_.push_back(id);
    } else if (nd.type == GateType::kDff) {
      c.dffs_.push_back(id);
    } else if (is_combinational(nd.type)) {
      ++c.gate_count_;
    }
  }
  for (NodeId id : output_order) {
    if (id >= n) fail("restore: output_order references unknown node");
    c.mark_output(id);
  }
  c.finalize();  // arity + acyclicity over the verbatim adjacency
  return c;
}

void Circuit::finalize() {
  if (finalized_) return;
  if (nodes_.empty()) fail("empty circuit");

  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& nd = nodes_[id];
    if (!arity_ok(nd.type, nd.fanin.size())) {
      fail("node '" + nd.name + "' has illegal arity");
    }
  }

  sources_.clear();
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (is_source(nodes_[id].type) || nodes_[id].type == GateType::kDff) {
      sources_.push_back(id);
    }
  }
  sinks_.clear();
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].is_primary_output || nodes_[id].type == GateType::kDff) {
      sinks_.push_back(id);
    }
  }
  if (sinks_.empty()) fail("circuit has no primary output and no flip-flop");

  compute_topo_order();
  finalized_ = true;
}

}  // namespace sereep
