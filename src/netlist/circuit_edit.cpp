#include "src/netlist/circuit_edit.hpp"

#include <algorithm>
#include <stdexcept>

namespace sereep {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("circuit edit: " + what);
}

}  // namespace

EditBatch Circuit::edit() {
  if (!finalized_) {
    fail("Circuit::edit() requires a finalized circuit (construction-time "
         "changes use the add_* API)");
  }
  return EditBatch(*this);
}

void Circuit::reindex() {
  // Exactly the frozen-index derivation finalize() performs, over the edited
  // adjacency — so an edited circuit is indistinguishable from restore()
  // over the same node table (same Kahn pass, same levels, same depth).
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
  if (sinks_.empty()) fail("edit left no primary output and no flip-flop");
  depth_ = 0;
  compute_topo_order();
}

EditBatch::EditBatch(EditBatch&& other) noexcept
    : circuit_(other.circuit_),
      result_(std::move(other.result_)),
      dirty_flag_(std::move(other.dirty_flag_)) {
  other.circuit_ = nullptr;
}

EditBatch::~EditBatch() {
  // An abandoned batch must not leave stale frozen indexes behind: ops apply
  // eagerly, so reindex best-effort. Every op preserves acyclicity and
  // arity, so this cannot throw in practice; swallow defensively (a
  // destructor must not).
  if (circuit_ != nullptr && result_.structure_changed) {
    try {
      circuit_->reindex();
    } catch (...) {
    }
  }
}

void EditBatch::require_open(const char* op) const {
  if (circuit_ == nullptr) {
    fail(std::string(op) + ": batch already committed");
  }
}

void EditBatch::mark_dirty(NodeId id) {
  if (dirty_flag_.size() < circuit_->nodes_.size()) {
    dirty_flag_.resize(circuit_->nodes_.size(), 0);
  }
  if (dirty_flag_[id] == 0) {
    dirty_flag_[id] = 1;
    result_.dirty.push_back(id);
  }
}

void EditBatch::retype(NodeId gate, GateType type) {
  require_open("retype");
  Circuit& c = *circuit_;
  if (gate >= c.nodes_.size()) fail("retype: unknown node");
  Node& g = c.nodes_[gate];
  if (!is_combinational(g.type)) {
    fail("retype: '" + g.name + "' is not a combinational gate");
  }
  if (!is_combinational(type)) {
    fail("retype: target type " + std::string(gate_type_name(type)) +
         " is not combinational");
  }
  if (!arity_ok(type, g.fanin.size())) {
    fail("retype: " + std::string(gate_type_name(type)) + " cannot take " +
         std::to_string(g.fanin.size()) + " fanins ('" + g.name + "')");
  }
  g.type = type;
  mark_dirty(gate);
}

void EditBatch::rewire_fanin(NodeId gate, std::size_t slot,
                             NodeId new_source) {
  require_open("rewire");
  Circuit& c = *circuit_;
  if (gate >= c.nodes_.size() || new_source >= c.nodes_.size()) {
    fail("rewire: unknown node");
  }
  Node& g = c.nodes_[gate];
  if (slot >= g.fanin.size()) {
    fail("rewire: '" + g.name + "' has no fanin slot " + std::to_string(slot));
  }
  // A cycle can only form through combinational dependency edges: an edge
  // from a source or a DFF output is available at cycle start, and an edge
  // INTO a DFF (its D pin) is consumed at the capture edge — neither closes
  // a combinational loop. So the check is needed exactly when both ends are
  // combinational: would `gate` reach `new_source` through the combinational
  // core (forward DFS over fanouts that does not expand through DFFs)?
  if (is_combinational(g.type) && is_combinational(c.nodes_[new_source].type)) {
    std::vector<std::uint8_t> seen(c.nodes_.size(), 0);
    std::vector<NodeId> stack{gate};
    seen[gate] = 1;
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      if (id == new_source) {
        fail("rewire: '" + c.nodes_[new_source].name + "' -> '" + g.name +
             "' would create a combinational cycle");
      }
      if (id != gate && c.nodes_[id].type == GateType::kDff) continue;
      for (NodeId consumer : c.nodes_[id].fanout) {
        if (seen[consumer] == 0) {
          seen[consumer] = 1;
          stack.push_back(consumer);
        }
      }
    }
  }
  const NodeId old = g.fanin[slot];
  auto& old_fanout = c.nodes_[old].fanout;
  // Remove exactly one occurrence (multi-edges are legal).
  const auto it = std::find(old_fanout.begin(), old_fanout.end(), gate);
  if (it != old_fanout.end()) old_fanout.erase(it);
  g.fanin[slot] = new_source;
  c.nodes_[new_source].fanout.push_back(gate);
  mark_dirty(gate);
  // The OLD source is dirty too: a site whose cone reached `gate` only
  // through this edge loses it, and on the post-edit graph that loss is
  // visible only at `old` — dirty-cone invalidation (src/epp/incremental.hpp)
  // walks the edited adjacency, so the detached edge's tail must be in the
  // frontier for such sites to be re-swept.
  mark_dirty(old);
  result_.structure_changed = true;
}

NodeId EditBatch::insert_gate(GateType type, std::string name,
                              std::vector<NodeId> fanin) {
  require_open("insert");
  Circuit& c = *circuit_;
  if (!is_combinational(type)) {
    fail("insert: " + std::string(gate_type_name(type)) +
         " is not a combinational type");
  }
  if (name.empty()) fail("insert: node name must be non-empty");
  if (c.by_name_.contains(name)) {
    fail("insert: duplicate node name '" + name + "'");
  }
  if (!arity_ok(type, fanin.size())) {
    fail("insert: illegal fanin count " + std::to_string(fanin.size()) +
         " for " + std::string(gate_type_name(type)) + " '" + name + "'");
  }
  const NodeId id = static_cast<NodeId>(c.nodes_.size());
  for (NodeId f : fanin) {
    if (f >= id) fail("insert: fanin of '" + name + "' is unknown");
  }
  for (NodeId f : fanin) c.nodes_[f].fanout.push_back(id);
  c.by_name_.emplace(name, id);
  c.nodes_.push_back(Node{type, std::move(name), std::move(fanin), {}, false});
  ++c.gate_count_;
  result_.inserted.push_back(id);
  result_.structure_changed = true;
  mark_dirty(id);
  return id;
}

NodeId EditBatch::protect_tmr(NodeId gate) {
  require_open("tmr");
  Circuit& c = *circuit_;
  if (gate >= c.nodes_.size()) fail("tmr: unknown node");
  if (!is_combinational(c.nodes_[gate].type)) {
    fail("tmr: '" + c.nodes_[gate].name +
         "' is not a combinational gate (only gates are protectable)");
  }
  // Names mirror apply_tmr()'s voter structure; a numeric suffix uniquifies
  // re-protection of the same region (deterministic, first free wins).
  const auto unique_name = [&c](const std::string& base) {
    if (!c.by_name_.contains(base)) return base;
    for (int k = 2;; ++k) {
      std::string candidate = base + "_" + std::to_string(k);
      if (!c.by_name_.contains(candidate)) return candidate;
    }
  };
  const std::string base = c.nodes_[gate].name;
  const GateType type = c.nodes_[gate].type;
  // Consumers BEFORE the voter gates exist — these are what gets respliced.
  const std::vector<NodeId> consumers = c.nodes_[gate].fanout;
  const std::vector<NodeId> fanin = c.nodes_[gate].fanin;

  const NodeId cb = insert_gate(type, unique_name(base + "__tmr_b"), fanin);
  const NodeId cc = insert_gate(type, unique_name(base + "__tmr_c"), fanin);
  const NodeId vab =
      insert_gate(GateType::kAnd, unique_name(base + "__vab"), {gate, cb});
  const NodeId vbc =
      insert_gate(GateType::kAnd, unique_name(base + "__vbc"), {cb, cc});
  const NodeId vac =
      insert_gate(GateType::kAnd, unique_name(base + "__vac"), {gate, cc});
  const NodeId vote = insert_gate(GateType::kOr, unique_name(base + "__vote"),
                                  {vab, vbc, vac});

  // Resplice every pre-existing consumer onto the voter. No cycle check is
  // needed: the voter's ancestors are exactly `gate`'s ancestors plus the new
  // copies, and a consumer that were also an ancestor of `gate` would have
  // been a cycle in the original DAG.
  for (const NodeId consumer : consumers) {
    Node& cons = c.nodes_[consumer];
    bool replaced = false;
    for (NodeId& f : cons.fanin) {
      if (f == gate) {
        f = vote;
        replaced = true;
      }
    }
    if (!replaced) continue;  // multi-edge duplicate already handled
    auto& gate_fanout = c.nodes_[gate].fanout;
    gate_fanout.erase(
        std::remove(gate_fanout.begin(), gate_fanout.end(), consumer),
        gate_fanout.end());
    const std::size_t edges = static_cast<std::size_t>(
        std::count(cons.fanin.begin(), cons.fanin.end(), vote));
    for (std::size_t e = 0; e < edges; ++e) {
      c.nodes_[vote].fanout.push_back(consumer);
    }
    mark_dirty(consumer);
  }
  // A protected primary output observes the voted signal; the marking-order
  // slot in outputs() is transferred in place.
  if (c.nodes_[gate].is_primary_output) {
    c.nodes_[gate].is_primary_output = false;
    c.nodes_[vote].is_primary_output = true;
    std::replace(c.outputs_.begin(), c.outputs_.end(), gate, vote);
  }
  mark_dirty(gate);
  return vote;
}

EditResult EditBatch::commit() {
  require_open("commit");
  if (result_.dirty.empty()) fail("commit: empty batch");
  // A retype-only batch swaps combinational types in place: fanins, the
  // source/sink sets, topo order, levels, and depth are all untouched, so
  // the Kahn re-derivation would rebuild identical tables. Skip it — it is
  // the dominant fixed cost of a single-gate what-if edit.
  if (result_.structure_changed) circuit_->reindex();
  std::sort(result_.dirty.begin(), result_.dirty.end());
  EditResult out = std::move(result_);
  circuit_ = nullptr;
  result_ = {};
  return out;
}

// ---- edit plans ------------------------------------------------------------

namespace {

std::vector<std::string> split_tokens(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < text.size() && text[j] != ' ' && text[j] != '\t') ++j;
    if (j > i) out.emplace_back(text.substr(i, j - i));
    i = j;
  }
  return out;
}

GateType parse_type_or_fail(const std::string& word, const std::string& op) {
  const std::optional<GateType> t = parse_gate_type(word);
  if (!t.has_value() || !is_combinational(*t)) {
    fail(op + ": '" + word + "' is not a combinational gate type");
  }
  return *t;
}

NodeId resolve(const Circuit& circuit, const std::string& name,
               const std::string& op) {
  const std::optional<NodeId> id = circuit.find(name);
  if (!id.has_value()) fail(op + ": unknown node '" + name + "'");
  return *id;
}

}  // namespace

EditPlan parse_edit_spec(std::string_view spec) {
  EditPlan plan;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = begin;
    while (end < spec.size() && spec[end] != ';' && spec[end] != '\n') ++end;
    const std::vector<std::string> words =
        split_tokens(spec.substr(begin, end - begin));
    begin = end + 1;
    if (words.empty()) continue;
    EditOp op;
    const std::string& verb = words[0];
    if (verb == "retype") {
      if (words.size() != 3) fail("retype takes <node> <TYPE>");
      op.kind = EditOp::Kind::kRetype;
      op.node = words[1];
      op.type = parse_type_or_fail(words[2], "retype");
    } else if (verb == "rewire") {
      if (words.size() != 4) fail("rewire takes <gate> <slot> <source>");
      op.kind = EditOp::Kind::kRewire;
      op.node = words[1];
      std::size_t used = 0;
      unsigned long slot = 0;
      try {
        slot = std::stoul(words[2], &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used != words[2].size() || slot > 0xffffu) {
        fail("rewire: bad slot '" + words[2] + "'");
      }
      op.slot = static_cast<std::uint32_t>(slot);
      op.source = words[3];
    } else if (verb == "insert") {
      if (words.size() < 4) fail("insert takes <TYPE> <name> <fanin...>");
      op.kind = EditOp::Kind::kInsert;
      op.type = parse_type_or_fail(words[1], "insert");
      op.name = words[2];
      op.fanin.assign(words.begin() + 3, words.end());
    } else if (verb == "tmr") {
      if (words.size() != 2) fail("tmr takes <gate>");
      op.kind = EditOp::Kind::kTmr;
      op.node = words[1];
    } else {
      fail("unknown op '" + verb +
           "' (expected retype | rewire | insert | tmr)");
    }
    plan.ops.push_back(std::move(op));
  }
  if (plan.ops.empty()) fail("empty edit spec");
  return plan;
}

std::string to_string(const EditPlan& plan) {
  std::string out;
  for (const EditOp& op : plan.ops) {
    if (!out.empty()) out += "; ";
    switch (op.kind) {
      case EditOp::Kind::kRetype:
        out += "retype " + op.node + " " +
               std::string(gate_type_name(op.type));
        break;
      case EditOp::Kind::kRewire:
        out += "rewire " + op.node + " " + std::to_string(op.slot) + " " +
               op.source;
        break;
      case EditOp::Kind::kInsert:
        out += "insert " + std::string(gate_type_name(op.type)) + " " +
               op.name;
        for (const std::string& f : op.fanin) out += " " + f;
        break;
      case EditOp::Kind::kTmr:
        out += "tmr " + op.node;
        break;
    }
  }
  return out;
}

namespace {

/// apply_edit_plan's batch, without the rollback.
EditResult apply_ops(Circuit& circuit, const EditPlan& plan) {
  EditBatch batch = circuit.edit();
  for (const EditOp& op : plan.ops) {
    switch (op.kind) {
      case EditOp::Kind::kRetype:
        batch.retype(resolve(circuit, op.node, "retype"), op.type);
        break;
      case EditOp::Kind::kRewire:
        batch.rewire_fanin(resolve(circuit, op.node, "rewire"), op.slot,
                           resolve(circuit, op.source, "rewire"));
        break;
      case EditOp::Kind::kInsert: {
        std::vector<NodeId> fanin;
        fanin.reserve(op.fanin.size());
        for (const std::string& f : op.fanin) {
          fanin.push_back(resolve(circuit, f, "insert"));
        }
        batch.insert_gate(op.type, op.name, std::move(fanin));
        break;
      }
      case EditOp::Kind::kTmr:
        batch.protect_tmr(resolve(circuit, op.node, "tmr"));
        break;
    }
  }
  return batch.commit();
}

}  // namespace

EditResult apply_edit_plan(Circuit& circuit, const EditPlan& plan) {
  if (plan.ops.empty()) fail("empty edit plan");
  // Ops apply eagerly, so all-or-nothing means rolling back to a copy: any
  // throw (a bad op or the commit) restores the pre-batch circuit.
  Circuit snapshot = circuit;
  try {
    return apply_ops(circuit, plan);
  } catch (...) {
    circuit = std::move(snapshot);
    throw;
  }
}

}  // namespace sereep
