#include "src/netlist/bench_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/util/strings.hpp"

namespace sereep {

namespace {

constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

[[noreturn]] void parse_fail(int line, const std::string& what) {
  throw std::runtime_error(".bench line " + std::to_string(line) + ": " + what);
}

std::string quoted(std::string_view name) {
  std::string out = "'";
  out += name;
  out += '\'';
  return out;
}

/// True when `line` opens with `keyword`, optional blanks, then '(' — the
/// only shape of an I/O declaration. "input_b = NOT(a)" is a gate.
bool declares(std::string_view line, std::string_view keyword) {
  if (!istarts_with(line, keyword)) return false;
  const std::string_view rest = trim(line.substr(keyword.size()));
  return !rest.empty() && rest.front() == '(';
}

/// Every signal name in the file, interned once; a symbol id indexes the
/// three arrays. Names are views into the netlist text.
struct Symbols {
  std::unordered_map<std::string_view, std::uint32_t> index;
  std::vector<std::string_view> name;
  std::vector<std::uint32_t> def;  ///< defining statement, or kNone
  std::vector<NodeId> node;        ///< node id once created

  std::uint32_t intern(std::string_view n) {
    const auto [it, added] =
        index.try_emplace(n, static_cast<std::uint32_t>(name.size()));
    if (added) {
      name.push_back(n);
      def.push_back(kNone);
      node.push_back(kInvalidNode);
    }
    return it->second;
  }
};

/// Reads all of `fd` into `text`: one read of a regular file's size (the
/// spare byte lets that read's successor see end of file without growing
/// the buffer); pipes, or a file that grew, keep reading. False on error.
bool read_whole(int fd, std::string& text) {
  struct stat st {};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    text.resize(static_cast<std::size_t>(st.st_size) + 1);
  }
  std::size_t got = 0;
  while (true) {
    if (got == text.size()) text.resize(std::max<std::size_t>(4096, 2 * got));
    const ssize_t n = ::read(fd, text.data() + got, text.size() - got);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    got += static_cast<std::size_t>(n);
  }
  text.resize(got);
  return true;
}

}  // namespace

Circuit parse_bench(std::string_view text, std::string circuit_name) {
  Symbols sym;
  sym.index.reserve(
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n') + 1));
  std::vector<std::string_view> input_names;
  std::vector<std::string_view> output_names;
  // Gate definitions, in file order: the defined symbol, its type and line,
  // and its fanin symbols as one flat CSR array.
  std::vector<std::uint32_t> def_sym;
  std::vector<GateType> def_type;
  std::vector<int> def_line;
  std::vector<std::uint32_t> arg_begin{0};
  std::vector<std::uint32_t> args;

  int line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view raw =
        eol == std::string_view::npos
            ? text.substr(pos)
            : text.substr(pos, eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    // Strip comments and whitespace.
    const std::size_t hash = raw.find('#');
    if (hash != std::string_view::npos) raw = raw.substr(0, hash);
    const std::string_view line = trim(raw);
    if (line.empty()) continue;

    const bool is_input = declares(line, "INPUT");
    if (is_input || declares(line, "OUTPUT")) {
      const std::size_t open = line.find('(');
      const std::size_t close = line.rfind(')');
      if (close == std::string_view::npos || close < open) {
        parse_fail(line_no, "malformed I/O declaration");
      }
      const std::string_view name = trim(line.substr(open + 1, close - open - 1));
      if (name.empty()) parse_fail(line_no, "empty signal name");
      (is_input ? input_names : output_names).push_back(name);
      continue;
    }

    // Gate definition: target = TYPE(args)
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      parse_fail(line_no, istarts_with(line, "INPUT") ||
                                  istarts_with(line, "OUTPUT")
                              ? "malformed I/O declaration"
                              : "expected '=' in gate definition");
    }
    const std::string_view target = trim(line.substr(0, eq));
    if (target.empty()) parse_fail(line_no, "empty target name");

    const std::string_view rhs = trim(line.substr(eq + 1));
    const std::size_t open = rhs.find('(');
    const std::size_t close = rhs.rfind(')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open) {
      parse_fail(line_no, "malformed gate expression");
    }
    const std::string_view keyword = trim(rhs.substr(0, open));
    const auto type = parse_gate_type(keyword);
    if (!type) parse_fail(line_no, "unknown gate type " + quoted(keyword));

    // Arguments: comma-separated names; an empty list has none.
    const std::string_view inside = rhs.substr(open + 1, close - open - 1);
    if (!trim(inside).empty()) {
      std::size_t start = 0;
      while (true) {
        const std::size_t comma = inside.find(',', start);
        const std::string_view arg = trim(inside.substr(
            start, comma == std::string_view::npos ? comma : comma - start));
        if (arg.empty()) {
          parse_fail(line_no, "empty argument in gate definition");
        }
        args.push_back(sym.intern(arg));
        if (comma == std::string_view::npos) break;
        start = comma + 1;
      }
    }
    const std::size_t arity = args.size() - arg_begin.back();
    if (!arity_ok(*type, arity) && *type != GateType::kDff) {
      parse_fail(line_no, "illegal fanin count for " +
                              std::string(gate_type_name(*type)));
    }
    if (*type == GateType::kDff && arity != 1) {
      parse_fail(line_no, "DFF takes exactly one input");
    }
    const std::uint32_t s = sym.intern(target);
    if (sym.def[s] != kNone) {
      parse_fail(line_no, "signal " + quoted(target) + " defined twice");
    }
    sym.def[s] = static_cast<std::uint32_t>(def_sym.size());
    def_sym.push_back(s);
    def_type.push_back(*type);
    def_line.push_back(line_no);
    arg_begin.push_back(static_cast<std::uint32_t>(args.size()));
  }
  const std::size_t defs = def_sym.size();
  const auto fanins = [&](std::size_t d) {
    return std::span<const std::uint32_t>(args).subspan(
        arg_begin[d], arg_begin[d + 1] - arg_begin[d]);
  };

  Circuit circuit(std::move(circuit_name));
  circuit.reserve(input_names.size() + defs);

  // Pass 1: create primary inputs and DFF placeholders — every name that can
  // be referenced before its definition settles.
  for (const std::string_view name : input_names) {
    const std::uint32_t s = sym.intern(name);
    if (sym.node[s] != kInvalidNode) {
      throw std::runtime_error(".bench: input " + quoted(name) +
                               " declared twice");
    }
    if (sym.def[s] != kNone) {
      throw std::runtime_error(".bench: input " + quoted(name) +
                               " also defined as a gate");
    }
    sym.node[s] = circuit.add_input(std::string(name));
  }
  for (std::size_t d = 0; d < defs; ++d) {
    if (def_type[d] != GateType::kDff) continue;
    const std::uint32_t s = def_sym[d];
    sym.node[s] = circuit.add_dff_placeholder(std::string(sym.name[s]));
  }

  // Pass 2: emit combinational gates and constants in dependency order (Kahn
  // over symbol ids; DFF outputs and PIs are ready at the start, and so is a
  // constant, which has no fanin). A gate waits once per fanin occurrence,
  // and each symbol's waiters, a CSR list, are released in the order they
  // registered.
  std::vector<std::uint32_t> missing(defs, 0);  // unresolved fanins per def
  std::vector<std::uint32_t> wait_begin(sym.name.size() + 1, 0);
  std::size_t comb_defs = 0;
  for (std::size_t d = 0; d < defs; ++d) {
    if (def_type[d] == GateType::kDff) continue;
    ++comb_defs;
    for (const std::uint32_t a : fanins(d)) {
      if (sym.node[a] != kInvalidNode) continue;
      if (sym.def[a] == kNone) {
        parse_fail(def_line[d], "undefined signal " + quoted(sym.name[a]));
      }
      ++missing[d];
      ++wait_begin[a + 1];
    }
  }
  for (std::size_t s = 0; s < sym.name.size(); ++s) {
    wait_begin[s + 1] += wait_begin[s];
  }
  std::vector<std::uint32_t> waiters(wait_begin.back());
  {
    std::vector<std::uint32_t> fill(wait_begin.begin(), wait_begin.end() - 1);
    for (std::size_t d = 0; d < defs; ++d) {
      if (def_type[d] == GateType::kDff) continue;
      for (const std::uint32_t a : fanins(d)) {
        if (sym.node[a] == kInvalidNode) {
          waiters[fill[a]++] = static_cast<std::uint32_t>(d);
        }
      }
    }
  }

  std::vector<std::uint32_t> ready;
  for (std::size_t d = 0; d < defs; ++d) {
    if (def_type[d] != GateType::kDff && missing[d] == 0) {
      ready.push_back(static_cast<std::uint32_t>(d));
    }
  }
  std::size_t emitted = 0;
  while (!ready.empty()) {
    const std::uint32_t d = ready.back();
    ready.pop_back();
    const std::span<const std::uint32_t> in = fanins(d);
    std::vector<NodeId> fanin(in.size());
    for (std::size_t k = 0; k < in.size(); ++k) fanin[k] = sym.node[in[k]];
    const std::uint32_t s = def_sym[d];
    const GateType type = def_type[d];
    sym.node[s] =
        type == GateType::kConst0 || type == GateType::kConst1
            ? circuit.add_const(std::string(sym.name[s]),
                                type == GateType::kConst1)
            : circuit.add_gate(type, std::string(sym.name[s]),
                               std::move(fanin));
    ++emitted;
    for (std::uint32_t w = wait_begin[s]; w < wait_begin[s + 1]; ++w) {
      if (--missing[waiters[w]] == 0) ready.push_back(waiters[w]);
    }
  }
  if (emitted != comb_defs) {
    throw std::runtime_error(
        ".bench: combinational cycle among gate definitions");
  }

  // Pass 3: connect DFF data inputs and mark primary outputs.
  for (std::size_t d = 0; d < defs; ++d) {
    if (def_type[d] != GateType::kDff) continue;
    const std::uint32_t a = args[arg_begin[d]];
    if (sym.node[a] == kInvalidNode) {
      parse_fail(def_line[d], "undefined signal " + quoted(sym.name[a]));
    }
    circuit.connect_dff(sym.node[def_sym[d]], sym.node[a]);
  }
  for (const std::string_view name : output_names) {
    const auto it = sym.index.find(name);
    if (it == sym.index.end() || sym.node[it->second] == kInvalidNode) {
      throw std::runtime_error(".bench: undefined output " + quoted(name));
    }
    circuit.mark_output(sym.node[it->second]);
  }

  circuit.finalize();
  return circuit;
}

Circuit load_bench_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open '" + path + "'");
  std::string text;
  const bool read_ok = read_whole(fd, text);
  ::close(fd);
  if (!read_ok) throw std::runtime_error("cannot read '" + path + "'");
  // Circuit name = basename without extension.
  std::string name = path;
  if (const auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  if (const auto dot = name.find_last_of('.'); dot != std::string::npos) {
    name = name.substr(0, dot);
  }
  return parse_bench(text, name);
}

std::string write_bench(const Circuit& circuit) {
  std::ostringstream os;
  os << "# " << circuit.name() << " — written by sereep\n";
  for (NodeId id : circuit.inputs()) {
    os << "INPUT(" << circuit.node(id).name << ")\n";
  }
  for (NodeId id : circuit.outputs()) {
    os << "OUTPUT(" << circuit.node(id).name << ")\n";
  }
  os << "\n";
  for (NodeId id = 0; id < circuit.node_count(); ++id) {
    const Node& node = circuit.node(id);
    if (node.type == GateType::kInput) continue;
    if (node.type == GateType::kConst0 || node.type == GateType::kConst1) {
      // .bench has no constant keyword; emit the sereep extension.
      os << node.name << " = "
         << (node.type == GateType::kConst1 ? "CONST1" : "CONST0") << "()\n";
      continue;
    }
    os << node.name << " = " << gate_type_name(node.type) << "(";
    for (std::size_t i = 0; i < node.fanin.size(); ++i) {
      if (i) os << ", ";
      os << circuit.node(node.fanin[i]).name;
    }
    os << ")\n";
  }
  return os.str();
}

bool save_bench_file(const Circuit& circuit, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << write_bench(circuit);
  return static_cast<bool>(out);
}

}  // namespace sereep
