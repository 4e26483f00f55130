// ISCAS .bench netlist reader and writer.
//
// The .bench grammar (used by ISCAS'85 and ISCAS'89 distributions):
//
//   # comment
//   INPUT(G0)
//   OUTPUT(G17)
//   G10 = NAND(G0, G1)
//   G23 = DFF(G10)
//   K1 = CONST1()        # sereep's extension for a constant; CONST0() too
//
// A line is an I/O declaration only when INPUT or OUTPUT (any case) is
// followed, after optional blanks, by '(': `input_b = NOT(a)` is a gate.
//
// Definitions may reference signals defined later in the file (sequential
// feedback makes this unavoidable), so the parser resolves names in two
// passes and emits gates in dependency order. The first pass tokenizes the
// text in place: every name is a string_view into it, interned once in one
// symbol map, and a gate's fanins are symbol ids in one flat array. The
// second runs Kahn over those ids (a LIFO ready stack; each symbol's waiters
// are a CSR list released in registration order). Node ids, and so fanout
// order and the engines' summation order, follow from that emission order:
// inputs in declaration order, DFFs in definition order, then the gates and
// constants.
#pragma once

#include <string>
#include <string_view>

#include "src/netlist/circuit.hpp"

namespace sereep {

/// Parses .bench text into a finalized Circuit. Throws std::runtime_error
/// with a line-numbered diagnostic on malformed input.
[[nodiscard]] Circuit parse_bench(std::string_view text,
                                  std::string circuit_name = "bench");

/// Loads a .bench file with one sized read and parses it. Throws on I/O or
/// parse failure.
[[nodiscard]] Circuit load_bench_file(const std::string& path);

/// Serializes a circuit back to .bench text. parse_bench(write_bench(c)) has
/// c's node names, connectivity and outputs, but not always its node order,
/// so node ids, the circuit fingerprint and the last bits of sums taken in
/// node order can differ; each conversion may reorder again (`sereep gen
/// --profile=s953 --seed=1` converted twice compiles to three fingerprints).
[[nodiscard]] std::string write_bench(const Circuit& circuit);

/// Writes .bench text to a file. Returns false on I/O failure.
bool save_bench_file(const Circuit& circuit, const std::string& path);

}  // namespace sereep
