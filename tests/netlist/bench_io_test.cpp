#include "src/netlist/bench_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/netlist/benchmarks.hpp"
#include "src/netlist/compiled.hpp"
#include "src/netlist/generator.hpp"

namespace sereep {
namespace {

TEST(BenchParser, ParsesC17) {
  const Circuit c = parse_bench(c17_bench_text(), "c17");
  EXPECT_EQ(c.inputs().size(), 5u);
  EXPECT_EQ(c.outputs().size(), 2u);
  EXPECT_EQ(c.gate_count(), 6u);
  EXPECT_EQ(c.dffs().size(), 0u);
  EXPECT_EQ(c.depth(), 3u);
}

TEST(BenchParser, ParsesS27Sequential) {
  const Circuit c = parse_bench(s27_bench_text(), "s27");
  EXPECT_EQ(c.inputs().size(), 4u);
  EXPECT_EQ(c.outputs().size(), 1u);
  EXPECT_EQ(c.dffs().size(), 3u);
  EXPECT_EQ(c.gate_count(), 10u);
}

TEST(BenchParser, HandlesCommentsAndBlankLines) {
  const Circuit c = parse_bench(
      "# header comment\n"
      "\n"
      "INPUT(a)  # trailing comment\n"
      "OUTPUT(y)\n"
      "y = NOT(a)\n");
  EXPECT_EQ(c.gate_count(), 1u);
}

TEST(BenchParser, ForwardReferencesInCombinationalLogic) {
  // y defined before its fanin g.
  const Circuit c = parse_bench(
      "INPUT(a)\n"
      "OUTPUT(y)\n"
      "y = NOT(g)\n"
      "g = BUFF(a)\n");
  EXPECT_EQ(c.gate_count(), 2u);
  EXPECT_TRUE(c.find("g").has_value());
}

TEST(BenchParser, SequentialFeedbackLoop) {
  const Circuit c = parse_bench(
      "INPUT(en)\n"
      "OUTPUT(q)\n"
      "q = DFF(d)\n"
      "d = XOR(q, en)\n");
  EXPECT_EQ(c.dffs().size(), 1u);
  EXPECT_EQ(c.gate_count(), 1u);
}

TEST(BenchParser, CaseInsensitiveKeywords) {
  const Circuit c = parse_bench(
      "input(a)\n"
      "output(y)\n"
      "y = nand(a, a)\n");
  EXPECT_EQ(c.gate_count(), 1u);
}

TEST(BenchParser, RejectsUndefinedSignal) {
  EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(zzz)\n"),
               std::runtime_error);
}

TEST(BenchParser, RejectsUndefinedOutput) {
  EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(nope)\ny = NOT(a)\n"),
               std::runtime_error);
}

TEST(BenchParser, RejectsDoubleDefinition) {
  EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n"),
               std::runtime_error);
}

TEST(BenchParser, RejectsUnknownGate) {
  EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(y)\ny = MAJ3(a, a, a)\n"),
               std::runtime_error);
}

TEST(BenchParser, RejectsCombinationalCycle) {
  EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(x)\n"
                           "x = AND(a, y)\n"
                           "y = AND(a, x)\n"),
               std::runtime_error);
}

TEST(BenchParser, RejectsMalformedLine) {
  EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(a)\nthis is not bench\n"),
               std::runtime_error);
  EXPECT_THROW(parse_bench("INPUT a\n"), std::runtime_error);
  EXPECT_THROW(parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a\n"),
               std::runtime_error);
}

TEST(BenchParser, RejectsDffWithTwoInputs) {
  EXPECT_THROW(parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(a, b)\n"),
               std::runtime_error);
}

TEST(BenchParser, DiagnosticsIncludeLineNumber) {
  try {
    (void)parse_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(BenchParser, NamesStartingWithInputOrOutputAreGates) {
  // Only a keyword followed by '(' opens a declaration; these are gates.
  {
    const Circuit c = parse_bench(
        "INPUT(a)\nOUTPUT(input_b)\ninput_b = NOT(a)\n");
    EXPECT_EQ(c.node_count(), 2u);
    ASSERT_EQ(c.outputs().size(), 1u);
    EXPECT_EQ(c.node(c.outputs()[0]).name, "input_b");
    EXPECT_EQ(c.type(c.outputs()[0]), GateType::kNot);
  }
  {
    const Circuit c = parse_bench(
        "INPUT(c)\nOUTPUT(y)\ny = BUFF(output_en)\noutput_en = NOT(c)\n");
    EXPECT_EQ(c.node_count(), 3u);
    ASSERT_EQ(c.outputs().size(), 1u);
    EXPECT_EQ(c.node(c.outputs()[0]).name, "y");
    ASSERT_TRUE(c.find("output_en").has_value());
    EXPECT_EQ(c.type(*c.find("output_en")), GateType::kNot);
  }
  {
    const Circuit c = parse_bench(
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nOUTPUT(z)\n"
        "y = NOT(a)\nz = AND(a, b)\noutputbuf = BUFF(b)\n");
    EXPECT_EQ(c.node_count(), 5u);
    ASSERT_EQ(c.outputs().size(), 2u);
    EXPECT_EQ(c.node(c.outputs()[0]).name, "y");
    EXPECT_EQ(c.node(c.outputs()[1]).name, "z");
    ASSERT_TRUE(c.find("outputbuf").has_value());
    EXPECT_EQ(c.type(*c.find("outputbuf")), GateType::kBuf);
    EXPECT_FALSE(c.is_primary_output(*c.find("b")));
  }
}

TEST(BenchParser, DiagnosticsMatchTheParent) {
  // Every rejection path, with the exact text the string-keyed loader gave.
  // The later cases pin which check wins when a netlist has two faults.
  struct Case {
    const char* text;
    const char* what;
  };
  const Case cases[] = {
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(zzz)\n",
       ".bench line 3: undefined signal 'zzz'"},
      {"INPUT(a)\nOUTPUT(q)\n\nq = DFF(nope)\n",
       ".bench line 4: undefined signal 'nope'"},
      {"INPUT(a)\nOUTPUT(nope)\ny = NOT(a)\n",
       ".bench: undefined output 'nope'"},
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)\n",
       ".bench line 4: signal 'y' defined twice"},
      {"INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n# note\nq = NOT(a)\n",
       ".bench line 5: signal 'q' defined twice"},
      {"INPUT(a)\nOUTPUT(y)\ny = MAJ3(a, a, a)\n",
       ".bench line 3: unknown gate type 'MAJ3'"},
      {"INPUT(a)\nOUTPUT(x)\nx = AND(a, y)\ny = AND(a, x)\n",
       ".bench: combinational cycle among gate definitions"},
      {"INPUT(a\n", ".bench line 1: malformed I/O declaration"},
      {"INPUT a\n", ".bench line 1: malformed I/O declaration"},
      {"output )y(\n", ".bench line 1: malformed I/O declaration"},
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(a\n",
       ".bench line 3: malformed gate expression"},
      {"INPUT(a)\nOUTPUT(y)\ny = NOT a\n",
       ".bench line 3: malformed gate expression"},
      {"INPUT(a)\nOUTPUT(a)\nthis is not bench\n",
       ".bench line 3: expected '=' in gate definition"},
      {"INPUT( )\n", ".bench line 1: empty signal name"},
      {"INPUT(a)\nOUTPUT(y)\n = NOT(a)\n", ".bench line 3: empty target name"},
      {"INPUT(a)\nOUTPUT(y)\ny = AND(a, )\n",
       ".bench line 3: empty argument in gate definition"},
      {"INPUT(a)\nOUTPUT(y)\ny = AND(,a)\n",
       ".bench line 3: empty argument in gate definition"},
      {"INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n",
       ".bench line 4: illegal fanin count for NOT"},
      {"INPUT(a)\nOUTPUT(y)\ny = buf(a, a)\n",
       ".bench line 3: illegal fanin count for BUFF"},
      {"INPUT(a)\nOUTPUT(y)\ny = AND()\n",
       ".bench line 3: illegal fanin count for AND"},
      {"INPUT(a)\nINPUT(b)\nOUTPUT(q)\nq = DFF(a, b)\n",
       ".bench line 4: DFF takes exactly one input"},
      {"INPUT(a)\nOUTPUT(q)\nq = DFF()\n",
       ".bench line 3: DFF takes exactly one input"},
      {"INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
       ".bench: input 'a' declared twice"},
      {"INPUT(a)\nINPUT(b)\nOUTPUT(a)\na = NOT(b)\n",
       ".bench: input 'a' also defined as a gate"},
      {"INPUT(a)\nOUTPUT(y)\ny = CONST1(a)\n",
       ".bench line 3: illegal fanin count for CONST1"},
      {"INPUT(a)\ny = NOT(a)\n",
       "circuit: circuit has no primary output and no flip-flop"},
      {"# nothing\n", "circuit: empty circuit"},
      // Two faults: the earlier stage (and, within a stage, the earlier
      // line or declaration) reports.
      {"INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = NOT(a)\nz = FROB(a)\n",
       ".bench line 4: signal 'y' defined twice"},
      {"INPUT(a)\nINPUT(a)\nOUTPUT(y)\ny = NOT(zzz)\n",
       ".bench: input 'a' declared twice"},
      {"INPUT(a)\nOUTPUT(y)\ny = AND(a, nope1)\nz = NOT(nope2)\n",
       ".bench line 3: undefined signal 'nope1'"},
      {"INPUT(a)\nOUTPUT(q)\nq = DFF(nope)\nx = AND(a, w)\nw = NOT(x)\n",
       ".bench: combinational cycle among gate definitions"},
      {"INPUT(a)\nOUTPUT(nope)\nq = DFF(gone)\ny = NOT(a)\n",
       ".bench line 3: undefined signal 'gone'"},
  };
  for (const Case& c : cases) {
    try {
      (void)parse_bench(c.text);
      ADD_FAILURE() << "accepted: " << c.text;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), c.what) << c.text;
    }
  }
}

TEST(BenchParser, ConstantsRoundTrip) {
  // write_bench emits a constant as a zero-argument CONST0/CONST1 definition;
  // the parser creates it as a constant node at its Kahn position, so the
  // reload assigns the same ids and fingerprint.
  struct Case {
    const char* text;
    GateType type;
  };
  const Case cases[] = {
      {"INPUT(a)\nOUTPUT(y)\nk = CONST1()\ny = AND(a, k)\n",
       GateType::kConst1},
      {"INPUT(a)\nOUTPUT(y)\nk = CONST0()\ny = OR(a, k)\n",
       GateType::kConst0},
  };
  for (const Case& c : cases) {
    const Circuit parsed = parse_bench(c.text);
    const Circuit reloaded = parse_bench(write_bench(parsed));
    ASSERT_TRUE(reloaded.find("k").has_value()) << c.text;
    EXPECT_EQ(reloaded.type(*reloaded.find("k")), c.type) << c.text;
    EXPECT_EQ(circuit_fingerprint(reloaded), circuit_fingerprint(parsed))
        << c.text;
  }
}

/// FNV-1a 64 over 32-bit words, each array prefixed by its length.
std::uint64_t fnv1a_words(std::uint64_t h, std::span<const NodeId> words) {
  const auto mix = [&h](std::uint32_t w) {
    for (int b = 0; b < 4; ++b) {
      h ^= (w >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(static_cast<std::uint32_t>(words.size()));
  for (const NodeId w : words) mix(w);
  return h;
}

TEST(BenchParser, NodeOrderIsPinnedOnGeneratedProfiles) {
  // Node ids and fanout order decide the engines' summation order, and
  // circuit_fingerprint skips fanouts; the constants were recorded with the
  // string-keyed loader the current one replaced.
  struct Pin {
    const char* profile;
    std::uint64_t nodes;
    std::uint64_t digest;
    std::uint64_t fanout_digest;
    std::uint64_t outputs_digest;
  };
  const Pin pins[] = {
      {"s953", 440, 0xfddd8c024c4927a5ull, 0x7bb9ab05732b8a6full,
       0xb735e0efb274f35dull},
      {"s9234", 5844, 0x0a6f40d165eba9a0ull, 0x043c22599ab47320ull,
       0x5b72de1d10695264ull},
      {"s38417", 23843, 0xda30c536fe66c377ull, 0x03d40f5431f44dbbull,
       0x23c617b44fe1086dull},
  };
  for (const Pin& pin : pins) {
    const Circuit generated =
        generate_circuit(iscas89_profile(pin.profile), 1);
    const Circuit c = parse_bench(write_bench(generated), pin.profile);
    const CircuitFingerprint fp = circuit_fingerprint(c);
    std::uint64_t fanouts = 0xcbf29ce484222325ull;
    for (NodeId id = 0; id < c.node_count(); ++id) {
      fanouts = fnv1a_words(fanouts, c.fanout(id));
    }
    const std::uint64_t outputs =
        fnv1a_words(0xcbf29ce484222325ull, c.outputs());
    EXPECT_EQ(fp.nodes, pin.nodes) << pin.profile;
    EXPECT_EQ(fp.digest, pin.digest) << pin.profile;
    EXPECT_EQ(fanouts, pin.fanout_digest) << pin.profile;
    EXPECT_EQ(outputs, pin.outputs_digest) << pin.profile;
  }
}

TEST(BenchWriter, RoundTripC17) {
  const Circuit original = make_c17();
  const Circuit reparsed = parse_bench(write_bench(original), "c17");
  ASSERT_EQ(reparsed.node_count(), original.node_count());
  EXPECT_EQ(reparsed.inputs().size(), original.inputs().size());
  EXPECT_EQ(reparsed.outputs().size(), original.outputs().size());
  for (NodeId id = 0; id < original.node_count(); ++id) {
    const Node& o = original.node(id);
    const auto rid = reparsed.find(o.name);
    ASSERT_TRUE(rid.has_value()) << o.name;
    const Node& r = reparsed.node(*rid);
    EXPECT_EQ(r.type, o.type);
    ASSERT_EQ(r.fanin.size(), o.fanin.size());
    for (std::size_t k = 0; k < o.fanin.size(); ++k) {
      EXPECT_EQ(reparsed.node(r.fanin[k]).name, original.node(o.fanin[k]).name);
    }
    EXPECT_EQ(r.is_primary_output, o.is_primary_output);
  }
}

TEST(BenchWriter, RoundTripS27) {
  const Circuit original = make_s27();
  const Circuit reparsed = parse_bench(write_bench(original), "s27");
  EXPECT_EQ(reparsed.node_count(), original.node_count());
  EXPECT_EQ(reparsed.dffs().size(), original.dffs().size());
  EXPECT_EQ(reparsed.depth(), original.depth());
}

TEST(BenchFileIo, SaveAndLoad) {
  const std::string path = testing::TempDir() + "/sereep_c17.bench";
  ASSERT_TRUE(save_bench_file(make_c17(), path));
  const Circuit loaded = load_bench_file(path);
  EXPECT_EQ(loaded.gate_count(), 6u);
  EXPECT_EQ(loaded.name(), "sereep_c17");
}

TEST(BenchFileIo, MissingFileThrows) {
  EXPECT_THROW(load_bench_file("/nonexistent/x.bench"), std::runtime_error);
}

}  // namespace
}  // namespace sereep
