#include "src/epp/multicycle.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/netlist/benchmarks.hpp"
#include "src/netlist/generator.hpp"
#include "src/sim/fault_injection.hpp"

namespace sereep {
namespace {

/// a ->(AND b) -> ff1 -> ff2 -> po_gate. The error must take exactly 3
/// cycles to surface: latch into ff1 (cycle 1), move to ff2 (cycle 2),
/// appear at the PO (cycle 3).
struct PipelineFixture {
  Circuit c;
  NodeId a, b, g, ff1, ff2, po;
  PipelineFixture() {
    a = c.add_input("a");
    b = c.add_input("b");
    g = c.add_gate(GateType::kAnd, "g", {a, b});
    ff1 = c.add_dff_placeholder("ff1");
    c.connect_dff(ff1, g);
    NodeId buf1 = c.add_gate(GateType::kBuf, "buf1", {ff1});
    ff2 = c.add_dff_placeholder("ff2");
    c.connect_dff(ff2, buf1);
    po = c.add_gate(GateType::kBuf, "po", {ff2});
    c.mark_output(po);
    c.finalize();
  }
};

TEST(MultiCycleEpp, PipelineLatencyIsVisible) {
  PipelineFixture f;
  const SignalProbabilities sp = parker_mccluskey_sp(f.c);
  const CompiledCircuit compiled(f.c);
  MultiCycleEppEngine engine(f.c, compiled, sp, {});

  const MultiCycleEpp r = engine.compute(f.g, 5);
  ASSERT_GE(r.detect_by_cycle.size(), 3u);
  // Cycle 1: error only latched, no PO reachable combinationally.
  EXPECT_NEAR(r.detect_by_cycle[0], 0.0, 1e-12);
  // Cycle 2: error sits in ff1, still not at the PO.
  EXPECT_NEAR(r.detect_by_cycle[1], 0.0, 1e-12);
  // Cycle 3: error reaches the PO through ff2 with certainty (buffers only).
  EXPECT_NEAR(r.detect_by_cycle[2], 1.0, 1e-12);
}

TEST(MultiCycleEpp, CycleOneMatchesSingleCycleEppForPoOnlyCircuit) {
  const Circuit c = make_c17();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine single(c, sp);
  const CompiledCircuit compiled(c);
  MultiCycleEppEngine multi(c, compiled, sp, {});
  for (NodeId site : error_sites(c)) {
    const MultiCycleEpp r = multi.compute(site, 1);
    EXPECT_NEAR(r.detect_by_cycle[0], single.p_sensitized(site), 1e-12)
        << c.node(site).name;
  }
}

TEST(MultiCycleEpp, DetectionIsMonotoneInCycles) {
  const Circuit c = make_s27();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit compiled(c);
  MultiCycleEppEngine engine(c, compiled, sp, {});
  for (NodeId site : error_sites(c)) {
    const MultiCycleEpp r = engine.compute(site, 12);
    for (std::size_t t = 1; t < r.detect_by_cycle.size(); ++t) {
      EXPECT_GE(r.detect_by_cycle[t] + 1e-12, r.detect_by_cycle[t - 1])
          << c.node(site).name << " cycle " << t;
    }
  }
}

TEST(MultiCycleEpp, ResidualDecaysOnS27) {
  const Circuit c = make_s27();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit compiled(c);
  MultiCycleEppEngine engine(c, compiled, sp, {});
  const MultiCycleEpp r = engine.compute(c.dffs()[0], 64);
  ASSERT_GE(r.residual_state.size(), 2u);
  // After many cycles the state error must have decayed substantially.
  EXPECT_LT(r.residual_state.back(), r.residual_state.front() + 1e-12);
}

TEST(MultiCycleEpp, MatchesSequentialFaultInjectionOnPipeline) {
  PipelineFixture f;
  const SignalProbabilities sp = parker_mccluskey_sp(f.c);
  const CompiledCircuit compiled(f.c);
  MultiCycleEppEngine engine(f.c, compiled, sp, {});
  FaultInjector fi(f.c);
  McOptions opt;
  opt.num_vectors = 1 << 14;

  for (std::size_t cycles : {1u, 2u, 3u, 4u}) {
    const double analytic = engine.compute(f.g, cycles).detect_within(cycles);
    const double mc =
        fi.run_site_multicycle(f.g, cycles, opt).probability();
    EXPECT_NEAR(analytic, mc, 0.02) << "cycles=" << cycles;
  }
}

TEST(MultiCycleEpp, CloseToSequentialFaultInjectionOnS27) {
  const Circuit c = make_s27();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit compiled(c);
  MultiCycleEppEngine engine(c, compiled, sp, {});
  FaultInjector fi(c);
  McOptions opt;
  opt.num_vectors = 1 << 14;

  double total_err = 0;
  std::size_t n = 0;
  for (NodeId site : error_sites(c)) {
    const double analytic = engine.compute(site, 6).detect_within(6);
    const double mc = fi.run_site_multicycle(site, 6, opt).probability();
    total_err += std::fabs(analytic - mc);
    ++n;
  }
  // Cross-cycle independence is an approximation; stay within ~15% mean.
  EXPECT_LT(total_err / static_cast<double>(n), 0.15);
}

TEST(MultiCycleEpp, DetectEventuallyBoundsDetectWithin) {
  const Circuit c = make_iscas89_like("s298");
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit compiled(c);
  MultiCycleEppEngine engine(c, compiled, sp, {});
  for (NodeId site : subsample_sites(error_sites(c), 20)) {
    const double ever = engine.detect_eventually(site, 1e-9, 500);
    const double at8 = engine.compute(site, 8).detect_within(8);
    EXPECT_GE(ever + 1e-9, at8) << c.node(site).name;
    EXPECT_LE(ever, 1.0 + 1e-12);
  }
}

TEST(MultiCycleEpp, ZeroCyclesIsZero) {
  const Circuit c = make_s27();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit compiled(c);
  MultiCycleEppEngine engine(c, compiled, sp, {});
  EXPECT_DOUBLE_EQ(engine.compute(0, 0).detect_within(0), 0.0);
}

TEST(SequentialFaultInjection, MoreCyclesDetectMore) {
  const Circuit c = make_s27();
  FaultInjector fi(c);
  McOptions opt;
  opt.num_vectors = 4096;
  const NodeId site = *c.find("G13");
  const double d1 = fi.run_site_multicycle(site, 1, opt).probability();
  const double d8 = fi.run_site_multicycle(site, 8, opt).probability();
  EXPECT_GE(d8 + 0.02, d1);
}

// ---- FF-matrix rebuild: batched/parallel route vs sequential oracle -------
//
// The engine's constructor now builds the FF→{PO, FF} matrix through the
// batched cone-sharing sweep (sweep_sites records). These tests rebuild
// the matrix the pre-batching way — one CompiledEppEngine::compute per
// flip-flop, in dffs() order — and demand exact equality (EXPECT_EQ, no
// tolerance) at several thread counts, including the 0-FF and single-FF
// edge cases.

/// The sequential oracle: a verbatim replay of the original per-FF loop.
std::vector<MultiCycleEppEngine::FfRow> sequential_ff_rows(
    const Circuit& circuit, const SignalProbabilities& sp,
    EppOptions options = {}) {
  const CompiledCircuit compiled(circuit);
  CompiledEppEngine engine(compiled, sp, options);
  const auto dffs = circuit.dffs();
  std::vector<std::size_t> ff_index(circuit.node_count(),
                                    static_cast<std::size_t>(-1));
  for (std::size_t k = 0; k < dffs.size(); ++k) ff_index[dffs[k]] = k;
  std::vector<MultiCycleEppEngine::FfRow> rows(dffs.size());
  for (std::size_t k = 0; k < dffs.size(); ++k) {
    const SiteEpp epp = engine.compute(dffs[k]);
    MultiCycleEppEngine::FfRow& row = rows[k];
    double po_miss = 1.0;
    for (const SinkEpp& s : epp.sinks) {
      if (s.sink == dffs[k]) {
        if (epp.self_dpin_mass > 0.0) {
          row.to_ff.emplace_back(k, epp.self_dpin_mass);
        }
        continue;
      }
      if (circuit.type(s.sink) == GateType::kDff) {
        row.to_ff.emplace_back(ff_index[s.sink], s.error_mass);
      } else {
        po_miss *= 1.0 - s.error_mass;
      }
    }
    row.to_po = 1.0 - po_miss;
  }
  return rows;
}

void expect_ff_rows_equal(
    const std::vector<MultiCycleEppEngine::FfRow>& expected,
    const std::vector<MultiCycleEppEngine::FfRow>& got) {
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(got[k].to_po, expected[k].to_po) << "ff " << k;
    ASSERT_EQ(got[k].to_ff.size(), expected[k].to_ff.size()) << "ff " << k;
    for (std::size_t j = 0; j < expected[k].to_ff.size(); ++j) {
      EXPECT_EQ(got[k].to_ff[j].first, expected[k].to_ff[j].first)
          << "ff " << k << " entry " << j;
      EXPECT_EQ(got[k].to_ff[j].second, expected[k].to_ff[j].second)
          << "ff " << k << " entry " << j;
    }
  }
}

TEST(MultiCycleEpp, FfMatrixBatchedRouteMatchesSequentialOnS27) {
  const Circuit c = make_s27();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const auto expected = sequential_ff_rows(c, sp);
  const CompiledCircuit compiled(c);
  for (unsigned threads : {1u, 2u, 8u}) {
    MultiCycleEppEngine engine(c, compiled, sp, {}, threads);
    expect_ff_rows_equal(expected, engine.ff_rows());
  }
}

TEST(MultiCycleEpp, FfMatrixBatchedRouteMatchesSequentialOnGeneratedProfile) {
  GeneratorProfile p;
  p.name = "mc_seq_gen";
  p.num_inputs = 16;
  p.num_outputs = 8;
  p.num_dffs = 120;
  p.num_gates = 900;
  p.target_depth = 12;
  const Circuit c = generate_circuit(p, 4242);
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const auto expected = sequential_ff_rows(c, sp);
  const CompiledCircuit compiled(c);
  MultiCycleEppEngine engine(c, compiled, sp, {}, 4);
  expect_ff_rows_equal(expected, engine.ff_rows());
}

TEST(MultiCycleEpp, FfMatrixZeroFfCircuitIsEmptyAndEngineStillWorks) {
  const Circuit c = make_c17();  // purely combinational
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit compiled(c);
  MultiCycleEppEngine engine(c, compiled, sp, {}, 2);
  EXPECT_TRUE(engine.ff_rows().empty());
  // With no state, detection is decided entirely in cycle 1 and nothing
  // lingers.
  CompiledEppEngine single(compiled, sp);
  for (NodeId site : error_sites(c)) {
    const MultiCycleEpp r = engine.compute(site, 4);
    ASSERT_GE(r.detect_by_cycle.size(), 1u);
    EXPECT_EQ(r.detect_by_cycle[0], single.compute(site).p_sensitized);
    for (std::size_t t = 0; t < r.detect_by_cycle.size(); ++t) {
      EXPECT_EQ(r.detect_by_cycle[t], r.detect_by_cycle[0]);  // no state left
      EXPECT_EQ(r.residual_state[t], 0.0);
    }
  }
}

TEST(MultiCycleEpp, FfMatrixSingleFfWithFeedback) {
  // One flip-flop holding AND(in, ff): a genuine self-feedback loop plus a
  // PO tap — the smallest circuit where the self-entry of the matrix is
  // nonzero.
  Circuit c;
  const NodeId in = c.add_input("in");
  const NodeId ff = c.add_dff_placeholder("ff");
  const NodeId g = c.add_gate(GateType::kAnd, "g", {in, ff});
  c.connect_dff(ff, g);
  const NodeId po = c.add_gate(GateType::kBuf, "po", {g});
  c.mark_output(po);
  c.finalize();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const auto expected = sequential_ff_rows(c, sp);
  ASSERT_EQ(expected.size(), 1u);
  ASSERT_EQ(expected[0].to_ff.size(), 1u);  // the self-feedback entry
  EXPECT_GT(expected[0].to_ff[0].second, 0.0);
  EXPECT_GT(expected[0].to_po, 0.0);
  const CompiledCircuit compiled(c);
  for (unsigned threads : {1u, 3u}) {
    MultiCycleEppEngine engine(c, compiled, sp, {}, threads);
    expect_ff_rows_equal(expected, engine.ff_rows());
  }
}

}  // namespace
}  // namespace sereep
