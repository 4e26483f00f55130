// Compiled-vs-reference equivalence: the compiled flat-CSR EPP path must be
// bit-for-bit equal to the reference EppEngine — EXPECT_EQ on doubles, no
// tolerance. Any valid topological propagation order yields identical
// distributions, and the compiled sink sequence reproduces the reference
// fold order exactly; these tests pin that contract.
#include "src/epp/compiled_epp.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/epp/epp_engine.hpp"
#include "src/netlist/benchmarks.hpp"
#include "src/netlist/compiled.hpp"
#include "src/netlist/generator.hpp"
#include "src/sim/fault_injection.hpp"
#include "tests/epp/site_epp_testutil.hpp"

namespace sereep {
namespace {

Circuit make_generated() {
  GeneratorProfile p;
  p.name = "cmp_epp_gen";
  p.num_inputs = 24;
  p.num_outputs = 16;
  p.num_dffs = 100;
  p.num_gates = 2000;
  p.target_depth = 14;
  return generate_circuit(p, 2024);
}

std::vector<Circuit> test_circuits() {
  std::vector<Circuit> out;
  out.push_back(make_c17());
  out.push_back(make_s27());
  out.push_back(make_iscas89_like("s953"));
  out.push_back(make_generated());
  return out;
}

using testutil::expect_site_epp_equal;

TEST(CompiledEppEngine, PSensitizedBitIdenticalToReference) {
  // row() adds the latch-weighted fold; a PO weight below the DFF weight
  // makes a wrong weight on either sink kind visible.
  LatchingModel latching(1.5, 0.1, 0.2);
  latching.set_po_probability(0.5);
  for (const Circuit& c : test_circuits()) {
    const SignalProbabilities sp = parker_mccluskey_sp(c);
    EppEngine reference(c, sp);
    const CompiledCircuit cc(c);
    CompiledEppEngine compiled(cc, sp);
    const std::vector<double> weights = latching.weights(c);
    for (NodeId site : error_sites(c)) {
      EXPECT_EQ(compiled.p_sensitized(site), reference.p_sensitized(site))
          << c.name() << " site " << c.node(site).name;
      testutil::expect_row_equal(
          c, testutil::reference_row(c, reference.compute(site), latching),
          compiled.row(site, weights));
    }
  }
}

TEST(CompiledEppEngine, ComputeBitIdenticalToReference) {
  for (const Circuit& c : test_circuits()) {
    const SignalProbabilities sp = parker_mccluskey_sp(c);
    EppEngine reference(c, sp);
    const CompiledCircuit cc(c);
    CompiledEppEngine compiled(cc, sp);
    for (NodeId site : error_sites(c)) {
      expect_site_epp_equal(c, reference.compute(site),
                            compiled.compute(site));
    }
  }
}

TEST(CompiledEppEngine, OptionVariantsStayBitIdentical) {
  const Circuit c = make_iscas89_like("s953");
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit cc(c);
  for (const EppOptions& options :
       {EppOptions{.track_polarity = false},
        EppOptions{.electrical_survival = 0.9},
        EppOptions{.track_polarity = false, .electrical_survival = 0.75}}) {
    EppEngine reference(c, sp, options);
    CompiledEppEngine compiled(cc, sp, options);
    for (NodeId site : error_sites(c)) {
      EXPECT_EQ(compiled.p_sensitized(site), reference.p_sensitized(site))
          << c.node(site).name;
    }
  }
}

TEST(CompiledEppEngine, ParallelSweepMatchesSequentialAt1_2_8Threads) {
  for (const Circuit& c : test_circuits()) {
    const SignalProbabilities sp = parker_mccluskey_sp(c);
    EppEngine reference(c, sp);
    const CompiledCircuit cc(c);
    CompiledEppEngine compiled(cc, sp);
    const std::vector<NodeId> sites = error_sites(c);
    const std::vector<double> weights = LatchingModel{}.weights(c);
    std::vector<SiteRow> sequential;
    for (NodeId site : sites) sequential.push_back(compiled.row(site, weights));
    for (unsigned threads : {1u, 2u, 8u}) {
      const std::vector<SiteRow> parallel =
          testutil::swept_rows(c, sites, sp, {}, threads);
      ASSERT_EQ(parallel.size(), sequential.size());
      for (std::size_t i = 0; i < sites.size(); ++i) {
        testutil::expect_row_equal(c, sequential[i], parallel[i]);
      }
    }
    // ... and the whole stack stays pinned to the reference engine.
    for (std::size_t i = 0; i < sites.size(); ++i) {
      EXPECT_EQ(sequential[i].p_sensitized, reference.p_sensitized(sites[i]));
    }
  }
}

TEST(CompiledEppEngine, ComputeAllParallelMatchesPerSiteCompute) {
  const Circuit c = make_iscas89_like("s953");
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  const CompiledCircuit cc(c);
  CompiledEppEngine engine(cc, sp);
  const std::vector<NodeId> sites = error_sites(c);

  const std::vector<SiteEpp> batch =
      testutil::swept_records(c, sites, sp, {}, 4);
  ASSERT_EQ(batch.size(), sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    EXPECT_EQ(batch[i].site, sites[i]);  // error_sites order preserved
    expect_site_epp_equal(c, engine.compute(sites[i]), batch[i]);
  }

  const std::vector<NodeId> sample = subsample_sites(sites, 7);
  const std::vector<SiteEpp> sampled =
      testutil::swept_records(c, sample, sp, {}, 2);
  ASSERT_EQ(sampled.size(), 7u);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    expect_site_epp_equal(c, engine.compute(sample[i]), sampled[i]);
  }
}

TEST(CompiledEppEngine, LastDistributionMatchesReference) {
  const Circuit c = make_s27();
  const SignalProbabilities sp = parker_mccluskey_sp(c);
  EppEngine reference(c, sp);
  const CompiledCircuit cc(c);
  CompiledEppEngine compiled(cc, sp);
  for (NodeId site : error_sites(c)) {
    const SiteEpp ref = reference.compute(site);
    (void)compiled.compute(site);
    for (const SinkEpp& s : ref.sinks) {
      for (int k = 0; k < kSymCount; ++k) {
        EXPECT_EQ(compiled.last_distribution(s.sink).p[k],
                  s.distribution.p[k]);
      }
    }
  }
}

}  // namespace
}  // namespace sereep
