// Shared assertions for the engine-equivalence suites: two SiteEpp records
// must match bit for bit — EXPECT_EQ on doubles, no tolerance — including
// every component of every per-sink Prob4 distribution. Sinks are compared
// by id (robust to tie-order among DFFs sharing a D pin, which carry
// identical latched distributions — and latch weights — by construction).
// A rows-sweep row must equal the reference fold of the site's record, and
// two result tables (NodeSer rows) must match field for field; the
// sweep-driver helpers run both output forms over a site list.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <vector>

#include "src/epp/epp_engine.hpp"
#include "src/netlist/circuit.hpp"
#include "src/netlist/compiled.hpp"
#include "src/netlist/cone_cluster.hpp"
#include "src/ser/latching.hpp"
#include "src/ser/ser_estimator.hpp"

namespace sereep::testutil {

inline void expect_site_epp_equal(const Circuit& c, const SiteEpp& ref,
                                  const SiteEpp& cmp) {
  EXPECT_EQ(cmp.site, ref.site);
  EXPECT_EQ(cmp.cone_size, ref.cone_size);
  EXPECT_EQ(cmp.reconvergent_gates, ref.reconvergent_gates);
  EXPECT_EQ(cmp.p_sensitized, ref.p_sensitized);
  EXPECT_EQ(cmp.p_sens_lower, ref.p_sens_lower);
  EXPECT_EQ(cmp.p_sens_upper, ref.p_sens_upper);
  EXPECT_EQ(cmp.self_dpin_mass, ref.self_dpin_mass);
  ASSERT_EQ(cmp.sinks.size(), ref.sinks.size()) << c.node(ref.site).name;
  std::map<NodeId, const SinkEpp*> by_sink;
  for (const SinkEpp& s : ref.sinks) by_sink[s.sink] = &s;
  for (const SinkEpp& s : cmp.sinks) {
    ASSERT_TRUE(by_sink.count(s.sink)) << c.node(s.sink).name;
    const SinkEpp& r = *by_sink[s.sink];
    EXPECT_EQ(s.error_mass, r.error_mass) << c.node(s.sink).name;
    for (int k = 0; k < kSymCount; ++k) {
      EXPECT_EQ(s.distribution.p[k], r.distribution.p[k])
          << c.node(s.sink).name << " component " << k;
    }
  }
}

/// The reference rows-sweep row of one site: P_sensitized and the
/// latch-weighted fold taken over its reference record, sink by sink.
inline SiteRow reference_row(const Circuit& c, const SiteEpp& ref,
                             const LatchingModel& latching) {
  double miss = 1.0;
  for (const SinkEpp& s : ref.sinks) {
    miss *= 1.0 - latching.probability(c, s.sink) * s.error_mass;
  }
  return {.site = ref.site,
          .p_sensitized = ref.p_sensitized,
          .latched = 1.0 - miss};
}

inline void expect_row_equal(const Circuit& c, const SiteRow& want,
                             const SiteRow& got) {
  EXPECT_EQ(got.site, want.site);
  EXPECT_EQ(got.p_sensitized, want.p_sensitized) << c.node(want.site).name;
  EXPECT_EQ(got.latched, want.latched) << c.node(want.site).name;
}

/// Two result tables' rows, every field EXPECT_EQ (no tolerance).
inline void expect_rows_equal(std::span<const NodeSer> want,
                              std::span<const NodeSer> got) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << "row " << i;
    EXPECT_EQ(got[i].r_seu, want[i].r_seu) << "row " << i;
    EXPECT_EQ(got[i].p_latched, want[i].p_latched) << "row " << i;
    EXPECT_EQ(got[i].p_sensitized, want[i].p_sensitized) << "row " << i;
    EXPECT_EQ(got[i].ser, want[i].ser) << "row " << i;
  }
}

/// The sweep driver over `sites` of `c` (a fresh compiled view and plan):
/// rows weighed by `latching`, out[i] for sites[i].
inline std::vector<SiteRow> swept_rows(const Circuit& c,
                                       std::span<const NodeId> sites,
                                       const SignalProbabilities& sp,
                                       EppOptions options, unsigned threads,
                                       const LatchingModel& latching = {}) {
  const CompiledCircuit cc(c);
  std::vector<SiteRow> rows(sites.size());
  sweep_sites(cc, ConeClusterPlanner(cc), sites, sp, options, threads,
              {.rows = rows, .latch_weights = latching.weights(c)});
  return rows;
}

/// Same, full records.
inline std::vector<SiteEpp> swept_records(const Circuit& c,
                                          std::span<const NodeId> sites,
                                          const SignalProbabilities& sp,
                                          EppOptions options,
                                          unsigned threads) {
  const CompiledCircuit cc(c);
  std::vector<SiteEpp> records(sites.size());
  sweep_sites(cc, ConeClusterPlanner(cc), sites, sp, options, threads,
              {.records = records});
  return records;
}

}  // namespace sereep::testutil
