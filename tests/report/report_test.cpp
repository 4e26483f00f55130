#include "src/report/report.hpp"

#include <gtest/gtest.h>

#include "sereep/sereep.hpp"
#include "src/netlist/benchmarks.hpp"
#include "src/netlist/generator.hpp"

namespace sereep {
namespace {

std::string report_of(Circuit circuit, const ReportOptions& options = {},
                      Options session_options = {}) {
  Session session(std::move(circuit), std::move(session_options));
  return generate_report(session, options);
}

TEST(Report, ContainsAllSections) {
  const std::string md = report_of(make_s27());
  EXPECT_NE(md.find("# Soft-error reliability report: s27"), std::string::npos);
  EXPECT_NE(md.find("## Circuit structure"), std::string::npos);
  EXPECT_NE(md.find("## Signal probability"), std::string::npos);
  EXPECT_NE(md.find("## SER estimate"), std::string::npos);
  EXPECT_NE(md.find("## Hardening recommendation"), std::string::npos);
  EXPECT_EQ(md.find("## Validation"), std::string::npos)
      << "validation section must be opt-in";
}

TEST(Report, ValidationSectionOptIn) {
  ReportOptions opt;
  opt.validate_with_simulation = true;
  opt.validation_sites = 10;
  opt.validation_vectors = 1024;
  const std::string md = report_of(make_c17(), opt);
  EXPECT_NE(md.find("## Validation against fault injection"),
            std::string::npos);
  EXPECT_NE(md.find("mean |EPP"), std::string::npos);
}

TEST(Report, SequentialSpNoted) {
  Options options;
  options.sp.source = SpSource::kSequentialFixedPoint;
  const std::string md = report_of(make_s27(), {}, std::move(options));
  EXPECT_NE(md.find("sequential fixed point"), std::string::npos);
}

TEST(Report, TopNodesRespected) {
  ReportOptions opt;
  opt.top_nodes = 3;
  const std::string md = report_of(make_iscas89_like("s298"), opt);
  EXPECT_NE(md.find("| 3 |"), std::string::npos);
  EXPECT_EQ(md.find("| 4 |"), std::string::npos);
}

TEST(Report, MentionsFitAndStructure) {
  const std::string md = report_of(make_c17());
  EXPECT_NE(md.find("FIT"), std::string::npos);
  EXPECT_NE(md.find("| Combinational gates | 6 |"), std::string::npos);
}

TEST(Report, WorksOnCombinationalAndSequential) {
  for (const char* name : {"c17", "s27", "c432", "s298"}) {
    const std::string md = report_of(make_circuit(name));
    EXPECT_GT(md.size(), 500u) << name;
  }
}

}  // namespace
}  // namespace sereep
