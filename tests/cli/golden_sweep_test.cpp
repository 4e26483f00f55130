// Golden-file regression for the CLI sweep output.
//
// `sereep sweep --csv` emits Session::sweep_csv() verbatim; these tests pin
// that text on the embedded c17 and s27 netlists against CSVs committed under
// tests/data/, with probabilities at full round-trip precision (%.17g). Any
// drift — a format change, a column rename, or a single ULP of numeric
// movement in the all-nodes sweep — fails ctest here instead of silently
// changing the Table-2 harness downstream.
//
// To regenerate after an INTENTIONAL change (document it in the PR):
//   build/sereep sweep c17 --csv=tests/data/sweep_c17.golden.csv
//   build/sereep sweep s27 --csv=tests/data/sweep_s27.golden.csv
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "sereep/sereep.hpp"
#include "src/netlist/benchmarks.hpp"

namespace sereep {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing golden file: " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

std::string golden_path(const char* name) {
  return std::string(SEREEP_SOURCE_DIR) + "/tests/data/" + name;
}

/// The CSV `sereep sweep --csv --engine=ENGINE --threads=N` prints.
std::string sweep_csv(Circuit circuit, unsigned threads,
                      const char* engine = "batched") {
  Options options;
  options.engine = engine;
  options.threads = threads;
  return Session(std::move(circuit), std::move(options)).sweep_csv();
}

TEST(GoldenSweep, C17MatchesCommittedCsv) {
  EXPECT_EQ(sweep_csv(make_c17(), 1),
            read_file(golden_path("sweep_c17.golden.csv")));
}

TEST(GoldenSweep, S27MatchesCommittedCsv) {
  EXPECT_EQ(sweep_csv(make_s27(), 1),
            read_file(golden_path("sweep_s27.golden.csv")));
}

TEST(GoldenSweep, TextIsIdenticalAtAnyThreadCount) {
  // The CSV is a pure function of the netlist: the batched parallel sweep
  // underneath must not let scheduling reach the output.
  const std::string t1 = sweep_csv(make_s27(), 1);
  EXPECT_EQ(sweep_csv(make_s27(), 2), t1);
  EXPECT_EQ(sweep_csv(make_s27(), 8), t1);
}

TEST(GoldenSweep, AllThreeEnginesMatchTheGoldens) {
  // `sereep sweep --engine=...` must be a pure re-route: every engine of the
  // oracle hierarchy reproduces the committed bytes exactly.
  for (const char* engine : {"reference", "compiled", "batched"}) {
    EXPECT_EQ(sweep_csv(make_c17(), 1, engine),
              read_file(golden_path("sweep_c17.golden.csv")))
        << engine;
    EXPECT_EQ(sweep_csv(make_s27(), 1, engine),
              read_file(golden_path("sweep_s27.golden.csv")))
        << engine;
  }
}

}  // namespace
}  // namespace sereep
