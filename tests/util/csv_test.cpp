#include "src/util/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "src/util/strings.hpp"

namespace sereep {
namespace {

TEST(Csv, HeaderFirst) {
  CsvWriter w({"a", "b"});
  w.cell("1").cell("2").end_row();
  EXPECT_EQ(w.str(), "a,b\n1,2\n");
}

TEST(Csv, PadsShortRows) {
  CsvWriter w({"a", "b", "c"});
  w.cell("1").end_row();
  w.end_row();
  EXPECT_EQ(w.str(), "a,b,c\n1,,\n,,\n");
}

TEST(Csv, QuotesSpecialCharacters) {
  CsvWriter w({"x", "y,z", "say \"hi\"", "two\nlines"});
  w.cell("has,comma").cell("has\"quote").cell("has\nnewline").cell("plain");
  w.end_row();
  EXPECT_EQ(w.str(),
            "x,\"y,z\",\"say \"\"hi\"\"\",\"two\nlines\"\n"
            "\"has,comma\",\"has\"\"quote\",\"has\nnewline\",plain\n");
}

TEST(Csv, DoubleCellsMatchFormatRoundTrip) {
  const double values[] = {0.0,
                           1.0,
                           0.1,
                           1.0 / 3.0,
                           5e-324,
                           2.2250738585072014e-308,
                           1e-300,
                           0.9999999999999999,
                           std::numeric_limits<double>::max(),
                           -0.25};
  CsvWriter w({"v"});
  std::string want = "v\n";
  for (const double v : values) {
    w.cell(v).end_row();
    want += format_round_trip(v) + "\n";
    // Both print what printf("%.17g") prints.
    char printf_form[40];
    std::snprintf(printf_form, sizeof printf_form, "%.17g", v);
    EXPECT_EQ(format_round_trip(v), printf_form);
  }
  EXPECT_EQ(w.str(), want);
}

TEST(Csv, WriteFileRoundTrip) {
  CsvWriter w({"n", "v"});
  w.cell("c17").cell("6").end_row();
  const std::string path = testing::TempDir() + "/sereep_csv_test.csv";
  ASSERT_TRUE(w.write_file(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), w.str());
}

}  // namespace
}  // namespace sereep
