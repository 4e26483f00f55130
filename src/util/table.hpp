// ASCII table rendering for the benchmark harnesses.
//
// Every bench binary prints its results with this formatter so the rows of
// our Table-2 reproduction line up with the paper's layout.
#pragma once

#include <string>
#include <vector>

namespace sereep {

/// Column alignment for table cells.
enum class Align { kLeft, kRight };

/// Minimal monospace table builder.
///
/// Usage:
///   AsciiTable t({"Circuit", "SysT", "SimT"});
///   t.add_row({"s953", "0.35", "28.3"});
///   std::cout << t.render();
class AsciiTable {
 public:
  explicit AsciiTable(std::vector<std::string> header,
                      std::vector<Align> aligns = {});

  /// Appends a data row; the row may be shorter than the header (padded).
  void add_row(std::vector<std::string> cells);

  /// Appends a horizontal separator at this position.
  void add_separator();

  /// Renders the table with a header rule and outer border.
  [[nodiscard]] std::string render() const;

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

 private:
  struct Row {
    std::vector<std::string> cells;
    bool separator = false;
  };

  std::vector<std::string> header_;
  std::vector<Align> aligns_;
  std::vector<Row> rows_;
};

}  // namespace sereep
