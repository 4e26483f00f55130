// CSV emission: the golden-pinned `sweep`/`ser` tables and the benches'
// CSV mirrors.
//
// CsvWriter appends each cell straight into one growing buffer, so a table
// of n rows costs one buffer (reserve it from n) and no per-cell string:
// text cells are copied in, quoted only when they hold a comma, a quote or
// a newline, and double cells are printed in place in the round-trip form
// every golden CSV is pinned at (format_round_trip's).
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>

namespace sereep {

/// Builds RFC-4180-ish CSV, header first (fields holding a comma, quote or
/// newline are quoted, with quotes doubled). A row is its cells, then
/// end_row(); a row shorter than the header is padded with empty fields.
class CsvWriter {
 public:
  /// Writes the header row; `reserve_bytes` sizes the buffer up front.
  explicit CsvWriter(std::initializer_list<std::string_view> header,
                     std::size_t reserve_bytes = 0);

  CsvWriter& cell(std::string_view text);
  /// The %.17g round-trip form (see format_round_trip).
  CsvWriter& cell(double value);
  void end_row();

  /// The CSV so far, header first.
  [[nodiscard]] const std::string& str() const& noexcept { return out_; }
  [[nodiscard]] std::string str() && noexcept { return std::move(out_); }

  /// Writes to `path`; returns false on I/O failure.
  bool write_file(const std::string& path) const;

 private:
  void separate();

  std::string out_;
  std::size_t columns_ = 0;
  std::size_t cells_ = 0;  ///< cells in the open row
};

}  // namespace sereep
