#include "src/util/csv.hpp"

#include <fstream>

#include "src/util/strings.hpp"

namespace sereep {

CsvWriter::CsvWriter(std::initializer_list<std::string_view> header,
                     std::size_t reserve_bytes) {
  out_.reserve(reserve_bytes);
  for (const std::string_view name : header) cell(name);
  columns_ = header.size();
  end_row();
}

void CsvWriter::separate() {
  if (cells_++ != 0) out_ += ',';
}

CsvWriter& CsvWriter::cell(std::string_view text) {
  separate();
  if (text.find_first_of(",\"\n") == std::string_view::npos) {
    out_ += text;
    return *this;
  }
  out_ += '"';
  for (const char c : text) {
    if (c == '"') out_ += '"';
    out_ += c;
  }
  out_ += '"';
  return *this;
}

CsvWriter& CsvWriter::cell(double value) {
  separate();
  append_round_trip(out_, value);
  return *this;
}

void CsvWriter::end_row() {
  for (; cells_ < columns_; ++cells_) {
    if (cells_ != 0) out_ += ',';
  }
  out_ += '\n';
  cells_ = 0;
}

bool CsvWriter::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << out_;
  return static_cast<bool>(out);
}

}  // namespace sereep
