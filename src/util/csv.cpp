#include "util/csv.hpp"

#include "util/expect.hpp"

namespace erapid::util {

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> header)
    : out_(path), width_(header.size()) {
  if (out_) row(header);
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  ERAPID_EXPECT(cells.size() == width_, "CSV row width must match header");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string quoted = "\"";
  for (char c : cell) {
    if (c == '"') quoted += '"';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

}  // namespace erapid::util
