#include "util/csv.hpp"

#include <cstdio>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "util/error.hpp"

namespace dsouth::util {

CsvWriter::CsvWriter(const std::string& path,
                     std::vector<std::string> headers)
    : path_(path),
      tmp_path_(path + ".tmp"),
      out_(tmp_path_),
      arity_(headers.size()) {
  DSOUTH_CHECK_MSG(out_.good(), "cannot open CSV file '" << tmp_path_ << "'");
  DSOUTH_CHECK(arity_ > 0);
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(headers[i]);
  }
  out_ << '\n';
}

CsvWriter::~CsvWriter() {
  out_.close();
  if (std::uncaught_exceptions() > 0) {
    std::remove(tmp_path_.c_str());  // a throw: keep the old file
  } else if (out_.fail() ||
             std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    std::cerr << "cannot write CSV file '" << path_ << "'\n";
    std::remove(tmp_path_.c_str());
  }
}

std::string CsvWriter::escape(const std::string& cell) {
  bool needs_quotes = cell.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  DSOUTH_CHECK_MSG(cells.size() == arity_,
                   "CSV row arity " << cells.size() << ", want " << arity_);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
  ++rows_;
}

void CsvWriter::write_row(const std::vector<double>& values) {
  std::vector<std::string> cells;
  cells.reserve(values.size());
  for (double v : values) {
    std::ostringstream os;
    os << std::setprecision(17) << v;
    cells.push_back(os.str());
  }
  write_row(cells);
}

}  // namespace dsouth::util
