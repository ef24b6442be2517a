#include "sparse/mm_io.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "sparse/coo.hpp"
#include "util/error.hpp"

namespace dsouth::sparse {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  DSOUTH_CHECK_MSG(std::getline(in, line), "empty Matrix Market stream");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  DSOUTH_CHECK_MSG(banner == "%%MatrixMarket", "bad banner '" << banner << "'");
  DSOUTH_CHECK_MSG(lower(object) == "matrix", "unsupported object " << object);
  DSOUTH_CHECK_MSG(lower(format) == "coordinate",
                   "only coordinate format supported, got " << format);
  field = lower(field);
  symmetry = lower(symmetry);
  DSOUTH_CHECK_MSG(field == "real" || field == "integer" || field == "pattern",
                   "unsupported field " << field);
  DSOUTH_CHECK_MSG(symmetry == "general" || symmetry == "symmetric",
                   "unsupported symmetry " << symmetry);

  // Skip comments / blank lines to the size line.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  index_t rows = 0, cols = 0;
  long long entries = 0;
  size_line >> rows >> cols >> entries;
  DSOUTH_CHECK_MSG(!size_line.fail(),
                   "size line '" << line
                                 << "' needs rows, columns and an entry count");
  DSOUTH_CHECK_MSG(rows > 0 && cols > 0 && entries >= 0,
                   "bad size line '" << line << "'");
  DSOUTH_CHECK_MSG(rows <= kMaxCsrIndex && cols <= kMaxCsrIndex &&
                       entries <= kMaxCsrIndex,
                   "size line '" << line
                                 << "' exceeds the 32-bit CSR index limit");

  CooBuilder coo(rows, cols);
  const bool sym = (symmetry == "symmetric");
  for (long long e = 0; e < entries; ++e) {
    DSOUTH_CHECK_MSG(std::getline(in, line),
                     "unexpected EOF at entry " << e << " of " << entries);
    if (line.empty()) {
      --e;
      continue;
    }
    std::istringstream entry(line);
    index_t i = 0, j = 0;
    value_t v = 1.0;
    entry >> i >> j;
    if (field != "pattern") entry >> v;
    DSOUTH_CHECK_MSG(!entry.fail(), "bad entry line '" << line << "'");
    // Range-checked before the 1-based shift, which would overflow on a
    // hostile index such as INT64_MIN.
    DSOUTH_CHECK_MSG(i >= 1 && i <= rows && j >= 1 && j <= cols,
                     "entry (" << i << "," << j << ") out of " << rows << "x"
                               << cols << " in line '" << line << "'");
    // Matrix Market is 1-based.
    if (sym) {
      coo.add_sym(i - 1, j - 1, v);
    } else {
      coo.add(i - 1, j - 1, v);
    }
  }
  return coo.to_csr();
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  DSOUTH_CHECK_MSG(in.good(), "cannot open '" << path << "'");
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& a,
                         bool symmetric) {
  if (symmetric) DSOUTH_CHECK_MSG(a.is_symmetric(0.0), "matrix not symmetric");
  out << "%%MatrixMarket matrix coordinate real "
      << (symmetric ? "symmetric" : "general") << "\n";
  // Count emitted entries first (lower triangle only when symmetric).
  long long count = 0;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j : a.row_cols(i)) {
      if (!symmetric || j <= i) ++count;
    }
  }
  out << a.rows() << " " << a.cols() << " " << count << "\n";
  out.precision(17);
  for (index_t i = 0; i < a.rows(); ++i) {
    auto cols = a.row_cols(i);
    auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (symmetric && cols[k] > i) continue;
      out << (i + 1) << " " << (cols[k] + 1) << " " << vals[k] << "\n";
    }
  }
}

void write_matrix_market_file(const std::string& path, const CsrMatrix& a,
                              bool symmetric) {
  std::ofstream out(path);
  DSOUTH_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  write_matrix_market(out, a, symmetric);
}

}  // namespace dsouth::sparse
