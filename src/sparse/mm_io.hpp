#pragma once

/// \file mm_io.hpp
/// Matrix Market (coordinate format) I/O. The paper's artifact loads
/// SuiteSparse matrices from .mtx-derived binaries; this reader lets users
/// run the solvers on real SuiteSparse downloads if they have them, and the
/// writer round-trips generated matrices for external inspection.

#include <istream>
#include <ostream>
#include <string>

#include "sparse/csr.hpp"

namespace dsouth::sparse {

/// Read a Matrix Market coordinate file. Supports:
///  - field: real, integer, pattern (pattern entries become 1.0)
///  - symmetry: general, symmetric (symmetric entries are mirrored)
/// Throws CheckError on malformed input, unsupported variants (complex,
/// skew-symmetric, hermitian, array format), a size line above the 32-bit
/// CSR limit (checked before anything is allocated) or an entry outside
/// the declared size.
CsrMatrix read_matrix_market(std::istream& in);
CsrMatrix read_matrix_market_file(const std::string& path);

/// Write in coordinate/real format. If `symmetric` is set, only the lower
/// triangle is emitted and the header declares symmetric (the matrix must
/// actually be symmetric; validated).
void write_matrix_market(std::ostream& out, const CsrMatrix& a,
                         bool symmetric = false);
void write_matrix_market_file(const std::string& path, const CsrMatrix& a,
                              bool symmetric = false);

}  // namespace dsouth::sparse
