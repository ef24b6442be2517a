#pragma once

/// \file binary_io.hpp
/// Binary CSR serialization. The paper's artifact shipped its SuiteSparse
/// inputs as `.mtx.bin` files because Matrix Market text parsing dominates
/// setup time at these sizes; this is the equivalent facility (own format:
/// magic + version + dims + raw little-endian arrays, with validation on
/// load). Dimensions and indices are int64 on disk and 32-bit in memory
/// (csr.hpp); the reader range-checks each one before narrowing it.

#include <istream>
#include <ostream>
#include <string>

#include "sparse/csr.hpp"

namespace dsouth::sparse {

/// Write a matrix in dsouth binary CSR format.
void write_binary_csr(std::ostream& out, const CsrMatrix& a);
void write_binary_csr_file(const std::string& path, const CsrMatrix& a);

/// Read a matrix written by write_binary_csr. Throws CheckError on bad
/// magic, version mismatch, truncation, structural corruption, or a
/// dimension, nonzero count or index outside the 32-bit CSR range. The
/// header is checked before anything is allocated, and the arrays are
/// read a chunk at a time, so a header that promises more than the stream
/// holds costs memory in proportion to the bytes actually present.
CsrMatrix read_binary_csr(std::istream& in);
CsrMatrix read_binary_csr_file(const std::string& path);

/// Load a matrix by file extension: ".bin" → binary CSR, anything else →
/// Matrix Market text (mirrors the artifact's -mat_file handling).
CsrMatrix load_matrix_any(const std::string& path);

}  // namespace dsouth::sparse
