#pragma once

/// \file types.hpp
/// Common index/value typedefs for the sparse kernels.

#include <cstdint>
#include <limits>

namespace dsouth::sparse {

/// Row/column counts and index lists outside CSR storage: vectors, layout
/// row lists, graphs, partitions. 64-bit, so arithmetic on counts never
/// needs a width check.
using index_t = std::int64_t;

/// The index type CsrMatrix stores: row offsets, column indices and
/// diagonal positions. 32-bit, because a relax sweep streams one per
/// nonzero (12 B per nonzero with the value instead of 16); the paper's
/// largest matrix (1.5 M rows, at most 80 nonzeros a row) fits about 18
/// times over. Rows, columns and nonzeros are each limited to
/// kMaxCsrIndex, checked where a matrix is constructed or read.
using csr_index_t = std::int32_t;

/// The largest row, column or nonzero count a CsrMatrix holds (2^31 - 1).
inline constexpr index_t kMaxCsrIndex =
    std::numeric_limits<csr_index_t>::max();

/// Matrix/vector value type.
using value_t = double;

}  // namespace dsouth::sparse
