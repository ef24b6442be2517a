#pragma once

/// \file coo.hpp
/// Coordinate-format (triplet) builder. The stencils, the Matrix Market
/// reader and the distributed layout's blocks accumulate entries here, then
/// convert to CSR. (The FEM assemblers build their CSR pattern first and
/// skip the triplets; see fem.hpp.)

#include <vector>

#include "sparse/types.hpp"

namespace dsouth::sparse {

class CsrMatrix;  // csr.hpp

/// Triplet accumulator. Duplicate (i, j) entries are summed on conversion
/// (the natural semantics for finite-element assembly), in insertion
/// order. Dimensions are limited to kMaxCsrIndex (checked by the
/// constructor), so entries are kept as 32-bit indices.
class CooBuilder {
 public:
  CooBuilder(index_t rows, index_t cols);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  std::size_t entry_count() const { return is_.size(); }

  /// Append one entry; bounds-checked.
  void add(index_t i, index_t j, value_t v);

  /// Append both (i, j, v) and (j, i, v); for building symmetric matrices
  /// from a lower/upper-triangle description. Diagonal entries are added
  /// once.
  void add_sym(index_t i, index_t j, value_t v);

  /// Convert to CSR with ascending columns per row. Each duplicate run is
  /// summed from 0.0 in insertion order, and an entry whose sum cancels to
  /// zero is kept. Cost: O(entries + rows) for a stable counting sort by
  /// row, plus a sort of each row whose columns do not arrive ascending;
  /// working memory is one index per entry and the outputs are reserved
  /// once. Throws CheckError if there are more than kMaxCsrIndex
  /// entries.
  CsrMatrix to_csr() const;

 private:
  index_t rows_, cols_;
  std::vector<csr_index_t> is_, js_;
  std::vector<value_t> vs_;
};

}  // namespace dsouth::sparse
