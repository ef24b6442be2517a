#pragma once

/// \file reference_csr.hpp
/// Test-local reference for triplet-to-CSR conversion: the original
/// algorithm, one stable sort of the whole entry permutation by
/// (row, col) with each duplicate run summed from 0.0 in sorted order.
/// It is kept here, outside the library, so the linear-time
/// CooBuilder::to_csr and the pattern-first FEM assemblers can be checked
/// against it bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace dsouth::sparse::testref {

/// Plain triplets: what CooBuilder stores, readable by the reference.
struct Triplets {
  index_t rows = 0, cols = 0;
  std::vector<index_t> is, js;
  std::vector<value_t> vs;

  void add(index_t i, index_t j, value_t v) {
    is.push_back(i);
    js.push_back(j);
    vs.push_back(v);
  }

  CooBuilder to_builder() const {
    CooBuilder coo(rows, cols);
    for (std::size_t k = 0; k < is.size(); ++k) coo.add(is[k], js[k], vs[k]);
    return coo;
  }
};

inline CsrMatrix reference_to_csr(const Triplets& t) {
  const std::size_t m = t.is.size();
  std::vector<std::size_t> perm(m);
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  std::stable_sort(perm.begin(), perm.end(),
                   [&t](std::size_t a, std::size_t b) {
                     if (t.is[a] != t.is[b]) return t.is[a] < t.is[b];
                     return t.js[a] < t.js[b];
                   });
  std::vector<csr_index_t> row_ptr(static_cast<std::size_t>(t.rows) + 1, 0);
  std::vector<csr_index_t> col_idx;
  std::vector<value_t> values;
  std::size_t k = 0;
  while (k < m) {
    const index_t i = t.is[perm[k]];
    const index_t j = t.js[perm[k]];
    value_t sum = 0.0;
    while (k < m && t.is[perm[k]] == i && t.js[perm[k]] == j) {
      sum += t.vs[perm[k]];
      ++k;
    }
    col_idx.push_back(static_cast<csr_index_t>(j));
    values.push_back(sum);
    ++row_ptr[static_cast<std::size_t>(i) + 1];
  }
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());
  return CsrMatrix(t.rows, t.cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

/// Same shape, same structure and the same bits in every value (so -0.0
/// and 0.0 differ).
inline ::testing::AssertionResult bit_identical(const CsrMatrix& got,
                                                const CsrMatrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << " vs "
           << want.rows() << "x" << want.cols();
  }
  if (!std::ranges::equal(got.row_ptr(), want.row_ptr())) {
    return ::testing::AssertionFailure() << "row_ptr differs";
  }
  if (!std::ranges::equal(got.col_idx(), want.col_idx())) {
    return ::testing::AssertionFailure() << "col_idx differs";
  }
  for (std::size_t k = 0; k < got.values().size(); ++k) {
    if (std::bit_cast<std::uint64_t>(got.values()[k]) !=
        std::bit_cast<std::uint64_t>(want.values()[k])) {
      return ::testing::AssertionFailure()
             << "value " << k << ": " << got.values()[k] << " vs "
             << want.values()[k];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace dsouth::sparse::testref
