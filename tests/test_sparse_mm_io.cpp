#include "sparse/mm_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sparse/stencils.hpp"
#include "util/error.hpp"

namespace dsouth::sparse {
namespace {

TEST(MatrixMarket, ReadGeneralReal) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "2 3 3\n"
      "1 1 1.5\n"
      "2 3 -2\n"
      "1 2 0.25\n");
  auto a = read_matrix_market(in);
  EXPECT_EQ(a.rows(), 2);
  EXPECT_EQ(a.cols(), 3);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a.at(1, 2), -2.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 0.25);
}

TEST(MatrixMarket, ReadSymmetricMirrorsEntries) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2\n"
      "1 1 2.0\n"
      "2 1 -1.0\n");
  auto a = read_matrix_market(in);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
  EXPECT_TRUE(a.is_symmetric(0.0));
}

TEST(MatrixMarket, ReadPatternGivesOnes) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 2\n"
      "2 2\n");
  auto a = read_matrix_market(in);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 1.0);
}

TEST(MatrixMarket, RejectsUnsupportedVariants) {
  std::istringstream complex_field(
      "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n");
  EXPECT_THROW(read_matrix_market(complex_field), util::CheckError);
  std::istringstream array_fmt(
      "%%MatrixMarket matrix array real general\n1 1\n1.0\n");
  EXPECT_THROW(read_matrix_market(array_fmt), util::CheckError);
  std::istringstream bad_banner("%%NotMM matrix coordinate real general\n");
  EXPECT_THROW(read_matrix_market(bad_banner), util::CheckError);
}

TEST(MatrixMarket, TruncatedEntriesThrow) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 3\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(in), util::CheckError);
}

TEST(MatrixMarket, OutOfRangeEntriesAreRejected) {
  // INT64_MIN - 1 would overflow if the 1-based shift came before the
  // range check.
  for (const char* row : {"-9223372036854775808", "0", "3"}) {
    std::istringstream in(std::string(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n") + row + " 1 1.0\n");
    EXPECT_THROW(read_matrix_market(in), util::CheckError) << "row " << row;
    std::istringstream col(std::string(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 1\n1 ") + row + " 1.0\n");
    EXPECT_THROW(read_matrix_market(col), util::CheckError) << "col " << row;
  }
}

TEST(MatrixMarket, SizeLineAbove32BitLimitIsRejected) {
  for (const char* size : {"2147483648 1 0", "1 2147483648 0",
                           "1 1 2147483648"}) {
    std::istringstream in(
        std::string("%%MatrixMarket matrix coordinate real general\n") +
        size + "\n");
    EXPECT_THROW(read_matrix_market(in), util::CheckError) << size;
  }
}

TEST(MatrixMarket, SizeLineWithoutEntryCountIsRejected) {
  // Without the check the missing count read as zero entries: an empty
  // 2x2 matrix, with the entry line below silently dropped.
  for (const char* size : {"2 2", "2", "2 2 x"}) {
    std::istringstream in(
        std::string("%%MatrixMarket matrix coordinate real general\n") +
        size + "\n1 1 1.0\n");
    EXPECT_THROW(read_matrix_market(in), util::CheckError) << size;
  }
}

TEST(MatrixMarket, RoundTripGeneral) {
  auto a = poisson2d_5pt(4, 3);
  std::ostringstream out;
  write_matrix_market(out, a, /*symmetric=*/false);
  std::istringstream in(out.str());
  auto b = read_matrix_market(in);
  ASSERT_EQ(b.rows(), a.rows());
  ASSERT_EQ(b.nnz(), a.nnz());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j : a.row_cols(i)) {
      EXPECT_DOUBLE_EQ(b.at(i, j), a.at(i, j));
    }
  }
}

TEST(MatrixMarket, RoundTripSymmetricHalvesStorage) {
  auto a = poisson2d_5pt(4, 4);
  std::ostringstream out;
  write_matrix_market(out, a, /*symmetric=*/true);
  const std::string text = out.str();
  EXPECT_NE(text.find("symmetric"), std::string::npos);
  std::istringstream in(text);
  auto b = read_matrix_market(in);
  ASSERT_EQ(b.nnz(), a.nnz());
  EXPECT_TRUE(b.is_symmetric(0.0));
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j : a.row_cols(i)) {
      EXPECT_DOUBLE_EQ(b.at(i, j), a.at(i, j));
    }
  }
}

TEST(MatrixMarket, SymmetricWriteOfAsymmetricThrows) {
  CsrMatrix a(2, 2, {0, 1, 1}, {1}, {3.0});
  std::ostringstream out;
  EXPECT_THROW(write_matrix_market(out, a, true), util::CheckError);
}

TEST(MatrixMarket, MissingFileThrows) {
  EXPECT_THROW(read_matrix_market_file("/no/such/file.mtx"),
               util::CheckError);
}

}  // namespace
}  // namespace dsouth::sparse
