#include "sparse/binary_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>

#include "prof/prof.hpp"
#include "sparse/mm_io.hpp"
#include "sparse/proxy_suite.hpp"
#include "sparse/stencils.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dsouth::sparse {
namespace {

void expect_equal(const CsrMatrix& a, const CsrMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (index_t i = 0; i < a.rows(); ++i) {
    auto ca = a.row_cols(i);
    auto cb = b.row_cols(i);
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t k = 0; k < ca.size(); ++k) {
      EXPECT_EQ(ca[k], cb[k]);
      EXPECT_DOUBLE_EQ(a.row_vals(i)[k], b.row_vals(i)[k]);
    }
  }
}

TEST(BinaryCsr, RoundTripStream) {
  auto a = poisson2d_9pt(9, 7);
  std::stringstream buf;
  write_binary_csr(buf, a);
  auto b = read_binary_csr(buf);
  expect_equal(a, b);
}

TEST(BinaryCsr, RoundTripFile) {
  auto a = make_proxy("msdoorp", 0.01).a;
  const std::string path = ::testing::TempDir() + "/dsouth_csr.bin";
  write_binary_csr_file(path, a);
  auto b = read_binary_csr_file(path);
  expect_equal(a, b);
  std::remove(path.c_str());
}

TEST(BinaryCsr, EmptyMatrixRoundTrips) {
  CsrMatrix a(0, 0, {0}, {}, {});
  std::stringstream buf;
  write_binary_csr(buf, a);
  auto b = read_binary_csr(buf);
  EXPECT_EQ(b.rows(), 0);
  EXPECT_EQ(b.nnz(), 0);
}

TEST(BinaryCsr, BadMagicThrows) {
  std::stringstream buf;
  buf << "NOTACSR!garbagegarbage";
  EXPECT_THROW(read_binary_csr(buf), util::CheckError);
}

TEST(BinaryCsr, TruncationThrows) {
  auto a = poisson2d_5pt(4, 4);
  std::stringstream buf;
  write_binary_csr(buf, a);
  std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_binary_csr(cut), util::CheckError);
}

TEST(BinaryCsr, CorruptIndicesDetected) {
  auto a = poisson2d_5pt(3, 3);
  std::stringstream buf;
  write_binary_csr(buf, a);
  std::string bytes = buf.str();
  // Smash a column index deep in the payload to an out-of-range value.
  const std::size_t col_region = 8 + 4 + 3 * 8 + 10 * 8 + 8;
  std::int64_t bogus = 1 << 20;
  std::memcpy(bytes.data() + col_region, &bogus, sizeof(bogus));
  std::stringstream corrupt(bytes);
  EXPECT_THROW(read_binary_csr(corrupt), util::CheckError);
}

/// A stream in the binary CSR layout built field by field, so a test can
/// write headers and arrays no CsrMatrix could hold.
class RawCsr {
 public:
  RawCsr(std::int64_t rows, std::int64_t cols, std::int64_t nnz) {
    bytes_.append("DSOUCSR", 8);  // magic, with its terminating NUL
    put(std::uint32_t{1});
    for (std::int64_t v : {rows, cols, nnz}) put(v);
  }
  RawCsr& indices(std::initializer_list<std::int64_t> v) {
    for (std::int64_t x : v) put(x);
    return *this;
  }
  RawCsr& values(std::initializer_list<double> v) {
    for (double x : v) put(x);
    return *this;
  }
  const std::string& bytes() const { return bytes_; }

 private:
  template <typename T>
  void put(T v) {
    bytes_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  std::string bytes_;
};

CsrMatrix read_bytes(const std::string& bytes) {
  std::istringstream in(bytes);
  return read_binary_csr(in);
}

TEST(BinaryCsr, RawHeaderMatchesWriter) {
  std::stringstream buf;
  write_binary_csr(buf, CsrMatrix(1, 2, {0, 1}, {1}, {2.5}));
  EXPECT_EQ(buf.str(),
            RawCsr(1, 2, 1).indices({0, 1}).indices({1}).values({2.5}).bytes());
}

TEST(BinaryCsr, RowPointerPastNnzIsRejected) {
  // Row 0 claims entries [0, 10) of a 3-entry matrix; validate() must
  // bound the row before walking it.
  const RawCsr raw = RawCsr(2, 100, 3)
                         .indices({0, 10, 3})
                         .indices({0, 1, 2})
                         .values({1.0, 2.0, 3.0});
  ASSERT_EQ(raw.bytes().size(), 108u);
  EXPECT_THROW(read_bytes(raw.bytes()), util::CheckError);
}

TEST(BinaryCsr, OversizedHeaderIsRejected) {
  EXPECT_THROW(read_bytes(RawCsr(std::int64_t{1} << 40, 4, 0).bytes()),
               util::CheckError);
  EXPECT_THROW(read_bytes(RawCsr(4, kMaxCsrIndex + 1, 0).bytes()),
               util::CheckError);
  EXPECT_THROW(read_bytes(RawCsr(4, 4, kMaxCsrIndex + 1).bytes()),
               util::CheckError);
  EXPECT_THROW(read_bytes(RawCsr(-1, 4, 0).bytes()), util::CheckError);
  // Entries without columns to hold them.
  EXPECT_THROW(read_bytes(RawCsr(1, 0, 1).indices({0, 1}).indices({0})
                              .values({1.0}).bytes()),
               util::CheckError);
}

TEST(BinaryCsr, TruncatedHugeHeaderAllocatesLittle) {
  // In range, but the payload is missing: the reader must find the
  // truncation without first allocating for 2^31 - 1 row offsets.
  namespace alloc_hook = prof::alloc_hook;
  ASSERT_TRUE(alloc_hook::available());
  const std::string bytes =
      RawCsr(kMaxCsrIndex - 1, kMaxCsrIndex - 1, 0).bytes();
  const std::uint64_t before = alloc_hook::bytes();
  EXPECT_THROW(read_bytes(bytes), util::CheckError);
  EXPECT_LT(alloc_hook::bytes() - before, std::uint64_t{64} << 20);
}

TEST(BinaryCsr, IndicesThatWouldWrapAreRejected) {
  // 2^32 + 1 narrows to 1, a valid column; the reader must refuse it.
  const std::int64_t wraps = (std::int64_t{1} << 32) + 1;
  const auto with_col = [](std::int64_t c) {
    return RawCsr(2, 2, 2).indices({0, 1, 2}).indices({0, c})
        .values({1.0, 1.0}).bytes();
  };
  EXPECT_NO_THROW(read_bytes(with_col(1)));
  EXPECT_THROW(read_bytes(with_col(wraps)), util::CheckError);
  EXPECT_THROW(read_bytes(with_col(-1)), util::CheckError);
  const auto with_offset = [](std::int64_t k) {
    return RawCsr(2, 2, 2).indices({0, k, 2}).indices({0, 1})
        .values({1.0, 1.0}).bytes();
  };
  EXPECT_NO_THROW(read_bytes(with_offset(1)));
  EXPECT_THROW(read_bytes(with_offset(wraps)), util::CheckError);
}

TEST(BinaryCsr, SeededMutationsNeverMisparse) {
  // Every mutant either raises CheckError or decodes to a matrix whose
  // encoding is the mutant's leading bytes: nothing crashes, nothing is
  // silently narrowed or reinterpreted.
  const CsrMatrix base = poisson2d_5pt(6, 6);
  std::stringstream buf;
  write_binary_csr(buf, base);
  const std::string clean = buf.str();
  // Header and index arrays: where a mutation can change the structure.
  const std::size_t index_end =
      clean.size() - static_cast<std::size_t>(base.nnz()) * sizeof(double);
  util::Rng rng(0x5eed'b1c5ULL);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  int rejected = 0, decoded = 0;
  for (int t = 0; t < 2000; ++t) {
    std::string m = clean;
    switch (t % 4) {
      case 0:    // one to four bit flips anywhere
      case 1: {  // ... or in the header and index arrays
        const std::size_t span = t % 4 == 0 ? m.size() : index_end;
        for (std::size_t f = 0, flips = 1 + below(4); f < flips; ++f) {
          m[below(span)] ^= static_cast<char>(1 << below(8));
        }
        break;
      }
      case 2:  // truncation
        m.resize(below(m.size()));
        break;
      case 3: {  // splice: a run of the stream copied over another place
        const std::size_t from = below(m.size());
        const std::size_t to = below(m.size());
        const std::size_t len =
            std::min({1 + below(64), m.size() - from, m.size() - to});
        m.replace(to, len, clean, from, len);
        break;
      }
    }
    try {
      const CsrMatrix a = read_bytes(m);
      std::ostringstream out;
      write_binary_csr(out, a);
      const std::string again = out.str();
      ASSERT_LE(again.size(), m.size()) << "mutant " << t;
      ASSERT_EQ(again, m.substr(0, again.size())) << "mutant " << t;
      ++decoded;
    } catch (const util::CheckError&) {
      ++rejected;
    }
  }
  // Both outcomes occur, so the invariant was exercised both ways.
  EXPECT_GT(rejected, 500);
  EXPECT_GT(decoded, 100);
}

TEST(BinaryCsr, MissingFileThrows) {
  EXPECT_THROW(read_binary_csr_file("/no/such/file.bin"), util::CheckError);
}

TEST(LoadMatrixAny, DispatchesByExtension) {
  auto a = poisson2d_5pt(5, 5);
  const std::string bin = ::testing::TempDir() + "/dsouth_any.bin";
  const std::string mtx = ::testing::TempDir() + "/dsouth_any.mtx";
  write_binary_csr_file(bin, a);
  write_matrix_market_file(mtx, a, /*symmetric=*/true);
  expect_equal(a, load_matrix_any(bin));
  expect_equal(a, load_matrix_any(mtx));
  std::remove(bin.c_str());
  std::remove(mtx.c_str());
}

}  // namespace
}  // namespace dsouth::sparse
