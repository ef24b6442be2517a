#include "sparse/binary_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <span>
#include <utility>
#include <vector>

#include "sparse/mm_io.hpp"
#include "util/error.hpp"

namespace dsouth::sparse {

namespace {

constexpr char kMagic[8] = {'D', 'S', 'O', 'U', 'C', 'S', 'R', '\0'};
constexpr std::uint32_t kVersion = 1;

/// Arrays move through a buffer of at most this many elements, so before
/// the truncation check fires, a header that promises more than the
/// stream holds costs memory in proportion to the bytes read so far, plus
/// one chunk.
constexpr std::size_t kChunk = std::size_t{1} << 16;

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void read_pod(std::istream& in, T& v) {
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  DSOUTH_CHECK_MSG(in.good(), "truncated binary CSR stream");
}

/// The format stores indices as int64: widen through one chunk buffer.
void write_indices(std::ostream& out, std::span<const csr_index_t> v) {
  std::vector<std::int64_t> buf(std::min(v.size(), kChunk));
  for (std::size_t done = 0; done < v.size(); done += buf.size()) {
    const std::size_t n = std::min(buf.size(), v.size() - done);
    std::copy_n(v.begin() + static_cast<std::ptrdiff_t>(done), n, buf.begin());
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(n * sizeof(std::int64_t)));
  }
}

/// Reads `count` elements of T a chunk at a time, handing each chunk to
/// `take` as soon as it has arrived whole.
template <typename T, typename Take>
void read_chunks(std::istream& in, std::size_t count, Take take) {
  std::vector<T> buf(std::min(count, kChunk));
  for (std::size_t done = 0; done < count;) {
    const std::size_t n = std::min(buf.size(), count - done);
    in.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(n * sizeof(T)));
    DSOUTH_CHECK_MSG(in.good(), "truncated binary CSR stream");
    take(std::span<const T>(buf.data(), n));
    done += n;
  }
}

/// Reads `count` int64 indices, each of which must lie in [0, limit]
/// (limit <= kMaxCsrIndex), so none wraps when narrowed. The output grows
/// with the chunks that arrive, not with `count`.
std::vector<csr_index_t> read_indices(std::istream& in, std::size_t count,
                                      std::int64_t limit, const char* what) {
  std::vector<csr_index_t> v;
  read_chunks<std::int64_t>(in, count, [&](std::span<const std::int64_t> c) {
    for (const std::int64_t x : c) {
      DSOUTH_CHECK_MSG(x >= 0 && x <= limit, "binary CSR " << what << " " << x
                                                 << " out of [0, " << limit
                                                 << "]");
      v.push_back(static_cast<csr_index_t>(x));
    }
  });
  return v;
}

std::vector<value_t> read_values(std::istream& in, std::size_t count) {
  std::vector<value_t> v;
  read_chunks<value_t>(in, count, [&](std::span<const value_t> c) {
    v.insert(v.end(), c.begin(), c.end());
  });
  return v;
}

}  // namespace

void write_binary_csr(std::ostream& out, const CsrMatrix& a) {
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::int64_t>(a.rows()));
  write_pod(out, static_cast<std::int64_t>(a.cols()));
  write_pod(out, static_cast<std::int64_t>(a.nnz()));
  write_indices(out, a.row_ptr());
  write_indices(out, a.col_idx());
  out.write(reinterpret_cast<const char*>(a.values().data()),
            static_cast<std::streamsize>(a.values().size_bytes()));
  DSOUTH_CHECK_MSG(out.good(), "write failure in binary CSR stream");
}

void write_binary_csr_file(const std::string& path, const CsrMatrix& a) {
  std::ofstream out(path, std::ios::binary);
  DSOUTH_CHECK_MSG(out.good(), "cannot open '" << path << "' for writing");
  write_binary_csr(out, a);
}

CsrMatrix read_binary_csr(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  DSOUTH_CHECK_MSG(in.good() && std::memcmp(magic, kMagic, 8) == 0,
                   "bad binary CSR magic");
  std::uint32_t version = 0;
  read_pod(in, version);
  DSOUTH_CHECK_MSG(version == kVersion,
                   "unsupported binary CSR version " << version);
  std::int64_t rows = 0, cols = 0, nnz = 0;
  read_pod(in, rows);
  read_pod(in, cols);
  read_pod(in, nnz);
  // Checked before anything is allocated from them. A matrix without
  // columns stores no entries.
  DSOUTH_CHECK_MSG(std::in_range<csr_index_t>(rows) &&
                       std::in_range<csr_index_t>(cols) &&
                       std::in_range<csr_index_t>(nnz) &&
                       (cols > 0 || nnz == 0),
                   "corrupt binary CSR header: " << rows << "x" << cols
                                                 << ", " << nnz
                                                 << " nonzeros");
  auto row_ptr = read_indices(in, static_cast<std::size_t>(rows) + 1, nnz,
                              "row offset");
  auto col_idx =
      read_indices(in, static_cast<std::size_t>(nnz), cols - 1, "column");
  auto values = read_values(in, static_cast<std::size_t>(nnz));
  CsrMatrix a(rows, cols, std::move(row_ptr), std::move(col_idx),
              std::move(values));
  DSOUTH_CHECK_MSG(a.validate(), "corrupt binary CSR structure");
  return a;
}

CsrMatrix read_binary_csr_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DSOUTH_CHECK_MSG(in.good(), "cannot open '" << path << "'");
  return read_binary_csr(in);
}

CsrMatrix load_matrix_any(const std::string& path) {
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".bin") == 0) {
    return read_binary_csr_file(path);
  }
  return read_matrix_market_file(path);
}

}  // namespace dsouth::sparse
