#include "elastic/checkpoint.hpp"

#include <bit>
#include <cstring>
#include <limits>
#include <type_traits>

#include "dist/driver.hpp"
#include "util/error.hpp"
#include "wire/wire.hpp"

namespace dsouth::elastic {

namespace {

// Words are copied between the buffer and the captured state in host
// order, which must be the little-endian order the format stores.
static_assert(std::endian::native == std::endian::little,
              "the checkpoint codec copies words in host byte order");

constexpr std::uint64_t kMagic = 0x44534f5554484c45ULL;  // "DSOUTHLE"
constexpr std::size_t kHeaderWords = 8;
/// The checksum covers every word from here on: num_ranks, method, epoch,
/// step and the whole payload.
constexpr std::size_t kChecksumFrom = 4;
constexpr std::size_t kChecksumWord = 3;
constexpr auto kMaxMethod =
    static_cast<std::uint64_t>(dist::DistMethod::kMulticolorBlockGs);

std::uint64_t checksum_of(std::span<const std::uint8_t> bytes) {
  return wire::checksum64({}, std::as_bytes(bytes).subspan(8 * kChecksumFrom));
}

/// Word-stream writer into a buffer of exactly the right size. Without a
/// buffer it only counts the words it would write, which sizes the buffer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::span<std::uint8_t> out) : out_(out) {}

  void u64(std::uint64_t v) { put(&v, 1); }
  void i64(std::int64_t v) { put(&v, 1); }
  void f64(double v) { put(&v, 1); }
  /// A length-prefixed array of 8-byte words, copied in bulk.
  template <typename T>
  void array(const std::vector<T>& v) {
    static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
    u64(v.size());
    put(v.data(), v.size());
  }
  std::size_t words() const { return words_; }

 private:
  void put(const void* src, std::size_t n) {
    if (!out_.empty() && n > 0) {
      DSOUTH_CHECK(8 * (words_ + n) <= out_.size());
      std::memcpy(out_.data() + 8 * words_, src, 8 * n);
    }
    words_ += n;
  }

  std::span<std::uint8_t> out_;
  std::size_t words_ = 0;
};

/// Bounds-checked word-stream reader (mirror of Writer).
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes)
      : bytes_(bytes), words_(bytes.size() / 8) {}

  std::uint64_t u64() {
    DSOUTH_CHECK_MSG(pos_ < words_, "checkpoint: truncated payload");
    std::uint64_t v = 0;
    std::memcpy(&v, bytes_.data() + 8 * pos_++, 8);
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  /// An array length or element count. Every element takes at least one
  /// word, so a count above the words left is corrupt; it is refused
  /// before anything is allocated for it.
  std::size_t count() {
    const std::uint64_t n = u64();
    DSOUTH_CHECK_MSG(n <= remaining(), "checkpoint: count "
                                           << n << " exceeds remaining "
                                           << remaining() << " words");
    return static_cast<std::size_t>(n);
  }
  /// A length-prefixed array of 8-byte words, copied in bulk.
  template <typename T>
  void array(std::vector<T>& out) {
    static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
    out.resize(count());
    if (!out.empty()) {
      std::memcpy(out.data(), bytes_.data() + 8 * pos_, 8 * out.size());
    }
    pos_ += out.size();
  }
  std::size_t remaining() const { return words_ - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t words_;
  std::size_t pos_ = 0;
};

void write_payload(Writer& w, const Checkpoint& c) {
  const simmpi::RuntimeState& rs = c.runtime;
  w.u64(rs.epochs);
  w.f64(rs.model_time);
  w.f64(rs.last_epoch_seconds);
  w.u64(rs.arrival_counter);
  w.array(rs.lane_seq);
  std::vector<std::uint64_t> stats;
  rs.stats.save(stats);
  w.array(stats);
  w.u64(c.solver.x.size());
  for (const auto& x_p : c.solver.x) w.array(x_p);
}

void read_payload(Reader& r, Checkpoint& c) {
  simmpi::RuntimeState& rs = c.runtime;
  rs = simmpi::RuntimeState(c.num_ranks);
  rs.epochs = r.u64();
  rs.model_time = r.f64();
  rs.last_epoch_seconds = r.f64();
  rs.arrival_counter = r.u64();
  r.array(rs.lane_seq);
  DSOUTH_CHECK_MSG(
      rs.lane_seq.size() == static_cast<std::size_t>(c.num_ranks),
      "checkpoint: lane_seq count " << rs.lane_seq.size() << " != ranks "
                                    << c.num_ranks);
  std::vector<std::uint64_t> stats;
  r.array(stats);
  rs.stats.load(stats);
  c.solver.x.resize(r.count());
  DSOUTH_CHECK_MSG(
      c.solver.x.size() == static_cast<std::size_t>(c.num_ranks),
      "checkpoint: iterate holds " << c.solver.x.size()
                                   << " rank blocks, expected "
                                   << c.num_ranks);
  for (auto& x_p : c.solver.x) r.array(x_p);
}

}  // namespace

std::vector<std::uint8_t> encode(const Checkpoint& c) {
  // What decode() refuses, encode() refuses to write.
  DSOUTH_CHECK(c.num_ranks > 0);
  DSOUTH_CHECK(c.method >= 0 &&
               static_cast<std::uint64_t>(c.method) <= kMaxMethod);
  DSOUTH_CHECK(c.step >= 0);
  DSOUTH_CHECK(c.epoch == c.runtime.epochs);
  DSOUTH_CHECK(c.runtime.lane_seq.size() ==
                   static_cast<std::size_t>(c.num_ranks) &&
               c.solver.x.size() == static_cast<std::size_t>(c.num_ranks));
  Writer sizer;
  write_payload(sizer, c);
  const std::size_t payload_words = sizer.words();

  std::vector<std::uint8_t> bytes(8 * (kHeaderWords + payload_words));
  Writer w(bytes);
  w.u64(kMagic);
  w.u64(kCheckpointVersion);
  w.u64(payload_words);
  w.u64(0);  // checksum slot, sealed below
  w.u64(static_cast<std::uint64_t>(c.num_ranks));
  w.u64(static_cast<std::uint64_t>(c.method));
  w.u64(c.epoch);
  w.i64(c.step);
  write_payload(w, c);
  DSOUTH_CHECK(w.words() == kHeaderWords + payload_words);
  const std::uint64_t sum = checksum_of(bytes);
  std::memcpy(bytes.data() + 8 * kChecksumWord, &sum, 8);
  return bytes;
}

Checkpoint decode(std::span<const std::uint8_t> bytes) {
  DSOUTH_CHECK_MSG(bytes.size() % 8 == 0 &&
                       bytes.size() >= 8 * kHeaderWords,
                   "checkpoint: bad buffer size " << bytes.size());
  Reader r(bytes);
  DSOUTH_CHECK_MSG(r.u64() == kMagic, "checkpoint: bad magic");
  const std::uint64_t version = r.u64();
  DSOUTH_CHECK_MSG(version == kCheckpointVersion,
                   "checkpoint: unsupported version " << version);
  const std::uint64_t payload_words = r.u64();
  DSOUTH_CHECK_MSG(payload_words == bytes.size() / 8 - kHeaderWords,
                   "checkpoint: payload length mismatch");
  DSOUTH_CHECK_MSG(r.u64() == checksum_of(bytes),
                   "checkpoint: checksum mismatch");

  // Range-check before narrowing. Each rank owns a lane_seq word of the
  // payload, which bounds the per-rank state allocated below.
  Checkpoint c;
  const std::uint64_t num_ranks = r.u64();
  DSOUTH_CHECK_MSG(num_ranks > 0 && num_ranks <= payload_words &&
                       num_ranks <= std::numeric_limits<int>::max(),
                   "checkpoint: bad rank count " << num_ranks);
  c.num_ranks = static_cast<int>(num_ranks);
  const std::uint64_t method = r.u64();
  DSOUTH_CHECK_MSG(method <= kMaxMethod,
                   "checkpoint: bad method id " << method);
  c.method = static_cast<int>(method);
  c.epoch = r.u64();
  c.step = r.i64();
  DSOUTH_CHECK_MSG(c.step >= 0, "checkpoint: negative step " << c.step);

  read_payload(r, c);
  DSOUTH_CHECK_MSG(r.remaining() == 0, "checkpoint: trailing payload words");
  DSOUTH_CHECK_MSG(c.epoch == c.runtime.epochs,
                   "checkpoint: header epoch " << c.epoch
                                               << " != runtime epochs "
                                               << c.runtime.epochs);
  return c;
}

}  // namespace dsouth::elastic
