#include "wire/wire.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/error.hpp"

namespace dsouth::wire {

namespace {
constexpr double kSolveDiscriminator = 0.0;
constexpr double kResidualDiscriminator = 1.0;

// XXH64's primes. Multiplying by an odd constant is a bijection mod 2^64.
constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kP3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kP4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ULL;

/// One lane round: for a fixed `w` a bijection in `acc` and for a fixed
/// `acc` a bijection in `w` (add, odd multiply and rotate all are).
constexpr std::uint64_t lane_round(std::uint64_t acc, std::uint64_t w) {
  return std::rotl(acc + w * kP2, 31) * kP1;
}

/// The fold step; bijective in `h` and in `w` like lane_round.
constexpr std::uint64_t fold(std::uint64_t h, std::uint64_t w) {
  return std::rotl(h ^ lane_round(0, w), 27) * kP1 + kP4;
}

std::uint64_t load_word(const std::byte* p) {
  std::uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  return w;
}

/// Safely read a double that should hold a non-negative integer <= `max`.
/// Returns false for NaN, negative, fractional, or out-of-range values —
/// corrupted payloads can hold any bit pattern, and casting such doubles
/// to an integer type before validating them is undefined behaviour. -0.0
/// is refused too: it passes the compares, but no encoder writes it, so
/// accepting it would decode two payloads to the same value.
bool integral_in_range(double v, double max, std::uint64_t& out) {
  if (!(v >= 0.0 && v <= max)) return false;  // NaN fails both compares
  if (std::signbit(v)) return false;
  const auto u = static_cast<std::uint64_t>(v);
  if (static_cast<double>(u) != v) return false;
  out = u;
  return true;
}

/// Envelope checksum over seq, inner_len, and the body — every field a
/// receiver acts on, skipping the checksum slot itself (magic/version
/// mismatches are caught by their own checks).
std::uint64_t envelope_checksum(std::span<const double> payload) {
  return checksum64(std::as_bytes(payload.subspan(2, 2)),
                    std::as_bytes(payload.subspan(kEnvelopeDoubles)));
}
}  // namespace

std::uint64_t checksum64(std::span<const std::byte> prefix,
                         std::span<const std::byte> words) {
  static_assert(std::endian::native == std::endian::little,
                "words are loaded in host order, which must be the "
                "little-endian order the checksum is defined over");
  DSOUTH_CHECK(prefix.size() % 8 == 0 && words.size() % 8 == 0);
  const std::size_t n = words.size() / 8;
  const std::byte* p = words.data();
  std::uint64_t lane[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    for (std::size_t k = 0; k < 4; ++k) {
      lane[k] = lane_round(lane[k], load_word(p + 8 * (i + k)));
    }
  }
  std::uint64_t h = kP5;
  for (std::size_t j = 0; j < prefix.size(); j += 8) {
    h = fold(h, load_word(prefix.data() + j));
  }
  for (const std::uint64_t acc : lane) h = fold(h, acc);
  for (; i < n; ++i) h = fold(h, load_word(p + 8 * i));
  h = fold(h, prefix.size() / 8 + n);
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

const char* decode_error_kind_name(DecodeErrorKind k) {
  switch (k) {
    case DecodeErrorKind::kTruncated:
      return "truncated";
    case DecodeErrorKind::kBadDiscriminator:
      return "bad-discriminator";
    case DecodeErrorKind::kBadLength:
      return "bad-length";
    case DecodeErrorKind::kBadVersion:
      return "bad-version";
    case DecodeErrorKind::kBadType:
      return "bad-type";
    case DecodeErrorKind::kBadCount:
      return "bad-count";
    case DecodeErrorKind::kTrailing:
      return "trailing";
    case DecodeErrorKind::kBadChecksum:
      return "bad-checksum";
  }
  return "?";
}

void throw_decode_error(DecodeErrorKind kind, std::size_t offset,
                        const std::string& detail) {
  std::ostringstream os;
  os << "dsouth wire decode error [" << decode_error_kind_name(kind)
     << " at double " << offset << "]";
  if (!detail.empty()) os << ": " << detail;
  throw DecodeError(kind, offset, os.str());
}

const char* record_type_name(RecordType t) {
  switch (t) {
    case RecordType::kGhostDelta:
      return "GhostDelta";
    case RecordType::kNormUpdate:
      return "NormUpdate";
    case RecordType::kResidualNorm:
      return "ResidualNorm";
    case RecordType::kSolveUpdate:
      return "SolveUpdate";
    case RecordType::kCorrection:
      return "Correction";
  }
  return "?";
}

simmpi::MsgTag tag_of(RecordType t) {
  switch (t) {
    case RecordType::kGhostDelta:
    case RecordType::kNormUpdate:
    case RecordType::kSolveUpdate:
      return simmpi::MsgTag::kSolve;
    case RecordType::kResidualNorm:
    case RecordType::kCorrection:
      return simmpi::MsgTag::kResidual;
  }
  return simmpi::MsgTag::kOther;
}

Family family_of(RecordType t) {
  switch (t) {
    case RecordType::kGhostDelta:
      return Family::kDelta;
    case RecordType::kNormUpdate:
    case RecordType::kResidualNorm:
      return Family::kNorm;
    case RecordType::kSolveUpdate:
    case RecordType::kCorrection:
      return Family::kEstimate;
  }
  return Family::kDelta;
}

std::size_t encoded_doubles(RecordType t, std::size_t nb) {
  switch (t) {
    case RecordType::kGhostDelta:
      return nb;
    case RecordType::kNormUpdate:
      return 2 + nb;
    case RecordType::kResidualNorm:
      return 2;
    case RecordType::kSolveUpdate:
      return 3 + 2 * nb;
    case RecordType::kCorrection:
      return 3 + nb;
  }
  DSOUTH_CHECK(false);
  return 0;
}

MutableRecord begin_record(RecordType t, double norm2, double gamma2,
                           std::span<double> out, std::size_t nb) {
  DSOUTH_CHECK(out.size() == encoded_doubles(t, nb));
  MutableRecord rec;
  switch (t) {
    case RecordType::kGhostDelta:
      rec.dx = out;
      break;
    case RecordType::kNormUpdate:
      out[0] = kSolveDiscriminator;
      out[1] = norm2;
      rec.dx = out.subspan(2, nb);
      break;
    case RecordType::kResidualNorm:
      out[0] = kResidualDiscriminator;
      out[1] = norm2;
      break;
    case RecordType::kSolveUpdate:
      out[0] = kSolveDiscriminator;
      out[1] = norm2;
      out[2] = gamma2;
      rec.dx = out.subspan(3, nb);
      rec.rb = out.subspan(3 + nb, nb);
      break;
    case RecordType::kCorrection:
      out[0] = kResidualDiscriminator;
      out[1] = norm2;
      out[2] = gamma2;
      rec.rb = out.subspan(3, nb);
      break;
  }
  return rec;
}

namespace detail {

void check_frame_end(std::span<const double> payload, std::size_t off) {
  if (off != payload.size()) {
    std::ostringstream os;
    os << "frame has " << payload.size() - off << " trailing doubles";
    throw_decode_error(DecodeErrorKind::kTrailing, off, os.str());
  }
}

std::size_t check_tenant_header(std::span<const double> payload) {
  if (payload.size() < kTenantHeaderDoubles) {
    throw_decode_error(DecodeErrorKind::kTruncated, 0,
                       "tenant frame header truncated");
  }
  if (std::bit_cast<std::uint64_t>(payload[0]) != kTenantMagicBits) {
    throw_decode_error(DecodeErrorKind::kBadDiscriminator, 0,
                       "payload does not lead with the tenant-frame magic");
  }
  std::uint64_t version = 0;
  if (!integral_in_range(payload[1], kWireVersion, version) || version < 1) {
    std::ostringstream os;
    os << "tenant frame version " << payload[1] << " not in [1, "
       << kWireVersion << "]";
    throw_decode_error(DecodeErrorKind::kBadVersion, 1, os.str());
  }
  std::uint64_t count = 0;
  if (!integral_in_range(payload[2], 0x1.0p53, count)) {
    std::ostringstream os;
    os << "tenant frame entry count " << payload[2] << " not integral";
    throw_decode_error(DecodeErrorKind::kBadCount, 2, os.str());
  }
  return static_cast<std::size_t>(count);
}

TenantEntryHeader check_tenant_entry(std::span<const double> payload,
                                     std::size_t off,
                                     std::size_t num_tenants) {
  if (off + kTenantEntryDoubles > payload.size()) {
    std::ostringstream os;
    os << "tenant entry header truncated at " << off;
    throw_decode_error(DecodeErrorKind::kTruncated, off, os.str());
  }
  // Ids index the batch (and fit an int). A corrupted id that stays below
  // the batch size still passes: the header carries no checksum, only the
  // envelopes inside it do.
  const double max_tenant =
      std::min(static_cast<double>(num_tenants) - 1.0, 2147483647.0);
  std::uint64_t tenant_val = 0;
  if (!integral_in_range(payload[off], max_tenant, tenant_val)) {
    std::ostringstream os;
    os << "tenant entry has tenant id " << payload[off] << ", batch of "
       << num_tenants;
    throw_decode_error(DecodeErrorKind::kBadType, off, os.str());
  }
  std::uint64_t length_val = 0;
  // A zero-length body is malformed too: every physical encoding a tenant
  // can ship (bare record, envelope) is at least one double.
  if (!integral_in_range(payload[off + 1], 0x1.0p53, length_val) ||
      length_val == 0) {
    std::ostringstream os;
    os << "tenant entry declares body length " << payload[off + 1];
    throw_decode_error(DecodeErrorKind::kBadLength, off + 1, os.str());
  }
  const auto length = static_cast<std::size_t>(length_val);
  if (off + kTenantEntryDoubles + length > payload.size()) {
    std::ostringstream os;
    os << "tenant entry body truncated";
    throw_decode_error(DecodeErrorKind::kTruncated,
                       off + kTenantEntryDoubles, os.str());
  }
  return TenantEntryHeader{static_cast<int>(tenant_val), length};
}

}  // namespace detail

namespace {
/// Discriminators compare bit-exactly: -0.0 == 0.0 as doubles, but a
/// record leading with -0.0 is not what any encoder writes.
bool is_discriminator(double field, double expected) {
  return std::bit_cast<std::uint64_t>(field) ==
         std::bit_cast<std::uint64_t>(expected);
}

void check_discriminator(std::span<const double> body, double expected) {
  if (!is_discriminator(body[0], expected)) {
    std::ostringstream os;
    os << "discriminator " << body[0] << ", expected " << expected;
    throw_decode_error(DecodeErrorKind::kBadDiscriminator, 0, os.str());
  }
}

/// Decode one record whose type is already known. Checks
/// body.size() == encoded_doubles(type, nb).
Record decode_typed(RecordType t, std::span<const double> body,
                    std::size_t nb) {
  if (body.size() != encoded_doubles(t, nb)) {
    std::ostringstream os;
    os << record_type_name(t) << " record has " << body.size()
       << " doubles, channel width " << nb;
    throw_decode_error(body.size() < encoded_doubles(t, nb)
                           ? DecodeErrorKind::kTruncated
                           : DecodeErrorKind::kBadLength,
                       0, os.str());
  }
  Record rec;
  rec.type = t;
  switch (t) {
    case RecordType::kGhostDelta:
      rec.dx = body;
      break;
    case RecordType::kNormUpdate:
      check_discriminator(body, kSolveDiscriminator);
      rec.norm2 = body[1];
      rec.dx = body.subspan(2, nb);
      break;
    case RecordType::kResidualNorm:
      check_discriminator(body, kResidualDiscriminator);
      rec.norm2 = body[1];
      break;
    case RecordType::kSolveUpdate:
      check_discriminator(body, kSolveDiscriminator);
      rec.norm2 = body[1];
      rec.gamma2 = body[2];
      rec.dx = body.subspan(3, nb);
      rec.rb = body.subspan(3 + nb, nb);
      break;
    case RecordType::kCorrection:
      check_discriminator(body, kResidualDiscriminator);
      rec.norm2 = body[1];
      rec.gamma2 = body[2];
      rec.rb = body.subspan(3, nb);
      break;
  }
  return rec;
}

bool leading_discriminator(std::span<const double> payload,
                           std::size_t min_doubles) {
  if (payload.size() < min_doubles) {
    throw_decode_error(DecodeErrorKind::kTruncated, 0,
                       "record shorter than its family header");
  }
  const bool solve = is_discriminator(payload[0], kSolveDiscriminator);
  if (!solve && !is_discriminator(payload[0], kResidualDiscriminator)) {
    std::ostringstream os;
    os << "discriminator " << payload[0] << " is neither 0 nor 1";
    throw_decode_error(DecodeErrorKind::kBadDiscriminator, 0, os.str());
  }
  return solve;
}
}  // namespace

Record decode_record(Family family, std::span<const double> payload,
                     std::size_t nb) {
  switch (family) {
    case Family::kDelta:
      return decode_typed(RecordType::kGhostDelta, payload, nb);
    case Family::kNorm: {
      const bool solve = leading_discriminator(payload, 2);
      return decode_typed(
          solve ? RecordType::kNormUpdate : RecordType::kResidualNorm,
          payload, nb);
    }
    case Family::kEstimate: {
      const bool solve = leading_discriminator(payload, 3);
      return decode_typed(
          solve ? RecordType::kSolveUpdate : RecordType::kCorrection, payload,
          nb);
    }
  }
  DSOUTH_CHECK(false);
  return {};
}

std::span<double> begin_envelope(std::span<double> out, std::uint64_t seq) {
  DSOUTH_CHECK(out.size() >= kEnvelopeDoubles);
  // seq rides in a double; the per-channel counters a run can reach are
  // far below 2^53, where every integer is exact.
  DSOUTH_CHECK(seq < (1ULL << 53));
  out[0] = envelope_magic();
  out[1] = static_cast<double>(kWireVersionSequenced);
  out[2] = static_cast<double>(seq);
  out[3] = static_cast<double>(out.size() - kEnvelopeDoubles);
  out[4] = 0.0;  // checksum slot, written by seal_envelope
  return out.subspan(kEnvelopeDoubles);
}

void seal_envelope(std::span<double> out) {
  DSOUTH_CHECK(out.size() >= kEnvelopeDoubles);
  DSOUTH_CHECK(std::bit_cast<std::uint64_t>(out[0]) == kEnvelopeMagicBits);
  out[4] = std::bit_cast<double>(envelope_checksum(out));
}

EnvelopeView decode_envelope(std::span<const double> payload) {
  if (payload.size() < kEnvelopeDoubles) {
    throw_decode_error(DecodeErrorKind::kTruncated, 0,
                       "envelope header truncated");
  }
  if (std::bit_cast<std::uint64_t>(payload[0]) != kEnvelopeMagicBits) {
    throw_decode_error(DecodeErrorKind::kBadDiscriminator, 0,
                       "payload does not lead with the envelope magic");
  }
  std::uint64_t version = 0;
  if (!integral_in_range(payload[1], kWireVersionSequenced, version) ||
      version != kWireVersionSequenced) {
    std::ostringstream os;
    os << "envelope version " << payload[1] << ", expected "
       << kWireVersionSequenced;
    throw_decode_error(DecodeErrorKind::kBadVersion, 1, os.str());
  }
  std::uint64_t seq = 0;
  // begin_envelope writes sequence numbers below 2^53 only.
  if (!integral_in_range(payload[2], 0x1.0p53 - 1.0, seq)) {
    std::ostringstream os;
    os << "envelope seq " << payload[2] << " not integral";
    throw_decode_error(DecodeErrorKind::kBadCount, 2, os.str());
  }
  std::uint64_t inner_len = 0;
  const bool len_ok = integral_in_range(payload[3], 0x1.0p53, inner_len);
  if (!len_ok || inner_len != payload.size() - kEnvelopeDoubles) {
    std::ostringstream os;
    os << "envelope declares body length " << payload[3] << ", carries "
       << payload.size() - kEnvelopeDoubles;
    throw_decode_error(len_ok &&
                               inner_len > payload.size() - kEnvelopeDoubles
                           ? DecodeErrorKind::kTruncated
                           : DecodeErrorKind::kBadLength,
                       3, os.str());
  }
  if (std::bit_cast<std::uint64_t>(payload[4]) !=
      envelope_checksum(payload)) {
    throw_decode_error(DecodeErrorKind::kBadChecksum, 4,
                       "envelope checksum mismatch");
  }
  return EnvelopeView{seq, payload.subspan(kEnvelopeDoubles)};
}

std::size_t tenant_frame_doubles(std::span<const std::size_t> body_lengths) {
  std::size_t total = kTenantHeaderDoubles;
  for (std::size_t len : body_lengths) total += kTenantEntryDoubles + len;
  return total;
}

void encode_tenant_frame(std::span<const TenantEntry> entries,
                         std::span<double> out) {
  std::size_t total = kTenantHeaderDoubles;
  for (const TenantEntry& e : entries) {
    DSOUTH_CHECK_MSG(e.tenant >= 0, "tenant ids are batch indices (>= 0)");
    DSOUTH_CHECK_MSG(!e.body.empty(), "tenant entry bodies cannot be empty");
    total += kTenantEntryDoubles + e.body.size();
  }
  DSOUTH_CHECK(out.size() == total);
  out[0] = tenant_magic();
  out[1] = static_cast<double>(kWireVersion);
  out[2] = static_cast<double>(entries.size());
  std::size_t off = kTenantHeaderDoubles;
  for (const TenantEntry& e : entries) {
    out[off] = static_cast<double>(e.tenant);
    out[off + 1] = static_cast<double>(e.body.size());
    off += kTenantEntryDoubles;
    for (std::size_t j = 0; j < e.body.size(); ++j) out[off + j] = e.body[j];
    off += e.body.size();
  }
}

}  // namespace dsouth::wire
