#pragma once

/// \file wire.hpp
/// Versioned, typed wire format for the distributed solvers' messages.
///
/// Every payload the dist/ solvers exchange is one of five record types;
/// before this layer each solver hand-rolled its layout as a raw
/// std::vector<double> with implicit field offsets (DESIGN.md §10). The
/// codec makes the layouts explicit and checked while keeping the encoded
/// bytes EXACTLY what the solvers always sent — layout v1 below is the
/// legacy format, so default-mode bench records and baselines are
/// byte-identical across the refactor.
///
/// Layout v1 (doubles; nb = boundary width of the directed channel):
///
///   record         | encoding                                | sender
///   ---------------|-----------------------------------------|----------
///   kGhostDelta    | [dx_0 .. dx_nb)                         | BJ, MCBGS
///   kNormUpdate    | [0, ‖r‖², dx_0 .. dx_nb)                | PS solve
///   kResidualNorm  | [1, ‖r‖²]                               | PS Epoch B
///   kSolveUpdate   | [0, ‖r‖², Γ², dx.. (nb), rb.. (nb)]     | DS solve
///   kCorrection    | [1, ‖r‖², Γ², rb.. (nb)]                | DS Epoch B
///
/// The leading 0/1 discriminator distinguishes the members of a decode
/// *family* — the set of record types one receiving channel can observe
/// (PS windows see kNormUpdate/kResidualNorm, DS windows see
/// kSolveUpdate/kCorrection, BJ/MCBGS windows only kGhostDelta, which is
/// headerless because its family has a single member).
///
/// Every physical message carries exactly one of three things: a bare v1
/// record (the default path), a sequenced envelope wrapping one record
/// (resilient channels, below), or a tenant frame multiplexing one record
/// per co-scheduled tenant (batched runs, below). Envelopes and tenant
/// frames lead with distinct magic quiet NaNs, compared bit-exactly.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "simmpi/stats.hpp"
#include "util/error.hpp"

namespace dsouth::wire {

/// Wire format version; bumped on any encoding change. Tenant frames carry
/// it explicitly; bare records are implicitly v1 (their layout is frozen —
/// it is the byte-compatibility contract with the committed baselines).
inline constexpr int kWireVersion = 1;

/// Version advertised by sequenced envelopes (resilient mode, below).
inline constexpr int kWireVersionSequenced = 2;

// ---------------------------------------------------------------------------
// Structured decode errors.

/// Why a payload was rejected. Fault-injection tests and the
/// `dsouth-analyze -check` gate assert on the *reason* a corrupted frame
/// was refused, not just that it threw (docs/resilience.md).
enum class DecodeErrorKind : int {
  kTruncated = 0,        ///< payload shorter than the declared content
  kBadDiscriminator,     ///< leading 0/1 (or envelope magic) mismatch
  kBadLength,            ///< length field inconsistent with channel width
  kBadVersion,           ///< frame/envelope version out of range
  kBadType,              ///< tenant-frame entry names no tenant of the batch
  kBadCount,             ///< non-integral count/seq field
  kTrailing,             ///< frame walked clean but left extra doubles
  kBadChecksum,          ///< envelope checksum mismatch (bit corruption)
};

const char* decode_error_kind_name(DecodeErrorKind k);

/// Thrown by every decode-path validation in this file. Derives from
/// util::CheckError so callers that treat malformed payloads as plain
/// check failures keep working; resilience-aware callers catch it and
/// read the structured reason.
class DecodeError : public util::CheckError {
 public:
  DecodeError(DecodeErrorKind kind, std::size_t offset,
              const std::string& what)
      : util::CheckError(what), kind_(kind), offset_(offset) {}

  DecodeErrorKind kind() const { return kind_; }
  /// Offset of the offending field, in doubles from the payload start.
  std::size_t offset() const { return offset_; }

 private:
  DecodeErrorKind kind_;
  std::size_t offset_;
};

[[noreturn]] void throw_decode_error(DecodeErrorKind kind, std::size_t offset,
                                     const std::string& detail);

enum class RecordType : int {
  kGhostDelta = 0,    ///< boundary Δx only (BJ / MCBGS solve)
  kNormUpdate = 1,    ///< ‖r‖² + boundary Δx (PS solve)
  kResidualNorm = 2,  ///< ‖r‖² only (PS explicit residual update)
  kSolveUpdate = 3,   ///< ‖r‖², Γ², Δx, exact boundary residuals (DS solve)
  kCorrection = 4,    ///< ‖r‖², Γ², exact boundary residuals (DS Epoch B)
};
inline constexpr int kNumRecordTypes = 5;

/// The record types one receiving channel can observe. Determines how a
/// bare (headerless-or-discriminated) payload is decoded.
enum class Family : int {
  kDelta = 0,     ///< {kGhostDelta}
  kNorm = 1,      ///< {kNormUpdate, kResidualNorm}
  kEstimate = 2,  ///< {kSolveUpdate, kCorrection}
};

const char* record_type_name(RecordType t);

/// The simmpi tag a record travels under (Table 3's solve vs explicit-
/// residual breakdown).
simmpi::MsgTag tag_of(RecordType t);

Family family_of(RecordType t);

/// Encoded size in doubles for a record of type `t` on a channel whose
/// outgoing boundary width is `nb`.
std::size_t encoded_doubles(RecordType t, std::size_t nb);

/// A decoded record. The spans alias the decoded payload buffer — valid
/// as long as the message it came from.
struct Record {
  RecordType type = RecordType::kGhostDelta;
  double norm2 = 0.0;   ///< sender's ‖r‖² (kNormUpdate/kSolveUpdate: new)
  double gamma2 = 0.0;  ///< sender's Γ² estimate of the receiver (DS only)
  std::span<const double> dx;  ///< boundary Δx (empty if the type has none)
  std::span<const double> rb;  ///< exact boundary residuals (DS types)
};

/// Encode-in-place handle: begin_record() writes the fixed header fields
/// into `out` and hands back the variable segments for the caller to
/// gather boundary values into directly (no intermediate arrays).
struct MutableRecord {
  std::span<double> dx;
  std::span<double> rb;
};

/// Write the v1 header of a `t` record into `out` (which must be exactly
/// encoded_doubles(t, nb) long) and return the dx/rb segments to fill.
/// The caller must write every element of the returned spans.
MutableRecord begin_record(RecordType t, double norm2, double gamma2,
                           std::span<double> out, std::size_t nb);

/// Decode a single bare record of `family` received on a channel of
/// incoming width `nb`. Checks the discriminator and the exact payload
/// length — malformed data throws DecodeError, never misparses.
Record decode_record(Family family, std::span<const double> payload,
                     std::size_t nb);

// ---------------------------------------------------------------------------
// Word-lane checksum: seals envelopes (below) and elastic checkpoints
// (elastic/checkpoint.hpp, where it covers the header fields num_ranks,
// method, epoch and step as well as the payload).
//
// Four independent lanes run the XXH64 round acc = rotl(acc + w·P2, 31)·P1
// over the stripes of `words` (four words a stripe), so the multiplies of
// neighbouring words overlap instead of forming one serial chain. One fold
// step, h = rotl(h ^ round(0, w), 27)·P1 + P4, then takes in the `prefix`
// words, the four lanes, the words left over after the last stripe, and
// the number of words covered, in that order; XXH64's avalanche finishes.
// Every round and fold step is a bijection in its state for a fixed input
// word and in its input word for a fixed state, and each word enters
// exactly one lane round or one fold step, so two inputs of equal length
// that differ only inside one 64-bit word always checksum differently —
// the word-sized form of the one-byte guarantee of byte-wise FNV-1a.
// (Canonical XXH64 also adds every lane into the fold's starting state, so
// a changed lane enters twice and that proof fails.) Not a MAC: it detects
// corruption, not tampering.

/// Checksum of the little-endian 64-bit words of `prefix` followed by
/// those of `words`; both sizes must be whole words (multiples of 8).
std::uint64_t checksum64(std::span<const std::byte> prefix,
                         std::span<const std::byte> words);

// ---------------------------------------------------------------------------
// Sequenced envelopes (wire v2, resilient mode — docs/resilience.md).
//
// Under fault injection a receiver must detect duplicated, stale,
// truncated, and bit-corrupted payloads. The envelope wraps one v1 record
// in a fixed 5-double header:
//
//   [magic, version=2, seq, inner_len, checksum, body...]
//
// `magic` is a quiet NaN (bit-exact compare); `seq` is the per-channel
// send counter the receiver gates duplicates/staleness on; `inner_len`
// pins the body length so truncation is detected even when the truncated
// payload happens to be a plausible record size; `checksum` is
// checksum64 over the bit patterns of seq, inner_len (the prefix) and
// every body double — any change confined to one of those words (or to
// the checksum itself), every single-bit flip included, is detected.
// Envelopes are opt-in per channel (ChannelSet::set_sequencing) and never
// appear on the default path, so v1 byte layouts are untouched.

/// Envelope magic: a specific quiet NaN, compared bit-exactly.
inline constexpr std::uint64_t kEnvelopeMagicBits = 0x7ff8'd500'57e1'1ed2ULL;

inline double envelope_magic() {
  return std::bit_cast<double>(kEnvelopeMagicBits);
}

inline constexpr std::size_t kEnvelopeDoubles = 5;

/// A validated envelope: the channel sequence number and the body span
/// (aliasing the payload — valid as long as the message it came from).
struct EnvelopeView {
  std::uint64_t seq = 0;
  std::span<const double> body;
};

/// Write the envelope header (magic, version, seq, inner length) into
/// `out` and return the body span for the caller to encode the record
/// into. The checksum slot is left unsealed: call seal_envelope(out)
/// after the body is fully written (spans from stage() stay valid until
/// the fence, so sealing may happen at channel flush).
std::span<double> begin_envelope(std::span<double> out, std::uint64_t seq);

/// Compute and store the checksum of a fully-written envelope.
void seal_envelope(std::span<double> out);

/// Validate magic, version, seq/length integrity, and checksum; returns
/// the seq and body. Throws DecodeError with the rejection reason.
EnvelopeView decode_envelope(std::span<const double> payload);

// ---------------------------------------------------------------------------
// Tenant frames (batched multi-tenant serving — DESIGN.md §14,
// docs/serving.md).
//
// The batch coordinator (dist/batch.hpp) runs B tenant systems — same
// sparsity, different right-hand sides/coefficients — through one runtime,
// and co-scheduled tenants that stage to the same neighbor in the same
// epoch share a single physical put per (peer, tag). Each body keeps its
// tenant's own physical encoding untouched — a bare v1 record or a
// sequenced envelope — so per-tenant decoding is exactly the unbatched
// path; the tenant frame adds only the demux key:
//
//   [magic, version=1, count, {tenant, body_len, body...} × count]
//
// A tenant frame multiplexes *different logical channels* over one
// physical message, so each entry carries an explicit length: the
// receiver cannot size body i without decoding it as tenant i's family,
// and the demux must be able to skip bodies while dispatching. Entries
// appear in tenant-schedule order, preserving each tenant's own send order
// — the order the unbatched run would have delivered in. A lone entry
// still ships framed: dropping the header would drop the tenant id. A
// batch of one ships no frames at all — its channels stay in direct mode,
// so it is byte-identical to the unbatched run (dist/batch.hpp).

/// Tenant-frame magic: a quiet NaN distinct from the envelope magic.
inline constexpr std::uint64_t kTenantMagicBits = 0x7ff8'd500'57e1'1ed4ULL;

inline double tenant_magic() {
  return std::bit_cast<double>(kTenantMagicBits);
}

inline constexpr std::size_t kTenantHeaderDoubles = 3;  ///< magic, ver, count
inline constexpr std::size_t kTenantEntryDoubles = 2;   ///< tenant, length

/// True when `payload` leads with the tenant-frame magic.
inline bool is_tenant_frame(std::span<const double> payload) {
  return payload.size() >= kTenantHeaderDoubles &&
         std::bit_cast<std::uint64_t>(payload[0]) == kTenantMagicBits;
}

/// One record in a tenant frame: the owning tenant's index in the batch
/// and its physical payload (bare record or envelope — the span aliases
/// the frame, valid as long as the message it came from).
struct TenantEntry {
  int tenant = 0;
  std::span<const double> body;
};

/// Total doubles of a tenant frame holding bodies of the given lengths.
std::size_t tenant_frame_doubles(std::span<const std::size_t> body_lengths);

/// Serialize `entries` (any tenant order; bodies copied verbatim) into
/// `out`, which must be exactly tenant_frame_doubles(lengths) long.
void encode_tenant_frame(std::span<const TenantEntry> entries,
                         std::span<double> out);

/// Walk a tenant frame of a batch of `num_tenants` tenants, invoking
/// fn(const TenantEntry&) per entry in frame order. Validates the magic,
/// version, count, tenant ids (each must lie in [0, num_tenants)), entry
/// lengths against the frame size, and that the entries consume the
/// payload exactly; throws DecodeError with the rejection reason. Bodies
/// are NOT decoded — dispatch each to its tenant's ordinary decode path.
template <typename Fn>
void for_each_tenant(std::span<const double> frame, std::size_t num_tenants,
                     Fn&& fn);

// ---------------------------------------------------------------------------
// Implementation details.

namespace detail {
/// Validate that a fully-walked frame consumed the whole payload.
void check_frame_end(std::span<const double> payload, std::size_t off);
/// Validate a tenant-frame header and return the entry count.
std::size_t check_tenant_header(std::span<const double> payload);
/// Validate one tenant entry header at `off`; returns (tenant, length)
/// with the tenant checked to lie in [0, num_tenants) and the body checked
/// to fit inside the payload.
struct TenantEntryHeader {
  int tenant;
  std::size_t length;
};
TenantEntryHeader check_tenant_entry(std::span<const double> payload,
                                     std::size_t off, std::size_t num_tenants);
}  // namespace detail

template <typename Fn>
void for_each_tenant(std::span<const double> frame, std::size_t num_tenants,
                     Fn&& fn) {
  const std::size_t count = detail::check_tenant_header(frame);
  std::size_t off = kTenantHeaderDoubles;
  for (std::size_t i = 0; i < count; ++i) {
    const auto entry = detail::check_tenant_entry(frame, off, num_tenants);
    off += kTenantEntryDoubles;
    fn(TenantEntry{entry.tenant, frame.subspan(off, entry.length)});
    off += entry.length;
  }
  detail::check_frame_end(frame, off);
}

}  // namespace dsouth::wire
