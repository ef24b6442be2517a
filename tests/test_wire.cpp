/// Tests for the wire-format codec (wire/wire.hpp) and the CommPlan /
/// ChannelSet staging layer (wire/comm_plan.hpp): v1 layouts are
/// byte-identical to the legacy ad-hoc encodings, every record ships as
/// one physical message, and the pooled encode-in-place hot path performs
/// no heap allocation once warm.

#include "wire/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "dist/batch.hpp"
#include "dist/driver.hpp"
#include "dist/solver_base.hpp"
#include "prof/prof.hpp"
#include "simmpi/rank_context.hpp"
#include "simmpi/runtime.hpp"
#include "sparse/scaling.hpp"
#include "sparse/stencils.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "wire/comm_plan.hpp"

namespace dsouth::wire {
namespace {

using util::CheckError;

// Encode one record with recognizable field values: dx[i] = base + i,
// rb[i] = -(base + i).
std::vector<double> encode(RecordType t, double norm2, double gamma2,
                           std::size_t nb, double base = 10.0) {
  std::vector<double> out(encoded_doubles(t, nb));
  auto rec = begin_record(t, norm2, gamma2, out, nb);
  for (std::size_t i = 0; i < rec.dx.size(); ++i) {
    rec.dx[i] = base + static_cast<double>(i);
  }
  for (std::size_t i = 0; i < rec.rb.size(); ++i) {
    rec.rb[i] = -(base + static_cast<double>(i));
  }
  return out;
}

TEST(Codec, EncodedSizesFollowLayoutV1) {
  for (const std::size_t nb : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
    EXPECT_EQ(encoded_doubles(RecordType::kGhostDelta, nb), nb);
    EXPECT_EQ(encoded_doubles(RecordType::kNormUpdate, nb), 2 + nb);
    EXPECT_EQ(encoded_doubles(RecordType::kResidualNorm, nb), 2u);
    EXPECT_EQ(encoded_doubles(RecordType::kSolveUpdate, nb), 3 + 2 * nb);
    EXPECT_EQ(encoded_doubles(RecordType::kCorrection, nb), 3 + nb);
  }
}

TEST(Codec, TagAndFamilyMapping) {
  EXPECT_EQ(tag_of(RecordType::kGhostDelta), simmpi::MsgTag::kSolve);
  EXPECT_EQ(tag_of(RecordType::kNormUpdate), simmpi::MsgTag::kSolve);
  EXPECT_EQ(tag_of(RecordType::kSolveUpdate), simmpi::MsgTag::kSolve);
  EXPECT_EQ(tag_of(RecordType::kResidualNorm), simmpi::MsgTag::kResidual);
  EXPECT_EQ(tag_of(RecordType::kCorrection), simmpi::MsgTag::kResidual);

  EXPECT_EQ(family_of(RecordType::kGhostDelta), Family::kDelta);
  EXPECT_EQ(family_of(RecordType::kNormUpdate), Family::kNorm);
  EXPECT_EQ(family_of(RecordType::kResidualNorm), Family::kNorm);
  EXPECT_EQ(family_of(RecordType::kSolveUpdate), Family::kEstimate);
  EXPECT_EQ(family_of(RecordType::kCorrection), Family::kEstimate);

  for (int t = 0; t < kNumRecordTypes; ++t) {
    EXPECT_NE(record_type_name(static_cast<RecordType>(t)), nullptr);
  }
}

TEST(Codec, RoundTripsAllRecordTypes) {
  const RecordType kAll[] = {RecordType::kGhostDelta, RecordType::kNormUpdate,
                             RecordType::kResidualNorm,
                             RecordType::kSolveUpdate, RecordType::kCorrection};
  for (const RecordType t : kAll) {
    for (const std::size_t nb :
         {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
      SCOPED_TRACE(std::string(record_type_name(t)) + " nb=" +
                   std::to_string(nb));
      const auto buf = encode(t, 0.5, 0.25, nb);
      const Record rec = decode_record(family_of(t), buf, nb);
      EXPECT_EQ(rec.type, t);
      if (t != RecordType::kGhostDelta) {
        EXPECT_EQ(rec.norm2, 0.5);
      }
      if (t == RecordType::kSolveUpdate || t == RecordType::kCorrection) {
        EXPECT_EQ(rec.gamma2, 0.25);
      }
      const bool has_dx =
          t == RecordType::kGhostDelta || t == RecordType::kNormUpdate ||
          t == RecordType::kSolveUpdate;
      const bool has_rb =
          t == RecordType::kSolveUpdate || t == RecordType::kCorrection;
      ASSERT_EQ(rec.dx.size(), has_dx ? nb : 0u);
      ASSERT_EQ(rec.rb.size(), has_rb ? nb : 0u);
      for (std::size_t i = 0; i < rec.dx.size(); ++i) {
        EXPECT_EQ(rec.dx[i], 10.0 + static_cast<double>(i));
      }
      for (std::size_t i = 0; i < rec.rb.size(); ++i) {
        EXPECT_EQ(rec.rb[i], -(10.0 + static_cast<double>(i)));
      }
    }
  }
}

// The byte-compatibility contract: the encoder must produce EXACTLY the
// layouts the solvers historically hand-rolled, or the committed bench
// baselines would drift.
TEST(Codec, EncodingMatchesLegacyByteLayout) {
  EXPECT_EQ(encode(RecordType::kGhostDelta, 0, 0, 3),
            (std::vector<double>{10, 11, 12}));
  EXPECT_EQ(encode(RecordType::kNormUpdate, 0.5, 0, 3),
            (std::vector<double>{0.0, 0.5, 10, 11, 12}));
  EXPECT_EQ(encode(RecordType::kResidualNorm, 0.5, 0, 3),
            (std::vector<double>{1.0, 0.5}));
  EXPECT_EQ(encode(RecordType::kSolveUpdate, 0.5, 0.25, 3),
            (std::vector<double>{0.0, 0.5, 0.25, 10, 11, 12, -10, -11, -12}));
  EXPECT_EQ(encode(RecordType::kCorrection, 0.5, 0.25, 3),
            (std::vector<double>{1.0, 0.5, 0.25, -10, -11, -12}));
}

TEST(Codec, RejectsWrongSizeAndDiscriminator) {
  // Wrong payload length for the channel width.
  const std::vector<double> three{0.0, 1.0, 2.0};
  EXPECT_THROW(decode_record(Family::kDelta, three, 5), CheckError);
  EXPECT_THROW(decode_record(Family::kNorm, three, 5), CheckError);
  EXPECT_THROW(decode_record(Family::kEstimate, three, 5), CheckError);
  // Unknown discriminator (neither 0 nor 1).
  const std::vector<double> bad_disc{2.0, 1.0};
  EXPECT_THROW(decode_record(Family::kNorm, bad_disc, 0), CheckError);
  // Empty payload on a non-empty channel.
  EXPECT_THROW(decode_record(Family::kDelta, std::vector<double>{}, 1),
               CheckError);
}

// Width-0 channels (a neighbor with an empty ghost layer) are legal: the
// GhostDelta encoding is an empty payload and must decode back.
TEST(Codec, EmptyGhostLayerRoundTrips) {
  const auto buf = encode(RecordType::kGhostDelta, 0, 0, 0);
  EXPECT_TRUE(buf.empty());
  const Record rec = decode_record(Family::kDelta, buf, 0);
  EXPECT_EQ(rec.type, RecordType::kGhostDelta);
  EXPECT_TRUE(rec.dx.empty());
}

// ---------------------------------------------------------------------------
// checksum64.

std::uint64_t checksum_of_words(std::span<const std::uint64_t> words) {
  return checksum64({}, std::as_bytes(words));
}

TEST(Checksum64, EveryBitFlipOfEveryWordMovesIt) {
  // All word counts around the four-lane stripe and its tail, every bit.
  util::Rng rng(0xc5e0'0001ULL);
  for (std::size_t n = 0; n <= 9; ++n) {
    std::vector<std::uint64_t> words(n);
    for (auto& w : words) w = rng.next_u64();
    const std::uint64_t clean = checksum_of_words(words);
    for (std::size_t i = 0; i < n; ++i) {
      for (int bit = 0; bit < 64; ++bit) {
        words[i] ^= 1ULL << bit;
        EXPECT_NE(checksum_of_words(words), clean)
            << n << " words, word " << i << " bit " << bit;
        words[i] ^= 1ULL << bit;
      }
    }
  }
  // A long buffer: a seeded sample of flips and whole-word changes.
  std::vector<std::uint64_t> words(1000);
  for (auto& w : words) w = rng.next_u64();
  const std::uint64_t clean = checksum_of_words(words);
  for (int t = 0; t < 2000; ++t) {
    const auto i = static_cast<std::size_t>(rng.next_below(words.size()));
    const std::uint64_t was = words[i];
    words[i] ^= t % 2 == 0 ? 1ULL << rng.next_below(64) : rng.next_u64() | 1;
    EXPECT_NE(checksum_of_words(words), clean) << "word " << i;
    words[i] = was;
  }
  EXPECT_EQ(checksum_of_words(words), clean);
}

TEST(Checksum64, WordCountMovesItAndPartialWordsAreRefused) {
  // Zero words differ only in how many there are: the folded count.
  const std::vector<std::uint64_t> words(8, 0);
  const std::span<const std::uint64_t> all(words);
  EXPECT_NE(checksum_of_words(all.first(7)), checksum_of_words(all));
  EXPECT_NE(checksum_of_words({}), checksum_of_words(all.first(1)));
  EXPECT_THROW(checksum64({}, std::as_bytes(all).first(12)), CheckError);
}

TEST(Checksum64, PinnedValues) {
  // A change to the algorithm must be deliberate: envelopes stored inside
  // checkpoints and every checkpoint depend on it.
  std::vector<std::uint64_t> words(13);
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = i + 1;
  EXPECT_EQ(checksum_of_words(words), 0xe6a23c9d02aa1a63ULL);
  const std::uint64_t prefix[2] = {41, 5};
  const double body[5] = {0.0, 0.25, 0.5, 1.0, -2.0};
  EXPECT_EQ(checksum64(std::as_bytes(std::span(prefix)),
                       std::as_bytes(std::span(body))),
            0x9b42bacf5b8536c5ULL);
}

TEST(Checksum64, SeqAndInnerLengthMoveTheEnvelopeChecksum) {
  std::vector<double> env(kEnvelopeDoubles + 4);
  auto body = begin_envelope(env, /*seq=*/9);
  for (std::size_t i = 0; i < body.size(); ++i) body[i] = 0.5 * double(i);
  seal_envelope(env);
  const double sealed = env[4];
  for (const std::size_t field : {std::size_t{2}, std::size_t{3}}) {
    auto moved = env;
    moved[field] += 1.0;
    seal_envelope(moved);
    EXPECT_NE(std::bit_cast<std::uint64_t>(moved[4]),
              std::bit_cast<std::uint64_t>(sealed))
        << "field " << field;
  }
}

// ---------------------------------------------------------------------------
// Seeded mutations of the wire decoders: every mutant of a record, an
// envelope or a tenant frame is either refused with a DecodeError or
// decodes to a value that encodes back to exactly the mutant, word for
// word — nothing crashes, nothing raises another check, nothing is read
// past the payload, and no two payloads decode to the same value.

std::vector<std::uint64_t> words_of(std::span<const double> v) {
  std::vector<std::uint64_t> w(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    w[i] = std::bit_cast<std::uint64_t>(v[i]);
  }
  return w;
}

/// Run 2000 seeded mutants of `clean` — one to four bit flips, a
/// truncation, or a splice of a run of the buffer over another place, in
/// turn — through `judge`, which decodes a payload and returns its
/// re-encoding. Every odd mutant passes through `reseal` first, so that
/// checksums do not hide the parser behind them. Expects both outcomes.
template <typename Judge, typename Reseal>
void expect_mutants_never_misparse(const char* what,
                                   const std::vector<double>& clean,
                                   Judge judge, Reseal reseal) {
  SCOPED_TRACE(what);
  util::Rng rng(0x5eed'3173ULL);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  int rejected = 0, decoded = 0;
  for (int t = 0; t < 2000; ++t) {
    std::vector<double> m = clean;
    switch (t / 2 % 3) {
      case 0:  // one to four bit flips
        for (std::size_t f = 0, flips = 1 + below(4); f < flips; ++f) {
          double& d = m[below(m.size())];
          d = std::bit_cast<double>(std::bit_cast<std::uint64_t>(d) ^
                                    (1ULL << below(64)));
        }
        break;
      case 1:  // truncation
        m.resize(below(m.size()));
        break;
      case 2: {  // splice
        const std::size_t from = below(m.size());
        const std::size_t to = below(m.size());
        const std::size_t len =
            std::min({1 + below(8), m.size() - from, m.size() - to});
        std::copy_n(clean.begin() + static_cast<std::ptrdiff_t>(from), len,
                    m.begin() + static_cast<std::ptrdiff_t>(to));
        break;
      }
    }
    if (t % 2 == 1) reseal(m);
    try {
      const std::vector<double> again = judge(std::span<const double>(m));
      ASSERT_EQ(words_of(again), words_of(m)) << "mutant " << t;
      ++decoded;
    } catch (const DecodeError&) {
      ++rejected;
    } catch (const CheckError& e) {
      ADD_FAILURE() << "mutant " << t << " raised " << e.what();
    }
  }
  EXPECT_GT(rejected, 300);
  EXPECT_GT(decoded, 10);
}

TEST(WireCodec, SeededMutationsNeverMisparse) {
  constexpr std::size_t nb = 5;
  const auto no_reseal = [](std::vector<double>&) {};
  const auto record_judge = [](Family family) {
    return [family](std::span<const double> payload) {
      const Record rec = decode_record(family, payload, nb);
      std::vector<double> out(encoded_doubles(rec.type, nb));
      const MutableRecord w =
          begin_record(rec.type, rec.norm2, rec.gamma2, out, nb);
      std::copy(rec.dx.begin(), rec.dx.end(), w.dx.begin());
      std::copy(rec.rb.begin(), rec.rb.end(), w.rb.begin());
      return out;
    };
  };
  expect_mutants_never_misparse(
      "DS SolveUpdate", encode(RecordType::kSolveUpdate, 0.5, 0.25, nb),
      record_judge(Family::kEstimate), no_reseal);
  expect_mutants_never_misparse(
      "PS NormUpdate", encode(RecordType::kNormUpdate, 0.5, 0.0, nb),
      record_judge(Family::kNorm), no_reseal);
  expect_mutants_never_misparse(
      "BJ GhostDelta", encode(RecordType::kGhostDelta, 0.0, 0.0, nb),
      record_judge(Family::kDelta), no_reseal);

  // A sealed envelope around a DS record, sequence number 0 (a channel's
  // first); resealing stamps a fresh checksum wherever the magic survived.
  const auto record = encode(RecordType::kSolveUpdate, 0.5, 0.25, nb);
  std::vector<double> envelope(kEnvelopeDoubles + record.size());
  const auto body = begin_envelope(envelope, /*seq=*/0);
  std::copy(record.begin(), record.end(), body.begin());
  seal_envelope(envelope);
  expect_mutants_never_misparse(
      "envelope", envelope,
      [](std::span<const double> payload) {
        const EnvelopeView v = decode_envelope(payload);
        std::vector<double> out(kEnvelopeDoubles + v.body.size());
        const auto b = begin_envelope(out, v.seq);
        std::copy(v.body.begin(), v.body.end(), b.begin());
        seal_envelope(out);
        return out;
      },
      [](std::vector<double>& m) {
        if (m.size() >= kEnvelopeDoubles &&
            std::bit_cast<std::uint64_t>(m[0]) == kEnvelopeMagicBits) {
          seal_envelope(m);
        }
      });

  // A three-tenant frame: a bare DS record, the envelope, a PS record.
  const auto ps = encode(RecordType::kNormUpdate, 0.75, 0.0, 2);
  const TenantEntry entries[] = {{0, record}, {1, envelope}, {2, ps}};
  const std::size_t lengths[] = {record.size(), envelope.size(), ps.size()};
  std::vector<double> frame(tenant_frame_doubles(lengths));
  encode_tenant_frame(entries, frame);
  expect_mutants_never_misparse(
      "tenant frame", frame,
      [](std::span<const double> payload) {
        std::vector<TenantEntry> got;
        std::vector<std::size_t> lens;
        for_each_tenant(payload, 3, [&](const TenantEntry& e) {
          got.push_back(e);
          lens.push_back(e.body.size());
        });
        std::vector<double> out(tenant_frame_doubles(lens));
        encode_tenant_frame(got, out);
        return out;
      },
      no_reseal);

  // Signed zeros the mutants turn up: -0.0 == 0.0 as doubles, but no
  // encoder writes it, so a discriminator, sequence number or tenant id
  // holding it is refused rather than decoded as its positive twin.
  auto neg_disc = encode(RecordType::kSolveUpdate, 0.5, 0.25, nb);
  neg_disc[0] = -0.0;
  EXPECT_THROW(decode_record(Family::kEstimate, neg_disc, nb), DecodeError);
  auto neg_seq = envelope;
  neg_seq[2] = -0.0;
  seal_envelope(neg_seq);
  EXPECT_THROW(decode_envelope(neg_seq), DecodeError);
  auto neg_tenant = frame;
  neg_tenant[kTenantHeaderDoubles] = -0.0;
  EXPECT_THROW(for_each_tenant(neg_tenant, 3, [](const TenantEntry&) {}),
               DecodeError);
  // Nor does the decoder accept a sequence number begin_envelope refuses.
  auto big_seq = envelope;
  big_seq[2] = 0x1.0p53;
  seal_envelope(big_seq);
  EXPECT_THROW(decode_envelope(big_seq), DecodeError);
}

// ---------------------------------------------------------------------------
// CommPlan / ChannelSet.

TEST(CommPlan, ReportsPeersAndBufferSizingHint) {
  CommPlan plan({{{1, 2, 3}, {2, 4, 1}}, {{0, 3, 2}}, {{0, 1, 4}}});
  EXPECT_EQ(plan.num_ranks(), 3);
  ASSERT_EQ(plan.peers(0).size(), 2u);
  EXPECT_EQ(plan.peers(0)[1].rank, 2);
  EXPECT_EQ(plan.peers(0)[1].send_width, 4u);
  EXPECT_EQ(plan.peers(0)[1].recv_width, 1u);
  // The send width sizes the records a channel stages: a SolveUpdate on
  // the width-4 channel is 3 + 2*4 doubles.
  EXPECT_EQ(encoded_doubles(RecordType::kSolveUpdate,
                            plan.peers(0)[1].send_width),
            11u);
}

TEST(ChannelSet, DirectModeStagesBareRecords) {
  CommPlan plan({{{1, 2, 3}}, {{0, 3, 2}}});
  simmpi::Runtime rt(2);
  ChannelSet ch(plan, 0);
  simmpi::RankContext ctx(rt, 0);
  auto rec = ch.open(ctx, 0, RecordType::kNormUpdate, 0.25);
  ASSERT_EQ(rec.dx.size(), 2u);
  rec.dx[0] = 1.5;
  rec.dx[1] = 2.5;
  ch.flush();  // no-op without sequencing
  rt.fence();
  const auto win = rt.window(1);
  ASSERT_EQ(win.size(), 1u);
  EXPECT_EQ(win[0].source, 0);
  EXPECT_EQ(win[0].tag, simmpi::MsgTag::kSolve);
  EXPECT_EQ(win[0].payload, (std::vector<double>{0.0, 0.25, 1.5, 2.5}));
  EXPECT_EQ(rt.stats().total_messages(), 1u);
  EXPECT_EQ(rt.stats().logical_messages(), 1u);
}

TEST(ChannelSet, TogglingWithBufferedRecordsIsRejected) {
  CommPlan plan({{{1, 2, 3}}, {{0, 3, 2}}});
  simmpi::Runtime rt(2);
  ChannelSet ch(plan, 0);
  ch.set_batch_staging(true);
  simmpi::RankContext ctx(rt, 0);
  auto rec = ch.open(ctx, 0, RecordType::kResidualNorm, 0.5);
  (void)rec;
  EXPECT_EQ(ch.buffered(0), 1u);
  EXPECT_THROW(ch.set_batch_staging(false), CheckError);
}

TEST(ChannelSet, ZeroWidthChannelsAndZeroNeighborRanks) {
  // Rank 0 sends a width-0 GhostDelta to rank 1; rank 1 has no peers at
  // all (an interior-only partition piece).
  CommPlan plan({{{1, 0, 0}}, {}});
  EXPECT_TRUE(plan.peers(1).empty());
  simmpi::Runtime rt(2);
  ChannelSet ch0(plan, 0), ch1(plan, 1);
  simmpi::RankContext c0(rt, 0), c1(rt, 1);
  auto rec = ch0.open(c0, 0, RecordType::kGhostDelta);
  EXPECT_TRUE(rec.dx.empty());
  ch0.flush();
  ch1.flush();  // nothing to do, must not throw
  rt.fence();
  const auto win = rt.window(1);
  ASSERT_EQ(win.size(), 1u);
  EXPECT_TRUE(win[0].payload.empty());
  EXPECT_TRUE(decode_record(Family::kDelta, win[0].payload, 0).dx.empty());
}

}  // namespace
}  // namespace dsouth::wire

// ---------------------------------------------------------------------------
// Solver-level properties.

namespace dsouth::dist {
namespace {

struct Problem {
  CsrMatrix a;
  std::vector<value_t> b, x0;
  graph::Partition part;
};

Problem make_problem(index_t nx, index_t k, std::uint64_t seed) {
  Problem p;
  p.a = sparse::symmetric_unit_diagonal_scale(sparse::poisson2d_5pt(nx, nx)).a;
  p.b.assign(static_cast<std::size_t>(p.a.rows()), 0.0);
  p.x0.resize(p.b.size());
  util::Rng rng(seed);
  rng.fill_uniform(p.x0, -1.0, 1.0);
  sparse::normalize_initial_residual(p.a, p.b, p.x0);
  auto g = graph::Graph::from_matrix_structure(p.a);
  p.part = graph::partition_recursive_bisection(g, k);
  return p;
}

const DistMethod kAllMethods[] = {
    DistMethod::kBlockJacobi, DistMethod::kParallelSouthwell,
    DistMethod::kDistributedSouthwell, DistMethod::kMulticolorBlockGs};

// The shared counting operator new (src/prof/alloc_hook.cpp) is compiled
// into this binary (tests/CMakeLists.txt) and sees ordinary heap traffic.
TEST(AllocHook, CountsOperatorNewTraffic) {
  namespace alloc_hook = prof::alloc_hook;
  ASSERT_TRUE(alloc_hook::available());
  const std::uint64_t allocs0 = alloc_hook::allocations();
  const std::uint64_t bytes0 = alloc_hook::bytes();
  {
    std::vector<double> v(1000);
    EXPECT_GT(v.size(), 0u);  // keep the allocation live
  }
  EXPECT_GE(alloc_hook::allocations(), allocs0 + 1);
  EXPECT_GE(alloc_hook::bytes(), bytes0 + 1000 * sizeof(double));
  EXPECT_GE(alloc_hook::frees(), 1u);
}

// The acceptance bar for the pooled encode-in-place hot path: once buffers
// are warm, stepping a solver performs ZERO heap allocations — stage
// buffers, window buffers, scratch vectors, and std::function thunks are
// all recycled or in SBO.
TEST(Allocation, SolverStepsAreAllocationFreeOnceWarm) {
  // Without the hook every count reads 0, and the check below would pass
  // vacuously.
  ASSERT_TRUE(prof::alloc_hook::available());
  auto p = make_problem(8, 4, 7);
  for (const auto method : kAllMethods) {
    SCOPED_TRACE(method_name(method));
    DistLayout layout(p.a, p.part);
    simmpi::Runtime rt(4);
    DistRunOptions opt;
    auto solver = make_dist_solver(method, layout, rt, p.b, p.x0, opt);
    // Warm-up: long enough for every (rank, neighbor, record-type) pattern
    // the run exercises to have grown its pooled buffers to steady state
    // (DS correction sets vary from step to step).
    for (int s = 0; s < 60; ++s) solver->step();
    const auto before = prof::alloc_hook::allocations();
    for (int s = 0; s < 10; ++s) solver->step();
    const auto after = prof::alloc_hook::allocations();
    EXPECT_EQ(after - before, 0u);
  }
}

// The same bar for a B = 3 batch: shared epochs, tenant frames and the
// demux allocate nothing once warm. Whole runs of 100 and 110 steps grow
// every per-tenant series to one capacity (101 and 111 entries both fit
// 128), so their allocation counts differ by the last ten steps alone.
TEST(Allocation, BatchedStepsAreAllocationFreeOnceWarm) {
  ASSERT_TRUE(prof::alloc_hook::available());
  auto p = make_problem(8, 4, 7);
  DistLayout layout(p.a, p.part);
  const DistLayout* layouts[] = {&layout};
  std::vector<value_t> x1(p.x0.size()), x2(p.x0.size());
  util::Rng rng(8);
  rng.fill_uniform(x1, -1.0, 1.0);
  rng.fill_uniform(x2, -1.0, 1.0);
  const TenantSpec specs[] = {{p.b, p.x0, 0.0}, {p.b, x1, 0.0}, {p.b, x2, 0.0}};
  for (const auto method : kAllMethods) {
    SCOPED_TRACE(method_name(method));
    const auto run_allocations = [&](index_t steps) {
      DistRunOptions opt;
      opt.max_parallel_steps = steps;
      const auto before = prof::alloc_hook::allocations();
      const auto r = run_distributed_batch(method, layouts, specs, opt);
      const auto after = prof::alloc_hook::allocations();
      EXPECT_EQ(r.steps_taken, steps);
      return after - before;
    };
    const auto short_run = run_allocations(100);
    EXPECT_EQ(run_allocations(110), short_run);
  }
}

}  // namespace
}  // namespace dsouth::dist
