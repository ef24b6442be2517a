#pragma once

/// \file rng.hpp
/// Deterministic random number generation for the dsouth library.
///
/// The paper's artifact used MKL random number generators to produce initial
/// guesses and right-hand sides. This repository has no MKL, and — more
/// importantly — needs bit-reproducible experiments, so all randomness comes
/// from this self-contained xoshiro256** generator seeded via SplitMix64.
/// Every experiment in bench/ documents the seed it uses.

#include <cstdint>
#include <span>
#include <vector>

namespace dsouth::util {

/// One SplitMix64 step as a stateless function: advance `z` by the golden
/// gamma and avalanche it. (Public-domain algorithm by Sebastiano Vigna.)
inline std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless hash of (seed, salt, epoch, src, dst, seq): the key of every
/// per-message draw the runtime makes (fault decisions, async latencies),
/// so a draw never depends on call order or thread. Each user passes its
/// own salt, which keeps the draws mutually independent; a nonzero `lane`
/// splits one draw into independent sub-draws (e.g. corrupt index vs bit).
/// Inline: the fence makes one per staged message.
inline std::uint64_t draw(std::uint64_t seed, std::uint64_t salt,
                          std::uint64_t epoch, int src, int dst,
                          std::uint64_t seq, std::uint64_t lane = 0) {
  std::uint64_t h = mix(seed ^ salt);
  h = mix(h ^ epoch);
  h = mix(h ^ ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                << 32) |
               static_cast<std::uint32_t>(dst)));
  h = mix(h ^ seq);
  if (lane != 0) h = mix(h ^ lane);
  return h;
}

/// SplitMix64: used to expand a single 64-bit seed into the xoshiro state.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    const std::uint64_t z = state_;
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix(z);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG (public domain, Blackman &
/// Vigna). Deterministic across platforms; satisfies the C++ named
/// requirement UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x8f2d1a4be37c9d51ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n); n must be > 0.
  std::uint64_t next_below(std::uint64_t n);

  /// Standard normal via Box–Muller (deterministic, no cached spare).
  double normal();

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      std::swap(values[i - 1], values[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n,
                                                      std::size_t k);

  /// Fill with uniform values in [lo, hi).
  void fill_uniform(std::span<double> values, double lo, double hi);

 private:
  std::uint64_t s_[4];
};

}  // namespace dsouth::util
