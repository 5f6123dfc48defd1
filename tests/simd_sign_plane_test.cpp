// The sign-plane passes fed directly on every kernel tier: each family's
// `signs` pass, with per_word = F (the batched decoder's plane, one
// posterior row per word) and per_word = 64 (the z-lane decoder's packed
// hard decisions), and the shared `lane_bits` extraction for every lane.
// Inputs hold 0, +-1, both rails of the element type (+-127, +-32767)
// and the value that wraps on negation (-128, -32768) at every lane
// position, among random values; lengths leave a partial last word, and a
// guard word checks nothing is written past the last one. Each word must
// equal a scalar reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/simd/simd_kernel.hpp"
#include "util/rng.hpp"

namespace ldpc {
namespace {

constexpr std::uint64_t kGuard = 0x5A5A5A5A5A5A5A5AULL;

/// `count` values in blocks of 64: even blocks cycle the special values of
/// T, shifted by one more position each block, so from 768 values on every
/// lane position meets each of them; odd blocks are random.
template <class T>
std::vector<T> sign_inputs(std::size_t count, std::uint64_t seed) {
  constexpr T kMax = std::numeric_limits<T>::max();
  constexpr T kMin = std::numeric_limits<T>::min();
  const T specials[] = {0, 1, -1, kMax, static_cast<T>(-kMax), kMin};
  Xoshiro256 rng(seed);
  std::vector<T> v(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t block = i / 64;
    v[i] = block % 2 == 0 ? specials[(i % 64 + block / 2) % 6]
                          : static_cast<T>(rng());
  }
  return v;
}

/// Runs `signs` over `words` words of `per_word` values of `p` and checks
/// bit b of word w against p[w * per_word + b] < 0.
template <class T>
void expect_signs(void (*signs)(const simd::SignPass<T>&),
                  const std::vector<T>& p, std::size_t words,
                  std::uint32_t per_word, const std::string& ctx) {
  std::vector<std::uint64_t> out(words + 1, kGuard);
  signs({p.data(), words, per_word, out.data()});
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t want = 0;
    for (std::uint32_t b = 0; b < per_word; ++b)
      want |= static_cast<std::uint64_t>(p[w * per_word + b] < 0) << b;
    ASSERT_EQ(out[w], want) << ctx << " word " << w;
  }
  EXPECT_EQ(out[words], kGuard) << ctx << ": wrote past the last word";
}

/// Both shapes of one family's sign pass on `tier`.
template <class T>
void expect_family(void (*signs)(const simd::SignPass<T>&),
                   simd::SimdTier tier, const std::string& family) {
  const std::uint32_t lanes = simd::lanes_for<T>(tier);
  const std::string ctx = family + " tier=" + simd::to_string(tier);
  // Batched plane: one word per posterior row of F lanes.
  for (const std::size_t rows : {1, 2, 37, 229}) {
    const auto p = sign_inputs<T>(rows * lanes, rows);
    expect_signs(signs, p, rows, lanes,
                 ctx + " per_word=F rows=" + std::to_string(rows));
  }
  // Packed hard decisions: n values, zero-padded to whole words as the
  // z-lane decoder's posteriors are; n leaves a partial last word.
  for (const std::size_t n : {1, 63, 64, 65, 229, 2304}) {
    const std::size_t words = (n + 63) / 64;
    auto p = sign_inputs<T>(words * 64, n);
    std::fill(p.begin() + static_cast<std::ptrdiff_t>(n), p.end(), T{0});
    expect_signs(signs, p, words, 64,
                 ctx + " per_word=64 n=" + std::to_string(n));
  }
}

TEST(SimdSignPlane, SignsMatchScalarOnEveryTier) {
  for (const simd::SimdTier tier : simd::available_tiers()) {
    const simd::KernelSet& k = simd::kernels_for(tier);
    expect_family(k.fixed16.signs, tier, "fixed16");
    expect_family(k.fa8.signs, tier, "fa8");
  }
}

TEST(SimdSignPlane, LaneBitsMatchScalarForEveryLane) {
  // A plane of n = 229 rows (rows past n zero, as the decoder keeps them)
  // and an all-ones row among random ones, read lane by lane.
  constexpr std::size_t kN = 229;
  constexpr std::size_t kWords = (kN + 63) / 64;
  Xoshiro256 rng(5);
  std::vector<std::uint64_t> plane(kWords * 64, 0);
  for (std::size_t r = 0; r < kN; ++r) plane[r] = rng();
  plane[3] = ~std::uint64_t{0};
  for (const simd::SimdTier tier : simd::available_tiers()) {
    const auto lane_bits = simd::kernels_for(tier).lane_bits;
    for (std::uint32_t lane = 0; lane < 64; ++lane) {
      std::vector<std::uint64_t> out(kWords + 1, kGuard);
      lane_bits({plane.data(), kWords, lane, out.data()});
      for (std::size_t w = 0; w < kWords; ++w) {
        std::uint64_t want = 0;
        for (std::uint32_t b = 0; b < 64; ++b)
          want |= ((plane[w * 64 + b] >> lane) & 1U) << b;
        ASSERT_EQ(out[w], want) << "tier=" << simd::to_string(tier)
                                << " lane " << lane << " word " << w;
      }
      EXPECT_EQ(out[kWords], kGuard) << "tier=" << simd::to_string(tier);
    }
  }
}

}  // namespace
}  // namespace ldpc
