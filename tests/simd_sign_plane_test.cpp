// The sign-plane passes fed directly on every kernel tier: each family's
// `signs` pass, with per_word = F (the batched decoder's plane, one
// posterior row per word) and per_word = 64 (the z-lane decoder's packed
// hard decisions), the shared lane-set extraction `lane_bits`, and the
// parity probe `probe`. Sign inputs hold 0, +-1, both rails of the
// element type (+-127, +-32767) and the value that wraps on negation
// (-128, -32768) at every lane position, among random values; lengths
// leave a partial last word, and guard words check nothing is written
// outside the pass's output. Each word must equal a scalar reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
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

/// Bit b of the returned word w = bit `lane` of plane[64 w + b].
std::vector<std::uint64_t> lane_words(const std::vector<std::uint64_t>& plane,
                                      std::size_t words, std::uint32_t lane) {
  std::vector<std::uint64_t> out(words, 0);
  for (std::size_t w = 0; w < words; ++w)
    for (std::uint32_t b = 0; b < 64; ++b)
      out[w] |= ((plane[w * 64 + b] >> lane) & 1U) << b;
  return out;
}

/// Runs `lane_bits` over `lanes` into a guard-filled output of 64 lanes
/// plus one guard word, and checks every lane of the set against
/// lane_words and every other word against the guard.
void expect_lane_set(void (*lane_bits)(const simd::LaneBitsPass&),
                     const std::vector<std::uint64_t>& plane,
                     std::size_t words, std::uint64_t lanes,
                     const std::string& ctx) {
  std::vector<std::uint64_t> out(64 * words + 1, kGuard);
  lane_bits({plane.data(), words, lanes, out.data()});
  for (std::uint32_t lane = 0; lane < 64; ++lane) {
    const bool in_set = ((lanes >> lane) & 1U) != 0;
    const auto want = lane_words(plane, words, lane);
    for (std::size_t w = 0; w < words; ++w)
      ASSERT_EQ(out[lane * words + w], in_set ? want[w] : kGuard)
          << ctx << " lane " << lane << " word " << w;
  }
  EXPECT_EQ(out[64 * words], kGuard) << ctx << ": wrote past the last lane";
}

TEST(SimdSignPlane, LaneBitsMatchScalarForEveryLane) {
  // A plane of n = 229 rows (rows past n zero, as the decoder keeps them)
  // and an all-ones row among random ones, read one lane at a time.
  constexpr std::size_t kN = 229;
  constexpr std::size_t kWords = (kN + 63) / 64;
  Xoshiro256 rng(5);
  std::vector<std::uint64_t> plane(kWords * 64, 0);
  for (std::size_t r = 0; r < kN; ++r) plane[r] = rng();
  plane[3] = ~std::uint64_t{0};
  for (const simd::SimdTier tier : simd::available_tiers()) {
    const auto lane_bits = simd::kernels_for(tier).lane_bits;
    for (std::uint32_t lane = 0; lane < 64; ++lane)
      expect_lane_set(lane_bits, plane, kWords, std::uint64_t{1} << lane,
                      std::string("tier=") + simd::to_string(tier));
  }
}

TEST(SimdSignPlane, LaneSetExtractionMatchesPerLane) {
  // Lane sets of every shape the decoder hands the pass — none, the first
  // lane, the last, all 64 and a scattered set — over planes of n rows
  // whose last word is partial, empty past n, or one row long.
  const std::uint64_t sets[] = {0, 1, std::uint64_t{1} << 63,
                                ~std::uint64_t{0}, 0x8421'0C30'0500'0093ULL};
  for (const std::size_t n : {1, 63, 64, 65, 2304}) {
    const std::size_t words = (n + 63) / 64;
    Xoshiro256 rng(n);
    std::vector<std::uint64_t> plane(words * 64, 0);
    for (std::size_t r = 0; r < n; ++r) plane[r] = rng();
    plane[n / 2] = ~std::uint64_t{0};
    for (const simd::SimdTier tier : simd::available_tiers()) {
      const auto lane_bits = simd::kernels_for(tier).lane_bits;
      for (const std::uint64_t lanes : sets)
        expect_lane_set(lane_bits, plane, words, lanes,
                        std::string("tier=") + simd::to_string(tier) +
                            " n=" + std::to_string(n) + " lanes=" +
                            std::to_string(lanes));
    }
  }
}

// ------------------------------------------------------------- probe ----

/// The probe's definition: check row r of layer l XORs plane word
/// p_base + (r + shift) mod z of each of the layer's blocks. Returns the
/// OR of every row word and stores them in `rows` (layer-major).
std::uint64_t scalar_probe(const std::vector<std::uint64_t>& plane,
                           const std::vector<std::vector<simd::BatchBlock>>&
                               layers,
                           std::uint32_t z, std::vector<std::uint64_t>& rows) {
  std::uint64_t unsat = 0;
  rows.assign(layers.size() * z, 0);
  for (std::size_t l = 0; l < layers.size(); ++l) {
    for (std::uint32_t r = 0; r < z; ++r) {
      std::uint64_t word = 0;
      for (const simd::BatchBlock& b : layers[l])
        word ^= plane[b.p_base + (r + b.shift) % z];
      rows[l * z + r] = word;
      unsat |= word;
    }
  }
  return unsat;
}

/// Layers over `cols` block columns of size z: an empty layer, degree-1
/// layers at shifts 1 and z - 1, a layer mixing shifts 0, 1 and z - 1, one
/// whose blocks share a shift, and random layers of degree 2..cols.
std::vector<std::vector<simd::BatchBlock>> probe_layers(std::uint32_t z,
                                                        std::uint32_t cols,
                                                        std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto block = [&](std::uint32_t col, std::uint32_t shift) {
    return simd::BatchBlock{col * z, shift % z, 0};
  };
  const std::uint32_t shared = static_cast<std::uint32_t>(rng() % z);
  std::vector<std::vector<simd::BatchBlock>> layers = {
      {},
      {block(2, 1)},
      {block(cols - 1, z - 1)},
      {block(0, 0), block(1, 1), block(3, z - 1), block(cols - 1, 1)},
      {block(1, shared), block(2, shared), block(4, shared), block(5, 0)},
  };
  for (int i = 0; i < 4; ++i) {
    std::vector<std::uint32_t> order(cols);
    for (std::uint32_t c = 0; c < cols; ++c) order[c] = c;
    for (std::uint32_t c = cols - 1; c > 0; --c)
      std::swap(order[c], order[rng() % (c + 1)]);
    const auto deg = static_cast<std::uint32_t>(2 + rng() % (cols - 1));
    std::vector<simd::BatchBlock> layer;
    for (std::uint32_t j = 0; j < deg; ++j)
      layer.push_back(block(order[j], static_cast<std::uint32_t>(rng() % z)));
    layers.push_back(layer);
  }
  return layers;
}

TEST(SimdProbe, MatchesScalarOnEveryTier) {
  // z below, at and off every vector's word count (2, 4, 8 words), random
  // and hostile planes, with and without the row words handed back. The
  // plane's slack past its rows holds all-ones words: the probe must mask
  // what it reads for rows past z.
  constexpr std::uint32_t kCols = 7;
  for (const std::uint32_t z : {1U, 5U, 7U, 8U, 9U, 10U, 33U, 96U}) {
    const auto layers = probe_layers(z, kCols, z);
    std::vector<simd::BatchBlock> blocks;
    std::vector<std::uint32_t> start = {0};
    for (const auto& layer : layers) {
      blocks.insert(blocks.end(), layer.begin(), layer.end());
      start.push_back(static_cast<std::uint32_t>(blocks.size()));
    }
    const std::size_t n = std::size_t{kCols} * z;
    const std::size_t padded = (n + 63) / 64 * 64 + simd::kProbePadWords;
    Xoshiro256 rng(z + 100);
    for (const char* pattern : {"random", "ones", "alternating"}) {
      std::vector<std::uint64_t> plane(padded, ~std::uint64_t{0});
      for (std::size_t v = 0; v < n; ++v) {
        const std::string p = pattern;
        plane[v] = p == "random" ? rng()
                   : p == "ones" ? ~std::uint64_t{0}
                                 : (v % 2 == 0 ? 0xAAAA'AAAA'AAAA'AAAAULL
                                               : 0x5555'5555'5555'5555ULL);
      }
      std::vector<std::uint64_t> want_rows;
      const std::uint64_t want = scalar_probe(plane, layers, z, want_rows);
      for (const simd::SimdTier tier : simd::available_tiers()) {
        const auto probe = simd::kernels_for(tier).probe;
        const std::string ctx = std::string("tier=") + simd::to_string(tier) +
                                " z=" + std::to_string(z) + " " + pattern;
        simd::ProbePass pass{plane.data(), blocks.data(), start.data(),
                             static_cast<std::uint32_t>(layers.size()), z,
                             nullptr};
        EXPECT_EQ(probe(pass), want) << ctx;
        std::vector<std::uint64_t> rows(want_rows.size() + simd::kProbePadWords,
                                        kGuard);
        pass.rows = rows.data();
        EXPECT_EQ(probe(pass), want) << ctx << " with rows";
        for (std::size_t r = 0; r < want_rows.size(); ++r)
          ASSERT_EQ(rows[r], want_rows[r])
              << ctx << " layer " << r / z << " row " << r % z;
      }
    }
  }
}

}  // namespace
}  // namespace ldpc
