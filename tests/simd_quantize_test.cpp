// The channel quantize pass of both SIMD families, fed directly on every
// kernel tier: each code must equal the scalar reference the family's
// counted path uses — FixedFormat::quantize for Fixed16, fa_quantize for
// Fa8 — on the inputs a decode sweep never reaches: NaN, infinities,
// signed zeros, denormals, every half-code tie and its float neighbours,
// and values at and one code past each rail. Lengths around the 16-LLR
// vector step check the tails, and a guard cell checks nothing is written
// past n.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/fa_tables.hpp"
#include "core/quant.hpp"
#include "core/simd/simd_kernel.hpp"
#include "util/rng.hpp"

namespace ldpc {
namespace {

/// Every input class the quantizer must get exactly right on `fmt`'s grid.
std::vector<float> hostile_llrs(const FixedFormat& fmt) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  std::vector<float> llr = {nan,
                            -nan,
                            inf,
                            -inf,
                            0.0F,
                            -0.0F,
                            denorm,
                            -denorm,
                            std::numeric_limits<float>::min() / 2.0F,
                            -std::numeric_limits<float>::min() / 2.0F,
                            std::numeric_limits<float>::min(),
                            std::numeric_limits<float>::max(),
                            std::numeric_limits<float>::lowest()};
  const float step = static_cast<float>(1 << fmt.frac_bits);
  const auto with_neighbours = [&](float x) {
    llr.push_back(x);
    llr.push_back(std::nextafter(x, -inf));
    llr.push_back(std::nextafter(x, inf));
  };
  // Every code from two past the lower rail to two past the upper one (the
  // rails, one code past them and the pre-limit), and every half-code tie
  // between them, each with its float neighbours.
  for (std::int32_t c = fmt.min_code() - 2; c <= fmt.max_code() + 2; ++c) {
    with_neighbours(static_cast<float>(c) / step);
    with_neighbours((static_cast<float>(c) + 0.5F) / step);
  }
  // Random bit patterns: every exponent, NaN payloads, denormals.
  Xoshiro256 rng(99);
  for (int i = 0; i < 4096; ++i) {
    const auto bits = static_cast<std::uint32_t>(rng());
    float x;
    std::memcpy(&x, &bits, sizeof(x));
    llr.push_back(x);
  }
  return llr;
}

/// Run the pass over `llr` in chunks of every test length and compare each
/// code with `reference(llr[v])`.
template <class T, class Ref>
void expect_pass_matches(void (*quantize)(const simd::QuantizePass<T>&),
                         const FixedFormat& fmt, T lo, T hi,
                         const std::vector<float>& llr, Ref reference,
                         const std::string& ctx) {
  constexpr T kGuard = 0x55;
  for (const std::size_t len : {0U, 1U, 15U, 16U, 17U, 2304U}) {
    std::vector<T> out(len + 1);
    std::size_t mismatches = 0;
    for (std::size_t v0 = 0; v0 < llr.size(); v0 += len == 0 ? 1 : len) {
      const std::size_t n = std::min(len, llr.size() - v0);
      std::fill(out.begin(), out.end(), kGuard);
      quantize(simd::quantize_pass(
          fmt, lo, hi, std::span(llr).subspan(v0, n), out.data()));
      ASSERT_EQ(out[n], kGuard) << ctx << " len=" << len << ": wrote past n";
      for (std::size_t v = 0; v < n; ++v) {
        const std::int32_t want = reference(llr[v0 + v]);
        if (out[v] == want) continue;
        if (++mismatches <= 5) {
          ADD_FAILURE() << ctx << " len=" << len << " llr=" << llr[v0 + v]
                        << " (" << std::hexfloat << llr[v0 + v]
                        << std::defaultfloat << "): got " << +out[v]
                        << ", want " << want;
        }
      }
      if (len == 0) break;
    }
    EXPECT_EQ(mismatches, 0U) << ctx << " len=" << len;
  }
}

const FixedFormat kFormats[] = {{8, 2}, {6, 1}, {16, 4}};

TEST(SimdQuantize, Fixed16MatchesFixedFormatQuantize) {
  for (const FixedFormat& fmt : kFormats) {
    const std::vector<float> llr = hostile_llrs(fmt);
    const auto lo = static_cast<std::int16_t>(fmt.min_code());
    const auto hi = static_cast<std::int16_t>(fmt.max_code());
    for (const simd::SimdTier tier : simd::available_tiers()) {
      expect_pass_matches<std::int16_t>(
          simd::kernels_for(tier).fixed16.quantize, fmt, lo, hi, llr,
          [&](float x) { return fmt.quantize(x); },
          fmt.name() + " tier=" + simd::to_string(tier));
    }
  }
}

TEST(SimdQuantize, Fa8MatchesFaQuantize) {
  // q8.2 is the finite-alphabet posterior grid; the narrower and wider
  // grids check the +-127 rail against format rails on either side of it.
  for (const FixedFormat& fmt : kFormats) {
    const std::vector<float> llr = hostile_llrs(fmt);
    const auto rail = static_cast<std::int8_t>(kFaRail);
    for (const simd::SimdTier tier : simd::available_tiers()) {
      expect_pass_matches<std::int8_t>(
          simd::kernels_for(tier).fa8.quantize, fmt,
          static_cast<std::int8_t>(-rail), rail, llr,
          [&](float x) { return fa_quantize(fmt, x); },
          "fa " + fmt.name() + " tier=" + simd::to_string(tier));
    }
  }
}

}  // namespace
}  // namespace ldpc
