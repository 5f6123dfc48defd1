// The channel quantize and refill passes of both SIMD families, fed
// directly on every kernel tier: each code must equal the scalar reference
// the family's counted path uses — FixedFormat::quantize for Fixed16,
// fa_quantize for Fa8 — on the inputs a decode sweep never reaches: NaN,
// infinities, signed zeros, denormals, every half-code tie and its float
// neighbours, and values at and one code past each rail. Lengths around
// the 16-LLR vector step check the tails, and a guard cell checks nothing
// is written past n. The refill pass also places each frame in its lane
// of a lane-major P for every lane pattern, and leaves every other lane
// and the prefetch pad rows untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
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

// --------------------------------------------------------------- refill ----

/// The lane patterns a refill pass must place on a tier of `lanes` lanes:
/// the first lane, the last, min(16, F) lanes scattered over the row
/// (first and last included, taken out of lane order), min(16, F)
/// contiguous lanes from the middle, and every count 1 .. min(16, F) of a
/// fixed random lane order.
std::vector<std::vector<std::uint32_t>> lane_sets(std::uint32_t lanes) {
  const std::uint32_t most = std::min(lanes, simd::kRefillSlots);
  std::vector<std::vector<std::uint32_t>> sets = {{0}, {lanes - 1}};
  std::vector<std::uint32_t> scattered;
  for (std::uint32_t i = 0; i < most; ++i)
    scattered.push_back(most == 1 ? 0 : i * (lanes - 1) / (most - 1));
  std::reverse(scattered.begin() + 1, scattered.end() - 1);
  sets.push_back(scattered);
  std::vector<std::uint32_t> contiguous(most);
  std::iota(contiguous.begin(), contiguous.end(), (lanes - most) / 2 + 1);
  if (contiguous.back() >= lanes)
    std::iota(contiguous.begin(), contiguous.end(), lanes - most);
  sets.push_back(contiguous);
  std::vector<std::uint32_t> order(lanes);
  std::iota(order.begin(), order.end(), 0U);
  Xoshiro256 rng(7);
  for (std::uint32_t i = lanes - 1; i > 0; --i)
    std::swap(order[i], order[static_cast<std::uint32_t>(rng() % (i + 1))]);
  for (std::uint32_t c = 1; c <= most; ++c)
    sets.emplace_back(order.begin(), order.begin() + c);
  return sets;
}

/// Run `refill` on every n and lane set, counted and uncounted, and check
/// each taken lane's column against `reference(llr, clips)` code for code,
/// the clip counts slot for slot, and that every other lane and the
/// kBatchPrefetchPad rows past n keep the guard. Slot k reads the hostile
/// values from offset 331 k on, wrapping.
template <class T, class Ref>
void expect_refill_matches(void (*refill)(const simd::RefillPass<T>&),
                           std::uint32_t lanes, simd::QuantizeGrid<T> grid,
                           const std::vector<float>& hostile, Ref reference,
                           const std::string& ctx) {
  // A value no code takes for Fa8 (the rail is +-127), and an unlikely one
  // on the int16 grids.
  constexpr T kGuard = static_cast<T>(sizeof(T) == 1 ? -128 : 0x5A5A);
  for (const std::size_t n : {1U, 15U, 16U, 17U, 63U, 64U, 65U, 648U, 2304U}) {
    std::vector<std::vector<float>> frames(simd::kRefillSlots);
    for (std::size_t k = 0; k < frames.size(); ++k)
      for (std::size_t v = 0; v < n; ++v)
        frames[k].push_back(hostile[(331 * k + v) % hostile.size()]);
    std::vector<T> p((n + simd::kBatchPrefetchPad) * lanes);
    for (const std::vector<std::uint32_t>& set : lane_sets(lanes)) {
      for (const bool counted : {false, true}) {
        std::string where = ctx + " n=" + std::to_string(n) +
                            (counted ? " counted" : "") + " lanes={";
        for (const std::uint32_t l : set) where += std::to_string(l) + ",";
        where += "}";
        std::fill(p.begin(), p.end(), kGuard);
        simd::RefillPass<T> pass{};
        pass.count = static_cast<std::uint32_t>(set.size());
        pass.n = n;
        pass.p = p.data();
        pass.grid = grid;
        std::array<long long, simd::kRefillSlots> clips{};
        if (counted) pass.clips = clips.data();
        std::vector<int> slot_of(lanes, -1);
        for (std::uint32_t k = 0; k < pass.count; ++k) {
          pass.llr[k] = frames[k].data();
          pass.lane[k] = set[k];
          slot_of[set[k]] = static_cast<int>(k);
        }
        refill(pass);
        std::size_t mismatches = 0;
        std::array<long long, simd::kRefillSlots> want_clips{};
        for (std::size_t v = 0; v < n + simd::kBatchPrefetchPad; ++v) {
          for (std::uint32_t l = 0; l < lanes; ++l) {
            const int k = v < n ? slot_of[l] : -1;
            const T got = p[v * lanes + l];
            const std::int32_t want =
                k < 0 ? kGuard : reference(frames[k][v], want_clips[k]);
            if (got == want) continue;
            if (++mismatches <= 5)
              ADD_FAILURE() << where << " row=" << v << " lane=" << l
                            << ": got " << +got << ", want " << want;
          }
        }
        EXPECT_EQ(mismatches, 0U) << where;
        if (!counted) continue;
        for (std::uint32_t k = 0; k < pass.count; ++k)
          EXPECT_EQ(clips[k], want_clips[k]) << where << " slot=" << k;
      }
    }
  }
}

TEST(SimdRefill, Fixed16PlacesFixedFormatCodes) {
  for (const FixedFormat& fmt : kFormats) {
    const std::vector<float> hostile = hostile_llrs(fmt);
    const auto lo = static_cast<std::int16_t>(fmt.min_code());
    const auto hi = static_cast<std::int16_t>(fmt.max_code());
    for (const simd::SimdTier tier : simd::available_tiers()) {
      expect_refill_matches<std::int16_t>(
          simd::kernels_for(tier).fixed16.refill, simd::tier_lanes(tier),
          simd::quantize_grid(fmt, lo, hi), hostile,
          [&](float x, long long& clips) { return fmt.quantize(x, clips); },
          fmt.name() + " tier=" + simd::to_string(tier));
    }
  }
}

TEST(SimdRefill, Fa8PlacesFaQuantizeCodes) {
  for (const FixedFormat& fmt : kFormats) {
    const std::vector<float> hostile = hostile_llrs(fmt);
    const auto rail = static_cast<std::int8_t>(kFaRail);
    for (const simd::SimdTier tier : simd::available_tiers()) {
      expect_refill_matches<std::int8_t>(
          simd::kernels_for(tier).fa8.refill, simd::tier_lanes8(tier),
          simd::quantize_grid(fmt, static_cast<std::int8_t>(-rail), rail),
          hostile,
          [&](float x, long long& clips) {
            return fa_quantize(fmt, x, clips);
          },
          "fa " + fmt.name() + " tier=" + simd::to_string(tier));
    }
  }
}

}  // namespace
}  // namespace ldpc
