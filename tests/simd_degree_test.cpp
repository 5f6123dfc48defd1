// Layer-degree coverage of the SIMD decoders. The row update has one
// instantiation per degree in simd::kSpecializedDegrees (uncounted passes
// of the x86 tiers) and a body that reads the degree at run time (every
// other degree, every counted pass, the portable tier). These suites decode
// every registered code, a code whose degrees are all outside the list, a
// code with a degree-1 layer and codes whose blocks wrap on coincident rows
// through both shapes and both families on every tier, counted and
// uncounted, plus tie-heavy frames through every magnitude map, and
// compare each frame with its scalar reference bit for bit.
// scripts/check.sh runs them on the portable tier alone and under
// ASan/UBSan too.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "channel/awgn.hpp"
#include "channel/modem.hpp"
#include "codes/random_qc.hpp"
#include "codes/registry.hpp"
#include "codes/wifi.hpp"
#include "codes/wimax.hpp"
#include "core/layered_minsum_fa.hpp"
#include "core/layered_minsum_fixed.hpp"
#include "core/simd/simd_layered.hpp"
#include "util/rng.hpp"

namespace ldpc {
namespace {

/// Frames per code: at least every batched decoder's min_block(), so the
/// block starts the batched kernel on every tier.
constexpr std::size_t kFrames = 24;

std::set<std::uint32_t> layer_degrees(const QCLdpcCode& code) {
  std::set<std::uint32_t> degrees;
  for (const auto& layer : code.layers())
    degrees.insert(static_cast<std::uint32_t>(layer.size()));
  return degrees;
}

bool specialized(std::uint32_t degree) {
  return std::ranges::find(simd::kSpecializedDegrees, degree) !=
         simd::kSpecializedDegrees.end();
}

/// The all-zero codeword through AWGN: needs no encoder, so every code
/// works, including ones RuEncoder cannot encode.
std::vector<float> zero_codeword_llr(const QCLdpcCode& code, float ebn0_db,
                                     std::uint64_t seed) {
  const float variance = awgn_noise_variance(ebn0_db, code.rate());
  AwgnChannel ch(variance, seed);
  return BpskModem::demodulate(
      ch.transmit(BpskModem::modulate(BitVec(code.n()))), variance);
}

/// kFrames frames from `db_lo` to `db_hi`, so a pool mixes frames that
/// converge early with frames that run to the iteration budget.
std::vector<std::vector<float>> frame_pool(const QCLdpcCode& code, float db_lo,
                                           float db_hi) {
  std::vector<std::vector<float>> pool;
  for (std::size_t f = 0; f < kFrames; ++f) {
    const float db = db_lo + (db_hi - db_lo) * static_cast<float>(f) /
                                 static_cast<float>(kFrames - 1);
    pool.push_back(zero_codeword_llr(code, db, f * 7919 + 3));
  }
  return pool;
}

struct Reference {
  DecodeResult result;
  SaturationStats saturation;
};

void expect_frame_identical(const Reference& ref, const DecodeResult& rv,
                            const SaturationStats& sv, const std::string& ctx) {
  EXPECT_TRUE(ref.result.hard_bits == rv.hard_bits) << ctx;
  EXPECT_EQ(ref.result.iterations, rv.iterations) << ctx;
  EXPECT_EQ(ref.result.converged, rv.converged) << ctx;
  EXPECT_EQ(ref.result.status, rv.status) << ctx;
  EXPECT_EQ(rv.simd_fallback, SimdFallback::kNone) << ctx;
  EXPECT_EQ(ref.saturation.quantizer_clips, sv.quantizer_clips) << ctx;
  EXPECT_EQ(ref.saturation.datapath_clips, sv.datapath_clips) << ctx;
  EXPECT_EQ(ref.saturation.q_clips, sv.q_clips) << ctx;
  EXPECT_EQ(ref.saturation.r_clips, sv.r_clips) << ctx;
  EXPECT_EQ(ref.saturation.p_clips, sv.p_clips) << ctx;
  EXPECT_EQ(ref.saturation.degenerate_checks, sv.degenerate_checks) << ctx;
}

std::vector<Reference> references(Decoder& scalar,
                                  const std::vector<std::vector<float>>& pool) {
  std::vector<Reference> refs;
  for (const auto& llr : pool)
    refs.push_back({scalar.decode(llr), scalar.saturation()});
  return refs;
}

/// Every frame of `pool` on every tier against `refs`: one decode() per
/// frame on the z-lane decoder, and one block of all of them on the batched
/// decoder.
template <class MakeZLane, class MakeBatched>
void expect_family_identical(const std::vector<Reference>& refs,
                             MakeZLane make_zlane, MakeBatched make_batched,
                             const std::vector<std::vector<float>>& pool,
                             const std::string& ctx) {
  for (const simd::SimdTier tier : simd::available_tiers()) {
    const std::string tier_ctx = ctx + " tier=" + simd::to_string(tier);
    auto zlane = make_zlane(tier);
    EXPECT_FALSE(zlane->scalar_only()) << tier_ctx;
    for (std::size_t f = 0; f < pool.size(); ++f) {
      const DecodeResult rv = zlane->decode(pool[f]);
      expect_frame_identical(refs[f], rv, zlane->saturation(),
                             tier_ctx + " z-lane frame=" + std::to_string(f));
    }
    auto batched = make_batched(tier);
    ASSERT_GE(pool.size(), batched->min_block()) << tier_ctx;
    std::vector<BlockFrame> frames;
    for (const auto& llr : pool) frames.push_back({llr, nullptr});
    std::vector<DecodeResult> results(frames.size());
    std::vector<SaturationStats> saturation(frames.size());
    batched->decode_block(frames, results, saturation);
    for (std::size_t f = 0; f < pool.size(); ++f)
      expect_frame_identical(refs[f], results[f], saturation[f],
                             tier_ctx + " batched frame=" + std::to_string(f));
  }
}

using Pool = std::vector<std::vector<float>>;

constexpr FixedFormat kQ82{8, 2};

/// One magnitude map through both shapes on every tier, uncounted (the
/// degree's own instantiation when it has one) and counted (the run-time
/// body), against its scalar reference. Returns the degenerate checks the
/// references counted.
template <class MakeScalar, class MakeZLane, class MakeBatched>
long long sweep_map(const Pool& pool, DecoderOptions opt,
                    const std::string& ctx, MakeScalar make_scalar,
                    MakeZLane make_zlane, MakeBatched make_batched) {
  long long degenerate = 0;
  for (const bool counted : {false, true}) {
    opt.count_saturation = counted;
    const auto scalar = make_scalar(opt);
    const std::vector<Reference> refs = references(*scalar, pool);
    for (const Reference& r : refs) degenerate += r.saturation.degenerate_checks;
    expect_family_identical(
        refs, [&](simd::SimdTier tier) { return make_zlane(opt, tier); },
        [&](simd::SimdTier tier) { return make_batched(opt, tier); }, pool,
        ctx + (counted ? " counted" : " uncounted"));
  }
  return degenerate;
}

/// The scaled min-sum map of `opt.scale` on q8.2: the 3/4 shift-add, or
/// num/16 for any other scale.
long long sweep_scaled(const QCLdpcCode& code, const Pool& pool,
                       const DecoderOptions& opt, const std::string& ctx) {
  return sweep_map(
      pool, opt, ctx,
      [&](const DecoderOptions& o) {
        return std::make_unique<LayeredMinSumFixedDecoder>(code, o, kQ82);
      },
      [&](const DecoderOptions& o, simd::SimdTier tier) {
        return std::make_unique<SimdFixedDecoder>(code, o, kQ82, tier);
      },
      [&](const DecoderOptions& o, simd::SimdTier tier) {
        return std::make_unique<SimdFixedDecoder>(code, o, kQ82, tier);
      });
}

/// Offset min-sum on q8.2, offset 2 codes.
long long sweep_offset(const QCLdpcCode& code, const Pool& pool,
                       const std::string& ctx) {
  constexpr std::int32_t kOffset = 2;
  const std::string label = "offset";
  return sweep_map(
      pool, DecoderOptions{}, ctx,
      [&](const DecoderOptions& o) {
        return std::make_unique<LayeredMinSumFixedDecoder>(
            code, o, LayerRowKernel::offset_kernel(kQ82, kOffset), label);
      },
      [&](const DecoderOptions& o, simd::SimdTier tier) {
        return std::make_unique<SimdFixedDecoder>(code, o, kQ82, kOffset,
                                                  label, tier);
      },
      [&](const DecoderOptions& o, simd::SimdTier tier) {
        return std::make_unique<SimdFixedDecoder>(code, o, kQ82, kOffset,
                                                  label, tier);
      });
}

/// The finite-alphabet staircase of `msg_bits` (2, 3 or 4).
long long sweep_fa(const QCLdpcCode& code, const Pool& pool, int msg_bits,
                   const std::string& ctx) {
  return sweep_map(
      pool, DecoderOptions{}, ctx,
      [&](const DecoderOptions& o) {
        return std::make_unique<LayeredMinSumFaDecoder>(code, o, msg_bits);
      },
      [&](const DecoderOptions& o, simd::SimdTier tier) {
        return std::make_unique<SimdFaDecoder>(code, o, msg_bits, 2.0F,
                                               tier);
      },
      [&](const DecoderOptions& o, simd::SimdTier tier) {
        return std::make_unique<SimdFaDecoder>(code, o, msg_bits, 2.0F,
                                               tier);
      });
}

/// Both shapes x both families (q8.2, fa4) x every tier, uncounted and
/// counted. Returns the degenerate checks the scalar references counted.
long long sweep_code(const QCLdpcCode& code, const std::string& name,
                     float db_lo, float db_hi) {
  const Pool pool = frame_pool(code, db_lo, db_hi);
  return sweep_scaled(code, pool, DecoderOptions{}, name + " q8.2") +
         sweep_fa(code, pool, 4, name + " fa4");
}

struct NamedCode {
  std::string name;
  QCLdpcCode code;
};

/// Every registered code: the six WiMAX rates at z = 96, both WiFi codes
/// and the alist registry.
std::vector<NamedCode> registered_codes() {
  std::vector<NamedCode> codes;
  for (const WimaxRate rate : all_wimax_rates())
    codes.push_back({"wimax " + wimax_rate_name(rate) + " z=96",
                     make_wimax_code(rate, 96)});
  codes.push_back({"wifi 648", make_wifi_648_half_rate()});
  codes.push_back({"wifi 1944", make_wifi_1944_half_rate()});
  for (const std::string& name : external_code_names())
    codes.push_back({name, external_code(name)});
  return codes;
}

TEST(SimdDegree, RegisteredCodeDegreesAreSpecialized) {
  std::set<std::uint32_t> used;
  for (const NamedCode& c : registered_codes()) {
    for (const std::uint32_t degree : layer_degrees(c.code)) {
      EXPECT_TRUE(specialized(degree)) << c.name << " degree " << degree;
      used.insert(degree);
    }
  }
  // No list entry without a registered code behind it.
  for (const std::uint32_t degree : simd::kSpecializedDegrees)
    EXPECT_TRUE(used.contains(degree)) << "degree " << degree;
}

TEST(SimdDegree, WimaxRatesMatchScalar) {
  for (const NamedCode& c : registered_codes())
    if (c.name.starts_with("wimax")) sweep_code(c.code, c.name, 1.5F, 4.0F);
}

TEST(SimdDegree, WifiCodesMatchScalar) {
  for (const NamedCode& c : registered_codes())
    if (c.name.starts_with("wifi")) sweep_code(c.code, c.name, 1.0F, 3.5F);
}

TEST(SimdDegree, ExternalCodesMatchScalar) {
  for (const std::string& name : external_code_names())
    sweep_code(external_code(name), name, 1.0F, 5.0F);
}

TEST(SimdDegree, UnlistedDegreesMatchScalar) {
  // Layer degrees 12 and 13: no instantiation, so uncounted passes too run
  // the run-time body.
  RandomQcConfig cfg;
  cfg.block_rows = 4;
  cfg.block_cols = 16;
  cfg.z = 24;
  cfg.info_row_degree = 10;
  cfg.seed = 5;
  const QCLdpcCode code = make_random_qc_code(cfg);
  for (const std::uint32_t degree : layer_degrees(code)) {
    EXPECT_GE(degree, 2U);
    EXPECT_FALSE(specialized(degree)) << "degree " << degree;
  }
  sweep_code(code, "random_qc 4x16 z=24", 1.0F, 3.5F);
}

TEST(SimdDegree, DegreeOneLayerMatchesScalar) {
  // Layer degrees 4, 1, 4: the middle layer's z checks each hold one edge,
  // so R' = 0 there and every pass over it counts z degenerate checks.
  const BaseMatrix base(3, 6,
                        {0, 5, -1, 3, 7, -1,     //
                         -1, -1, 2, -1, -1, -1,  //
                         11, -1, 4, -1, 9, 0},
                        24, "deg-4-1-4");
  const QCLdpcCode code(base);
  EXPECT_EQ(layer_degrees(code), (std::set<std::uint32_t>{1, 4}));
  EXPECT_GT(sweep_code(code, "deg 4-1-4 z=24", 1.0F, 4.0F), 0);
}

/// kFrames frames, two in three of them tie-heavy: every LLR has magnitude
/// 1 (code 4 on the q8.2 grid and on the finite-alphabet posterior grid),
/// so on a frame's first iteration every |Q| of every check row ties at
/// min1, and later iterations keep many rows tied. A third of those take
/// random signs (they run to the iteration budget), a third are the
/// all-zero codeword with one sign in ten flipped (most converge); the
/// remaining frames are ordinary AWGN frames.
Pool tie_pool(const QCLdpcCode& code) {
  Pool pool;
  Xoshiro256 rng(11);
  for (std::size_t f = 0; f < kFrames; ++f) {
    if (f % 3 == 2) {
      pool.push_back(zero_codeword_llr(code, 1.5F + 0.1F * f, f * 31 + 7));
      continue;
    }
    std::vector<float> llr(code.n(), 1.0F);
    for (float& v : llr)
      if (f % 3 == 0 ? rng.coin() : rng.uniform() < 0.1) v = -1.0F;
    pool.push_back(std::move(llr));
  }
  return pool;
}

TEST(SimdDegree, TiedMinimaMatchScalar) {
  // Stage 2 gives s2 to every edge whose |Q| equals min1 instead of to the
  // first one only; with several edges at min1, min2 == min1 and both
  // choices are equal. Every map, on rows that start tied.
  const QCLdpcCode code = make_wimax_2304_half_rate();
  const Pool pool = tie_pool(code);
  const std::string name = "wimax 1/2 z=96 ties";
  sweep_scaled(code, pool, DecoderOptions{}, name + " q8.2 3/4");
  DecoderOptions num16;
  num16.scale = 0.625F;
  sweep_scaled(code, pool, num16, name + " q8.2 10/16");
  sweep_offset(code, pool, name + " q8.2 offset");
  for (const int bits : {2, 3, 4})
    sweep_fa(code, pool, bits, name + " fa" + std::to_string(bits));
}

/// Layers of degree 6, 7 and 6 whose blocks wrap on coincident rows: each
/// layer has a shift of 0 (never wraps), a shift of z - 1 (wraps after row
/// 0) and two or three blocks that share a shift, so the batched passes
/// rewind several P pointers at one row.
QCLdpcCode wrap_code(int z) {
  const int w = z - 1;
  const int x = BaseMatrix::kZero;
  return QCLdpcCode(BaseMatrix(3, 10,
                               {0, w, 5, 5, 11, 17, x, x, x, x,  //
                                x, x, w, 0, 9, 9, 9, 20, 1, x,   //
                                3, x, x, 3, x, x, 0, w, 14, 2},
                               z, "wrap-rows"));
}

TEST(SimdDegree, CoincidentWrapRowsMatchScalar) {
  for (const int z : {33, 96}) {
    const QCLdpcCode code = wrap_code(z);
    EXPECT_EQ(layer_degrees(code), (std::set<std::uint32_t>{6, 7}));
    sweep_code(code, "wrap rows z=" + std::to_string(z), 1.0F, 4.0F);
  }
}

}  // namespace
}  // namespace ldpc
