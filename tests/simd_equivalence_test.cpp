// SIMD/scalar equivalence: the contract of src/core/simd is that
// SimdFixedDecoder is *bit-identical* to LayeredMinSumFixedDecoder —
// hard bits, iteration counts, convergence status, and every saturation
// counter — on every kernel tier, for every code geometry, including z
// values that are not a multiple of the vector lane width (tail lanes).
// scripts/check.sh runs this suite in both LDPC_SIMD modes and under
// ASan/UBSan, so alignment or out-of-bounds lane bugs fail loudly.
#include <gtest/gtest.h>

#include <vector>

#include "channel/awgn.hpp"
#include "channel/modem.hpp"
#include "codes/encoder.hpp"
#include "codes/random_qc.hpp"
#include "codes/wifi.hpp"
#include "codes/wimax.hpp"
#include "core/decoder_factory.hpp"
#include "core/layered_minsum_fixed.hpp"
#include "core/simd/simd_layered.hpp"
#include "util/rng.hpp"

namespace ldpc {
namespace {

std::vector<float> noisy_llr(const QCLdpcCode& code, float ebn0_db,
                             std::uint64_t seed) {
  const RuEncoder enc(code);
  Xoshiro256 rng(seed);
  BitVec info(code.k());
  for (std::size_t i = 0; i < info.size(); ++i) info.set(i, rng.coin());
  const float variance = awgn_noise_variance(ebn0_db, code.rate());
  AwgnChannel ch(variance, seed + 1);
  return BpskModem::demodulate(
      ch.transmit(BpskModem::modulate(enc.encode(info))), variance);
}

void expect_identical(Decoder& scalar, Decoder& simd,
                      std::span<const float> llr, const std::string& ctx) {
  const DecodeResult rs = scalar.decode(llr);
  const DecodeResult rv = simd.decode(llr);
  EXPECT_TRUE(rs.hard_bits == rv.hard_bits) << ctx;
  EXPECT_EQ(rs.iterations, rv.iterations) << ctx;
  EXPECT_EQ(rs.converged, rv.converged) << ctx;
  EXPECT_EQ(rs.status, rv.status) << ctx;
  EXPECT_EQ(rs.faults_injected, rv.faults_injected) << ctx;
  const SaturationStats ss = scalar.saturation();
  const SaturationStats sv = simd.saturation();
  EXPECT_EQ(ss.quantizer_clips, sv.quantizer_clips) << ctx;
  EXPECT_EQ(ss.datapath_clips, sv.datapath_clips) << ctx;
  EXPECT_EQ(ss.q_clips, sv.q_clips) << ctx;
  EXPECT_EQ(ss.r_clips, sv.r_clips) << ctx;
  EXPECT_EQ(ss.p_clips, sv.p_clips) << ctx;
  EXPECT_EQ(ss.degenerate_checks, sv.degenerate_checks) << ctx;
}

std::string ctx_name(const QCLdpcCode& code, simd::SimdTier tier,
                     std::uint64_t seed) {
  return "z=" + std::to_string(code.z()) + " n=" + std::to_string(code.n()) +
         " tier=" + simd::to_string(tier) + " seed=" + std::to_string(seed);
}

// Sweep one (code, options, format) point across all tiers and a batch of
// frames, scalar vs SIMD. `ebn0_db` sits in the waterfall so the batch
// mixes converged, max-iteration, and (with a watchdog) aborted decodes.
void sweep_code(const QCLdpcCode& code, DecoderOptions opt, FixedFormat fmt,
                float ebn0_db, int frames) {
  LayeredMinSumFixedDecoder scalar(code, opt, fmt);
  for (const simd::SimdTier tier : simd::available_tiers()) {
    SimdFixedDecoder simd_dec(code, opt, fmt, tier);
    EXPECT_FALSE(simd_dec.scalar_only());
    for (int f = 0; f < frames; ++f) {
      const auto seed = static_cast<std::uint64_t>(f) * 71 + 11;
      expect_identical(scalar, simd_dec, noisy_llr(code, ebn0_db, seed),
                       ctx_name(code, tier, seed));
    }
  }
}

// ------------------------------------------------------------- geometry ----

TEST(SimdEquivalence, WimaxHalfRateZ96) {
  // The paper's case-study code: z = 96 = 6 full AVX2 vectors, no tail.
  DecoderOptions opt;
  opt.count_saturation = true;
  sweep_code(make_wimax_2304_half_rate(), opt, FixedFormat{8, 2}, 1.6F, 3);
}

TEST(SimdEquivalence, WimaxHighRateSmallZ) {
  DecoderOptions opt;
  opt.count_saturation = true;
  sweep_code(make_wimax_code(WimaxRate::kRate5_6, 24), opt, FixedFormat{8, 2},
             3.6F, 3);
}

TEST(SimdEquivalence, WifiZ27TailLanes) {
  // z = 27: neither a multiple of 16 (AVX2) nor 8 (SSE2/portable) — every
  // layer exercises the zero-padded tail-lane path.
  DecoderOptions opt;
  opt.count_saturation = true;
  sweep_code(make_wifi_648_half_rate(), opt, FixedFormat{8, 2}, 1.8F, 4);
}

TEST(SimdEquivalence, WifiZ81TailLanes) {
  DecoderOptions opt;
  opt.count_saturation = true;
  sweep_code(make_wifi_1944_half_rate(), opt, FixedFormat{8, 2}, 1.6F, 3);
}

TEST(SimdEquivalence, RandomQcZBelowLaneWidth) {
  // z = 10 < both lane widths: the whole layer is one partial vector.
  RandomQcConfig cfg;
  cfg.z = 10;
  cfg.seed = 7;
  const auto code = make_random_qc_code(cfg);
  DecoderOptions opt;
  opt.count_saturation = true;
  sweep_code(code, opt, FixedFormat{8, 2}, 2.5F, 4);
}

TEST(SimdEquivalence, RandomQcOddGeometry) {
  RandomQcConfig cfg;
  cfg.block_rows = 5;
  cfg.block_cols = 15;
  cfg.z = 33;  // 2 AVX2 vectors + 1 tail lane
  cfg.info_row_degree = 5;
  cfg.seed = 21;
  const auto code = make_random_qc_code(cfg);
  DecoderOptions opt;
  opt.count_saturation = true;
  sweep_code(code, opt, FixedFormat{8, 2}, 2.5F, 3);
}

// ------------------------------------------------- kernel configurations ----

TEST(SimdEquivalence, NarrowQ6Format) {
  DecoderOptions opt;
  opt.count_saturation = true;
  sweep_code(make_wifi_648_half_rate(), opt, FixedFormat{6, 1}, 2.0F, 3);
}

TEST(SimdEquivalence, ScaleSweep) {
  // Non-0.75 scales route through the truncating num/16 kernel path —
  // including 1.0 (num = 16), whose unscaled |min code| magnitude is the
  // one value that saturates R' at the positive rail.
  const auto code = make_wifi_648_half_rate();
  for (const float scale : {0.5F, 0.625F, 0.8125F, 1.0F}) {
    DecoderOptions opt;
    opt.scale = scale;
    opt.count_saturation = true;
    sweep_code(code, opt, FixedFormat{8, 2}, 1.8F, 2);
  }
}

TEST(SimdEquivalence, OffsetMinSum) {
  const auto code = make_wifi_648_half_rate();
  DecoderOptions opt;
  opt.count_saturation = true;
  const FixedFormat fmt{8, 2};
  LayeredMinSumFixedDecoder scalar(code, opt,
                                   LayerRowKernel::offset_kernel(fmt, 2),
                                   "offset-scalar");
  for (const simd::SimdTier tier : simd::available_tiers()) {
    SimdFixedDecoder simd_dec(code, opt, fmt, 2, "offset-simd", tier);
    for (int f = 0; f < 3; ++f) {
      const auto seed = static_cast<std::uint64_t>(f) * 31 + 5;
      expect_identical(scalar, simd_dec, noisy_llr(code, 1.8F, seed),
                       ctx_name(code, tier, seed));
    }
  }
}

TEST(SimdEquivalence, EarlyTerminationOff) {
  // Fixed 10 iterations (the paper's Table II operating point): posterior
  // trajectories must stay in lockstep long after parity is satisfied.
  DecoderOptions opt;
  opt.early_termination = false;
  opt.count_saturation = true;
  sweep_code(make_wifi_648_half_rate(), opt, FixedFormat{8, 2}, 2.2F, 3);
}

TEST(SimdEquivalence, WatchdogAbort) {
  // Heavy noise + stall watchdog: both decoders must abort on the same
  // iteration with the same status.
  DecoderOptions opt;
  opt.max_iterations = 30;
  opt.watchdog.stall_window = 4;
  opt.count_saturation = true;
  sweep_code(make_wifi_648_half_rate(), opt, FixedFormat{8, 2}, 0.0F, 3);
}

TEST(SimdEquivalence, SaturationStress) {
  // Rail-hot channel LLRs: quantizer clips plus datapath saturations on
  // most edges. The clip *counts* must match event-for-event.
  const auto code = make_wifi_648_half_rate();
  DecoderOptions opt;
  opt.count_saturation = true;
  const FixedFormat fmt{8, 2};
  std::vector<float> llr = noisy_llr(code, 2.0F, 3);
  for (std::size_t v = 0; v < llr.size(); v += 3) llr[v] *= 100.0F;
  LayeredMinSumFixedDecoder scalar(code, opt, fmt);
  for (const simd::SimdTier tier : simd::available_tiers()) {
    SimdFixedDecoder simd_dec(code, opt, fmt, tier);
    expect_identical(scalar, simd_dec, llr, ctx_name(code, tier, 3));
    const auto stats = simd_dec.saturation();
    EXPECT_GT(stats.quantizer_clips, 0);
  }
}

// ------------------------------------------------------- entry points ----

TEST(SimdEquivalence, QuantizedEntryPoint) {
  const auto code = make_wifi_648_half_rate();
  const FixedFormat fmt{8, 2};
  DecoderOptions opt;
  opt.count_saturation = true;
  LayeredMinSumFixedDecoder scalar(code, opt, fmt);
  const auto llr = noisy_llr(code, 1.8F, 9);
  std::vector<std::int32_t> codes(llr.size());
  for (std::size_t v = 0; v < llr.size(); ++v) codes[v] = fmt.quantize(llr[v]);
  for (const simd::SimdTier tier : simd::available_tiers()) {
    SimdFixedDecoder simd_dec(code, opt, fmt, tier);
    const auto rs = scalar.decode_quantized(codes);
    const auto rv = simd_dec.decode_quantized(codes);
    EXPECT_TRUE(rs.hard_bits == rv.hard_bits);
    EXPECT_EQ(rs.iterations, rv.iterations);
    EXPECT_EQ(rs.status, rv.status);
    EXPECT_EQ(scalar.saturation().datapath_clips,
              simd_dec.saturation().datapath_clips);
    EXPECT_EQ(scalar.saturation().q_clips, simd_dec.saturation().q_clips);
    EXPECT_EQ(scalar.saturation().r_clips, simd_dec.saturation().r_clips);
    EXPECT_EQ(scalar.saturation().p_clips, simd_dec.saturation().p_clips);
  }
}

TEST(SimdEquivalence, OutOfRailQuantizedInputFallsBack) {
  // A code one past the format rail never comes out of the quantizer; the
  // lane kernel cannot take it, so the scalar twin decodes and says so.
  const auto code = make_wifi_648_half_rate();
  const FixedFormat fmt{8, 2};
  DecoderOptions opt;
  opt.count_saturation = true;
  LayeredMinSumFixedDecoder scalar(code, opt, fmt);
  const auto llr = noisy_llr(code, 1.8F, 19);
  std::vector<std::int32_t> codes(llr.size());
  for (std::size_t v = 0; v < llr.size(); ++v) codes[v] = fmt.quantize(llr[v]);
  codes[5] = fmt.max_code() + 1;
  const DecodeResult rs = scalar.decode_quantized(codes);
  for (const simd::SimdTier tier : simd::available_tiers()) {
    SimdFixedDecoder simd_dec(code, opt, fmt, tier);
    const DecodeResult rv = simd_dec.decode_quantized(codes);
    const std::string ctx = std::string("tier=") + simd::to_string(tier);
    EXPECT_EQ(rv.simd_fallback, SimdFallback::kOutOfRailInput) << ctx;
    EXPECT_TRUE(rs.hard_bits == rv.hard_bits) << ctx;
    EXPECT_EQ(rs.iterations, rv.iterations) << ctx;
    EXPECT_EQ(rs.status, rv.status) << ctx;
    EXPECT_EQ(scalar.saturation().datapath_clips,
              simd_dec.saturation().datapath_clips)
        << ctx;
  }
}

TEST(SimdEquivalence, ObserverSnapshotsIdentical) {
  const auto code = make_wifi_648_half_rate();
  const auto llr = noisy_llr(code, 1.8F, 13);
  auto capture = [&](Decoder& dec, std::vector<IterationSnapshot>& out) {
    out.clear();
    dec.decode(llr);
  };
  for (const simd::SimdTier tier : simd::available_tiers()) {
    std::vector<IterationSnapshot> scalar_snaps;
    std::vector<IterationSnapshot> simd_snaps;
    DecoderOptions opt_s;
    opt_s.count_saturation = true;
    opt_s.observer = [&](const IterationSnapshot& s) {
      scalar_snaps.push_back(s);
    };
    DecoderOptions opt_v = opt_s;
    opt_v.observer = [&](const IterationSnapshot& s) {
      simd_snaps.push_back(s);
    };
    LayeredMinSumFixedDecoder scalar(code, opt_s, FixedFormat{8, 2});
    SimdFixedDecoder simd_dec(code, opt_v, FixedFormat{8, 2}, tier);
    capture(scalar, scalar_snaps);
    capture(simd_dec, simd_snaps);
    ASSERT_EQ(scalar_snaps.size(), simd_snaps.size());
    for (std::size_t i = 0; i < scalar_snaps.size(); ++i) {
      EXPECT_EQ(scalar_snaps[i].iteration, simd_snaps[i].iteration);
      EXPECT_EQ(scalar_snaps[i].syndrome_weight, simd_snaps[i].syndrome_weight);
      EXPECT_EQ(scalar_snaps[i].mean_abs_llr, simd_snaps[i].mean_abs_llr);
      EXPECT_EQ(scalar_snaps[i].flipped_bits, simd_snaps[i].flipped_bits);
      EXPECT_EQ(scalar_snaps[i].saturation_clips, simd_snaps[i].saturation_clips);
    }
  }
}

// ------------------------------------------------------------- dispatch ----

TEST(SimdEquivalence, PortableTierAlwaysAvailable) {
  EXPECT_TRUE(simd::tier_available(simd::SimdTier::kPortable));
  const auto tiers = simd::available_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), simd::SimdTier::kPortable);
  EXPECT_TRUE(simd::tier_available(simd::best_tier()));
}

TEST(SimdEquivalence, TierNamesRoundTrip) {
  for (const simd::SimdTier tier : simd::available_tiers())
    EXPECT_EQ(simd::tier_from_string(simd::to_string(tier)), tier);
  EXPECT_THROW(simd::tier_from_string("avx-512-vnni"), Error);
}

TEST(SimdEquivalence, FactoryNamesProduceSimdTwins) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 48);
  DecoderOptions opt;
  opt.count_saturation = true;
  const std::pair<const char*, const char*> pairs[] = {
      {"layered-minsum-fixed", "layered-minsum-simd"},
      {"layered-minsum-q6", "layered-minsum-simd-q6"},
      {"layered-minsum-offset-fixed", "layered-minsum-simd-offset"},
  };
  for (const auto& [scalar_name, simd_name] : pairs) {
    auto scalar = make_decoder(scalar_name, code, opt);
    auto simd_dec = make_decoder(simd_name, code, opt);
    for (int f = 0; f < 2; ++f) {
      expect_identical(*scalar, *simd_dec, noisy_llr(code, 1.8F, 40 + f),
                       std::string(simd_name) + " frame " + std::to_string(f));
    }
  }
}

TEST(SimdEquivalence, WideFormatFallsBackToScalar) {
  // q16.4 is outside the int16 lane envelope: the SIMD decoder must route
  // through its scalar twin and still match the reference decoder.
  const auto code = make_wifi_648_half_rate();
  DecoderOptions opt;
  opt.count_saturation = true;
  const FixedFormat fmt{16, 4};
  LayeredMinSumFixedDecoder scalar(code, opt, fmt);
  SimdFixedDecoder simd_dec(code, opt, fmt);
  EXPECT_TRUE(simd_dec.scalar_only());
  expect_identical(scalar, simd_dec, noisy_llr(code, 1.8F, 17), "q16.4");
}

}  // namespace
}  // namespace ldpc
