// Bit-identity proof for the finite-alphabet SIMD decoder family: every
// frame SimdFaDecoder decodes, one at a time on its z-lane shape and in
// streams on its inter-frame lanes, must match a standalone
// LayeredMinSumFaDecoder decode of the same LLRs — hard bits, iteration
// counts, status, and every saturation counter — on every kernel tier, at
// every message resolution (fa2/fa3/fa4), for block sizes below / at /
// above the lane width, and
// across code geometries including z values that collide with none of the
// int8 lane counts. Both quantizer paths are covered: the counted
// per-element fa_quantize and the uncounted vector quantize kernel
// (fa_quantize_pass), whose float-exactness argument lives in
// simd_kernel.hpp. scripts/check.sh runs this suite scalar-only and under
// the sanitizer matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "channel/awgn.hpp"
#include "channel/modem.hpp"
#include "codes/encoder.hpp"
#include "codes/random_qc.hpp"
#include "codes/wifi.hpp"
#include "codes/wimax.hpp"
#include "core/layered_minsum_fa.hpp"
#include "core/simd/simd_layered.hpp"
#include "fault/fault_injector.hpp"
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
  // Family invariant, independently of the scalar reference: the staircase
  // emits in-alphabet magnitudes, so R never clips on any implementation.
  EXPECT_EQ(sv.r_clips, 0) << ctx;
}

void expect_block_identical(SimdFaDecoder& batched,
                            const std::vector<std::vector<float>>& pool,
                            const std::vector<Reference>& refs,
                            std::size_t count, const std::string& ctx) {
  std::vector<BlockFrame> frames;
  frames.reserve(count);
  for (std::size_t f = 0; f < count; ++f)
    frames.push_back({pool[f], nullptr});
  std::vector<DecodeResult> results(count);
  std::vector<SaturationStats> saturation(count);
  batched.decode_block(frames, results, saturation);
  for (std::size_t f = 0; f < count; ++f)
    expect_frame_identical(refs[f], results[f], saturation[f],
                           ctx + " block=" + std::to_string(count) +
                               " frame=" + std::to_string(f));
}

/// Sweep one (code, options, msg_bits) point: scalar references once, then
/// every tier twice over — the z-lane decoder per frame, and the batched
/// decoder at block sizes {1, W-1, W, W+3} (one lane, a partial block, a
/// full block, a mid-flight lane refill).
void sweep_code(const QCLdpcCode& code, const DecoderOptions& opt,
                int msg_bits, float ebn0_db) {
  std::size_t max_width = 0;
  for (const simd::SimdTier tier : simd::available_tiers())
    max_width = std::max<std::size_t>(max_width, simd::tier_lanes8(tier));

  std::vector<std::vector<float>> pool;
  std::vector<Reference> refs;
  LayeredMinSumFaDecoder scalar(code, opt, msg_bits);
  for (std::size_t f = 0; f < max_width + 3; ++f) {
    pool.push_back(noisy_llr(code, ebn0_db,
                             static_cast<std::uint64_t>(f) * 131 + 7));
    refs.push_back({scalar.decode(pool.back()), scalar.saturation()});
  }

  for (const simd::SimdTier tier : simd::available_tiers()) {
    const std::string ctx = "fa" + std::to_string(msg_bits) +
                            " z=" + std::to_string(code.z()) +
                            " n=" + std::to_string(code.n()) +
                            " tier=" + simd::to_string(tier);
    SimdFaDecoder lane(code, opt, msg_bits, 2.0F, tier);
    for (std::size_t f = 0; f < pool.size(); ++f) {
      const DecodeResult rv = lane.decode(pool[f]);
      expect_frame_identical(refs[f], rv, lane.saturation(),
                             ctx + " zlane frame=" + std::to_string(f));
    }

    SimdFaDecoder batched(code, opt, msg_bits, 2.0F, tier);
    ASSERT_FALSE(batched.scalar_only());
    const std::size_t w = batched.block_width();
    EXPECT_EQ(w, simd::tier_lanes8(tier));
    for (const std::size_t count : {std::size_t{1}, w - 1, w, w + 3})
      expect_block_identical(batched, pool, refs, count, ctx);
  }
}

DecoderOptions counting_options() {
  DecoderOptions opt;
  opt.count_saturation = true;
  return opt;
}

DecoderOptions uncounted_options() {
  DecoderOptions opt;
  opt.count_saturation = false;
  return opt;
}

// ------------------------------------------------------------- geometry ----

TEST(SimdFaEquivalence, WimaxHalfRateZ96Fa4) {
  sweep_code(make_wimax_2304_half_rate(), counting_options(), 4, 2.4F);
}

TEST(SimdFaEquivalence, WifiZ27Fa4) {
  // z = 27 collides with none of the int8 lane counts; the batched layout
  // is z-agnostic (frames ride in lanes) and must stay exact.
  sweep_code(make_wifi_648_half_rate(), counting_options(), 4, 2.4F);
}

TEST(SimdFaEquivalence, WifiZ81Fa4) {
  sweep_code(make_wifi_1944_half_rate(), counting_options(), 4, 2.4F);
}

TEST(SimdFaEquivalence, RandomQcZ10BelowEveryLaneWidth) {
  RandomQcConfig cfg;
  cfg.z = 10;
  cfg.seed = 11;
  sweep_code(make_random_qc_code(cfg), counting_options(), 4, 3.0F);
}

TEST(SimdFaEquivalence, RandomQcZ33OddGeometry) {
  RandomQcConfig cfg;
  cfg.block_rows = 5;
  cfg.block_cols = 15;
  cfg.z = 33;
  cfg.info_row_degree = 5;
  cfg.seed = 23;
  sweep_code(make_random_qc_code(cfg), counting_options(), 4, 3.0F);
}

// ----------------------------------------------------------- resolution ----

TEST(SimdFaEquivalence, TwoBitMessages) {
  sweep_code(make_wifi_648_half_rate(), counting_options(), 2, 3.0F);
}

TEST(SimdFaEquivalence, ThreeBitMessages) {
  sweep_code(make_wifi_648_half_rate(), counting_options(), 3, 2.6F);
}

// ----------------------------------------------------- quantizer paths ----

TEST(SimdFaEquivalence, UncountedVectorQuantizePath) {
  // count_saturation = false routes channel quantization through the
  // tier's fa_quantize_pass kernel instead of per-element fa_quantize;
  // results must stay bit-identical (stats all zero on both sides).
  sweep_code(make_wifi_648_half_rate(), uncounted_options(), 4, 2.4F);
}

TEST(SimdFaEquivalence, UncountedVectorQuantizeWimaxZ96) {
  sweep_code(make_wimax_2304_half_rate(), uncounted_options(), 4, 2.4F);
}

// ------------------------------------------------------------- options ----

TEST(SimdFaEquivalence, EarlyTerminationOff) {
  DecoderOptions opt = counting_options();
  opt.early_termination = false;
  opt.max_iterations = 6;
  sweep_code(make_wifi_648_half_rate(), opt, 4, 2.2F);
}

TEST(SimdFaEquivalence, WatchdogAbort) {
  DecoderOptions opt = counting_options();
  opt.max_iterations = 30;
  opt.watchdog.stall_window = 4;
  // 0 dB: most frames stall, so the watchdog path actually fires.
  sweep_code(make_wifi_648_half_rate(), opt, 4, 0.0F);
}

// ------------------------------------------------------- entry points ----
// The fa4 analogues of the int16 family's SimdEquivalence / SimdBatch
// entry-point, observer, cancellation and fallback tests.

TEST(SimdFaEquivalence, QuantizedEntryPoint) {
  const auto code = make_wifi_648_half_rate();
  DecoderOptions opt;
  opt.count_saturation = true;
  LayeredMinSumFaDecoder scalar(code, opt, 4);
  const FixedFormat posterior = scalar.tables().posterior;
  const auto llr = noisy_llr(code, 2.4F, 9);
  std::vector<std::int32_t> codes(llr.size());
  for (std::size_t v = 0; v < llr.size(); ++v)
    codes[v] = fa_quantize(posterior, llr[v]);
  for (const simd::SimdTier tier : simd::available_tiers()) {
    SimdFaDecoder lane(code, opt, 4, 2.0F, tier);
    const Reference ref{scalar.decode_quantized(codes), scalar.saturation()};
    const DecodeResult rv = lane.decode_quantized(codes);
    const SaturationStats sv = lane.saturation();
    const std::string ctx = std::string("tier=") + simd::to_string(tier);
    EXPECT_TRUE(ref.result.hard_bits == rv.hard_bits) << ctx;
    EXPECT_EQ(ref.result.iterations, rv.iterations) << ctx;
    EXPECT_EQ(ref.result.status, rv.status) << ctx;
    EXPECT_EQ(rv.simd_fallback, SimdFallback::kNone) << ctx;
    EXPECT_EQ(ref.saturation.datapath_clips, sv.datapath_clips) << ctx;
    EXPECT_EQ(ref.saturation.q_clips, sv.q_clips) << ctx;
    EXPECT_EQ(ref.saturation.r_clips, sv.r_clips) << ctx;
    EXPECT_EQ(ref.saturation.p_clips, sv.p_clips) << ctx;
  }
}

TEST(SimdFaEquivalence, OutOfRailQuantizedInputFallsBack) {
  // A code one past the symmetric rail never comes out of fa_quantize; the
  // lane kernel cannot take it, so the scalar twin decodes and says so.
  const auto code = make_wifi_648_half_rate();
  DecoderOptions opt;
  opt.count_saturation = true;
  LayeredMinSumFaDecoder scalar(code, opt, 4);
  const FixedFormat posterior = scalar.tables().posterior;
  const auto llr = noisy_llr(code, 2.4F, 19);
  std::vector<std::int32_t> codes(llr.size());
  for (std::size_t v = 0; v < llr.size(); ++v)
    codes[v] = fa_quantize(posterior, llr[v]);
  codes[5] = kFaRail + 1;
  const Reference ref{scalar.decode_quantized(codes), scalar.saturation()};
  for (const simd::SimdTier tier : simd::available_tiers()) {
    SimdFaDecoder lane(code, opt, 4, 2.0F, tier);
    const DecodeResult rv = lane.decode_quantized(codes);
    const std::string ctx = std::string("tier=") + simd::to_string(tier);
    EXPECT_EQ(rv.simd_fallback, SimdFallback::kOutOfRailInput) << ctx;
    EXPECT_TRUE(ref.result.hard_bits == rv.hard_bits) << ctx;
    EXPECT_EQ(ref.result.iterations, rv.iterations) << ctx;
    EXPECT_EQ(ref.result.status, rv.status) << ctx;
    EXPECT_EQ(ref.saturation.datapath_clips, lane.saturation().datapath_clips)
        << ctx;
  }
}

TEST(SimdFaEquivalence, ObserverSnapshotsIdentical) {
  const auto code = make_wifi_648_half_rate();
  const auto llr = noisy_llr(code, 2.4F, 13);
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
    LayeredMinSumFaDecoder scalar(code, opt_s, 4);
    SimdFaDecoder lane(code, opt_v, 4, 2.0F, tier);
    scalar.decode(llr);
    EXPECT_EQ(lane.decode(llr).simd_fallback, SimdFallback::kNone);
    ASSERT_EQ(scalar_snaps.size(), simd_snaps.size());
    for (std::size_t i = 0; i < scalar_snaps.size(); ++i) {
      EXPECT_EQ(scalar_snaps[i].iteration, simd_snaps[i].iteration);
      EXPECT_EQ(scalar_snaps[i].syndrome_weight, simd_snaps[i].syndrome_weight);
      EXPECT_EQ(scalar_snaps[i].mean_abs_llr, simd_snaps[i].mean_abs_llr);
      EXPECT_EQ(scalar_snaps[i].flipped_bits, simd_snaps[i].flipped_bits);
      EXPECT_EQ(scalar_snaps[i].saturation_clips,
                simd_snaps[i].saturation_clips);
    }
  }
}

// --------------------------------------------------------- cancellation ----

TEST(SimdFaEquivalence, CancelledFrameInBlockLeavesLaneMatesIntact) {
  const auto code = make_wifi_648_half_rate();
  const DecoderOptions opt = counting_options();
  LayeredMinSumFaDecoder scalar(code, opt, 4);

  std::vector<std::vector<float>> pool;
  std::vector<Reference> refs;
  for (std::size_t f = 0; f < 8; ++f) {
    pool.push_back(noisy_llr(code, 2.4F, f * 977 + 3));
    refs.push_back({scalar.decode(pool.back()), scalar.saturation()});
  }

  CancelToken cancelled;
  cancelled.cancel();  // expired before the block starts
  scalar.set_cancel_token(&cancelled);
  const Reference cancelled_ref{scalar.decode(pool[2]), scalar.saturation()};
  scalar.set_cancel_token(nullptr);
  EXPECT_EQ(cancelled_ref.result.status, DecodeStatus::kDeadlineExpired);

  for (const simd::SimdTier tier : simd::available_tiers()) {
    SimdFaDecoder batched(code, opt, 4, 2.0F, tier);
    std::vector<BlockFrame> frames;
    for (std::size_t f = 0; f < pool.size(); ++f)
      frames.push_back({pool[f], f == 2 ? &cancelled : nullptr});
    std::vector<DecodeResult> results(frames.size());
    std::vector<SaturationStats> saturation(frames.size());
    batched.decode_block(frames, results, saturation);
    const std::string ctx = std::string("tier=") + simd::to_string(tier);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      expect_frame_identical(f == 2 ? cancelled_ref : refs[f], results[f],
                             saturation[f],
                             ctx + " frame=" + std::to_string(f));
    }
  }
}

// ------------------------------------------------------------ fallbacks ----

TEST(SimdFaEquivalence, FaultCampaignFallsBackPerFrame) {
  // Fault-injection corruption order is defined by scalar access order:
  // both shapes must take the scalar twin and stamp why.
  const auto code = make_wifi_648_half_rate();
  FaultConfig cfg;
  cfg.rate = 1e-4;
  FaultInjector injector(cfg);
  DecoderOptions opt;
  opt.fault_injector = &injector;
  const auto llr = noisy_llr(code, 2.4F, 99);

  SimdFaDecoder lane(code, opt, 4);
  EXPECT_FALSE(lane.scalar_only());  // config-dependent, not structural
  EXPECT_EQ(lane.decode(llr).simd_fallback, SimdFallback::kFaultInjector);

  SimdFaDecoder batched(code, opt, 4);
  EXPECT_FALSE(batched.scalar_only());
  const BlockFrame frames[] = {{llr, nullptr}, {llr, nullptr}};
  std::vector<DecodeResult> results(2);
  std::vector<SaturationStats> saturation(2);
  batched.decode_block(frames, results, saturation);
  for (const DecodeResult& r : results)
    EXPECT_EQ(r.simd_fallback, SimdFallback::kFaultInjector);
}

TEST(SimdFaEquivalence, ObserverFallsBackPerFrame) {
  // One snapshot per iteration of one frame is meaningless across
  // interleaved lanes, so an observed block decodes per-frame.
  const auto code = make_wifi_648_half_rate();
  std::size_t snapshots = 0;
  DecoderOptions opt;
  opt.observer = [&](const IterationSnapshot&) { ++snapshots; };
  SimdFaDecoder batched(code, opt, 4);

  const auto llr = noisy_llr(code, 2.4F, 42);
  const BlockFrame frames[] = {{llr, nullptr}, {llr, nullptr}};
  std::vector<DecodeResult> results(2);
  std::vector<SaturationStats> saturation(2);
  batched.decode_block(frames, results, saturation);
  for (const DecodeResult& r : results)
    EXPECT_EQ(r.simd_fallback, SimdFallback::kObserver);
  EXPECT_GT(snapshots, 0U);
}

}  // namespace
}  // namespace ldpc
