// Block equivalence for the inter-frame-batched SIMD decoder: every frame
// of a SimdFixedDecoder::decode_block must be *bit-identical* to a
// standalone LayeredMinSumFixedDecoder decode of the same LLRs — hard
// bits, iteration counts, status, and every per-site saturation counter —
// on every kernel tier, for block sizes below / at / above the lane width
// (refill mid-block), and for every code geometry including z values that
// are not multiples of any lane count (irrelevant here by design: frames
// ride in lanes, so every lane is full for any z — that invariance is the
// point of the batched layout, and this suite is where it is proven).
// scripts/check.sh runs this suite scalar-only, under ASan/UBSan and under
// TSan, so lane indexing or refill races fail loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "channel/awgn.hpp"
#include "channel/modem.hpp"
#include "codes/encoder.hpp"
#include "codes/random_qc.hpp"
#include "codes/registry.hpp"
#include "codes/wifi.hpp"
#include "codes/wimax.hpp"
#include "core/decoder_factory.hpp"
#include "core/layered_minsum_fa.hpp"
#include "core/layered_minsum_fixed.hpp"
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

/// Per-frame scalar reference: the result and saturation stats a standalone
/// LayeredMinSumFixedDecoder produces for one LLR vector.
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

/// Decode the pool's first `count` frames as one block and compare each
/// against its scalar reference.
void expect_block_identical(Decoder& batched,
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
  for (std::size_t f = 0; f < count; ++f) {
    expect_frame_identical(refs[f], results[f], saturation[f],
                           ctx + " block=" + std::to_string(count) +
                               " frame=" + std::to_string(f));
  }
}

/// Sweep one (code, options, format) point: scalar references once, then
/// every tier x block sizes {1, W-1, W, W+3} where W is the tier's lane
/// width — one lane, a partial block, a full block, and a block that
/// forces a mid-flight lane refill.
void sweep_code(const QCLdpcCode& code, const DecoderOptions& opt,
                FixedFormat fmt, float ebn0_db) {
  std::size_t max_width = 0;
  for (const simd::SimdTier tier : simd::available_tiers())
    max_width = std::max<std::size_t>(max_width, simd::tier_lanes(tier));

  std::vector<std::vector<float>> pool;
  std::vector<Reference> refs;
  LayeredMinSumFixedDecoder scalar(code, opt, fmt);
  for (std::size_t f = 0; f < max_width + 3; ++f) {
    pool.push_back(noisy_llr(code, ebn0_db,
                             static_cast<std::uint64_t>(f) * 131 + 7));
    refs.push_back({scalar.decode(pool.back()), scalar.saturation()});
  }

  for (const simd::SimdTier tier : simd::available_tiers()) {
    SimdFixedDecoder batched(code, opt, fmt, tier);
    ASSERT_FALSE(batched.scalar_only());
    const std::size_t w = batched.block_width();
    EXPECT_EQ(w, simd::tier_lanes(tier));
    const std::string ctx = "z=" + std::to_string(code.z()) +
                            " n=" + std::to_string(code.n()) +
                            " tier=" + simd::to_string(tier);
    for (const std::size_t count : {std::size_t{1}, w - 1, w, w + 3})
      expect_block_identical(batched, pool, refs, count, ctx);
  }
}

DecoderOptions counting_options() {
  DecoderOptions opt;
  opt.count_saturation = true;
  return opt;
}

// ------------------------------------------------------------- geometry ----

TEST(SimdBatch, WimaxHalfRateZ96) {
  // The paper's case-study code, also the throughput-gate operating point.
  sweep_code(make_wimax_2304_half_rate(), counting_options(), FixedFormat{8, 2},
             1.8F);
}

TEST(SimdBatch, WifiZ27) {
  // z = 27 leaves tail lanes idle in the z-lane kernel; the batched layout
  // must not care — lanes carry frames, not rows.
  sweep_code(make_wifi_648_half_rate(), counting_options(), FixedFormat{8, 2},
             1.8F);
}

TEST(SimdBatch, WifiZ81) {
  sweep_code(make_wifi_1944_half_rate(), counting_options(), FixedFormat{8, 2},
             1.6F);
}

TEST(SimdBatch, RandomQcZ10BelowEveryLaneWidth) {
  RandomQcConfig cfg;
  cfg.z = 10;
  cfg.seed = 7;
  sweep_code(make_random_qc_code(cfg), counting_options(), FixedFormat{8, 2},
             2.5F);
}

TEST(SimdBatch, RandomQcZ33OddGeometry) {
  RandomQcConfig cfg;
  cfg.block_rows = 5;
  cfg.block_cols = 15;
  cfg.z = 33;
  cfg.info_row_degree = 5;
  cfg.seed = 21;
  sweep_code(make_random_qc_code(cfg), counting_options(), FixedFormat{8, 2},
             2.5F);
}

// ------------------------------------------------- kernel configurations ----

TEST(SimdBatch, NarrowQ6Format) {
  sweep_code(make_wifi_648_half_rate(), counting_options(), FixedFormat{6, 1},
             2.0F);
}

TEST(SimdBatch, ScaleSweep) {
  // Non-0.75 scales route through the truncating num/16 magnitude path.
  const auto code = make_wifi_648_half_rate();
  for (const float scale : {0.5F, 1.0F}) {
    DecoderOptions opt = counting_options();
    opt.scale = scale;
    sweep_code(code, opt, FixedFormat{8, 2}, 1.8F);
  }
}

TEST(SimdBatch, EarlyTerminationOff) {
  // Fixed iteration budget: lanes retire together only at max_iterations,
  // the only iteration the parity probe runs (no watchdog here).
  DecoderOptions opt = counting_options();
  opt.early_termination = false;
  opt.max_iterations = 8;
  sweep_code(make_wifi_648_half_rate(), opt, FixedFormat{8, 2}, 2.2F);
}

TEST(SimdBatch, WatchdogAbort) {
  // Heavy noise + stall watchdog: per-lane watchdog state must abort each
  // frame on the same iteration as the scalar decoder would.
  DecoderOptions opt = counting_options();
  opt.max_iterations = 30;
  opt.watchdog.stall_window = 4;
  sweep_code(make_wifi_648_half_rate(), opt, FixedFormat{8, 2}, 0.0F);
}

TEST(SimdBatch, UncountedPathMatchesHardOutputs) {
  // count_saturation = false is the throughput configuration (the benches
  // run it): no clip accounting, but hard bits / iterations / status must
  // still match the scalar decoder run in the same mode.
  const auto code = make_wifi_648_half_rate();
  DecoderOptions opt;  // count_saturation defaults to false
  sweep_code(code, opt, FixedFormat{8, 2}, 1.8F);
}

TEST(SimdBatch, UncountedPathWimaxZ96) {
  // The decode service's configuration: WiMAX 1/2 z = 96, q8.2, no clip
  // accounting, so every frame is staged in by the vector quantize pass.
  sweep_code(make_wimax_2304_half_rate(), DecoderOptions{}, FixedFormat{8, 2},
             2.0F);
}

// --------------------------------------------------------- cancellation ----

TEST(SimdBatch, CancelledFrameInBlockLeavesLaneMatesIntact) {
  const auto code = make_wifi_648_half_rate();
  const DecoderOptions opt = counting_options();
  const FixedFormat fmt{8, 2};
  LayeredMinSumFixedDecoder scalar(code, opt, fmt);

  std::vector<std::vector<float>> pool;
  std::vector<Reference> refs;
  for (std::size_t f = 0; f < 8; ++f) {
    pool.push_back(noisy_llr(code, 1.8F, f * 977 + 3));
    refs.push_back({scalar.decode(pool.back()), scalar.saturation()});
  }

  CancelToken cancelled;
  cancelled.cancel();  // expired before the block starts
  // A sticky pre-cancelled token is deterministic: both decoders poll at
  // layer boundaries, so both bail before layer 0 of iteration 1 and the
  // cancelled frame too must match the scalar decoder bit-for-bit.
  scalar.set_cancel_token(&cancelled);
  const Reference cancelled_ref{scalar.decode(pool[2]), scalar.saturation()};
  scalar.set_cancel_token(nullptr);
  EXPECT_EQ(cancelled_ref.result.status, DecodeStatus::kDeadlineExpired);

  for (const simd::SimdTier tier : simd::available_tiers()) {
    SimdFixedDecoder batched(code, opt, fmt, tier);
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

/// Blocks below, at and above `batched`'s min_block() — the z-lane
/// frame-by-frame path and the batched kernel — each with a pre-cancelled
/// frame, must match `scalar` frame for frame with no SIMD fallback.
template <class Batched>
void expect_break_even_identical(Decoder& scalar, Batched& batched,
                                 const QCLdpcCode& code,
                                 const std::string& ctx) {
  const std::size_t m = batched.min_block();
  ASSERT_GE(m, 1U) << ctx;
  ASSERT_LE(m, batched.block_width()) << ctx;
  // The all-zero codeword through AWGN: needs no encoder, so any code works.
  const float variance = awgn_noise_variance(1.8F, code.rate());
  std::vector<std::vector<float>> pool;
  std::vector<Reference> refs;
  for (std::size_t f = 0; f < m + 1; ++f) {
    AwgnChannel ch(variance, f * 313 + 11);
    pool.push_back(BpskModem::demodulate(
        ch.transmit(BpskModem::modulate(BitVec(code.n()))), variance));
    refs.push_back({scalar.decode(pool.back()), scalar.saturation()});
  }
  CancelToken cancelled;
  cancelled.cancel();
  scalar.set_cancel_token(&cancelled);
  const Reference cancelled_ref{scalar.decode(pool[0]), scalar.saturation()};
  scalar.set_cancel_token(nullptr);
  for (const std::size_t count : {m - 1, m, m + 1}) {
    if (count == 0) continue;
    std::vector<BlockFrame> frames;
    for (std::size_t f = 0; f < count; ++f)
      frames.push_back({pool[f], f == 0 ? &cancelled : nullptr});
    std::vector<DecodeResult> results(count);
    std::vector<SaturationStats> saturation(count);
    batched.decode_block(frames, results, saturation);
    for (std::size_t f = 0; f < count; ++f)
      expect_frame_identical(f == 0 ? cancelled_ref : refs[f], results[f],
                             saturation[f],
                             ctx + " min_block=" + std::to_string(m) +
                                 " block=" + std::to_string(count) +
                                 " frame=" + std::to_string(f));
  }
}

TEST(SimdBatch, BlocksAroundBreakEvenMatchScalar) {
  // Small blocks decode frame by frame on the z-lane path, larger ones on
  // the batched kernel: the switch must be invisible in every result. At
  // z = 96 every tier has a block size below the break-even; a z = 1 code
  // fills one z-lane, so every block of it runs the batched kernel.
  const DecoderOptions opt = counting_options();
  const QCLdpcCode wimax = make_wimax_2304_half_rate();
  for (const QCLdpcCode* code_ptr : {&wimax, &external_code("ft8-174")}) {
    const QCLdpcCode& code = *code_ptr;
    LayeredMinSumFixedDecoder scalar(code, opt, FixedFormat{8, 2});
    LayeredMinSumFaDecoder scalar_fa(code, opt, 4);
    for (const simd::SimdTier tier : simd::available_tiers()) {
      const std::string ctx = "z=" + std::to_string(code.z()) +
                              " tier=" + simd::to_string(tier);
      SimdFixedDecoder batched(code, opt, FixedFormat{8, 2}, tier);
      SimdFaDecoder batched_fa(code, opt, 4, 2.0F, tier);
      if (code.z() == 1) {
        EXPECT_EQ(batched.min_block(), 1U) << ctx;
        EXPECT_EQ(batched_fa.min_block(), 1U) << ctx;
      } else {
        EXPECT_GT(batched.min_block(), 1U) << ctx;
        EXPECT_GT(batched_fa.min_block(), 1U) << ctx;
      }
      expect_break_even_identical(scalar, batched, code, "q8.2 " + ctx);
      expect_break_even_identical(scalar_fa, batched_fa, code, "fa4 " + ctx);
    }
  }
}

// -------------------------------------------------------------- streams ----

/// One stream of 4 x (the widest tier's lanes) frames per tier, so that many
/// lanes refill in one iteration tail (all of them with early termination
/// off), against the scalar `reference` frame for frame, every saturation
/// counter included. Frames alternate `db_a` and `db_b`. Frame W, the first
/// to load into a lane another frame used, carries a pre-cancelled token:
/// its hard bits come from a sign plane read at its first layer boundary,
/// so a stale plane would show. With `stale_r`, a block of W rail-magnitude
/// frames with random signs decodes first, so every lane's R column holds
/// messages near the rails when the stream's frames load into it: a first
/// iteration that read them instead of 0 would show.
template <class MakeBatched>
void expect_stream_identical(Decoder& reference, MakeBatched make_batched,
                             std::uint32_t (*lanes)(simd::SimdTier),
                             const QCLdpcCode& code, float db_a, float db_b,
                             bool stale_r, const std::string& ctx) {
  std::size_t max_width = 0;
  for (const simd::SimdTier tier : simd::available_tiers())
    max_width = std::max<std::size_t>(max_width, lanes(tier));
  std::vector<std::vector<float>> pool;
  std::vector<Reference> refs;
  for (std::size_t f = 0; f < 4 * max_width; ++f) {
    pool.push_back(noisy_llr(code, f % 2 == 0 ? db_a : db_b, f * 7919 + 5));
    refs.push_back({reference.decode(pool.back()), reference.saturation()});
  }
  CancelToken cancelled;
  cancelled.cancel();
  for (const simd::SimdTier tier : simd::available_tiers()) {
    auto batched = make_batched(tier);
    const std::size_t w = batched->block_width();
    ASSERT_EQ(w, lanes(tier));
    reference.set_cancel_token(&cancelled);
    const Reference cancelled_ref{reference.decode(pool[w]),
                                  reference.saturation()};
    reference.set_cancel_token(nullptr);
    std::vector<BlockFrame> frames;
    std::vector<DecodeResult> results(w);
    std::vector<SaturationStats> saturation(w);
    if (stale_r) {
      Xoshiro256 rng(w);
      std::vector<std::vector<float>> rail(w, std::vector<float>(code.n()));
      for (auto& llr : rail) {
        for (float& x : llr) x = rng.coin() ? 1e4F : -1e4F;
        frames.push_back({llr, nullptr});
      }
      batched->decode_block(frames, results, saturation);
      frames.clear();
    }
    for (std::size_t f = 0; f < pool.size(); ++f)
      frames.push_back({pool[f], f == w ? &cancelled : nullptr});
    results.assign(frames.size(), DecodeResult{});
    saturation.assign(frames.size(), SaturationStats{});
    batched->decode_block(frames, results, saturation);
    for (std::size_t f = 0; f < frames.size(); ++f)
      expect_frame_identical(f == w ? cancelled_ref : refs[f], results[f],
                             saturation[f],
                             ctx + " tier=" + simd::to_string(tier) +
                                 " frame=" + std::to_string(f));
  }
}

/// The stream configurations: early termination on (lanes refill a few at a
/// time), off (every lane refills at once), the stall watchdog at 0 dB, and
/// per-site saturation counting — on WiMAX z = 96 (n = 36 plane words) and
/// WiFi z = 27 (n = 648, a partial last plane word).
template <class MakeReference, class MakeBatched>
void sweep_streams(MakeReference make_reference, MakeBatched make_batched,
                   std::uint32_t (*lanes)(simd::SimdTier),
                   const std::string& family, bool stale_r = false) {
  struct Case {
    const char* name;
    DecoderOptions opt;
    float db_a;
    float db_b;
  };
  std::vector<Case> cases(4, Case{"et-on", DecoderOptions{}, 1.0F, 3.0F});
  cases[1].name = "et-off";
  cases[1].opt.early_termination = false;
  cases[1].opt.max_iterations = 8;
  cases[2].name = "watchdog";
  cases[2].opt.max_iterations = 30;
  cases[2].opt.watchdog.stall_window = 4;
  cases[2].db_a = cases[2].db_b = 0.0F;
  cases[3].name = "counted";
  cases[3].opt.count_saturation = true;
  const QCLdpcCode wimax = make_wimax_2304_half_rate();
  const QCLdpcCode wifi = make_wifi_648_half_rate();
  for (const QCLdpcCode* code : {&wimax, &wifi}) {
    for (const Case& c : cases) {
      auto reference = make_reference(*code, c.opt);
      expect_stream_identical(
          *reference,
          [&](simd::SimdTier tier) { return make_batched(*code, c.opt, tier); },
          lanes, *code, c.db_a, c.db_b, stale_r,
          family + " " + c.name + " n=" + std::to_string(code->n()) +
              (stale_r ? " stale-r" : ""));
    }
  }
}

TEST(SimdBatch, StreamRefillingManyLanesMatchesScalarQ8) {
  sweep_streams(
      [](const QCLdpcCode& code, const DecoderOptions& opt) {
        return std::make_unique<LayeredMinSumFixedDecoder>(code, opt,
                                                           FixedFormat{8, 2});
      },
      [](const QCLdpcCode& code, const DecoderOptions& opt,
         simd::SimdTier tier) {
        return std::make_unique<SimdFixedDecoder>(code, opt, FixedFormat{8, 2},
                                                  tier);
      },
      &simd::tier_lanes, "q8.2");
}

TEST(SimdBatch, StreamRefillingManyLanesMatchesScalarFa4) {
  sweep_streams(
      [](const QCLdpcCode& code, const DecoderOptions& opt) {
        return std::make_unique<LayeredMinSumFaDecoder>(code, opt, 4);
      },
      [](const QCLdpcCode& code, const DecoderOptions& opt,
         simd::SimdTier tier) {
        return std::make_unique<SimdFaDecoder>(code, opt, 4, 2.0F, tier);
      },
      &simd::tier_lanes8, "fa4");
}

// The same streams into lanes whose R columns a block of rail-magnitude
// frames left full: first-iteration lanes must read R as 0 however the
// tier masks it (an and_ on each R load, or a subtract under a lane mask
// that keeps P).
TEST(SimdBatch, StreamRefillingManyLanesOverStaleRMatchesScalarQ8) {
  sweep_streams(
      [](const QCLdpcCode& code, const DecoderOptions& opt) {
        return std::make_unique<LayeredMinSumFixedDecoder>(code, opt,
                                                           FixedFormat{8, 2});
      },
      [](const QCLdpcCode& code, const DecoderOptions& opt,
         simd::SimdTier tier) {
        return std::make_unique<SimdFixedDecoder>(code, opt, FixedFormat{8, 2},
                                                  tier);
      },
      &simd::tier_lanes, "q8.2", true);
}

TEST(SimdBatch, StreamRefillingManyLanesOverStaleRMatchesScalarFa4) {
  sweep_streams(
      [](const QCLdpcCode& code, const DecoderOptions& opt) {
        return std::make_unique<LayeredMinSumFaDecoder>(code, opt, 4);
      },
      [](const QCLdpcCode& code, const DecoderOptions& opt,
         simd::SimdTier tier) {
        return std::make_unique<SimdFaDecoder>(code, opt, 4, 2.0F, tier);
      },
      &simd::tier_lanes8, "fa4", true);
}

/// Rail-hot channel LLRs (every third one x100, as in
/// SimdEquivalence.SaturationStress) through a counted stream of 2 F + 3
/// frames per tier, so lanes refill: every frame must match the scalar
/// `reference`, quantizer clips included, and most frames must clip at the
/// quantizer (noise alone at the suites' operating points almost never
/// reaches the rails).
template <class MakeBatched>
void expect_rail_hot_stream(Decoder& reference, MakeBatched make_batched,
                            std::uint32_t (*lanes)(simd::SimdTier),
                            const QCLdpcCode& code, const std::string& ctx) {
  for (const simd::SimdTier tier : simd::available_tiers()) {
    auto batched = make_batched(tier);
    const std::size_t count = 2 * lanes(tier) + 3;
    std::vector<std::vector<float>> pool;
    std::vector<Reference> refs;
    std::vector<BlockFrame> frames;
    for (std::size_t f = 0; f < count; ++f) {
      pool.push_back(noisy_llr(code, 2.0F, f * 104729 + 11));
      for (std::size_t v = f % 3; v < code.n(); v += 3)
        pool.back()[v] *= 100.0F;
      refs.push_back({reference.decode(pool.back()), reference.saturation()});
    }
    for (const std::vector<float>& llr : pool) frames.push_back({llr, nullptr});
    std::vector<DecodeResult> results(count);
    std::vector<SaturationStats> saturation(count);
    batched->decode_block(frames, results, saturation);
    std::size_t clipped = 0;
    for (std::size_t f = 0; f < count; ++f) {
      const std::string where = ctx + " tier=" + simd::to_string(tier) +
                                " frame=" + std::to_string(f);
      expect_frame_identical(refs[f], results[f], saturation[f], where);
      if (saturation[f].quantizer_clips > 0) ++clipped;
    }
    EXPECT_GE(clipped * 10, count * 9)
        << ctx << " tier=" << simd::to_string(tier);
  }
}

TEST(SimdBatch, RailHotCountedStreamClipsAtQuantizer) {
  const DecoderOptions opt = counting_options();
  const QCLdpcCode code = make_wifi_648_half_rate();
  LayeredMinSumFixedDecoder scalar(code, opt, FixedFormat{8, 2});
  expect_rail_hot_stream(
      scalar,
      [&](simd::SimdTier tier) {
        return std::make_unique<SimdFixedDecoder>(code, opt, FixedFormat{8, 2},
                                                  tier);
      },
      &simd::tier_lanes, code, "q8.2");
  LayeredMinSumFaDecoder scalar_fa(code, opt, 4);
  expect_rail_hot_stream(
      scalar_fa,
      [&](simd::SimdTier tier) {
        return std::make_unique<SimdFaDecoder>(code, opt, 4, 2.0F, tier);
      },
      &simd::tier_lanes8, code, "fa4");
}

/// decode_block must detach a token attached with set_cancel_token (the
/// Decoder contract): a pre-cancelled token attached before the block must
/// not cut a later single-frame decode short.
void expect_block_detaches_token(Decoder& scalar, Decoder& batched,
                                 std::span<const float> llr,
                                 const std::string& ctx) {
  const DecodeResult ref = scalar.decode(llr);
  ASSERT_EQ(ref.status, DecodeStatus::kConverged) << ctx;
  CancelToken cancelled;
  cancelled.cancel();
  batched.set_cancel_token(&cancelled);
  const BlockFrame frames[] = {{llr, nullptr}, {llr, nullptr}};
  std::vector<DecodeResult> results(2);
  std::vector<SaturationStats> saturation(2);
  batched.decode_block(frames, results, saturation);
  const DecodeResult rv = batched.decode(llr);
  EXPECT_EQ(rv.status, ref.status) << ctx;
  EXPECT_EQ(rv.iterations, ref.iterations) << ctx;
  EXPECT_TRUE(rv.hard_bits == ref.hard_bits) << ctx;
}

TEST(SimdBatch, DecodeBlockDetachesAttachedCancelToken) {
  const auto code = make_wimax_2304_half_rate();
  const DecoderOptions opt;
  const auto llr = noisy_llr(code, 2.0F, 5);
  for (const simd::SimdTier tier : simd::available_tiers()) {
    const std::string ctx = std::string("tier=") + simd::to_string(tier);
    LayeredMinSumFixedDecoder scalar(code, opt, FixedFormat{8, 2});
    SimdFixedDecoder batched(code, opt, FixedFormat{8, 2}, tier);
    expect_block_detaches_token(scalar, batched, llr, "q8.2 " + ctx);
    LayeredMinSumFaDecoder scalar_fa(code, opt, 4);
    SimdFaDecoder batched_fa(code, opt, 4, 2.0F, tier);
    expect_block_detaches_token(scalar_fa, batched_fa, llr, "fa4 " + ctx);
  }
}

// ------------------------------------------------------------ fallbacks ----

TEST(SimdBatch, WideFormatFallsBackPerFrameAndSaysSo) {
  // q16.4 is outside the int16 lane envelope: the block decodes per-frame
  // on the z-lane path's scalar twin, matches the reference decoder, and
  // every result carries the fallback reason — never silent.
  const auto code = make_wifi_648_half_rate();
  const DecoderOptions opt = counting_options();
  const FixedFormat fmt{16, 4};
  LayeredMinSumFixedDecoder scalar(code, opt, fmt);
  SimdFixedDecoder batched(code, opt, fmt);
  EXPECT_TRUE(batched.scalar_only());

  std::vector<std::vector<float>> pool;
  std::vector<BlockFrame> frames;
  for (std::size_t f = 0; f < 4; ++f) {
    pool.push_back(noisy_llr(code, 1.8F, f * 55 + 17));
    frames.push_back({pool.back(), nullptr});
  }
  std::vector<DecodeResult> results(frames.size());
  std::vector<SaturationStats> saturation(frames.size());
  batched.decode_block(frames, results, saturation);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    EXPECT_EQ(results[f].simd_fallback, SimdFallback::kWideFormat);
    const DecodeResult ref = scalar.decode(pool[f]);
    EXPECT_TRUE(ref.hard_bits == results[f].hard_bits);
    EXPECT_EQ(ref.iterations, results[f].iterations);
    EXPECT_EQ(ref.status, results[f].status);
  }
}

TEST(SimdBatch, FaultCampaignFallsBackPerFrame) {
  // Fault-injection corruption order is defined by scalar access order, so
  // an enabled injector must force the per-frame path — and stamp why.
  const auto code = make_wifi_648_half_rate();
  FaultConfig cfg;
  cfg.rate = 1e-4;
  FaultInjector injector(cfg);
  DecoderOptions opt;
  opt.fault_injector = &injector;
  SimdFixedDecoder batched(code, opt, FixedFormat{8, 2});
  EXPECT_FALSE(batched.scalar_only());  // config-dependent, not structural

  const auto llr = noisy_llr(code, 1.8F, 99);
  const BlockFrame frames[] = {{llr, nullptr}, {llr, nullptr}};
  std::vector<DecodeResult> results(2);
  std::vector<SaturationStats> saturation(2);
  batched.decode_block(frames, results, saturation);
  for (const DecodeResult& r : results)
    EXPECT_EQ(r.simd_fallback, SimdFallback::kFaultInjector);
}

TEST(SimdBatch, ObserverFallsBackPerFrame) {
  // The observer contract is one snapshot per iteration of one frame —
  // meaningless across interleaved lanes, so the block goes per-frame.
  const auto code = make_wifi_648_half_rate();
  std::size_t snapshots = 0;
  DecoderOptions opt;
  opt.observer = [&](const IterationSnapshot&) { ++snapshots; };
  SimdFixedDecoder batched(code, opt, FixedFormat{8, 2});

  const auto llr = noisy_llr(code, 1.8F, 42);
  const BlockFrame frames[] = {{llr, nullptr}, {llr, nullptr}};
  std::vector<DecodeResult> results(2);
  std::vector<SaturationStats> saturation(2);
  batched.decode_block(frames, results, saturation);
  for (const DecodeResult& r : results)
    EXPECT_EQ(r.simd_fallback, SimdFallback::kObserver);
  EXPECT_GT(snapshots, 0U);
}

TEST(SimdBatch, BenchConfigurationNeverFallsBack) {
  // The exact configuration the throughput benches run (q8.2, no counters,
  // no observer, no faults) must take the batched kernel on every tier —
  // the bench additionally exits non-zero if any frame reports a fallback,
  // so a regression here fails twice.
  const auto code = make_wimax_2304_half_rate();
  DecoderOptions opt;
  for (const simd::SimdTier tier : simd::available_tiers()) {
    SimdFixedDecoder batched(code, opt, FixedFormat{8, 2}, tier);
    EXPECT_FALSE(batched.scalar_only()) << simd::to_string(tier);
  }
}

// ------------------------------------------------------------- dispatch ----

TEST(SimdBatch, UnknownTierOverrideThrows) {
  // LDPC_SIMD_TIER with a typo must throw, not silently decode on some
  // other tier — an override that changed what a benchmark measured
  // without saying so would poison every number collected under it.
  ASSERT_EQ(setenv("LDPC_SIMD_TIER", "avx1024", 1), 0);
  EXPECT_THROW(simd::best_tier(), Error);
  // A *known but unavailable* tier name falls through to auto-detection
  // instead (pinned scripts stay portable across hosts).
  ASSERT_EQ(setenv("LDPC_SIMD_TIER", "avx512", 1), 0);
  EXPECT_NO_THROW(simd::best_tier());
  ASSERT_EQ(unsetenv("LDPC_SIMD_TIER"), 0);
  EXPECT_NO_THROW(simd::best_tier());
}

// ------------------------------------------------------- z-lane names ----

/// tier() and min_block() of a factory-built SIMD decoder of either family.
std::pair<simd::SimdTier, std::size_t> tier_and_min_block(const Decoder& dec) {
  using Fixed = simd::SimdDecoder<simd::Fixed16>;
  if (const auto* d = dynamic_cast<const Fixed*>(&dec))
    return {d->tier(), d->min_block()};
  const auto& d = dynamic_cast<const simd::SimdDecoder<simd::Fa8>&>(dec);
  return {d.tier(), d.min_block()};
}

TEST(SimdBatch, ZLaneNamesStreamBitIdentically) {
  // The names without `-batched` stream through the lanes like their twins:
  // blocks of 1 and min_block() - 1 frames decode on the z-lane path,
  // min_block() starts the lanes and 2 W + 3 refills them. Every frame
  // must match its scalar reference on every tier, counted and uncounted.
  const std::pair<const char*, const char*> names[] = {
      {"layered-minsum-simd", "layered-minsum-fixed"},
      {"layered-minsum-simd-q6", "layered-minsum-q6"},
      {"layered-minsum-simd-offset", "layered-minsum-offset-fixed"},
      {"layered-minsum-simd-fa2", "layered-minsum-fa2"},
      {"layered-minsum-simd-fa3", "layered-minsum-fa3"},
      {"layered-minsum-simd-fa4", "layered-minsum-fa4"},
  };
  const QCLdpcCode code = make_wimax_2304_half_rate();
  std::size_t max_width = 0;
  for (const simd::SimdTier tier : simd::available_tiers())
    max_width = std::max<std::size_t>(max_width, simd::tier_lanes8(tier));
  std::vector<std::vector<float>> pool;
  for (std::size_t f = 0; f < 2 * max_width + 3; ++f)
    pool.push_back(noisy_llr(code, f % 2 == 0 ? 1.5F : 2.5F, f * 6151 + 3));
  for (const bool counted : {false, true}) {
    DecoderOptions opt;
    opt.count_saturation = counted;
    for (const auto& [name, reference_name] : names) {
      const auto reference = make_decoder(reference_name, code, opt);
      std::vector<Reference> refs;
      for (const std::vector<float>& llr : pool)
        refs.push_back({reference->decode(llr), reference->saturation()});
      for (const simd::SimdTier tier : simd::available_tiers()) {
        const std::string ctx = std::string(name) +
                                (counted ? " counted" : " uncounted") +
                                " tier=" + simd::to_string(tier);
        ASSERT_EQ(setenv("LDPC_SIMD_TIER", simd::to_string(tier), 1), 0);
        const auto dec = make_decoder(name, code, opt);
        ASSERT_EQ(unsetenv("LDPC_SIMD_TIER"), 0);
        const auto [dec_tier, m] = tier_and_min_block(*dec);
        ASSERT_EQ(dec_tier, tier) << ctx;
        ASSERT_GT(m, 1U) << ctx;
        const std::size_t w = dec->block_width();
        for (const std::size_t count : {std::size_t{1}, m - 1, m, 2 * w + 3})
          expect_block_identical(*dec, pool, refs, count, ctx);
      }
    }
  }
}

TEST(SimdBatch, FactoryNameProducesBatchedDecoder) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  DecoderOptions opt;
  const auto dec = make_decoder("layered-minsum-simd-batched", code, opt);
  EXPECT_GT(dec->block_width(), 1U);
  EXPECT_NE(dec->name().find("batched"), std::string::npos);
  // Single-frame decode rides the z-lane path and still works.
  const auto llr = noisy_llr(code, 3.0F, 5);
  const DecodeResult r = dec->decode(llr);
  EXPECT_TRUE(r.converged);
}

}  // namespace
}  // namespace ldpc
