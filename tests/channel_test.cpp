// Channel substrate tests: modulation mappings, LLR signs and scaling, AWGN
// statistics, and the Monte-Carlo BER runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "channel/awgn.hpp"
#include "channel/ber_runner.hpp"
#include "channel/modem.hpp"
#include "codes/wimax.hpp"
#include "core/decoder_factory.hpp"
#include "util/stats.hpp"

namespace ldpc {
namespace {

// ---------------------------------------------------------------- modem ----

TEST(Bpsk, MapsBitZeroToPlusOne) {
  BitVec bits(4);
  bits.set(1, true);
  bits.set(3, true);
  const auto s = BpskModem::modulate(bits);
  ASSERT_EQ(s.size(), 4u);
  EXPECT_FLOAT_EQ(s[0], 1.0F);
  EXPECT_FLOAT_EQ(s[1], -1.0F);
  EXPECT_FLOAT_EQ(s[2], 1.0F);
  EXPECT_FLOAT_EQ(s[3], -1.0F);
}

TEST(Bpsk, LlrScalingIsTwoOverVariance) {
  const std::vector<float> y = {0.5F, -1.5F};
  const auto llr = BpskModem::demodulate(y, 0.25F);
  EXPECT_FLOAT_EQ(llr[0], 2.0F / 0.25F * 0.5F);
  EXPECT_FLOAT_EQ(llr[1], 2.0F / 0.25F * -1.5F);
}

TEST(Bpsk, NoiselessLlrSignsRecoverBits) {
  BitVec bits(64);
  for (std::size_t i = 0; i < 64; i += 3) bits.set(i, true);
  const auto llr = BpskModem::demodulate(BpskModem::modulate(bits), 1.0F);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_EQ(llr[i] < 0.0F, bits.get(i)) << i;
}

TEST(Bpsk, ZeroVarianceRejected) {
  EXPECT_THROW(BpskModem::demodulate({1.0F}, 0.0F), Error);
}

TEST(Qpsk, UnitSymbolEnergy) {
  BitVec bits(8);
  bits.set(0, true);
  bits.set(5, true);
  const auto iq = QpskModem::modulate(bits);
  ASSERT_EQ(iq.size(), 8u);
  for (std::size_t s = 0; s < 4; ++s) {
    const float e = iq[2 * s] * iq[2 * s] + iq[2 * s + 1] * iq[2 * s + 1];
    EXPECT_NEAR(e, 1.0F, 1e-6);
  }
}

TEST(Qpsk, NoiselessRoundTrip) {
  BitVec bits(50);  // odd length exercises padding
  for (std::size_t i = 0; i < 50; i += 7) bits.set(i, true);
  const auto iq = QpskModem::modulate(bits);
  const auto llr = QpskModem::demodulate(iq, 0.5F, 50);
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_EQ(llr[i] < 0.0F, bits.get(i)) << i;
}

TEST(Qpsk, OddLengthPadsCleanly) {
  BitVec bits(3);
  bits.set(2, true);
  const auto iq = QpskModem::modulate(bits);
  EXPECT_EQ(iq.size(), 4u);  // 2 symbols
  const auto llr = QpskModem::demodulate(iq, 1.0F, 3);
  EXPECT_EQ(llr.size(), 3u);
}

TEST(Qam16, NoiselessRoundTrip) {
  BitVec bits(50);  // not a multiple of 4: exercises tail padding
  for (std::size_t i = 0; i < 50; i += 3) bits.set(i, true);
  const auto iq = Qam16Modem::modulate(bits);
  for (const auto demap :
       {&Qam16Modem::demodulate, &Qam16Modem::demodulate_maxlog}) {
    const auto llr = demap(iq, 0.01F, 50);
    ASSERT_EQ(llr.size(), 50u);
    for (std::size_t i = 0; i < 50; ++i)
      EXPECT_EQ(llr[i] < 0.0F, bits.get(i)) << i;
  }
}

TEST(Qam16, MaxLogWithinLogSumBoundOfExact) {
  // Each log-sum in the exact LLR collects two terms per hypothesis, so
  // dropping all but the max under-counts each side by at most log(2):
  // |exact - maxlog| <= 2 log(2), independent of SNR.
  BitVec bits(64);
  for (std::size_t i = 0; i < 64; i += 5) bits.set(i, true);
  auto iq = Qam16Modem::modulate(bits);
  AwgnChannel ch(0.2F, 7);
  iq = ch.transmit(iq);
  const auto exact = Qam16Modem::demodulate(iq, 0.2F, 64);
  const auto maxlog = Qam16Modem::demodulate_maxlog(iq, 0.2F, 64);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_NEAR(exact[i], maxlog[i], 2.0 * std::log(2.0) + 1e-5) << i;
}

TEST(Qam64, LevelSetAndUnitAverageEnergy) {
  // All 64 bit patterns must land on the 8-PAM grid {+-1..+-7}/sqrt(42) per
  // rail, and the uniform average symbol energy must be exactly 1.
  const float a = 1.0F / std::sqrt(42.0F);
  double energy = 0.0;
  for (unsigned pattern = 0; pattern < 64; ++pattern) {
    BitVec bits(6);
    for (std::size_t t = 0; t < 6; ++t)
      bits.set(t, ((pattern >> (5 - t)) & 1U) != 0);
    const auto iq = Qam64Modem::modulate(bits);
    ASSERT_EQ(iq.size(), 2u);
    for (const float rail : iq) {
      const float level = rail / a;
      const float mag = std::abs(level);
      EXPECT_NEAR(std::round(mag), mag, 1e-4);
      EXPECT_GE(mag, 0.9F);
      EXPECT_LE(mag, 7.1F);
      EXPECT_NEAR(std::fmod(std::round(mag), 2.0F), 1.0F, 1e-6);  // odd grid
    }
    energy += static_cast<double>(iq[0]) * iq[0] +
              static_cast<double>(iq[1]) * iq[1];
  }
  EXPECT_NEAR(energy / 64.0, 1.0, 1e-6);
}

TEST(Qam64, MappingIsGray) {
  // Adjacent 8-PAM levels must differ in exactly one of the rail's three
  // bits — the property that makes nearest-neighbour symbol errors cost one
  // bit error.
  std::vector<std::pair<float, unsigned>> level_of_code;
  for (unsigned code = 0; code < 8; ++code) {
    BitVec bits(6);  // I rail carries `code`, Q rail all-zero
    for (std::size_t t = 0; t < 3; ++t)
      bits.set(t, ((code >> (2 - t)) & 1U) != 0);
    const auto iq = Qam64Modem::modulate(bits);
    level_of_code.emplace_back(iq[0], code);
  }
  std::sort(level_of_code.begin(), level_of_code.end());
  for (std::size_t i = 1; i < level_of_code.size(); ++i) {
    const unsigned diff = level_of_code[i].second ^ level_of_code[i - 1].second;
    EXPECT_EQ(diff & (diff - 1), 0u) << "levels " << i - 1 << "," << i;
    EXPECT_NE(diff, 0u);
  }
}

TEST(Qam64, NoiselessRoundTrip) {
  BitVec bits(64);  // 64 = 10 symbols + 4-bit tail: exercises padding
  for (std::size_t i = 0; i < 64; i += 7) bits.set(i, true);
  const auto iq = Qam64Modem::modulate(bits);
  ASSERT_EQ(iq.size(), 2u * 11u);
  for (const auto demap :
       {&Qam64Modem::demodulate, &Qam64Modem::demodulate_maxlog}) {
    const auto llr = demap(iq, 0.005F, 64);
    ASSERT_EQ(llr.size(), 64u);
    for (std::size_t i = 0; i < 64; ++i)
      EXPECT_EQ(llr[i] < 0.0F, bits.get(i)) << i;
  }
}

TEST(Qam64, HighSnrSignsSurviveNoise) {
  // At 25 dB the noise is far inside the decision regions: every noisy LLR
  // must still vote for the transmitted bit, for both demappers.
  BitVec bits(120);
  Xoshiro256 rng(3);
  for (std::size_t i = 0; i < bits.size(); ++i) bits.set(i, rng.coin());
  const float variance = 1e-4F;
  auto iq = Qam64Modem::modulate(bits);
  AwgnChannel ch(variance, 9);
  iq = ch.transmit(iq);
  const auto exact = Qam64Modem::demodulate(iq, variance, 120);
  const auto maxlog = Qam64Modem::demodulate_maxlog(iq, variance, 120);
  for (std::size_t i = 0; i < 120; ++i) {
    EXPECT_EQ(exact[i] < 0.0F, bits.get(i)) << i;
    EXPECT_EQ(maxlog[i] < 0.0F, bits.get(i)) << i;
  }
}

TEST(Qam64, MaxLogWithinLogSumBoundOfExact) {
  // Four terms per hypothesis side: |exact - maxlog| <= 2 log(4).
  BitVec bits(96);
  Xoshiro256 rng(4);
  for (std::size_t i = 0; i < bits.size(); ++i) bits.set(i, rng.coin());
  auto iq = Qam64Modem::modulate(bits);
  AwgnChannel ch(0.3F, 13);
  iq = ch.transmit(iq);
  const auto exact = Qam64Modem::demodulate(iq, 0.3F, 96);
  const auto maxlog = Qam64Modem::demodulate_maxlog(iq, 0.3F, 96);
  for (std::size_t i = 0; i < 96; ++i)
    EXPECT_NEAR(exact[i], maxlog[i], 2.0 * std::log(4.0) + 1e-5) << i;
}

TEST(Qam64, InvalidParametersRejected) {
  const std::vector<float> iq = {0.1F, 0.2F};
  EXPECT_THROW(Qam64Modem::demodulate(iq, 0.0F, 6), Error);
  EXPECT_THROW(Qam64Modem::demodulate(iq, 1.0F, 7), Error);  // > 3 * iq size
}

TEST(Qam64, EndToEndBerSweep) {
  // 64-QAM through the full Monte-Carlo chain: error-free at high Eb/N0,
  // failing at low — the wiring test for Modulation::kQam64.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  DecoderOptions opt;
  BerConfig cfg;
  cfg.ebn0_db = {14.0F};
  cfg.max_frames = 20;
  cfg.min_frames = 20;
  cfg.modulation = Modulation::kQam64;
  BerRunner runner(
      code, [&] { return make_decoder("layered-minsum-fixed", code, opt); },
      cfg);
  EXPECT_EQ(runner.run()[0].frame_errors, 0u);
}

// ----------------------------------------------------------------- awgn ----

TEST(Awgn, NoiseVarianceFormula) {
  // At Eb/N0 = 0 dB, rate 1/2, BPSK: sigma^2 = 1 / (2 * 0.5 * 1) = 1.
  EXPECT_NEAR(awgn_noise_variance(0.0F, 0.5), 1.0F, 1e-6);
  // +3 dB halves the variance (within rounding of 10^0.3).
  EXPECT_NEAR(awgn_noise_variance(3.0F, 0.5), 0.5012F, 1e-3);
  // Higher rate -> less redundancy -> smaller sigma^2 at equal Eb/N0.
  EXPECT_LT(awgn_noise_variance(2.0F, 0.75), awgn_noise_variance(2.0F, 0.5));
}

TEST(Awgn, InvalidParametersRejected) {
  EXPECT_THROW(awgn_noise_variance(1.0F, 0.0), Error);
  EXPECT_THROW(awgn_noise_variance(1.0F, 1.0), Error);
  EXPECT_THROW(AwgnChannel(0.0F), Error);
}

TEST(Awgn, NoiseStatisticsMatchConfiguredVariance) {
  const float variance = 0.64F;
  AwgnChannel ch(variance, 11);
  const std::vector<float> zeros(50000, 0.0F);
  const auto noisy = ch.transmit(zeros);
  RunningStats s;
  for (float v : noisy) s.add(v);
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.variance(), variance, 0.02);
}

TEST(Awgn, DeterministicForSeed) {
  AwgnChannel a(1.0F, 5), b(1.0F, 5);
  const std::vector<float> x = {1.0F, -1.0F, 1.0F};
  EXPECT_EQ(a.transmit(x), b.transmit(x));
}

TEST(Awgn, MeanFollowsInput) {
  AwgnChannel ch(0.25F, 12);
  const std::vector<float> ones(20000, 1.0F);
  const auto noisy = ch.transmit(ones);
  RunningStats s;
  for (float v : noisy) s.add(v);
  EXPECT_NEAR(s.mean(), 1.0, 0.02);
}

// ------------------------------------------------------------ BER runner ----

TEST(BerRunner, HighSnrIsErrorFree) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  BerConfig cfg;
  cfg.ebn0_db = {8.0F};
  cfg.max_frames = 30;
  cfg.min_frames = 30;
  cfg.num_workers = 2;
  DecoderOptions opt;
  BerRunner runner(
      code, [&] { return make_decoder("layered-minsum-fixed", code, opt); },
      cfg);
  const auto points = runner.run();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].frames, 30u);
  EXPECT_EQ(points[0].bit_errors, 0u);
  EXPECT_EQ(points[0].fer(), 0.0);
}

TEST(BerRunner, VeryLowSnrMostlyFails) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  BerConfig cfg;
  cfg.ebn0_db = {-4.0F};
  cfg.max_frames = 20;
  cfg.min_frames = 5;
  cfg.target_frame_errors = 5;
  DecoderOptions opt;
  opt.max_iterations = 5;
  BerRunner runner(
      code, [&] { return make_decoder("layered-minsum-fixed", code, opt); },
      cfg);
  const auto points = runner.run();
  EXPECT_GT(points[0].fer(), 0.5);
  EXPECT_GT(points[0].avg_iterations(), 4.0);  // never converges early
}

TEST(BerFrameSeeds, ThreeStreamsArePairwiseDistinct) {
  // Regression: the runner used to seed the info, AWGN, and Rayleigh RNGs
  // with the *same* splitmix64 output, correlating the noise with the data.
  for (std::uint64_t seed : {0ULL, 1ULL, 77ULL, 2009ULL}) {
    for (std::size_t point = 0; point < 4; ++point) {
      for (std::size_t frame = 0; frame < 16; ++frame) {
        const FrameSeeds s = ber_frame_seeds(seed, point, frame);
        EXPECT_NE(s.info, s.awgn);
        EXPECT_NE(s.info, s.rayleigh);
        EXPECT_NE(s.awgn, s.rayleigh);
      }
    }
  }
}

TEST(BerFrameSeeds, KeyedByFrameAndPoint) {
  const FrameSeeds a = ber_frame_seeds(77, 0, 0);
  const FrameSeeds b = ber_frame_seeds(77, 0, 1);
  const FrameSeeds c = ber_frame_seeds(77, 1, 0);
  const FrameSeeds d = ber_frame_seeds(78, 0, 0);
  EXPECT_NE(a.info, b.info);
  EXPECT_NE(a.info, c.info);
  EXPECT_NE(a.info, d.info);
  EXPECT_NE(a.awgn, b.awgn);
  EXPECT_NE(a.rayleigh, b.rayleigh);
}

TEST(BerRunner, PointMovedOffCorrelatedGoldenValue) {
  // Golden counts produced by the pre-fix runner (identical seeds for all
  // three RNG streams, worker-keyed derivation) for this exact
  // configuration: bit_errors = 3210, frame_errors = 165. The decorrelated
  // seeding must land elsewhere; the error *rates* stay in the same regime.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  BerConfig cfg;
  cfg.ebn0_db = {1.0F};
  cfg.max_frames = 200;
  cfg.min_frames = 200;
  cfg.num_workers = 1;
  cfg.seed = 77;
  DecoderOptions opt;
  BerRunner runner(
      code, [&] { return make_decoder("layered-minsum-fixed", code, opt); },
      cfg);
  const auto p = runner.run()[0];
  ASSERT_EQ(p.frames, 200u);
  EXPECT_NE(p.bit_errors, 3210u);
  EXPECT_GT(p.frame_errors, 100u);  // still a high-FER operating point
  EXPECT_LT(p.frame_errors, 200u);
}

TEST(BerRunner, BitIdenticalAcrossWorkerCounts) {
  // The reproducibility the header has always promised: per-frame seeds and
  // result slots are functions of the frame index alone, so 1, 2, and 8
  // workers must produce byte-identical statistics.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  DecoderOptions opt;
  auto run_with = [&](unsigned workers) {
    BerConfig cfg;
    cfg.ebn0_db = {1.0F, 2.5F};
    cfg.max_frames = 70;  // exercises a partial final wave
    cfg.min_frames = 10;
    cfg.target_frame_errors = 30;
    cfg.num_workers = workers;
    cfg.seed = 2009;
    BerRunner runner(
        code, [&] { return make_decoder("layered-minsum-fixed", code, opt); },
        cfg);
    return runner.run();
  };
  const auto base = run_with(1);
  for (unsigned workers : {2u, 8u}) {
    const auto points = run_with(workers);
    ASSERT_EQ(points.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(points[i].frames, base[i].frames) << workers;
      EXPECT_EQ(points[i].bit_errors, base[i].bit_errors) << workers;
      EXPECT_EQ(points[i].frame_errors, base[i].frame_errors) << workers;
      EXPECT_EQ(points[i].undetected_errors, base[i].undetected_errors);
      EXPECT_EQ(points[i].detected_errors, base[i].detected_errors);
      EXPECT_DOUBLE_EQ(points[i].sum_iterations, base[i].sum_iterations);
      EXPECT_EQ(points[i].iteration_histogram, base[i].iteration_histogram);
    }
  }
}

TEST(BerRunner, ReproducibleForSameSeedAndWorkerCount) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  BerConfig cfg;
  cfg.ebn0_db = {1.0F};
  cfg.max_frames = 40;
  cfg.min_frames = 40;
  cfg.num_workers = 1;
  cfg.seed = 77;
  DecoderOptions opt;
  auto run_once = [&] {
    BerRunner runner(
        code, [&] { return make_decoder("layered-minsum-fixed", code, opt); },
        cfg);
    return runner.run()[0];
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.frame_errors, b.frame_errors);
  EXPECT_EQ(a.frames, b.frames);
}

TEST(BerRunner, SweepsMultiplePoints) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  BerConfig cfg;
  cfg.ebn0_db = {0.0F, 2.0F, 4.0F};
  cfg.max_frames = 15;
  cfg.min_frames = 15;
  DecoderOptions opt;
  BerRunner runner(
      code, [&] { return make_decoder("layered-minsum-float", code, opt); },
      cfg);
  const auto points = runner.run();
  ASSERT_EQ(points.size(), 3u);
  // Error rates must be non-increasing with SNR on this coarse grid.
  EXPECT_GE(points[0].fer() + 1e-9, points[2].fer());
}

TEST(BerRunner, EarlyStopOnTargetErrors) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  BerConfig cfg;
  cfg.ebn0_db = {-6.0F};  // everything fails
  cfg.max_frames = 10000;
  cfg.min_frames = 4;
  cfg.target_frame_errors = 4;
  DecoderOptions opt;
  opt.max_iterations = 2;
  BerRunner runner(
      code, [&] { return make_decoder("layered-minsum-fixed", code, opt); },
      cfg);
  const auto points = runner.run();
  EXPECT_LT(points[0].frames, 100u);  // stopped long before max_frames
  EXPECT_GE(points[0].frame_errors, 4u);
}

TEST(BerRunner, ThrowingDecodeFailsTheRun) {
  // Decoders built for z = 48 throw on every z = 24 frame. A frame whose
  // decode threw has no result to score, so the run must fail, not count
  // the frame as error-free.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto wrong = make_wimax_code(WimaxRate::kRate1_2, 48);
  BerConfig cfg;
  cfg.ebn0_db = {-2.0F};
  cfg.max_frames = 64;
  cfg.min_frames = 64;
  cfg.num_workers = 2;
  DecoderOptions opt;
  BerRunner runner(
      code, [&] { return make_decoder("layered-minsum-fixed", wrong, opt); },
      cfg);
  EXPECT_THROW(runner.run(), Error);
}

TEST(BerRunner, InvalidConfigRejected) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  DecoderOptions opt;
  BerConfig cfg;  // empty sweep
  EXPECT_THROW(BerRunner(code,
                         [&] {
                           return make_decoder("layered-minsum-fixed", code, opt);
                         },
                         cfg),
               Error);
}

TEST(BerPoint, DerivedMetrics) {
  BerPoint p;
  p.frames = 100;
  p.bit_errors = 50;
  p.frame_errors = 10;
  p.sum_iterations = 450.0;
  EXPECT_DOUBLE_EQ(p.ber(10), 50.0 / 1000.0);
  EXPECT_DOUBLE_EQ(p.fer(), 0.1);
  EXPECT_DOUBLE_EQ(p.avg_iterations(), 4.5);
}

}  // namespace
}  // namespace ldpc
