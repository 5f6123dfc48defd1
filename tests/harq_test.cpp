// HARQ link layer tests: rate matching, LLR combining, the supervisor's
// kRequestRedundancy escalation rung, and the closed-loop link runner
// (chase combining vs incremental redundancy vs plain retry).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <set>

#include "codes/wimax.hpp"
#include "core/decoder_factory.hpp"
#include "fault/fault_injector.hpp"
#include "harq/harq_link.hpp"
#include "harq/llr_buffer.hpp"
#include "harq/rate_matching.hpp"
#include "runtime/supervisor.hpp"

namespace ldpc {
namespace {

// ----------------------------------------------------------- RateMatcher ----

TEST(RateMatcher, MotherRatePassthrough) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const RateMatcher rm(code);
  EXPECT_EQ(rm.num_punctured(), 0u);
  EXPECT_EQ(rm.num_shortened(), 0u);
  EXPECT_EQ(rm.transmitted_bits(), code.n());
  EXPECT_EQ(rm.info_bits(), code.k());
  EXPECT_DOUBLE_EQ(rm.effective_rate(), code.rate());
  // Initial positions are exactly [0, n).
  for (std::size_t i = 0; i < code.n(); ++i)
    EXPECT_EQ(rm.initial_positions()[i], i);
}

TEST(RateMatcher, PuncturesParityToTargetRate) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const RateMatcher rm(code, 2.0 / 3.0);
  EXPECT_NEAR(rm.effective_rate(), 2.0 / 3.0, 0.01);
  EXPECT_EQ(rm.info_bits(), code.k());  // puncturing never touches info
  EXPECT_EQ(rm.num_shortened(), 0u);
  EXPECT_EQ(rm.transmitted_bits() + rm.num_punctured(), code.n());
  // Punctured positions are parity only, distinct, and disjoint from the
  // initial transmission.
  std::set<std::size_t> punctured(rm.punctured_positions().begin(),
                                  rm.punctured_positions().end());
  EXPECT_EQ(punctured.size(), rm.num_punctured());
  for (const std::size_t p : punctured) {
    EXPECT_GE(p, code.k());
    EXPECT_LT(p, code.n());
  }
  for (const std::size_t i : rm.initial_positions())
    EXPECT_EQ(punctured.count(i), 0u);
}

TEST(RateMatcher, PunctureSpreadCoversParityBlocksEvenly) {
  // The golden-stride permutation prefix must not concentrate punctures in
  // a few circulant blocks (that would erase whole layers).
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 96);
  const RateMatcher rm(code, 0.75);
  const auto z = static_cast<std::size_t>(code.z());
  const std::size_t blocks = (code.n() - code.k()) / z;
  std::vector<std::size_t> per_block(blocks, 0);
  for (const std::size_t p : rm.punctured_positions())
    ++per_block[(p - code.k()) / z];
  const double avg =
      static_cast<double>(rm.num_punctured()) / static_cast<double>(blocks);
  for (std::size_t b = 0; b < blocks; ++b)
    EXPECT_LT(static_cast<double>(per_block[b]), 2.0 * avg + 1.0) << b;
}

TEST(RateMatcher, ShortensInfoBelowMotherRate) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const RateMatcher rm(code, 1.0 / 3.0);
  EXPECT_NEAR(rm.effective_rate(), 1.0 / 3.0, 0.01);
  EXPECT_EQ(rm.num_punctured(), 0u);
  EXPECT_GT(rm.num_shortened(), 0u);
  EXPECT_EQ(rm.info_bits() + rm.num_shortened(), code.k());
  // Shortened = the LAST s info positions, ascending.
  const auto& sh = rm.shortened_positions();
  for (std::size_t i = 0; i < sh.size(); ++i)
    EXPECT_EQ(sh[i], code.k() - sh.size() + i);
}

TEST(RateMatcher, IrScheduleRevealsPuncturedThenCycles) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const RateMatcher rm(code, 2.0 / 3.0);
  const auto z = static_cast<std::size_t>(code.z());
  EXPECT_EQ(rm.ir_positions(1), rm.initial_positions());
  // Chunks of z bits walk the punctured list exactly, in reveal order.
  std::vector<std::size_t> revealed;
  std::size_t tx = 2;
  while (revealed.size() < rm.num_punctured()) {
    const auto chunk = rm.ir_positions(tx++);
    ASSERT_LE(chunk.size(), z);
    revealed.insert(revealed.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(revealed, rm.punctured_positions());
  // Exhausted: the schedule degenerates to chase on the initial set.
  EXPECT_EQ(rm.ir_positions(tx), rm.initial_positions());
}

TEST(RateMatcher, RejectsDegenerateTargets) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  EXPECT_THROW(RateMatcher(code, 1.0), Error);
  EXPECT_THROW(RateMatcher(code, -0.1), Error);
  // Rate so high it would puncture into the last z parity bits.
  EXPECT_THROW(RateMatcher(code, 0.99), Error);
}

// ------------------------------------------------------------- LlrBuffer ----

TEST(LlrBuffer, CombineAccumulatesReplaceOverwrites) {
  LlrBuffer buf(4, 8.0F);
  buf.combine({0, 2}, {1.5F, -2.0F});
  buf.combine({0, 3}, {1.0F, 4.0F});
  auto llr = buf.emit();
  EXPECT_FLOAT_EQ(llr[0], 2.5F);
  EXPECT_FLOAT_EQ(llr[1], 0.0F);  // untouched = erasure
  EXPECT_FLOAT_EQ(llr[2], -2.0F);
  EXPECT_FLOAT_EQ(llr[3], 4.0F);
  EXPECT_EQ(buf.transmissions(), 2u);
  buf.replace({0, 1, 2, 3}, {-1.0F, -1.0F, -1.0F, -1.0F});
  llr = buf.emit();
  for (float v : llr) EXPECT_FLOAT_EQ(v, -1.0F);
  EXPECT_EQ(buf.transmissions(), 3u);
}

TEST(LlrBuffer, EmitSaturatesAtRailAndCountsClips) {
  LlrBuffer buf(3, 4.0F);
  buf.combine({0, 1, 2}, {3.0F, 3.0F, -3.0F});
  buf.combine({0, 1, 2}, {3.0F, 0.5F, -3.0F});
  const auto llr = buf.emit();
  EXPECT_FLOAT_EQ(llr[0], 4.0F);   // 6 clipped to +rail
  EXPECT_FLOAT_EQ(llr[1], 3.5F);   // inside the rail
  EXPECT_FLOAT_EQ(llr[2], -4.0F);  // -6 clipped to -rail
  EXPECT_EQ(buf.saturation().quantizer_clips, 2);
  // The accumulator itself is NOT saturated: evidence keeps adding up.
  buf.combine({0}, {-5.0F});
  EXPECT_FLOAT_EQ(buf.emit()[0], 1.0F);
}

TEST(LlrBuffer, PinnedPositionsIgnoreChannelObservations) {
  LlrBuffer buf(3, 8.0F);
  buf.pin({1}, 8.0F);
  buf.combine({0, 1}, {1.0F, -6.0F});
  buf.replace({1, 2}, {-2.0F, 2.0F});
  const auto llr = buf.emit();
  EXPECT_FLOAT_EQ(llr[0], 1.0F);
  EXPECT_FLOAT_EQ(llr[1], 8.0F);  // a priori knowledge survives
  EXPECT_FLOAT_EQ(llr[2], 2.0F);
}

TEST(LlrBuffer, ResetClearsEverything) {
  LlrBuffer buf(2, 1.0F);
  buf.pin({0}, 1.0F);
  buf.combine({1}, {5.0F});
  buf.emit();  // records one clip
  buf.reset();
  EXPECT_EQ(buf.transmissions(), 0u);
  EXPECT_EQ(buf.saturation().quantizer_clips, 0);
  buf.combine({0}, {-0.5F});  // pin must be gone
  EXPECT_FLOAT_EQ(buf.emit()[0], -0.5F);
}

TEST(LlrBuffer, InvalidUseRejected) {
  EXPECT_THROW(LlrBuffer(0, 1.0F), Error);
  EXPECT_THROW(LlrBuffer(4, 0.0F), Error);
  LlrBuffer buf(4, 1.0F);
  EXPECT_THROW(buf.combine({0}, {1.0F, 2.0F}), Error);  // length mismatch
  EXPECT_THROW(buf.combine({4}, {1.0F}), Error);        // out of range
}

// ------------------------------------- supervisor kRequestRedundancy rung ----

/// LLRs that reliably fail to decode: weak random noise around zero votes
/// for no codeword in particular, and two min-sum iterations cannot find
/// one.
std::vector<float> undecodable_llrs(const QCLdpcCode& code,
                                    std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<float> llr(code.n());
  for (auto& v : llr)
    v = 0.25F * static_cast<float>(rng.gaussian());
  return llr;
}

SupervisorConfig harq_supervisor_config(const QCLdpcCode& code,
                                        std::size_t max_attempts,
                                        RedundancyHook hook) {
  DecoderOptions base;
  base.max_iterations = 2;
  const auto ladder = harq_escalation_ladder(2, FixedFormat{});
  SupervisorConfig config;
  config.engine.num_workers = 2;
  config.engine.escalation_factories =
      make_escalation_factories(code, base, ladder);
  config.retry = RetryPolicy::none();
  config.retry.max_attempts = max_attempts;
  config.rung_kinds = rung_kinds_of(ladder);
  config.on_redundancy_request = std::move(hook);
  return config;
}

DecoderFactory base_factory(const QCLdpcCode& code) {
  return [&code] {
    DecoderOptions options;
    options.max_iterations = 2;
    return make_decoder("layered-minsum-fixed", code, options);
  };
}

TEST(RedundancyRung, HookRefusalYieldsTypedExhaustion) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  std::atomic<int> calls{0};
  auto config = harq_supervisor_config(
      code, 3, [&](std::size_t, std::size_t, std::vector<float>&) {
        ++calls;
        return false;  // link out of redundancy immediately
      });
  DecodeSupervisor supervisor(base_factory(code), config);
  DecodeResult slot;
  ASSERT_TRUE(submit_accepted(
      supervisor.submit(0, undecodable_llrs(code, 5), &slot)));
  supervisor.drain();
  EXPECT_EQ(slot.status, DecodeStatus::kHarqExhausted);
  EXPECT_EQ(calls.load(), 1);  // exactly one request, refused once
  const RetryStats stats = supervisor.metrics().retry;
  EXPECT_EQ(stats.harq_exhausted_frames, 1u);
  EXPECT_EQ(stats.exhausted_frames, 0u);  // disjoint accounting
  EXPECT_EQ(stats.redundancy_requests, 0u);
  EXPECT_EQ(stats.retries_submitted, 0u);
}

TEST(RedundancyRung, GrantedRequestsFeedRetries) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  std::atomic<int> calls{0};
  auto config = harq_supervisor_config(
      code, 3,
      [&](std::size_t frame, std::size_t next_attempt, std::vector<float>&) {
        ++calls;
        EXPECT_EQ(frame, 7u);
        EXPECT_GE(next_attempt, 2u);
        return true;  // always have redundancy; attempts cap the loop
      });
  DecodeSupervisor supervisor(base_factory(code), config);
  DecodeResult slot;
  ASSERT_TRUE(submit_accepted(
      supervisor.submit(7, undecodable_llrs(code, 6), &slot)));
  supervisor.drain();
  // Same LLRs each time, so the frame burns all 3 attempts and exhausts
  // the generic way (the hook granted every request).
  EXPECT_NE(slot.status, DecodeStatus::kConverged);
  EXPECT_NE(slot.status, DecodeStatus::kHarqExhausted);
  EXPECT_EQ(calls.load(), 2);  // attempts 2 and 3 each requested one tx
  const RetryStats stats = supervisor.metrics().retry;
  EXPECT_EQ(stats.redundancy_requests, 2u);
  EXPECT_EQ(stats.retries_submitted, 2u);
  EXPECT_EQ(stats.harq_exhausted_frames, 0u);
  EXPECT_EQ(stats.exhausted_frames, 1u);
}

TEST(RedundancyRung, HookLlrsFeedTheNextAttempt) {
  // The hook sees the LLRs the failed attempt decoded and hands back the
  // next attempt's: clean ones here, so the retry converges.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const std::vector<float> noisy = undecodable_llrs(code, 5);
  auto config = harq_supervisor_config(
      code, 3,
      [&](std::size_t, std::size_t next_attempt, std::vector<float>& llr) {
        EXPECT_EQ(next_attempt, 2u);
        EXPECT_EQ(llr, noisy);
        llr.assign(code.n(), 4.0F);
        return true;
      });
  DecodeSupervisor supervisor(base_factory(code), config);
  DecodeResult slot;
  ASSERT_TRUE(submit_accepted(supervisor.submit(0, noisy, &slot)));
  supervisor.drain();
  EXPECT_EQ(slot.status, DecodeStatus::kConverged);
  const RetryStats stats = supervisor.metrics().retry;
  EXPECT_EQ(stats.recovered_by_attempt[1], 1u);
  EXPECT_EQ(stats.redundancy_requests, 1u);
}

TEST(RedundancyRung, HookRequiredWhenRungDeclared) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  auto config = harq_supervisor_config(code, 2, nullptr);
  config.on_redundancy_request = nullptr;
  EXPECT_THROW(DecodeSupervisor(base_factory(code), config), Error);
}

TEST(RedundancyRung, ExhaustedStatusNotRetryable) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.retry_statuses |= retry_status_bit(DecodeStatus::kHarqExhausted);
  EXPECT_THROW(validate(policy), Error);
}

TEST(RedundancyRung, ConvergedFrameNeverRequestsRedundancy) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  std::atomic<int> calls{0};
  auto config = harq_supervisor_config(
      code, 3, [&](std::size_t, std::size_t, std::vector<float>&) {
        ++calls;
        return true;
      });
  DecodeSupervisor supervisor(base_factory(code), config);
  // A noiseless all-zero codeword decodes on attempt 1.
  DecodeResult slot;
  ASSERT_TRUE(submit_accepted(
      supervisor.submit(0, std::vector<float>(code.n(), 4.0F), &slot)));
  supervisor.drain();
  EXPECT_EQ(slot.status, DecodeStatus::kConverged);
  EXPECT_EQ(calls.load(), 0);
}

// --------------------------------------------------------- HarqLinkRunner ----

HarqLinkConfig link_config(HarqMode mode, float ebn0, std::size_t frames,
                           unsigned workers = 2) {
  HarqLinkConfig config;
  config.ebn0_db = {ebn0};
  config.frames_per_point = frames;
  config.max_transmissions = 4;
  config.mode = mode;
  config.num_workers = workers;
  config.seed = 2009;
  return config;
}

TEST(HarqLink, HighSnrDeliversEverythingFirstTry) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  HarqLinkRunner runner(code, base_factory(code),
                        link_config(HarqMode::kChase, 8.0F, 40));
  const auto points = runner.run();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].frames, 40u);
  EXPECT_EQ(points[0].delivered_correct, 40u);
  EXPECT_EQ(points[0].harq_exhausted, 0u);
  EXPECT_EQ(points[0].frame_errors, 0u);
  EXPECT_DOUBLE_EQ(points[0].mean_transmissions(), 1.0);
  EXPECT_EQ(points[0].redundancy_requests, 0u);
}

TEST(HarqLink, LowSnrExhaustsTypedAndExactlyOnce) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  auto config = link_config(HarqMode::kChase, -6.0F, 48);
  config.max_transmissions = 2;
  HarqLinkRunner runner(code, base_factory(code), config);
  const auto p = runner.run()[0];
  EXPECT_EQ(p.frames, 48u);
  EXPECT_GT(p.harq_exhausted, 0u);  // the typed terminal outcome shows up
  // Exactly-once resolution: every frame is either delivered or a frame
  // error, and exhausted frames are a subset of the errors.
  EXPECT_EQ(p.delivered + p.frame_errors,
            p.frames + (p.delivered - p.delivered_correct));
  EXPECT_LE(p.harq_exhausted, p.frame_errors);
  // Budget respected: never more than max_transmissions per frame.
  EXPECT_LE(p.total_transmissions, p.frames * config.max_transmissions);
  EXPECT_GE(p.total_transmissions, p.frames);
}

TEST(HarqLink, ChaseCombiningBeatsPlainRetry) {
  // At a mid-waterfall point, adding retransmitted LLRs must deliver more
  // frames in fewer transmissions than discarding the old observation.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  HarqLinkRunner chase(code, base_factory(code),
                       link_config(HarqMode::kChase, 0.0F, 96));
  HarqLinkRunner plain(code, base_factory(code),
                       link_config(HarqMode::kPlainRetry, 0.0F, 96));
  const auto pc = chase.run()[0];
  const auto pp = plain.run()[0];
  EXPECT_GT(pc.delivered_correct, pp.delivered_correct);
  EXPECT_LT(pc.residual_bler(), pp.residual_bler());
}

TEST(HarqLink, IncrementalRedundancySendsFewerSymbols) {
  // IR reveals one circulant of punctured parity per NACK instead of
  // re-sending the whole frame: at equal delivery its symbol bill is lower.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 96);
  auto chase_cfg = link_config(HarqMode::kChase, 2.0F, 64);
  chase_cfg.target_rate = 2.0 / 3.0;
  auto ir_cfg = chase_cfg;
  ir_cfg.mode = HarqMode::kIncremental;
  HarqLinkRunner chase(code, base_factory(code), chase_cfg);
  HarqLinkRunner ir(code, base_factory(code), ir_cfg);
  const auto pc = chase.run()[0];
  const auto pi = ir.run()[0];
  // Both retransmit at this SNR; IR must pay fewer symbols per frame.
  ASSERT_GT(pc.total_transmissions, pc.frames);
  ASSERT_GT(pi.total_transmissions, pi.frames);
  EXPECT_LT(pi.total_symbols, pc.total_symbols);
  EXPECT_GE(pi.throughput(ir.info_bits()), pc.throughput(chase.info_bits()));
}

TEST(HarqLink, BitIdenticalAcrossWorkerCounts) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  auto run_with = [&](unsigned workers) {
    auto config = link_config(HarqMode::kIncremental, 1.0F, 48, workers);
    config.target_rate = 2.0 / 3.0;
    config.ebn0_db = {1.0F, 3.0F};
    HarqLinkRunner runner(code, base_factory(code), config);
    return runner.run();
  };
  const auto base = run_with(1);
  // Pinned counters, so a change that shifts every worker count alike
  // still fails: delivered, delivered_correct, harq_exhausted,
  // frame_errors, bit_errors, total_transmissions, total_symbols,
  // redundancy_requests, combiner_clips per Eb/N0 point.
  const std::vector<std::array<long long, 9>> pinned{
      {12, 12, 36, 36, 474, 192, 12096, 144, 0},
      {48, 48, 0, 0, 0, 125, 11292, 77, 0}};
  ASSERT_EQ(base.size(), pinned.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const HarqPoint& p = base[i];
    const std::array<long long, 9> got{
        static_cast<long long>(p.delivered),
        static_cast<long long>(p.delivered_correct),
        static_cast<long long>(p.harq_exhausted),
        static_cast<long long>(p.frame_errors),
        static_cast<long long>(p.bit_errors),
        static_cast<long long>(p.total_transmissions),
        static_cast<long long>(p.total_symbols),
        static_cast<long long>(p.redundancy_requests),
        p.combiner_clips};
    EXPECT_EQ(got, pinned[i]) << p.ebn0_db << " dB";
  }
  for (unsigned workers : {2u, 8u}) {
    const auto points = run_with(workers);
    ASSERT_EQ(points.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(points[i].delivered, base[i].delivered) << workers;
      EXPECT_EQ(points[i].delivered_correct, base[i].delivered_correct);
      EXPECT_EQ(points[i].harq_exhausted, base[i].harq_exhausted);
      EXPECT_EQ(points[i].frame_errors, base[i].frame_errors) << workers;
      EXPECT_EQ(points[i].bit_errors, base[i].bit_errors) << workers;
      EXPECT_EQ(points[i].total_transmissions, base[i].total_transmissions);
      EXPECT_EQ(points[i].total_symbols, base[i].total_symbols) << workers;
      EXPECT_EQ(points[i].redundancy_requests, base[i].redundancy_requests);
      EXPECT_EQ(points[i].combiner_clips, base[i].combiner_clips) << workers;
    }
  }
}

TEST(HarqLink, ShortenedModeCarriesFewerInfoBits) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  auto config = link_config(HarqMode::kChase, 6.0F, 24);
  config.target_rate = 1.0 / 3.0;
  HarqLinkRunner runner(code, base_factory(code), config);
  EXPECT_LT(runner.info_bits(), code.k());
  const auto p = runner.run()[0];
  // Stronger effective code at equal Eb/N0: still delivers cleanly.
  EXPECT_EQ(p.delivered_correct, 24u);
  EXPECT_EQ(p.frame_errors, 0u);
}

TEST(HarqLink, ExhaustionUnderFaultInjectionStaysExactlyOnce) {
  // A decoder plagued by datapath upsets NACKs often; whatever the fault
  // stream does, every frame must resolve exactly once with a typed
  // status and the transmission budget must hold.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  auto faulty_factory = [&code]() -> std::unique_ptr<Decoder> {
    thread_local FaultInjector injector{[] {
      FaultConfig config;
      config.rate = 0.002;
      config.sites = kSramFaultSites;
      return config;
    }()};
    DecoderOptions options;
    options.max_iterations = 2;
    options.fault_injector = &injector;
    return make_decoder("layered-minsum-fixed", code, options);
  };
  auto config = link_config(HarqMode::kChase, 2.0F, 64);
  config.max_transmissions = 3;
  HarqLinkRunner runner(code, faulty_factory, config);
  const auto p = runner.run()[0];
  EXPECT_EQ(p.frames, 64u);
  EXPECT_EQ(p.delivered + (p.frame_errors - (p.delivered - p.delivered_correct)),
            p.frames);
  EXPECT_LE(p.harq_exhausted, p.frames - p.delivered);
  EXPECT_LE(p.total_transmissions, p.frames * config.max_transmissions);
  EXPECT_GE(p.total_transmissions, p.frames);
}

TEST(HarqLink, InvalidConfigRejected) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  HarqLinkConfig config;  // empty sweep
  EXPECT_THROW(HarqLinkRunner(code, base_factory(code), config), Error);
  config.ebn0_db = {1.0F};
  config.max_transmissions = 0;
  EXPECT_THROW(HarqLinkRunner(code, base_factory(code), config), Error);
}

}  // namespace
}  // namespace ldpc
