// End-to-end chaos test: the fault-injection subsystem (src/fault/) wired
// through a DecoderFactory into the batch engine's supervision machinery.
//
// A batch decodes with a per-worker (thread_local) FaultInjector armed for
// a deterministic, frame-keyed subset of frames (>= 10% of the batch) at an
// aggressive upset rate. The properties under test:
//
//   * exactly-once completion — every submitted frame is booked once (its
//     on_booked hook runs once) and its slot is finalized once, even while
//     workers are being quarantined and replaced mid-batch;
//   * supervision — fault-detected outcomes count as strikes, so at least
//     one worker is quarantined and the pool keeps decoding on replacement
//     threads;
//   * determinism — the injector is reseeded per frame from the frame index
//     (never the worker), so the *whole batch* — including corrupted
//     frames — is bit-identical for 1, 2 and 8 workers, and the un-faulted
//     frames additionally match a clean single-threaded reference decode.
//
// The test runs in the ThreadSanitizer stage of scripts/check.sh: the
// quarantine/replacement path, the thread_local injector wiring and the
// metrics snapshots are all raced here.
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "channel/awgn.hpp"
#include "channel/modem.hpp"
#include "codes/wimax.hpp"
#include "core/decoder_factory.hpp"
#include "fault/fault_injector.hpp"
#include "runtime/batch_engine.hpp"
#include "runtime/retry_policy.hpp"

namespace ldpc {
namespace {

constexpr std::uint64_t kChaosSeed = 0xc4a05ULL;
constexpr std::size_t kFrames = 60;
/// Every 5th frame decodes with the injector armed: 12/60 = 20% >= 10%.
bool frame_is_faulted(std::size_t frame) { return frame % 5 == 0; }

/// One injector per worker thread, owned by the thread so the decoder the
/// factory builds on that thread can keep a plain pointer to it. Starts
/// disabled; each frame's decoder picker arms/reseeds it for that frame.
FaultInjector& tls_injector() {
  thread_local FaultInjector injector{[] {
    FaultConfig config;
    config.rate = 0.02;  // aggressive: a faulted frame takes many upsets
    config.kind = FaultKind::kTransientFlip;
    config.sites = kAllFaultSites;
    return config;
  }()};
  thread_local bool initialized = false;
  if (!initialized) {
    injector.set_enabled(false);
    initialized = true;
  }
  return injector;
}

DecoderFactory chaotic_factory(const QCLdpcCode& code) {
  return [&code] {
    DecoderOptions options;
    options.fault_injector = &tls_injector();
    return make_decoder("layered-minsum-fixed", code, options);
  };
}

std::vector<std::vector<float>> make_frames(const QCLdpcCode& code,
                                            float ebn0_db) {
  const float variance = awgn_noise_variance(ebn0_db, code.rate());
  std::vector<std::vector<float>> frames;
  frames.reserve(kFrames);
  const BitVec zero(code.n());
  for (std::size_t f = 0; f < kFrames; ++f) {
    AwgnChannel awgn(variance, 4000 + f);
    frames.push_back(BpskModem::demodulate(
        awgn.transmit(BpskModem::modulate(zero)), variance));
  }
  return frames;
}

struct ChaosRun {
  std::vector<DecodeResult> slots;
  std::vector<int> completions;  ///< on_booked calls per frame
  EngineMetrics metrics;
};

ChaosRun run_chaos(const QCLdpcCode& code,
                   const std::vector<std::vector<float>>& frames,
                   unsigned workers) {
  BatchEngineConfig config;
  config.num_workers = workers;
  config.queue_capacity = 16;
  // One fault-detected decode is enough to bench a worker; the cap keeps
  // the replacement cascade finite while guaranteeing >= 1 quarantine.
  config.quarantine_strike_threshold = 1;
  config.max_replacement_workers = 4;
  ChaosRun run;
  run.slots.resize(frames.size());
  std::vector<std::atomic<int>> completions(frames.size());
  {
    BatchEngine engine(chaotic_factory(code), config);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      // One-frame blocks on the scalar decoder, whose stream decodes one
      // frame at a time: a block's picker runs after the previous frame's
      // hook and right before its own frame decodes.
      BlockJobOptions options;
      options.decoder = [f](Decoder& decoder) -> Decoder& {
        FaultInjector& injector = tls_injector();
        // Frame-keyed fault stream: which bits upset depends only on the
        // frame index, never on the worker or completion order.
        injector.reseed(retry_seed(kChaosSeed, f, 1));
        injector.set_enabled(frame_is_faulted(f));
        return decoder;
      };
      options.on_booked = [&completions, f](std::size_t) {
        completions[f].fetch_add(1, std::memory_order_relaxed);
      };
      std::vector<BlockFrameJob> block;
      block.push_back(
          BlockFrameJob{f, frames[f], &run.slots[f], std::nullopt});
      EXPECT_TRUE(submit_accepted(
          engine.submit_block(std::move(block), std::move(options))))
          << "frame " << f;
    }
    engine.drain();
    run.metrics = engine.snapshot();
  }  // joined: every hook has returned
  run.completions.reserve(completions.size());
  for (const auto& c : completions) run.completions.push_back(c.load());
  return run;
}

TEST(ChaosEngine, FaultsQuarantineAndExactlyOnceCompletion) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 4.0F);
  const ChaosRun run = run_chaos(code, frames, 2);

  // Exactly-once: every frame was booked once, every job completed, nothing
  // was expired, shed or double-counted while workers were being replaced.
  for (std::size_t f = 0; f < frames.size(); ++f)
    EXPECT_EQ(run.completions[f], 1) << "frame " << f;
  EXPECT_EQ(run.metrics.jobs_submitted, frames.size());
  EXPECT_EQ(run.metrics.jobs_completed, frames.size());
  EXPECT_EQ(run.metrics.jobs_expired, 0u);
  EXPECT_EQ(run.metrics.jobs_shed, 0u);

  // The chaos actually happened: >= 10% of frames took upsets, and the
  // injector never leaked into a clean frame.
  std::size_t corrupted = 0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    if (frame_is_faulted(f)) {
      corrupted += run.slots[f].faults_injected > 0 ? 1u : 0u;
    } else {
      EXPECT_EQ(run.slots[f].faults_injected, 0u) << "frame " << f;
    }
  }
  EXPECT_GE(corrupted * 10, frames.size());  // >= 10% of the batch

  // Supervision: fault-detected strikes benched at least one worker and a
  // replacement kept the pool serving.
  EXPECT_GE(run.metrics.workers_quarantined, 1u);
  EXPECT_EQ(run.metrics.workers_spawned, run.metrics.workers_quarantined);
  std::size_t quarantined = 0;
  for (const auto& w : run.metrics.workers)
    quarantined += w.quarantined ? 1u : 0u;
  EXPECT_EQ(quarantined, run.metrics.workers_quarantined);
  // Graceful degradation held: no corrupted frame was emitted as converged
  // unless it really is a codeword (classify_exit rechecks parity), and at
  // least one fault was detected (that is what struck the workers).
  EXPECT_GE(run.metrics.status_total(DecodeStatus::kFaultDetected), 1u);
}

TEST(ChaosEngine, BatchBitIdenticalAcrossWorkerCounts) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 4.0F);

  // Clean reference: same decoder configuration, injector never armed.
  std::vector<DecodeResult> clean;
  {
    DecoderOptions options;
    const auto decoder = make_decoder("layered-minsum-fixed", code, options);
    clean.reserve(frames.size());
    for (const auto& f : frames) clean.push_back(decoder->decode(f));
  }

  const ChaosRun base = run_chaos(code, frames, 1);
  for (unsigned workers : {2u, 8u}) {
    const ChaosRun run = run_chaos(code, frames, workers);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      // Frame-keyed injection: even corrupted frames replay identically.
      EXPECT_EQ(run.slots[f].status, base.slots[f].status)
          << "frame " << f << " workers " << workers;
      EXPECT_EQ(run.slots[f].iterations, base.slots[f].iterations) << f;
      EXPECT_EQ(run.slots[f].faults_injected, base.slots[f].faults_injected)
          << f;
      for (std::size_t i = 0; i < code.n(); ++i)
        ASSERT_EQ(run.slots[f].hard_bits.get(i),
                  base.slots[f].hard_bits.get(i))
            << "frame " << f << " bit " << i << " workers " << workers;
    }
  }
  // Un-faulted frames are untouched by the chaos: bit-identical to the
  // clean reference decode.
  for (std::size_t f = 0; f < frames.size(); ++f) {
    if (frame_is_faulted(f)) continue;
    EXPECT_EQ(base.slots[f].status, clean[f].status) << f;
    EXPECT_EQ(base.slots[f].iterations, clean[f].iterations) << f;
    for (std::size_t i = 0; i < code.n(); ++i)
      ASSERT_EQ(base.slots[f].hard_bits.get(i), clean[f].hard_bits.get(i))
          << "frame " << f << " bit " << i;
  }
}

TEST(ChaosEngine, BlockWithExpiredJobResolvesLaneMatesUnderChaos) {
  // Block-granular exactly-once under the same chaos: frames ride the
  // batched SIMD decoder via submit_block, the per-worker injector stays
  // armed for the whole run (which legitimately forces the decoder's
  // per-frame fault-injector fallback — corruption order is scalar), and
  // one frame's deadline is already expired at submit. Every lane-mate of
  // the expired frame must still be finalized exactly once — including
  // while fault-detected strikes quarantine workers mid-batch and
  // replacement threads take over the remaining blocks.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 4.0F);

  // No picker arms the injector per frame here: each worker's injector is
  // enabled from construction (FaultInjector defaults to enabled when
  // rate > 0), so every decoded frame runs under upsets. The fault stream
  // depends on per-worker decode order, so no bit-identity is asserted
  // here — only the exactly-once and supervision properties.
  const DecoderFactory factory = [&code] {
    thread_local FaultInjector injector{[] {
      FaultConfig fault_config;
      fault_config.rate = 0.02;
      fault_config.kind = FaultKind::kTransientFlip;
      fault_config.sites = kAllFaultSites;
      fault_config.seed = kChaosSeed;
      return fault_config;
    }()};
    DecoderOptions options;
    options.fault_injector = &injector;
    return make_decoder("layered-minsum-simd-batched", code, options);
  };
  BatchEngineConfig config;
  config.num_workers = 2;
  config.queue_capacity = 16;
  config.quarantine_strike_threshold = 1;
  config.max_replacement_workers = 4;
  BatchEngine engine(factory, config);
  constexpr std::size_t kExpired = 2;
  const std::size_t sentinel = 777777;

  std::vector<DecodeResult> slots(frames.size());
  for (auto& s : slots) s.iterations = sentinel;
  std::size_t submitted = 0;
  for (std::size_t base = 0; base < frames.size(); base += 10) {
    std::vector<BlockFrameJob> block;
    for (std::size_t f = base; f < std::min(base + 10, frames.size()); ++f) {
      BlockFrameJob job;
      job.frame_index = f;
      job.llr.assign(frames[f].begin(), frames[f].end());
      job.slot = &slots[f];
      if (f == kExpired)
        job.deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(5);
      block.push_back(std::move(job));
    }
    submitted += block.size();
    EXPECT_TRUE(submit_accepted(engine.submit_block(std::move(block))));
  }
  engine.drain();
  const EngineMetrics metrics = engine.snapshot();

  // Exactly-once at block granularity: every slot was finalized (the
  // sentinel is gone everywhere), the expired frame consumed no decode
  // budget, and the books balance.
  ASSERT_EQ(submitted, frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f)
    EXPECT_NE(slots[f].iterations, sentinel) << "frame " << f;
  EXPECT_EQ(slots[kExpired].status, DecodeStatus::kDeadlineExpired);
  EXPECT_EQ(slots[kExpired].iterations, 0u);
  EXPECT_EQ(metrics.jobs_submitted, frames.size());
  EXPECT_EQ(metrics.jobs_completed, frames.size());  // includes the expiry
  EXPECT_EQ(metrics.jobs_expired, 1u);
  EXPECT_EQ(metrics.jobs_shed, 0u);

  // The chaos actually happened and was visible, not silent: upsets landed,
  // every decoded frame reported the fault-injector fallback, fault
  // detections struck and benched at least one worker, and replacements
  // kept the pool serving to completion.
  std::size_t corrupted = 0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    if (f == kExpired) continue;
    corrupted += slots[f].faults_injected > 0 ? 1u : 0u;
    EXPECT_EQ(slots[f].simd_fallback, SimdFallback::kFaultInjector)
        << "frame " << f;
  }
  EXPECT_GE(corrupted * 10, frames.size());
  EXPECT_GE(metrics.status_total(DecodeStatus::kFaultDetected), 1u);
  EXPECT_GE(metrics.workers_quarantined, 1u);
  EXPECT_EQ(metrics.workers_spawned, metrics.workers_quarantined);
}

}  // namespace
}  // namespace ldpc
