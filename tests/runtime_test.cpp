// Runtime batch-engine tests: the bounded MPMC job queue and its overload
// policies, the determinism contract (bit-identical output for any worker
// count), backpressure under a tiny queue, deadlines and cancellation,
// worker quarantine, the retry/escalation supervisor, the workers' lane
// streams across block jobs, and the engine metrics block.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "channel/awgn.hpp"
#include "channel/modem.hpp"
#include "codes/encoder.hpp"
#include "codes/wimax.hpp"
#include "core/decoder_factory.hpp"
#include "runtime/batch_engine.hpp"
#include "runtime/job_queue.hpp"
#include "runtime/retry_policy.hpp"
#include "runtime/supervisor.hpp"

namespace ldpc {
namespace {

using PushResult = BoundedJobQueue<int>::PushResult;

// ------------------------------------------------------------ job queue ----

TEST(JobQueue, FifoOrder) {
  BoundedJobQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.push(int{i}), PushResult::kAccepted);
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(JobQueue, TryPushFailsWhenFull) {
  BoundedJobQueue<int> q(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(q.try_push(a));
  EXPECT_TRUE(q.try_push(b));
  EXPECT_FALSE(q.try_push(c));
  EXPECT_EQ(c, 3);  // not consumed
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_TRUE(q.try_push(c));
}

TEST(JobQueue, CloseDrainsThenStops) {
  BoundedJobQueue<int> q(4);
  EXPECT_EQ(q.push(7), PushResult::kAccepted);
  EXPECT_EQ(q.push(8), PushResult::kAccepted);
  q.close();
  EXPECT_EQ(q.push(9), PushResult::kClosed);
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(q.pop(out));  // closed and drained
  EXPECT_TRUE(q.closed());
}

TEST(JobQueue, PushAfterCloseNeverSilentlyDrops) {
  // The failure mode this guards: a submit after shutdown must be *reported*
  // (the old API returned void and lost the job).
  BoundedJobQueue<int> q(4);
  q.close();
  EXPECT_EQ(q.push(1), PushResult::kClosed);
  EXPECT_FALSE(q.push_forced(2));
  int item = 3;
  EXPECT_FALSE(q.try_push(item));
  EXPECT_EQ(item, 3);  // handed back intact
  EXPECT_EQ(q.size(), 0u);
}

TEST(JobQueue, BlockingPushWaitsForConsumer) {
  BoundedJobQueue<int> q(1);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(q.push(2), PushResult::kAccepted);  // blocks until the pop
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.size(), 1u);
}

TEST(JobQueue, RejectNewestTurnsAwayAtTheDoor) {
  BoundedJobQueue<int> q(2, OverloadPolicy::kRejectNewest);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  EXPECT_EQ(q.push(2), PushResult::kAccepted);
  EXPECT_EQ(q.push(3), PushResult::kRejected);  // never blocks
  EXPECT_EQ(q.push(4), PushResult::kRejected);
  EXPECT_EQ(q.rejected_count(), 2u);
  EXPECT_EQ(q.shed_count(), 0u);
  EXPECT_EQ(q.size(), 2u);
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);  // FIFO preserved; rejected items never entered
  EXPECT_EQ(q.push(5), PushResult::kAccepted);
}

TEST(JobQueue, ShedOldestEvictsHeadForTail) {
  BoundedJobQueue<int> q(2, OverloadPolicy::kShedOldest);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  EXPECT_EQ(q.push(2), PushResult::kAccepted);
  int shed = 0;
  EXPECT_EQ(q.push(3, &shed), PushResult::kAcceptedShed);
  EXPECT_EQ(shed, 1);  // oldest handed back for completion
  EXPECT_EQ(q.shed_count(), 1u);
  EXPECT_EQ(q.size(), 2u);
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 3);
}

TEST(JobQueue, PushForcedExceedsCapacity) {
  BoundedJobQueue<int> q(1);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  EXPECT_TRUE(q.push_forced(2));  // capacity-exempt, no blocking
  EXPECT_TRUE(q.push_forced(3));
  EXPECT_EQ(q.size(), 3u);
  int out = 0;
  for (int expect : {1, 2, 3}) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, expect);
  }
}

TEST(JobQueue, OccupancyTracksDepth) {
  BoundedJobQueue<int> q(4);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  EXPECT_EQ(q.push(2), PushResult::kAccepted);
  EXPECT_EQ(q.push(3), PushResult::kAccepted);
  const RunningStats occ = q.occupancy();
  EXPECT_EQ(occ.count(), 3u);
  EXPECT_DOUBLE_EQ(occ.max(), 3.0);
  EXPECT_DOUBLE_EQ(occ.mean(), 2.0);  // depths 1, 2, 3
  EXPECT_THROW(BoundedJobQueue<int>(0), Error);
}

// --------------------------------------------------------- batch engine ----

/// Deterministic noisy frames of the all-zero codeword.
std::vector<std::vector<float>> make_frames(const QCLdpcCode& code,
                                            std::size_t count, float ebn0_db) {
  const float variance = awgn_noise_variance(ebn0_db, code.rate());
  std::vector<std::vector<float>> frames;
  frames.reserve(count);
  const BitVec zero(code.n());
  for (std::size_t f = 0; f < count; ++f) {
    AwgnChannel awgn(variance, 1000 + f);
    frames.push_back(BpskModem::demodulate(
        awgn.transmit(BpskModem::modulate(zero)), variance));
  }
  return frames;
}

DecoderFactory fixed_factory(const QCLdpcCode& code,
                             std::size_t max_iterations = 10) {
  return [&code, max_iterations] {
    DecoderOptions opt;
    opt.max_iterations = max_iterations;
    return make_decoder("layered-minsum-fixed", code, opt);
  };
}

BatchEngineConfig engine_config(unsigned workers, std::size_t capacity) {
  BatchEngineConfig config;
  config.num_workers = workers;
  config.queue_capacity = capacity;
  return config;
}

void wait_for(const std::atomic<bool>& flag) {
  while (!flag.load())
    std::this_thread::sleep_for(std::chrono::microseconds(100));
}

/// A one-frame block that parks its worker: the block's decoder picker sets
/// `running` as soon as a worker took the job, then waits until `release`
/// turns true. Its frame, the all-zero codeword of the rung decoder's
/// length n, then decodes on the rung decoder and is booked like any
/// decoded frame. Tests that need the queue empty/full in a known state
/// wait on `running`.
struct Gate {
  std::atomic<bool> running{false};
  std::atomic<bool> release{false};
  DecodeResult slot;

  SubmitStatus submit(BatchEngine& engine, std::size_t frame_index,
                      std::size_t n) {
    BlockJobOptions options;
    options.decoder = [this](Decoder& rung) -> Decoder& {
      running = true;
      wait_for(release);
      return rung;
    };
    std::vector<BlockFrameJob> frame;
    frame.push_back(BlockFrameJob{frame_index, std::vector<float>(n, 4.0F),
                                  &slot, std::nullopt});
    return engine.submit_block(std::move(frame), std::move(options));
  }
};

TEST(BatchEngine, DecodeBatchKeepsInputOrder) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 12, 6.0F);
  BatchEngine engine(fixed_factory(code), engine_config(2, 8));
  const auto results = engine.decode_batch(frames);
  ASSERT_EQ(results.size(), frames.size());
  // High SNR: every frame decodes to the all-zero codeword.
  for (const auto& r : results) {
    EXPECT_TRUE(r.converged);
    for (std::size_t i = 0; i < code.n(); ++i) EXPECT_FALSE(r.hard_bits.get(i));
  }
}

TEST(BatchEngine, BitIdenticalAcrossWorkerCounts) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 24, 1.5F);  // noisy: varied outcomes
  auto decode_all = [&](unsigned workers) {
    BatchEngine engine(fixed_factory(code), engine_config(workers, 16));
    return engine.decode_batch(frames);
  };
  const auto base = decode_all(1);
  for (unsigned workers : {2u, 8u}) {
    const auto results = decode_all(workers);
    ASSERT_EQ(results.size(), base.size());
    for (std::size_t f = 0; f < base.size(); ++f) {
      EXPECT_EQ(results[f].iterations, base[f].iterations) << f;
      EXPECT_EQ(results[f].converged, base[f].converged) << f;
      EXPECT_EQ(results[f].status, base[f].status) << f;
      for (std::size_t i = 0; i < code.n(); ++i)
        ASSERT_EQ(results[f].hard_bits.get(i), base[f].hard_bits.get(i))
            << "frame " << f << " bit " << i << " workers " << workers;
    }
  }
}

TEST(BatchEngine, BackpressureWithTinyQueue) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 40, 4.0F);
  // Queue of 1: every submit beyond the first blocks until a worker frees a
  // slot — the batch still completes and stays ordered.
  BatchEngine engine(fixed_factory(code), engine_config(2, 1));
  const auto results = engine.decode_batch(frames);
  ASSERT_EQ(results.size(), frames.size());
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_completed, frames.size());
  EXPECT_LE(m.queue_max_occupancy, 1u);
}

TEST(BatchEngine, TrySubmitReportsFullQueue) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  auto frames = make_frames(code, 64, 4.0F);
  BatchEngine engine(fixed_factory(code), engine_config(1, 2));
  std::vector<DecodeResult> results(frames.size());
  std::size_t accepted = 0, rejected = 0;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    if (engine.try_submit(f, frames[f], &results[f])) {
      ++accepted;
    } else {
      ++rejected;
      EXPECT_FALSE(frames[f].empty());  // frame handed back intact
      const SubmitStatus s =
          engine.submit(f, std::move(frames[f]), &results[f]);
      EXPECT_EQ(s, SubmitStatus::kAccepted);  // blocking retry
    }
  }
  engine.drain();
  EXPECT_EQ(accepted + rejected, frames.size());
  for (const auto& r : results) EXPECT_GE(r.iterations, 1u);
}

TEST(BatchEngine, DrainIsReusable) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 6, 6.0F);
  BatchEngine engine(fixed_factory(code), engine_config(2, 8));
  engine.drain();  // nothing submitted: returns immediately
  std::vector<DecodeResult> first(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_TRUE(submit_accepted(engine.submit(f, frames[f], &first[f])));
  engine.drain();
  std::vector<DecodeResult> second(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_TRUE(submit_accepted(engine.submit(f, frames[f], &second[f])));
  engine.drain();
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_submitted, 2 * frames.size());
  EXPECT_EQ(m.jobs_completed, 2 * frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f)
    EXPECT_EQ(first[f].iterations, second[f].iterations);
}

TEST(BatchEngine, DrainWithZeroJobsReturnsImmediately) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  BatchEngine engine(fixed_factory(code), engine_config(2, 8));
  engine.drain();
  const DrainReport report =
      engine.drain_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.outstanding, 0u);
  EXPECT_TRUE(report.straggler_frames.empty());
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_submitted, 0u);
  EXPECT_EQ(m.jobs_completed, 0u);
  EXPECT_EQ(m.latency.samples, 0u);
}

TEST(BatchEngine, DrainUntilReportsStragglers) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  BatchEngine engine(fixed_factory(code), engine_config(1, 8));
  Gate gate;
  ASSERT_TRUE(submit_accepted(gate.submit(engine, 7, code.n())));
  wait_for(gate.running);
  const DrainReport stuck =
      engine.drain_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(stuck.completed);
  EXPECT_EQ(stuck.outstanding, 1u);
  ASSERT_EQ(stuck.straggler_frames.size(), 1u);
  EXPECT_EQ(stuck.straggler_frames[0], 7u);
  gate.release = true;
  engine.drain();
  const DrainReport done =
      engine.drain_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(done.completed);
  EXPECT_TRUE(done.straggler_frames.empty());
}

TEST(BatchEngine, QueuedExpiredJobNeverReachesDecoder) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 1, 4.0F);
  BatchEngine engine(fixed_factory(code), engine_config(1, 8));
  Gate gate;
  ASSERT_TRUE(submit_accepted(gate.submit(engine, 0, code.n())));
  wait_for(gate.running);  // the worker is parked; anything queued now waits
  DecodeResult expired;
  JobOptions options;
  options.deadline = std::chrono::steady_clock::now();  // already passed
  ASSERT_TRUE(
      submit_accepted(engine.submit(1, frames[0], &expired, options)));
  gate.release = true;
  engine.drain();
  EXPECT_EQ(expired.status, DecodeStatus::kDeadlineExpired);
  EXPECT_EQ(expired.iterations, 0u);  // no decoder ever saw the frame
  EXPECT_FALSE(expired.converged);
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_expired, 1u);
  EXPECT_EQ(m.jobs_completed, 2u);  // expiry still completes the job
  std::size_t worker_jobs = 0;
  for (const auto& w : m.workers) worker_jobs += w.jobs;
  EXPECT_EQ(worker_jobs, 1u);  // only the gate frame ran on a worker
  EXPECT_EQ(m.latency.samples, 1u);  // expired jobs don't skew latency
}

TEST(BatchEngine, RejectNewestReportsAndCounts) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 3, 4.0F);
  BatchEngineConfig config;
  config.num_workers = 1;
  config.queue_capacity = 1;
  config.overload_policy = OverloadPolicy::kRejectNewest;
  BatchEngine engine(fixed_factory(code), config);
  Gate gate;
  ASSERT_TRUE(submit_accepted(gate.submit(engine, 0, code.n())));
  wait_for(gate.running);
  std::vector<DecodeResult> slots(3);
  ASSERT_TRUE(submit_accepted(engine.submit(1, frames[1], &slots[1])));
  // Queue full (job 1 waiting): admission control refuses the next one
  // without blocking; the slot is untouched and the caller keeps the frame.
  EXPECT_EQ(engine.submit(2, frames[2], &slots[2]),
            SubmitStatus::kRejectedQueueFull);
  gate.release = true;
  engine.drain();
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_rejected, 1u);
  EXPECT_EQ(m.jobs_submitted, 2u);  // rejected job never counted submitted
  EXPECT_EQ(m.jobs_completed, 2u);
  EXPECT_GE(slots[1].iterations, 1u);
  EXPECT_EQ(slots[2].iterations, 0u);  // never ran
}

TEST(BatchEngine, ShedOldestCompletesEvictedJob) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 3, 4.0F);
  BatchEngineConfig config;
  config.num_workers = 1;
  config.queue_capacity = 1;
  config.overload_policy = OverloadPolicy::kShedOldest;
  BatchEngine engine(fixed_factory(code), config);
  Gate gate;
  ASSERT_TRUE(submit_accepted(gate.submit(engine, 0, code.n())));
  wait_for(gate.running);
  std::vector<DecodeResult> slots(3);
  ASSERT_TRUE(submit_accepted(engine.submit(1, frames[1], &slots[1])));
  // Queue full: the new job displaces the stale one, which completes as
  // shed — every accepted job completes exactly once, shed or decoded.
  EXPECT_EQ(engine.submit(2, frames[2], &slots[2]),
            SubmitStatus::kAcceptedShedOldest);
  gate.release = true;
  engine.drain();
  EXPECT_EQ(slots[1].status, DecodeStatus::kShedOverload);
  EXPECT_EQ(slots[1].iterations, 0u);
  EXPECT_GE(slots[2].iterations, 1u);  // the fresh job decoded
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_shed, 1u);
  EXPECT_EQ(m.jobs_submitted, 3u);
  EXPECT_EQ(m.jobs_completed, 3u);
}

TEST(BatchEngine, MetricsReadableDuringLiveBatch) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 48, 2.0F);
  BatchEngine engine(fixed_factory(code), engine_config(2, 8));
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Hammer the snapshot while jobs are in flight; TSAN guards this.
    while (!stop.load()) {
      const auto m = engine.snapshot();
      EXPECT_LE(m.jobs_completed, m.jobs_submitted);
      EXPECT_LE(m.latency.p50_us, m.latency.max_us + 1e-9);
    }
  });
  std::vector<DecodeResult> slots(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_TRUE(submit_accepted(engine.submit(f, frames[f], &slots[f])));
  engine.drain();
  stop = true;
  reader.join();
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_completed, frames.size());
}

TEST(BatchEngine, DestructorWithJobsInFlightCompletesThem) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 16, 4.0F);
  std::vector<DecodeResult> slots(frames.size());
  {
    BatchEngine engine(fixed_factory(code), engine_config(2, 32));
    for (std::size_t f = 0; f < frames.size(); ++f)
      ASSERT_TRUE(submit_accepted(engine.submit(f, frames[f], &slots[f])));
    // No drain: the destructor closes the queue, the workers finish what
    // was accepted, and the join guarantees every slot write is visible.
  }
  for (const auto& r : slots) EXPECT_GE(r.iterations, 1u);
}

TEST(BatchEngine, MetricsAggregateDecodeStatistics) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 20, 6.0F);
  BatchEngine engine(fixed_factory(code), engine_config(2, 16));
  const auto results = engine.decode_batch(frames);
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_submitted, frames.size());
  EXPECT_EQ(m.jobs_completed, frames.size());
  EXPECT_EQ(m.decoded_bits, frames.size() * code.n());
  EXPECT_EQ(m.decoded_info_bits, frames.size() * code.k());
  EXPECT_GT(m.wall_seconds, 0.0);
  EXPECT_GT(m.code_throughput_mbps, 0.0);
  EXPECT_GT(m.info_throughput_mbps, 0.0);
  // Rate-1/2 code: the info rate is exactly half the code rate, and both
  // divide the same wall clock, so the ratio is exact.
  EXPECT_DOUBLE_EQ(m.info_throughput_mbps * 2.0, m.code_throughput_mbps);
  EXPECT_EQ(m.queue_capacity, 16u);
  EXPECT_EQ(m.latency.samples, frames.size());
  EXPECT_GT(m.latency.p50_us, 0.0);
  EXPECT_LE(m.latency.p50_us, m.latency.p95_us);
  EXPECT_LE(m.latency.p95_us, m.latency.p99_us);
  EXPECT_LE(m.latency.p99_us, m.latency.max_us);
  ASSERT_EQ(m.workers.size(), 2u);
  std::size_t jobs = 0, expected_iterations = 0;
  for (const auto& w : m.workers) jobs += w.jobs;
  EXPECT_EQ(jobs, frames.size());
  for (const auto& r : results) expected_iterations += r.iterations;
  EXPECT_EQ(m.sum_iterations(), expected_iterations);
  // High SNR: everything converges, so every decode terminated early.
  EXPECT_EQ(m.status_total(DecodeStatus::kConverged), frames.size());
  std::size_t early = 0;
  for (const auto& w : m.workers) early += w.early_terminations;
  EXPECT_EQ(early, frames.size());
  EXPECT_GT(m.avg_iterations(), 0.0);
  EXPECT_EQ(m.jobs_expired, 0u);
  EXPECT_EQ(m.jobs_shed, 0u);
  EXPECT_EQ(m.jobs_rejected, 0u);
  EXPECT_EQ(m.workers_quarantined, 0u);
}

TEST(BatchEngine, EscalationRungSelectsLadderDecoder) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 8, 2.0F);
  // Reference: what the 30-iteration decoder produces for each frame.
  std::vector<DecodeResult> reference;
  {
    const auto decoder = fixed_factory(code, 30)();
    for (const auto& f : frames) reference.push_back(decoder->decode(f));
  }
  // Find a frame the 1-iteration primary cannot finish.
  std::size_t hard = frames.size();
  for (std::size_t f = 0; f < frames.size(); ++f)
    if (reference[f].iterations >= 2) { hard = f; break; }
  ASSERT_LT(hard, frames.size()) << "no frame needed >= 2 iterations";

  BatchEngineConfig config;
  config.num_workers = 1;
  config.queue_capacity = 8;
  config.escalation_factories = {fixed_factory(code, 30)};
  BatchEngine engine(fixed_factory(code, 1), config);
  DecodeResult primary, escalated, clamped;
  ASSERT_TRUE(submit_accepted(engine.submit(0, frames[hard], &primary)));
  JobOptions rung1;
  rung1.rung = 1;
  ASSERT_TRUE(
      submit_accepted(engine.submit(1, frames[hard], &escalated, rung1)));
  JobOptions rung9;  // beyond the ladder: clamps to its last entry
  rung9.rung = 9;
  ASSERT_TRUE(
      submit_accepted(engine.submit(2, frames[hard], &clamped, rung9)));
  engine.drain();
  EXPECT_EQ(primary.iterations, 1u);  // primary budget is one iteration
  EXPECT_FALSE(primary.converged);
  EXPECT_EQ(escalated.iterations, reference[hard].iterations);
  EXPECT_EQ(escalated.converged, reference[hard].converged);
  EXPECT_EQ(clamped.iterations, reference[hard].iterations);
}

TEST(BatchEngine, ThrowingJobIsCountedNotFatal) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  BatchEngine engine(fixed_factory(code), engine_config(2, 8));
  std::vector<DecodeResult> results(3);
  // Wrong LLR length: the decoder's precondition check throws on a worker.
  ASSERT_TRUE(submit_accepted(
      engine.submit(0, std::vector<float>(5, 0.0F), &results[0])));
  const auto good = make_frames(code, 2, 6.0F);
  ASSERT_TRUE(submit_accepted(engine.submit(1, good[0], &results[1])));
  ASSERT_TRUE(submit_accepted(engine.submit(2, good[1], &results[2])));
  engine.drain();
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_completed, 3u);
  std::size_t exceptions = 0;
  for (const auto& w : m.workers) exceptions += w.exceptions;
  EXPECT_EQ(exceptions, 1u);
  EXPECT_EQ(m.decoded_bits, 2 * code.n());  // failed job decoded nothing
  EXPECT_FALSE(results[0].converged);       // slot left at default
  EXPECT_TRUE(results[1].converged);
  EXPECT_TRUE(results[2].converged);
}

TEST(BatchEngine, QuarantineReplacesStrikingWorker) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  BatchEngineConfig config;
  config.num_workers = 1;
  config.queue_capacity = 16;
  config.quarantine_strike_threshold = 2;
  config.max_replacement_workers = 2;
  BatchEngine engine(fixed_factory(code), config);
  std::vector<DecodeResult> bad(2);
  // Two throwing jobs = two strikes on the only worker: it is quarantined
  // and a replacement spawned before it retires.
  for (std::size_t f = 0; f < bad.size(); ++f)
    ASSERT_TRUE(submit_accepted(
        engine.submit(f, std::vector<float>(3, 0.0F), &bad[f])));
  engine.drain();
  // The pool must still decode: the replacement owns a fresh decoder.
  const auto good = make_frames(code, 4, 6.0F);
  std::vector<DecodeResult> slots(good.size());
  for (std::size_t f = 0; f < good.size(); ++f)
    ASSERT_TRUE(
        submit_accepted(engine.submit(10 + f, good[f], &slots[f])));
  engine.drain();
  for (const auto& r : slots) EXPECT_TRUE(r.converged);
  const auto m = engine.snapshot();
  EXPECT_EQ(m.workers_quarantined, 1u);
  EXPECT_EQ(m.workers_spawned, 1u);
  ASSERT_EQ(m.workers.size(), 2u);  // original + replacement
  EXPECT_TRUE(m.workers[0].quarantined);
  EXPECT_GE(m.workers[0].strikes, 2u);
  EXPECT_FALSE(m.workers[1].quarantined);
  EXPECT_EQ(m.jobs_completed, bad.size() + good.size());
}

TEST(BatchEngine, InvalidConfigRejected) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  EXPECT_THROW(BatchEngine(nullptr, engine_config(1, 8)), Error);
  EXPECT_THROW(BatchEngine(fixed_factory(code), engine_config(0, 8)), Error);
  EXPECT_THROW(BatchEngine(fixed_factory(code), engine_config(1, 0)), Error);
  BatchEngineConfig null_rung;
  null_rung.escalation_factories.push_back(nullptr);
  EXPECT_THROW(BatchEngine(fixed_factory(code), null_rung), Error);
}

// ---------------------------------------------------------- retry policy ----

TEST(RetryPolicy, DefaultsAndValidation) {
  const RetryPolicy none = RetryPolicy::none();
  EXPECT_FALSE(none.enabled());
  EXPECT_FALSE(none.should_retry(DecodeStatus::kMaxIterations, 1));
  const RetryPolicy three = RetryPolicy::up_to(3);
  EXPECT_TRUE(three.enabled());
  EXPECT_TRUE(three.should_retry(DecodeStatus::kMaxIterations, 1));
  EXPECT_TRUE(three.should_retry(DecodeStatus::kWatchdogAbort, 2));
  EXPECT_FALSE(three.should_retry(DecodeStatus::kMaxIterations, 3));
  EXPECT_FALSE(three.should_retry(DecodeStatus::kConverged, 1));
  EXPECT_FALSE(three.should_retry(DecodeStatus::kDeadlineExpired, 1));
  EXPECT_FALSE(three.should_retry(DecodeStatus::kShedOverload, 1));
  EXPECT_THROW(RetryPolicy::up_to(0), Error);
  RetryPolicy bad;
  bad.retry_statuses = retry_status_bit(DecodeStatus::kConverged);
  EXPECT_THROW(validate(bad), Error);
}

TEST(RetryPolicy, RetrySeedDistinctPerFrameAndAttempt) {
  const std::uint64_t base = 2009;
  EXPECT_NE(retry_seed(base, 0, 1), retry_seed(base, 0, 2));
  EXPECT_NE(retry_seed(base, 0, 1), retry_seed(base, 1, 1));
  EXPECT_NE(retry_seed(base, 3, 2), retry_seed(base, 2, 3));
  // Deterministic: same key, same seed.
  EXPECT_EQ(retry_seed(base, 5, 2), retry_seed(base, 5, 2));
}

TEST(RetryPolicy, DefaultLadderEscalatesBudgetThenWidth) {
  FixedFormat base;  // q8.2
  const auto ladder = default_escalation_ladder(10, base);
  ASSERT_EQ(ladder.size(), 2u);
  EXPECT_EQ(ladder[0].max_iterations, 20u);
  EXPECT_EQ(ladder[0].format.total_bits, base.total_bits);
  EXPECT_EQ(ladder[1].max_iterations, 30u);
  EXPECT_EQ(ladder[1].format.total_bits, base.total_bits + 2);
  // The width escalation saturates at the decoder's 16-bit ceiling.
  FixedFormat wide;
  wide.total_bits = 15;
  EXPECT_EQ(default_escalation_ladder(10, wide)[1].format.total_bits, 16);
}

// ------------------------------------------------------------ supervisor ----

SupervisorConfig make_supervisor_config(const QCLdpcCode& code,
                                        unsigned workers,
                                        std::size_t attempts) {
  SupervisorConfig config;
  config.engine.num_workers = workers;
  config.engine.queue_capacity = 16;
  config.engine.escalation_factories = {fixed_factory(code, 10),
                                        fixed_factory(code, 30)};
  config.retry = RetryPolicy::none();
  config.retry.max_attempts = attempts;
  return config;
}

TEST(Supervisor, RetryEscalatesAndRecoversFailedFrames) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 24, 1.5F);
  // Baseline: how many frames the starved 2-iteration primary fails.
  std::size_t primary_failures = 0;
  {
    const auto decoder = fixed_factory(code, 2)();
    for (const auto& f : frames)
      if (!decoder->decode(f).converged) ++primary_failures;
  }
  ASSERT_GT(primary_failures, 0u) << "test needs a failing primary";

  DecodeSupervisor supervisor(fixed_factory(code, 2),
                              make_supervisor_config(code, 2, 3));
  std::vector<DecodeResult> slots(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_TRUE(
        submit_accepted(supervisor.submit(f, frames[f], &slots[f])));
  supervisor.drain();

  const SupervisorMetrics m = supervisor.metrics();
  EXPECT_GE(m.retry.retries_submitted, primary_failures);
  ASSERT_EQ(m.retry.finished_by_attempt.size(), 3u);
  std::size_t finished = 0;
  for (const auto c : m.retry.finished_by_attempt) finished += c;
  EXPECT_EQ(finished, frames.size());  // every frame finished exactly once
  EXPECT_EQ(m.retry.finished_by_attempt[0], frames.size() - primary_failures);
  // The ladder rescues frames the primary failed (10 then 30 iterations at
  // 1.5 dB recover essentially everything).
  std::size_t rescued = 0;
  for (std::size_t a = 1; a < m.retry.recovered_by_attempt.size(); ++a)
    rescued += m.retry.recovered_by_attempt[a];
  EXPECT_GT(rescued, 0u);
  std::size_t converged = 0;
  for (const auto& r : slots) converged += r.converged ? 1u : 0u;
  EXPECT_EQ(converged, frames.size() - m.retry.exhausted_frames);
  EXPECT_EQ(m.engine.jobs_completed,
            frames.size() + m.retry.retries_submitted);
}

TEST(Supervisor, RetryResultsBitIdenticalAcrossWorkersAndPolicies) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 24, 1.5F);
  // The determinism contract extended to retries: attempts are keyed
  // (frame_index, attempt), so the final per-frame results — including
  // which attempt finished each frame — are identical for any worker count
  // and any overload policy (with capacity for every job, the policies
  // admit identical work).
  auto run = [&](unsigned workers, OverloadPolicy policy) {
    SupervisorConfig config = make_supervisor_config(code, workers, 3);
    config.engine.queue_capacity = frames.size();
    config.engine.overload_policy = policy;
    DecodeSupervisor supervisor(fixed_factory(code, 2), config);
    std::vector<DecodeResult> slots(frames.size());
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const SubmitStatus s = supervisor.submit(f, frames[f], &slots[f]);
      EXPECT_TRUE(submit_accepted(s));
    }
    supervisor.drain();
    return std::make_pair(std::move(slots),
                          supervisor.metrics().retry.retries_submitted);
  };
  const auto [base, base_retries] = run(1, OverloadPolicy::kBlock);
  ASSERT_GT(base_retries, 0u);  // the contract is vacuous without retries
  const std::vector<std::pair<unsigned, OverloadPolicy>> variants{
      {2, OverloadPolicy::kBlock},
      {8, OverloadPolicy::kBlock},
      {2, OverloadPolicy::kRejectNewest},
      {2, OverloadPolicy::kShedOldest}};
  for (const auto& [workers, policy] : variants) {
    const auto [slots, retries] = run(workers, policy);
    EXPECT_EQ(retries, base_retries)
        << workers << " workers, " << to_string(policy);
    ASSERT_EQ(slots.size(), base.size());
    for (std::size_t f = 0; f < base.size(); ++f) {
      EXPECT_EQ(slots[f].status, base[f].status) << f;
      EXPECT_EQ(slots[f].iterations, base[f].iterations) << f;
      for (std::size_t i = 0; i < code.n(); ++i)
        ASSERT_EQ(slots[f].hard_bits.get(i), base[f].hard_bits.get(i))
            << "frame " << f << " bit " << i << " workers " << workers
            << " policy " << to_string(policy);
    }
  }
}

TEST(Supervisor, ExhaustedRetriesKeepLastAttemptResult) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 4, 0.0F);  // hopeless SNR
  SupervisorConfig config;
  config.engine.num_workers = 2;
  config.engine.queue_capacity = 16;
  // Every rung is equally starved: no attempt can converge.
  config.engine.escalation_factories = {fixed_factory(code, 1)};
  config.retry = RetryPolicy::none();
  config.retry.max_attempts = 2;
  DecodeSupervisor supervisor(fixed_factory(code, 1), config);
  std::vector<DecodeResult> slots(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_TRUE(
        submit_accepted(supervisor.submit(f, frames[f], &slots[f])));
  supervisor.drain();
  const SupervisorMetrics m = supervisor.metrics();
  EXPECT_EQ(m.retry.exhausted_frames, frames.size());
  EXPECT_EQ(m.retry.retries_submitted, frames.size());
  for (const auto& r : slots) {
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.status, DecodeStatus::kMaxIterations);
    EXPECT_EQ(r.iterations, 1u);  // the last (rung-1) attempt's result
  }
}

/// Ignores cancel tokens, sleeps 120 ms and gives up on the frame: an
/// attempt that outlives any short deadline.
class SleepyDecoder final : public Decoder {
 public:
  SleepyDecoder(std::size_t n, std::atomic<int>& decodes)
      : n_(n), decodes_(decodes) {}

  DecodeResult decode(std::span<const float>) override {
    ++decodes_;
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    DecodeResult r;
    r.hard_bits = BitVec(n_);
    r.status = DecodeStatus::kMaxIterations;
    r.iterations = 1;
    return r;
  }
  std::size_t n() const override { return n_; }
  std::string name() const override { return "sleepy"; }

 private:
  std::size_t n_;
  std::atomic<int>& decodes_;
};

TEST(Supervisor, DeadlinePassedAbandonsRetry) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  std::atomic<int> attempts_run{0};
  const DecoderFactory sleepy = [&] {
    return std::make_unique<SleepyDecoder>(code.n(), attempts_run);
  };
  SupervisorConfig config = make_supervisor_config(code, 1, 2);
  config.engine.escalation_factories = {sleepy};
  DecodeSupervisor supervisor(sleepy, config);
  DecodeResult slot;
  // The first attempt outlives the frame's deadline; the supervisor must
  // not queue a second attempt that would be dead on arrival.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(40);
  ASSERT_TRUE(submit_accepted(supervisor.submit(
      0, std::vector<float>(code.n(), 0.0F), &slot, deadline)));
  supervisor.drain();
  EXPECT_EQ(attempts_run.load(), 1);
  EXPECT_EQ(slot.status, DecodeStatus::kMaxIterations);
  const SupervisorMetrics m = supervisor.metrics();
  EXPECT_EQ(m.retry.retries_abandoned_deadline, 1u);
  EXPECT_EQ(m.retry.retries_submitted, 0u);
}

TEST(Supervisor, ThrowingAttemptIsFinalized) {
  // An attempt whose decode throws produced no result to retry: it is the
  // frame's final attempt, counted once in RetryStats like any other.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  SupervisorConfig config = make_supervisor_config(code, 2, 3);
  config.retry = RetryPolicy::up_to(3);
  DecodeSupervisor supervisor(fixed_factory(code, 2), config);
  std::vector<DecodeResult> slots(4);
  // Frame 0 has the wrong LLR count: its decode throws on a worker.
  ASSERT_TRUE(submit_accepted(
      supervisor.submit(0, std::vector<float>(5, 0.0F), &slots[0])));
  for (std::size_t f = 1; f < slots.size(); ++f)
    ASSERT_TRUE(submit_accepted(supervisor.submit(
        f, std::vector<float>(code.n(), 4.0F), &slots[f])));
  supervisor.drain();
  const SupervisorMetrics m = supervisor.metrics();
  std::size_t finished = 0;
  for (const auto c : m.retry.finished_by_attempt) finished += c;
  EXPECT_EQ(finished, slots.size());
  EXPECT_EQ(m.retry.retries_submitted, 0u);
  std::size_t exceptions = 0;
  for (const auto& w : m.engine.workers) exceptions += w.exceptions;
  EXPECT_EQ(exceptions, 1u);
  EXPECT_EQ(slots[0].hard_bits.size(), 0u);  // no decode, no hard decisions
  for (std::size_t f = 1; f < slots.size(); ++f)
    EXPECT_TRUE(slots[f].converged) << f;
}

TEST(Supervisor, StagedFrameBuildsOnceOnAWorkerAndRetriesWhatItBuilt) {
  // submit_staged hands the frame's builder to the worker that takes its
  // first attempt; retries re-decode what it built, so every result
  // matches the LLR submit's, with one build per frame.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 16, 1.5F);
  std::vector<DecodeResult> want(frames.size()), got(frames.size());
  std::size_t want_retries = 0;
  {
    DecodeSupervisor supervisor(fixed_factory(code, 2),
                                make_supervisor_config(code, 2, 3));
    for (std::size_t f = 0; f < frames.size(); ++f)
      ASSERT_TRUE(submit_accepted(supervisor.submit(f, frames[f], &want[f])));
    supervisor.drain();
    want_retries = supervisor.metrics().retry.retries_submitted;
  }
  ASSERT_GT(want_retries, 0u) << "test needs retried frames";

  std::vector<std::atomic<int>> builds(frames.size());
  std::atomic<bool> built_on_caller{false};
  const auto caller = std::this_thread::get_id();
  DecodeSupervisor supervisor(fixed_factory(code, 2),
                              make_supervisor_config(code, 2, 3));
  for (std::size_t f = 0; f < frames.size(); ++f) {
    auto build = [&, f] {
      ++builds[f];
      if (std::this_thread::get_id() == caller) built_on_caller = true;
      return frames[f];
    };
    ASSERT_TRUE(
        submit_accepted(supervisor.submit_staged(f, build, &got[f])));
  }
  supervisor.drain();
  EXPECT_EQ(supervisor.metrics().retry.retries_submitted, want_retries);
  EXPECT_FALSE(built_on_caller.load());
  for (std::size_t f = 0; f < frames.size(); ++f) {
    EXPECT_EQ(builds[f].load(), 1) << f;
    EXPECT_EQ(got[f].hard_bits, want[f].hard_bits) << f;
    EXPECT_EQ(got[f].iterations, want[f].iterations) << f;
    EXPECT_EQ(got[f].status, want[f].status) << f;
  }
}

TEST(Supervisor, FrameThatRanNoDecoderIsFinalNotExhausted) {
  // A frame whose last attempt ran no decoder — expired before a worker
  // took it, or its builder threw — is final, but it did not burn its
  // attempts decoding: exhausted_frames leaves it out. The expired frame
  // is never built.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  DecodeSupervisor supervisor(fixed_factory(code),
                              make_supervisor_config(code, 1, 1));
  std::atomic<int> builds{0};
  auto clean = [&] {
    ++builds;
    return std::vector<float>(code.n(), 4.0F);
  };
  auto throwing = [&]() -> std::vector<float> {
    ++builds;
    throw std::runtime_error("frame cannot be built");
  };
  std::vector<DecodeResult> slots(3);
  const auto past =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  ASSERT_TRUE(
      submit_accepted(supervisor.submit_staged(0, clean, &slots[0], past)));
  ASSERT_TRUE(submit_accepted(supervisor.submit_staged(1, throwing, &slots[1])));
  ASSERT_TRUE(submit_accepted(supervisor.submit_staged(2, clean, &slots[2])));
  supervisor.drain();
  EXPECT_EQ(builds.load(), 2);
  EXPECT_EQ(slots[0].status, DecodeStatus::kDeadlineExpired);
  EXPECT_EQ(slots[1].hard_bits.size(), 0u);
  EXPECT_TRUE(slots[2].converged);
  const SupervisorMetrics m = supervisor.metrics();
  EXPECT_EQ(m.retry.finished_by_attempt[0], slots.size());
  EXPECT_EQ(m.retry.exhausted_frames, 0u);
  EXPECT_EQ(m.engine.jobs_expired, 1u);
  std::size_t exceptions = 0;
  for (const auto& w : m.engine.workers) exceptions += w.exceptions;
  EXPECT_EQ(exceptions, 1u);
}

// ------------------------------------------------------------ block jobs ----

DecoderFactory batched_factory(const QCLdpcCode& code,
                               std::size_t max_iterations = 10) {
  return [&code, max_iterations] {
    DecoderOptions opt;
    opt.max_iterations = max_iterations;
    return make_decoder("layered-minsum-simd-batched", code, opt);
  };
}

TEST(BatchEngineBlocks, SubmitBlockResolvesEveryFrameOnce) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 6, 4.0F);
  BatchEngine engine(batched_factory(code), engine_config(1, 8));
  std::vector<DecodeResult> slots(frames.size());
  std::vector<BlockFrameJob> block;
  for (std::size_t f = 0; f < frames.size(); ++f)
    block.push_back(BlockFrameJob{f, frames[f], &slots[f], std::nullopt});
  ASSERT_TRUE(submit_accepted(engine.submit_block(std::move(block))));
  engine.drain();
  for (const auto& r : slots) {
    EXPECT_GE(r.iterations, 1u);
    EXPECT_TRUE(r.converged);
  }
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_submitted, frames.size());
  EXPECT_EQ(m.jobs_completed, frames.size());
  EXPECT_EQ(m.decoded_bits, frames.size() * code.n());
  EXPECT_EQ(m.decoded_info_bits, frames.size() * code.k());
  EXPECT_EQ(m.latency.samples, frames.size());
}

TEST(BatchEngineBlocks, DecodeBatchBlockShapeMatchesPerFrame) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  // 2.0 dB for a mix of outcomes; 21 frames so the final block is ragged
  // for every lane width (8, 16, 32).
  const auto frames = make_frames(code, 21, 2.0F);
  std::vector<DecodeResult> reference;
  {
    BatchEngine engine(batched_factory(code), engine_config(1, 32));
    reference = engine.decode_batch(frames);
  }
  for (const std::size_t width : {3u, 8u, 16u}) {
    BatchEngineConfig config = engine_config(2, 32);
    config.block_frames = width;
    BatchEngine engine(batched_factory(code), config);
    const auto results = engine.decode_batch(frames);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t f = 0; f < results.size(); ++f) {
      EXPECT_EQ(results[f].iterations, reference[f].iterations) << f;
      EXPECT_EQ(results[f].converged, reference[f].converged) << f;
      EXPECT_EQ(results[f].hard_bits, reference[f].hard_bits) << f;
    }
    const auto m = engine.snapshot();
    EXPECT_EQ(m.jobs_completed, frames.size());
    EXPECT_EQ(m.decoded_info_bits, frames.size() * code.k());
  }
}

TEST(BatchEngineBlocks, ExpiredFrameInBlockResolvesLaneMates) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 5, 4.0F);
  BatchEngine engine(batched_factory(code), engine_config(1, 8));
  std::vector<DecodeResult> slots(frames.size());
  std::vector<BlockFrameJob> block;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    // Frame 2 is already past its deadline when the worker pops the block;
    // it must resolve kDeadlineExpired without poisoning its lane-mates.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    if (f == 2) deadline = std::chrono::steady_clock::now() -
                           std::chrono::milliseconds(10);
    block.push_back(BlockFrameJob{f, frames[f], &slots[f], deadline});
  }
  ASSERT_TRUE(submit_accepted(engine.submit_block(std::move(block))));
  engine.drain();
  EXPECT_EQ(slots[2].status, DecodeStatus::kDeadlineExpired);
  EXPECT_EQ(slots[2].iterations, 0u);
  for (std::size_t f = 0; f < slots.size(); ++f) {
    if (f == 2) continue;
    EXPECT_TRUE(slots[f].converged) << f;
    EXPECT_GE(slots[f].iterations, 1u) << f;
  }
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_completed, frames.size());
  EXPECT_EQ(m.jobs_expired, 1u);
}

TEST(BatchEngineBlocks, FallbackFramesCountedPerWorker) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 4, 4.0F);
  // An iteration observer forces the batched decoder onto its per-frame
  // scalar twin; the engine must surface that silent fallback in metrics.
  DecoderFactory factory = [&code] {
    DecoderOptions opt;
    opt.max_iterations = 10;
    opt.observer = [](const IterationSnapshot&) {};
    return make_decoder("layered-minsum-simd-batched", code, opt);
  };
  BatchEngineConfig config = engine_config(1, 8);
  config.block_frames = 4;
  BatchEngine engine(factory, config);
  const auto results = engine.decode_batch(frames);
  for (const auto& r : results)
    EXPECT_EQ(r.simd_fallback, SimdFallback::kObserver);
  const auto m = engine.snapshot();
  std::size_t fallbacks = 0;
  for (const auto& w : m.workers) fallbacks += w.simd_fallbacks;
  EXPECT_EQ(fallbacks, frames.size());
}

TEST(BatchEngineBlocks, DestructorCompletesBlockInFlight) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 4, 4.0F);
  std::vector<DecodeResult> slots(frames.size());
  {
    BatchEngine engine(batched_factory(code), engine_config(1, 8));
    std::vector<BlockFrameJob> block;
    for (std::size_t f = 0; f < frames.size(); ++f)
      block.push_back(BlockFrameJob{f, frames[f], &slots[f], std::nullopt});
    ASSERT_TRUE(submit_accepted(engine.submit_block(std::move(block))));
    // No drain: the destructor must still resolve every frame of the block.
  }
  for (const auto& r : slots) EXPECT_GE(r.iterations, 1u);
}

TEST(BatchEngineBlocks, PickedDecoderAndHookRunOncePerBookedFrame) {
  // A block may pick its decoder (here a z = 24 decoder, while the
  // engine's own factory builds for z = 28) and runs its hook once per
  // frame, with the frame's position, right after the engine booked that
  // frame — on the submitting thread when the block is shed, on the worker
  // when it decodes.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto other = make_wimax_code(WimaxRate::kRate1_2, 28);
  const auto frames = make_frames(code, 4, 4.0F);
  BatchEngineConfig config = engine_config(1, 1);
  config.overload_policy = OverloadPolicy::kShedOldest;
  BatchEngine engine(fixed_factory(other), config);
  Gate gate;
  ASSERT_TRUE(submit_accepted(gate.submit(engine, 0, other.n())));
  wait_for(gate.running);

  const auto picked = make_decoder("layered-minsum-fixed", code, {});
  std::vector<DecodeResult> slots(frames.size());
  // Per position of a two-frame block: hook calls, the engine's
  // jobs_completed as the hook saw it, and whether it ran on this thread.
  struct HookLog {
    std::array<std::atomic<int>, 2> calls{};
    std::array<std::atomic<std::size_t>, 2> completed{};
    std::array<std::atomic<bool>, 2> on_submitter{};
  };
  HookLog shed_log, decoded_log;
  const auto submitter = std::this_thread::get_id();
  const auto hook = [&](HookLog& log) {
    return [&engine, submitter, log = &log](std::size_t position) {
      log->completed[position] = engine.snapshot().jobs_completed;
      log->on_submitter[position] = std::this_thread::get_id() == submitter;
      ++log->calls[position];
    };
  };
  const auto block = [&](std::size_t first) {
    std::vector<BlockFrameJob> frames_of_block;
    for (std::size_t f = first; f < first + 2; ++f)
      frames_of_block.push_back(
          BlockFrameJob{1 + f, frames[f], &slots[f], std::nullopt});
    return frames_of_block;
  };
  BlockJobOptions shed;
  shed.decoder = [&](Decoder&) -> Decoder& { return *picked; };
  shed.on_booked = hook(shed_log);
  ASSERT_TRUE(submit_accepted(engine.submit_block(block(0), shed)));
  BlockJobOptions decoded = shed;
  decoded.on_booked = hook(decoded_log);
  EXPECT_EQ(engine.submit_block(block(2), decoded),
            SubmitStatus::kAcceptedShedOldest);
  // Ran on this thread, at the shed, once per frame — after both shed
  // frames were booked (the gate still parks the worker).
  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_EQ(shed_log.calls[p].load(), 1) << p;
    EXPECT_TRUE(shed_log.on_submitter[p].load()) << p;
    EXPECT_EQ(shed_log.completed[p].load(), 2u) << p;
  }
  gate.release = true;
  engine.drain();
  // drain() may return while the last hook still runs.
  for (int i = 0; i < 2000 && decoded_log.calls[1].load() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Each decoded frame's hook ran once, on the worker, after that frame —
  // and only it — was booked: gate + shed pair + 1, then + 2.
  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_EQ(decoded_log.calls[p].load(), 1) << p;
    EXPECT_FALSE(decoded_log.on_submitter[p].load()) << p;
    EXPECT_EQ(decoded_log.completed[p].load(), 4u + p) << p;
    EXPECT_EQ(shed_log.calls[p].load(), 1) << p;
  }
  EXPECT_EQ(slots[0].status, DecodeStatus::kShedOverload);
  EXPECT_EQ(slots[1].status, DecodeStatus::kShedOverload);
  for (std::size_t f = 2; f < 4; ++f) {
    EXPECT_EQ(slots[f].status, DecodeStatus::kConverged) << f;
    EXPECT_EQ(slots[f].hard_bits.size(), code.n()) << f;
  }
  // The gate frame ran on the factory decoder, the block on the picked
  // one: each is booked with the n of the decoder that ran it.
  EXPECT_EQ(engine.snapshot().decoded_bits, other.n() + 2 * code.n());
}

// ---------------------------------------------------------- lane streams ----
//
// A worker's lanes outlive its blocks: a lane freed by a finished frame
// takes the next frame of the next queued block for the same decoder, and
// every frame is booked (and its hook run) the moment its lane frees.

/// Zero-mean channel noise, no codeword: its decode runs the full budget.
std::vector<float> noise_frame(const QCLdpcCode& code, std::uint64_t seed) {
  AwgnChannel noise(1.0F, seed);
  return noise.transmit(std::vector<float>(code.n(), 0.0F));
}

/// Every on_booked call, in call order: block, position, booking thread.
class BookingLog {
 public:
  struct Entry {
    int block;
    std::size_t position;
    std::thread::id thread;
  };

  std::function<void(std::size_t)> hook(int block) {
    return [this, block](std::size_t position) {
      const std::lock_guard<std::mutex> lock(mutex_);
      entries_.push_back({block, position, std::this_thread::get_id()});
    };
  }

  /// The calls so far, once `count` have arrived (drain() may return while
  /// the last hooks still run) or a generous timeout passed.
  std::vector<Entry> wait_for(std::size_t count) const {
    for (int i = 0; i < 10000; ++i) {
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (entries_.size() >= count) return entries_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_;
  }

  std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

/// One call per (block, position) of blocks sized `sizes`.
void expect_each_frame_booked_once(const std::vector<BookingLog::Entry>& log,
                                   const std::vector<std::size_t>& sizes) {
  std::map<std::pair<int, std::size_t>, int> calls;
  for (const auto& e : log) ++calls[{e.block, e.position}];
  std::size_t total = 0;
  for (std::size_t b = 0; b < sizes.size(); ++b) {
    total += sizes[b];
    for (std::size_t p = 0; p < sizes[b]; ++p)
      EXPECT_EQ((calls[{static_cast<int>(b), p}]), 1)
          << "block " << b << " position " << p;
  }
  EXPECT_EQ(log.size(), total);
}

void expect_same_decode(const DecodeResult& got, const DecodeResult& want,
                        const std::string& ctx) {
  EXPECT_EQ(got.hard_bits, want.hard_bits) << ctx;
  EXPECT_EQ(got.iterations, want.iterations) << ctx;
  EXPECT_EQ(got.converged, want.converged) << ctx;
  EXPECT_EQ(got.status, want.status) << ctx;
}

/// A block of `llrs` into `slots`, frame indices from `first`.
std::vector<BlockFrameJob> block_of(const std::vector<std::vector<float>>& llrs,
                                    std::vector<DecodeResult>& slots,
                                    std::size_t first) {
  std::vector<BlockFrameJob> block;
  for (std::size_t i = 0; i < llrs.size(); ++i)
    block.push_back(BlockFrameJob{first + i, llrs[i], &slots[i], std::nullopt});
  return block;
}

/// A batched decoder family and the scalar twin it is bit-identical to.
struct Family {
  const char* batched;
  const char* scalar;
};
constexpr Family kFamilies[] = {
    {"layered-minsum-simd-batched", "layered-minsum-fixed"},
    {"layered-minsum-simd-batched-fa4", "layered-minsum-fa4"},
};

DecoderFactory named_factory(const QCLdpcCode& code, const std::string& name,
                             std::size_t max_iterations) {
  return [&code, name, max_iterations] {
    DecoderOptions opt;
    opt.max_iterations = max_iterations;
    return make_decoder(name, code, opt);
  };
}

/// `count` frames that `scalar` decodes in a few iterations.
std::vector<std::vector<float>> quick_frames(const QCLdpcCode& code,
                                             Decoder& scalar,
                                             std::size_t count) {
  std::vector<std::vector<float>> quick;
  for (auto& llr : make_frames(code, 4 * count, 4.0F)) {
    if (quick.size() == count) break;
    if (scalar.decode(llr).iterations < 10) quick.push_back(std::move(llr));
  }
  EXPECT_EQ(quick.size(), count);
  return quick;
}

TEST(BatchEngineStream, LanesCarryConsecutiveJobs) {
  // Block A holds a pure-noise frame, which runs the full budget, and
  // frames that converge; block B queues behind it on a one-worker engine.
  // A's finished lanes take B's frames while the noise frame still
  // iterates, so every frame of B is booked before A's noise frame.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  constexpr std::size_t kBudget = 50;
  for (const Family& family : kFamilies) {
    SCOPED_TRACE(family.batched);
    const std::size_t width =
        named_factory(code, family.batched, kBudget)()->block_width();
    const auto scalar = named_factory(code, family.scalar, kBudget)();
    const auto good = quick_frames(code, *scalar, 2 * width - 1);
    std::vector<std::vector<float>> a{noise_frame(code, 7)};
    a.insert(a.end(), good.begin(), good.begin() + (width - 1));
    const std::vector<std::vector<float>> b(good.begin() + (width - 1),
                                            good.end());
    std::vector<DecodeResult> ref_a, ref_b;
    for (const auto& llr : a) ref_a.push_back(scalar->decode(llr));
    for (const auto& llr : b) ref_b.push_back(scalar->decode(llr));
    ASSERT_EQ(ref_a[0].iterations, kBudget);
    ASSERT_FALSE(ref_a[0].converged);

    BatchEngine engine(named_factory(code, family.batched, kBudget),
                       engine_config(1, 8));
    Gate gate;
    ASSERT_TRUE(submit_accepted(gate.submit(engine, 0, code.n())));
    wait_for(gate.running);
    BookingLog log;
    std::vector<DecodeResult> slots_a(a.size()), slots_b(b.size());
    BlockJobOptions options_a, options_b;
    options_a.on_booked = log.hook(0);
    options_b.on_booked = log.hook(1);
    ASSERT_TRUE(submit_accepted(
        engine.submit_block(block_of(a, slots_a, 1), options_a)));
    ASSERT_TRUE(submit_accepted(
        engine.submit_block(block_of(b, slots_b, 1 + a.size()), options_b)));
    gate.release = true;
    engine.drain();
    const auto booked = log.wait_for(a.size() + b.size());

    expect_each_frame_booked_once(booked, {a.size(), b.size()});
    const auto noise = std::find_if(booked.begin(), booked.end(),
                                    [](const BookingLog::Entry& e) {
                                      return e.block == 0 && e.position == 0;
                                    });
    ASSERT_NE(noise, booked.end());
    EXPECT_EQ(std::count_if(booked.begin(), noise,
                            [](const BookingLog::Entry& e) {
                              return e.block == 1;
                            }),
              static_cast<std::ptrdiff_t>(b.size()))
        << "B's frames waited for A's slowest lane";
    for (std::size_t i = 0; i < a.size(); ++i)
      expect_same_decode(slots_a[i], ref_a[i], "A " + std::to_string(i));
    for (std::size_t i = 0; i < b.size(); ++i)
      expect_same_decode(slots_b[i], ref_b[i], "B " + std::to_string(i));
    const auto m = engine.snapshot();
    EXPECT_EQ(m.jobs_completed, 1 + a.size() + b.size());
    EXPECT_EQ(m.workers[0].simd_fallbacks, 0u);
  }
}

TEST(BatchEngineStream, HeldJobsRunOnTheirOwnDecoder) {
  // Behind block A on the rung decoder queue block B, whose picker returns
  // a decoder for another code, and then block C on the rung decoder. A's
  // stream takes B, holds it and drains its lanes; B then streams on its
  // own decoder, takes C, holds it and drains; C runs last, on the rung
  // decoder.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto other = make_wimax_code(WimaxRate::kRate1_2, 28);
  constexpr std::size_t kBudget = 20;
  for (const Family& family : kFamilies) {
    SCOPED_TRACE(family.batched);
    const auto other_decoder = named_factory(other, family.batched, kBudget)();
    const std::size_t width = other_decoder->block_width();
    const auto a = make_frames(code, width, 2.5F);
    const auto b = make_frames(other, width, 2.5F);
    const auto c = make_frames(code, width, 3.0F);
    const auto scalar = named_factory(code, family.scalar, kBudget)();
    const auto other_scalar = named_factory(other, family.scalar, kBudget)();

    BatchEngine engine(named_factory(code, family.batched, kBudget),
                       engine_config(1, 8));
    Gate gate;
    ASSERT_TRUE(submit_accepted(gate.submit(engine, 0, code.n())));
    wait_for(gate.running);
    BookingLog log;
    std::vector<DecodeResult> slots_a(width), slots_b(width), slots_c(width);
    BlockJobOptions options_a, options_b, options_c;
    options_a.on_booked = log.hook(0);
    options_b.on_booked = log.hook(1);
    options_b.decoder = [&](Decoder&) -> Decoder& { return *other_decoder; };
    options_c.on_booked = log.hook(2);
    ASSERT_TRUE(submit_accepted(
        engine.submit_block(block_of(a, slots_a, 1), options_a)));
    ASSERT_TRUE(submit_accepted(
        engine.submit_block(block_of(b, slots_b, 1 + width), options_b)));
    ASSERT_TRUE(submit_accepted(
        engine.submit_block(block_of(c, slots_c, 1 + 2 * width), options_c)));
    gate.release = true;
    engine.drain();
    const auto booked = log.wait_for(3 * width);

    expect_each_frame_booked_once(booked, {width, width, width});
    for (std::size_t i = 0; i < booked.size(); ++i)
      EXPECT_EQ(booked[i].block, static_cast<int>(i / width))
          << "booking " << i;
    for (std::size_t i = 0; i < width; ++i) {
      expect_same_decode(slots_a[i], scalar->decode(a[i]),
                         "A " + std::to_string(i));
      expect_same_decode(slots_b[i], other_scalar->decode(b[i]),
                         "B " + std::to_string(i));
      expect_same_decode(slots_c[i], scalar->decode(c[i]),
                         "C " + std::to_string(i));
    }
    // The gate, A and C ran on the rung decoder, B on its picked one.
    EXPECT_EQ(engine.snapshot().decoded_bits,
              (2 * width + 1) * code.n() + width * other.n());
  }
}

TEST(BatchEngineStream, IdleWorkerWinsANewBlock) {
  // Two workers: one streams block A (a long noise frame keeps its lanes
  // live), the other waits idle in pop(). A block submitted now runs on
  // the idle worker; the busy stream must not pull it.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  constexpr std::size_t kBudget = 3000;
  BatchEngine engine(named_factory(code, kFamilies[0].batched, kBudget),
                     engine_config(2, 8));
  const std::size_t width =
      named_factory(code, kFamilies[0].batched, kBudget)()->block_width();
  const auto good = make_frames(code, 2 * width - 1, 6.0F);
  std::vector<std::vector<float>> a{noise_frame(code, 7)};
  a.insert(a.end(), good.begin(), good.begin() + (width - 1));
  const std::vector<std::vector<float>> b(good.begin() + (width - 1),
                                          good.end());
  BookingLog log;
  std::vector<DecodeResult> slots_a(a.size()), slots_b(b.size());
  BlockJobOptions options_a, options_b;
  options_a.on_booked = log.hook(0);
  options_b.on_booked = log.hook(1);
  // Both worker threads have started and wait in pop().
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(submit_accepted(
      engine.submit_block(block_of(a, slots_a, 0), options_a)));
  log.wait_for(1);  // A's stream is live: its converging frames book first
  ASSERT_TRUE(submit_accepted(
      engine.submit_block(block_of(b, slots_b, a.size()), options_b)));
  engine.drain();
  const auto booked = log.wait_for(a.size() + b.size());

  expect_each_frame_booked_once(booked, {a.size(), b.size()});
  const std::thread::id busy = booked.front().thread;
  for (const auto& e : booked) {
    if (e.block == 0) {
      EXPECT_EQ(e.thread, busy) << "A position " << e.position;
    } else {
      EXPECT_NE(e.thread, busy) << "B position " << e.position;
    }
  }
  EXPECT_EQ(slots_a[0].iterations, kBudget);
  for (const DecodeResult& r : slots_b) EXPECT_TRUE(r.converged);
}

TEST(BatchEngineStream, ThrowMidStreamResolvesEveryFrameOnce) {
  // A's lanes take B's frames while A's noise frame still iterates, and
  // B's first frame has the wrong LLR count: loading it throws mid-stream.
  // Every unbooked frame of both blocks resolves exactly once, A's frames
  // booked before the throw keep their results, and the failure counts
  // once.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  constexpr std::size_t kBudget = 50;
  for (const Family& family : kFamilies) {
    SCOPED_TRACE(family.batched);
    const std::size_t width =
        named_factory(code, family.batched, kBudget)()->block_width();
    const auto scalar = named_factory(code, family.scalar, kBudget)();
    const auto good = quick_frames(code, *scalar, 2 * width);
    std::vector<std::vector<float>> a{noise_frame(code, 7)};
    a.insert(a.end(), good.begin(), good.begin() + (width - 1));
    std::vector<std::vector<float>> b{std::vector<float>(5, 1.0F)};
    b.insert(b.end(), good.begin() + (width - 1), good.end());

    BatchEngine engine(named_factory(code, family.batched, kBudget),
                       engine_config(1, 8));
    Gate gate;
    ASSERT_TRUE(submit_accepted(gate.submit(engine, 0, code.n())));
    wait_for(gate.running);
    BookingLog log;
    std::vector<DecodeResult> slots_a(a.size()), slots_b(b.size());
    BlockJobOptions options_a, options_b;
    options_a.on_booked = log.hook(0);
    options_b.on_booked = log.hook(1);
    ASSERT_TRUE(submit_accepted(
        engine.submit_block(block_of(a, slots_a, 1), options_a)));
    ASSERT_TRUE(submit_accepted(
        engine.submit_block(block_of(b, slots_b, 1 + a.size()), options_b)));
    gate.release = true;
    engine.drain();
    const auto booked = log.wait_for(a.size() + b.size());

    expect_each_frame_booked_once(booked, {a.size(), b.size()});
    const auto m = engine.snapshot();
    EXPECT_EQ(m.jobs_completed, 1 + a.size() + b.size());
    EXPECT_EQ(m.workers[0].exceptions, 1u);
    // A frame still in a lane at the throw fails with the default result
    // (no iteration); a frame booked before it decoded normally.
    EXPECT_FALSE(slots_a[0].converged);
    EXPECT_EQ(slots_a[0].iterations, 0u);
    std::size_t decoded = 0;
    for (std::size_t i = 1; i < a.size(); ++i) {
      if (slots_a[i].iterations == 0) continue;
      ++decoded;
      expect_same_decode(slots_a[i], scalar->decode(a[i]),
                         "A " + std::to_string(i));
    }
    EXPECT_GE(decoded, 1u) << "B was taken before any lane of A freed";
    EXPECT_EQ(m.decoded_bits, (1 + decoded) * code.n());  // + the gate frame
    for (const DecodeResult& r : slots_b) EXPECT_EQ(r.iterations, 0u);
  }
}

TEST(BatchEngineBlocks, DeadlineBailsRunningFrame) {
  // A frame whose deadline passes mid-decode bails at a layer boundary on
  // the token the engine armed for it, while its lane-mates decode on. A
  // block before it warms the worker's decoder; the same block after it
  // must decode unchanged, so no expired token carries over. The scalar
  // decoder (one lane, no lane-mates) rides the default stream, which
  // attaches each frame's token before its decode and detaches it after.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  constexpr std::size_t kBudget = 3000;
  for (const Family& family :
       {kFamilies[0], kFamilies[1],
        Family{"layered-minsum-fixed", "layered-minsum-fixed"}}) {
    SCOPED_TRACE(family.batched);
    const std::size_t width =
        named_factory(code, family.batched, kBudget)()->block_width();
    const auto scalar = named_factory(code, family.scalar, kBudget)();
    const auto good = quick_frames(code, *scalar, 2 * width - 1);
    std::vector<std::vector<float>> a{noise_frame(code, 7)};
    a.insert(a.end(), good.begin(), good.begin() + (width - 1));
    const std::vector<std::vector<float>> b(good.begin() + (width - 1),
                                            good.end());

    BatchEngine engine(named_factory(code, family.batched, kBudget),
                       engine_config(1, 8));
    std::vector<DecodeResult> before(b.size()), slots_a(a.size()),
        after(b.size());
    ASSERT_TRUE(submit_accepted(engine.submit_block(block_of(b, before, 0))));
    engine.drain();
    std::vector<BlockFrameJob> block_a = block_of(a, slots_a, b.size());
    block_a[0].deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
    ASSERT_TRUE(submit_accepted(engine.submit_block(std::move(block_a))));
    engine.drain();
    ASSERT_TRUE(submit_accepted(
        engine.submit_block(block_of(b, after, b.size() + a.size()))));
    engine.drain();

    EXPECT_EQ(slots_a[0].status, DecodeStatus::kDeadlineExpired);
    EXPECT_LT(slots_a[0].iterations, kBudget);
    EXPECT_EQ(engine.snapshot().jobs_expired, 0u);  // bailed, not skipped
    for (std::size_t i = 1; i < a.size(); ++i)
      expect_same_decode(slots_a[i], scalar->decode(a[i]),
                         "A " + std::to_string(i));
    for (std::size_t i = 0; i < b.size(); ++i) {
      const DecodeResult want = scalar->decode(b[i]);
      expect_same_decode(before[i], want, "before " + std::to_string(i));
      expect_same_decode(after[i], want, "after " + std::to_string(i));
    }
  }
}

TEST(BatchEngineBlocks, StageInBuildsEachFrameOnItsWorker) {
  // A block may carry no LLRs: its stage-in builds each frame on the
  // worker when a lane takes it — never a frame already expired — and the
  // frame decodes as if it had been submitted built.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 20, 2.0F);
  const auto scalar = fixed_factory(code)();
  for (const char* name :
       {"layered-minsum-fixed", "layered-minsum-simd-batched"}) {
    SCOPED_TRACE(name);
    BatchEngine engine(named_factory(code, name, 10), engine_config(2, 8));
    std::vector<DecodeResult> slots(frames.size());
    std::vector<BlockFrameJob> block(frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      block[i].frame_index = i;
      block[i].slot = &slots[i];
    }
    block[3].deadline =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    std::mutex mutex;
    std::map<std::size_t, int> builds;
    bool built_on_caller = false;
    const auto caller = std::this_thread::get_id();
    BlockJobOptions options;
    options.stage_in = [&](std::size_t position, std::vector<float>& llr) {
      const std::lock_guard<std::mutex> lock(mutex);
      ++builds[position];
      built_on_caller |= std::this_thread::get_id() == caller;
      llr = frames[position];
    };
    ASSERT_TRUE(submit_accepted(
        engine.submit_block(std::move(block), std::move(options))));
    engine.drain();

    const std::lock_guard<std::mutex> lock(mutex);
    EXPECT_FALSE(built_on_caller);
    EXPECT_EQ(slots[3].status, DecodeStatus::kDeadlineExpired);
    EXPECT_EQ(builds.count(3), 0u);
    EXPECT_EQ(builds.size(), frames.size() - 1);
    for (std::size_t i = 0; i < frames.size(); ++i) {
      if (i == 3) continue;
      EXPECT_EQ(builds[i], 1) << i;
      expect_same_decode(slots[i], scalar->decode(frames[i]),
                         "frame " + std::to_string(i));
    }
  }
}

TEST(BatchEngine, AvgIterationsCountsOnlyFramesThatRan) {
  // Frames already past their deadline resolve without running an
  // iteration: the average is over the frames that decoded.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 8, 2.0F);
  BatchEngine engine(fixed_factory(code, 30), engine_config(1, 8));
  std::vector<DecodeResult> slots(frames.size());
  std::vector<BlockFrameJob> block = block_of(frames, slots, 0);
  const auto past = std::chrono::steady_clock::now() -
                    std::chrono::milliseconds(1);
  for (const std::size_t f : {1u, 4u, 6u}) block[f].deadline = past;
  ASSERT_TRUE(submit_accepted(engine.submit_block(std::move(block))));
  engine.drain();
  std::size_t ran = 0, iterations = 0;
  for (const DecodeResult& r : slots) {
    if (r.status == DecodeStatus::kDeadlineExpired) continue;
    ++ran;
    iterations += r.iterations;
  }
  const auto m = engine.snapshot();
  ASSERT_EQ(m.jobs_expired, 3u);
  ASSERT_EQ(ran, 5u);
  EXPECT_DOUBLE_EQ(m.avg_iterations(), static_cast<double>(iterations) /
                                           static_cast<double>(ran));
}

/// A one-lane decoder that returns each frame at once (all-zero hard
/// decisions, one iteration, converged), except its `wedge_at`-th decode
/// (from 0): that one sets `gate.running` and waits for `gate.release`.
class WedgingDecoder final : public Decoder {
 public:
  WedgingDecoder(std::size_t n, std::size_t wedge_at, Gate& gate)
      : n_(n), wedge_at_(wedge_at), gate_(gate) {}

  DecodeResult decode(std::span<const float>) override {
    if (decodes_++ == wedge_at_) {
      gate_.running = true;
      wait_for(gate_.release);
    }
    DecodeResult r;
    r.hard_bits = BitVec(n_);
    r.iterations = 1;
    r.converged = true;
    r.status = DecodeStatus::kConverged;
    return r;
  }
  std::size_t n() const override { return n_; }
  std::string name() const override { return "wedging"; }

 private:
  std::size_t n_;
  std::size_t wedge_at_;
  Gate& gate_;
  std::size_t decodes_ = 0;
};

TEST(BatchEngine, DrainUntilReportsBlockStragglers) {
  // Block W (frames 10-12) books frame 10 and wedges on 11. Behind it,
  // block S (20-21) fills the one-job queue, a retry of frame 11 queues
  // past capacity, and block T (30) meets the full queue: under
  // kShedOldest T sheds S, under kRejectNewest T is refused. A try_submit
  // of frame 40 is refused under both. The straggler list then holds the
  // unbooked frames of the jobs still in flight — frame 11 once, though
  // two of its attempts are — and nothing of S when shed, of T when
  // refused, or of frame 40.
  constexpr std::size_t kN = 16;
  const std::vector<float> llr(kN, 2.0F);
  const auto frames = [&](std::size_t count) {
    return std::vector<std::vector<float>>(count, llr);
  };
  for (const OverloadPolicy policy :
       {OverloadPolicy::kShedOldest, OverloadPolicy::kRejectNewest}) {
    SCOPED_TRACE(to_string(policy));
    const bool shed = policy == OverloadPolicy::kShedOldest;
    Gate gate;
    BatchEngineConfig config = engine_config(1, 1);
    config.overload_policy = policy;
    BatchEngine engine(
        [&] { return std::make_unique<WedgingDecoder>(kN, 1, gate); },
        config);
    std::vector<DecodeResult> w(3), s(2), retry(1), t(1), u(1);
    ASSERT_EQ(engine.submit_block(block_of(frames(3), w, 10)),
              SubmitStatus::kAccepted);
    wait_for(gate.running);
    ASSERT_EQ(engine.submit_block(block_of(frames(2), s, 20)),
              SubmitStatus::kAccepted);
    ASSERT_TRUE(engine.submit_retry(block_of(frames(1), retry, 11)));
    EXPECT_EQ(engine.submit_block(block_of(frames(1), t, 30)),
              shed ? SubmitStatus::kAcceptedShedOldest
                   : SubmitStatus::kRejectedQueueFull);
    std::vector<float> refused = llr;
    EXPECT_FALSE(engine.try_submit(40, refused, &u[0]));
    EXPECT_EQ(refused, llr);  // handed back intact

    const DrainReport stuck = engine.drain_for(std::chrono::milliseconds(5));
    EXPECT_FALSE(stuck.completed);
    const std::vector<std::size_t> want =
        shed ? std::vector<std::size_t>{11, 12, 30}
             : std::vector<std::size_t>{11, 12, 20, 21};
    EXPECT_EQ(stuck.straggler_frames, want);
    // Frames, not jobs: W's two unbooked frames, the retry, and S or T.
    EXPECT_EQ(stuck.outstanding, shed ? 4u : 5u);

    gate.release = true;
    engine.drain();
    const DrainReport done = engine.drain_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(done.completed);
    EXPECT_EQ(done.outstanding, 0u);
    EXPECT_TRUE(done.straggler_frames.empty());
    const auto m = engine.snapshot();
    EXPECT_EQ(m.jobs_completed, m.jobs_submitted);
    EXPECT_EQ(m.jobs_submitted, shed ? 7u : 6u);
    EXPECT_EQ(m.jobs_shed, shed ? 2u : 0u);
    EXPECT_EQ(m.jobs_rejected, shed ? 0u : 1u);
    for (const DecodeResult& r : w) EXPECT_TRUE(r.converged);
    EXPECT_TRUE(retry[0].converged);
    for (const DecodeResult& r : s)
      EXPECT_EQ(r.status, shed ? DecodeStatus::kShedOverload
                               : DecodeStatus::kConverged);
    EXPECT_EQ(t[0].converged, shed);  // a refused submit leaves its slot
    EXPECT_EQ(u[0].iterations, 0u);
  }
}

TEST(Supervisor, RetryWithoutLadderRejectedAtConstruction) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  SupervisorConfig config;
  config.retry = RetryPolicy::up_to(2);  // but no escalation_factories
  EXPECT_THROW(DecodeSupervisor(fixed_factory(code), config), Error);
}

}  // namespace
}  // namespace ldpc
