#include "runtime/batch_engine.hpp"

#include <algorithm>
#include <utility>

namespace ldpc {

std::size_t EngineMetrics::status_total(DecodeStatus s) const {
  std::size_t total = 0;
  for (const auto& w : workers)
    total += w.status_counts[static_cast<std::size_t>(s)];
  return total;
}

std::size_t EngineMetrics::sum_iterations() const {
  std::size_t total = 0;
  for (const auto& w : workers) total += w.sum_iterations;
  return total;
}

double EngineMetrics::avg_iterations() const {
  return jobs_completed == 0 ? 0.0
                             : static_cast<double>(sum_iterations()) /
                                   static_cast<double>(jobs_completed);
}

BatchEngine::BatchEngine(DecoderFactory factory, BatchEngineConfig config)
    : factory_(std::move(factory)),
      config_(std::move(config)),
      queue_(config_.queue_capacity, config_.overload_policy) {
  LDPC_CHECK(factory_ != nullptr);
  LDPC_CHECK_MSG(config_.num_workers >= 1, "engine needs >= 1 worker");
  for (const auto& f : config_.escalation_factories)
    LDPC_CHECK_MSG(f != nullptr, "escalation factory must not be null");
  // Held across the spawn loop: the first workers can start decoding (and a
  // quarantined one can append its replacement) while later ones are still
  // being emplaced — workers_ must not be mutated from two threads at once.
  const MutexLock lock(state_mutex_);
  worker_stats_.resize(config_.num_workers);
  workers_.reserve(config_.num_workers + config_.max_replacement_workers);
  for (unsigned w = 0; w < config_.num_workers; ++w)
    workers_.emplace_back([this, w] { worker_main(w); });
}

BatchEngine::~BatchEngine() {
  queue_.close();
  // The vector may grow while we join: a quarantined worker appends its
  // replacement before exiting, so joining index i happens-after any
  // append i performed — the re-checked size always catches new threads.
  for (std::size_t i = 0;;) {
    std::thread victim;
    {
      const MutexLock lock(state_mutex_);
      if (i >= workers_.size()) break;
      victim = std::move(workers_[i]);
      ++i;
    }
    if (victim.joinable()) victim.join();
  }
}

void BatchEngine::finish_job_locked(
    std::size_t frame_index, std::chrono::steady_clock::time_point now) {
  last_complete_ = now;
  ++completed_;
  const auto it = outstanding_.find(frame_index);
  if (it != outstanding_.end() && --it->second == 0) outstanding_.erase(it);
  if (completed_ == submitted_) all_done_.notify_all();
}

SubmitStatus BatchEngine::enqueue(Job& job, EnqueueMode mode) {
  job.enqueued = std::chrono::steady_clock::now();
  {
    const MutexLock lock(state_mutex_);
    if (!started_) {
      started_ = true;
      first_enqueue_ = job.enqueued;
    }
    submitted_ += job.frames.size();
    for (const BlockFrameJob& frame : job.frames)
      ++outstanding_[frame.frame_index];
  }
  using Push = BoundedJobQueue<Job>::PushResult;
  Job shed;
  Push pushed = Push::kClosed;
  if (mode == EnqueueMode::kPolicy)
    pushed = queue_.push(std::move(job), &shed);
  else if (mode == EnqueueMode::kTry)
    pushed = queue_.try_push(job) ? Push::kAccepted : Push::kRejected;
  else
    pushed =
        queue_.push_forced(std::move(job)) ? Push::kAccepted : Push::kClosed;

  switch (pushed) {
    case Push::kAccepted:
      return SubmitStatus::kAccepted;
    case Push::kAcceptedShed: {
      // The evicted entry resolves every one of its frames — a frame that
      // silently vanished would wedge drain() forever.
      DecodeResult result;
      result.status = DecodeStatus::kShedOverload;
      for (const BlockFrameJob& frame : shed.frames)
        if (frame.slot) *frame.slot = result;
      const auto now = std::chrono::steady_clock::now();
      {
        const MutexLock lock(state_mutex_);
        jobs_shed_ += shed.frames.size();
        for (const BlockFrameJob& frame : shed.frames)
          finish_job_locked(frame.frame_index, now);
      }
      if (shed.block.on_booked) shed.block.on_booked();
      return SubmitStatus::kAcceptedShedOldest;
    }
    case Push::kRejected:
    case Push::kClosed:
      break;
  }
  // Refused: the queue left `job` intact. Back its frames out; try_submit
  // hands the LLRs back to its caller, which is not a rejection.
  const MutexLock lock(state_mutex_);
  submitted_ -= job.frames.size();
  if (mode != EnqueueMode::kTry) jobs_rejected_ += job.frames.size();
  for (const BlockFrameJob& frame : job.frames) {
    const auto it = outstanding_.find(frame.frame_index);
    if (it != outstanding_.end() && --it->second == 0) outstanding_.erase(it);
  }
  // A concurrent drain() may have been waiting on the job that was just
  // backed out; re-evaluate its predicate.
  if (completed_ == submitted_) all_done_.notify_all();
  return pushed == Push::kRejected ? SubmitStatus::kRejectedQueueFull
                                   : SubmitStatus::kRejectedClosed;
}

SubmitStatus BatchEngine::submit(std::size_t frame_index,
                                 std::vector<float> llr, DecodeResult* slot,
                                 JobOptions options) {
  LDPC_CHECK(slot != nullptr);
  Job job;
  job.frames.push_back({frame_index, std::move(llr), slot, options.deadline});
  job.block.rung = options.rung;
  return enqueue(job, EnqueueMode::kPolicy);
}

bool BatchEngine::try_submit(std::size_t frame_index, std::vector<float>& llr,
                             DecodeResult* slot, JobOptions options) {
  LDPC_CHECK(slot != nullptr);
  Job job;
  job.frames.push_back({frame_index, std::move(llr), slot, options.deadline});
  job.block.rung = options.rung;
  if (submit_accepted(enqueue(job, EnqueueMode::kTry))) return true;
  llr = std::move(job.frames[0].llr);  // hand the frame back to the caller
  return false;
}

SubmitStatus BatchEngine::submit_task(std::size_t frame_index, Task task,
                                      JobOptions options, DecodeResult* slot) {
  LDPC_CHECK(task != nullptr);
  Job job;
  job.frames.push_back({frame_index, {}, slot, options.deadline});
  job.task = std::move(task);
  job.block.rung = options.rung;
  return enqueue(job, EnqueueMode::kPolicy);
}

SubmitStatus BatchEngine::submit_block(std::vector<BlockFrameJob> frames,
                                       BlockJobOptions options) {
  LDPC_CHECK_MSG(!frames.empty(), "submit_block needs >= 1 frame");
  for (const BlockFrameJob& f : frames) LDPC_CHECK(f.slot != nullptr);
  Job job;
  job.frames = std::move(frames);
  job.block = std::move(options);
  return enqueue(job, EnqueueMode::kPolicy);
}

bool BatchEngine::submit_retry(std::size_t frame_index, Task task,
                               JobOptions options, DecodeResult* slot) {
  LDPC_CHECK(task != nullptr);
  Job job;
  job.frames.push_back({frame_index, {}, slot, options.deadline});
  job.task = std::move(task);
  job.block.rung = options.rung;
  return submit_accepted(enqueue(job, EnqueueMode::kForced));
}

void BatchEngine::drain() {
  MutexLock lock(state_mutex_);
  while (completed_ != submitted_) lock.wait(all_done_);
}

DrainReport BatchEngine::drain_until(
    std::chrono::steady_clock::time_point deadline) {
  MutexLock lock(state_mutex_);
  DrainReport report;
  report.completed = true;
  while (completed_ != submitted_) {
    if (lock.wait_until(all_done_, deadline) == std::cv_status::timeout) {
      report.completed = completed_ == submitted_;
      break;
    }
  }
  if (!report.completed) {
    report.outstanding = submitted_ - completed_;
    report.straggler_frames.reserve(outstanding_.size());
    for (const auto& entry : outstanding_)
      report.straggler_frames.push_back(entry.first);
  }
  return report;
}

std::vector<DecodeResult> BatchEngine::decode_batch(
    const std::vector<std::vector<float>>& frames) {
  // Sized up front: slots must not move while jobs are in flight.
  std::vector<DecodeResult> results(frames.size());
  const std::size_t bw = std::max<std::size_t>(config_.block_frames, 1);
  for (std::size_t base = 0; base < frames.size(); base += bw) {
    const std::size_t count = std::min(bw, frames.size() - base);
    std::vector<BlockFrameJob> block(count);
    for (std::size_t i = 0; i < count; ++i) {
      block[i].frame_index = base + i;
      block[i].llr = frames[base + i];
      block[i].slot = &results[base + i];
    }
    const SubmitStatus s = submit_block(std::move(block));
    LDPC_CHECK_MSG(submit_accepted(s),
                   "decode_batch submit failed: " << to_string(s));
  }
  drain();
  return results;
}

void BatchEngine::worker_main(unsigned worker_id) {
  // Rung decoder cache: [0] primary, [r] = escalation ladder entry r - 1.
  // Created lazily so a worker that never sees an escalated job never pays
  // for the wider decoders.
  std::vector<std::unique_ptr<Decoder>> decoders(
      1 + config_.escalation_factories.size());
  auto decoder_for = [&](unsigned rung) -> Decoder& {
    const std::size_t idx =
        std::min<std::size_t>(rung, config_.escalation_factories.size());
    auto& entry = decoders[idx];
    if (!entry) {
      entry = idx == 0 ? factory_() : config_.escalation_factories[idx - 1]();
      LDPC_CHECK(entry != nullptr);
    }
    return *entry;
  };
  // A task decodes under this worker's token, attached and armed with the
  // task's deadline just before it runs; block frames carry their own.
  CancelToken task_token;

  Job job;
  while (queue_.pop(job)) {
    // 1. A frame already past its deadline completes without touching a
    // decoder — but only when the engine owns a slot to report through; a
    // slotless task must still run (under a pre-expired token, so a
    // cancellation-aware decode bails at its first poll).
    const auto pop_time = std::chrono::steady_clock::now();
    const auto expired = std::stable_partition(
        job.frames.begin(), job.frames.end(), [&](const BlockFrameJob& f) {
          return !f.slot || !f.deadline || pop_time < *f.deadline;
        });
    DecodeResult expired_result;
    expired_result.status = DecodeStatus::kDeadlineExpired;
    for (auto it = expired; it != job.frames.end(); ++it)
      *it->slot = expired_result;

    // 2. The rest run the task or share one decode_block.
    const auto count = static_cast<std::size_t>(expired - job.frames.begin());
    std::vector<DecodeResult> results(count);
    std::vector<SaturationStats> sats(count);
    std::size_t n = 0, k = 0;
    bool failed = false;
    if (count > 0) {
      Decoder* decoder = &decoder_for(job.block.rung);
      try {
        if (job.task) {
          task_token.clear();
          if (job.frames[0].deadline)
            task_token.arm_deadline(*job.frames[0].deadline);
          decoder->set_cancel_token(&task_token);
          results[0] = job.task(*decoder);
          sats[0] = decoder->saturation();
        } else {
          if (job.block.decoder) decoder = &job.block.decoder(*decoder);
          // Per-frame cancel tokens let one late frame bail at a layer
          // boundary while its lane-mates decode to completion.
          std::vector<CancelToken> tokens(count);
          std::vector<BlockFrame> frames(count);
          for (std::size_t i = 0; i < count; ++i) {
            const CancelToken* token = job.frames[i].cancel;
            if (!token) {
              if (job.frames[i].deadline)
                tokens[i].arm_deadline(*job.frames[i].deadline);
              token = &tokens[i];
            }
            frames[i] = {job.frames[i].llr, token};
          }
          decoder->decode_block(frames, results, sats);
        }
      } catch (...) {
        // A throwing job must not take the worker (and every queued job
        // behind it) down. Each of its frames still resolves, the slot
        // keeping its default (non-converged) result, and the failure
        // counts once against this worker.
        failed = true;
      }
      n = decoder->n();
      k = decoder->k();
    }

    // 3. Book every frame in one critical section.
    const auto now = std::chrono::steady_clock::now();
    const double latency_us =
        std::chrono::duration<double, std::micro>(now - job.enqueued).count();
    bool retire = false;
    {
      const MutexLock lock(state_mutex_);
      for (auto it = expired; it != job.frames.end(); ++it) {
        ++jobs_expired_;
        finish_job_locked(it->frame_index, now);
      }
      EngineWorkerStats& stats = worker_stats_[worker_id];
      if (failed) {
        ++stats.exceptions;
        ++stats.strikes;
      }
      for (std::size_t i = 0; i < count; ++i) {
        ++stats.jobs;
        if (!failed) {
          const DecodeResult& res = results[i];
          stats.sum_iterations += res.iterations;
          stats.status_counts[static_cast<std::size_t>(res.status)] += 1;
          if (res.status == DecodeStatus::kConverged)
            ++stats.early_terminations;
          if (res.simd_fallback != SimdFallback::kNone) ++stats.simd_fallbacks;
          if (res.status == DecodeStatus::kFaultDetected ||
              res.status == DecodeStatus::kWatchdogAbort)
            ++stats.strikes;
          stats.saturation.quantizer_clips += sats[i].quantizer_clips;
          stats.saturation.datapath_clips += sats[i].datapath_clips;
          stats.saturation.q_clips += sats[i].q_clips;
          stats.saturation.r_clips += sats[i].r_clips;
          stats.saturation.p_clips += sats[i].p_clips;
          stats.saturation.degenerate_checks += sats[i].degenerate_checks;
          decoded_bits_ += n;
          decoded_info_bits_ += k;
          // Tasks own their result delivery: a retry layer may already
          // have the next attempt in flight, so writing the slot would race
          // with it.
          if (!job.task) *job.frames[i].slot = std::move(results[i]);
        }
        latency_us_.add(latency_us);
        finish_job_locked(job.frames[i].frame_index, now);
      }
      retire = maybe_quarantine_locked(worker_id);
    }
    if (job.block.on_booked) job.block.on_booked();
    job = Job{};  // release the frame buffers before blocking on the queue
    if (retire) return;
  }
}

bool BatchEngine::maybe_quarantine_locked(unsigned worker_id) {
  EngineWorkerStats& stats = worker_stats_[worker_id];
  if (config_.quarantine_strike_threshold == 0 || stats.quarantined ||
      stats.strikes < config_.quarantine_strike_threshold ||
      workers_spawned_ >= config_.max_replacement_workers)
    return false;
  // Quarantine: retire this worker and hand its slot in the pool to a
  // fresh thread (and a fresh decoder) from the factory. `stats` is
  // dead after the push_back below — the vector may reallocate.
  stats.quarantined = true;
  ++workers_quarantined_;
  ++workers_spawned_;
  const auto new_id = static_cast<unsigned>(worker_stats_.size());
  worker_stats_.emplace_back();
  workers_.emplace_back([this, new_id] { worker_main(new_id); });
  return true;
}

EngineMetrics BatchEngine::snapshot() const {
  EngineMetrics m;
  RunningStats occupancy;
  LogLinearHistogram latency;
  {
    const MutexLock lock(state_mutex_);
    // The queue's internal mutex nests inside state_mutex_ here (no engine
    // path acquires them in the opposite order), making the occupancy
    // statistics part of the same consistent cut as the job counters.
    occupancy = queue_.occupancy();
    m.jobs_submitted = submitted_;
    m.jobs_completed = completed_;
    m.decoded_bits = decoded_bits_;
    m.decoded_info_bits = decoded_info_bits_;
    m.jobs_expired = jobs_expired_;
    m.jobs_shed = jobs_shed_;
    m.jobs_rejected = jobs_rejected_;
    m.workers_quarantined = workers_quarantined_;
    m.workers_spawned = workers_spawned_;
    if (started_) {
      const auto end = completed_ == submitted_
                           ? last_complete_
                           : std::chrono::steady_clock::now();
      m.wall_seconds =
          std::chrono::duration<double>(end - first_enqueue_).count();
    }
    m.workers = worker_stats_;
    latency = latency_us_;
  }
  if (m.wall_seconds > 0.0) {
    m.code_throughput_mbps =
        static_cast<double>(m.decoded_bits) / m.wall_seconds / 1e6;
    m.info_throughput_mbps =
        static_cast<double>(m.decoded_info_bits) / m.wall_seconds / 1e6;
  }
  m.queue_capacity = queue_.capacity();
  m.queue_mean_occupancy = occupancy.mean();
  m.queue_max_occupancy =
      occupancy.count() == 0 ? 0 : static_cast<std::size_t>(occupancy.max());
  m.latency.samples = static_cast<std::size_t>(latency.count());
  m.latency.mean_us = latency.mean();
  m.latency.p50_us = latency.quantile(0.50);
  m.latency.p95_us = latency.quantile(0.95);
  m.latency.p99_us = latency.quantile(0.99);
  m.latency.max_us = latency.max();
  return m;
}

}  // namespace ldpc
