#include "runtime/batch_engine.hpp"

#include <algorithm>
#include <utility>

namespace ldpc {
namespace {

using Clock = std::chrono::steady_clock;

/// A stream frame's tag: the in-hand job's slot above, the frame's position
/// in its job below.
constexpr unsigned kPositionBits = 32;
constexpr std::size_t kPositionMask = (std::size_t{1} << kPositionBits) - 1;

}  // namespace

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
  std::size_t ran = 0;
  for (const auto& w : workers) ran += w.jobs;
  return ran == 0 ? 0.0
                  : static_cast<double>(sum_iterations()) /
                        static_cast<double>(ran);
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

void BatchEngine::finish_job_locked(Clock::time_point now) {
  last_complete_ = now;
  ++completed_;
  if (completed_ == submitted_) all_done_.notify_all();
}

void BatchEngine::leave_locked(const Job& job) {
  in_flight_[job.record] = {};
  free_records_.push_back(job.record);
}

SubmitStatus BatchEngine::enqueue(Job& job, EnqueueMode mode) {
  LDPC_CHECK_MSG(!job.frames.empty(), "a job needs >= 1 frame");
  for (const BlockFrameJob& frame : job.frames)
    LDPC_CHECK(frame.slot != nullptr);
  job.enqueued = std::chrono::steady_clock::now();
  {
    const MutexLock lock(state_mutex_);
    if (!started_) {
      started_ = true;
      first_enqueue_ = job.enqueued;
    }
    submitted_ += job.frames.size();
    if (free_records_.empty()) {
      free_records_.push_back(in_flight_.size());
      in_flight_.emplace_back();
    }
    job.record = free_records_.back();
    free_records_.pop_back();
    in_flight_[job.record] = job.frames;
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
      for (const BlockFrameJob& frame : shed.frames) *frame.slot = result;
      const auto now = std::chrono::steady_clock::now();
      {
        const MutexLock lock(state_mutex_);
        jobs_shed_ += shed.frames.size();
        for (std::size_t i = 0; i < shed.frames.size(); ++i)
          finish_job_locked(now);
        leave_locked(shed);
      }
      if (shed.block.on_booked)
        for (std::size_t i = 0; i < shed.frames.size(); ++i)
          shed.block.on_booked(i);
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
  leave_locked(job);
  // A concurrent drain() may have been waiting on the job that was just
  // backed out; re-evaluate its predicate.
  if (completed_ == submitted_) all_done_.notify_all();
  return pushed == Push::kRejected ? SubmitStatus::kRejectedQueueFull
                                   : SubmitStatus::kRejectedClosed;
}

SubmitStatus BatchEngine::submit(std::size_t frame_index,
                                 std::vector<float> llr, DecodeResult* slot,
                                 JobOptions options) {
  Job job;
  job.frames.push_back({frame_index, std::move(llr), slot, options.deadline});
  job.block.rung = options.rung;
  return enqueue(job, EnqueueMode::kPolicy);
}

bool BatchEngine::try_submit(std::size_t frame_index, std::vector<float>& llr,
                             DecodeResult* slot, JobOptions options) {
  Job job;
  job.frames.push_back({frame_index, std::move(llr), slot, options.deadline});
  job.block.rung = options.rung;
  if (submit_accepted(enqueue(job, EnqueueMode::kTry))) return true;
  llr = std::move(job.frames[0].llr);  // hand the frame back to the caller
  return false;
}

SubmitStatus BatchEngine::submit_block(std::vector<BlockFrameJob> frames,
                                       BlockJobOptions options) {
  Job job{std::move(frames), std::move(options), {}};
  return enqueue(job, EnqueueMode::kPolicy);
}

bool BatchEngine::submit_retry(std::vector<BlockFrameJob> frames,
                               BlockJobOptions options) {
  Job job{std::move(frames), std::move(options), {}};
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
    auto& frames = report.straggler_frames;
    for (const auto job : in_flight_)
      for (const BlockFrameJob& frame : job)
        if (frame.slot) frames.push_back(frame.frame_index);
    std::sort(frames.begin(), frames.end());
    frames.erase(std::unique(frames.begin(), frames.end()), frames.end());
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

// One worker thread. Block jobs run as a lane stream: the worker is the
// FrameSource its decoder's decode_stream pulls from. Jobs in hand (taken
// from the queue, not every frame booked yet) live in slots_; `current_` is
// the one whose frames are still being handed out. Once they all are, a
// free lane takes the next queued job (try_pop: never one an idle worker
// is waiting for) — if that job picks the stream's decoder it joins the
// stream, otherwise (another rung or codec) it is held and runs next, on
// its picked decoder, after the stream has drained its lanes. So a worker
// holds at most one job whose frames are not all loaded, and a job in hand
// is running: it can no longer be shed.
class BatchEngine::Worker final : public FrameSource {
 public:
  Worker(BatchEngine& engine, unsigned id)
      : engine_(engine),
        id_(id),
        decoders_(1 + engine.config_.escalation_factories.size()) {}

  void run() {
    for (;;) {
      Job job;
      Decoder* picked = nullptr;
      if (held_) {
        job = std::move(held_->job);
        picked = held_->decoder;
        held_.reset();
      } else if (retiring_ || !engine_.queue_.pop(job)) {
        return;
      }
      run_stream(std::move(job), picked);
    }
  }

  std::optional<StreamFrame> next() override {
    while (ready() > 0) {
      const std::size_t slot = *current_;
      InHand& h = *slots_[slot];
      const std::size_t pos = h.next++;
      BlockFrameJob& frame = h.job.frames[pos];
      if (frame.deadline && Clock::now() >= *frame.deadline) {
        // Past its deadline when a lane would take it: resolved without
        // touching the decoder.
        DecodeResult expired;
        expired.status = DecodeStatus::kDeadlineExpired;
        book(slot, pos, std::move(expired), nullptr);
        continue;
      }
      if (h.job.block.stage_in) h.job.block.stage_in(pos, frame.llr);
      // Per-frame cancel tokens let one late frame bail at a layer
      // boundary while its lane-mates decode on; an engine-armed token
      // lives with its job until the job's last frame is booked.
      const CancelToken* token = frame.cancel;
      if (!token && frame.deadline) {
        if (!h.tokens)
          h.tokens = std::make_unique<CancelToken[]>(h.job.frames.size());
        h.tokens[pos].arm_deadline(*frame.deadline);
        token = &h.tokens[pos];
      }
      return StreamFrame{{frame.llr, token}, (slot << kPositionBits) | pos};
    }
    return std::nullopt;
  }

  /// Frames of the current job not yet handed out; when none, the count
  /// of a queued job take() pulled into the stream.
  std::size_t ready() override {
    if (current_) {
      const InHand& h = *slots_[*current_];
      if (h.next < h.job.frames.size()) return h.job.frames.size() - h.next;
      current_.reset();
    }
    return take() ? slots_[*current_]->job.frames.size() : 0;
  }

  void done(std::size_t tag, DecodeResult&& result,
            const SaturationStats& saturation) override {
    book(tag >> kPositionBits, tag & kPositionMask, std::move(result),
         &saturation);
  }

 private:
  struct InHand {
    Job job;
    std::size_t next = 0;      ///< first frame not yet handed out
    std::size_t unbooked = 0;  ///< frames not yet booked
    std::unique_ptr<CancelToken[]> tokens;  ///< engine-armed, on demand
  };
  /// A job taken while the stream ran, waiting for the stream to drain to
  /// run on `decoder` (already picked).
  struct Held {
    Job job;
    Decoder* decoder = nullptr;
  };

  /// Rung decoder cache: [0] primary, [r] = escalation ladder entry r - 1.
  /// Created lazily so a worker that never sees an escalated job never
  /// pays for the wider decoders.
  Decoder& rung_decoder(unsigned rung) {
    const auto& ladder = engine_.config_.escalation_factories;
    const std::size_t idx = std::min<std::size_t>(rung, ladder.size());
    auto& entry = decoders_[idx];
    if (!entry) {
      entry = idx == 0 ? engine_.factory_() : ladder[idx - 1]();
      LDPC_CHECK(entry != nullptr);
    }
    return *entry;
  }

  /// The decoder a block job runs on: its picker's choice, given the rung
  /// decoder. Runs on this thread, when the job is taken.
  Decoder& pick(const Job& job) {
    Decoder& rung = rung_decoder(job.block.rung);
    return job.block.decoder ? job.block.decoder(rung) : rung;
  }

  std::size_t adopt(Job job) {
    auto free_slot = std::find(slots_.begin(), slots_.end(), nullptr);
    if (free_slot == slots_.end()) free_slot = slots_.emplace(free_slot);
    *free_slot = std::make_unique<InHand>();
    (*free_slot)->unbooked = job.frames.size();
    (*free_slot)->job = std::move(job);
    return static_cast<std::size_t>(free_slot - slots_.begin());
  }

  /// Pull one queued job into the stream; false when there is none to take
  /// (or this worker retires), or when the job taken is held instead.
  bool take() {
    if (retiring_ || held_) return false;
    Job job;
    if (!engine_.queue_.try_pop(job)) return false;
    // In hand before its picker runs: a throw fails it with the stream.
    const std::size_t slot = adopt(std::move(job));
    Decoder& decoder = pick(slots_[slot]->job);
    if (&decoder != decoder_) {
      held_ = Held{std::move(slots_[slot]->job), &decoder};
      slots_[slot].reset();
      return false;
    }
    current_ = slot;
    return true;
  }

  void run_stream(Job job, Decoder* picked) {
    current_ = adopt(std::move(job));
    decoder_ = picked;
    bool threw = false;
    try {
      if (!decoder_) decoder_ = &pick(slots_[*current_]->job);
      n_ = decoder_->n();
      k_ = decoder_->k();
      decoder_->decode_stream(*this);
    } catch (...) {
      // A throwing decode must not take the worker (and every queued job
      // behind it) down.
      threw = true;
      if (decoder_) decoder_->set_cancel_token(nullptr);
    }
    fail_in_hand(threw);
    decoder_ = nullptr;
    current_.reset();
  }

  /// Book frame `pos` of in-hand job `slot` in one critical section: its
  /// slot takes `result`, decoded (`saturation` set) or expired (null).
  /// Then its hook runs, and after its last frame the job goes, LLRs and all.
  void book(std::size_t slot, std::size_t pos, DecodeResult&& result,
            const SaturationStats* saturation) {
    InHand& h = *slots_[slot];
    BlockFrameJob& frame = h.job.frames[pos];
    const auto now = Clock::now();
    {
      const MutexLock lock(engine_.state_mutex_);
      if (saturation) {
        engine_.book_ran_locked(id_, &result, *saturation, n_, k_,
                                h.job.enqueued, now);
      } else {
        ++engine_.jobs_expired_;
        engine_.finish_job_locked(now);
      }
      *frame.slot = std::move(result);
      frame.slot = nullptr;  // booked
      if (--h.unbooked == 0) {
        engine_.leave_locked(h.job);
        retiring_ = engine_.maybe_quarantine_locked(id_) || retiring_;
      }
    }
    if (h.job.block.on_booked) h.job.block.on_booked(pos);
    if (h.unbooked == 0) release(slot);
  }

  /// After a stream: every frame still unbooked in hand resolves once, its
  /// slot keeping its default (non-converged) result, and the failure
  /// counts one exception and one strike against this worker.
  void fail_in_hand(bool threw) {
    std::vector<std::pair<InHand*, std::size_t>> failed;
    for (const auto& h : slots_)
      for (std::size_t pos = 0; h && pos < h->job.frames.size(); ++pos)
        if (h->job.frames[pos].slot) failed.emplace_back(h.get(), pos);
    if (!threw && failed.empty()) return;
    const auto now = Clock::now();
    {
      const MutexLock lock(engine_.state_mutex_);
      EngineWorkerStats& stats = engine_.worker_stats_[id_];
      ++stats.exceptions;
      ++stats.strikes;
      for (const auto& [h, pos] : failed) {
        engine_.book_ran_locked(id_, nullptr, {}, 0, 0, h->job.enqueued, now);
        h->job.frames[pos].slot = nullptr;
      }
      for (const auto& h : slots_)
        if (h) engine_.leave_locked(h->job);
      retiring_ = engine_.maybe_quarantine_locked(id_) || retiring_;
    }
    for (const auto& [h, pos] : failed)
      if (const auto& hook = h->job.block.on_booked) hook(pos);
    slots_.clear();  // every job in hand, LLRs and all
  }

  void release(std::size_t slot) {
    slots_[slot].reset();
    if (current_ == slot) current_.reset();
  }

  BatchEngine& engine_;
  const unsigned id_;
  std::vector<std::unique_ptr<Decoder>> decoders_;
  /// The stream's decoder and the sizes booked per decoded frame.
  Decoder* decoder_ = nullptr;
  std::size_t n_ = 0;
  std::size_t k_ = 0;
  std::vector<std::unique_ptr<InHand>> slots_;
  std::optional<std::size_t> current_;
  std::optional<Held> held_;
  /// Quarantined: stop pulling, drain the lanes, run any held job, exit.
  bool retiring_ = false;
};

void BatchEngine::worker_main(unsigned worker_id) {
  Worker(*this, worker_id).run();
}

void BatchEngine::book_ran_locked(unsigned worker_id,
                                  const DecodeResult* result,
                                  const SaturationStats& saturation,
                                  std::size_t n, std::size_t k,
                                  Clock::time_point enqueued,
                                  Clock::time_point now) {
  EngineWorkerStats& stats = worker_stats_[worker_id];
  ++stats.jobs;
  if (result) {
    stats.sum_iterations += result->iterations;
    stats.status_counts[static_cast<std::size_t>(result->status)] += 1;
    if (result->status == DecodeStatus::kConverged) ++stats.early_terminations;
    if (result->simd_fallback != SimdFallback::kNone) ++stats.simd_fallbacks;
    if (result->status == DecodeStatus::kFaultDetected ||
        result->status == DecodeStatus::kWatchdogAbort)
      ++stats.strikes;
    stats.saturation.quantizer_clips += saturation.quantizer_clips;
    stats.saturation.datapath_clips += saturation.datapath_clips;
    stats.saturation.q_clips += saturation.q_clips;
    stats.saturation.r_clips += saturation.r_clips;
    stats.saturation.p_clips += saturation.p_clips;
    stats.saturation.degenerate_checks += saturation.degenerate_checks;
    decoded_bits_ += n;
    decoded_info_bits_ += k;
  }
  latency_us_.add(
      std::chrono::duration<double, std::micro>(now - enqueued).count());
  finish_job_locked(now);
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
