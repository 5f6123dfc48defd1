// Multi-codeword batch decode engine.
//
// The library's decoders process one frame per call; production traffic
// arrives as streams of frames. BatchEngine maps a stream onto a pool of
// worker threads, each owning a private Decoder instance (decoders carry
// mutable message memory), fed through a bounded job queue whose overload
// policy (block / reject-newest / shed-oldest) is the backpressure or
// admission-control mechanism.
//
// Block jobs stream: each worker feeds its decoder's decode_stream from the
// frames of the job it holds, and when that job's frames are all handed out
// and a lane frees, from the next queued job for the same decoder — so an
// inter-frame-batched decoder's lanes stay full across job boundaries. A
// frame is booked (slot written, counters, latency sample) the moment its
// decode finishes, not when its job or block does.
//
// Service-grade extras on top of the plain pool:
//   * per-frame deadlines — a frame whose deadline has passed when a lane
//     would take it is completed with DecodeStatus::kDeadlineExpired
//     without touching a decoder, and a cooperative CancelToken makes a
//     running decode bail between layers once its deadline passes;
//   * worker supervision — a worker whose strike count (exceptions +
//     fault-detected / watchdog-abort outcomes) trips a threshold is
//     quarantined and a replacement thread is spawned from the factory;
//   * escalation rungs — jobs may request a decoder from an escalation
//     ladder (e.g. more iterations, wider fixed-point format) instead of
//     the primary factory, the mechanism the retry supervisor
//     (runtime/supervisor.hpp) builds on;
//   * drain_until — a bounded drain that reports straggler frames instead
//     of blocking forever on a wedged job.
//
// Determinism contract: the engine never makes an output depend on which
// worker ran a job or in what order jobs completed. Results land in
// caller-provided slots addressed by frame index, and any randomness behind
// a frame's LLRs must be derived from the frame itself (e.g. frame index
// and attempt number), never from the worker — the same discipline the BER
// harness follows. Under that contract the output of a batch is
// bit-identical for every worker count. Deadlines and load shedding are
// inherently timing-dependent and sit outside the contract: which frames
// expire or are shed can vary, but the result of every frame that *is*
// decoded cannot.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/decoder.hpp"
#include "core/decoder_factory.hpp"
#include "runtime/job_queue.hpp"
#include "util/stats.hpp"
#include "util/thread_annotations.hpp"

namespace ldpc {

struct BatchEngineConfig {
  unsigned num_workers = 1;
  /// Jobs the queue holds before the overload policy engages.
  std::size_t queue_capacity = 256;
  /// What a full queue does to a blocking submit: kBlock (backpressure,
  /// the default), kRejectNewest (admission control) or kShedOldest
  /// (load shedding; the evicted job completes as kShedOverload).
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
  /// Worker supervision: quarantine a worker once its strike count
  /// (exceptions + kFaultDetected / kWatchdogAbort outcomes) reaches this
  /// threshold, spawning a replacement from the factory. 0 disables.
  std::size_t quarantine_strike_threshold = 0;
  /// Lifetime cap on replacement workers; once exhausted, strikes no longer
  /// quarantine (the pool must never shrink to zero decoding threads).
  std::size_t max_replacement_workers = 4;
  /// Escalation decoder ladder: a job submitted with rung r >= 1 decodes on
  /// escalation_factories[min(r, size) - 1] instead of the primary factory
  /// (rungs beyond the ladder clamp to its last entry; an empty ladder
  /// clamps every rung to the primary decoder). Used by the retry
  /// supervisor to re-attempt failed frames with more iterations or a
  /// wider fixed-point format.
  std::vector<DecoderFactory> escalation_factories;
  /// Frames per block for decode_batch(): values > 1 group consecutive
  /// frames into block jobs so an inter-frame-batched decoder
  /// (Decoder::block_width() > 1) keeps every SIMD lane full. 0 and 1 both
  /// mean one-frame jobs. Deadlines, cancellation, and the determinism
  /// contract are unchanged — each frame still resolves exactly once into
  /// its own slot; only queue granularity (and therefore shed/occupancy
  /// granularity) becomes the block.
  std::size_t block_frames = 1;
};

/// Per-worker aggregation of the DecodeResult / saturation statistics the
/// decoders already produce, plus failure accounting. Only frames that
/// reached a decoder count here; expired and shed frames are engine-level
/// events (EngineMetrics::jobs_expired / jobs_shed).
struct EngineWorkerStats {
  std::size_t jobs = 0;  ///< frames this worker ran
  std::size_t sum_iterations = 0;
  /// Decodes that satisfied parity and stopped (DecodeStatus::kConverged) —
  /// the early-termination events that make average latency < worst case.
  std::size_t early_terminations = 0;
  /// Outcome histogram indexed by static_cast<std::size_t>(DecodeStatus).
  std::array<std::size_t, kNumDecodeStatuses> status_counts{};
  SaturationStats saturation;  ///< accumulated over this worker's decodes
  std::size_t exceptions = 0;  ///< streams whose decode or picker threw
  /// Decodes a SIMD decoder delegated to its scalar twin instead of the
  /// lane kernel (DecodeResult::simd_fallback != kNone). A benchmark or
  /// serving config silently riding the slow-but-correct scalar path shows
  /// up here instead of as a mystery throughput cliff.
  std::size_t simd_fallbacks = 0;
  /// Supervision strikes: exceptions plus fault-detected / watchdog-abort
  /// decode outcomes — the "this worker keeps producing damaged results"
  /// signal the quarantine threshold is compared against.
  std::size_t strikes = 0;
  bool quarantined = false;  ///< retired by supervision; thread has exited
};

/// Order statistics of per-job latency (enqueue -> completion, so queue
/// wait is included — the number a caller sizing queue_capacity cares
/// about). Microseconds. Only decoded jobs contribute samples; expired and
/// shed jobs would skew the distribution with near-zero non-decodes. Every
/// sample lands in one fixed LogLinearHistogram (util/stats.hpp): count,
/// mean and max are exact, the percentiles lie within one 6.25%-wide bucket
/// of the exact values, and memory stays constant however long the engine
/// runs.
struct LatencySummary {
  std::size_t samples = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;
};

struct EngineMetrics {
  std::size_t jobs_submitted = 0;
  std::size_t jobs_completed = 0;  ///< includes expired and shed jobs
  std::size_t decoded_bits = 0;  ///< sum of codeword lengths n decoded
  /// Sum of information-bit counts k over decoded frames (0 when the
  /// decoders cannot report k). Kept separate from decoded_bits because
  /// "info throughput" and "code throughput" differ by the code rate and
  /// conflating them misquotes results by 2x at rate 1/2.
  std::size_t decoded_info_bits = 0;
  /// Deadline expired while queued: completed without touching a decoder.
  std::size_t jobs_expired = 0;
  /// Evicted from a full queue under kShedOldest (completed kShedOverload).
  std::size_t jobs_shed = 0;
  /// Refused at submit: kRejectNewest on a full queue, or engine stopped.
  std::size_t jobs_rejected = 0;
  std::size_t workers_quarantined = 0;
  std::size_t workers_spawned = 0;  ///< replacement threads started
  /// First submit -> last completion (now, while jobs are in flight).
  double wall_seconds = 0.0;
  /// Coded-bit rate: decoded_bits / wall_seconds / 1e6. The number to
  /// compare against the paper's "decoding throughput" figures.
  double code_throughput_mbps = 0.0;
  /// Information-bit rate: decoded_info_bits / wall_seconds / 1e6 —
  /// code_throughput_mbps * rate. The number a link budget cares about.
  double info_throughput_mbps = 0.0;
  std::size_t queue_capacity = 0;
  double queue_mean_occupancy = 0.0;
  std::size_t queue_max_occupancy = 0;
  LatencySummary latency;
  std::vector<EngineWorkerStats> workers;

  /// Sum of one status bucket over all workers.
  std::size_t status_total(DecodeStatus s) const;
  std::size_t sum_iterations() const;
  /// Mean iterations per frame that ran: sum_iterations() over the
  /// workers' jobs. Expired and shed frames ran no iteration and are not in
  /// the denominator.
  double avg_iterations() const;
};

/// What happened to a submitted job at the queue door.
enum class SubmitStatus {
  kAccepted,
  kAcceptedShedOldest,  ///< accepted; the oldest queued job was evicted
  kRejectedQueueFull,   ///< kRejectNewest policy refused it (slot untouched)
  kRejectedClosed,      ///< engine stopped; job not enqueued
};

/// True for the two statuses under which the job will complete.
inline bool submit_accepted(SubmitStatus s) {
  return s == SubmitStatus::kAccepted || s == SubmitStatus::kAcceptedShedOldest;
}

inline const char* to_string(SubmitStatus s) {
  switch (s) {
    case SubmitStatus::kAccepted:          return "accepted";
    case SubmitStatus::kAcceptedShedOldest: return "accepted-shed-oldest";
    case SubmitStatus::kRejectedQueueFull: return "rejected-queue-full";
    case SubmitStatus::kRejectedClosed:    return "rejected-closed";
  }
  return "?";
}

/// Per-job submission options.
struct JobOptions {
  /// Absolute completion deadline. A job not yet decoding past its
  /// deadline is completed kDeadlineExpired without decoding; a job
  /// mid-decode bails cooperatively at the next layer boundary (decoders
  /// that support CancelToken). No deadline = the job may wait and run
  /// forever.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Escalation rung selecting the decoder (0 = primary factory).
  unsigned rung = 0;
};

/// One frame of a block submission (submit_block; the other submits wrap their
/// frame in a one-frame job of the same shape): the engine-owned LLRs (freed
/// with the job), the caller's result slot, and an optional per-frame deadline.
/// Frames in one block share a worker and a decoder but resolve individually —
/// every frame's slot is written exactly once, when that frame finishes;
/// expired frames are reported kDeadlineExpired without decoding, and the rest
/// of the block decodes normally.
struct BlockFrameJob {
  std::size_t frame_index = 0;
  std::vector<float> llr;
  DecodeResult* slot = nullptr;
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Caller-owned token the frame decodes under instead of one the engine
  /// arms from `deadline` — for a caller that may also cancel the frame
  /// (a drain). The caller arms it and keeps it alive until the frame is
  /// booked; `deadline` still decides expiry when a lane would take it.
  const CancelToken* cancel = nullptr;
};

/// Per-block options of submit_block.
struct BlockJobOptions {
  /// Escalation rung selecting the worker's decoder (0 = primary factory).
  unsigned rung = 0;
  /// Picks the decoder the block runs on, given the worker's rung decoder
  /// — e.g. that worker's decoder for the block's code, so one engine
  /// serves many codes. The engine books the picked decoder's n() and k().
  /// Runs on the worker thread; a throw fails the block like a throwing
  /// decode. Empty = the rung decoder itself.
  std::function<Decoder&(Decoder&)> decoder;
  /// Fills a frame's LLRs, given its position in the block, on the worker
  /// thread when a lane takes the frame: after its deadline check (an
  /// expired frame is never built), right before it decodes. For callers
  /// whose frames cost about a decode to build (information bits, encode,
  /// channel): building then spreads over the pool instead of serializing
  /// on the submitting thread. A throw fails the frame's stream like a
  /// throwing decode. Empty = the frames carry their LLRs.
  std::function<void(std::size_t position, std::vector<float>& llr)> stage_in;
  /// Runs once per frame, with the frame's position in the block, right
  /// after the engine resolved and booked that frame (slot written,
  /// counters, latency and drain accounting updated) — decoded, expired,
  /// failed or shed alike. Runs on the worker thread, or on the submitting
  /// thread for a block shed from a full queue. Not run for a refused
  /// submit. Must not throw. drain() may return while the last hooks still
  /// run — a caller that needs their effect waits on it through its own
  /// channel.
  std::function<void(std::size_t position)> on_booked;
};

/// Result of a bounded drain (drain_until / drain_for).
struct DrainReport {
  bool completed = false;        ///< all jobs finished before the deadline
  std::size_t outstanding = 0;   ///< frames still queued or running at return
  /// Frame indices of the stragglers, ascending (one entry per frame even
  /// if it has several attempts in flight).
  std::vector<std::size_t> straggler_frames;
};

class BatchEngine {
 public:
  /// Spawns the worker pool; `factory` is invoked once on each worker
  /// thread (it must be safe to call concurrently).
  BatchEngine(DecoderFactory factory, BatchEngineConfig config = {});

  /// Drains nothing: outstanding jobs still run to completion, but the
  /// destructor does not wait for a drain() the caller skipped. It closes
  /// the queue and joins the workers.
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  /// Submit one decode job: a one-frame block, decoded through the
  /// worker's stream like any other block. `*slot` receives the
  /// result when the job completes; it must stay valid until drain()
  /// returns and must be unique per job (slot-per-frame-index is the
  /// determinism contract). Blocks while the queue is full under kBlock;
  /// never blocks under the other overload policies. The caller must handle
  /// rejection (the LLR frame is consumed only when the submit is
  /// accepted).
  [[nodiscard]] SubmitStatus submit(std::size_t frame_index,
                                    std::vector<float> llr, DecodeResult* slot,
                                    JobOptions options = {});

  /// Non-blocking submit: false (llr left intact) when the queue is full.
  /// Policy-independent — never sheds and never counts as a rejection.
  bool try_submit(std::size_t frame_index, std::vector<float>& llr,
                  DecodeResult* slot, JobOptions options = {});

  /// Submit a block of frames as one queue entry, decoded by one worker's
  /// stream — the path that keeps an inter-frame-batched SIMD decoder's
  /// lanes full. Each frame counts as one job in the engine's counters and
  /// resolves exactly once: expired frames complete kDeadlineExpired (when
  /// a lane would take them, or cooperatively mid-decode via their
  /// per-frame CancelToken), shed blocks complete every frame
  /// kShedOverload, and decoded frames land in their own slots as each
  /// finishes. `options` selects the decoder for the whole block and the
  /// hook run as each frame is booked. Blocks may be any size >= 1; a
  /// worker whose block runs short of frames fills its free lanes from the
  /// next queued block for the same decoder.
  [[nodiscard]] SubmitStatus submit_block(std::vector<BlockFrameJob> frames,
                                          BlockJobOptions options = {});

  /// Capacity-exempt submit_block for retry layers: enqueues even on a
  /// full queue, so an on_booked hook on a worker thread never blocks on
  /// its own backlog (bounded in practice by the number of frames in
  /// flight). Returns false only when the engine is stopped.
  [[nodiscard]] bool submit_retry(std::vector<BlockFrameJob> frames,
                                  BlockJobOptions options = {});

  /// Block until every job submitted so far has completed.
  void drain() LDPC_EXCLUDES(state_mutex_);

  /// Bounded drain: wait until every submitted job completes or `deadline`
  /// passes, whichever is first. On timeout the report lists the straggler
  /// frames still in flight — the caller decides whether to keep waiting,
  /// shed, or tear down; the engine never hangs a serving thread forever.
  DrainReport drain_until(std::chrono::steady_clock::time_point deadline)
      LDPC_EXCLUDES(state_mutex_);

  /// Convenience overload: drain with a relative timeout.
  DrainReport drain_for(std::chrono::nanoseconds timeout) {
    return drain_until(std::chrono::steady_clock::now() + timeout);
  }

  /// Synchronous convenience wrapper: decode `frames`, return results in
  /// input order. Equivalent to submit-all + drain. When
  /// config.block_frames > 1, consecutive frames are grouped into
  /// submit_block calls of that size (final block ragged).
  std::vector<DecodeResult> decode_batch(
      const std::vector<std::vector<float>>& frames);

  /// Tear-free snapshot of the engine counters; callable from any thread at
  /// any time, including while jobs are in flight. Every field — job
  /// counters, per-worker stats, latency percentiles *and* the queue
  /// occupancy statistics — is captured under the engine's state mutex in
  /// one critical section, so a stats endpoint polling mid-burst can never
  /// observe, say, jobs_completed from after a completion but a latency
  /// distribution from before it (workers take the same mutex to record
  /// both together).
  EngineMetrics snapshot() const LDPC_EXCLUDES(state_mutex_);

  unsigned num_workers() const { return config_.num_workers; }

 private:
  /// The engine's one job kind: frames that share a worker and a decoder,
  /// decoded through the worker's lane stream. submit / try_submit enqueue
  /// a one-frame block; submit_block, submit_retry and decode_batch blocks
  /// of any size.
  struct Job {
    std::vector<BlockFrameJob> frames;
    /// Block options; submit and try_submit set only the rung.
    BlockJobOptions block;
    std::chrono::steady_clock::time_point enqueued;
    std::size_t record = 0;  ///< its entry in in_flight_ while it has one
  };

  /// How enqueue pushes: under the overload policy (submit, submit_block),
  /// non-blocking (try_submit) or capacity-exempt (submit_retry).
  enum class EnqueueMode { kPolicy, kTry, kForced };

  /// Check the job (>= 1 frame, every frame with a slot), record its frames
  /// as submitted and push it. A refused job is un-recorded and left intact
  /// in `job`; an evicted (shed) one resolves every frame kShedOverload.
  SubmitStatus enqueue(Job& job, EnqueueMode mode) LDPC_EXCLUDES(state_mutex_);
  /// One worker thread: its rung decoders and its lane stream of block
  /// jobs (batch_engine.cpp).
  class Worker;

  /// Run a Worker until the queue closes or it is quarantined.
  void worker_main(unsigned worker_id);
  /// Bookkeeping for one finished frame.
  void finish_job_locked(std::chrono::steady_clock::time_point now)
      LDPC_REQUIRES(state_mutex_);
  /// Drop `job` from in_flight_: booked, shed, refused or failed.
  void leave_locked(const Job& job) LDPC_REQUIRES(state_mutex_);
  /// Book one frame that reached a decoder on worker_id: its statistics
  /// (none when `result` is null, i.e. the decode threw), n and k decoded
  /// bits, a latency sample and its completion.
  void book_ran_locked(unsigned worker_id, const DecodeResult* result,
                       const SaturationStats& saturation, std::size_t n,
                       std::size_t k,
                       std::chrono::steady_clock::time_point enqueued,
                       std::chrono::steady_clock::time_point now)
      LDPC_REQUIRES(state_mutex_);
  /// Quarantine worker_id if its strikes crossed the threshold, spawning a
  /// replacement. Returns true when the calling worker must retire.
  bool maybe_quarantine_locked(unsigned worker_id)
      LDPC_REQUIRES(state_mutex_);

  DecoderFactory factory_;
  BatchEngineConfig config_;
  BoundedJobQueue<Job> queue_;

  mutable Mutex state_mutex_;
  std::condition_variable all_done_;
  /// The pool itself is guarded: a quarantined worker appends its
  /// replacement thread concurrently with the destructor's join loop.
  std::vector<std::thread> workers_ LDPC_GUARDED_BY(state_mutex_);
  std::size_t submitted_ LDPC_GUARDED_BY(state_mutex_) = 0;
  std::size_t completed_ LDPC_GUARDED_BY(state_mutex_) = 0;
  std::size_t decoded_bits_ LDPC_GUARDED_BY(state_mutex_) = 0;
  std::size_t decoded_info_bits_ LDPC_GUARDED_BY(state_mutex_) = 0;
  std::size_t jobs_expired_ LDPC_GUARDED_BY(state_mutex_) = 0;
  std::size_t jobs_shed_ LDPC_GUARDED_BY(state_mutex_) = 0;
  std::size_t jobs_rejected_ LDPC_GUARDED_BY(state_mutex_) = 0;
  std::size_t workers_quarantined_ LDPC_GUARDED_BY(state_mutex_) = 0;
  std::size_t workers_spawned_ LDPC_GUARDED_BY(state_mutex_) = 0;
  /// A record (Job::record) per accepted, unresolved job: a span over its
  /// frames, which stay put as the job moves; emptied and freed when the
  /// job leaves. drain_until lists the frames whose slot is unbooked.
  std::vector<std::span<const BlockFrameJob>> in_flight_
      LDPC_GUARDED_BY(state_mutex_);
  std::vector<std::size_t> free_records_ LDPC_GUARDED_BY(state_mutex_);
  bool started_ LDPC_GUARDED_BY(state_mutex_) = false;
  std::chrono::steady_clock::time_point first_enqueue_
      LDPC_GUARDED_BY(state_mutex_);
  std::chrono::steady_clock::time_point last_complete_
      LDPC_GUARDED_BY(state_mutex_);
  LogLinearHistogram latency_us_ LDPC_GUARDED_BY(state_mutex_);
  std::vector<EngineWorkerStats> worker_stats_ LDPC_GUARDED_BY(state_mutex_);
};

}  // namespace ldpc
