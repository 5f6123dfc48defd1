// Supervision and admission-control layer over the batch decode engine.
//
// BatchEngine moves frames through a worker pool; DecodeSupervisor makes
// that pool a *service*: every frame carries an optional deadline, failed
// decodes are re-submitted under a bounded retry/escalation policy
// (runtime/retry_policy.hpp), the queue's overload policy turns producer
// overrun into explicit rejection or shedding instead of unbounded memory,
// and worker quarantine (BatchEngineConfig::quarantine_strike_threshold)
// retires decoding threads that keep producing damaged results.
//
// Retry flow: each attempt is a one-frame block job on the attempt's
// escalation rung. Its on_booked hook reads the result the engine just
// wrote into the caller's slot and, on a retryable status, re-submits the
// frame on the next rung — via the engine's capacity-exempt retry path, so
// a worker can never deadlock against its own backlog. The caller's slot
// always ends up holding the *final* attempt's result (or kDeadlineExpired
// / kShedOverload if the system gave up before a decoder ran). Attempts are
// keyed by (frame_index, attempt), preserving the engine's determinism
// contract: decoded results are bit-identical for any worker count.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/batch_engine.hpp"
#include "runtime/retry_policy.hpp"
#include "util/thread_annotations.hpp"

namespace ldpc {

/// Called (on a worker thread) before re-submitting a frame whose next rung
/// is RungKind::kRequestRedundancy: the link layer combines one HARQ
/// retransmission into the frame's LLR buffer (src/harq/llr_buffer.hpp) so
/// the re-decode sees new channel information. `next_attempt` is the
/// 1-based attempt the redundancy feeds. `llr` holds the LLRs the failed
/// attempt decoded; the hook may replace them with the next attempt's, and
/// if it leaves them untouched the next attempt re-decodes them. Return
/// false when the frame's transmission budget is exhausted — the frame then
/// resolves exactly once with DecodeStatus::kHarqExhausted. Attempts for a
/// frame are strictly sequential, so the hook may mutate that frame's state
/// without locks; it must derive any randomness from (frame_index,
/// next_attempt), never from the worker, to preserve the engine's
/// determinism contract.
using RedundancyHook = std::function<bool(std::size_t frame_index,
                                          std::size_t next_attempt,
                                          std::vector<float>& llr)>;

struct SupervisorConfig {
  BatchEngineConfig engine;  ///< pool size, queue, quarantine, escalation
  RetryPolicy retry;         ///< when and how often to re-attempt
  /// Kind of each escalation rung, parallel to engine.escalation_factories
  /// (attempt a uses rung a - 1; rungs beyond the list clamp to its last
  /// entry, mirroring the engine's factory clamp). Empty = every rung
  /// kRedecode, the pre-HARQ behaviour.
  std::vector<RungKind> rung_kinds;
  /// Required when any rung is kRequestRedundancy; never called otherwise.
  RedundancyHook on_redundancy_request;
};

/// Retry/recovery accounting, aggregated over the supervisor's lifetime.
struct RetryStats {
  std::size_t retries_submitted = 0;  ///< re-attempts enqueued
  /// Retries skipped because the frame's deadline had already passed when
  /// its previous attempt finished (the re-decode would be dead on arrival).
  std::size_t retries_abandoned_deadline = 0;
  /// Frames made final on attempt a, indexed [a - 1]: every accepted
  /// frame once, including those whose last attempt ran no decoder
  /// (expired, shed or threw).
  std::vector<std::size_t> finished_by_attempt;
  /// Frames whose *final converged* decode happened on attempt a, [a - 1]:
  /// index 0 is first-try convergence, higher indices are rescues by the
  /// escalation ladder.
  std::vector<std::size_t> recovered_by_attempt;
  /// Frames that burned every attempt and still failed: their last
  /// permitted attempt decoded without converging. A last attempt that ran
  /// no decoder is not counted here.
  std::size_t exhausted_frames = 0;
  /// Retransmissions the redundancy hook granted (kRequestRedundancy rungs).
  std::size_t redundancy_requests = 0;
  /// Frames finalized kHarqExhausted: the ladder asked for a retransmission
  /// and the link had none left. Disjoint from exhausted_frames (those
  /// burned max_attempts; these stopped earlier, out of redundancy).
  std::size_t harq_exhausted_frames = 0;
};

struct SupervisorMetrics {
  EngineMetrics engine;
  RetryStats retry;
};

class DecodeSupervisor {
 public:
  DecodeSupervisor(DecoderFactory primary, SupervisorConfig config);

  /// Submit one frame of LLRs. `*slot` (required; must outlive drain()) is
  /// reset, then receives the final attempt's result; an attempt whose
  /// decode threw leaves it without hard decisions. `deadline`, when set,
  /// bounds the frame's total time in the system across all attempts.
  [[nodiscard]] SubmitStatus submit(
      std::size_t frame_index, std::vector<float> llr, DecodeResult* slot,
      std::optional<std::chrono::steady_clock::time_point> deadline = {});

  /// Builds one frame's LLRs (submit_staged).
  using LlrBuilder = std::function<std::vector<float>()>;

  /// submit() for a frame whose LLRs cost about a decode to build
  /// (information bits, encode, channel): `build` runs on the worker that
  /// takes the frame's first attempt, right before it decodes, so building
  /// spreads over the pool instead of serializing on the submitting thread.
  /// Later attempts re-decode what it built. It must derive any randomness
  /// from the frame, never from the worker. A frame expired before its
  /// first attempt is never built; a throw fails the attempt like a
  /// throwing decode.
  [[nodiscard]] SubmitStatus submit_staged(
      std::size_t frame_index, LlrBuilder build, DecodeResult* slot,
      std::optional<std::chrono::steady_clock::time_point> deadline = {});

  /// Block until every accepted frame is final: its last attempt booked,
  /// its slot and its RetryStats published.
  void drain() LDPC_EXCLUDES(stats_mutex_);

  SupervisorMetrics metrics() const LDPC_EXCLUDES(stats_mutex_);

 private:
  /// One frame's state, shared by the hooks of its strictly sequential
  /// attempts.
  struct Frame {
    std::size_t frame_index = 0;
    /// The LLRs the next attempt decodes; the last possible attempt takes
    /// them, earlier ones a copy.
    std::vector<float> llr;
    /// Set by submit_staged until the first attempt built `llr`.
    LlrBuilder build;
    DecodeResult* slot = nullptr;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::size_t attempt = 1;  ///< attempt currently running (1-based)
  };

  /// Submit a frame's first attempt (submit, submit_staged).
  SubmitStatus submit_frame(const std::shared_ptr<Frame>& frame)
      LDPC_EXCLUDES(stats_mutex_);
  /// The frame's current attempt as a one-frame block on rung attempt - 1,
  /// its options (rung, a staged frame's stage-in, on_booked hook) in
  /// `options`. Resets the slot: a throwing decode leaves it untouched.
  std::vector<BlockFrameJob> attempt_block(const std::shared_ptr<Frame>& frame,
                                           BlockJobOptions& options);
  /// The LLRs the frame's current attempt decodes: a copy while a later
  /// attempt may need them (the engine consumes a job's LLRs), else the
  /// frame's own.
  std::vector<float> attempt_llr(Frame& frame) const;
  /// Kind of escalation rung `rung` (1-based attempt - 1), clamped to the
  /// configured list; kRedecode when no kinds were configured.
  RungKind rung_kind_for(std::size_t rung) const;
  /// An attempt's on_booked hook: submit the next attempt, or make this
  /// one final.
  void on_booked(const std::shared_ptr<Frame>& frame)
      LDPC_EXCLUDES(stats_mutex_);

  SupervisorConfig config_;

  mutable Mutex stats_mutex_;
  std::condition_variable all_final_;
  RetryStats stats_ LDPC_GUARDED_BY(stats_mutex_);
  /// Accepted frames not yet final. Counted here, not by the engine: its
  /// drain() may return between booking one attempt and the hook
  /// submitting the next.
  std::size_t pending_ LDPC_GUARDED_BY(stats_mutex_) = 0;
  /// Declared last: its destructor joins the workers, and any hook still
  /// running on them, before the members above are destroyed.
  BatchEngine engine_;
};

}  // namespace ldpc
