#include "runtime/supervisor.hpp"

#include <algorithm>
#include <utility>

namespace ldpc {

DecodeSupervisor::DecodeSupervisor(DecoderFactory primary,
                                   SupervisorConfig config)
    : config_(std::move(config)), engine_(std::move(primary), config_.engine) {
  validate(config_.retry);
  if (config_.retry.enabled())
    LDPC_CHECK_MSG(
        !config_.engine.escalation_factories.empty(),
        "retry without an escalation ladder re-runs the identical decode; "
        "configure BatchEngineConfig::escalation_factories");
  const bool has_harq_rung =
      std::any_of(config_.rung_kinds.begin(), config_.rung_kinds.end(),
                  [](RungKind k) { return k == RungKind::kRequestRedundancy; });
  LDPC_CHECK_MSG(!has_harq_rung || config_.on_redundancy_request != nullptr,
                 "a kRequestRedundancy rung needs the redundancy hook; "
                 "configure SupervisorConfig::on_redundancy_request");
  stats_.finished_by_attempt.resize(config_.retry.max_attempts, 0);
  stats_.recovered_by_attempt.resize(config_.retry.max_attempts, 0);
}

RungKind DecodeSupervisor::rung_kind_for(std::size_t rung) const {
  if (config_.rung_kinds.empty() || rung == 0) return RungKind::kRedecode;
  return config_.rung_kinds[std::min(rung, config_.rung_kinds.size()) - 1];
}

std::vector<BlockFrameJob> DecodeSupervisor::attempt_block(
    const std::shared_ptr<Frame>& frame, BlockJobOptions& options) {
  *frame->slot = DecodeResult{};
  std::vector<BlockFrameJob> block(1);
  block[0].frame_index = frame->frame_index;
  block[0].slot = frame->slot;
  block[0].deadline = frame->deadline;
  if (frame->build) {
    options.stage_in = [this, frame](std::size_t, std::vector<float>& llr) {
      frame->llr = frame->build();
      frame->build = nullptr;
      llr = attempt_llr(*frame);
    };
  } else {
    block[0].llr = attempt_llr(*frame);
  }
  // Attempt a runs on escalation rung a - 1 (the engine clamps rungs beyond
  // the ladder to its last entry).
  options.rung = static_cast<unsigned>(frame->attempt - 1);
  options.on_booked = [this, frame](std::size_t) { on_booked(frame); };
  return block;
}

std::vector<float> DecodeSupervisor::attempt_llr(Frame& frame) const {
  return frame.attempt < config_.retry.max_attempts ? frame.llr
                                                    : std::move(frame.llr);
}

void DecodeSupervisor::on_booked(const std::shared_ptr<Frame>& frame) {
  DecodeResult& result = *frame->slot;
  // An attempt that ran no decoder is final: expired and shed statuses are
  // not retryable, and a throw left the reset slot without hard decisions
  // (every decode returns n of them).
  const bool decoded = result.hard_bits.size() != 0;
  bool retry =
      decoded && config_.retry.should_retry(result.status, frame->attempt);
  bool abandoned = false;
  bool harq_exhausted = false;
  bool redundancy_granted = false;
  if (retry && frame->deadline &&
      std::chrono::steady_clock::now() >= *frame->deadline) {
    // The re-decode would expire in the queue anyway; give up now and let
    // this attempt's result stand.
    retry = false;
    abandoned = true;
  }
  if (retry && rung_kind_for(frame->attempt) == RungKind::kRequestRedundancy) {
    // The next rung needs new channel information before it may decode. The
    // hook combines one retransmission into the frame's buffer — or reports
    // the link out of redundancy, which is a *typed* terminal outcome, not
    // a silent re-decode of LLRs the ladder already failed on.
    if (config_.on_redundancy_request(frame->frame_index, frame->attempt + 1,
                                      frame->llr)) {
      redundancy_granted = true;
    } else {
      retry = false;
      harq_exhausted = true;
    }
  }
  if (retry) {
    {
      // Counted before the submit: the next attempt may finalize the frame,
      // and drain() return, before submit_retry does. A granted
      // retransmission consumed link redundancy even if the resubmit fails.
      const MutexLock lock(stats_mutex_);
      ++stats_.retries_submitted;
      if (redundancy_granted) ++stats_.redundancy_requests;
    }
    DecodeResult last = std::move(result);
    ++frame->attempt;
    BlockJobOptions options;
    std::vector<BlockFrameJob> block = attempt_block(frame, options);
    // Capacity-exempt: this runs on a worker thread, which must never
    // block on queue space it is itself responsible for freeing. Not under
    // stats_mutex_, like every engine submit.
    if (engine_.submit_retry(std::move(block), std::move(options)))
      return;  // the next attempt owns the slot now
    // Engine stopped under us: this attempt is final after all.
    --frame->attempt;
    result = std::move(last);
  }
  if (harq_exhausted) result.status = DecodeStatus::kHarqExhausted;
  const MutexLock lock(stats_mutex_);
  if (retry) --stats_.retries_submitted;  // the resubmit was refused
  const std::size_t index = frame->attempt - 1;
  ++stats_.finished_by_attempt[index];
  if (result.status == DecodeStatus::kConverged)
    ++stats_.recovered_by_attempt[index];
  else if (harq_exhausted)
    ++stats_.harq_exhausted_frames;
  else if (frame->attempt >= config_.retry.max_attempts && decoded)
    ++stats_.exhausted_frames;
  if (abandoned) ++stats_.retries_abandoned_deadline;
  // Last: once the count reaches zero, drain() returns and the caller may
  // reuse the slot.
  if (--pending_ == 0) all_final_.notify_all();
}

SubmitStatus DecodeSupervisor::submit(
    std::size_t frame_index, std::vector<float> llr, DecodeResult* slot,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  return submit_frame(std::make_shared<Frame>(
      Frame{frame_index, std::move(llr), nullptr, slot, deadline}));
}

SubmitStatus DecodeSupervisor::submit_staged(
    std::size_t frame_index, LlrBuilder build, DecodeResult* slot,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  LDPC_CHECK(build != nullptr);
  return submit_frame(std::make_shared<Frame>(
      Frame{frame_index, {}, std::move(build), slot, deadline}));
}

SubmitStatus DecodeSupervisor::submit_frame(
    const std::shared_ptr<Frame>& frame) {
  LDPC_CHECK(frame->slot != nullptr);
  BlockJobOptions options;
  std::vector<BlockFrameJob> block = attempt_block(frame, options);
  {
    const MutexLock lock(stats_mutex_);
    ++pending_;
  }
  // Not under stats_mutex_: a shed runs the evicted frames' hooks, which
  // finalize under it, on this thread.
  const SubmitStatus status =
      engine_.submit_block(std::move(block), std::move(options));
  if (!submit_accepted(status)) {
    const MutexLock lock(stats_mutex_);
    if (--pending_ == 0) all_final_.notify_all();
  }
  return status;
}

void DecodeSupervisor::drain() {
  MutexLock lock(stats_mutex_);
  while (pending_ != 0) lock.wait(all_final_);
}

SupervisorMetrics DecodeSupervisor::metrics() const {
  SupervisorMetrics m;
  m.engine = engine_.snapshot();
  {
    const MutexLock lock(stats_mutex_);
    m.retry = stats_;
  }
  return m;
}

}  // namespace ldpc
