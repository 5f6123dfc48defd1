// Common decoder interface.
//
// Every decoder in this library — floating-point baselines, the paper's
// fixed-point layered scaled-min-sum, and the two cycle-accurate hardware
// architectures — consumes channel LLRs (positive = bit 0 more likely, the
// convention of Algorithm 1's  Pn = 2 yn / sigma^2  with BPSK 0 -> +1) and
// produces hard decisions plus convergence metadata.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "util/bitvec.hpp"
#include "util/check.hpp"

namespace ldpc {

class FaultInjector;  // fault/fault_injector.hpp

/// How a decode ended. `kConverged` is the only state in which the output
/// is a codeword; every other state flags the frame as unreliable instead
/// of silently emitting garbage (graceful degradation).
enum class DecodeStatus {
  kConverged,      ///< H * hard_bits == 0 at exit
  kMaxIterations,  ///< iteration budget exhausted, parity still failing
  kWatchdogAbort,  ///< watchdog detected a non-convergent/oscillating decode
  kFaultDetected,  ///< parity recheck failed on a decode that saw injected
                   ///< faults — the corruption was caught at the output
  kDeadlineExpired,  ///< deadline passed while queued, or a cooperative
                     ///< cancellation cut the decode short mid-flight
  kShedOverload,   ///< evicted from a full queue under OverloadPolicy::
                   ///< kShedOldest before any decoder touched it
  kHarqExhausted,  ///< HARQ retransmission budget exhausted: the retry
                   ///< supervisor wanted more redundancy for this frame but
                   ///< the link had none left (src/harq/). Assigned by the
                   ///< supervisor, never by a decoder.
};

/// Number of DecodeStatus values — sizes the status histograms.
inline constexpr std::size_t kNumDecodeStatuses = 7;

inline const char* to_string(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kConverged:       return "converged";
    case DecodeStatus::kMaxIterations:   return "max-iters";
    case DecodeStatus::kWatchdogAbort:   return "watchdog-abort";
    case DecodeStatus::kFaultDetected:   return "fault-detected";
    case DecodeStatus::kDeadlineExpired: return "deadline-expired";
    case DecodeStatus::kShedOverload:    return "shed-overload";
    case DecodeStatus::kHarqExhausted:   return "harq-exhausted";
  }
  return "?";
}

/// Why a SIMD decoder delegated a decode to its scalar twin instead of the
/// lane kernel. kNone means the vector path ran. Recorded in DecodeResult
/// so a benchmark or serving config silently riding the (correct but slow)
/// scalar path is externally visible instead of a mystery perf cliff.
enum class SimdFallback : std::uint8_t {
  kNone,            ///< lane kernel executed
  kWideFormat,      ///< format (or offset) outside the int16 lane envelope
  kFaultInjector,   ///< active fault campaign: corruption order is scalar
  kOutOfRailInput,  ///< quantized entry point saw out-of-rail codes
  kObserver,        ///< per-iteration observer needs single-frame cadence
};

inline const char* to_string(SimdFallback f) {
  switch (f) {
    case SimdFallback::kNone:           return "none";
    case SimdFallback::kWideFormat:     return "wide-format";
    case SimdFallback::kFaultInjector:  return "fault-injector";
    case SimdFallback::kOutOfRailInput: return "out-of-rail-input";
    case SimdFallback::kObserver:       return "observer";
  }
  return "?";
}

struct DecodeResult {
  BitVec hard_bits;            ///< n hard decisions (1 = bit value 1)
  std::size_t iterations = 0;  ///< full iterations actually executed
  bool converged = false;      ///< true iff H * hard_bits == 0 at exit
  DecodeStatus status = DecodeStatus::kMaxIterations;
  std::size_t faults_injected = 0;  ///< upsets landed during this decode
  /// Set by the SIMD decoders when the decode ran on the scalar twin
  /// instead of the lane kernel; kNone everywhere else.
  SimdFallback simd_fallback = SimdFallback::kNone;
};

/// Dynamic-range accounting for one decode. Fixed-point decoders fill this
/// in (when DecoderOptions::count_saturation is set); floating-point
/// decoders report zeros. Aggregated per worker by the runtime batch engine.
/// Clip events are attributed to the clamp site that produced them so the
/// static range verifier (src/analysis/range_verify.hpp) can be
/// cross-checked per site: a site it proves unsaturable must show a zero
/// counter on every decode. `datapath_clips` stays the aggregate
/// (q + r + p) for callers that only care about "did anything clip".
struct SaturationStats {
  long long quantizer_clips = 0;  ///< channel LLRs clipped at the rails
  long long datapath_clips = 0;   ///< q_clips + r_clips + p_clips
  long long q_clips = 0;          ///< stage-1 Q = P - R clamp
  long long r_clips = 0;          ///< stage-2 R' clamp after scaling
  long long p_clips = 0;          ///< stage-2 P' = Q + R' clamp (and the
                                  ///< flooding VNU's posterior-total clamp)
  /// Check rows with degree < 2 encountered by the layered kernel (R' has no
  /// extrinsic input and is forced to 0); counted once per row per layer
  /// pass regardless of count_saturation.
  long long degenerate_checks = 0;
};

/// Output-side parity recheck: classify a finished decode. Every decoder
/// funnels its exit through this so the status taxonomy stays consistent.
/// `cancelled` marks a decode cut short by a CancelToken — it outranks every
/// failure cause except an actual converged output (a decode that happened
/// to satisfy parity before bailing is still a codeword).
inline DecodeStatus classify_exit(bool parity_ok, bool watchdog_fired,
                                  std::size_t faults_injected,
                                  bool cancelled = false) {
  if (parity_ok) return DecodeStatus::kConverged;
  if (cancelled) return DecodeStatus::kDeadlineExpired;
  if (watchdog_fired) return DecodeStatus::kWatchdogAbort;
  return faults_injected > 0 ? DecodeStatus::kFaultDetected
                             : DecodeStatus::kMaxIterations;
}

/// Cooperative cancellation for long decodes. A serving layer arms the token
/// (manually or with a deadline) and the decoder polls `expired()` at layer
/// boundaries, bailing out with DecodeStatus::kDeadlineExpired instead of
/// burning the rest of its iteration budget on a frame nobody is waiting
/// for. The flag is an atomic so any thread may cancel; the deadline is
/// written only between decodes by the owning thread.
class CancelToken {
 public:
  /// Request cancellation now (thread-safe, sticky until clear()).
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arm a wall-clock deadline; `expired()` turns true once it passes.
  void arm_deadline(std::chrono::steady_clock::time_point deadline) {
    deadline_ = deadline;
    has_deadline_ = true;
  }

  /// Re-arm for the next decode: clears both the flag and the deadline.
  void clear() {
    cancelled_.store(false, std::memory_order_relaxed);
    has_deadline_ = false;
  }

  /// The decoder-side poll: true once cancelled or past the deadline.
  bool expired() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    return has_deadline_ && std::chrono::steady_clock::now() >= deadline_;
  }

  /// expired() against a clock reading the caller took: a decoder polling
  /// many tokens at one boundary reads the clock once, and only when one of
  /// them has_deadline().
  bool expired(std::chrono::steady_clock::time_point now) const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    return has_deadline_ && now >= deadline_;
  }

  /// True from arm_deadline() until clear().
  bool has_deadline() const { return has_deadline_; }

 private:
  std::atomic<bool> cancelled_{false};
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
};

/// One frame of a block decode: the channel LLRs plus an optional per-frame
/// cancellation token (non-owning). Block decoding is how the batch engine
/// keeps every SIMD lane full regardless of z — frames ride in lanes.
struct BlockFrame {
  std::span<const float> llr;
  const CancelToken* cancel = nullptr;
};

/// A frame handed out by a FrameSource, with the source's tag for it;
/// decode_stream hands the tag back to FrameSource::done with the result.
struct StreamFrame {
  BlockFrame frame;
  std::size_t tag = 0;
};

/// Where Decoder::decode_stream pulls its frames from and delivers their
/// results. A source may be a fixed span of frames (decode_block) or a live
/// feed that keeps pulling queued work (the batch engine's worker stream).
class FrameSource {
 public:
  virtual ~FrameSource() = default;
  /// The next frame, or nullopt when none is ready now.
  virtual std::optional<StreamFrame> next() = 0;
  /// How many frames next() can hand out now; may pull queued work.
  virtual std::size_t ready() = 0;
  /// One handed-out frame's result and saturation. The decoder calls it
  /// exactly once per frame next() handed out, as soon as that frame
  /// finishes, so frames may complete out of hand-out order; it no longer
  /// reads the frame's LLRs by then.
  virtual void done(std::size_t tag, DecodeResult&& result,
                    const SaturationStats& saturation) = 0;
};

class Decoder {
 public:
  virtual ~Decoder() = default;

  /// Decode one frame of n channel LLRs. Every outcome — converged, out
  /// of iterations or cancelled — carries n() hard decisions; a decoder
  /// that cannot decode the frame throws instead.
  virtual DecodeResult decode(std::span<const float> llr) = 0;

  /// Codeword length the decoder is configured for.
  virtual std::size_t n() const = 0;

  /// Information bits per frame (n - m for the QC codes). 0 when the
  /// decoder cannot say — consumers must treat 0 as "unknown", not as a
  /// rate-0 code (the batch engine skips info-bit accounting then).
  virtual std::size_t k() const { return 0; }

  /// Short identifier used in benchmark tables, e.g. "layered-msf-q8".
  virtual std::string name() const = 0;

  /// Message-format identifier of the datapath: "float" (default), a
  /// fixed-point format name like "q8.2"/"q6.1", a finite-alphabet family
  /// name like "fa4", or "bit" for hard-decision decoders. Used by the
  /// factory tests and benchmark artifacts to key resolution studies.
  virtual std::string message_format() const { return "float"; }

  /// Frames decoded side by side — the SIMD lane count for
  /// inter-frame-batched decoders, 1 for everyone else. Callers may pass
  /// any frame count; this is the size at which lanes are full.
  virtual std::size_t block_width() const { return 1; }

  /// Decode frames pulled from `source`, each under its own cancel token,
  /// until the source has none ready and no frame is in flight. Default:
  /// one frame at a time, so every decoder streams; inter-frame-batched
  /// decoders override this with a lanes-are-frames kernel that refills a
  /// lane from the source the moment its frame finishes. Any cancel token
  /// previously attached via set_cancel_token is detached on return.
  virtual void decode_stream(FrameSource& source) {
    while (const std::optional<StreamFrame> f = source.next()) {
      set_cancel_token(f->frame.cancel);
      DecodeResult result = decode(f->frame.llr);
      source.done(f->tag, std::move(result), saturation());
    }
    set_cancel_token(nullptr);
  }

  /// Decode a block of frames with per-frame cancellation, filling
  /// `results[i]` / `saturation[i]` for frames[i]: the spans fed through
  /// decode_stream. The frame spans must all hold n() LLRs.
  void decode_block(std::span<const BlockFrame> frames,
                    std::span<DecodeResult> results,
                    std::span<SaturationStats> saturation) {
    LDPC_CHECK(results.size() == frames.size());
    LDPC_CHECK(saturation.size() == frames.size());
    class Spans final : public FrameSource {
     public:
      Spans(std::span<const BlockFrame> frames,
            std::span<DecodeResult> results,
            std::span<SaturationStats> saturation)
          : frames_(frames), results_(results), saturation_(saturation) {}
      std::optional<StreamFrame> next() override {
        if (next_ == frames_.size()) return std::nullopt;
        const std::size_t i = next_++;
        return StreamFrame{frames_[i], i};
      }
      std::size_t ready() override { return frames_.size() - next_; }
      void done(std::size_t tag, DecodeResult&& result,
                const SaturationStats& saturation) override {
        results_[tag] = std::move(result);
        saturation_[tag] = saturation;
      }

     private:
      std::span<const BlockFrame> frames_;
      std::span<DecodeResult> results_;
      std::span<SaturationStats> saturation_;
      std::size_t next_ = 0;
    } source(frames, results, saturation);
    decode_stream(source);
  }

  /// Saturation accounting for the most recent decode. Default: all zeros
  /// (decoders without a fixed-point datapath have nothing to clip).
  virtual SaturationStats saturation() const { return {}; }

  /// Attach a cooperative cancellation token (non-owning; nullptr detaches).
  /// Decoders that support mid-decode bail-out poll it between layers /
  /// iterations; the default implementation ignores it, which is always
  /// safe — cancellation is best-effort by design.
  virtual void set_cancel_token(const CancelToken* token) { (void)token; }
};

/// Per-iteration convergence snapshot delivered to an IterationObserver.
struct IterationSnapshot {
  std::size_t iteration = 0;        ///< 1-based
  std::size_t syndrome_weight = 0;  ///< unsatisfied checks after this iter
  double mean_abs_llr = 0.0;        ///< mean |posterior| (LLR units)
  std::size_t flipped_bits = 0;     ///< hard decisions changed vs prev iter
  long long saturation_clips = 0;   ///< cumulative clip events this decode
                                    ///< (0 unless count_saturation is set)
};

/// Called after every completed iteration (before early termination exits).
/// Observation only — must not mutate decoder state.
using IterationObserver = std::function<void(const IterationSnapshot&)>;

/// Iteration watchdog: aborts decodes whose syndrome weight has stopped
/// improving (non-convergent or oscillating frames) instead of burning the
/// full iteration budget and emitting garbage. Disabled by default —
/// enabling it costs one syndrome evaluation per iteration.
struct WatchdogOptions {
  /// Abort after this many consecutive iterations without a new minimum
  /// syndrome weight. 0 disables the watchdog.
  std::size_t stall_window = 0;

  bool enabled() const { return stall_window > 0; }
};

/// Tracks the watchdog's view of one decode. Value-type helper so every
/// decoder runs the identical policy.
class WatchdogState {
 public:
  explicit WatchdogState(const WatchdogOptions& options)
      : window_(options.stall_window) {}

  /// Feed this iteration's syndrome weight; returns true if the decode
  /// should be aborted now.
  bool should_abort(std::size_t syndrome_weight) {
    if (window_ == 0) return false;
    if (syndrome_weight < best_weight_) {
      best_weight_ = syndrome_weight;
      stalled_ = 0;
      return false;
    }
    return ++stalled_ >= window_;
  }

  bool fired() const { return window_ != 0 && stalled_ >= window_; }

 private:
  std::size_t window_;
  std::size_t best_weight_ = static_cast<std::size_t>(-1);
  std::size_t stalled_ = 0;
};

/// Options shared by the iterative decoders.
struct DecoderOptions {
  std::size_t max_iterations = 10;  ///< the paper's Table II uses 10
  bool early_termination = true;    ///< stop when all parity checks pass
  float scale = 0.75F;              ///< min-sum normalization factor
  IterationObserver observer;       ///< optional convergence probe
  WatchdogOptions watchdog;         ///< non-convergence abort (off by default)
  /// Count quantizer/datapath saturation events (first symptom of degraded
  /// operation); surfaced via IterationSnapshot and decoder-specific stats.
  bool count_saturation = false;
  /// Optional fault injector (non-owning, off = nullptr = bit-identical to
  /// the seed path). Honored by the fixed-point layered decoder and the
  /// cycle-accurate architecture simulator; see src/fault/.
  FaultInjector* fault_injector = nullptr;
};

}  // namespace ldpc
