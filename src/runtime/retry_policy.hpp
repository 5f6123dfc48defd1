// Bounded retry with escalation for failed decodes.
//
// The paper's early-termination decoder spends its iteration budget
// unevenly: most frames converge in a few iterations, a tail exhausts the
// budget (kMaxIterations), oscillates (kWatchdogAbort) or is corrupted by
// an injected fault (kFaultDetected). A serving layer gets a second chance
// at that tail by re-decoding the same frame on an *escalated* decoder —
// more iterations first, then a wider fixed-point format — instead of
// either dropping the frame or provisioning every decode for the worst
// case. RetryPolicy says when to retry and how often; the escalation-ladder
// helpers build the per-rung DecoderFactory list the BatchEngine consumes.
//
// Determinism: retries are keyed by (frame_index, attempt) — see
// retry_seed() — never by worker or wall clock, so a retried batch is
// bit-identical for any worker count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "codes/qc_code.hpp"
#include "core/decoder.hpp"
#include "core/decoder_factory.hpp"
#include "core/quant.hpp"
#include "util/rng.hpp"

namespace ldpc {

/// Bit for one DecodeStatus in a retryable-status mask.
constexpr std::uint32_t retry_status_bit(DecodeStatus s) {
  return 1U << static_cast<unsigned>(s);
}

/// The statuses worth retrying: decode failures that a bigger budget or a
/// wider format can plausibly fix. Deadline/shed outcomes are terminal (the
/// caller already gave up on the frame), and kConverged needs no retry.
constexpr std::uint32_t kDefaultRetryStatuses =
    retry_status_bit(DecodeStatus::kMaxIterations) |
    retry_status_bit(DecodeStatus::kWatchdogAbort) |
    retry_status_bit(DecodeStatus::kFaultDetected);

struct RetryPolicy {
  /// Total decode attempts per frame, including the first (1 = no retry).
  std::size_t max_attempts = 1;
  /// OR of retry_status_bit() — which final statuses trigger a retry.
  std::uint32_t retry_statuses = kDefaultRetryStatuses;

  bool enabled() const { return max_attempts > 1; }

  /// Should a frame whose `attempt`-th decode (1-based) ended with `status`
  /// be re-submitted?
  bool should_retry(DecodeStatus status, std::size_t attempt) const;

  /// No retries (the default-constructed policy, named for readability).
  static RetryPolicy none() { return {}; }

  /// Retry up to `attempts` total attempts on the default status set.
  static RetryPolicy up_to(std::size_t attempts);
};

/// Throws ldpc::Error on nonsensical configuration (zero attempts, or a
/// mask that marks kConverged as retryable).
void validate(const RetryPolicy& policy);

/// Deterministic per-attempt seed derivation: a splitmix64 stream keyed by
/// (base_seed, frame_index, attempt). Randomness an attempt consumes (its
/// LLRs, a fault stream) must derive from this (or equivalent) so retried
/// batches stay bit-identical across worker counts and overload policies.
inline std::uint64_t retry_seed(std::uint64_t base_seed,
                                std::size_t frame_index, std::size_t attempt) {
  std::uint64_t sm = base_seed ^ 0x9e3779b97f4a7c15ULL * (frame_index + 1);
  sm += 0xd1b54a32d192ed03ULL * (attempt + 1);
  return splitmix64(sm);
}

/// What reaching a rung *means* for the failed frame. kRedecode rungs
/// re-run the same received LLRs on an escalated decoder (more iterations,
/// wider format) — graceful degradation in compute. kRequestRedundancy
/// rungs are graceful degradation in *information*: before the re-decode
/// the supervisor asks the link layer (DecodeSupervisor's redundancy hook)
/// to combine one HARQ retransmission into the frame's LLR buffer; if the
/// link has no transmissions left the frame resolves with the typed
/// DecodeStatus::kHarqExhausted instead of silently re-decoding stale LLRs.
enum class RungKind : std::uint8_t {
  kRedecode,           ///< re-decode the same LLRs on this rung's decoder
  kRequestRedundancy,  ///< combine a retransmission first (HARQ)
};

inline const char* to_string(RungKind k) {
  switch (k) {
    case RungKind::kRedecode:          return "redecode";
    case RungKind::kRequestRedundancy: return "request-redundancy";
  }
  return "?";
}

/// One rung of the escalation ladder: the decoder configuration a retry
/// attempt escalates to.
struct EscalationRung {
  std::size_t max_iterations = 0;  ///< iteration budget at this rung
  FixedFormat format;              ///< message quantization at this rung
  RungKind kind = RungKind::kRedecode;
};

/// The canonical ladder for the paper's fixed-point layered decoder:
/// rung 1 doubles the iteration budget at the base format (converges the
/// slow tail); rung 2 triples it *and* widens the format by two bits
/// (recovers frames the base quantization itself is failing). Wider than
/// 16 bits saturates at 16 (the decoder's format ceiling).
std::vector<EscalationRung> default_escalation_ladder(
    std::size_t base_iterations, FixedFormat base_format);

/// The HARQ ladder: every retry attempt first combines one retransmission
/// (RungKind::kRequestRedundancy) and re-decodes at the base budget/format —
/// recovery comes from new channel information, not from a wider datapath.
/// One rung suffices for any attempt count (the engine clamps rungs beyond
/// the ladder to its last entry), but the kind must still be declared per
/// rung so mixed ladders (redecode first, then redundancy) stay expressible.
std::vector<EscalationRung> harq_escalation_ladder(std::size_t base_iterations,
                                                   FixedFormat base_format);

/// Project the per-rung kinds out of a ladder, in rung order — the shape
/// SupervisorConfig::rung_kinds consumes.
std::vector<RungKind> rung_kinds_of(const std::vector<EscalationRung>& ladder);

/// Build the per-rung DecoderFactory list for BatchEngineConfig::
/// escalation_factories: each rung is the paper's layered fixed-point
/// decoder with the rung's budget and format, sharing `base` for every
/// other option. `code` must outlive every decoder the factories create.
std::vector<DecoderFactory> make_escalation_factories(
    const QCLdpcCode& code, const DecoderOptions& base,
    const std::vector<EscalationRung>& ladder);

}  // namespace ldpc
