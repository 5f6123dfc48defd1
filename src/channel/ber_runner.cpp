#include "channel/ber_runner.hpp"

#include <algorithm>

#include "channel/awgn.hpp"
#include "channel/modem.hpp"
#include "channel/rayleigh.hpp"
#include "runtime/supervisor.hpp"
#include "util/check.hpp"

namespace ldpc {

namespace {

/// Frames issued between early-stop checks. A constant (never a function of
/// the worker count) so the set of simulated frames — and therefore every
/// counter — is identical for any num_workers.
constexpr std::size_t kWaveFrames = 32;

/// One frame through the configured modulation and channel model.
std::vector<float> transmit_frame(const BerConfig& config, std::size_t n,
                                  float variance, const BitVec& codeword,
                                  AwgnChannel& awgn,
                                  RayleighChannel& rayleigh) {
  std::vector<float> symbols;
  switch (config.modulation) {
    case Modulation::kBpsk:  symbols = BpskModem::modulate(codeword); break;
    case Modulation::kQpsk:  symbols = QpskModem::modulate(codeword); break;
    case Modulation::kQam16: symbols = Qam16Modem::modulate(codeword); break;
    case Modulation::kQam64: symbols = Qam64Modem::modulate(codeword); break;
  }
  if (config.channel == ChannelModel::kAwgn) {
    const auto received = awgn.transmit(symbols);
    switch (config.modulation) {
      case Modulation::kBpsk:
        return BpskModem::demodulate(received, variance);
      case Modulation::kQpsk:
        return QpskModem::demodulate(received, variance, n);
      case Modulation::kQam16:
        return Qam16Modem::demodulate(received, variance, n);
      case Modulation::kQam64:
        return Qam64Modem::demodulate(received, variance, n);
    }
  }
  // Rayleigh fading, coherent reception with perfect CSI. BPSK rides the
  // real-symbol path; the I/Q modems fade per complex symbol (both rails
  // share the gain) and demap through the gain-aware equalizers.
  std::vector<float> gains;
  if (config.modulation == Modulation::kBpsk) {
    const auto received = rayleigh.transmit(symbols, gains);
    return RayleighChannel::demodulate_bpsk(received, gains, variance);
  }
  const auto received = rayleigh.transmit_iq(symbols, gains);
  switch (config.modulation) {
    case Modulation::kQpsk:
      return RayleighChannel::demodulate_qpsk(received, gains, variance, n);
    case Modulation::kQam16:
      return RayleighChannel::demodulate_qam16(received, gains, variance, n);
    default:
      return RayleighChannel::demodulate_qam64(received, gains, variance, n);
  }
}

/// Fold one frame's final decode, scored against the information bits it
/// carried, into the point.
void accumulate(BerPoint& point, const DecodeResult& result,
                const BitVec& info) {
  // A word at a time: scoring runs on the submitting thread while the
  // workers wait for the next wave.
  const std::size_t bit_errors =
      result.hard_bits.hamming_distance_prefix(info, info.size());
  ++point.frames;
  point.sum_iterations += static_cast<double>(result.iterations);
  point.faults_injected += result.faults_injected;
  if (result.status == DecodeStatus::kWatchdogAbort) ++point.watchdog_aborts;
  if (result.iterations > 0) {
    if (result.iterations > point.iteration_histogram.size())
      point.iteration_histogram.resize(result.iterations, 0);
    ++point.iteration_histogram[result.iterations - 1];
  }
  if (bit_errors > 0) {
    point.bit_errors += bit_errors;
    ++point.frame_errors;
    if (result.converged) ++point.undetected_errors;
    else ++point.detected_errors;
  }
}

}  // namespace

BerRunner::BerRunner(const QCLdpcCode& code, DecoderFactory factory,
                     BerConfig config)
    : code_(code), factory_(std::move(factory)), config_(std::move(config)) {
  LDPC_CHECK(factory_ != nullptr);
  LDPC_CHECK(!config_.ebn0_db.empty());
  LDPC_CHECK(config_.num_workers >= 1);
  LDPC_CHECK(config_.max_frames >= config_.min_frames);
  LDPC_CHECK(config_.max_decode_attempts >= 1);
  LDPC_CHECK_MSG(config_.max_decode_attempts == 1 ||
                     !config_.escalation_factories.empty(),
                 "max_decode_attempts > 1 needs escalation_factories "
                 "(see make_escalation_factories)");
}

std::vector<BerPoint> BerRunner::run() {
  std::vector<BerPoint> points;
  points.reserve(config_.ebn0_db.size());
  for (std::size_t i = 0; i < config_.ebn0_db.size(); ++i)
    points.push_back(run_point(config_.ebn0_db[i], i));
  return points;
}

BerPoint BerRunner::run_point(float ebn0_db, std::size_t point_index) {
  BerPoint point;
  point.ebn0_db = ebn0_db;

  // Unit-energy complex symbols carry 2 (QPSK), 4 (16-QAM) or 6 (64-QAM)
  // coded bits, so the per-dimension energy drops accordingly; this factor
  // keeps the Eb/N0 accounting correct across modulations (sigma^2 =
  // 1/(2 R k Eb/N0) for k coded bits per unit-energy 2D symbol ...
  // expressed per dimension).
  const double bits_factor = modulation_bits_per_symbol(config_.modulation);
  const float variance = awgn_noise_variance(ebn0_db, code_.rate(), bits_factor);
  // Shared across workers: encode() is const and carries no mutable state.
  const RuEncoder encoder(code_);

  SupervisorConfig supervisor_config;
  supervisor_config.engine.num_workers = config_.num_workers;
  supervisor_config.engine.queue_capacity = kWaveFrames;
  supervisor_config.engine.escalation_factories = config_.escalation_factories;
  supervisor_config.retry = RetryPolicy::none();
  supervisor_config.retry.max_attempts = config_.max_decode_attempts;
  DecodeSupervisor supervisor(factory_, supervisor_config);

  // Each wave slot's information bits, scored against its final decode
  // once the wave drains. Retry attempts re-decode the frame's received
  // LLRs on the escalated decoder.
  std::vector<BitVec> info(kWaveFrames);
  std::vector<DecodeResult> slots(kWaveFrames);
  std::size_t next_frame = 0;
  while (next_frame < config_.max_frames) {
    if (next_frame >= config_.min_frames &&
        point.frame_errors >= config_.target_frame_errors)
      break;
    const std::size_t wave =
        std::min(kWaveFrames, config_.max_frames - next_frame);
    for (std::size_t i = 0; i < wave; ++i) {
      // Built on the worker that takes the frame: building costs about as
      // much as a SIMD decode, so one submitting thread would cap the
      // sweep. Deterministic: all three RNGs are re-seeded per frame from
      // the frame index, never from the worker.
      const std::size_t frame = next_frame + i;
      auto build = [&, frame, frame_info = &info[i]] {
        const FrameSeeds seeds =
            ber_frame_seeds(config_.seed, point_index, frame);
        Xoshiro256 info_rng(seeds.info);
        AwgnChannel awgn(variance, seeds.awgn);
        RayleighChannel rayleigh(variance, seeds.rayleigh,
                                 config_.coherence_symbols);
        *frame_info = BitVec(code_.k());
        if (config_.random_info) {
          for (std::size_t b = 0; b < frame_info->size(); ++b)
            frame_info->set(b, info_rng.coin());
        }
        return transmit_frame(config_, code_.n(), variance,
                              encoder.encode(*frame_info), awgn, rayleigh);
      };
      const SubmitStatus submitted =
          supervisor.submit_staged(frame, std::move(build), &slots[i]);
      LDPC_CHECK_MSG(submit_accepted(submitted),
                     "BER frame rejected: " << to_string(submitted));
    }
    supervisor.drain();
    for (std::size_t i = 0; i < wave; ++i) {
      LDPC_CHECK_MSG(slots[i].hard_bits.size() == code_.n(),
                     "BER frame " << next_frame + i
                                  << " has no decode: its decoder threw");
      accumulate(point, slots[i], info[i]);
    }
    next_frame += wave;
  }

  const RetryStats retry = supervisor.metrics().retry;
  point.retries = retry.retries_submitted;
  for (std::size_t a = 1; a < retry.recovered_by_attempt.size(); ++a)
    point.recovered_by_retry += retry.recovered_by_attempt[a];
  return point;
}

}  // namespace ldpc
