#include "harq/harq_link.hpp"

#include <algorithm>
#include <utility>

#include "channel/awgn.hpp"
#include "channel/modem.hpp"
#include "channel/rayleigh.hpp"
#include "codes/encoder.hpp"
#include "harq/llr_buffer.hpp"
#include "runtime/supervisor.hpp"
#include "util/check.hpp"

namespace ldpc {

namespace {

/// Frames issued between waves — a constant (never a function of worker
/// count) so the simulated frame set is identical for any num_workers.
constexpr std::size_t kWaveFrames = 32;

/// Receiver-side state of one HARQ process. Mutated only by the frame's own
/// strictly-sequential attempts (the first attempt's stage-in, then the
/// redundancy hook), so no locking is needed; read by the accumulator only
/// after the wave drains.
struct FrameState {
  FrameState(std::size_t n, std::size_t k, float rail)
      : info(k), codeword(n), buffer(n, rail) {}

  BitVec info;
  BitVec codeword;
  LlrBuffer buffer;
  std::size_t symbols_sent = 0;
};

/// Put the codeword bits at `positions` on the channel and return their
/// LLRs (parallel to `positions`). Adds the symbols used to *symbols_out.
std::vector<float> transmit_positions(const HarqLinkConfig& config,
                                      const BitVec& codeword,
                                      const std::vector<std::size_t>& positions,
                                      float variance,
                                      std::uint64_t channel_seed,
                                      std::size_t* symbols_out) {
  BitVec bits(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i)
    bits.set(i, codeword.get(positions[i]));
  const std::size_t n = positions.size();

  std::vector<float> symbols;
  switch (config.modulation) {
    case Modulation::kBpsk:  symbols = BpskModem::modulate(bits); break;
    case Modulation::kQpsk:  symbols = QpskModem::modulate(bits); break;
    case Modulation::kQam16: symbols = Qam16Modem::modulate(bits); break;
    case Modulation::kQam64: symbols = Qam64Modem::modulate(bits); break;
  }
  const bool complex_mod = config.modulation != Modulation::kBpsk;
  *symbols_out += complex_mod ? symbols.size() / 2 : symbols.size();

  if (config.channel == ChannelModel::kAwgn) {
    AwgnChannel awgn(variance, channel_seed);
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
  RayleighChannel fading(variance, channel_seed, config.coherence_symbols);
  std::vector<float> gains;
  if (config.modulation == Modulation::kBpsk) {
    const auto received = fading.transmit(symbols, gains);
    return RayleighChannel::demodulate_bpsk(received, gains, variance);
  }
  const auto received = fading.transmit_iq(symbols, gains);
  switch (config.modulation) {
    case Modulation::kQpsk:
      return RayleighChannel::demodulate_qpsk(received, gains, variance, n);
    case Modulation::kQam16:
      return RayleighChannel::demodulate_qam16(received, gains, variance, n);
    default:
      return RayleighChannel::demodulate_qam64(received, gains, variance, n);
  }
}

}  // namespace

HarqLinkRunner::HarqLinkRunner(const QCLdpcCode& code, DecoderFactory factory,
                               HarqLinkConfig config)
    : code_(code),
      factory_(std::move(factory)),
      config_(std::move(config)),
      matcher_(code, config_.target_rate, config_.ir_chunk_bits),
      rail_(config_.format.dequantize(config_.format.max_code())) {
  LDPC_CHECK(factory_ != nullptr);
  LDPC_CHECK(!config_.ebn0_db.empty());
  LDPC_CHECK(config_.frames_per_point >= 1);
  LDPC_CHECK(config_.max_transmissions >= 1);
  LDPC_CHECK(config_.num_workers >= 1);
  validate(config_.format);
}

std::vector<HarqPoint> HarqLinkRunner::run() {
  std::vector<HarqPoint> points;
  points.reserve(config_.ebn0_db.size());
  for (std::size_t i = 0; i < config_.ebn0_db.size(); ++i)
    points.push_back(run_point(config_.ebn0_db[i], i));
  return points;
}

HarqPoint HarqLinkRunner::run_point(float ebn0_db, std::size_t point_index) {
  HarqPoint point;
  point.ebn0_db = ebn0_db;

  // Eb/N0 is accounted at the rate the link actually runs at (after
  // puncturing/shortening), per information bit actually carried.
  const float variance =
      awgn_noise_variance(ebn0_db, matcher_.effective_rate(),
                          modulation_bits_per_symbol(config_.modulation));
  const RuEncoder encoder(code_);

  // Wave-local receiver state; `wave_base` maps the supervisor's global
  // frame_index back to a slot. A wave fully drains before the next one is
  // issued, so slots are never shared between in-flight frames.
  std::vector<FrameState> states;
  states.reserve(kWaveFrames);
  for (std::size_t i = 0; i < kWaveFrames; ++i)
    states.emplace_back(code_.n(), code_.k(), rail_);
  std::size_t wave_base = 0;

  // The NACK path: fold transmission `tx` = next_attempt into the frame's
  // buffer and hand the next attempt its LLRs, or report the budget spent.
  // Runs on a worker thread, but only ever for its own frame's
  // strictly-sequential attempt chain.
  auto redundancy_hook = [&](std::size_t frame_index, std::size_t next_attempt,
                             std::vector<float>& llr) -> bool {
    const std::size_t tx = next_attempt;  // attempt a consumes transmission a
    if (tx > config_.max_transmissions) return false;
    FrameState& st = states[frame_index - wave_base];
    std::vector<std::size_t> positions;
    bool type1_replace = false;
    switch (config_.mode) {
      case HarqMode::kPlainRetry:
        positions = matcher_.initial_positions();
        type1_replace = true;
        break;
      case HarqMode::kChase:
        positions = matcher_.initial_positions();
        break;
      case HarqMode::kIncremental:
        positions = matcher_.ir_positions(tx);
        break;
    }
    const auto received = transmit_positions(
        config_, st.codeword, positions, variance,
        harq_tx_seed(config_.seed, point_index, frame_index, tx),
        &st.symbols_sent);
    if (type1_replace)
      st.buffer.replace(positions, received);
    else
      st.buffer.combine(positions, received);
    llr = st.buffer.emit();
    return true;
  };

  const auto ladder =
      harq_escalation_ladder(config_.max_iterations, config_.format);
  DecoderOptions base;
  base.max_iterations = config_.max_iterations;
  SupervisorConfig supervisor_config;
  supervisor_config.engine.num_workers = config_.num_workers;
  supervisor_config.engine.queue_capacity = kWaveFrames;
  supervisor_config.engine.escalation_factories =
      make_escalation_factories(code_, base, ladder);
  // One attempt per transmission, plus one more whose redundancy request
  // the hook refuses — that refusal is what yields the *typed*
  // kHarqExhausted instead of a generic attempt-exhaustion.
  supervisor_config.retry = RetryPolicy::none();
  supervisor_config.retry.max_attempts = config_.max_transmissions + 1;
  supervisor_config.rung_kinds = rung_kinds_of(ladder);
  supervisor_config.on_redundancy_request = redundancy_hook;
  DecodeSupervisor supervisor(factory_, supervisor_config);

  std::vector<DecodeResult> slots(kWaveFrames);
  while (wave_base < config_.frames_per_point) {
    const std::size_t wave =
        std::min(kWaveFrames, config_.frames_per_point - wave_base);
    for (std::size_t i = 0; i < wave; ++i) {
      // Attempt 1 decodes the initial transmission, built on the worker
      // that takes it. combiner_clips counts emits, so each attempt gets
      // exactly one emit().
      const std::size_t frame = wave_base + i;
      auto build = [&, frame, st = &states[i]] {
        st->buffer.reset();
        st->symbols_sent = 0;
        Xoshiro256 info_rng(harq_tx_seed(config_.seed, point_index, frame, 0));
        st->info = BitVec(code_.k());
        for (std::size_t b = 0; b < matcher_.info_bits(); ++b)
          st->info.set(b, info_rng.coin());  // shortened bits stay 0
        st->codeword = encoder.encode(st->info);
        st->buffer.pin(matcher_.shortened_positions(), rail_);
        const auto& positions = matcher_.initial_positions();
        st->buffer.combine(
            positions,
            transmit_positions(config_, st->codeword, positions, variance,
                               harq_tx_seed(config_.seed, point_index, frame, 1),
                               &st->symbols_sent));
        return st->buffer.emit();
      };
      const SubmitStatus submitted =
          supervisor.submit_staged(frame, std::move(build), &slots[i]);
      LDPC_CHECK_MSG(submit_accepted(submitted),
                     "HARQ frame rejected: " << to_string(submitted));
    }
    supervisor.drain();
    for (std::size_t i = 0; i < wave; ++i) {
      const FrameState& st = states[i];
      const DecodeResult& result = slots[i];
      ++point.frames;
      point.total_transmissions += st.buffer.transmissions();
      point.total_symbols += st.symbols_sent;
      point.combiner_clips += st.buffer.saturation().quantizer_clips;
      std::size_t errors = 0;
      for (std::size_t b = 0; b < matcher_.info_bits(); ++b)
        if (result.hard_bits.get(b) != st.info.get(b)) ++errors;
      point.bit_errors += errors;
      if (result.status == DecodeStatus::kConverged) {
        ++point.delivered;
        if (errors == 0) ++point.delivered_correct;
      }
      if (result.status == DecodeStatus::kHarqExhausted)
        ++point.harq_exhausted;
      if (result.status != DecodeStatus::kConverged || errors > 0)
        ++point.frame_errors;
    }
    wave_base += wave;
  }

  point.redundancy_requests =
      supervisor.metrics().retry.redundancy_requests;
  return point;
}

}  // namespace ldpc
