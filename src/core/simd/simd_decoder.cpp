#include "core/simd/simd_decoder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>

#include "fault/fault_injector.hpp"
#include "util/check.hpp"

namespace ldpc::simd {

// ------------------------------------------------------------ families ----

Fixed16::Fixed16(const QCLdpcCode& code, const DecoderOptions& options,
                 FixedFormat format)
    // The scalar twin runs the identical kernel-parameter derivation and
    // validation (scale fraction bounds, format sanity, max_iterations).
    : scalar_(std::make_unique<Scalar>(code, options, format)),
      format_(format),
      wide_(format.total_bits > 15) {
  if (options.scale != 0.75F) {
    map_.mode = ScaleMode::kNumOver16;
    map_.scale_num = static_cast<std::int16_t>(
        static_cast<std::int32_t>(options.scale * 16.0F + 0.5F));
  }
}

Fixed16::Fixed16(const QCLdpcCode& code, const DecoderOptions& options,
                 FixedFormat format, std::int32_t offset_code,
                 const std::string& label)
    : scalar_(std::make_unique<Scalar>(
          code, options, LayerRowKernel::offset_kernel(format, offset_code),
          label)),
      format_(format),
      wide_(format.total_bits > 15 || offset_code > INT16_MAX) {
  map_.mode = ScaleMode::kOffset;
  map_.offset_code =
      static_cast<std::int16_t>(std::min<std::int32_t>(offset_code, INT16_MAX));
}

void Fixed16::quantize(const KernelSet& kernels, std::span<const float> llr,
                       T* out, long long* clips) const {
  if (clips != nullptr) {
    for (std::size_t v = 0; v < llr.size(); ++v)
      out[v] = static_cast<T>(format_.quantize(llr[v], *clips));
    return;
  }
  // The tier's vector quantize pass, bit-identical to FixedFormat::quantize
  // (see QuantizePass), so counted and uncounted decodes see equal codes.
  kernels.fixed16.quantize(quantize_pass(format_, lo(), hi(), llr, out));
}

Fa8::Fa8(const QCLdpcCode& code, const DecoderOptions& options, int msg_bits,
         float design_ebn0_db)
    // The scalar twin builds (and owns) the MIM tables and runs the same
    // option validation.
    : scalar_(std::make_unique<Scalar>(code, options, msg_bits,
                                       design_ebn0_db)) {
  const FaTableSet& ts = tables();
  const auto num_thr = static_cast<std::uint32_t>(ts.levels - 1);
  iter_tables_.reserve(ts.tables.size());
  for (const FaCnTable& t : ts.tables) {
    IterTable it{};
    it.recon0 = t.recon[0];
    for (std::uint32_t k = 0; k < num_thr; ++k) {
      it.thr[k] = t.thr[k];
      // Deltas are nonnegative (recon is nondecreasing) and every prefix
      // sum recon0 + delta[0..k] = recon[k+1] <= 127: the kernel's
      // wrapping staircase adds cannot overflow.
      it.delta[k] = static_cast<std::int8_t>(t.recon[k + 1] - t.recon[k]);
    }
    iter_tables_.push_back(it);
  }
}

void Fa8::quantize(const KernelSet& kernels, std::span<const float> llr,
                   T* out, long long* clips) const {
  const FixedFormat fmt = posterior();
  if (clips != nullptr) {
    for (std::size_t v = 0; v < llr.size(); ++v)
      out[v] = static_cast<T>(fa_quantize(fmt, llr[v], *clips));
    return;
  }
  // The same pass on the symmetric rail, bit-identical to fa_quantize.
  kernels.fa8.quantize(quantize_pass(fmt, lo(), hi(), llr, out));
}

Fa8::LaneMap::LaneMap(const Fa8& family, std::uint32_t lanes)
    : tables_(family.iter_tables_),
      lanes_(lanes),
      num_thr_(static_cast<std::uint32_t>(family.tables().levels - 1)),
      thr_(static_cast<std::size_t>(num_thr_) * lanes, 0),
      delta_(static_cast<std::size_t>(num_thr_) * lanes, 0),
      recon0_(lanes, 0),
      table_(lanes, kNoTable) {}

void Fa8::LaneMap::set(std::uint32_t lane, std::size_t iter) {
  // Iterations beyond the table count reuse the last table.
  const std::size_t t = std::min(iter - 1, tables_.size() - 1);
  if (t == table_[lane]) return;
  table_[lane] = t;
  const IterTable& it = tables_[t];
  recon0_[lane] = it.recon0;
  for (std::uint32_t k = 0; k < num_thr_; ++k) {
    thr_[k * lanes_ + lane] = it.thr[k];
    delta_[k * lanes_ + lane] = it.delta[k];
  }
}

StaircaseMap Fa8::LaneMap::args() const {
  return {thr_.data(), delta_.data(), recon0_.data(), num_thr_};
}

// --------------------------------------------------------------- decoder ----

template <class Family>
SimdDecoder<Family>::SimdDecoder(const QCLdpcCode& code, DecoderOptions options,
                                 Family family, std::string label,
                                 std::optional<SimdTier> tier)
    : code_(code),
      options_(std::move(options)),
      family_(std::move(family)),
      label_(std::move(label)),
      tier_(tier.value_or(best_tier())),
      kernels_(kernels_for(tier_)),
      lanes_(lanes_for<T>(tier_)),
      z_(static_cast<std::uint32_t>(code_.z())),
      lane_map_(family_, lanes_) {
  // Stride granularity: at least 16 lanes (one layout covers the narrow
  // tiers), or the tier's own lane count when wider — a vector step is a
  // full vector, so z = 10 pads to 32 on the 32-lane tier.
  const std::uint32_t grain = std::max(16U, lanes_);
  z_pad_ = (z_ + grain - 1) & ~(grain - 1);
  std::size_t max_deg = 0;
  layer_start_.push_back(0);
  for (const auto& layer : code_.layers()) {
    for (const auto& blk : layer) {
      blocks_.push_back({blk.block_col * z_, blk.shift % z_, blk.r_slot * z_});
      zlane_r_base_.push_back(blk.r_slot * z_pad_);
    }
    max_deg = std::max(max_deg, layer.size());
    layer_start_.push_back(static_cast<std::uint32_t>(blocks_.size()));
  }
  max_deg = std::max<std::size_t>(max_deg, 1);
  words_ = (code_.n() + 63) / 64;
  hard_.resize(words_);
  posterior_.resize(words_ * 64);
  zlane_r_.resize(code_.base().nonzero_blocks() *
                  static_cast<std::size_t>(z_pad_));
  p_scratch_.resize(max_deg * z_pad_);
  q_.resize(max_deg * z_pad_);  // z_pad >= F: room for a lane row too
  rows_.resize(2 * max_deg);
  // Every shipped code is orders of magnitude inside both counter
  // envelopes (WiMAX 1/2 z=96: 96 rows x degree 7 against int16's 32767).
  zlane_fits_ = !family_.wide() && counters_fit<T>(z_pad_ / lanes_, max_deg);
  stream_fits_ = !family_.wide() && counters_fit<T>(z_, max_deg);
  min_block_ = std::max<std::size_t>(
      1, (batch_break_even<T>(tier_) * std::size_t{z_} + z_pad_ - 1) / z_pad_);
}

template <class Family>
void SimdDecoder<Family>::allocate_lanes() {
  const std::size_t r_rows =
      code_.base().nonzero_blocks() * static_cast<std::size_t>(z_);
  // kBatchPrefetchPad rows of slack so the kernels' look-ahead prefetches
  // stay inside the allocations.
  p_.resize((code_.n() + kBatchPrefetchPad) * lanes_);
  r_.resize((r_rows + kBatchPrefetchPad) * lanes_);
  active_.assign(lanes_, T{0});
  r_keep_.assign(lanes_, T{-1});
  hard_.resize(words_ * lanes_);
  plane_.resize(words_ * 64 + kProbePadWords);
  unsat_.resize(code_.layers().size() * z_ + kProbePadWords);
  lane_.assign(lanes_, Lane{});
  q_clips_.assign(lanes_, 0);
  r_clips_.assign(lanes_, 0);
  p_clips_.assign(lanes_, 0);
  degenerate_.assign(lanes_, 0);
  weight_.assign(lanes_, 0);
}

template <class Family>
SaturationStats SimdDecoder<Family>::saturation() const {
  return last_used_scalar_ ? family_.scalar().saturation() : saturation_;
}

template <class Family>
void SimdDecoder<Family>::set_cancel_token(const CancelToken* token) {
  cancel_ = token;
  family_.scalar().set_cancel_token(token);
}

template <class Family>
SimdFallback SimdDecoder<Family>::bypass_reason(bool stream) const {
  if (!(stream ? stream_fits_ : zlane_fits_)) return SimdFallback::kWideFormat;
  // Fault-campaign corruption order is defined by scalar access order.
  if (options_.fault_injector && options_.fault_injector->enabled())
    return SimdFallback::kFaultInjector;
  // The observer contract is one snapshot per iteration of one frame;
  // interleaved lanes have no meaningful single-frame cadence.
  if (stream && options_.observer) return SimdFallback::kObserver;
  return SimdFallback::kNone;
}

template <class Family>
DecodeResult SimdDecoder<Family>::fallback(DecodeResult result,
                                           SimdFallback reason) {
  // Record *why* the lane kernel was bypassed: a benchmark or serving
  // config silently riding the scalar twin is a perf bug, not a
  // correctness one, and must be visible from the outside.
  last_used_scalar_ = true;
  result.simd_fallback = reason;
  return result;
}

template <class Family>
DecodeResult SimdDecoder<Family>::decode(std::span<const float> llr) {
  LDPC_CHECK(llr.size() == code_.n());
  if (const SimdFallback why = bypass_reason(false); why != SimdFallback::kNone)
    return fallback(family_.scalar().decode(llr), why);
  last_used_scalar_ = false;
  saturation_.quantizer_clips = 0;
  family_.quantize(kernels_, llr, posterior_.data(),
                   options_.count_saturation ? &saturation_.quantizer_clips
                                             : nullptr);
  return run();
}

template <class Family>
DecodeResult SimdDecoder<Family>::decode_quantized(
    std::span<const std::int32_t> channel_codes) {
  LDPC_CHECK(channel_codes.size() == code_.n());
  SimdFallback why = bypass_reason(false);
  if (why == SimdFallback::kNone) {
    // The lane kernels assume rail-bounded inputs; out-of-rail codes
    // (never produced by the quantizers) ride the scalar twin instead.
    const std::int32_t lo = family_.lo();
    const std::int32_t hi = family_.hi();
    for (const std::int32_t c : channel_codes) {
      if (c < lo || c > hi) {
        why = SimdFallback::kOutOfRailInput;
        break;
      }
    }
  }
  if (why != SimdFallback::kNone)
    return fallback(family_.scalar().decode_quantized(channel_codes), why);
  last_used_scalar_ = false;
  for (std::size_t v = 0; v < channel_codes.size(); ++v)
    posterior_[v] = static_cast<T>(channel_codes[v]);
  return run();
}

template <class Family>
DecodeResult SimdDecoder<Family>::run() {
  std::fill(zlane_r_.begin(), zlane_r_.end(), T{0});
  saturation_.datapath_clips = 0;
  saturation_.q_clips = 0;
  saturation_.r_clips = 0;
  saturation_.p_clips = 0;
  saturation_.degenerate_checks = 0;
  WatchdogState watchdog(options_.watchdog);
  bool watchdog_fired = false;
  bool cancelled = false;

  DecodeResult result;
  result.hard_bits.resize(code_.n());
  BitVec previous_hard;
  if (options_.observer) previous_hard.resize(code_.n());

  const auto& kernels = Family::kernels(kernels_);
  ZLanePass<T, typename Family::Map> pass{};
  pass.p = p_scratch_.data();
  pass.q = q_.data();
  pass.r = zlane_r_.data();
  pass.z_pad = z_pad_;
  pass.lo = family_.lo();
  pass.hi = family_.hi();
  pass.count_clips = options_.count_saturation;
  pass.stats = &saturation_;
  const std::size_t pad = (z_pad_ - z_) * sizeof(T);
  const auto layers = static_cast<std::uint32_t>(layer_start_.size() - 1);

  for (std::size_t iter = 1; iter <= options_.max_iterations; ++iter) {
    result.iterations = iter;
    for (std::uint32_t f = 0; f < lanes_; ++f) lane_map_.set(f, iter);
    pass.map = lane_map_.args();

    for (std::uint32_t l = 0; l < layers; ++l) {
      // Same cooperative-cancellation cadence as the scalar decoder: the
      // posterior memory is consistent at every layer boundary.
      if (cancel_ && cancel_->expired()) {
        cancelled = true;
        break;
      }
      const BatchBlock* const blocks = blocks_.data() + layer_start_[l];
      const std::uint32_t deg = layer_start_[l + 1] - layer_start_[l];
      if (deg == 0) continue;

      // Barrel-shift gather: rotate each block column's z posteriors into
      // contiguous lane order, zero the padding lanes.
      for (std::uint32_t j = 0; j < deg; ++j) {
        const T* src = posterior_.data() + blocks[j].p_base;
        T* dst = p_scratch_.data() + j * z_pad_;
        const std::uint32_t shift = blocks[j].shift;
        std::memcpy(dst, src + shift, (z_ - shift) * sizeof(T));
        std::memcpy(dst + (z_ - shift), src, shift * sizeof(T));
        std::memset(dst + z_, 0, pad);
      }

      pass.r_base = zlane_r_base_.data() + layer_start_[l];
      pass.deg = deg;
      kernels.zlane(pass);
      // A degree-1 layer forces R' = 0 on every one of its z rows, once
      // per layer pass — same accounting as the scalar row kernels.
      if (deg < 2) saturation_.degenerate_checks += z_;

      // Keep the all-zero pad invariant of R: a zero row has positive sign
      // product and min 0, so the staircase map writes +recon0 into pad
      // lanes (the scale maps write 0). With P_pad = R_pad = 0 at pass
      // entry, pad lanes provably produce no saturation events.
      for (std::uint32_t j = 0; j < deg && pad != 0; ++j)
        std::memset(zlane_r_.data() + pass.r_base[j] + z_, 0, pad);

      // Scatter: inverse rotation back into natural variable order.
      for (std::uint32_t j = 0; j < deg; ++j) {
        const T* src = p_scratch_.data() + j * z_pad_;
        T* dst = posterior_.data() + blocks[j].p_base;
        const std::uint32_t shift = blocks[j].shift;
        std::memcpy(dst + shift, src, (z_ - shift) * sizeof(T));
        std::memcpy(dst, src + (z_ - shift), shift * sizeof(T));
      }
    }

    kernels.signs({posterior_.data(), words_, 64, hard_.data()});
    for (std::size_t w = 0; w < words_; ++w)
      result.hard_bits.set_word(w, hard_[w]);
    const bool want_weight =
        static_cast<bool>(options_.observer) || options_.watchdog.enabled();
    std::size_t weight = 0;
    if (want_weight) weight = code_.syndrome_weight(result.hard_bits);
    if (options_.observer) {
      IterationSnapshot snap;
      snap.iteration = iter;
      snap.syndrome_weight = weight;
      const FixedFormat fmt = family_.posterior();
      double sum = 0.0;
      for (std::size_t v = 0; v < code_.n(); ++v)
        sum += std::abs(static_cast<double>(fmt.dequantize(posterior_[v])));
      snap.mean_abs_llr = sum / static_cast<double>(code_.n());
      snap.flipped_bits = result.hard_bits.hamming_distance(previous_hard);
      snap.saturation_clips =
          saturation_.q_clips + saturation_.r_clips + saturation_.p_clips;
      previous_hard = result.hard_bits;
      options_.observer(snap);
    }
    if (options_.early_termination &&
        (want_weight ? weight == 0 : code_.parity_ok(result.hard_bits))) {
      result.converged = true;
      break;
    }
    if (cancelled) break;
    if (options_.watchdog.enabled() && watchdog.should_abort(weight)) {
      watchdog_fired = true;
      break;
    }
  }

  // Parity recheck on output: never report garbage as a codeword.
  if (!result.converged) result.converged = code_.parity_ok(result.hard_bits);
  saturation_.datapath_clips =
      saturation_.q_clips + saturation_.r_clips + saturation_.p_clips;
  result.status =
      classify_exit(result.converged, watchdog_fired, 0, cancelled);
  return result;
}

template <class Family>
void SimdDecoder<Family>::decode_stream(FrameSource& source) {
  const SimdFallback reason = bypass_reason(true);
  for (;;) {
    // No lane is live here: the stream ends when the source runs dry, and
    // a few ready frames cost less on the z-lane shape than in a block of
    // idle lanes.
    const std::size_t ready = source.ready();
    if (ready == 0) break;
    if (reason == SimdFallback::kNone && ready >= min_block_) {
      run_lanes(source);
      continue;
    }
    for (std::size_t i = 0; i < ready; ++i) {
      const std::optional<StreamFrame> frame = source.next();
      if (!frame) break;
      decode_frame(source, *frame, reason);
    }
  }
  set_cancel_token(nullptr);
}

template <class Family>
void SimdDecoder<Family>::decode_frame(FrameSource& source,
                                       const StreamFrame& frame,
                                       SimdFallback reason) {
  set_cancel_token(frame.frame.cancel);
  DecodeResult result = decode(frame.frame.llr);
  // decode() stamps its own, more specific reason when the z-lane shape
  // also had to bypass its lane kernel; otherwise record why the lanes were
  // off (nothing for a small block).
  if (result.simd_fallback == SimdFallback::kNone)
    result.simd_fallback = reason;
  source.done(frame.tag, std::move(result), saturation());
}

template <class Family>
void SimdDecoder<Family>::read_plane() {
  Family::kernels(kernels_).signs(
      {p_.data(), code_.n(), lanes_, plane_.data()});
}

template <class Family>
std::uint64_t SimdDecoder<Family>::probe(bool weigh) {
  const auto layers = static_cast<std::uint32_t>(layer_start_.size() - 1);
  const std::uint64_t unsat =
      kernels_.probe({plane_.data(), blocks_.data(), layer_start_.data(),
                      layers, z_, weigh ? unsat_.data() : nullptr});
  if (weigh) {
    std::fill(weight_.begin(), weight_.end(), 0);
    const std::size_t rows = std::size_t{layers} * z_;
    for (std::size_t r = 0; r < rows; ++r)
      for (std::uint64_t m = unsat_[r]; m != 0; m &= m - 1)
        ++weight_[std::countr_zero(m)];
  }
  return unsat;
}

template <class Family>
void SimdDecoder<Family>::run_lanes(FrameSource& source) {
  if (lane_.empty()) allocate_lanes();
  const std::size_t n = code_.n();
  const auto& kernels = Family::kernels(kernels_);
  std::uint32_t live = 0;  // lanes currently carrying a frame
  // Live lanes whose frame carries a cancel token: the layer boundaries
  // poll tokens only while there is one.
  std::uint32_t tokens = 0;
  // A stream that threw may have left frames in lanes: start from idle.
  std::fill(lane_.begin(), lane_.end(), Lane{});
  std::fill(active_.begin(), active_.end(), T{0});

  BatchPass<T, typename Family::Map> pass{};
  pass.p = p_.data();
  pass.q = q_.data();
  pass.r = r_.data();
  pass.p_rows = rows_.data();
  pass.r_rows = rows_.data() + rows_.size() / 2;
  pass.z = z_;
  pass.active = active_.data();
  pass.r_keep = r_keep_.data();
  pass.lo = family_.lo();
  pass.hi = family_.hi();
  pass.map = lane_map_.args();
  pass.count_clips = options_.count_saturation;
  pass.q_clips = q_clips_.data();
  pass.r_clips = r_clips_.data();
  pass.p_clips = p_clips_.data();

  const bool et = options_.early_termination;
  const bool wd = options_.watchdog.enabled();
  const auto layers = static_cast<std::uint32_t>(layer_start_.size() - 1);

  // Frames taken and not yet in P. The refill pass quantizes each taken
  // frame straight into its lane of P, in one pass over the rows: when
  // min(F, kRefillSlots) frames are taken, and after each refill loop. A
  // frame's LLRs stay readable until its lane finishes (the FrameSource
  // contract), so a slot keeps only the pointer.
  RefillPass<T> refill{};
  refill.n = n;
  refill.p = p_.data();
  refill.grid = family_.grid();
  std::array<long long, kRefillSlots> clips{};
  if (options_.count_saturation) refill.clips = clips.data();
  const std::uint32_t slots = std::min(lanes_, kRefillSlots);
  const auto run_refill = [&] {
    if (refill.count == 0) return;
    clips.fill(0);
    kernels.refill(refill);
    for (std::uint32_t k = 0; k < refill.count; ++k)
      lane_[refill.lane[k]].quantizer_clips = clips[k];
    refill.count = 0;
  };

  // Take the source's next frame into free lane f. The lane's R column is
  // NOT zero-filled — r_keep_ masks its reads for the frame's first
  // iteration instead.
  const auto load_lane = [&](std::uint32_t f, const StreamFrame& frame) {
    LDPC_CHECK(frame.frame.llr.size() == n);
    Lane& lane = lane_[f];
    lane.live = true;
    lane.tag = frame.tag;
    lane.iter = 0;
    lane.watchdog = WatchdogState(options_.watchdog);
    lane.cancel = frame.frame.cancel;
    if (lane.cancel != nullptr) ++tokens;
    refill.llr[refill.count] = frame.frame.llr.data();
    refill.lane[refill.count++] = f;
    if (refill.count == slots) run_refill();
    q_clips_[f] = 0;
    r_clips_[f] = 0;
    p_clips_[f] = 0;
    degenerate_[f] = 0;
    active_[f] = -1;
    ++live;
  };

  // Retire lane f, handing its frame's DecodeResult to the source exactly
  // as the scalar decoder's iteration tail + output parity recheck would
  // have produced it: hard bits from the sign plane, `parity` from the
  // probe over it, both read at the boundary where the lane finishes.
  const auto finish = [&](std::uint32_t f, bool watchdog_fired, bool cancelled,
                          bool parity) {
    Lane& lane = lane_[f];
    DecodeResult res;
    res.hard_bits.resize(n);
    const std::uint64_t* const hard = hard_.data() + f * words_;
    for (std::size_t w = 0; w < words_; ++w) res.hard_bits.set_word(w, hard[w]);
    res.iterations = lane.iter;
    res.converged = parity;
    res.status = classify_exit(res.converged, watchdog_fired, 0, cancelled);
    SaturationStats& sat = saturation_;
    last_used_scalar_ = false;
    sat.quantizer_clips = lane.quantizer_clips;
    sat.q_clips = q_clips_[f];
    sat.r_clips = r_clips_[f];
    sat.p_clips = p_clips_[f];
    sat.datapath_clips = sat.q_clips + sat.r_clips + sat.p_clips;
    sat.degenerate_checks = degenerate_[f];
    if (lane.cancel != nullptr) --tokens;
    lane.live = false;
    lane.cancel = nullptr;
    active_[f] = 0;
    --live;
    source.done(lane.tag, std::move(res), sat);
  };
  // Retire the lanes of `lanes` in lane order, their hard bits extracted
  // from the plane in one pass for the whole set; `unsat` is the probe's
  // mask at this boundary and `fired` marks the watchdog aborts.
  const auto finalize = [&](std::uint64_t lanes, std::uint64_t unsat,
                            std::uint64_t fired, bool cancelled) {
    kernels_.lane_bits({plane_.data(), words_, lanes, hard_.data()});
    for (std::uint64_t m = lanes; m != 0; m &= m - 1) {
      const auto f = static_cast<std::uint32_t>(std::countr_zero(m));
      finish(f, ((fired >> f) & 1U) != 0, cancelled, ((unsat >> f) & 1U) == 0);
    }
  };

  do {
    // Refill: idle lanes take the source's next frames, so lanes stay full
    // while their neighbours are still iterating.
    for (std::uint32_t f = 0; f < lanes_; ++f) {
      if (lane_[f].live) continue;
      const std::optional<StreamFrame> frame = source.next();
      if (!frame) break;
      load_lane(f, *frame);
    }
    run_refill();
    if (live == 0) return;  // every ready frame resolved without a lane

    bool at_budget = false;  // a lane runs its last permitted iteration
    for (std::uint32_t f = 0; f < lanes_; ++f) {
      Lane& lane = lane_[f];
      if (!lane.live) continue;
      ++lane.iter;
      at_budget = at_budget || lane.iter >= options_.max_iterations;
      // First iteration of a refilled lane: its R column is stale memory
      // and must read as 0 (the kernel masks it via r_keep).
      r_keep_[f] = lane.iter == 1 ? T{0} : T{-1};
      lane_map_.set(f, lane.iter);
    }

    for (std::uint32_t l = 0; l < layers && live > 0; ++l) {
      // Same cooperative-cancellation cadence as the scalar decoder:
      // polled at every layer boundary, where lane posteriors are
      // consistent. The clock is read once per boundary, by the first
      // live token with a deadline. An expired lane finalizes from its
      // current state, read into the plane at this boundary — the parity
      // recheck decides converged vs deadline-expired.
      std::uint64_t expired = 0;
      std::chrono::steady_clock::time_point now{};
      bool clock_read = false;
      for (std::uint32_t f = 0; f < lanes_ && tokens > 0; ++f) {
        const Lane& lane = lane_[f];
        if (!lane.live || lane.cancel == nullptr) continue;
        if (!clock_read && lane.cancel->has_deadline()) {
          now = std::chrono::steady_clock::now();
          clock_read = true;
        }
        if (lane.cancel->expired(now)) expired |= std::uint64_t{1} << f;
      }
      if (expired != 0) {
        read_plane();
        finalize(expired, probe(false), 0, true);
        if (live == 0) break;
      }
      const std::uint32_t deg = layer_start_[l + 1] - layer_start_[l];
      if (deg == 0) continue;
      pass.blocks = blocks_.data() + layer_start_[l];
      pass.deg = deg;
      kernels.batch(pass);
      // A degree-1 layer forces R' = 0 on every one of its z rows, once
      // per layer pass — same accounting as the scalar row kernels.
      if (deg == 1)
        for (std::uint32_t f = 0; f < lanes_; ++f)
          if (active_[f] != 0) degenerate_[f] += z_;
    }

    // Iteration tail, per lane in the scalar order: early termination,
    // then the watchdog (which may abort even on the final iteration),
    // then the iteration budget. The plane and the probe are read only
    // when a lane may finish.
    if (live == 0 || !(et || wd || at_budget)) continue;
    read_plane();
    const std::uint64_t unsat = probe(wd);
    std::uint64_t finishing = 0;
    std::uint64_t fired = 0;
    for (std::uint32_t f = 0; f < lanes_; ++f) {
      Lane& lane = lane_[f];
      if (!lane.live) continue;
      const std::uint64_t bit = std::uint64_t{1} << f;
      if (et && (unsat & bit) == 0) {
        finishing |= bit;
      } else if (wd && lane.watchdog.should_abort(weight_[f])) {
        finishing |= bit;
        fired |= bit;
      } else if (lane.iter >= options_.max_iterations) {
        finishing |= bit;
      }
    }
    finalize(finishing, unsat, fired, false);
  } while (live > 0);
}

template class SimdDecoder<Fixed16>;
template class SimdDecoder<Fa8>;

}  // namespace ldpc::simd
