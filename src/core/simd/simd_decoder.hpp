// The SIMD decoder, written once over a decoder family: one object runs
// both shapes of the check-row update (simd_row_update.hpp).
//
//   z-lane   decode() and decode_quantized(): one frame at a time; the z
//            check rows of a layer are the lanes (the paper's z datapath
//            copies, Fig. 3). Posteriors live in natural variable order;
//            per layer each block column's z posteriors are gathered
//            pre-rotated into a padded structure-of-arrays scratch — the
//            (row + shift) % z barrel shift collapses into two memcpys —
//            and scattered back after the pass.
//   lanes    decode_stream(): lane f carries one frame of a stream; arrays
//            are lane-major with stride F (p[v * F + f]) and the z rows of
//            a layer run serially, so every lane is full for any z and the
//            rotation is a scalar index. Frames iterate independently: a
//            lane whose frame converges, expires or exhausts its budget is
//            refilled with the source's next frame, so throughput tracks
//            the mean iteration count, not the max — across block and
//            engine job boundaries alike. With no lane live, fewer ready
//            frames than pay for the idle lanes (min_block()) decode frame
//            by frame on the z-lane shape. The lane memory is allocated by
//            the first stream that starts the lanes, so a decoder used
//            frame by frame never holds it.
//
// Both shapes read one block table (blocks_ / layer_start_), the probe's.
//
// A family fixes the lane element type, the magnitude map and the scalar
// twin every result is bit-identical to:
//
//   Fixed16   int16 lanes, scaled (0.75 shift-add or num/16) or offset
//             min-sum — LayeredMinSumFixedDecoder
//   Fa8       int8 lanes, per-iteration finite-alphabet staircase —
//             LayeredMinSumFaDecoder (fa2/fa3/fa4, see core/fa_tables.hpp)
//
// The family's scalar twin runs the construction-time validation and takes
// over any decode the lane kernels cannot reproduce bit-exactly — a format
// outside the lane envelope, an active fault injector (corruption order is
// scalar) or out-of-rail quantized input. A stream with a per-iteration
// observer decodes frame by frame on the z-lane shape. The reason is
// recorded in DecodeResult::simd_fallback, never silent.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "codes/qc_code.hpp"
#include "core/decoder.hpp"
#include "core/fa_tables.hpp"
#include "core/layered_minsum_fa.hpp"
#include "core/layered_minsum_fixed.hpp"
#include "core/quant.hpp"
#include "core/simd/simd_kernel.hpp"
#include "util/aligned.hpp"

namespace ldpc::simd {

/// int16 scaled / offset min-sum family.
class Fixed16 {
 public:
  using T = std::int16_t;
  using Map = ScaleMap;
  using Scalar = LayeredMinSumFixedDecoder;

  /// Normalized min-sum, scale from options (0.75 -> the paper's
  /// shift-add, anything else -> truncating num/16).
  Fixed16(const QCLdpcCode& code, const DecoderOptions& options,
          FixedFormat format);
  /// Offset min-sum, `offset_code` in quantized units
  /// (LayerRowKernel::offset_kernel).
  Fixed16(const QCLdpcCode& code, const DecoderOptions& options,
          FixedFormat format, std::int32_t offset_code,
          const std::string& label);

  Scalar& scalar() const { return *scalar_; }
  FixedFormat posterior() const { return format_; }
  std::string format_name() const { return format_.name(); }
  T lo() const { return static_cast<T>(format_.min_code()); }
  T hi() const { return static_cast<T>(format_.max_code()); }
  /// Outside the int16 exactness envelope: > 15-bit format (then P - R can
  /// leave int16) or an offset that does not fit int16.
  bool wide() const { return wide_; }
  /// Quantize n LLRs into contiguous codes; `clips` (may be null) counts
  /// rail clips.
  void quantize(const KernelSet& kernels, std::span<const float> llr, T* out,
                long long* clips) const;
  /// The channel quantizer's grid: the format's, on its own rails.
  QuantizeGrid<T> grid() const { return quantize_grid(format_, lo(), hi()); }
  static const ShapeKernels<T, Map>& kernels(const KernelSet& k) {
    return k.fixed16;
  }

  /// Map parameters per lane and iteration: uniform for this family.
  class LaneMap {
   public:
    LaneMap(const Fixed16& family, std::uint32_t /*lanes*/)
        : map_(family.map_) {}
    void set(std::uint32_t /*lane*/, std::size_t /*iter*/) {}
    ScaleMap args() const { return map_; }

   private:
    ScaleMap map_;
  };

 private:
  std::unique_ptr<Scalar> scalar_;
  FixedFormat format_;
  ScaleMap map_;
  bool wide_ = false;
};

/// int8 finite-alphabet family (fa2/fa3/fa4).
class Fa8 {
  /// One decode iteration's staircase, kernel-ready: thresholds plus
  /// nonnegative reconstruction deltas (recon[t+1] - recon[t]).
  struct IterTable {
    std::int8_t thr[kFaMaxThresholds];
    std::int8_t delta[kFaMaxThresholds];
    std::int8_t recon0;
  };

 public:
  using T = std::int8_t;
  using Map = StaircaseMap;
  using Scalar = LayeredMinSumFaDecoder;

  /// `msg_bits` in {2, 3, 4}; the scalar twin builds the MIM tables.
  Fa8(const QCLdpcCode& code, const DecoderOptions& options, int msg_bits,
      float design_ebn0_db);

  Scalar& scalar() const { return *scalar_; }
  const FaTableSet& tables() const { return scalar_->tables(); }
  FixedFormat posterior() const { return tables().posterior; }
  std::string format_name() const { return tables().name(); }
  T lo() const { return -kFaRail; }
  T hi() const { return kFaRail; }
  /// Every value lives on the symmetric rail: no format-driven fallback.
  bool wide() const { return false; }
  void quantize(const KernelSet& kernels, std::span<const float> llr, T* out,
                long long* clips) const;
  /// The posterior format's grid on the symmetric rail.
  QuantizeGrid<T> grid() const {
    return quantize_grid(posterior(), lo(), hi());
  }
  static const ShapeKernels<T, Map>& kernels(const KernelSet& k) {
    return k.fa8;
  }

  /// Per-lane staircase rows (StaircaseMap). A lane's column is rewritten
  /// only when its table index min(iter - 1, T - 1) changes — a handful of
  /// byte stores per lane per iteration, nothing on the row-sweep path.
  class LaneMap {
   public:
    LaneMap(const Fa8& family, std::uint32_t lanes);
    /// Point `lane` at the table of decode iteration `iter` (1-based).
    void set(std::uint32_t lane, std::size_t iter);
    StaircaseMap args() const;

   private:
    static constexpr std::size_t kNoTable = static_cast<std::size_t>(-1);
    std::vector<IterTable> tables_;
    std::uint32_t lanes_;
    std::uint32_t num_thr_;
    AlignedVec<std::int8_t> thr_;     ///< num_thr rows * lanes
    AlignedVec<std::int8_t> delta_;   ///< num_thr rows * lanes
    AlignedVec<std::int8_t> recon0_;  ///< lanes
    std::vector<std::size_t> table_;  ///< per lane, the table it holds
  };

 private:
  std::unique_ptr<Scalar> scalar_;
  std::vector<IterTable> iter_tables_;
};

/// The SIMD decoder of `Family`, both shapes (see the file comment).
template <class Family>
class SimdDecoder : public Decoder {
 public:
  using T = typename Family::T;

  /// `label` overrides name() when non-empty; `tier` pins a kernel tier
  /// (tests), default picks the best available at runtime.
  SimdDecoder(const QCLdpcCode& code, DecoderOptions options, Family family,
              std::string label, std::optional<SimdTier> tier);

  /// One frame on the z-lane shape.
  DecodeResult decode(std::span<const float> llr) override;

  /// Streams run the lanes; with no lane live and fewer than min_block()
  /// frames ready, those frames decode one by one on the z-lane shape
  /// (bit-identical either way, simd_fallback kNone).
  void decode_stream(FrameSource& source) override;

  std::size_t n() const override { return code_.n(); }
  std::size_t k() const override { return code_.k(); }
  std::string name() const override {
    return label_.empty() ? "layered-minsum-simd-" + family_.format_name()
                          : label_;
  }
  std::string message_format() const override {
    return family_.format_name();
  }
  SaturationStats saturation() const override;
  void set_cancel_token(const CancelToken* token) override;

  /// Frames per full block = the tier's lane count for T.
  std::size_t block_width() const override { return lanes_; }
  /// Fewest ready frames that start the lanes: the tier's batch_break_even
  /// times the z-lane fill z / z_pad, rounded up — the z-lane shape's cost
  /// per frame grows with its idle lanes (a z = 1 code fills one of them),
  /// the lanes' does not.
  std::size_t min_block() const { return min_block_; }

  /// Decode from already-quantized channel codes (the scalar twin's
  /// bit-exact entry point) on the z-lane shape. Codes outside the rails
  /// route to the scalar twin, which accepts arbitrary int32 codes
  /// (kOutOfRailInput).
  DecodeResult decode_quantized(std::span<const std::int32_t> channel_codes);

  SimdTier tier() const { return tier_; }

  /// True when the configuration is outside a shape's lane envelope, so
  /// that shape's kernel never runs (kWideFormat): single frames then ride
  /// the scalar twin, or stream frames the z-lane shape.
  bool scalar_only() const { return !zlane_fits_ || !stream_fits_; }

 private:
  /// Per-lane decode-in-flight state; `tag` is the source's tag for the
  /// lane's frame.
  struct Lane {
    bool live = false;
    std::size_t tag = 0;
    std::size_t iter = 0;
    WatchdogState watchdog{WatchdogOptions{}};
    const CancelToken* cancel = nullptr;
    long long quantizer_clips = 0;
  };

  /// Why a single frame (`stream` false) or a stream (true) cannot take its
  /// shape's lane kernel, or kNone.
  SimdFallback bypass_reason(bool stream) const;
  DecodeResult fallback(DecodeResult result, SimdFallback reason);
  /// The z-lane iterations over the quantized frame in posterior_.
  DecodeResult run();
  /// One stream frame on the z-lane shape, stamped with `reason` unless
  /// the shape bypassed its own lane kernel for a more specific one.
  void decode_frame(FrameSource& source, const StreamFrame& frame,
                    SimdFallback reason);
  /// The lane state machine, from every lane idle until every lane is idle
  /// again: refill free lanes from `source`, iterate, and hand each frame
  /// to source.done() the iteration it finishes.
  void run_lanes(FrameSource& source);
  /// The lane memory, allocated by the first stream that starts the lanes.
  void allocate_lanes();
  /// Read the sign plane from P: one pass over the n posterior rows.
  void read_plane();
  /// The parity probe over the sign plane (the tier's probe pass): the
  /// mask of lanes with an unsatisfied check row; with `weigh`,
  /// weight_[f] = lane f's syndrome weight.
  std::uint64_t probe(bool weigh);

  const QCLdpcCode& code_;
  DecoderOptions options_;
  Family family_;
  std::string label_;
  SimdTier tier_;
  const KernelSet& kernels_;
  const CancelToken* cancel_ = nullptr;  ///< non-owning, may be null
  std::uint32_t lanes_ = 0;  ///< F: the tier's lanes for T, frames per block
  std::uint32_t z_ = 0;
  std::uint32_t z_pad_ = 0;  ///< z rounded up to max(16, F)
  std::size_t min_block_ = 1;  ///< see min_block()
  /// The clip counters stay exact in T: z-lane passes run z_pad / F row
  /// steps, lane passes z.
  bool zlane_fits_ = false;
  bool stream_fits_ = false;

  std::vector<BatchBlock> blocks_;          ///< every layer's blocks, in order
  std::vector<std::uint32_t> layer_start_;  ///< layers + 1 offsets into blocks_
  /// Per block, its z-lane R offset r_slot * z_pad (ZLanePass::r_base).
  std::vector<std::uint32_t> zlane_r_base_;
  typename Family::LaneMap lane_map_;
  AlignedVec<T> q_;  ///< max_deg * z_pad row scratch, both shapes
  std::vector<T*> rows_;  ///< max_deg P then max_deg R row pointers
                          ///< (BatchPass::p_rows / r_rows)
  /// Hard-decision words: the z-lane frame's, or words_ per lane.
  std::vector<std::uint64_t> hard_;
  std::size_t words_ = 0;  ///< hard-decision words per frame, ceil(n / 64)
  SaturationStats saturation_;  ///< the last frame's, either shape
  bool last_used_scalar_ = false;

  // The z-lane shape.
  AlignedVec<T> posterior_;   ///< P memory, natural order, words_ * 64
                              ///< values (the zero tail is whole sign-pass
                              ///< words)
  AlignedVec<T> zlane_r_;    ///< R memory, r_slot * z_pad + row
  AlignedVec<T> p_scratch_;  ///< gathered P lanes, max_deg * z_pad

  // The lanes (allocate_lanes).
  AlignedVec<T> p_;       ///< n rows * F lanes posteriors
  AlignedVec<T> r_;       ///< nonzero_blocks * z rows * F check messages
  AlignedVec<T> active_;  ///< F lane mask (-1 live, 0 idle)
  AlignedVec<T> r_keep_;  ///< F lane mask (0 = first iteration, R reads
                          ///< as 0 — see BatchPass::r_keep)
  /// The sign plane: bit f of plane_[v] = (P[v][f] < 0), words_ * 64 rows
  /// (the rows past n stay zero) and kProbePadWords words of slack.
  std::vector<std::uint64_t> plane_;
  /// Every layer's z check-row words of the last weighed probe (bit f set:
  /// lane f's check is unsatisfied), and kProbePadWords words of slack.
  std::vector<std::uint64_t> unsat_;
  std::vector<Lane> lane_;
  std::vector<long long> q_clips_;     ///< per-lane clip accumulators
  std::vector<long long> r_clips_;
  std::vector<long long> p_clips_;
  std::vector<long long> degenerate_;  ///< per-lane degenerate checks
  std::vector<std::size_t> weight_;    ///< per-lane syndrome weights
};

extern template class SimdDecoder<Fixed16>;
extern template class SimdDecoder<Fa8>;

}  // namespace ldpc::simd
