// Inter-frame-batched SIMD layered scaled-min-sum decoder: lane f carries
// frame f of a block, so every lane is full for any z (the AVX-512 tier
// decodes 32 frames per kernel sweep) and the batch engine hands it
// block_width() frames at a time. Per-frame results are bit-identical to
// LayeredMinSumFixedDecoder — hard bits, iteration counts, status,
// per-site SaturationStats — asserted in tests/simd_batch_test.cpp across
// tiers, z values and block sizes. See simd_decoder.hpp for the layout and
// the per-frame fallbacks.
#pragma once

#include <memory>
#include <optional>

#include "core/simd/simd_decoder.hpp"

namespace ldpc {

class SimdBatchDecoder final : public simd::BatchDecoder<simd::Fixed16> {
 public:
  /// Normalized min-sum; scale taken from options (0.75 -> the paper's
  /// shift-add, anything else -> truncating num/16), mirroring the scalar
  /// and z-lane decoders. `tier` pins a kernel tier (tests); default picks
  /// the best available at runtime.
  SimdBatchDecoder(const QCLdpcCode& code, DecoderOptions options,
                   FixedFormat format = FixedFormat{},
                   std::optional<simd::SimdTier> tier = std::nullopt)
      : BatchDecoder(std::make_unique<simd::ZLaneDecoder<simd::Fixed16>>(
            code, options, simd::Fixed16(code, options, format), "", tier)) {}

  FixedFormat format() const { return family().posterior(); }
};

}  // namespace ldpc
