// SIMD z-lane layered scaled-min-sum decoder: the z check rows of each
// layer execute as SIMD lanes, mirroring the paper's z parallel datapath
// copies (Fig. 3). Bit-identical to LayeredMinSumFixedDecoder — hard bits,
// iteration counts, convergence status, saturation counters — asserted in
// tests/simd_equivalence_test.cpp. Formats wider than 15 bits, offsets
// beyond int16 and active fault campaigns delegate to the embedded scalar
// twin (see simd_decoder.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/simd/simd_decoder.hpp"

namespace ldpc {

class SimdLayeredDecoder final : public simd::ZLaneDecoder<simd::Fixed16> {
 public:
  /// Normalized min-sum, scale taken from options (0.75 -> the paper's
  /// shift-add, anything else -> truncating num/16), like the scalar
  /// decoder's primary constructor. `tier` pins a specific kernel tier
  /// (tests); default picks the best available at runtime.
  SimdLayeredDecoder(const QCLdpcCode& code, DecoderOptions options,
                     FixedFormat format = FixedFormat{},
                     std::optional<simd::SimdTier> tier = std::nullopt)
      : ZLaneDecoder(code, options, simd::Fixed16(code, options, format), "",
                     tier) {}

  /// Offset-min-sum variant: magnitudes corrected by max(|m| - offset, 0),
  /// `offset_code` in quantized units (mirrors LayerRowKernel::offset_kernel).
  SimdLayeredDecoder(const QCLdpcCode& code, DecoderOptions options,
                     FixedFormat format, std::int32_t offset_code,
                     std::string label,
                     std::optional<simd::SimdTier> tier = std::nullopt)
      : ZLaneDecoder(code, options,
                     simd::Fixed16(code, options, format, offset_code, label),
                     label, tier) {}

  FixedFormat format() const { return family().posterior(); }
};

}  // namespace ldpc
