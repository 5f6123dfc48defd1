// The SIMD layered min-sum decoders, one per family (simd_decoder.hpp):
// each decodes single frames on its z-lane shape, the z check rows of a
// layer as SIMD lanes (the paper's z parallel datapath copies, Fig. 3),
// and streams (decode_block, engine jobs) with one frame per lane.
//
//   SimdFixedDecoder  int16 scaled / offset min-sum, bit-identical to
//                     LayeredMinSumFixedDecoder
//                     (tests/simd_equivalence_test.cpp)
//   SimdFaDecoder     int8 finite alphabet (fa2/fa3/fa4), bit-identical to
//                     LayeredMinSumFaDecoder
//                     (tests/simd_fa_equivalence_test.cpp)
//
// Hard bits, iteration counts, status and every saturation counter match,
// streams included (tests/simd_batch_test.cpp).
// Formats wider than 15 bits, offsets beyond int16 and active fault
// campaigns delegate to the embedded scalar twin.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/simd/simd_decoder.hpp"

namespace ldpc {

class SimdFixedDecoder final : public simd::SimdDecoder<simd::Fixed16> {
 public:
  /// Normalized min-sum, scale taken from options (0.75 -> the paper's
  /// shift-add, anything else -> truncating num/16), like the scalar
  /// decoder's primary constructor. `tier` pins a specific kernel tier
  /// (tests); default picks the best available at runtime.
  SimdFixedDecoder(const QCLdpcCode& code, DecoderOptions options,
                   FixedFormat format = FixedFormat{},
                   std::optional<simd::SimdTier> tier = std::nullopt)
      : SimdDecoder(code, options, simd::Fixed16(code, options, format), "",
                    tier) {}

  /// Offset-min-sum variant: magnitudes corrected by max(|m| - offset, 0),
  /// `offset_code` in quantized units (mirrors LayerRowKernel::offset_kernel).
  SimdFixedDecoder(const QCLdpcCode& code, DecoderOptions options,
                   FixedFormat format, std::int32_t offset_code,
                   std::string label,
                   std::optional<simd::SimdTier> tier = std::nullopt)
      : SimdDecoder(code, options,
                    simd::Fixed16(code, options, format, offset_code, label),
                    label, tier) {}
};

class SimdFaDecoder final : public simd::SimdDecoder<simd::Fa8> {
 public:
  /// `msg_bits` in {2, 3, 4}; the MIM tables are built by the embedded
  /// scalar twin at construction. `tier` pins a kernel tier (tests).
  SimdFaDecoder(const QCLdpcCode& code, DecoderOptions options, int msg_bits,
                float design_ebn0_db = 2.0F,
                std::optional<simd::SimdTier> tier = std::nullopt)
      : SimdDecoder(code, options,
                    simd::Fa8(code, options, msg_bits, design_ebn0_db), "",
                    tier) {}
};

}  // namespace ldpc
