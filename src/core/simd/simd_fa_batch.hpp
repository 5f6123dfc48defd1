// Inter-frame-batched finite-alphabet decoder (fa2/fa3/fa4): frame f in
// int8 lane f — 64 frames per vector step on AVX-512. Lanes sit at
// independent iteration counts, so the staircase tables ride as per-lane
// columns (Fa8::LaneMap). Per-frame results are bit-identical to
// LayeredMinSumFaDecoder (r_clips structurally zero on both sides),
// asserted in tests/simd_fa_equivalence_test.cpp across tiers, z values
// and block sizes.
#pragma once

#include <memory>
#include <optional>

#include "core/simd/simd_decoder.hpp"

namespace ldpc {

class SimdFaBatchDecoder final : public simd::BatchDecoder<simd::Fa8> {
 public:
  /// `msg_bits` in {2, 3, 4}; the MIM tables are built once by the z-lane
  /// twin's embedded scalar decoder. `tier` pins a kernel tier (tests).
  SimdFaBatchDecoder(const QCLdpcCode& code, DecoderOptions options,
                     int msg_bits, float design_ebn0_db = 2.0F,
                     std::optional<simd::SimdTier> tier = std::nullopt)
      : BatchDecoder(std::make_unique<simd::ZLaneDecoder<simd::Fa8>>(
            code, options, simd::Fa8(code, options, msg_bits, design_ebn0_db),
            "", tier)) {}

  const FaTableSet& tables() const { return family().tables(); }
};

}  // namespace ldpc
