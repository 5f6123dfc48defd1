// SIMD z-lane finite-alphabet layered decoder (fa2/fa3/fa4): the z-lane
// shape on int8 storage at twice the int16 lane density (AVX-512: 64 rows
// per vector step), with the staircase check-message reconstruction of the
// finite-alphabet family. Bit-identical to LayeredMinSumFaDecoder (hard
// bits, iterations, status, saturation counters), asserted in
// tests/simd_fa_equivalence_test.cpp. Fault campaigns and out-of-rail
// quantized inputs delegate to the embedded scalar twin.
#pragma once

#include <optional>

#include "core/simd/simd_decoder.hpp"

namespace ldpc {

class SimdFaLayeredDecoder final : public simd::ZLaneDecoder<simd::Fa8> {
 public:
  /// `msg_bits` in {2, 3, 4}; the MIM tables are built by the embedded
  /// scalar twin at construction. `tier` pins a kernel tier (tests).
  SimdFaLayeredDecoder(const QCLdpcCode& code, DecoderOptions options,
                       int msg_bits, float design_ebn0_db = 2.0F,
                       std::optional<simd::SimdTier> tier = std::nullopt)
      : ZLaneDecoder(code, options,
                     simd::Fa8(code, options, msg_bits, design_ebn0_db), "",
                     tier) {}

  const FaTableSet& tables() const { return family().tables(); }
};

}  // namespace ldpc
