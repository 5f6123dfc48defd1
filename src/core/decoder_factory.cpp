#include "core/decoder_factory.hpp"

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "core/flooding_bp.hpp"
#include "core/flooding_minsum.hpp"
#include "core/gallager_b.hpp"
#include "core/layered_minsum_fa.hpp"
#include "core/layered_minsum_fixed.hpp"
#include "core/layered_minsum_float.hpp"
#include "core/simd/simd_layered.hpp"

namespace ldpc {

namespace {

using Builder = std::unique_ptr<Decoder> (*)(const QCLdpcCode&,
                                             const DecoderOptions&);

/// Builder for `D(code, options, args...)`.
template <class D, auto... kArgs>
std::unique_ptr<Decoder> build(const QCLdpcCode& code,
                               const DecoderOptions& options) {
  return std::make_unique<D>(code, options, kArgs...);
}

constexpr FixedFormat kQ8{8, 2};
constexpr FixedFormat kQ6{6, 1};
/// Offset 0.5 in LLR units at the q8.2 format = 2 codes.
constexpr std::int32_t kOffsetCode = 2;

/// A `-batched` name: the SIMD decoder of Family(code, options, kArgs...),
/// the same decoder as the name without `-batched`, under the name() the
/// batched names have always reported.
template <class Family, auto... kArgs>
std::unique_ptr<Decoder> build_batched(const QCLdpcCode& code,
                                       const DecoderOptions& options) {
  Family family(code, options, kArgs...);
  std::string label = "layered-minsum-simd-batched-" + family.format_name();
  return std::make_unique<simd::SimdDecoder<Family>>(
      code, options, std::move(family), std::move(label), std::nullopt);
}

std::size_t one_frame() { return 1; }

/// A SIMD decoder's block_width(): one frame per lane of the tier its
/// constructor picks, whatever the code.
template <class D>
std::size_t lanes() {
  return simd::lanes_for<typename D::T>(simd::best_tier());
}

struct Entry {
  const char* name;
  Builder make;
  /// block_width() of every decoder `make` builds (decoder_block_width).
  std::size_t (*block_width)() = &one_frame;
};

/// Every registered decoder, in decoder_names() order. Each SIMD name and
/// its `-batched` twin build the same decoder, bit-identical to its scalar
/// reference (tests/simd_*_test.cpp); the batch engine hands it whole frame
/// blocks. The finite-alphabet family (fa2/fa3/fa4) uses MIM staircase
/// tables on an int8 posterior, see core/fa_tables.hpp.
const Entry kDecoders[] = {
    {"flooding-bp", &build<FloodingBpDecoder>},
    {"flooding-minsum", &build<FloodingMinSumDecoder, MinSumVariant::kPlain>},
    {"flooding-minsum-norm",
     &build<FloodingMinSumDecoder, MinSumVariant::kNormalized>},
    {"flooding-minsum-offset",
     &build<FloodingMinSumDecoder, MinSumVariant::kOffset>},
    {"flooding-minsum-scms",
     &build<FloodingMinSumDecoder, MinSumVariant::kSelfCorrected>},
    {"gallager-b", &build<GallagerBDecoder>},
    {"layered-minsum-float", &build<LayeredMinSumFloatDecoder>},
    {"layered-minsum-fixed", &build<LayeredMinSumFixedDecoder, kQ8>},
    {"layered-minsum-q6", &build<LayeredMinSumFixedDecoder, kQ6>},
    {"layered-minsum-offset-fixed",
     [](const QCLdpcCode& code,
        const DecoderOptions& options) -> std::unique_ptr<Decoder> {
       return std::make_unique<LayeredMinSumFixedDecoder>(
           code, options, LayerRowKernel::offset_kernel(kQ8, kOffsetCode),
           "layered-minsum-offset-" + kQ8.name());
     }},
    {"layered-minsum-simd", &build<SimdFixedDecoder, kQ8>,
     &lanes<SimdFixedDecoder>},
    {"layered-minsum-simd-q6", &build<SimdFixedDecoder, kQ6>,
     &lanes<SimdFixedDecoder>},
    {"layered-minsum-simd-offset",
     [](const QCLdpcCode& code,
        const DecoderOptions& options) -> std::unique_ptr<Decoder> {
       return std::make_unique<SimdFixedDecoder>(
           code, options, kQ8, kOffsetCode,
           "layered-minsum-simd-offset-" + kQ8.name());
     },
     &lanes<SimdFixedDecoder>},
    {"layered-minsum-simd-batched", &build_batched<simd::Fixed16, kQ8>,
     &lanes<SimdFixedDecoder>},
    {"layered-minsum-simd-batched-q6", &build_batched<simd::Fixed16, kQ6>,
     &lanes<SimdFixedDecoder>},
    {"layered-minsum-fa2", &build<LayeredMinSumFaDecoder, 2>},
    {"layered-minsum-fa3", &build<LayeredMinSumFaDecoder, 3>},
    {"layered-minsum-fa4", &build<LayeredMinSumFaDecoder, 4>},
    {"layered-minsum-simd-fa2", &build<SimdFaDecoder, 2>,
     &lanes<SimdFaDecoder>},
    {"layered-minsum-simd-fa3", &build<SimdFaDecoder, 3>,
     &lanes<SimdFaDecoder>},
    {"layered-minsum-simd-fa4", &build<SimdFaDecoder, 4>,
     &lanes<SimdFaDecoder>},
    {"layered-minsum-simd-batched-fa2", &build_batched<simd::Fa8, 2, 2.0F>,
     &lanes<SimdFaDecoder>},
    {"layered-minsum-simd-batched-fa3", &build_batched<simd::Fa8, 3, 2.0F>,
     &lanes<SimdFaDecoder>},
    {"layered-minsum-simd-batched-fa4", &build_batched<simd::Fa8, 4, 2.0F>,
     &lanes<SimdFaDecoder>},
};

const Entry& find_entry(const std::string& name) {
  for (const Entry& entry : kDecoders)
    if (name == entry.name) return entry;
  // List the candidates in the error: factory names travel through CLI
  // flags and JSON configs, where a typo is otherwise a dead end.
  std::ostringstream msg;
  msg << "unknown decoder name: " << name << " (known:";
  for (const std::string& known : decoder_names()) msg << ' ' << known;
  msg << ')';
  throw Error(msg.str());
}

}  // namespace

std::unique_ptr<Decoder> make_decoder(const std::string& name,
                                      const QCLdpcCode& code,
                                      const DecoderOptions& options) {
  return find_entry(name).make(code, options);
}

std::size_t decoder_block_width(const std::string& name) {
  return find_entry(name).block_width();
}

const std::vector<std::string>& decoder_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Entry& entry : kDecoders) out.emplace_back(entry.name);
    return out;
  }();
  return names;
}

}  // namespace ldpc
