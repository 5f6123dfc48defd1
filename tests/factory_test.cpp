// DecoderFactory name enumeration contract: every name decoder_names()
// advertises constructs a working decoder, each constructed decoder
// round-trips its reported message format through the registry's naming
// scheme, and unknown names fail with an error that lists every candidate
// — the property the CLI tools and sweep harnesses rely on to print
// actionable --decoder help.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "codes/wimax.hpp"
#include "core/decoder_factory.hpp"
#include "core/simd/simd_kernel.hpp"
#include "util/check.hpp"

namespace ldpc {
namespace {

TEST(DecoderFactory, EveryRegisteredNameConstructs) {
  const QCLdpcCode code = make_wimax_code(WimaxRate::kRate1_2, 24);
  DecoderOptions opt;
  for (const std::string& name : decoder_names()) {
    std::unique_ptr<Decoder> dec;
    ASSERT_NO_THROW(dec = make_decoder(name, code, opt)) << name;
    ASSERT_NE(dec, nullptr) << name;
    EXPECT_EQ(dec->n(), code.n()) << name;
    EXPECT_EQ(dec->k(), code.k()) << name;
    // A freshly constructed decoder must actually decode: strong all-zeros
    // evidence converges for every family in at most a few iterations.
    std::vector<float> llr(code.n(), 8.0F);
    const DecodeResult res = dec->decode(llr);
    EXPECT_TRUE(res.converged) << name;
  }
}

TEST(DecoderFactory, EveryOutcomeCarriesNHardDecisions) {
  // The retry supervisor tells an attempt that decoded from one that threw
  // by its hard decisions: every decode returns n() of them, converged,
  // out of iterations or cancelled alike.
  const QCLdpcCode code = make_wimax_code(WimaxRate::kRate1_2, 24);
  DecoderOptions opt;
  std::vector<float> clean(code.n(), 8.0F), garbled(code.n());
  for (std::size_t i = 0; i < garbled.size(); ++i)
    garbled[i] = i % 3 == 0 ? -1.0F : 1.0F;
  CancelToken cancelled;
  cancelled.cancel();
  for (const std::string& name : decoder_names()) {
    const auto dec = make_decoder(name, code, opt);
    EXPECT_EQ(dec->decode(clean).hard_bits.size(), code.n()) << name;
    EXPECT_EQ(dec->decode(garbled).hard_bits.size(), code.n()) << name;
    dec->set_cancel_token(&cancelled);
    EXPECT_EQ(dec->decode(garbled).hard_bits.size(), code.n()) << name;
    dec->set_cancel_token(nullptr);
  }
}

TEST(DecoderFactory, BlockWidthKnownWithoutBuildingADecoder) {
  // The decode service sizes its forming blocks with decoder_block_width
  // instead of building a decoder on its event loop: it must agree with
  // every decoder the factory builds, for any code.
  for (const int z : {24, 96}) {
    const QCLdpcCode code = make_wimax_code(WimaxRate::kRate1_2, z);
    for (const std::string& name : decoder_names())
      EXPECT_EQ(decoder_block_width(name),
                make_decoder(name, code, DecoderOptions{})->block_width())
          << name << " z=" << z;
  }
  EXPECT_THROW(decoder_block_width("no-such-decoder"), Error);
}

TEST(DecoderFactory, NameFormatAndBlockWidthArePinned) {
  // The bench JSON artifacts key their rows by name(), and the service
  // sizes its blocks by block_width(): every registered name pins both,
  // and its message_format(), for any code. A SIMD name streams one frame
  // per lane of the best tier, whether or not it says `-batched`.
  struct Pinned {
    const char* name;
    const char* label;   ///< name()
    const char* format;  ///< message_format()
    std::size_t width;   ///< block_width()
  };
  const std::size_t w16 = simd::lanes_for<std::int16_t>(simd::best_tier());
  const std::size_t w8 = simd::lanes_for<std::int8_t>(simd::best_tier());
  const Pinned pinned[] = {
      {"flooding-bp", "flooding-bp", "float", 1},
      {"flooding-minsum", "flooding-minsum", "float", 1},
      {"flooding-minsum-norm", "flooding-minsum-norm", "float", 1},
      {"flooding-minsum-offset", "flooding-minsum-offset", "float", 1},
      {"flooding-minsum-scms", "flooding-minsum-scms", "float", 1},
      {"gallager-b", "gallager-b", "bit", 1},
      {"layered-minsum-float", "layered-minsum-float", "float", 1},
      {"layered-minsum-fixed", "layered-minsum-q8.2", "q8.2", 1},
      {"layered-minsum-q6", "layered-minsum-q6.1", "q6.1", 1},
      {"layered-minsum-offset-fixed", "layered-minsum-offset-q8.2", "q8.2",
       1},
      {"layered-minsum-simd", "layered-minsum-simd-q8.2", "q8.2", w16},
      {"layered-minsum-simd-q6", "layered-minsum-simd-q6.1", "q6.1", w16},
      {"layered-minsum-simd-offset", "layered-minsum-simd-offset-q8.2",
       "q8.2", w16},
      {"layered-minsum-simd-batched", "layered-minsum-simd-batched-q8.2",
       "q8.2", w16},
      {"layered-minsum-simd-batched-q6", "layered-minsum-simd-batched-q6.1",
       "q6.1", w16},
      {"layered-minsum-fa2", "layered-minsum-fa2", "fa2", 1},
      {"layered-minsum-fa3", "layered-minsum-fa3", "fa3", 1},
      {"layered-minsum-fa4", "layered-minsum-fa4", "fa4", 1},
      {"layered-minsum-simd-fa2", "layered-minsum-simd-fa2", "fa2", w8},
      {"layered-minsum-simd-fa3", "layered-minsum-simd-fa3", "fa3", w8},
      {"layered-minsum-simd-fa4", "layered-minsum-simd-fa4", "fa4", w8},
      {"layered-minsum-simd-batched-fa2", "layered-minsum-simd-batched-fa2",
       "fa2", w8},
      {"layered-minsum-simd-batched-fa3", "layered-minsum-simd-batched-fa3",
       "fa3", w8},
      {"layered-minsum-simd-batched-fa4", "layered-minsum-simd-batched-fa4",
       "fa4", w8},
  };
  ASSERT_EQ(decoder_names().size(), std::size(pinned));
  for (const int z : {24, 96}) {
    const QCLdpcCode code = make_wimax_code(WimaxRate::kRate1_2, z);
    for (std::size_t i = 0; i < std::size(pinned); ++i) {
      const Pinned& p = pinned[i];
      const std::string ctx = std::string(p.name) + " z=" + std::to_string(z);
      ASSERT_EQ(decoder_names()[i], p.name) << ctx;
      const auto dec = make_decoder(p.name, code, DecoderOptions{});
      EXPECT_EQ(dec->name(), p.label) << ctx;
      EXPECT_EQ(dec->message_format(), p.format) << ctx;
      EXPECT_EQ(dec->block_width(), p.width) << ctx;
    }
  }
}

TEST(DecoderFactory, NamesAreUniqueAndNonEmpty) {
  std::vector<std::string> names = decoder_names();
  EXPECT_FALSE(names.empty());
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(DecoderFactory, MessageFormatRoundTripsThroughName) {
  // Naming scheme contract: a name carrying a format suffix must produce a
  // decoder reporting that format, and vice versa — "fa4" in the name
  // means message_format() == "fa4", "q6" means q6.1's "q6.1", and
  // float-family names report "float".
  const QCLdpcCode code = make_wimax_code(WimaxRate::kRate1_2, 24);
  DecoderOptions opt;
  for (const std::string& name : decoder_names()) {
    const auto dec = make_decoder(name, code, opt);
    const std::string fmt = dec->message_format();
    if (name.find("-fa") != std::string::npos) {
      // layered-minsum[-simd[-batched]]-fa{2,3,4}
      const std::string tail = name.substr(name.rfind("-fa") + 1);
      EXPECT_EQ(fmt, tail) << name;
    } else if (name.find("q6") != std::string::npos) {
      EXPECT_EQ(fmt, "q6.1") << name;
    } else if (name.find("fixed") != std::string::npos ||
               name.find("simd") != std::string::npos) {
      EXPECT_EQ(fmt, "q8.2") << name;
    } else if (name == "gallager-b") {
      EXPECT_EQ(fmt, "bit") << name;
    } else {
      EXPECT_EQ(fmt, "float") << name;
    }
  }
}

TEST(DecoderFactory, FiniteAlphabetFamilyIsRegistered) {
  const std::vector<std::string>& names = decoder_names();
  for (const std::string expected :
       {"layered-minsum-fa2", "layered-minsum-fa3", "layered-minsum-fa4",
        "layered-minsum-simd-fa4", "layered-minsum-simd-batched-fa4"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(DecoderFactory, UnknownNameThrowsWithCandidateList) {
  const QCLdpcCode code = make_wimax_code(WimaxRate::kRate1_2, 24);
  DecoderOptions opt;
  try {
    make_decoder("layered-minsum-fa9", code, opt);
    FAIL() << "expected ldpc::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("layered-minsum-fa9"), std::string::npos) << msg;
    // The error must enumerate every known name, so a typo in a CLI flag
    // or a sweep config is self-diagnosing.
    for (const std::string& name : decoder_names())
      EXPECT_NE(msg.find(name), std::string::npos) << name << " in: " << msg;
  }
}

}  // namespace
}  // namespace ldpc
