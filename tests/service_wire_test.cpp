// Negative-path tests for the service wire codec: a corpus of malformed,
// truncated and bit-flipped frames is pushed through the FrameReader and
// body parsers, asserting every hostile input maps to a *typed* error (or a
// clean "need more bytes") — never a crash, hang, over-read, or unbounded
// buffer. Run under ASAN/UBSAN via scripts/check.sh, where "never over-read"
// is enforced by the tooling rather than by eyeball.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "service/wire.hpp"
#include "util/rng.hpp"

namespace ldpc::service {
namespace {

std::vector<std::uint8_t> valid_request_frame() {
  DecodeRequest request;
  request.request_id = 0x1122334455667788ULL;
  request.tenant_id = 7;
  request.codec = {0, 2, 96};
  request.deadline_us = 250000;
  request.llr = {1.5F, -2.25F, 0.0F, 8.0F};
  return encode_decode_request(request);
}

/// Feed a whole frame and expect exactly one parsed frame out.
FrameReader::Status feed(const std::vector<std::uint8_t>& bytes,
                         Frame* frame, FrameReader* reader) {
  reader->push(bytes);
  return reader->next(frame);
}

TEST(ServiceWire, DecodeRequestRoundTrip) {
  const std::vector<std::uint8_t> bytes = valid_request_frame();
  FrameReader reader;
  Frame frame;
  ASSERT_EQ(feed(bytes, &frame, &reader), FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, FrameType::kDecodeRequest);
  DecodeRequest out;
  ASSERT_EQ(parse_decode_request(frame.body, &out), WireErrorCode::kNone);
  EXPECT_EQ(out.request_id, 0x1122334455667788ULL);
  EXPECT_EQ(out.tenant_id, 7U);
  EXPECT_EQ(out.codec.standard, 0);
  EXPECT_EQ(out.codec.rate, 2);
  EXPECT_EQ(out.codec.z, 96);
  EXPECT_EQ(out.deadline_us, 250000U);
  ASSERT_EQ(out.llr.size(), 4U);
  EXPECT_EQ(out.llr[1], -2.25F);
  EXPECT_EQ(reader.next(&frame), FrameReader::Status::kNeedMore);
}

TEST(ServiceWire, ResponseAndErrorRoundTrip) {
  DecodeResponse response;
  response.request_id = 42;
  response.status = 0;
  response.flags = 1;
  response.iterations = 9;
  response.bit_count = 11;
  response.packed_bits = {0xA5, 0x05};
  FrameReader reader;
  Frame frame;
  ASSERT_EQ(feed(encode_decode_response(response), &frame, &reader),
            FrameReader::Status::kFrame);
  DecodeResponse out;
  ASSERT_EQ(parse_decode_response(frame.body, &out), WireErrorCode::kNone);
  EXPECT_EQ(out.request_id, 42U);
  EXPECT_EQ(out.bit_count, 11U);
  EXPECT_EQ(out.packed_bits, response.packed_bits);

  ErrorResponse error;
  error.request_id = 43;
  error.code = WireErrorCode::kRateLimited;
  error.detail = "slow down";
  ASSERT_EQ(feed(encode_error_response(error), &frame, &reader),
            FrameReader::Status::kFrame);
  ErrorResponse parsed;
  ASSERT_EQ(parse_error_response(frame.body, &parsed), WireErrorCode::kNone);
  EXPECT_EQ(parsed.code, WireErrorCode::kRateLimited);
  EXPECT_EQ(parsed.detail, "slow down");
}

TEST(ServiceWire, ByteAtATimeDelivery) {
  const std::vector<std::uint8_t> bytes = valid_request_frame();
  FrameReader reader;
  Frame frame;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    reader.push(std::span<const std::uint8_t>(&bytes[i], 1));
    ASSERT_EQ(reader.next(&frame), FrameReader::Status::kNeedMore)
        << "frame completed early at byte " << i;
  }
  reader.push(std::span<const std::uint8_t>(&bytes.back(), 1));
  ASSERT_EQ(reader.next(&frame), FrameReader::Status::kFrame);
}

TEST(ServiceWire, TruncationAtEveryBoundaryNeverCompletes) {
  // A frame cut anywhere is simply incomplete: the reader must wait, not
  // guess. (Body-level truncation needs a *well-framed* shorter frame and
  // is covered by the corpus below.)
  const std::vector<std::uint8_t> bytes = valid_request_frame();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameReader reader;
    Frame frame;
    reader.push(std::span<const std::uint8_t>(bytes.data(), cut));
    EXPECT_EQ(reader.next(&frame), FrameReader::Status::kNeedMore)
        << "cut at " << cut;
  }
}

struct CorpusCase {
  std::string name;
  std::vector<std::uint8_t> bytes;
  /// Expected frame-level outcome.
  FrameReader::Status frame_status = FrameReader::Status::kFrame;
  WireErrorCode fatal_code = WireErrorCode::kNone;  ///< when kFatal
  /// Expected body-parse outcome (decode-request parser) when kFrame.
  WireErrorCode parse_code = WireErrorCode::kNone;
};

/// Rewrites the payload length prefix after a surgery changed the size.
void fix_length(std::vector<std::uint8_t>* bytes) {
  const std::uint32_t payload_len =
      static_cast<std::uint32_t>(bytes->size() - 4);
  std::memcpy(bytes->data(), &payload_len, sizeof(payload_len));
}

std::vector<CorpusCase> build_corpus() {
  std::vector<CorpusCase> corpus;
  const std::vector<std::uint8_t> valid = valid_request_frame();

  // --- Fatal framing: stream-level garbage. ---
  for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80},
                                  std::uint8_t{0xFF}}) {
    CorpusCase c;
    c.name = "magic0-xor-" + std::to_string(flip);
    c.bytes = valid;
    c.bytes[4] ^= flip;
    c.frame_status = FrameReader::Status::kFatal;
    c.fatal_code = WireErrorCode::kBadMagic;
    corpus.push_back(std::move(c));
  }
  {
    CorpusCase c;
    c.name = "magic1-corrupt";
    c.bytes = valid;
    c.bytes[5] = 'X';
    c.frame_status = FrameReader::Status::kFatal;
    c.fatal_code = WireErrorCode::kBadMagic;
    corpus.push_back(std::move(c));
  }
  for (const std::uint8_t version : {std::uint8_t{0}, std::uint8_t{2},
                                     std::uint8_t{0xFF}}) {
    CorpusCase c;
    c.name = "version-" + std::to_string(version);
    c.bytes = valid;
    c.bytes[6] = version;
    c.frame_status = FrameReader::Status::kFatal;
    c.fatal_code = WireErrorCode::kBadVersion;
    corpus.push_back(std::move(c));
  }
  for (const std::uint32_t len :
       {static_cast<std::uint32_t>(kMaxPayloadBytes + 1), 0x7FFFFFFFU,
        0xFFFFFFFFU, 0U, 1U, 3U}) {
    CorpusCase c;
    c.name = "length-prefix-" + std::to_string(len);
    c.bytes = valid;
    std::memcpy(c.bytes.data(), &len, sizeof(len));
    c.frame_status = FrameReader::Status::kFatal;
    c.fatal_code = WireErrorCode::kOversizedFrame;
    corpus.push_back(std::move(c));
  }
  {
    // Deterministic garbage: whatever the first four bytes decode to as a
    // length, the stream must die a typed death, not hang or crash.
    std::uint64_t state = 0x5EEDBEEFCAFEF00DULL;
    CorpusCase c;
    c.name = "pure-garbage";
    for (int i = 0; i < 64; ++i)
      c.bytes.push_back(static_cast<std::uint8_t>(splitmix64(state)));
    // Make the length prefix small enough to frame from 64 bytes, so the
    // garbage is judged on its (non-)magic rather than waiting forever.
    const std::uint32_t len = 16;
    std::memcpy(c.bytes.data(), &len, sizeof(len));
    c.frame_status = FrameReader::Status::kFatal;
    c.fatal_code = WireErrorCode::kBadMagic;
    corpus.push_back(std::move(c));
  }

  // --- Recoverable: well-framed frames whose body lies. ---
  // Body truncated at every field boundary (and a few odd offsets): the
  // frame is re-framed to the shorter size, so the *parser* must refuse.
  const std::size_t body_size = valid.size() - 8;  // minus prefix+header
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{11}, std::size_t{12}, std::size_t{13}, std::size_t{14},
        std::size_t{16}, std::size_t{19}, std::size_t{20}, std::size_t{23},
        body_size - 1}) {
    CorpusCase c;
    c.name = "body-truncated-to-" + std::to_string(keep);
    c.bytes.assign(valid.begin(), valid.begin() + 8 + keep);
    fix_length(&c.bytes);
    c.parse_code = WireErrorCode::kTruncatedBody;
    corpus.push_back(std::move(c));
  }
  for (const std::size_t extra : {std::size_t{1}, std::size_t{4},
                                  std::size_t{17}}) {
    CorpusCase c;
    c.name = "body-trailing-" + std::to_string(extra);
    c.bytes = valid;
    c.bytes.insert(c.bytes.end(), extra, 0xEE);
    fix_length(&c.bytes);
    c.parse_code = WireErrorCode::kTrailingBytes;
    corpus.push_back(std::move(c));
  }
  {
    // llr_count lies upward: the declared count points past the body.
    CorpusCase c;
    c.name = "llr-count-inflated";
    c.bytes = valid;
    const std::uint32_t count = 5;  // body carries 4
    std::memcpy(c.bytes.data() + 8 + 20, &count, sizeof(count));
    c.parse_code = WireErrorCode::kTruncatedBody;
    corpus.push_back(std::move(c));
  }
  {
    CorpusCase c;
    c.name = "llr-count-absurd";
    c.bytes = valid;
    const std::uint32_t count = kMaxLlrCount + 1;
    std::memcpy(c.bytes.data() + 8 + 20, &count, sizeof(count));
    c.parse_code = WireErrorCode::kLlrCountMismatch;
    corpus.push_back(std::move(c));
  }
  {
    // llr_count lies downward: 3 declared, 4 floats present.
    CorpusCase c;
    c.name = "llr-count-deflated";
    c.bytes = valid;
    const std::uint32_t count = 3;
    std::memcpy(c.bytes.data() + 8 + 20, &count, sizeof(count));
    c.parse_code = WireErrorCode::kTrailingBytes;
    corpus.push_back(std::move(c));
  }
  const auto put_float = [](std::vector<std::uint8_t>* bytes,
                            std::size_t index, float value) {
    std::memcpy(bytes->data() + 8 + 24 + index * sizeof(float), &value,
                sizeof(value));
  };
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    CorpusCase c;
    c.name = std::string("llr-nonfinite-") +
             (std::isnan(bad) ? "nan" : (bad > 0 ? "inf" : "-inf"));
    c.bytes = valid;
    put_float(&c.bytes, 2, bad);
    c.parse_code = WireErrorCode::kBadLlrValue;
    corpus.push_back(std::move(c));
  }

  // --- Bit flips across the whole body: every outcome must be one of the
  // --- typed refusals or a clean parse (a flipped LLR bit is still valid
  // --- data); asserted generically in the runner. ---
  std::uint64_t state = 0xB17F11B5ULL;
  for (int i = 0; i < 24; ++i) {
    CorpusCase c;
    c.bytes = valid;
    const std::size_t bit = splitmix64(state) % ((c.bytes.size() - 8) * 8);
    c.name = "bitflip-body-" + std::to_string(bit);
    c.bytes[8 + bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
    // parse_code intentionally unset: the runner only asserts "typed or
    // clean", never a crash.
    c.parse_code = static_cast<WireErrorCode>(0xFFFF);  // sentinel: any
    corpus.push_back(std::move(c));
  }
  return corpus;
}

TEST(ServiceWire, MalformedCorpus) {
  const std::vector<CorpusCase> corpus = build_corpus();
  ASSERT_GE(corpus.size(), 50U) << "the corpus is meant to be ~50 cases";
  for (const CorpusCase& c : corpus) {
    SCOPED_TRACE(c.name);
    FrameReader reader;
    Frame frame;
    reader.push(c.bytes);
    const FrameReader::Status status = reader.next(&frame);
    ASSERT_EQ(status, c.frame_status);
    if (status == FrameReader::Status::kFatal) {
      EXPECT_EQ(reader.fatal_error(), c.fatal_code);
      // Latched: more input is refused, the stream stays dead.
      EXPECT_FALSE(reader.push(c.bytes));
      EXPECT_EQ(reader.next(&frame), FrameReader::Status::kFatal);
      continue;
    }
    DecodeRequest out;
    const WireErrorCode err = parse_decode_request(frame.body, &out);
    if (c.parse_code == static_cast<WireErrorCode>(0xFFFF)) {
      // Bit-flip cases: any typed outcome (or a clean parse) is correct;
      // reaching this line without a sanitizer report is the test.
      continue;
    }
    EXPECT_EQ(err, c.parse_code);
  }
}

TEST(ServiceWire, HugeLengthPrefixNeverBuffers) {
  // A hostile length prefix one byte under the cap is *valid*; the reader
  // may buffer at most what was actually sent, never the declared length.
  FrameReader reader;
  std::vector<std::uint8_t> bytes(4);
  const std::uint32_t len = static_cast<std::uint32_t>(kMaxPayloadBytes);
  std::memcpy(bytes.data(), &len, sizeof(len));
  reader.push(bytes);
  Frame frame;
  EXPECT_EQ(reader.next(&frame), FrameReader::Status::kNeedMore);
  EXPECT_LE(reader.buffered_bytes(), 4U);
}

TEST(ServiceWire, BackToBackFramesParseIndividually) {
  FrameReader reader;
  std::vector<std::uint8_t> stream;
  const auto ping = encode_ping(111);
  const auto request = valid_request_frame();
  const auto pong = encode_ping(222);
  stream.insert(stream.end(), ping.begin(), ping.end());
  stream.insert(stream.end(), request.begin(), request.end());
  stream.insert(stream.end(), pong.begin(), pong.end());
  reader.push(stream);
  Frame frame;
  ASSERT_EQ(reader.next(&frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPing);
  ASSERT_EQ(reader.next(&frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kDecodeRequest);
  ASSERT_EQ(reader.next(&frame), FrameReader::Status::kFrame);
  std::uint64_t nonce = 0;
  ASSERT_EQ(parse_ping(frame.body, &nonce), WireErrorCode::kNone);
  EXPECT_EQ(nonce, 222U);
  EXPECT_EQ(reader.next(&frame), FrameReader::Status::kNeedMore);
}

TEST(ServiceWire, MidStreamCorruptionKillsOnlyAfterGoodFrames) {
  // Frame 1 valid, frame 2's magic corrupted: the reader must hand out
  // frame 1, then latch fatal on frame 2.
  FrameReader reader;
  std::vector<std::uint8_t> stream = encode_ping(7);
  std::vector<std::uint8_t> bad = valid_request_frame();
  bad[4] = 0x00;
  stream.insert(stream.end(), bad.begin(), bad.end());
  reader.push(stream);
  Frame frame;
  ASSERT_EQ(reader.next(&frame), FrameReader::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kPing);
  ASSERT_EQ(reader.next(&frame), FrameReader::Status::kFatal);
  EXPECT_EQ(reader.fatal_error(), WireErrorCode::kBadMagic);
}

TEST(ServiceWire, PackUnpackRoundTrip) {
  BitVec bits(13);
  for (const std::size_t i : {0U, 2U, 3U, 7U, 8U, 12U}) bits.set(i, true);
  const std::vector<std::uint8_t> packed = pack_bits(bits);
  ASSERT_EQ(packed.size(), 2U);
  EXPECT_EQ(packed[0], 0x8D);  // LSB-first: bits 0, 2, 3, 7
  EXPECT_EQ(packed[1], 0x11);  // bits 8, 12
  const BitVec back = unpack_bits(packed, 13);
  ASSERT_EQ(back.size(), 13U);
  for (std::size_t i = 0; i < 13; ++i) EXPECT_EQ(back.get(i), bits.get(i));

  // Lengths around byte and word boundaries, up to a WiMAX frame.
  Xoshiro256 rng(1234);
  for (const std::size_t count : {0U, 1U, 7U, 8U, 9U, 63U, 64U, 65U, 2304U}) {
    const std::string ctx = "bit_count=" + std::to_string(count);
    BitVec word(count);
    for (std::size_t i = 0; i < count; ++i) word.set(i, rng.coin());
    std::vector<std::uint8_t> wire = pack_bits(word);
    ASSERT_EQ(wire.size(), (count + 7) / 8) << ctx;
    for (std::size_t i = 0; i < count; ++i)
      EXPECT_EQ((wire[i / 8] >> (i % 8)) & 1U, word.get(i) ? 1U : 0U) << ctx;
    EXPECT_TRUE(unpack_bits(wire, count) == word) << ctx;
    if (count % 8 != 0) {
      // The last byte's padding bits are zero on the way out...
      EXPECT_EQ(wire.back() >> (count % 8), 0U) << ctx;
      // ...and ignored on the way in: a hostile sender setting them still
      // unpacks to the clean vector.
      wire.back() |= static_cast<std::uint8_t>(0xFFU << (count % 8));
      EXPECT_TRUE(unpack_bits(wire, count) == word) << ctx;
    }
    // A span one byte short of ceil(count / 8) is refused, never over-read.
    if (!wire.empty()) {
      EXPECT_THROW(
          (void)unpack_bits(std::span(wire).first(wire.size() - 1), count),
          Error)
          << ctx;
    }
  }
}

TEST(ServiceWire, ErrorDetailTruncatesInsteadOfOverflowing) {
  ErrorResponse error;
  error.request_id = 1;
  error.code = WireErrorCode::kInternal;
  error.detail = std::string(100000, 'x');
  const auto bytes = encode_error_response(error);
  FrameReader reader;
  Frame frame;
  ASSERT_EQ(feed(bytes, &frame, &reader), FrameReader::Status::kFrame);
  ErrorResponse parsed;
  ASSERT_EQ(parse_error_response(frame.body, &parsed), WireErrorCode::kNone);
  EXPECT_EQ(parsed.detail.size(), 0xFFFFU);
}

}  // namespace
}  // namespace ldpc::service
