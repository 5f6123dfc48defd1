// Length-prefixed binary framing for the network decode service.
//
// Every byte arriving from a socket is hostile until proven otherwise: the
// codec in this file is the only place wire bytes are interpreted, and it
// never throws, never over-reads, and never allocates proportionally to
// anything but the validated length prefix (itself capped). Malformed input
// produces a typed WireErrorCode — either recoverable (a well-framed
// message with bad contents, answered with an error frame) or fatal (the
// byte stream itself is unparseable, so the connection must drop: after a
// bad magic there is no way to find the next frame boundary).
//
// Frame layout (all integers little-endian):
//
//   u32 payload_len | payload[payload_len]
//   payload := u8 magic0 'L' | u8 magic1 'D' | u8 version | u8 type | body
//
// Bodies by type:
//   kDecodeRequest  u64 request_id | u32 tenant_id | codec(u8 standard,
//                   u8 rate, u16 z) | u32 deadline_us | u32 llr_count |
//                   f32 llr[llr_count]
//   kDecodeResponse u64 request_id | u8 status | u8 flags | u16 iterations |
//                   u32 bit_count | u8 bits[ceil(bit_count / 8)] (LSB-first)
//   kError          u64 request_id | u16 code | u16 detail_len |
//                   char detail[detail_len]
//   kPing / kPong   u64 nonce
//   kStatsRequest   (empty)
//   kStatsResponse  u32 text_len | char text[text_len]
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/bitvec.hpp"

namespace ldpc::service {

inline constexpr std::uint8_t kMagic0 = 'L';
inline constexpr std::uint8_t kMagic1 = 'D';
inline constexpr std::uint8_t kWireVersion = 1;
/// Header bytes inside the payload (magic + version + type).
inline constexpr std::size_t kPayloadHeaderBytes = 4;
/// Hard cap on one frame's payload; anything larger is a fatal framing
/// error before a single payload byte is buffered. Generous for the largest
/// bundled code (n = 2304 floats ≈ 9.2 KiB) with room for future batching.
inline constexpr std::size_t kMaxPayloadBytes = 1U << 20;
/// Sanity cap on a request's LLR count, independent of the payload cap.
inline constexpr std::uint32_t kMaxLlrCount = 1U << 16;

enum class FrameType : std::uint8_t {
  kDecodeRequest = 1,
  kDecodeResponse = 2,
  kError = 3,
  kPing = 4,
  kPong = 5,
  kStatsRequest = 6,
  kStatsResponse = 7,
};

/// Typed outcome taxonomy for everything that can go wrong between a byte
/// arriving and a decode being admitted. Values are wire ABI — never
/// renumber.
enum class WireErrorCode : std::uint16_t {
  kNone = 0,
  // Fatal framing errors: the stream cannot be resynchronized.
  kBadMagic = 1,
  kBadVersion = 2,
  kOversizedFrame = 3,
  // Recoverable per-frame errors: the frame boundary is sound, the
  // contents are not.
  kBadType = 4,
  kTruncatedBody = 5,   ///< body shorter than its fields declare
  kTrailingBytes = 6,   ///< body longer than its fields declare
  kUnknownCodec = 7,    ///< (standard, rate, z) names no bundled code
  kLlrCountMismatch = 8,  ///< llr_count != n of the named codec
  kBadLlrValue = 9,       ///< non-finite LLR in the payload
  // Admission / service-side outcomes (sent in kError frames; never
  // produced by the parser itself).
  kRateLimited = 10,
  kQuotaExceeded = 11,
  kOverloaded = 12,
  kDeadlineUnmeetable = 13,
  kShedOverload = 14,
  kDraining = 15,
  kInternal = 16,
};

const char* to_string(WireErrorCode code);

/// True for errors after which the connection's byte stream is garbage and
/// the only safe response is to answer once and close.
inline bool is_fatal(WireErrorCode code) {
  return code == WireErrorCode::kBadMagic ||
         code == WireErrorCode::kBadVersion ||
         code == WireErrorCode::kOversizedFrame;
}

/// Which bundled code family a request names.
enum class CodeStandard : std::uint8_t {
  kWimax = 0,     ///< rate = WimaxRate index 0..5, z in the 802.16e set
  kWifi = 1,      ///< rate = 0 (1/2 only), z in {27, 81}
  kRegistry = 2,  ///< rate = external_code_names() index, z = 1
};

/// Wire identity of a code: the codec-cache key.
struct CodecRef {
  std::uint8_t standard = 0;
  std::uint8_t rate = 0;
  std::uint16_t z = 0;

  friend bool operator==(const CodecRef&, const CodecRef&) = default;
  /// Strict weak order so CodecRef keys std::map.
  friend bool operator<(const CodecRef& a, const CodecRef& b) {
    if (a.standard != b.standard) return a.standard < b.standard;
    if (a.rate != b.rate) return a.rate < b.rate;
    return a.z < b.z;
  }
};

std::string to_string(const CodecRef& codec);

struct DecodeRequest {
  std::uint64_t request_id = 0;
  std::uint32_t tenant_id = 0;
  CodecRef codec;
  /// Relative deadline in microseconds from arrival; 0 = none.
  std::uint32_t deadline_us = 0;
  std::vector<float> llr;
};

struct DecodeResponse {
  std::uint64_t request_id = 0;
  std::uint8_t status = 0;  ///< static_cast<u8>(DecodeStatus)
  std::uint8_t flags = 0;   ///< bit 0: converged
  std::uint16_t iterations = 0;
  std::uint32_t bit_count = 0;
  std::vector<std::uint8_t> packed_bits;  ///< LSB-first, ceil(bit_count/8)
};

struct ErrorResponse {
  std::uint64_t request_id = 0;  ///< 0 when the offending request has none
  WireErrorCode code = WireErrorCode::kNone;
  std::string detail;
};

/// One well-framed message: type plus a view of its body bytes. The view
/// aliases the FrameReader's buffer and is invalidated by the next call on
/// the reader.
struct Frame {
  FrameType type = FrameType::kError;
  std::span<const std::uint8_t> body;
};

/// Incremental frame extractor for one connection. Feed arbitrary chunks of
/// wire bytes; pull zero or more complete frames. Once a fatal framing
/// error is reported the reader latches it and refuses further input.
class FrameReader {
 public:
  enum class Status {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< *out filled; call again — more frames may be buffered
    kFatal,     ///< unrecoverable framing error; see fatal_error()
  };

  explicit FrameReader(std::size_t max_payload = kMaxPayloadBytes)
      : max_payload_(max_payload) {}

  /// Append wire bytes. Returns false (and latches kOversizedFrame) when
  /// the declared frame length exceeds the cap — the caller must stop
  /// reading from this connection.
  bool push(std::span<const std::uint8_t> bytes);

  Status next(Frame* out);

  WireErrorCode fatal_error() const { return fatal_; }
  /// Bytes currently buffered (tests pin the memory bound).
  std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< frames already handed out live in [0, consumed_)
  WireErrorCode fatal_ = WireErrorCode::kNone;
};

// --- Body parsers (server + client side). Each returns kNone on success
// --- and never throws on wire data. Codec existence is NOT checked here
// --- (the parser has no code tables); kUnknownCodec / kLlrCountMismatch
// --- are produced by the codec cache lookup in the service.
WireErrorCode parse_decode_request(std::span<const std::uint8_t> body,
                                   DecodeRequest* out);
WireErrorCode parse_decode_response(std::span<const std::uint8_t> body,
                                    DecodeResponse* out);
WireErrorCode parse_error_response(std::span<const std::uint8_t> body,
                                   ErrorResponse* out);
WireErrorCode parse_ping(std::span<const std::uint8_t> body,
                         std::uint64_t* nonce);
WireErrorCode parse_stats_response(std::span<const std::uint8_t> body,
                                   std::string* text);

// --- Frame builders. Each returns a complete wire frame (length prefix
// --- included) ready to append to a write buffer.
std::vector<std::uint8_t> encode_decode_request(const DecodeRequest& request);
std::vector<std::uint8_t> encode_decode_response(const DecodeResponse& response);
std::vector<std::uint8_t> encode_error_response(const ErrorResponse& error);
std::vector<std::uint8_t> encode_ping(std::uint64_t nonce);
std::vector<std::uint8_t> encode_pong(std::uint64_t nonce);
std::vector<std::uint8_t> encode_stats_request();
std::vector<std::uint8_t> encode_stats_response(const std::string& text);

/// Pack hard decisions LSB-first into ceil(size / 8) bytes (the
/// kDecodeResponse layout), a 64-bit word at a time; the last byte's
/// padding bits are zero. The layout does not depend on host byte order.
std::vector<std::uint8_t> pack_bits(const BitVec& bits);
/// Inverse of pack_bits: the first ceil(bit_count / 8) bytes of `bytes`
/// are read; padding bits set in the last of them are masked off, so the
/// result equals the clean vector. Throws ldpc::Error when `bytes` is
/// shorter than that.
BitVec unpack_bits(std::span<const std::uint8_t> bytes,
                   std::size_t bit_count);

}  // namespace ldpc::service
