#include "service/wire.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "util/check.hpp"

// GCC 12's -Wstringop-overflow misfires on FrameBuilder's resize+memcpy
// chain once callers are inlined (libstdc++'s internal memset appears to
// write past a phantom 8-byte allocation). Every append here is sized by
// construction; silence the false positive for this TU under GCC only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif

namespace ldpc::service {
namespace {

/// Bounds-checked little-endian cursor over a body span. Every get_*
/// returns false on underflow instead of reading past the end; the parse
/// functions translate that into kTruncatedBody exactly once.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  bool get(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (bytes_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool get_bytes(std::size_t count, std::span<const std::uint8_t>* out) {
    if (bytes_.size() - pos_ < count) return false;
    *out = bytes_.subspan(pos_, count);
    pos_ += count;
    return true;
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

/// Append-only little-endian builder; reserves the 4-byte length prefix and
/// back-patches it on finish().
class FrameBuilder {
 public:
  explicit FrameBuilder(FrameType type) {
    bytes_.resize(4);  // length prefix, patched in finish()
    put<std::uint8_t>(kMagic0);
    put<std::uint8_t>(kMagic1);
    put<std::uint8_t>(kWireVersion);
    put<std::uint8_t>(static_cast<std::uint8_t>(type));
  }

  template <typename T>
  void put(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = bytes_.size();
    bytes_.resize(at + sizeof(T));
    std::memcpy(bytes_.data() + at, &value, sizeof(T));
  }

  void put_bytes(const void* data, std::size_t count) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + count);
    std::memcpy(bytes_.data() + at, data, count);
  }

  std::vector<std::uint8_t> finish() {
    const std::uint32_t payload_len =
        static_cast<std::uint32_t>(bytes_.size() - 4);
    std::memcpy(bytes_.data(), &payload_len, sizeof(payload_len));
    return std::move(bytes_);
  }

 private:
  std::vector<std::uint8_t> bytes_;
};

}  // namespace

const char* to_string(WireErrorCode code) {
  switch (code) {
    case WireErrorCode::kNone:             return "none";
    case WireErrorCode::kBadMagic:         return "bad-magic";
    case WireErrorCode::kBadVersion:       return "bad-version";
    case WireErrorCode::kOversizedFrame:   return "oversized-frame";
    case WireErrorCode::kBadType:          return "bad-type";
    case WireErrorCode::kTruncatedBody:    return "truncated-body";
    case WireErrorCode::kTrailingBytes:    return "trailing-bytes";
    case WireErrorCode::kUnknownCodec:     return "unknown-codec";
    case WireErrorCode::kLlrCountMismatch: return "llr-count-mismatch";
    case WireErrorCode::kBadLlrValue:      return "bad-llr-value";
    case WireErrorCode::kRateLimited:      return "rate-limited";
    case WireErrorCode::kQuotaExceeded:    return "quota-exceeded";
    case WireErrorCode::kOverloaded:       return "overloaded";
    case WireErrorCode::kDeadlineUnmeetable: return "deadline-unmeetable";
    case WireErrorCode::kShedOverload:     return "shed-overload";
    case WireErrorCode::kDraining:         return "draining";
    case WireErrorCode::kInternal:         return "internal";
  }
  return "?";
}

std::string to_string(const CodecRef& codec) {
  std::ostringstream os;
  os << "codec(standard=" << static_cast<int>(codec.standard)
     << ", rate=" << static_cast<int>(codec.rate) << ", z=" << codec.z << ")";
  return os.str();
}

bool FrameReader::push(std::span<const std::uint8_t> bytes) {
  if (fatal_ != WireErrorCode::kNone) return false;
  // Compact lazily: only once the handed-out prefix dominates the buffer,
  // so steady-state cost is O(bytes) amortized, not O(bytes^2).
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  return true;
}

FrameReader::Status FrameReader::next(Frame* out) {
  if (fatal_ != WireErrorCode::kNone) return Status::kFatal;
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 4) return Status::kNeedMore;
  std::uint32_t payload_len = 0;
  std::memcpy(&payload_len, buffer_.data() + consumed_, 4);
  // The length prefix is validated before a single payload byte is
  // required: a hostile 4 GiB length can never grow the buffer.
  if (payload_len > max_payload_ || payload_len < kPayloadHeaderBytes) {
    fatal_ = WireErrorCode::kOversizedFrame;
    return Status::kFatal;
  }
  if (available - 4 < payload_len) return Status::kNeedMore;
  const std::uint8_t* payload = buffer_.data() + consumed_ + 4;
  if (payload[0] != kMagic0 || payload[1] != kMagic1) {
    fatal_ = WireErrorCode::kBadMagic;
    return Status::kFatal;
  }
  if (payload[2] != kWireVersion) {
    fatal_ = WireErrorCode::kBadVersion;
    return Status::kFatal;
  }
  out->type = static_cast<FrameType>(payload[3]);
  out->body = std::span<const std::uint8_t>(payload + kPayloadHeaderBytes,
                                            payload_len - kPayloadHeaderBytes);
  consumed_ += 4 + payload_len;
  return Status::kFrame;
}

WireErrorCode parse_decode_request(std::span<const std::uint8_t> body,
                                   DecodeRequest* out) {
  ByteReader reader(body);
  std::uint32_t llr_count = 0;
  if (!reader.get(&out->request_id) || !reader.get(&out->tenant_id) ||
      !reader.get(&out->codec.standard) || !reader.get(&out->codec.rate) ||
      !reader.get(&out->codec.z) || !reader.get(&out->deadline_us) ||
      !reader.get(&llr_count))
    return WireErrorCode::kTruncatedBody;
  if (llr_count > kMaxLlrCount) return WireErrorCode::kLlrCountMismatch;
  std::span<const std::uint8_t> raw;
  if (!reader.get_bytes(static_cast<std::size_t>(llr_count) * sizeof(float),
                        &raw))
    return WireErrorCode::kTruncatedBody;
  if (reader.remaining() != 0) return WireErrorCode::kTrailingBytes;
  out->llr.resize(llr_count);
  if (llr_count > 0)
    std::memcpy(out->llr.data(), raw.data(), raw.size());
  for (const float v : out->llr)
    if (!std::isfinite(v)) return WireErrorCode::kBadLlrValue;
  return WireErrorCode::kNone;
}

WireErrorCode parse_decode_response(std::span<const std::uint8_t> body,
                                    DecodeResponse* out) {
  ByteReader reader(body);
  if (!reader.get(&out->request_id) || !reader.get(&out->status) ||
      !reader.get(&out->flags) || !reader.get(&out->iterations) ||
      !reader.get(&out->bit_count))
    return WireErrorCode::kTruncatedBody;
  if (out->bit_count > kMaxLlrCount) return WireErrorCode::kTruncatedBody;
  const std::size_t byte_count = (out->bit_count + 7) / 8;
  std::span<const std::uint8_t> raw;
  if (!reader.get_bytes(byte_count, &raw)) return WireErrorCode::kTruncatedBody;
  if (reader.remaining() != 0) return WireErrorCode::kTrailingBytes;
  out->packed_bits.assign(raw.begin(), raw.end());
  return WireErrorCode::kNone;
}

WireErrorCode parse_error_response(std::span<const std::uint8_t> body,
                                   ErrorResponse* out) {
  ByteReader reader(body);
  std::uint16_t code = 0;
  std::uint16_t detail_len = 0;
  if (!reader.get(&out->request_id) || !reader.get(&code) ||
      !reader.get(&detail_len))
    return WireErrorCode::kTruncatedBody;
  std::span<const std::uint8_t> raw;
  if (!reader.get_bytes(detail_len, &raw)) return WireErrorCode::kTruncatedBody;
  if (reader.remaining() != 0) return WireErrorCode::kTrailingBytes;
  out->code = static_cast<WireErrorCode>(code);
  out->detail.assign(raw.begin(), raw.end());
  return WireErrorCode::kNone;
}

WireErrorCode parse_ping(std::span<const std::uint8_t> body,
                         std::uint64_t* nonce) {
  ByteReader reader(body);
  if (!reader.get(nonce)) return WireErrorCode::kTruncatedBody;
  if (reader.remaining() != 0) return WireErrorCode::kTrailingBytes;
  return WireErrorCode::kNone;
}

WireErrorCode parse_stats_response(std::span<const std::uint8_t> body,
                                   std::string* text) {
  ByteReader reader(body);
  std::uint32_t text_len = 0;
  if (!reader.get(&text_len)) return WireErrorCode::kTruncatedBody;
  std::span<const std::uint8_t> raw;
  if (!reader.get_bytes(text_len, &raw)) return WireErrorCode::kTruncatedBody;
  if (reader.remaining() != 0) return WireErrorCode::kTrailingBytes;
  text->assign(raw.begin(), raw.end());
  return WireErrorCode::kNone;
}

std::vector<std::uint8_t> encode_decode_request(const DecodeRequest& request) {
  FrameBuilder b(FrameType::kDecodeRequest);
  b.put(request.request_id);
  b.put(request.tenant_id);
  b.put(request.codec.standard);
  b.put(request.codec.rate);
  b.put(request.codec.z);
  b.put(request.deadline_us);
  b.put(static_cast<std::uint32_t>(request.llr.size()));
  if (!request.llr.empty())
    b.put_bytes(request.llr.data(), request.llr.size() * sizeof(float));
  return b.finish();
}

std::vector<std::uint8_t> encode_decode_response(
    const DecodeResponse& response) {
  FrameBuilder b(FrameType::kDecodeResponse);
  b.put(response.request_id);
  b.put(response.status);
  b.put(response.flags);
  b.put(response.iterations);
  b.put(response.bit_count);
  if (!response.packed_bits.empty())
    b.put_bytes(response.packed_bits.data(), response.packed_bits.size());
  return b.finish();
}

std::vector<std::uint8_t> encode_error_response(const ErrorResponse& error) {
  FrameBuilder b(FrameType::kError);
  b.put(error.request_id);
  b.put(static_cast<std::uint16_t>(error.code));
  // Details are diagnostics, not data: truncate rather than fail.
  const std::size_t detail_len = std::min<std::size_t>(error.detail.size(),
                                                       0xFFFF);
  b.put(static_cast<std::uint16_t>(detail_len));
  if (detail_len > 0) b.put_bytes(error.detail.data(), detail_len);
  return b.finish();
}

std::vector<std::uint8_t> encode_ping(std::uint64_t nonce) {
  FrameBuilder b(FrameType::kPing);
  b.put(nonce);
  return b.finish();
}

std::vector<std::uint8_t> encode_pong(std::uint64_t nonce) {
  FrameBuilder b(FrameType::kPong);
  b.put(nonce);
  return b.finish();
}

std::vector<std::uint8_t> encode_stats_request() {
  FrameBuilder b(FrameType::kStatsRequest);
  return b.finish();
}

std::vector<std::uint8_t> encode_stats_response(const std::string& text) {
  FrameBuilder b(FrameType::kStatsResponse);
  b.put(static_cast<std::uint32_t>(text.size()));
  if (!text.empty()) b.put_bytes(text.data(), text.size());
  return b.finish();
}

std::vector<std::uint8_t> pack_bits(const BitVec& bits) {
  // Byte b holds bits [8b, 8b + 8): byte b % 8 of word b / 8, counted from
  // the word's low end. Shifts rather than a memcpy of the word array keep
  // the layout independent of host byte order; BitVec's padding bits are
  // zero, so so are the last byte's.
  const std::span<const std::uint64_t> words = bits.words();
  std::vector<std::uint8_t> packed((bits.size() + 7) / 8);
  for (std::size_t b = 0; b < packed.size(); ++b)
    packed[b] = static_cast<std::uint8_t>(words[b / 8] >> (8 * (b % 8)));
  return packed;
}

BitVec unpack_bits(std::span<const std::uint8_t> bytes,
                   std::size_t bit_count) {
  const std::size_t byte_count = (bit_count + 7) / 8;
  LDPC_CHECK_MSG(bytes.size() >= byte_count,
                 "unpack_bits: " << bit_count << " bits need " << byte_count
                                 << " bytes, got " << bytes.size());
  BitVec bits(bit_count);
  for (std::size_t w = 0; w * 8 < byte_count; ++w) {
    const std::size_t end = std::min(byte_count, w * 8 + 8);
    std::uint64_t word = 0;
    for (std::size_t b = w * 8; b < end; ++b)
      word |= std::uint64_t{bytes[b]} << (8 * (b % 8));
    bits.set_word(w, word);  // masks the last byte's padding bits
  }
  return bits;
}

}  // namespace ldpc::service
