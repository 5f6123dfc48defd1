// libFuzzer harness for the wire codec: FrameReader framing plus every body
// parser. The wire layer's contract is that arbitrary bytes can never make
// it throw, over-read, or allocate beyond the validated length prefix —
// this harness feeds it exactly that, in adversarial chunk sizes, and traps
// on any contract violation (round-trip mismatch, post-fatal acceptance).
//
// Built two ways: with -fsanitize=fuzzer under clang (LDPC_FUZZER=ON) for
// coverage-guided exploration, and with replay_main.cpp everywhere else for
// the deterministic corpus-replay smoke test in check.sh.
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "service/wire.hpp"

namespace {

using namespace ldpc::service;

[[noreturn]] void trap() { __builtin_trap(); }

/// Exercise one parsed frame: dispatch to the typed body parser, and for
/// parseable bodies check the encode -> parse round trip is a fixpoint.
void exercise_frame(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kDecodeRequest: {
      DecodeRequest request;
      if (parse_decode_request(frame.body, &request) != WireErrorCode::kNone)
        return;
      const std::vector<std::uint8_t> bytes = encode_decode_request(request);
      // Strip the length prefix + payload header the encoder adds.
      DecodeRequest again;
      const std::span<const std::uint8_t> body(
          bytes.data() + 4 + kPayloadHeaderBytes,
          bytes.size() - 4 - kPayloadHeaderBytes);
      if (parse_decode_request(body, &again) != WireErrorCode::kNone) trap();
      if (again.request_id != request.request_id ||
          again.tenant_id != request.tenant_id ||
          !(again.codec == request.codec) ||
          again.llr.size() != request.llr.size())
        trap();
      return;
    }
    case FrameType::kDecodeResponse: {
      DecodeResponse response;
      if (parse_decode_response(frame.body, &response) != WireErrorCode::kNone)
        return;
      const std::vector<std::uint8_t> bytes = encode_decode_response(response);
      DecodeResponse again;
      const std::span<const std::uint8_t> body(
          bytes.data() + 4 + kPayloadHeaderBytes,
          bytes.size() - 4 - kPayloadHeaderBytes);
      if (parse_decode_response(body, &again) != WireErrorCode::kNone) trap();
      if (again.request_id != response.request_id ||
          again.bit_count != response.bit_count)
        trap();
      // The payload too: unpacking and repacking gives back the received
      // bytes with the last byte's padding bits cleared.
      std::vector<std::uint8_t> clean = response.packed_bits;
      if (response.bit_count % 8 != 0)
        clean.back() &= static_cast<std::uint8_t>(
            (1U << (response.bit_count % 8)) - 1U);
      if (pack_bits(unpack_bits(response.packed_bits, response.bit_count)) !=
          clean)
        trap();
      return;
    }
    case FrameType::kError: {
      ErrorResponse error;
      (void)parse_error_response(frame.body, &error);
      return;
    }
    case FrameType::kPing:
    case FrameType::kPong: {
      std::uint64_t nonce = 0;
      (void)parse_ping(frame.body, &nonce);
      return;
    }
    case FrameType::kStatsRequest:
      return;
    case FrameType::kStatsResponse: {
      std::string text;
      (void)parse_stats_response(frame.body, &text);
      return;
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  // First byte steers the push granularity so the fuzzer explores partial
  // header / split length-prefix states, not just whole-buffer pushes.
  const std::size_t chunk = std::size_t{1} << (data[0] % 13U);  // 1..4096
  const std::span<const std::uint8_t> input(data + 1, size - 1);

  FrameReader reader;
  bool fatal = false;
  for (std::size_t off = 0; off < input.size() && !fatal; off += chunk) {
    const std::size_t len = std::min(chunk, input.size() - off);
    if (!reader.push(input.subspan(off, len))) {
      // Oversized declared length: must be latched as a fatal error.
      if (!is_fatal(reader.fatal_error())) trap();
      fatal = true;
      break;
    }
    for (;;) {
      Frame frame;
      const FrameReader::Status status = reader.next(&frame);
      if (status == FrameReader::Status::kNeedMore) break;
      if (status == FrameReader::Status::kFatal) {
        if (!is_fatal(reader.fatal_error())) trap();
        fatal = true;
        break;
      }
      exercise_frame(frame);
    }
    // The buffered tail can never exceed one maximal frame (+ prefix).
    if (reader.buffered_bytes() > kMaxPayloadBytes + 4) trap();
  }
  if (fatal) {
    // A latched reader must refuse further bytes and report the same error.
    const std::uint8_t poke[1] = {0};
    if (reader.push(poke)) trap();
    if (!is_fatal(reader.fatal_error())) trap();
  }
  return 0;
}
