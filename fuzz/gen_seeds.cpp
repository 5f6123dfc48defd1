// Seed-corpus generator for the fuzz harnesses.
//
// Seeds are generated from the real encoders at build-test time rather than
// committed as binaries, so they can never drift from the wire format or
// the alist dialect: when the format changes, the corpus changes with it.
// Layout under the output root:
//   <root>/wire/*.bin    inputs for fuzz_wire (leading chunk-steer byte
//                        + frame bytes, matching the harness's input shape)
//   <root>/alist/*.txt   inputs for fuzz_alist
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "codes/alist.hpp"
#include "codes/registry.hpp"
#include "service/wire.hpp"

namespace {

using namespace ldpc::service;

void write_file(const std::filesystem::path& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::cerr << "gen_seeds: failed to write " << path << "\n";
    std::exit(1);
  }
}

/// Prefix the chunk-steer byte fuzz_wire consumes before the wire bytes.
std::vector<std::uint8_t> steer(std::uint8_t chunk_byte,
                                std::vector<std::uint8_t> frame) {
  std::vector<std::uint8_t> out;
  out.reserve(frame.size() + 1);
  out.push_back(chunk_byte);
  out.insert(out.end(), frame.begin(), frame.end());
  return out;
}

std::vector<std::uint8_t> concat(std::vector<std::uint8_t> a,
                                 const std::vector<std::uint8_t>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: " << argv[0] << " <output-root>\n";
    return 2;
  }
  const std::filesystem::path root(argv[1]);
  const std::filesystem::path wire_dir = root / "wire";
  const std::filesystem::path alist_dir = root / "alist";
  std::filesystem::create_directories(wire_dir);
  std::filesystem::create_directories(alist_dir);

  // --- Wire seeds: every frame type, whole-buffer and byte-at-a-time. ---
  DecodeRequest request;
  request.request_id = 7;
  request.tenant_id = 3;
  request.codec = CodecRef{0, 0, 96};  // wimax rate-1/2, z = 96
  request.deadline_us = 1000;
  request.llr = {1.5F, -2.25F, 0.0F, 3.0F, -0.5F, 8.0F, -8.0F, 0.125F};
  const auto request_frame = encode_decode_request(request);

  DecodeResponse response;
  response.request_id = 7;
  response.status = 0;
  response.flags = 1;
  response.iterations = 12;
  response.bit_count = 12;
  response.packed_bits = {0xAB, 0x05};
  const auto response_frame = encode_decode_response(response);

  ErrorResponse error;
  error.request_id = 9;
  error.code = WireErrorCode::kOverloaded;
  error.detail = "decode queue full";

  write_file(wire_dir / "decode_request.bin", steer(0xFF, request_frame));
  write_file(wire_dir / "decode_request_split.bin", steer(0x00, request_frame));
  write_file(wire_dir / "decode_response.bin", steer(0xFF, response_frame));
  // Responses around byte and word boundaries with the last byte's padding
  // bits set (2304, a WiMAX frame, has none): fuzz_wire checks that
  // unpack -> pack gives back the payload with that padding cleared.
  for (const std::uint32_t bit_count : {1U, 63U, 65U, 2304U}) {
    DecodeResponse padded = response;
    padded.bit_count = bit_count;
    padded.packed_bits.resize((bit_count + 7) / 8);
    for (std::size_t i = 0; i < padded.packed_bits.size(); ++i)
      padded.packed_bits[i] = static_cast<std::uint8_t>(0x5A ^ (i * 37));
    if (bit_count % 8 != 0)
      padded.packed_bits.back() |=
          static_cast<std::uint8_t>(0xFFU << (bit_count % 8));
    write_file(wire_dir / ("decode_response_" + std::to_string(bit_count) +
                           "_bits.bin"),
               steer(0xFF, encode_decode_response(padded)));
  }
  write_file(wire_dir / "error_response.bin",
             steer(0xFF, encode_error_response(error)));
  write_file(wire_dir / "ping.bin", steer(0xFF, encode_ping(0x1122334455667788)));
  write_file(wire_dir / "pong.bin", steer(0x02, encode_pong(42)));
  write_file(wire_dir / "stats_request.bin", steer(0xFF, encode_stats_request()));
  write_file(wire_dir / "stats_response.bin",
             steer(0xFF, encode_stats_response("{\"jobs\": 1}")));
  write_file(wire_dir / "pipelined.bin",
             steer(0x03, concat(request_frame, encode_ping(1))));

  // Malformed seeds: each lands in a distinct error path.
  auto bad_magic = request_frame;
  bad_magic[4] = 'X';
  write_file(wire_dir / "bad_magic.bin", steer(0xFF, bad_magic));
  auto bad_version = request_frame;
  bad_version[6] = 0x7F;
  write_file(wire_dir / "bad_version.bin", steer(0xFF, bad_version));
  auto truncated = request_frame;
  truncated.resize(truncated.size() - 5);
  write_file(wire_dir / "truncated_tail.bin", steer(0x01, truncated));
  // Declared length over the cap: must latch kOversizedFrame on push.
  write_file(wire_dir / "oversized_prefix.bin",
             steer(0xFF, {0xFF, 0xFF, 0xFF, 0x7F, 'L', 'D', 1, 4}));

  // --- Alist seeds. ---
  const auto& names = ldpc::external_code_names();
  if (names.empty()) {
    std::cerr << "gen_seeds: external code registry is empty\n";
    return 1;
  }
  const std::string canonical = ldpc::external_code_alist(names.front());
  {
    std::ofstream out(alist_dir / "registry_code.txt");
    out << canonical;
  }
  {
    // Minimal valid matrix: H = [1 1; 0 1] in alist form.
    std::ofstream out(alist_dir / "tiny.txt");
    out << "2 2\n2 1\n1 2\n2 1\n1 2\n1 0\n1 2\n1 0\n2 0\n";
  }
  {
    std::ofstream out(alist_dir / "truncated.txt");
    out << canonical.substr(0, canonical.size() / 2);
  }
  {
    std::ofstream out(alist_dir / "negative_dims.txt");
    out << "-4 2\n1 1\n";
  }
  {
    std::ofstream out(alist_dir / "huge_dims.txt");
    out << "2000000000 2000000000\n1 1\n";
  }

  std::cout << "seed corpus written under " << root << "\n";
  return 0;
}
