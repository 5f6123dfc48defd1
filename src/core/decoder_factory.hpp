// Decoder factory — maps benchmark/CLI names onto decoder instances so the
// examples and the BER harness select decoders by string.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "codes/qc_code.hpp"
#include "core/decoder.hpp"
#include "core/quant.hpp"

namespace ldpc {

/// Callable producing a fresh decoder instance. Invoked once per worker
/// thread by the BER harness and the runtime batch engine (decoders hold
/// per-call message memory, so each thread needs its own).
using DecoderFactory = std::function<std::unique_ptr<Decoder>()>;

/// Recognised names: decoder_names(). Throws ldpc::Error for unknown names
/// (the message lists every known name). The returned decoder borrows
/// `code`; the caller must keep the code alive for the decoder's lifetime.
std::unique_ptr<Decoder> make_decoder(const std::string& name,
                                      const QCLdpcCode& code,
                                      const DecoderOptions& options);

/// All names make_decoder accepts (for --help strings and sweeps).
const std::vector<std::string>& decoder_names();

/// block_width() of any decoder make_decoder(name, ...) builds now, without
/// building one: a SIMD decoder's width is the lane count of the tier it
/// picks, independent of the code. Throws ldpc::Error for unknown names.
std::size_t decoder_block_width(const std::string& name);

}  // namespace ldpc
