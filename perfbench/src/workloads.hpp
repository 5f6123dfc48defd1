// The two workloads. Each call sets up the program several times (setup_s
// is the median), measures for `seconds`, checks every output against the
// pool's reference decodes, and fills both the end-to-end and the
// per-layer metrics; the per-layer ones that need spans are only meaningful
// when `tracer` is enabled.
#pragma once

#include <string>

#include "harness.hpp"

namespace perfbench {

/// Engine worker threads in every workload: with the service event loop
/// and the one generator or producer thread this fills the 4-core host.
inline constexpr unsigned kWorkers = 2;
/// Warm-up jobs per worker in one set-up attempt: enough that a worker
/// whose thread wakes late still gets one while the others build their
/// decoders and run theirs.
inline constexpr unsigned kWarmPerWorker = 4;

/// service-bulk: a closed loop over the wire into a DecodeService.
Measurement run_service_workload(const FramePool& pool, std::uint64_t seed,
                                 double seconds, Tracer& tracer);

/// engine-fa4: blocks of block_width() frames through
/// BatchEngine::submit_block on the batched decoder `decoder_name`.
Measurement run_engine_workload(const FramePool& pool,
                                const std::string& decoder_name,
                                double seconds, Tracer& tracer);

}  // namespace perfbench
