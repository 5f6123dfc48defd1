// Shared pieces of the perfbench program: options, seeded input pools with
// their reference decodes, span recording, process and thread probes, and
// the result line. The workloads themselves live in service_workloads.cpp
// and engine_workloads.cpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "codes/qc_code.hpp"
#include "core/decoder.hpp"
#include "runtime/batch_engine.hpp"
#include "service/wire.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string rev = "unknown";
  std::string spans_dir;
};

// ---- statistics -----------------------------------------------------------

/// R-7 quantile (the library's percentile_sorted) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// ---- spans ----------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark around each call it makes into a layer; nothing inside the
/// program is instrumented. Disabled tracers drop every record, so the
/// untraced runs pay one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Id for a span whose children are recorded before the span itself.
  std::uint64_t reserve();
  void record(std::uint64_t id, std::uint64_t parent, const char* name,
              const char* layer, Clock::time_point start,
              Clock::time_point end);
  /// Records a span under a fresh id and returns that id.
  std::uint64_t record(const char* name, const char* layer,
                       Clock::time_point start, Clock::time_point end,
                       std::uint64_t parent = 0);

  struct LayerTime {
    std::string layer;
    std::size_t spans = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< duration minus the part children cover
  };
  std::vector<LayerTime> self_time_by_layer() const;

  /// Mean duration in microseconds of the spans called `name` (0 if none).
  double mean_us(const std::string& name) const;
  /// Summed duration in milliseconds of the spans called `name`.
  double total_ms(const std::string& name) const;

  /// One JSON object per line: id, parent, name, layer, thread, start/end
  /// in nanoseconds since the tracer was created.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    const char* name = "";
    const char* layer = "";
    long thread = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

// ---- inputs ---------------------------------------------------------------

/// The wire codec a workload sends, with its code.
struct Codec {
  ldpc::service::CodecRef ref;
  std::shared_ptr<const ldpc::QCLdpcCode> code;
};

/// A seeded channel frame and the scalar reference decoder's result for it.
struct Frame {
  std::vector<float> llr;
  ldpc::DecodeResult reference;
};

struct FramePool {
  Codec codec;
  std::vector<Frame> frames;
};

/// The code `ref` names, built through a fresh CodecCache: the decode
/// service's own construction path on a cache miss.
std::shared_ptr<const ldpc::QCLdpcCode> build_code(
    const ldpc::service::CodecRef& ref);

/// `count` frames of the code `ref` names: random information bits,
/// encoded, BPSK over AWGN at `ebn0_db`, all derived from `seed`. Each frame
/// is then decoded by `reference_decoder` (two threads, before any timing
/// starts).
FramePool make_pool(const ldpc::service::CodecRef& ref, std::size_t count,
                    float ebn0_db, std::uint64_t seed,
                    const std::string& reference_decoder);

/// Status, iteration count and hard bits all equal.
bool matches_reference(const ldpc::DecodeResult& reference,
                       ldpc::DecodeStatus status, std::size_t iterations,
                       const ldpc::BitVec& hard_bits);

/// Per-frame cost figures of a pool under its reference results: mean
/// iterations, converged share, edge updates (edges x iterations) and the
/// message bytes those updates move at `message_bytes` per stored message
/// (P read + write and R read + write per edge update).
struct PoolCost {
  double iters_per_frame = 0.0;
  double converged_share = 0.0;
  double edge_updates_per_frame = 0.0;
  double msg_bytes_per_frame = 0.0;
};
PoolCost pool_cost(const FramePool& pool, double message_bytes);

/// Direct single-threaded calls into the decoder `decoder_name`: decode()
/// per frame when `block` is 1, else decode_block() over `block` frames,
/// cycling the pool for at least `min_seconds`. Returns microseconds per
/// frame; every result is checked against the reference (`*mismatches`).
double direct_decode_us_per_frame(const FramePool& pool,
                                  const std::string& decoder_name,
                                  std::size_t block, double min_seconds,
                                  Tracer& tracer, std::size_t* mismatches);

// ---- process and thread probes ------------------------------------------

double peak_rss_mb();
std::vector<long> thread_ids();
/// CPU time of one thread of this process (schedstat, else stat ticks).
double thread_cpu_seconds(long tid);
double thread_cpu_seconds(const std::vector<long>& tids);  ///< summed
double this_thread_cpu_seconds();

/// Host-wide CPU time from /proc/stat, in clock ticks: the share a
/// hypervisor stole between two readings explains run-to-run drift.
struct HostTicks {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};
HostTicks host_ticks();
double steal_share(const HostTicks& before, const HostTicks& after);

/// Decodes that left the SIMD lane kernel, over every engine worker.
std::size_t simd_fallbacks(const ldpc::EngineMetrics& metrics);

// ---- reporting ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one measured pass of a workload produced.
struct Measurement {
  std::size_t attempted = 0;
  std::size_t failed = 0;          ///< every kind of failure, the two below too
  std::size_t mismatches = 0;      ///< outputs that differ from the reference
  std::size_t simd_fallbacks = 0;  ///< decodes that left the lane kernel
  std::size_t max_threads = 0;     ///< busiest-moment thread count
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  /// No workload expects a failure: no deadlines, every tenant within its
  /// quota, and every output must match its reference decode.
  bool correct() const {
    return failed == 0 && mismatches == 0 && simd_fallbacks == 0;
  }
  double value(const std::string& name) const;
};

std::string fingerprint_json(const Options& options);
std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench
