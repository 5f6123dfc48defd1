// Software decoder micro-benchmarks (google-benchmark) plus the tracked
// decoder-throughput measurement.
//
// Not a paper table — this measures the C++ library itself: frames/second
// and info-bit throughput of each decoder implementation on the host CPU,
// which is what a downstream user simulating BER curves cares about.
//
// Before the google-benchmark suite runs, main() takes a wall-clock
// measurement of every layered-decoder implementation on the paper's
// (2304, 1/2) z = 96 case-study code and writes it to
// BENCH_decoder_throughput.json (decoder label, code id, frames/s, info
// Mbps, iterations/frame, speedup vs. the scalar fixed-point decoder) so
// the perf trajectory is machine-readable across PRs. Two headline rows:
// the SIMD z-lane decoder (acceptance target >= 4x the scalar
// layered-minsum-fixed single-thread throughput) and the aggregate
// "engine-simd-batched" entry — frames streamed through the BatchEngine
// into the inter-frame-batched SIMD decoder as full lane-blocks, with
// engine-level info/code throughput and p50/p95/p99 latency (acceptance
// target >= 100 Mbps aggregate info throughput). Between them, two stream
// rows time the inter-frame-batched kernels without the engine, the int16
// q8.2 one and the int8 fa4 one (recorded, not gated). Every SIMD row
// hard-fails the benchmark if any decode fell back to a scalar path: a
// tracked perf number silently measured on the wrong kernel is worse than
// no number.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "bench_common.hpp"
#include "channel/awgn.hpp"
#include "channel/modem.hpp"
#include "codes/encoder.hpp"
#include "codes/wimax.hpp"
#include "core/decoder_factory.hpp"
#include "core/simd/simd_kernel.hpp"
#include "runtime/batch_engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace ldpc;

const QCLdpcCode& code2304() {
  static const QCLdpcCode code = make_wimax_2304_half_rate();
  return code;
}

std::vector<float> noisy_llr(const QCLdpcCode& code, float ebn0, std::uint64_t seed) {
  const RuEncoder enc(code);
  Xoshiro256 rng(seed);
  BitVec info(code.k());
  for (std::size_t i = 0; i < info.size(); ++i) info.set(i, rng.coin());
  const float variance = awgn_noise_variance(ebn0, code.rate());
  AwgnChannel ch(variance, seed + 1);
  return BpskModem::demodulate(
      ch.transmit(BpskModem::modulate(enc.encode(info))), variance);
}

// ------------------------------------------------ tracked JSON measurement --

struct Throughput {
  double frames_per_s = 0.0;
  double info_mbps = 0.0;
  double iters_per_frame = 0.0;
};

/// Wall-clock throughput of one decoder's single-frame decode(), cycling
/// through `pool`: warm up over the pool once, then time kRounds rounds of
/// whole passes over the pool, each at least min_seconds / kRounds long,
/// and report the median round. Whole passes give every round the pool's
/// mix of iteration counts (one frame decoded over and over reads only
/// that frame's), and the median drops the rounds a busy host slowed.
Throughput measure(Decoder& dec, const QCLdpcCode& code,
                   const std::vector<std::vector<float>>& pool,
                   double min_seconds = 0.3) {
  using clock = std::chrono::steady_clock;
  constexpr int kRounds = 7;
  for (const auto& llr : pool) benchmark::DoNotOptimize(dec.decode(llr));
  std::vector<double> round_fps;
  std::size_t frames = 0;
  std::size_t iters = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::size_t decoded = 0;
    const auto start = clock::now();
    double elapsed = 0.0;
    do {
      for (const auto& llr : pool) {
        const auto result = dec.decode(llr);
        benchmark::DoNotOptimize(result.iterations);
        iters += result.iterations;
      }
      decoded += pool.size();
      elapsed = std::chrono::duration<double>(clock::now() - start).count();
    } while (elapsed < min_seconds / kRounds);
    frames += decoded;
    round_fps.push_back(static_cast<double>(decoded) / elapsed);
  }
  std::sort(round_fps.begin(), round_fps.end());
  Throughput t;
  t.frames_per_s = round_fps[kRounds / 2];
  t.info_mbps = t.frames_per_s * static_cast<double>(code.k()) / 1e6;
  t.iters_per_frame = static_cast<double>(iters) / static_cast<double>(frames);
  return t;
}

/// Distinct noisy frames (one per lane and then some) so the batched
/// decoder sees the realistic mix of per-frame iteration counts the lane
/// refill is built for, not one frame copied across every lane.
std::vector<std::vector<float>> noisy_frames(const QCLdpcCode& code,
                                             std::size_t count) {
  std::vector<std::vector<float>> frames;
  frames.reserve(count);
  for (std::size_t f = 0; f < count; ++f)
    frames.push_back(noisy_llr(code, 2.0F, 5 + 7 * f));
  return frames;
}

/// Blocks of block_width() frames per timed batched-decoder call.
constexpr std::size_t kStreamBlocks = 16;

/// Wall-clock throughput of an inter-frame-batched decoder driven directly
/// (no engine) with one stream of kStreamBlocks blocks per decode_block
/// call: the shape an engine worker runs, where a freed lane takes the next
/// frame across block boundaries instead of idling until its block's
/// slowest frame ends. Fails the benchmark if any frame fell back.
Throughput measure_stream(Decoder& dec, const QCLdpcCode& code,
                          const std::vector<std::vector<float>>& pool,
                          double min_seconds = 0.3) {
  using clock = std::chrono::steady_clock;
  const std::size_t count = kStreamBlocks * dec.block_width();
  std::vector<BlockFrame> stream(count);
  std::vector<DecodeResult> results(count);
  std::vector<SaturationStats> sats(count);
  std::size_t cursor = 0;
  const auto fill = [&] {
    for (std::size_t i = 0; i < count; ++i)
      stream[i].llr = pool[(cursor + i) % pool.size()];
    cursor = (cursor + count) % pool.size();
  };
  fill();
  dec.decode_block(stream, results, sats);  // warm-up
  std::size_t frames = 0;
  std::size_t iters = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    fill();
    dec.decode_block(stream, results, sats);
    for (const DecodeResult& r : results) {
      iters += r.iterations;
      if (r.simd_fallback != SimdFallback::kNone) {
        std::fprintf(stderr,
                     "FATAL: batched benchmark decode fell back to a scalar "
                     "path (%s) — the tracked number would be a lie\n",
                     to_string(r.simd_fallback));
        std::exit(1);
      }
    }
    frames += count;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < min_seconds);
  Throughput t;
  t.frames_per_s = static_cast<double>(frames) / elapsed;
  t.info_mbps = t.frames_per_s * static_cast<double>(code.k()) / 1e6;
  t.iters_per_frame = static_cast<double>(iters) / static_cast<double>(frames);
  return t;
}

void write_throughput_json() {
  const auto& code = code2304();
  const std::string code_id = bench::code_id("wimax-1/2", code);
  const std::string rev = bench::git_rev();
  // 2.0 dB waterfall frames, early termination on: the BER-harness
  // operating point (converges in a handful of iterations). One pool for
  // every row: the single-frame decoders cycle through it, the batched
  // ones stream it.
  const auto pool = noisy_frames(code, 61);  // coprime to every lane count
  DecoderOptions opt;
  opt.max_iterations = 10;

  bench::JsonReporter report;
  double scalar_fps = 0.0;
  const char* names[] = {
      "layered-minsum-fixed",  "layered-minsum-simd",
      "layered-minsum-q6",     "layered-minsum-simd-q6",
      "layered-minsum-float",
  };
  std::printf("decoder throughput — %s, 10 iters max, ET on\n",
              code_id.c_str());
  for (const char* name : names) {
    auto dec = make_decoder(name, code, opt);
    const Throughput t = measure(*dec, code, pool);
    if (std::string(name) == "layered-minsum-fixed") scalar_fps = t.frames_per_s;
    const double speedup =
        scalar_fps > 0.0 ? t.frames_per_s / scalar_fps : 0.0;
    report.add_row()
        .set("decoder", name)
        .set("label", dec->name())
        .set("code", code_id)
        .set("ebn0_db", 2.0)
        .set("frames_per_s", t.frames_per_s)
        .set("info_mbps", t.info_mbps)
        .set("iters_per_frame", t.iters_per_frame)
        .set("speedup_vs_scalar_fixed", speedup)
        .set("simd_tier", simd::to_string(simd::best_tier()))
        .set("git_rev", rev);
    std::printf("  %-28s %10.0f frames/s  %8.2f Mbps  %5.2f iters/frame  %5.2fx\n",
                dec->name().c_str(), t.frames_per_s, t.info_mbps,
                t.iters_per_frame, speedup);
  }

  // Inter-frame-batched kernels, driven with streams of distinct frames —
  // the kernel-level ceiling of the engine rows: the int16 q8.2 kernel and
  // the int8 finite-alphabet one (fa4).
  for (const char* name :
       {"layered-minsum-simd-batched", "layered-minsum-simd-batched-fa4"}) {
    auto dec = make_decoder(name, code, opt);
    const Throughput t = measure_stream(*dec, code, pool);
    const double speedup =
        scalar_fps > 0.0 ? t.frames_per_s / scalar_fps : 0.0;
    report.add_row()
        .set("decoder", name)
        .set("label", dec->name())
        .set("code", code_id)
        .set("ebn0_db", 2.0)
        .set("frames_per_s", t.frames_per_s)
        .set("info_mbps", t.info_mbps)
        .set("iters_per_frame", t.iters_per_frame)
        .set("speedup_vs_scalar_fixed", speedup)
        .set("block_width", static_cast<double>(dec->block_width()))
        .set("stream_blocks", static_cast<double>(kStreamBlocks))
        .set("simd_tier", simd::to_string(simd::best_tier()))
        .set("git_rev", rev);
    std::printf("  %-28s %10.0f frames/s  %8.2f Mbps  %5.2f iters/frame  %5.2fx\n",
                dec->name().c_str(), t.frames_per_s, t.info_mbps,
                t.iters_per_frame, speedup);
  }

  // Aggregate engine-level number: the same frames streamed through the
  // BatchEngine as lane-width blocks. This is the deployable figure — it
  // includes submit/drain, queueing, per-frame stats and slot scatter —
  // and the row the perf gate in scripts/check.sh pins (>= 100 Mbps info).
  {
    BatchEngineConfig cfg;
    cfg.num_workers = 1;  // single-core aggregate; workers scale separately
    cfg.queue_capacity = 64;
    cfg.block_frames = decoder_block_width("layered-minsum-simd-batched");
    BatchEngine engine(
        [&code, &opt] {
          return make_decoder("layered-minsum-simd-batched", code, opt);
        },
        cfg);
    const auto start = std::chrono::steady_clock::now();
    do {
      auto results = engine.decode_batch(pool);
      benchmark::DoNotOptimize(results.data());
    } while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count() < 0.4);
    const EngineMetrics m = engine.snapshot();
    std::size_t fallbacks = 0;
    for (const auto& w : m.workers) fallbacks += w.simd_fallbacks;
    if (fallbacks != 0) {
      std::fprintf(stderr,
                   "FATAL: %zu engine decodes fell back to a scalar path — "
                   "the tracked aggregate would be a lie\n",
                   fallbacks);
      std::exit(1);
    }
    const double fps = m.wall_seconds > 0.0
                           ? static_cast<double>(m.jobs_completed) /
                                 m.wall_seconds
                           : 0.0;
    report.add_row()
        .set("decoder", "engine-simd-batched")
        .set("label", "engine(layered-minsum-simd-batched)")
        .set("code", code_id)
        .set("ebn0_db", 2.0)
        .set("frames_per_s", fps)
        .set("info_mbps", m.info_throughput_mbps)
        .set("code_mbps", m.code_throughput_mbps)
        .set("iters_per_frame", m.avg_iterations())
        .set("speedup_vs_scalar_fixed",
             scalar_fps > 0.0 ? fps / scalar_fps : 0.0)
        .set("workers", static_cast<double>(cfg.num_workers))
        .set("block_frames", static_cast<double>(cfg.block_frames))
        .set("p50_us", m.latency.p50_us)
        .set("p95_us", m.latency.p95_us)
        .set("p99_us", m.latency.p99_us)
        .set("simd_fallbacks", static_cast<double>(fallbacks))
        .set("simd_tier", simd::to_string(simd::best_tier()))
        .set("git_rev", rev);
    std::printf(
        "  %-28s %10.0f frames/s  %8.2f Mbps info  %8.2f Mbps code\n"
        "  %-28s p50 %.0f us  p95 %.0f us  p99 %.0f us  0 fallbacks\n",
        "engine-simd-batched", fps, m.info_throughput_mbps,
        m.code_throughput_mbps, "", m.latency.p50_us, m.latency.p95_us,
        m.latency.p99_us);
  }
  report.write("BENCH_decoder_throughput.json");
}

// ------------------------------------------------------- google-benchmark --

void decode_bench(benchmark::State& state, const std::string& name,
                  bool early_termination) {
  const auto& code = code2304();
  DecoderOptions opt;
  opt.max_iterations = 10;
  opt.early_termination = early_termination;
  auto dec = make_decoder(name, code, opt);
  const auto llr = noisy_llr(code, 2.0F, 5);
  for (auto _ : state) {
    auto result = dec->decode(llr);
    benchmark::DoNotOptimize(result.iterations);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["info_Mbps"] = benchmark::Counter(
      static_cast<double>(state.iterations() * code.k()) / 1e6,
      benchmark::Counter::kIsRate);
}

void BM_LayeredFixed(benchmark::State& s) { decode_bench(s, "layered-minsum-fixed", true); }
void BM_LayeredFixedNoET(benchmark::State& s) { decode_bench(s, "layered-minsum-fixed", false); }
void BM_LayeredSimd(benchmark::State& s) { decode_bench(s, "layered-minsum-simd", true); }
void BM_LayeredSimdNoET(benchmark::State& s) { decode_bench(s, "layered-minsum-simd", false); }
void BM_LayeredFloat(benchmark::State& s) { decode_bench(s, "layered-minsum-float", true); }
void BM_FloodingMinSumNorm(benchmark::State& s) { decode_bench(s, "flooding-minsum-norm", true); }
void BM_FloodingBp(benchmark::State& s) { decode_bench(s, "flooding-bp", true); }

BENCHMARK(BM_LayeredFixed);
BENCHMARK(BM_LayeredFixedNoET);
BENCHMARK(BM_LayeredSimd);
BENCHMARK(BM_LayeredSimdNoET);
BENCHMARK(BM_LayeredFloat);
BENCHMARK(BM_FloodingMinSumNorm);
BENCHMARK(BM_FloodingBp);

void BM_Encoder(benchmark::State& state) {
  const auto& code = code2304();
  const RuEncoder enc(code);
  Xoshiro256 rng(9);
  BitVec info(code.k());
  for (std::size_t i = 0; i < info.size(); ++i) info.set(i, rng.coin());
  for (auto _ : state) {
    auto word = enc.encode(info);
    benchmark::DoNotOptimize(word.popcount());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Encoder);

void BM_DenseEncoder(benchmark::State& state) {
  const auto& code = code2304();
  const DenseEncoder enc(code);
  Xoshiro256 rng(9);
  BitVec info(code.k());
  for (std::size_t i = 0; i < info.size(); ++i) info.set(i, rng.coin());
  for (auto _ : state) {
    auto word = enc.encode(info);
    benchmark::DoNotOptimize(word.popcount());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DenseEncoder);

}  // namespace

int main(int argc, char** argv) {
  write_throughput_json();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
