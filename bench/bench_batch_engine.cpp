// Batch decode engine throughput — the software-side scalability axis: the
// same WiMAX (2304, 1/2) z = 96 case-study code the hardware benches use,
// decoded as a stream of frames through the runtime worker pool at 1..8
// workers. The worker grid is host-aware: {1, 2, 4} always, {6, 8} only
// when the machine has that many cores, so CI boxes of any size produce
// meaningful rows. Every engine is warmed (each worker has built its
// decoder and run a block) before one timed decode_batch that gives each
// worker of the widest row at least 16 blocks. Reports decoded-bits/s of
// the timed batch, speedup over one worker, the per-frame latency
// distribution (which also holds the warm-up frames), records (does not
// gate) per-worker scaling efficiency in BENCH_batch_engine.json, and
// cross-checks that every worker count produces bit-identical hard
// decisions (the engine's determinism contract). Speedup saturates at the
// machine's core count. Two engine-only rows, on 1 and 2 workers, time the
// engine apart from any kernel: a stub decoder returns each frame at once,
// so their ns per frame (recorded, not gated) is the submit, queue, lane
// fill, booking and release path alone.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/decoder_factory.hpp"
#include "runtime/batch_engine.hpp"
#include "util/table.hpp"

using namespace ldpc;

namespace {

std::vector<std::vector<float>> make_frames(const QCLdpcCode& code,
                                            std::size_t count, float ebn0_db) {
  const RuEncoder encoder(code);
  const float variance = awgn_noise_variance(ebn0_db, code.rate());
  std::vector<std::vector<float>> frames;
  frames.reserve(count);
  for (std::size_t f = 0; f < count; ++f) {
    Xoshiro256 info_rng(2009 + 3 * f);
    BitVec info(code.k());
    for (std::size_t i = 0; i < info.size(); ++i) info.set(i, info_rng.coin());
    AwgnChannel awgn(variance, 2010 + 3 * f);
    frames.push_back(BpskModem::demodulate(
        awgn.transmit(BpskModem::modulate(encoder.encode(info))), variance));
  }
  return frames;
}

/// A decoder with no decode: each frame comes back at once as n all-zero
/// hard decisions, converged in one iteration.
class StubDecoder final : public Decoder {
 public:
  explicit StubDecoder(std::size_t n) : n_(n) {}
  DecodeResult decode(std::span<const float>) override {
    DecodeResult r;
    r.hard_bits = BitVec(n_);
    r.iterations = 1;
    r.converged = true;
    r.status = DecodeStatus::kConverged;
    return r;
  }
  std::size_t n() const override { return n_; }
  std::string name() const override { return "stub"; }

 private:
  std::size_t n_;
};

/// Median ns per frame of the engine alone on `workers` workers: 11 timed
/// runs (after one warm-up) of 128 submit_block jobs of 64 frames on an
/// 8-block queue, each frame's LLRs copied from `pool` by the submitter,
/// as perfbench and the decode service do; then a drain.
double engine_only_ns_per_frame(const std::vector<std::vector<float>>& pool,
                                unsigned workers) {
  constexpr std::size_t kBlockFrames = 64, kBlocks = 128;
  BatchEngineConfig cfg;
  cfg.num_workers = workers;
  cfg.queue_capacity = 8;
  const std::size_t n = pool.front().size();
  BatchEngine engine([n] { return std::make_unique<StubDecoder>(n); }, cfg);
  std::vector<double> ns;
  std::vector<DecodeResult> slots(kBlockFrames * kBlocks);
  for (int run = 0; run < 12; ++run) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t b = 0; b < kBlocks; ++b) {
      std::vector<BlockFrameJob> block(kBlockFrames);
      for (std::size_t j = 0; j < kBlockFrames; ++j) {
        const std::size_t f = b * kBlockFrames + j;
        block[j].frame_index = f;
        block[j].llr = pool[f % pool.size()];
        block[j].slot = &slots[f];
      }
      LDPC_CHECK(submit_accepted(engine.submit_block(std::move(block))));
    }
    engine.drain();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (run > 0)
      ns.push_back(seconds * 1e9 / static_cast<double>(slots.size()));
  }
  LDPC_CHECK(std::all_of(slots.begin(), slots.end(),
                         [](const DecodeResult& r) { return r.converged; }));
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

}  // namespace

int main() {
  const auto code = make_wimax_2304_half_rate();

  // The inter-frame-batched SIMD decoder fed lane-width blocks: the fused
  // engine + kernel path this bench tracks. The scalar fixed decoder at
  // block_frames = 1 is the baseline the speedup column is against.
  DecoderOptions opt;
  opt.max_iterations = 10;
  DecoderFactory batched_factory = [&code, opt] {
    return make_decoder("layered-minsum-simd-batched", code, opt);
  };
  DecoderFactory scalar_factory = [&code, opt] {
    return make_decoder("layered-minsum-fixed", code, opt);
  };
  const std::size_t block_width =
      batched_factory()->block_width();  // lane count of the best SIMD tier

  struct Config {
    std::string label;
    DecoderFactory* factory;
    unsigned workers;
    std::size_t block_frames;
  };
  // Host-aware worker grid: always measure 1/2/4 (oversubscription on a
  // small box is itself a data point), extend to 6 and 8 only when the
  // host has the cores to back them.
  const unsigned host_cores = std::max(1U, std::thread::hardware_concurrency());
  std::vector<Config> configs = {
      {"scalar w=1", &scalar_factory, 1, 1},
      {"batched w=1", &batched_factory, 1, block_width},
      {"batched w=2", &batched_factory, 2, block_width},
      {"batched w=4", &batched_factory, 4, block_width},
  };
  for (const unsigned w : {6U, 8U})
    if (host_cores >= w)
      configs.push_back({"batched w=" + std::to_string(w), &batched_factory, w,
                         block_width});

  // At least 16 blocks for every worker of the widest row, so the drain
  // tail and the warm-up are a small share of each run. 2.0 dB: the
  // waterfall operating point — a realistic mix of early terminations and
  // full-budget decodes.
  const std::size_t frame_count = 16 * configs.back().workers * block_width;
  const auto frames = make_frames(code, frame_count, 2.0F);

  TextTable table(
      "Batch engine — WiMAX (2304, 1/2) z=96, " + std::to_string(frame_count) +
      " frames @ 2.0 dB, simd-batched blocks of " +
      std::to_string(block_width) + " vs scalar q8.2");
  table.set_header({"config", "info Mb/s", "code Mb/s", "speedup",
                    "p50 (us)", "p95 (us)", "p99 (us)", "avg iters",
                    "fallbacks"});

  const std::string code_name = bench::code_id("wimax-1/2", code);
  const std::string rev = bench::git_rev();
  bench::JsonReporter json;

  double base_mbps = 0.0;
  double batched_w1_mbps = 0.0;
  std::vector<DecodeResult> reference;
  bool identical = true;
  for (const Config& c : configs) {
    BatchEngineConfig cfg;
    cfg.num_workers = c.workers;
    cfg.queue_capacity = 64;
    cfg.block_frames = c.block_frames;
    BatchEngine engine(*c.factory, cfg);
    // Warm-up: one block per worker, repeated until every worker has built
    // its decoder and run a block (an idle worker takes a queued block
    // before a busy one can).
    const auto warm_frames =
        static_cast<std::ptrdiff_t>(c.workers * c.block_frames);
    const std::vector<std::vector<float>> warm(frames.begin(),
                                               frames.begin() + warm_frames);
    for (int attempt = 0; attempt < 32; ++attempt) {
      engine.decode_batch(warm);
      const auto workers = engine.snapshot().workers;
      if (std::all_of(workers.begin(), workers.end(),
                      [](const auto& w) { return w.jobs > 0; }))
        break;
    }
    const EngineMetrics before = engine.snapshot();
    const auto t0 = std::chrono::steady_clock::now();
    auto results = engine.decode_batch(frames);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    const EngineMetrics m = engine.snapshot();
    const double info_mbps =
        static_cast<double>(m.decoded_info_bits - before.decoded_info_bits) /
        seconds / 1e6;
    const double code_mbps =
        static_cast<double>(m.decoded_bits - before.decoded_bits) / seconds /
        1e6;
    std::size_t fallbacks = 0, iterations = 0;
    for (const auto& r : results) {
      fallbacks += r.simd_fallback != SimdFallback::kNone ? 1 : 0;
      iterations += r.iterations;
    }
    const double avg_iterations =
        static_cast<double>(iterations) / static_cast<double>(frame_count);
    if (c.block_frames == block_width && c.workers == 1)
      batched_w1_mbps = info_mbps;
    // Scaling efficiency: speedup over the single-worker batched row
    // divided by the worker count — 1.0 is perfect linear scaling. A
    // recorded trajectory, not a gate: it depends on the host's cores.
    const double scaling_efficiency =
        (c.block_frames == block_width && batched_w1_mbps > 0.0)
            ? info_mbps / batched_w1_mbps / static_cast<double>(c.workers)
            : 1.0;
    json.add_row()
        .set("decoder", c.block_frames == 1 ? "layered-minsum-fixed"
                                            : "layered-minsum-simd-batched")
        .set("label", c.label)
        .set("code", code_name)
        .set("ebn0_db", 2.0)
        .set("frames", frame_count)
        .set("workers", static_cast<long long>(c.workers))
        .set("host_cores", static_cast<long long>(host_cores))
        .set("block_frames", c.block_frames)
        .set("info_mbps", info_mbps)
        .set("code_mbps", code_mbps)
        .set("scaling_efficiency", scaling_efficiency)
        .set("p50_us", m.latency.p50_us)
        .set("p95_us", m.latency.p95_us)
        .set("p99_us", m.latency.p99_us)
        .set("avg_iterations", avg_iterations)
        .set("simd_fallbacks", fallbacks)
        .set("git_rev", rev);
    if (reference.empty()) {
      base_mbps = info_mbps;
      reference = std::move(results);
    } else {
      // Determinism contract, extended across decode *shapes*: the batched
      // block path must reproduce the scalar per-frame results bit for bit
      // at every worker count.
      for (std::size_t f = 0; f < results.size(); ++f) {
        if (results[f].iterations != reference[f].iterations) identical = false;
        for (std::size_t i = 0; i < code.n(); ++i)
          if (results[f].hard_bits.get(i) != reference[f].hard_bits.get(i))
            identical = false;
      }
    }
    table.add_row({c.label,
                   TextTable::num(info_mbps, 1),
                   TextTable::num(code_mbps, 1),
                   TextTable::num(base_mbps > 0.0 ? info_mbps / base_mbps : 1.0,
                                  2),
                   TextTable::num(m.latency.p50_us, 0),
                   TextTable::num(m.latency.p95_us, 0),
                   TextTable::num(m.latency.p99_us, 0),
                   TextTable::num(avg_iterations, 2),
                   TextTable::integer(fallbacks)});
  }
  std::fputs(table.str().c_str(), stdout);

  TextTable engine_only(
      "Engine only — stub decoder (no decode), n = 2304, 64-frame blocks "
      "with LLRs copied at submit, median of 11 runs of 8,192 frames");
  engine_only.set_header({"workers", "ns/frame", "frames/s"});
  for (const unsigned workers : {1U, 2U}) {
    const double ns = engine_only_ns_per_frame(frames, workers);
    json.add_row()
        .set("decoder", "stub")
        .set("label", "engine-only w=" + std::to_string(workers))
        .set("code", code_name)
        .set("workers", static_cast<long long>(workers))
        .set("host_cores", static_cast<long long>(host_cores))
        .set("block_frames", std::size_t{64})
        .set("ns_per_frame", ns)
        .set("git_rev", rev);
    engine_only.add_row({std::to_string(workers), TextTable::num(ns, 0),
                         TextTable::num(1e9 / ns, 0)});
  }
  std::fputs(engine_only.str().c_str(), stdout);
  json.write("BENCH_batch_engine.json");
  std::printf(
      "\nOutput bit-identical across configs and worker counts: %s\n"
      "Expected: the batched rows multiply single-worker throughput by the\n"
      "lane fill; extra workers help only up to the physical core count.\n"
      "p50 latency grows with queue depth: a frame is booked when its own\n"
      "lane finishes, but waits in the queue behind whole blocks.\n",
      identical ? "yes" : "NO — DETERMINISM VIOLATION");
  return identical ? 0 : 1;
}
