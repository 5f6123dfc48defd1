// The engine workload: an offline stream through BatchEngine::submit_block
// on an inter-frame-batched decoder, 2 workers, kBlock backpressure on an
// 8-block queue. Each block holds exactly block_width() frames drawn in
// order from the pool (331 frames, coprime to every lane width). The stream
// runs in rounds of 512 blocks with one drain per round, and every round
// runs on an engine set up just before it: setup_s is the median over
// set-ups spread across the whole window. A round's result slots are
// allocated fresh, checked after its drain and freed, and its latency
// samples go with its engine, so memory does not grow with throughput. The
// drain tail costs each round well under one block time per worker.
//
//   engine-fa4  layered-minsum-simd-batched-fa4  (int8, finite alphabet)
#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "core/decoder_factory.hpp"
#include "runtime/batch_engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kQueueBlocks = 8;
constexpr std::size_t kBlocksPerRound = 512;

}  // namespace

Measurement run_engine_workload(const FramePool& pool,
                                const std::string& decoder_name,
                                double seconds, Tracer& tracer) {
  Measurement m;
  const ldpc::QCLdpcCode& pool_code = *pool.codec.code;
  const std::size_t width =
      ldpc::make_decoder(decoder_name, pool_code, ldpc::DecoderOptions{})
          ->block_width();
  const std::size_t pool_size = pool.frames.size();

  ldpc::BatchEngineConfig config;
  config.num_workers = kWorkers;
  config.queue_capacity = kQueueBlocks;
  config.overload_policy = ldpc::OverloadPolicy::kBlock;

  std::size_t stream = 0;  // next frame of the stream (frame_index)
  // Submits `blocks` full blocks into fresh slots and returns them with the
  // pool index of every slot; the caller drains before reading.
  std::vector<std::uint32_t> picked;
  const auto submit_blocks = [&](ldpc::BatchEngine& engine, std::size_t blocks,
                                 std::vector<ldpc::DecodeResult>& slots,
                                 double* submit_wait_s) {
    slots = std::vector<ldpc::DecodeResult>(blocks * width);
    picked.resize(blocks * width);
    for (std::size_t b = 0; b < blocks; ++b) {
      std::vector<ldpc::BlockFrameJob> block(width);
      for (std::size_t j = 0; j < width; ++j) {
        const std::size_t slot = b * width + j;
        picked[slot] = static_cast<std::uint32_t>(stream % pool_size);
        block[j].frame_index = stream++;
        block[j].llr = pool.frames[picked[slot]].llr;
        block[j].slot = &slots[slot];
      }
      const auto t0 = Clock::now();
      const ldpc::SubmitStatus status = engine.submit_block(std::move(block));
      const auto t1 = Clock::now();
      tracer.record("submit_block", "runtime", t0, t1);
      if (submit_wait_s) *submit_wait_s += seconds_between(t0, t1);
      if (!ldpc::submit_accepted(status)) {
        engine.drain();  // no worker may still hold a slot of this round
        throw std::runtime_error(std::string("submit_block refused: ") +
                                 ldpc::to_string(status));
      }
    }
  };
  // Checks drained slots against the references and returns the good info
  // bits. Round blocks also add to the lane-utilisation sums.
  double lane_iters = 0.0, lane_slots = 0.0;
  const auto check = [&](const std::vector<ldpc::DecodeResult>& slots,
                         bool round) {
    double good = 0.0;
    for (std::size_t b = 0; b * width < slots.size(); ++b) {
      std::size_t sum = 0, longest = 0;
      for (std::size_t j = 0; j < width; ++j) {
        const std::size_t s = b * width + j;
        const ldpc::DecodeResult& r = slots[s];
        sum += r.iterations;
        longest = std::max(longest, r.iterations);
        ++m.attempted;
        if (r.simd_fallback != ldpc::SimdFallback::kNone) {
          ++m.simd_fallbacks;
          ++m.failed;
        } else if (!matches_reference(pool.frames[picked[s]].reference,
                                      r.status, r.iterations, r.hard_bits)) {
          ++m.mismatches;
          ++m.failed;
        } else if (r.status == ldpc::DecodeStatus::kConverged) {
          good += static_cast<double>(pool_code.k());
        }
      }
      // A block of exactly `width` frames runs until its slowest lane.
      if (round) {
        lane_iters += static_cast<double>(sum);
        lane_slots += static_cast<double>(width * longest);
      }
    }
    return good;
  };

  // ---- set-up: code, engine, every worker's decoder, warm blocks ----------
  std::shared_ptr<const ldpc::QCLdpcCode> code;
  std::unique_ptr<ldpc::BatchEngine> engine;
  std::vector<double> setup_s, build_ms;
  std::vector<long> worker_tids;
  const auto set_up = [&] {
    engine.reset();
    code.reset();
    const std::vector<long> before = thread_ids();
    const std::uint64_t span = tracer.reserve();
    const auto t0 = Clock::now();
    code = build_code(pool.codec.ref);
    const auto t1 = Clock::now();
    const ldpc::QCLdpcCode* code_ptr = code.get();
    ldpc::DecoderFactory factory = [code_ptr, decoder_name, &tracer, span] {
      const auto d0 = Clock::now();
      auto decoder = ldpc::make_decoder(decoder_name, *code_ptr,
                                        ldpc::DecoderOptions{});
      tracer.record("core.decoder_build", "core", d0, Clock::now(), span);
      return decoder;
    };
    engine = std::make_unique<ldpc::BatchEngine>(std::move(factory), config);
    // Workers build their decoder on their first job: repeat a burst of
    // kWarmPerWorker blocks per worker until every worker has run one.
    std::vector<ldpc::DecodeResult> warm_slots;
    for (int attempt = 0; attempt < 32; ++attempt) {
      submit_blocks(*engine, kWarmPerWorker * kWorkers, warm_slots, nullptr);
      engine->drain();
      check(warm_slots, false);
      const auto workers = engine->snapshot().workers;
      if (std::all_of(workers.begin(), workers.end(),
                      [](const auto& w) { return w.jobs > 0; }))
        break;
    }
    const auto t2 = Clock::now();
    tracer.record("codes.build", "codes", t0, t1, span);
    tracer.record("warm", "runtime", t1, t2, span);
    tracer.record(span, 0, "setup", "runtime", t0, t2);
    setup_s.push_back(seconds_between(t0, t2));
    build_ms.push_back(ms_between(t0, t1));
    worker_tids.clear();
    for (const long tid : thread_ids())
      if (!std::binary_search(before.begin(), before.end(), tid))
        worker_tids.push_back(tid);
  };

  // ---- the measured window: a set-up, then a round of kBlocksPerRound ----
  const double producer_cpu0 = this_thread_cpu_seconds();
  const HostTicks host0 = host_ticks();
  std::vector<double> round_mbps, round_ms, job_p50_ms, job_p95_ms,
      queue_mean;
  std::size_t queue_max = 0, engine_fallbacks = 0, submits = 0;
  double busy_s = 0.0, submit_wait_s = 0.0, workers_cpu = 0.0;
  std::vector<ldpc::DecodeResult> slots;
  const auto start = Clock::now();
  do {
    set_up();
    m.max_threads = std::max(m.max_threads, thread_ids().size());
    const ldpc::EngineMetrics before = engine->snapshot();
    const double workers_cpu0 = thread_cpu_seconds(worker_tids);
    const auto r0 = Clock::now();
    submit_blocks(*engine, kBlocksPerRound, slots, &submit_wait_s);
    submits += kBlocksPerRound;
    const auto d0 = Clock::now();
    engine->drain();
    const auto r1 = Clock::now();
    tracer.record("drain", "runtime", d0, r1);
    workers_cpu += thread_cpu_seconds(worker_tids) - workers_cpu0;
    const ldpc::EngineMetrics after = engine->snapshot();
    engine_fallbacks += simd_fallbacks(after) - simd_fallbacks(before);
    job_p50_ms.push_back(after.latency.p50_us / 1000.0);
    job_p95_ms.push_back(after.latency.p95_us / 1000.0);
    queue_mean.push_back(after.queue_mean_occupancy);
    queue_max = std::max(queue_max, after.queue_max_occupancy);
    const double round_s = seconds_between(r0, r1);
    busy_s += round_s;
    round_ms.push_back(round_s * 1e3);
    round_mbps.push_back(check(slots, true) / round_s / 1e6);
  } while (seconds_between(start, Clock::now()) < seconds);
  engine.reset();
  code.reset();
  const double elapsed = seconds_between(start, Clock::now());
  const double producer_cpu = this_thread_cpu_seconds() - producer_cpu0;
  const double steal = steal_share(host0, host_ticks());
  // The slots carry each frame's fallback reason; the engine counts them too.
  if (engine_fallbacks > m.simd_fallbacks) {
    m.failed += engine_fallbacks - m.simd_fallbacks;
    m.simd_fallbacks = engine_fallbacks;
  }
  std::printf("  window: %zu rounds of %zu blocks x %zu frames, each after "
              "its own set-up (median %.3f ms); round %.1f-%.1f ms; host "
              "steal %.1f%%\n  run, warm-up included: %zu frames, %zu "
              "failed, %zu mismatches\n",
              round_ms.size(), kBlocksPerRound, width, median(setup_s) * 1e3,
              *std::min_element(round_ms.begin(), round_ms.end()),
              *std::max_element(round_ms.begin(), round_ms.end()),
              steal * 100.0, m.attempted, m.failed, m.mismatches);

  m.end_to_end = {
      {"goodput_mbps", median(round_mbps), "Mbit/s"},
      {"p50_ms", quantile(round_ms, 0.50), "ms"},
      {"p90_ms", quantile(round_ms, 0.90), "ms"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };

  // ---- per-layer ------------------------------------------------------------
  double us_per_frame = 0.0;
  if (tracer.enabled())
    us_per_frame = direct_decode_us_per_frame(pool, decoder_name, width, 0.5,
                                              tracer, &m.mismatches);
  const PoolCost cost = pool_cost(pool, 1.0);  // int8 P and R memories
  const double job_p50 = median(job_p50_ms);
  const double frame_rate =
      static_cast<double>(round_ms.size() * kBlocksPerRound * width) / busy_s;
  const double predicted_rate =
      us_per_frame > 0.0 ? kWorkers * 1e6 / us_per_frame : 0.0;
  if (predicted_rate > 0.0)
    std::printf("  decode-bound check: %u workers / %.2f us = %.0f frames/s "
                "predicted, %.0f frames/s measured (%.2f)\n",
                kWorkers, us_per_frame, predicted_rate, frame_rate,
                frame_rate / predicted_rate);

  m.per_layer = {
      {"core.us_per_frame", us_per_frame, "us"},
      {"core.iters_per_frame", cost.iters_per_frame, "count"},
      {"core.converged_share", cost.converged_share, "ratio"},
      {"core.lane_util", lane_slots > 0 ? lane_iters / lane_slots : 0.0,
       "ratio"},
      {"core.edge_updates_per_frame", cost.edge_updates_per_frame, "count"},
      {"core.msg_bytes_per_frame", cost.msg_bytes_per_frame, "B"},
      {"core.simd_fallbacks", static_cast<double>(engine_fallbacks), "count"},
      {"core.decoder_build_ms", tracer.mean_us("core.decoder_build") / 1e3,
       "ms"},
      {"core.decode_bound_share",
       predicted_rate > 0.0 ? frame_rate / predicted_rate : 0.0, "ratio"},
      {"runtime.job_p50_ms", job_p50, "ms"},
      {"runtime.job_p95_ms", median(job_p95_ms), "ms"},
      {"runtime.handoff_ms",
       job_p50 - static_cast<double>(width) * us_per_frame / 1000.0, "ms"},
      {"runtime.queue_mean_depth", median(queue_mean), "count"},
      {"runtime.queue_max_depth", static_cast<double>(queue_max), "count"},
      {"runtime.submit_wait_us",
       submit_wait_s * 1e6 / static_cast<double>(submits), "us"},
      {"runtime.worker_busy_share", workers_cpu / (kWorkers * busy_s),
       "ratio"},
      // No service, wire or network generator on this path.
      {"service.overhead_p50_ms", 0.0, "ms"},
      {"service.loop_cpu_us_per_req", 0.0, "us"},
      {"service.parked", 0.0, "count"},
      {"service.throttled", 0.0, "count"},
      {"service.refused", 0.0, "count"},
      {"service.expired", 0.0, "count"},
      {"service.codec_misses", 0.0, "count"},
      {"wire.req_bytes", 0.0, "B"},
      {"wire.resp_bytes", 0.0, "B"},
      {"wire.encode_us", 0.0, "us"},
      {"wire.parse_us", 0.0, "us"},
      {"codes.build_ms", median(build_ms), "ms"},
      {"gen.cpu_share", producer_cpu / elapsed, "ratio"},
  };
  return m;
}

}  // namespace perfbench
