// End-to-end tests for the fault-tolerant decode service: real sockets on a
// loopback server, hostile clients, per-tenant admission, deadline
// propagation, and the drain lifecycle. The drain test is the PR's
// exactly-once contract: every accepted request resolves exactly once — a
// decode response, a typed refusal, or kDeadlineExpired — never silence.
//
// Runs in the ThreadSanitizer stage of scripts/check.sh: the event loop /
// worker / shutdown handshakes are the code under test.
#include <gtest/gtest.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "channel/awgn.hpp"
#include "codes/encoder.hpp"
#include "codes/registry.hpp"
#include "codes/wimax.hpp"
#include "runtime/batch_engine.hpp"
#include "service/client.hpp"
#include "service/service.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ldpc::service {
namespace {

using namespace std::chrono_literals;

constexpr std::uint8_t kWimaxStd =
    static_cast<std::uint8_t>(CodeStandard::kWimax);
constexpr std::uint8_t kRegistryStd =
    static_cast<std::uint8_t>(CodeStandard::kRegistry);
/// Registry entry 1: hamsternz-demo-32, n = 32 — decodes in microseconds,
/// ideal for load tests.
const CodecRef kTinyCodec{kRegistryStd, 1, 1};

/// Noiseless LLRs for the all-zero codeword of an n-bit code.
std::vector<float> zero_codeword_llrs(std::size_t n) {
  return std::vector<float>(n, 4.0F);
}

DecodeRequest make_request(std::uint64_t id, std::uint32_t tenant,
                           const CodecRef& codec, std::vector<float> llr,
                           std::uint32_t deadline_us = 0) {
  DecodeRequest request;
  request.request_id = id;
  request.tenant_id = tenant;
  request.codec = codec;
  request.deadline_us = deadline_us;
  request.llr = std::move(llr);
  return request;
}

ServiceConfig base_config(unsigned workers = 2) {
  ServiceConfig config;
  config.engine.num_workers = workers;
  config.engine.queue_capacity = 256;
  return config;
}

// ---------------------------------------------------------------------------
// Engine snapshot (the tear-free metrics satellite).

TEST(EngineSnapshot, ConsistentUnderConcurrentLoad) {
  BatchEngineConfig config;
  config.num_workers = 4;
  config.queue_capacity = 64;
  const QCLdpcCode code = make_wimax_code(all_wimax_rates()[0], 24);
  BatchEngine engine([&] { return make_decoder("layered-minsum-fixed", code,
                                               DecoderOptions{}); },
                     config);

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    // Hammer snapshot() while jobs complete; every snapshot must be
    // internally consistent — completed <= submitted and the latency
    // sample count never exceeds the jobs that could have produced one.
    while (!stop.load()) {
      const EngineMetrics m = engine.snapshot();
      ASSERT_LE(m.jobs_completed, m.jobs_submitted);
      ASSERT_LE(m.latency.samples, m.jobs_completed);
      ASSERT_LE(m.queue_max_occupancy, m.queue_capacity);
      if (m.latency.samples > 0) {
        ASSERT_LE(m.latency.p50_us, m.latency.p95_us);
        ASSERT_LE(m.latency.p95_us, m.latency.p99_us);
        ASSERT_LE(m.latency.p99_us, m.latency.max_us);
      }
    }
  });

  const std::vector<float> llr = zero_codeword_llrs(code.n());
  std::vector<DecodeResult> results(400);
  for (std::size_t i = 0; i < results.size(); ++i)
    ASSERT_TRUE(submit_accepted(engine.submit(i, llr, &results[i])));
  engine.drain();
  stop.store(true);
  poller.join();

  const EngineMetrics m = engine.snapshot();
  EXPECT_EQ(m.jobs_completed, 400U);
  EXPECT_EQ(m.latency.samples, 400U);
}

TEST(EngineSnapshot, LatencyQuantilesWithinOneBucket) {
  // The engine's latency percentiles come off one LogLinearHistogram. On a
  // synthetic heavy-tailed sample (log-uniform 0.5 us .. 200 ms, plus
  // zeros) and on a sparse one, every quantile lies within one bucket of
  // the exact R-7 value; count, mean, min and max are exact.
  Xoshiro256 rng(2024);
  for (const std::size_t size : {std::size_t{100000}, std::size_t{5}}) {
    LogLinearHistogram hist;
    std::vector<double> sample;
    for (std::size_t i = 0; i < size; ++i) {
      const double v =
          i % 997 == 3 ? 0.0 : 0.5 * std::exp(rng.uniform() * std::log(4e5));
      hist.add(v);
      sample.push_back(v);
    }
    std::sort(sample.begin(), sample.end());
    double sum = 0.0;
    for (const double v : sample) sum += v;
    EXPECT_EQ(hist.count(), sample.size());
    EXPECT_NEAR(hist.mean(), sum / static_cast<double>(size), 1e-9 * sum);
    EXPECT_EQ(hist.min(), sample.front());
    EXPECT_EQ(hist.max(), sample.back());
    for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
      const double exact = percentile_sorted(sample, q);
      const double estimate = hist.quantile(q);
      const auto bucket = [](double v) {
        return static_cast<long>(LogLinearHistogram::bucket_of(v));
      };
      EXPECT_LE(std::abs(bucket(estimate) - bucket(exact)), 1)
          << "size " << size << " q " << q << ": " << estimate << " vs "
          << exact;
    }
  }
}

/// Heap bytes in use (small and mmapped chunks); 0 where glibc's
/// accounting is unavailable.
std::size_t heap_in_use() {
#ifdef __GLIBC__
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

TEST(EngineSnapshot, DefaultConfigBoundsLatencyMemory) {
  // A long-running server keeps every latency sample in one fixed-size
  // histogram: the count stays exact past 65,536 samples, and the heap does
  // not grow with it (a sample vector would grow 8 B a frame, 552 KB here).
  // Small blocks keep the worker's per-job buffers, which it may still be
  // freeing when drain() returns, far below the bound.
  const QCLdpcCode& code = external_code("hamsternz-demo-32");
  BatchEngine engine([&] { return make_decoder("layered-minsum-fixed", code,
                                               DecoderOptions{}); });
  const std::vector<float> llr = zero_codeword_llrs(code.n());
  constexpr std::size_t kBlocks = 700;
  std::vector<DecodeResult> slots(100);
  std::size_t heap_after_first = 0;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    std::vector<BlockFrameJob> block;
    for (std::size_t i = 0; i < slots.size(); ++i)
      block.push_back(
          BlockFrameJob{b * slots.size() + i, llr, &slots[i], std::nullopt});
    ASSERT_TRUE(submit_accepted(engine.submit_block(std::move(block))));
    engine.drain();  // the next block reuses the slots
    if (b == 0) heap_after_first = heap_in_use();
  }
  const EngineMetrics m = engine.snapshot();
  EXPECT_EQ(m.jobs_completed, kBlocks * slots.size());
  EXPECT_EQ(m.latency.samples, kBlocks * slots.size());
  EXPECT_LE(m.latency.p50_us, m.latency.max_us);
  EXPECT_LT(static_cast<long long>(heap_in_use()) -
                static_cast<long long>(heap_after_first),
            64 << 10);
}

// ---------------------------------------------------------------------------
// Basic request/response.

TEST(ServiceTest, PingStatsAndDecodeRoundTrip) {
  DecodeService service(base_config());
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  EXPECT_EQ(client.ping(0xC0FFEE, 2000ms), 0xC0FFEEULL);
  const auto stats_json = client.stats(2000ms);
  ASSERT_TRUE(stats_json.has_value());
  EXPECT_NE(stats_json->find("\"tenants\""), std::string::npos);

  // A real codeword through a real 802.16e code, bit-for-bit.
  const QCLdpcCode code = make_wimax_code(all_wimax_rates()[0], 24);
  const DenseEncoder encoder(code);
  BitVec info(code.k());
  for (std::size_t i = 0; i < info.size(); i += 2) info.set(i, true);
  const BitVec codeword = encoder.encode(info);
  std::vector<float> llr(code.n());
  for (std::size_t i = 0; i < llr.size(); ++i)
    llr[i] = codeword.get(i) ? -4.0F : 4.0F;

  const CodecRef wimax{kWimaxStd, 0, 24};
  const auto outcome =
      client.decode(make_request(1, 0, wimax, llr), 5000ms);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_FALSE(outcome->is_error) << to_string(outcome->error.code);
  EXPECT_EQ(outcome->response.status,
            static_cast<std::uint8_t>(DecodeStatus::kConverged));
  ASSERT_EQ(outcome->response.bit_count, code.n());
  const BitVec bits =
      unpack_bits(outcome->response.packed_bits, outcome->response.bit_count);
  for (std::size_t i = 0; i < code.n(); ++i)
    ASSERT_EQ(bits.get(i), codeword.get(i)) << "bit " << i;

  const ShutdownReport report = service.shutdown_after(2s);
  EXPECT_TRUE(report.drained_clean);
}

TEST(ServiceTest, EngineBooksOnlyDecodedFrames) {
  // One worker: the 1 us request below queues behind the noisy decode and
  // expires there, so its frame resolves without decoding.
  DecodeService service(base_config(/*workers=*/1));
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());
  const QCLdpcCode small = make_wimax_code(all_wimax_rates()[0], 24);
  const QCLdpcCode large = make_wimax_code(all_wimax_rates()[0], 96);
  const CodecRef small_ref{kWimaxStd, 0, 24};
  const CodecRef large_ref{kWimaxStd, 0, 96};

  // Sum of n and k over the frames that actually reached a decoder.
  std::size_t decoded_n = 0, decoded_k = 0;
  for (std::uint64_t id = 1; id <= 5; ++id) {
    const auto outcome = client.decode(
        make_request(id, 0, small_ref, zero_codeword_llrs(small.n())),
        5000ms);
    ASSERT_TRUE(outcome.has_value());
    ASSERT_FALSE(outcome->is_error) << to_string(outcome->error.code);
    ASSERT_EQ(outcome->response.status,
              static_cast<std::uint8_t>(DecodeStatus::kConverged));
    decoded_n += small.n();
    decoded_k += small.k();
  }

  // A noisy z=96 frame, and pipelined behind it on the same connection a
  // request with a 1 us deadline.
  AwgnChannel awgn(0.8F, 11);
  std::vector<float> noisy =
      awgn.transmit(std::vector<float>(large.n(), 1.0F));
  for (float& v : noisy) v *= 2.0F / 0.8F;  // BPSK LLR = 2y / sigma^2
  ASSERT_TRUE(client.send_raw(
      encode_decode_request(make_request(6, 0, large_ref, noisy))));
  ASSERT_TRUE(client.send_raw(encode_decode_request(make_request(
      7, 0, large_ref, zero_codeword_llrs(large.n()), /*deadline_us=*/1))));
  std::map<std::uint64_t, std::uint8_t> statuses;
  for (int seen = 0; seen < 2; ++seen) {
    const auto frame = client.read_frame(5000ms);
    ASSERT_TRUE(frame.has_value()) << "request starved after " << seen;
    ASSERT_EQ(frame->type, FrameType::kDecodeResponse);
    DecodeResponse response;
    ASSERT_EQ(parse_decode_response(frame->body, &response),
              WireErrorCode::kNone);
    statuses[response.request_id] = response.status;
  }
  ASSERT_EQ(statuses.size(), 2U);
  EXPECT_NE(statuses[6],
            static_cast<std::uint8_t>(DecodeStatus::kDeadlineExpired));
  EXPECT_EQ(statuses[7],
            static_cast<std::uint8_t>(DecodeStatus::kDeadlineExpired));
  decoded_n += large.n();
  decoded_k += large.k();

  // Each reply is posted by its frame's on_booked hook, after the engine
  // booked the frame: read the stats until they count all seven.
  EngineMetrics engine;
  for (int i = 0; i < 500; ++i) {
    engine = service.stats().engine;
    if (engine.jobs_completed == 7) break;
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(engine.jobs_completed, 7U);
  EXPECT_EQ(engine.decoded_bits, decoded_n);
  EXPECT_EQ(engine.decoded_info_bits, decoded_k);
  service.shutdown_after(2s);
}

// ---------------------------------------------------------------------------
// Micro-batching: admitted requests decode as engine block jobs.

/// BPSK LLRs of the all-zero codeword through AWGN of `variance`.
std::vector<float> noisy_llrs(std::size_t n, float variance,
                              std::uint64_t seed) {
  AwgnChannel awgn(variance, seed);
  std::vector<float> llr = awgn.transmit(std::vector<float>(n, 1.0F));
  for (float& v : llr) v *= 2.0F / variance;  // BPSK LLR = 2y / sigma^2
  return llr;
}

/// Reads `count` frames (fewer on EOF or timeout), failing on anything but
/// a decode response; returns every answer per request id, so callers can
/// check exactly-once resolution.
std::map<std::uint64_t, std::vector<DecodeResponse>> read_responses(
    BlockingClient& client, std::size_t count) {
  std::map<std::uint64_t, std::vector<DecodeResponse>> answers;
  for (std::size_t seen = 0; seen < count; ++seen) {
    const auto frame = client.read_frame(10000ms);
    if (!frame) break;
    DecodeResponse response;
    if (frame->type != FrameType::kDecodeResponse ||
        parse_decode_response(frame->body, &response) !=
            WireErrorCode::kNone) {
      ADD_FAILURE() << "not a decode response";
      continue;
    }
    answers[response.request_id].push_back(response);
  }
  return answers;
}

/// One burst of requests, request i + 1 carrying codec `codecs[i % size]`
/// and tenant i % 4: each response must match the scalar
/// layered-minsum-fixed decode of its LLRs in status, iterations and hard
/// bits, and arrive exactly once.
void expect_burst_matches_scalar(DecodeService& service,
                                 const std::vector<CodecRef>& codecs,
                                 std::size_t count) {
  BlockingClient client;
  client.connect("127.0.0.1", service.port());
  CodecCache cache;
  std::vector<std::uint8_t> burst;
  std::vector<DecodeResult> refs;
  for (std::size_t i = 0; i < count; ++i) {
    WireErrorCode error = WireErrorCode::kNone;
    const auto entry = cache.resolve(codecs[i % codecs.size()], &error);
    ASSERT_NE(entry, nullptr);
    std::vector<float> llr = noisy_llrs(entry->code().n(), 0.8F, 100 + i);
    refs.push_back(make_decoder("layered-minsum-fixed", entry->code(),
                                DecoderOptions{})
                       ->decode(llr));
    const auto bytes = encode_decode_request(
        make_request(i + 1, static_cast<std::uint32_t>(i % 4),
                     codecs[i % codecs.size()], std::move(llr)));
    burst.insert(burst.end(), bytes.begin(), bytes.end());
  }
  ASSERT_TRUE(client.send_raw(burst));
  const auto answers = read_responses(client, count);
  ASSERT_EQ(answers.size(), count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto it = answers.find(i + 1);
    ASSERT_NE(it, answers.end()) << "request " << i + 1 << " unanswered";
    ASSERT_EQ(it->second.size(), 1U) << "request " << i + 1;
    const DecodeResponse& r = it->second.front();
    EXPECT_EQ(r.status, static_cast<std::uint8_t>(refs[i].status)) << i;
    EXPECT_EQ(r.iterations, refs[i].iterations) << i;
    EXPECT_TRUE(unpack_bits(r.packed_bits, r.bit_count) == refs[i].hard_bits)
        << i;
  }
}

TEST(ServiceTest, BurstDecodesInBlocksBitIdenticalToScalar) {
  // More than two full blocks of one codec from four tenants in one burst.
  ServiceConfig config = base_config();
  config.default_tenant.max_in_flight = 1024;  // nothing parks
  DecodeService service(config);
  service.start();
  const std::size_t count = 2 * decoder_block_width(config.decoder_name) + 3;
  expect_burst_matches_scalar(service, {CodecRef{kWimaxStd, 0, 24}}, count);

  // The completion hook runs after the engine booked the block, so every
  // answered frame is already counted — as a frame, not as a block.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.engine.jobs_completed, count);
  EXPECT_EQ(stats.jobs_admitted, count);
  EXPECT_GE(stats.blocks_submitted, 3U);
  EXPECT_LT(stats.blocks_submitted, count);  // requests shared blocks
  for (const EngineWorkerStats& w : stats.engine.workers) {
    EXPECT_EQ(w.simd_fallbacks, 0U);
    EXPECT_EQ(w.exceptions, 0U);
  }
  service.shutdown_after(2s);
}

TEST(ServiceTest, InterleavedCodecsNeverShareABlock) {
  // Alternating codecs of different n: a block decodes on one codec's
  // decoder, so a mixed block would fail decode_block's LLR-count check —
  // an exception on the worker and kWatchdogAbort answers.
  ServiceConfig config = base_config(/*workers=*/1);
  config.default_tenant.max_in_flight = 1024;
  DecodeService service(config);
  service.start();
  expect_burst_matches_scalar(
      service, {CodecRef{kWimaxStd, 0, 24}, kTinyCodec, CodecRef{kWimaxStd, 0, 28}},
      60);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.engine.jobs_completed, 60U);
  EXPECT_GE(stats.blocks_submitted, 3U);
  for (const EngineWorkerStats& w : stats.engine.workers)
    EXPECT_EQ(w.exceptions, 0U);
  service.shutdown_after(2s);
}

TEST(ServiceTest, ShutdownAnswersAFormingBlockExactlyOnce) {
  // One worker held by a slow decode (an observer sleeping per iteration),
  // three requests forming a block behind it, then a drain whose deadline
  // passes first: the forming block still reaches the engine, and every
  // accepted request is answered exactly once.
  ServiceConfig config = base_config(/*workers=*/1);
  config.decoder_options_hook = [](DecoderOptions& options) {
    options.observer = [](const IterationSnapshot&) {
      std::this_thread::sleep_for(20ms);
    };
  };
  DecodeService service(config);
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());
  const CodecRef ref{kWimaxStd, 0, 24};
  constexpr std::size_t kN = 576;

  // Random signs are no codeword: the full iteration budget, ~200 ms.
  Xoshiro256 rng(3);
  std::vector<float> noise(kN);
  for (float& v : noise) v = rng.coin() ? 1.0F : -1.0F;
  ASSERT_TRUE(client.send_raw(
      encode_decode_request(make_request(1, 0, ref, noise))));
  for (int i = 0; i < 500 && service.stats().blocks_submitted < 1; ++i)
    std::this_thread::sleep_for(2ms);
  ASSERT_EQ(service.stats().blocks_submitted, 1U);
  for (std::uint64_t id = 2; id <= 4; ++id)
    ASSERT_TRUE(client.send_raw(encode_decode_request(make_request(
        id, static_cast<std::uint32_t>(id), ref, zero_codeword_llrs(kN)))));
  for (int i = 0; i < 500 && service.stats().requests_received < 4; ++i)
    std::this_thread::sleep_for(2ms);
  ServiceStats stats = service.stats();
  ASSERT_EQ(stats.requests_received, 4U);
  ASSERT_EQ(stats.blocks_submitted, 1U) << "requests 2-4 should be forming";

  const ShutdownReport report = service.shutdown_after(50ms);
  const auto answers = read_responses(client, 5);  // the 5th read sees EOF
  EXPECT_EQ(answers.size(), 4U);
  for (const auto& [id, responses] : answers)
    EXPECT_EQ(responses.size(), 1U) << "request " << id;
  EXPECT_EQ(report.stragglers, 0U);
  stats = service.stats();
  EXPECT_EQ(stats.responses_sent, 4U);
  EXPECT_EQ(stats.blocks_submitted, 2U);
  EXPECT_EQ(stats.engine.jobs_completed, 4U);
}

TEST(ServiceTest, FullBlocksOfOneCodecDoNotStarveAnother) {
  // One worker, slowed to 1 ms per iteration by an observer, and a closed
  // loop holding four blocks of codec A in flight: every block of A leaves
  // the loop full and the worker is never idle at the end of a tick. One
  // request on codec B, from a tenant within its default quota, forms a
  // block that can never fill; it must still be decoded and answered inside
  // its deadline.
  ServiceConfig config = base_config(/*workers=*/1);
  constexpr std::uint32_t kLoadTenant = 1;
  TenantConfig load;
  load.max_in_flight = 1024;
  config.tenants[kLoadTenant] = load;
  config.decoder_options_hook = [](DecoderOptions& options) {
    options.observer = [](const IterationSnapshot&) {
      std::this_thread::sleep_for(1ms);
    };
  };
  DecodeService service(config);
  service.start();
  const std::size_t width = decoder_block_width(config.decoder_name);
  const CodecRef a{kWimaxStd, 0, 24};

  // Random signs are no codeword: every frame of A runs the full budget.
  Xoshiro256 rng(5);
  std::vector<float> noise(576);
  for (float& v : noise) v = rng.coin() ? 1.0F : -1.0F;
  std::atomic<bool> stop{false};
  std::thread loader([&] {
    BlockingClient client;
    client.connect("127.0.0.1", service.port());
    std::uint64_t next_id = 1;
    const auto send_one = [&] {
      return client.send_raw(encode_decode_request(
          make_request(next_id++, kLoadTenant, a, noise)));
    };
    for (std::size_t i = 0; i < 4 * width; ++i)
      if (!send_one()) return;
    while (!stop.load()) {
      const auto frame = client.read_frame(100ms);
      if (frame && frame->type == FrameType::kDecodeResponse && !send_one())
        return;
    }
  });
  for (int i = 0; i < 2500 && service.stats().blocks_submitted < 4; ++i)
    std::this_thread::sleep_for(2ms);
  EXPECT_EQ(service.stats().blocks_submitted, 4U) << "load not in flight";

  BlockingClient client;
  client.connect("127.0.0.1", service.port());
  const auto outcome = client.decode(
      make_request(1, /*tenant=*/2, kTinyCodec, zero_codeword_llrs(32),
                   /*deadline_us=*/5'000'000),
      5000ms);
  stop.store(true);
  loader.join();
  ASSERT_TRUE(outcome.has_value()) << "request on codec B starved";
  ASSERT_FALSE(outcome->is_error) << to_string(outcome->error.code);
  EXPECT_EQ(outcome->response.status,
            static_cast<std::uint8_t>(DecodeStatus::kConverged));
  service.shutdown_after(3s);
}

TEST(ServiceTest, BackstopCountsFramesNotBlocks) {
  // engine.queue_capacity caps the frames out to the engine, however they
  // are grouped into blocks. One frame holds the worker (an observer sleeps
  // from its second iteration on; the zero codewords below converge in
  // one), and two full blocks arrive behind it: exactly queue_capacity
  // frames are admitted, and the newest of the rest are refused
  // kOverloaded, each request answered once.
  ServiceConfig config = base_config(/*workers=*/1);
  const std::size_t width = decoder_block_width(config.decoder_name);
  const std::size_t capacity = width + width / 2;
  config.engine.queue_capacity = capacity;
  config.default_tenant.max_in_flight = 1024;
  config.decoder_options_hook = [](DecoderOptions& options) {
    options.observer = [](const IterationSnapshot& snapshot) {
      if (snapshot.iteration >= 2) std::this_thread::sleep_for(50ms);
    };
  };
  DecodeService service(config);
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());
  const CodecRef ref{kWimaxStd, 0, 24};
  constexpr std::size_t kN = 576;

  Xoshiro256 rng(3);
  std::vector<float> noise(kN);
  for (float& v : noise) v = rng.coin() ? 1.0F : -1.0F;
  ASSERT_TRUE(client.send_raw(
      encode_decode_request(make_request(1, 0, ref, noise))));
  for (int i = 0; i < 500 && service.stats().blocks_submitted < 1; ++i)
    std::this_thread::sleep_for(2ms);
  ASSERT_EQ(service.stats().blocks_submitted, 1U);

  const std::size_t total = 1 + 2 * width;
  std::vector<std::uint8_t> burst;
  for (std::uint64_t id = 2; id <= total; ++id) {
    const auto bytes = encode_decode_request(
        make_request(id, 0, ref, zero_codeword_llrs(kN)));
    burst.insert(burst.end(), bytes.begin(), bytes.end());
  }
  ASSERT_TRUE(client.send_raw(burst));

  std::map<std::uint64_t, int> answers;
  std::size_t decoded = 0, overloaded = 0;
  for (std::size_t seen = 0; seen < total; ++seen) {
    const auto frame = client.read_frame(10000ms);
    ASSERT_TRUE(frame.has_value()) << "only " << seen << " answers";
    if (frame->type == FrameType::kDecodeResponse) {
      DecodeResponse response;
      ASSERT_EQ(parse_decode_response(frame->body, &response),
                WireErrorCode::kNone);
      ++answers[response.request_id];
      ++decoded;
    } else {
      ErrorResponse error;
      ASSERT_EQ(frame->type, FrameType::kError);
      ASSERT_EQ(parse_error_response(frame->body, &error),
                WireErrorCode::kNone);
      EXPECT_EQ(error.code, WireErrorCode::kOverloaded);
      EXPECT_GT(error.request_id, 1 + width) << "an older request refused";
      ++answers[error.request_id];
      ++overloaded;
    }
  }
  EXPECT_EQ(answers.size(), total);
  for (const auto& [id, count] : answers)
    EXPECT_EQ(count, 1) << "request " << id;
  EXPECT_EQ(decoded, capacity);
  EXPECT_EQ(overloaded, total - capacity);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_admitted, capacity);
  EXPECT_EQ(stats.jobs_engine_rejected, total - capacity);
  service.shutdown_after(2s);
}

TEST(ServiceTest, AnswersEachRequestWhenItsFrameIsBooked) {
  // One worker, a 200-iteration budget and one block: its first request is
  // pure noise, which runs the whole budget, the rest converge in a few
  // iterations. A request is answered when its frame is booked, so every
  // converging response is read before the noise one, and every response
  // matches the scalar decoder.
  ServiceConfig config = base_config(/*workers=*/1);
  config.decoder_options.max_iterations = 200;
  config.default_tenant.max_in_flight = 1024;
  DecodeService service(config);
  service.start();
  const std::size_t width = decoder_block_width(config.decoder_name);
  CodecCache cache;
  WireErrorCode error = WireErrorCode::kNone;
  const auto entry = cache.resolve(kTinyCodec, &error);
  ASSERT_NE(entry, nullptr);
  const QCLdpcCode& code = entry->code();
  const auto scalar =
      make_decoder("layered-minsum-fixed", code, config.decoder_options);

  // Random signs that never settle on a codeword, then frames that do.
  std::vector<std::vector<float>> llrs;
  for (std::uint64_t seed = 1; llrs.empty() && seed < 1000; ++seed) {
    Xoshiro256 rng(seed);
    std::vector<float> noise(code.n());
    for (float& v : noise) v = rng.coin() ? 1.0F : -1.0F;
    if (!scalar->decode(noise).converged) llrs.push_back(std::move(noise));
  }
  ASSERT_EQ(llrs.size(), 1U) << "no non-converging noise frame";
  for (std::uint64_t seed = 1; llrs.size() < width && seed < 10000; ++seed) {
    std::vector<float> llr = noisy_llrs(code.n(), 0.5F, seed);
    const DecodeResult r = scalar->decode(llr);
    if (r.converged && r.iterations < 10) llrs.push_back(std::move(llr));
  }
  ASSERT_EQ(llrs.size(), width);
  std::vector<DecodeResult> refs;
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < width; ++i) {
    refs.push_back(scalar->decode(llrs[i]));
    const auto bytes =
        encode_decode_request(make_request(i + 1, 0, kTinyCodec, llrs[i]));
    burst.insert(burst.end(), bytes.begin(), bytes.end());
  }
  ASSERT_EQ(refs[0].iterations, 200U);

  BlockingClient client;
  client.connect("127.0.0.1", service.port());
  ASSERT_TRUE(client.send_raw(burst));
  std::vector<std::uint64_t> order;
  std::map<std::uint64_t, int> answers;
  for (std::size_t seen = 0; seen < width; ++seen) {
    const auto frame = client.read_frame(10000ms);
    ASSERT_TRUE(frame.has_value()) << "only " << seen << " answers";
    ASSERT_EQ(frame->type, FrameType::kDecodeResponse);
    DecodeResponse r;
    ASSERT_EQ(parse_decode_response(frame->body, &r), WireErrorCode::kNone);
    ASSERT_GE(r.request_id, 1U);
    ASSERT_LE(r.request_id, width);
    const DecodeResult& ref = refs[r.request_id - 1];
    EXPECT_EQ(r.status, static_cast<std::uint8_t>(ref.status));
    EXPECT_EQ(r.iterations, ref.iterations);
    EXPECT_TRUE(unpack_bits(r.packed_bits, r.bit_count) == ref.hard_bits);
    order.push_back(r.request_id);
    ++answers[r.request_id];
  }
  EXPECT_EQ(answers.size(), width);
  for (const auto& [id, count] : answers) EXPECT_EQ(count, 1) << id;
  EXPECT_EQ(order.back(), 1U) << "converging requests waited for the noise";
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.responses_sent, width);
  EXPECT_EQ(stats.jobs_completed, width);
  EXPECT_GE(stats.blocks_submitted, 1U);
  service.shutdown_after(2s);
}

TEST(ServiceTest, TypedErrorsKeepTheConnectionUsable) {
  DecodeService service(base_config());
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  // Unknown codec.
  auto outcome = client.decode(
      make_request(1, 0, CodecRef{9, 9, 999}, zero_codeword_llrs(8)), 2000ms);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->is_error);
  EXPECT_EQ(outcome->error.code, WireErrorCode::kUnknownCodec);

  // Right codec, wrong LLR count.
  outcome = client.decode(
      make_request(2, 0, kTinyCodec, zero_codeword_llrs(31)), 2000ms);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->is_error);
  EXPECT_EQ(outcome->error.code, WireErrorCode::kLlrCountMismatch);

  // A well-framed frame whose type the server does not accept.
  DecodeResponse bogus;
  bogus.request_id = 3;
  ASSERT_TRUE(client.send_raw(encode_decode_response(bogus)));
  auto frame = client.read_frame(2000ms);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kError);
  ErrorResponse error;
  ASSERT_EQ(parse_error_response(frame->body, &error), WireErrorCode::kNone);
  EXPECT_EQ(error.code, WireErrorCode::kBadType);

  // A truncated body inside a valid frame.
  std::vector<std::uint8_t> truncated = {0, 0, 0, 0, 'L', 'D', 1,
                                         static_cast<std::uint8_t>(
                                             FrameType::kDecodeRequest),
                                         1, 2, 3};
  const std::uint32_t payload_len =
      static_cast<std::uint32_t>(truncated.size() - 4);
  std::memcpy(truncated.data(), &payload_len, sizeof(payload_len));
  ASSERT_TRUE(client.send_raw(truncated));
  frame = client.read_frame(2000ms);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kError);
  ASSERT_EQ(parse_error_response(frame->body, &error), WireErrorCode::kNone);
  EXPECT_EQ(error.code, WireErrorCode::kTruncatedBody);

  // After all that abuse the connection still decodes.
  outcome = client.decode(
      make_request(4, 0, kTinyCodec, zero_codeword_llrs(32)), 5000ms);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->is_error);

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.malformed_frames, 2U);
  EXPECT_EQ(stats.connections_fatal_framing, 0U);
  service.shutdown_after(2s);
}

TEST(ServiceTest, FatalFramingGetsOneGoodbyeThenClose) {
  DecodeService service(base_config());
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  // Valid length prefix, garbage magic: unrecoverable.
  std::vector<std::uint8_t> garbage = {16, 0, 0, 0, 'X', 'X', 1, 1,
                                       0,  0, 0, 0, 0,   0,  0, 0,
                                       0,  0, 0, 0};
  ASSERT_TRUE(client.send_raw(garbage));
  const auto frame = client.read_frame(2000ms);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kError);
  ErrorResponse error;
  ASSERT_EQ(parse_error_response(frame->body, &error), WireErrorCode::kNone);
  EXPECT_EQ(error.code, WireErrorCode::kBadMagic);
  // Then EOF — the server cannot resynchronize the stream.
  EXPECT_FALSE(client.read_frame(2000ms).has_value());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.connections_fatal_framing, 1U);
  service.shutdown_after(2s);
}

TEST(ServiceTest, MidRequestDisconnectsDoNotWedgeTheServer) {
  DecodeService service(base_config());
  service.start();

  {
    // Half a frame, then gone.
    BlockingClient client;
    client.connect("127.0.0.1", service.port());
    const auto bytes = encode_decode_request(
        make_request(1, 0, kTinyCodec, zero_codeword_llrs(32)));
    client.send_raw(std::span<const std::uint8_t>(bytes.data(),
                                                  bytes.size() / 2));
  }
  {
    // A full request, disconnect before the response.
    BlockingClient client;
    client.connect("127.0.0.1", service.port());
    client.send_raw(encode_decode_request(
        make_request(2, 0, kTinyCodec, zero_codeword_llrs(32))));
  }

  // The server keeps serving.
  BlockingClient client;
  client.connect("127.0.0.1", service.port());
  const auto outcome = client.decode(
      make_request(3, 0, kTinyCodec, zero_codeword_llrs(32)), 5000ms);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->is_error);

  const ShutdownReport report = service.shutdown_after(2s);
  EXPECT_TRUE(report.drained_clean);
  const ServiceStats stats = service.stats();
  // Every job the dead clients got in resolved anyway (exactly-once), the
  // responses just had nowhere to go.
  EXPECT_EQ(stats.jobs_completed + stats.jobs_deadline_expired >=
                stats.jobs_admitted,
            true);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(ServiceTest, RateLimitRefusesTyped) {
  ServiceConfig config = base_config();
  TenantConfig limited;
  limited.rate_per_sec = 0.001;  // effectively no refill during the test
  limited.burst = 2.0;
  config.tenants[5] = limited;
  DecodeService service(config);
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  for (std::uint64_t id = 1; id <= 2; ++id) {
    const auto outcome = client.decode(
        make_request(id, 5, kTinyCodec, zero_codeword_llrs(32)), 5000ms);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_FALSE(outcome->is_error) << "request " << id;
  }
  const auto refused = client.decode(
      make_request(3, 5, kTinyCodec, zero_codeword_llrs(32)), 5000ms);
  ASSERT_TRUE(refused.has_value());
  ASSERT_TRUE(refused->is_error);
  EXPECT_EQ(refused->error.code, WireErrorCode::kRateLimited);

  // Other tenants are untouched by tenant 5's bucket.
  const auto other = client.decode(
      make_request(4, 6, kTinyCodec, zero_codeword_llrs(32)), 5000ms);
  ASSERT_TRUE(other.has_value());
  EXPECT_FALSE(other->is_error);
  service.shutdown_after(2s);
}

TEST(ServiceTest, QuotaPoliciesRejectParkAndShed) {
  ServiceConfig config = base_config();
  TenantConfig reject;  // kRejectNewest with zero capacity: always refuse
  reject.max_in_flight = 0;
  reject.policy = OverloadPolicy::kRejectNewest;
  config.tenants[1] = reject;
  TenantConfig park;  // kBlock with zero capacity: park until deadline
  park.max_in_flight = 0;
  park.policy = OverloadPolicy::kBlock;
  config.tenants[2] = park;
  TenantConfig shed;  // kShedOldest, wait line of 1: newest evicts oldest
  shed.max_in_flight = 0;
  shed.max_parked = 1;
  shed.policy = OverloadPolicy::kShedOldest;
  config.tenants[3] = shed;
  DecodeService service(config);
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  // kRejectNewest: immediate typed refusal.
  auto outcome = client.decode(
      make_request(1, 1, kTinyCodec, zero_codeword_llrs(32)), 5000ms);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->is_error);
  EXPECT_EQ(outcome->error.code, WireErrorCode::kQuotaExceeded);

  // kBlock: parks, then resolves kDeadlineExpired when its deadline passes
  // (deadline propagation reaches parked work too).
  outcome = client.decode(
      make_request(2, 2, kTinyCodec, zero_codeword_llrs(32),
                   /*deadline_us=*/60000),
      5000ms);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_FALSE(outcome->is_error);
  EXPECT_EQ(outcome->response.status,
            static_cast<std::uint8_t>(DecodeStatus::kDeadlineExpired));

  // kShedOldest: the second request evicts the first (typed kShedOverload),
  // and only tenant 3's line is touched.
  ASSERT_TRUE(client.send_raw(encode_decode_request(
      make_request(3, 3, kTinyCodec, zero_codeword_llrs(32), 500000))));
  ASSERT_TRUE(client.send_raw(encode_decode_request(
      make_request(4, 3, kTinyCodec, zero_codeword_llrs(32), 500000))));
  const auto frame = client.read_frame(5000ms);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kError);
  ErrorResponse error;
  ASSERT_EQ(parse_error_response(frame->body, &error), WireErrorCode::kNone);
  EXPECT_EQ(error.request_id, 3U);
  EXPECT_EQ(error.code, WireErrorCode::kShedOverload);

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.jobs_shed, 1U);
  EXPECT_GE(stats.jobs_quota_rejected, 1U);
  service.shutdown_after(2s);
}

TEST(ServiceTest, DeadlineStormResolvesEveryRequestTyped) {
  DecodeService service(base_config());
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  // A storm of 1 us deadlines: each request must resolve with *either* a
  // typed refusal at the door (kDeadlineUnmeetable) or a kDeadlineExpired
  // response — whichever side of the admission instant it lands on.
  constexpr int kStorm = 50;
  for (std::uint64_t id = 1; id <= kStorm; ++id)
    ASSERT_TRUE(client.send_raw(encode_decode_request(
        make_request(id, 0, kTinyCodec, zero_codeword_llrs(32), 1))));
  std::map<std::uint64_t, int> resolutions;
  for (int seen = 0; seen < kStorm; ++seen) {
    const auto frame = client.read_frame(5000ms);
    ASSERT_TRUE(frame.has_value()) << "request starved after " << seen;
    if (frame->type == FrameType::kError) {
      ErrorResponse error;
      ASSERT_EQ(parse_error_response(frame->body, &error),
                WireErrorCode::kNone);
      // Refused at the door — or, when the storm outruns the tenant's wait
      // line, refused for quota. Both are typed; silence is the bug.
      EXPECT_TRUE(error.code == WireErrorCode::kDeadlineUnmeetable ||
                  error.code == WireErrorCode::kQuotaExceeded)
          << to_string(error.code);
      ++resolutions[error.request_id];
    } else {
      ASSERT_EQ(frame->type, FrameType::kDecodeResponse);
      DecodeResponse response;
      ASSERT_EQ(parse_decode_response(frame->body, &response),
                WireErrorCode::kNone);
      ++resolutions[response.request_id];
    }
  }
  EXPECT_EQ(resolutions.size(), static_cast<std::size_t>(kStorm));
  for (const auto& [id, count] : resolutions)
    EXPECT_EQ(count, 1) << "request " << id << " resolved " << count
                        << " times";
  service.shutdown_after(2s);
}

TEST(ServiceTest, SlowClientIsEvictedNotBuffered) {
  ServiceConfig config = base_config();
  config.max_write_buffer = 2048;  // tiny: evict fast
  config.send_buffer_bytes = 4096;
  DecodeService service(config);
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  // Pings are cheap to send and make the server produce pongs the client
  // never reads; once kernel buffers and the 2 KiB cap fill, eviction.
  const auto ping_bytes = encode_ping(1);
  for (int batch = 0; batch < 100; ++batch) {
    bool dead = false;
    for (int i = 0; i < 1000 && !dead; ++i)
      dead = !client.send_raw(ping_bytes);
    if (dead || service.stats().connections_evicted_slow > 0) break;
  }
  // Depending on kernel buffering the send side may keep succeeding for a
  // while; the authoritative signal is the server's counter.
  for (int i = 0; i < 100; ++i) {
    if (service.stats().connections_evicted_slow > 0) break;
    std::this_thread::sleep_for(50ms);
  }
  EXPECT_GE(service.stats().connections_evicted_slow, 1U);
  service.shutdown_after(2s);
}

// ---------------------------------------------------------------------------
// Drain semantics: the exactly-once satellite.

TEST(ServiceTest, DrainUnderLoadResolvesEveryAcceptedJobExactlyOnce) {
  ServiceConfig config = base_config(/*workers=*/3);
  DecodeService service(config);
  service.start();
  const std::uint16_t port = service.port();

  constexpr int kClients = 4;
  constexpr int kPerClient = 120;
  std::atomic<int> resolved_total{0};
  std::atomic<int> duplicate_resolutions{0};
  std::atomic<int> silent_requests{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      BlockingClient client;
      client.connect("127.0.0.1", port);
      // Pipeline everything, mixing deadline-carrying and open-ended work
      // across two tenants.
      for (int i = 0; i < kPerClient; ++i) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(c) * 1000 + 1 + i;
        const std::uint32_t deadline_us = (i % 3 == 0) ? 30000 : 0;
        client.send_raw(encode_decode_request(make_request(
            id, static_cast<std::uint32_t>(c % 2), kTinyCodec,
            zero_codeword_llrs(32), deadline_us)));
      }
      // Read until the server closes the drained connection.
      std::map<std::uint64_t, int> seen;
      for (;;) {
        const auto frame = client.read_frame(10000ms);
        if (!frame) break;  // EOF after drain (or timeout = test failure)
        std::uint64_t id = 0;
        if (frame->type == FrameType::kDecodeResponse) {
          DecodeResponse response;
          if (parse_decode_response(frame->body, &response) !=
              WireErrorCode::kNone)
            continue;
          id = response.request_id;
        } else if (frame->type == FrameType::kError) {
          ErrorResponse error;
          if (parse_error_response(frame->body, &error) !=
              WireErrorCode::kNone)
            continue;
          id = error.request_id;
        } else {
          continue;
        }
        if (++seen[id] > 1) duplicate_resolutions.fetch_add(1);
      }
      int resolved = 0;
      for (int i = 0; i < kPerClient; ++i) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(c) * 1000 + 1 + i;
        const auto it = seen.find(id);
        if (it == seen.end())
          silent_requests.fetch_add(1);
        else
          resolved += it->second;
      }
      resolved_total.fetch_add(resolved);
    });
  }

  // Wait for every request to reach the server (a request still in a kernel
  // buffer when the drain finishes was never *accepted*, so exactly-once
  // would not apply to it), then pull the plug with work in flight.
  for (int i = 0; i < 400; ++i) {
    if (service.stats().requests_received >=
        static_cast<std::size_t>(kClients * kPerClient))
      break;
    std::this_thread::sleep_for(25ms);
  }
  const ShutdownReport report = service.shutdown_after(5s);
  for (std::thread& t : clients) t.join();

  // The drain contract: nothing resolved twice, nothing starved. Requests
  // refused while draining still count — a typed kDraining error *is* a
  // resolution.
  EXPECT_EQ(duplicate_resolutions.load(), 0);
  EXPECT_EQ(silent_requests.load(), 0);
  EXPECT_EQ(resolved_total.load(), kClients * kPerClient);
  EXPECT_EQ(report.stragglers, 0U);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests_received,
            static_cast<std::size_t>(kClients * kPerClient));
  EXPECT_EQ(stats.responses_sent + stats.errors_sent,
            static_cast<std::size_t>(kClients * kPerClient));
}

TEST(ServiceTest, ShutdownIsIdempotentAndBounded) {
  DecodeService service(base_config());
  service.start();
  const auto t0 = std::chrono::steady_clock::now();
  const ShutdownReport first = service.shutdown_after(500ms);
  const ShutdownReport second = service.shutdown_after(500ms);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(first.drained_clean);
  EXPECT_EQ(first.drained_clean, second.drained_clean);
  // Bounded: no load, so shutdown must be far quicker than deadline+grace.
  EXPECT_LT(elapsed, 5s);
  // And the port is released: a new service can bind afresh.
  DecodeService again(base_config());
  again.start();
  EXPECT_GT(again.port(), 0);
  again.shutdown_after(500ms);
}

TEST(ServiceTest, RefusesNewWorkWhileDraining) {
  ServiceConfig config = base_config();
  TenantConfig park;  // parked forever: guarantees the drain deadline fires
  park.max_in_flight = 0;
  park.policy = OverloadPolicy::kBlock;
  config.tenants[9] = park;
  DecodeService service(config);
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  // Park a job with no deadline, then drain with a short deadline: the
  // flush must resolve it kDeadlineExpired rather than hang the shutdown.
  ASSERT_TRUE(client.send_raw(encode_decode_request(
      make_request(1, 9, kTinyCodec, zero_codeword_llrs(32)))));
  std::this_thread::sleep_for(100ms);  // let it park

  std::thread drainer([&] { service.shutdown_after(300ms); });
  const auto outcome = client.read_frame(5000ms);
  drainer.join();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_EQ(outcome->type, FrameType::kDecodeResponse);
  DecodeResponse response;
  ASSERT_EQ(parse_decode_response(outcome->body, &response),
            WireErrorCode::kNone);
  EXPECT_EQ(response.status,
            static_cast<std::uint8_t>(DecodeStatus::kDeadlineExpired));
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.jobs_flushed_at_drain, 1U);
}

// ---------------------------------------------------------------------------
// Codec cache.

TEST(CodecCacheTest, SingleFlightConstructionUnderHerd) {
  CodecCache cache;
  const CodecRef ref{kWimaxStd, 0, 96};  // the big one: worth coalescing
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<CodecEntry>> entries(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      WireErrorCode error = WireErrorCode::kNone;
      entries[static_cast<std::size_t>(t)] = cache.resolve(ref, &error);
    });
  for (std::thread& t : threads) t.join();
  for (const auto& entry : entries) {
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry.get(), entries[0].get()) << "not coalesced";
  }
  const CodecCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1U);  // exactly one build
  EXPECT_EQ(stats.hits + stats.coalesced_waits,
            static_cast<std::size_t>(kThreads - 1));

  // Unknown refs are typed refusals and do not poison anything.
  WireErrorCode error = WireErrorCode::kNone;
  EXPECT_EQ(cache.resolve({kWimaxStd, 0, 23}, &error), nullptr);
  EXPECT_EQ(error, WireErrorCode::kUnknownCodec);
  EXPECT_EQ(cache.resolve({kWimaxStd, 9, 24}, &error), nullptr);
  EXPECT_EQ(cache.resolve({3, 0, 1}, &error), nullptr);
}

TEST(CodecCacheTest, AllAdvertisedCodecsActuallyBuild) {
  CodecCache cache;
  for (const CodecRef& ref : CodecCache::all_known_codecs()) {
    WireErrorCode error = WireErrorCode::kNone;
    const auto entry = cache.resolve(ref, &error);
    ASSERT_NE(entry, nullptr) << to_string(ref);
    EXPECT_GT(entry->code().n(), 0U);
  }
}

}  // namespace
}  // namespace ldpc::service
