// The service workload: an in-process DecodeService with decode_server's
// defaults except for 2 engine workers (layered-minsum-fixed, 10
// iterations, early termination, the default tenant quota), reached over
// loopback with the service/wire.hpp codec. One generator thread drives two
// non-blocking connections with ppoll. Request frames are encoded once per
// pool frame before set-up; only the request and tenant ids are patched per
// send. Each response is parsed and unpacked as a client would and checked
// on arrival against the reference decode, so the generator keeps only its
// outstanding requests and a bounded latency reservoir per slice: its
// memory does not grow with throughput.
//
//   service-bulk  closed loop: 8 tenants x 16 outstanding = 128 requests,
//                 inside the default 16-per-tenant quota, no deadline
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "service/service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace svc = ldpc::service;

constexpr std::uint32_t kTenants = 8;
constexpr std::uint32_t kPerTenant = 16;  // the default tenant quota
constexpr auto kDrainTimeout = std::chrono::seconds(10);
/// Set-ups per run, half before the window and half after it (the closed
/// loop cannot pause inside the window the way the engine stream does
/// between rounds); setup_s reports their median.
constexpr int kSetups = 16;
/// Latency samples kept per one-second slice (reservoir beyond that).
constexpr std::size_t kSliceSamples = 4096;

/// Byte offsets of the request id and the tenant id inside an encoded
/// kDecodeRequest frame: u32 length, 4 header bytes, u64 id, u32 tenant.
constexpr std::size_t kRequestIdOffset = 8;
constexpr std::size_t kTenantOffset = 16;

void put_le(std::uint8_t* at, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i)
    at[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

/// One non-blocking loopback connection with its output buffer and the
/// hardened frame reader from service/wire.hpp.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      throw std::runtime_error("connect() to the service failed");
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  bool pending_output() const { return out_off_ < out_.size(); }

  /// Queue a pre-encoded request with its ids replaced.
  void queue_request(const std::vector<std::uint8_t>& encoded,
                     std::uint64_t request_id, std::uint32_t tenant) {
    const std::size_t at = out_.size();
    out_.insert(out_.end(), encoded.begin(), encoded.end());
    put_le(out_.data() + at + kRequestIdOffset, request_id, 8);
    put_le(out_.data() + at + kTenantOffset, tenant, 4);
  }

  /// Write what the socket takes. False when the connection broke.
  bool flush() {
    while (out_off_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + out_off_,
                               out_.size() - out_off_, MSG_NOSIGNAL);
      if (n > 0) {
        out_off_ += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        return false;
      }
    }
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
    }
    return true;
  }

  /// Move every readable byte into the frame reader. False on close/error.
  bool receive() {
    for (;;) {
      const ssize_t n = ::recv(fd_, buf_.data(), buf_.size(), 0);
      if (n > 0) {
        if (!reader.push({buf_.data(), static_cast<std::size_t>(n)}))
          return false;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        return false;
      }
    }
  }

  svc::FrameReader reader;

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> out_;
  std::size_t out_off_ = 0;
  std::vector<std::uint8_t> buf_ = std::vector<std::uint8_t>(64U << 10);
};

/// A request on the wire, waiting for its answer.
struct Pending {
  std::uint32_t frame = 0;
  std::uint32_t tenant = 0;
  std::uint32_t conn = 0;
  Clock::time_point sent{};  ///< send start: latency is timed from here
  std::uint64_t span = 0;
};

/// How a request was answered, checked against the pool's reference.
enum class Verdict { kGood, kNotConverged, kFailed, kMismatch };
struct Outcome {
  Clock::time_point done{};  ///< response bytes read
  std::size_t bytes = 0;     ///< response frame size on the wire
  Verdict verdict = Verdict::kFailed;
};

/// The generator's view of one service instance: its connections, the
/// requests in flight and the check of every answer.
class Generator {
 public:
  Generator(const FramePool& pool,
            const std::vector<std::vector<std::uint8_t>>& encoded,
            std::uint16_t port, Tracer& tracer)
      : pool_(pool), encoded_(encoded), tracer_(tracer) {
    for (int i = 0; i < 2; ++i)
      conns_.push_back(std::make_unique<Connection>(port));
  }

  /// Called once per answered request, after the check.
  std::function<void(const Pending&, const Outcome&)> on_resolved;

  std::size_t outstanding() const { return pending_.size(); }
  std::size_t broken() const { return broken_; }
  /// Time spent sending, reading and checking (waiting excluded).
  double busy_seconds() const { return busy_s_; }

  void send(std::uint32_t frame, std::uint32_t tenant, std::uint32_t conn) {
    const auto t0 = Clock::now();
    const std::uint64_t id = next_id_++;
    Pending& p = pending_[id];
    p.frame = frame;
    p.tenant = tenant;
    p.conn = conn;
    p.sent = t0;
    p.span = tracer_.reserve();
    Connection& c = *conns_[conn];
    c.queue_request(encoded_[frame], id, tenant);
    if (!c.flush()) ++broken_;
    busy_s_ += seconds_between(t0, Clock::now());
  }

  /// Wait until `wake_by` or until bytes arrive, then check every complete
  /// response.
  void pump(Clock::time_point wake_by) {
    pollfd fds[2];
    for (std::size_t i = 0; i < 2; ++i) {
      fds[i].fd = conns_[i]->fd();
      fds[i].events = static_cast<short>(
          POLLIN | (conns_[i]->pending_output() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    const auto wait = std::max(wake_by - Clock::now(), Clock::duration::zero());
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
    const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                      static_cast<long>(ns % 1'000'000'000)};
    if (::ppoll(fds, 2, &ts, nullptr) <= 0) return;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < 2; ++i) {
      if (fds[i].revents & POLLOUT)
        if (!conns_[i]->flush()) ++broken_;
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!conns_[i]->receive()) ++broken_;
        dispatch(*conns_[i], Clock::now());
      }
    }
    busy_s_ += seconds_between(t0, Clock::now());
  }

  /// Pump until nothing is outstanding; false on timeout or a broken
  /// connection.
  bool settle() {
    const auto give_up = Clock::now() + kDrainTimeout;
    while (!pending_.empty() && broken_ == 0 && Clock::now() < give_up)
      pump(Clock::now() + std::chrono::milliseconds(5));
    return pending_.empty();
  }

 private:
  /// Parses every complete response as a client would (FrameReader::next,
  /// parse_decode_response, unpack_bits: the wire.parse span) and checks it.
  void dispatch(Connection& conn, Clock::time_point arrived) {
    for (;;) {
      const auto t0 = Clock::now();
      svc::Frame frame;
      if (conn.reader.next(&frame) != svc::FrameReader::Status::kFrame) break;
      std::uint64_t id = 0;
      svc::DecodeResponse response;
      svc::ErrorResponse error;
      bool ok = false;
      if (frame.type == svc::FrameType::kDecodeResponse) {
        ok = svc::parse_decode_response(frame.body, &response) ==
             svc::WireErrorCode::kNone;
        id = response.request_id;
      } else if (frame.type == svc::FrameType::kError) {
        ok = svc::parse_error_response(frame.body, &error) ==
             svc::WireErrorCode::kNone;
        id = error.request_id;
      }
      const auto it = ok ? pending_.find(id) : pending_.end();
      if (it == pending_.end()) {
        ++broken_;  // the service never sends unsolicited or garbled frames
        continue;
      }
      const Pending p = it->second;
      pending_.erase(it);
      Outcome outcome;
      outcome.done = arrived;
      outcome.bytes = 4 + svc::kPayloadHeaderBytes + frame.body.size();
      if (frame.type == svc::FrameType::kDecodeResponse) {
        const ldpc::BitVec bits =
            svc::unpack_bits(response.packed_bits, response.bit_count);
        tracer_.record("wire.parse", "wire", t0, Clock::now(), p.span);
        outcome.verdict = judge(p, response, bits);
      }
      tracer_.record(p.span, 0, "request", "service", p.sent, Clock::now());
      if (on_resolved) on_resolved(p, outcome);
    }
  }

  /// Status, iterations and hard bits against the reference decode.
  Verdict judge(const Pending& p, const svc::DecodeResponse& r,
                const ldpc::BitVec& bits) const {
    const auto status = static_cast<ldpc::DecodeStatus>(r.status);
    if (status == ldpc::DecodeStatus::kDeadlineExpired ||
        status == ldpc::DecodeStatus::kShedOverload)
      return Verdict::kFailed;
    if (!matches_reference(pool_.frames[p.frame].reference, status,
                           r.iterations, bits))
      return Verdict::kMismatch;
    return status == ldpc::DecodeStatus::kConverged ? Verdict::kGood
                                                    : Verdict::kNotConverged;
  }

  const FramePool& pool_;
  const std::vector<std::vector<std::uint8_t>>& encoded_;
  Tracer& tracer_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;
  std::size_t broken_ = 0;
  double busy_s_ = 0.0;
};

/// Per-slice goodput and latency of the measured window. Latency samples
/// beyond kSliceSamples per slice enter a seeded reservoir.
class Tally {
 public:
  Tally(Clock::time_point start, double seconds, std::uint64_t seed)
      : start_(start),
        slices_(std::max<std::size_t>(
            1, static_cast<std::size_t>(std::floor(seconds)))),
        slice_s_(seconds / static_cast<double>(slices_)),
        bits_(slices_, 0.0),
        latency_(slices_),
        seen_(slices_, 0),
        rng_(seed) {
    for (auto& l : latency_) l.reserve(kSliceSamples);
  }

  void add_latency(Clock::time_point sent, double ms) {
    const long s = slice_of(sent);
    if (s < 0) return;
    auto& samples = latency_[static_cast<std::size_t>(s)];
    const std::size_t seen = ++seen_[static_cast<std::size_t>(s)];
    if (samples.size() < kSliceSamples) {
      samples.push_back(static_cast<float>(ms));
    } else if (const auto j = rng_.uniform_int(seen); j < kSliceSamples) {
      samples[j] = static_cast<float>(ms);
    }
  }
  void add_bits(Clock::time_point done, double bits) {
    if (const long s = slice_of(done); s >= 0)
      bits_[static_cast<std::size_t>(s)] += bits;
  }

  /// Median over slices of the slice goodput (Mbit/s).
  double goodput_mbps() const {
    std::vector<double> v;
    for (const double b : bits_) v.push_back(b / slice_s_ / 1e6);
    return median(v);
  }
  /// Median over slices of the slice's latency quantile q (ms).
  double latency_ms(double q) const {
    std::vector<double> v;
    for (const auto& l : latency_)
      v.push_back(quantile(std::vector<double>(l.begin(), l.end()), q));
    return median(v);
  }
  /// All kept samples, sorted (whole-window quantiles for the log).
  std::vector<double> all_latency() const {
    std::vector<double> v;
    for (const auto& l : latency_) v.insert(v.end(), l.begin(), l.end());
    std::sort(v.begin(), v.end());
    return v;
  }

 private:
  long slice_of(Clock::time_point t) const {
    const double s = seconds_between(start_, t) / slice_s_;
    return s < 0.0 || s >= static_cast<double>(slices_) ? -1
                                                        : static_cast<long>(s);
  }

  Clock::time_point start_;
  std::size_t slices_;
  double slice_s_;
  std::vector<double> bits_;
  std::vector<std::vector<float>> latency_;
  std::vector<std::size_t> seen_;
  ldpc::Xoshiro256 rng_;
};

/// Lazy set-up: the service builds the codec on its first request and each
/// worker builds its decoder on the first request it runs, so warm-up sends
/// bursts of kWarmPerWorker requests per worker until every worker's job
/// count moved. The warm frame is the pool's slowest, which runs the whole
/// iteration budget: set-up time then does not hinge on how hard one seeded
/// frame happens to be. Returns the requests sent.
std::size_t warm(svc::DecodeService& service, Generator& gen,
                 const FramePool& pool, Tracer& tracer,
                 std::uint64_t setup_span) {
  std::uint32_t frame = 0;
  for (std::uint32_t f = 0; f < pool.frames.size(); ++f)
    if (pool.frames[f].reference.iterations >
        pool.frames[frame].reference.iterations)
      frame = f;
  std::size_t sent = 0;
  for (int attempt = 0; attempt < 32; ++attempt) {
    const auto t0 = Clock::now();
    const auto before = service.stats().engine.workers;
    for (std::uint32_t i = 0; i < kWarmPerWorker * kWorkers; ++i)
      gen.send(frame, 1, i % 2);
    sent += kWarmPerWorker * kWorkers;
    if (!gen.settle()) throw std::runtime_error("warm-up request failed");
    const auto after = service.stats().engine.workers;
    tracer.record("warm", "service", t0, Clock::now(), setup_span);
    bool all = after.size() >= before.size();
    for (std::size_t w = 0; all && w < before.size(); ++w)
      all = after[w].jobs > before[w].jobs;
    if (all) break;
  }
  return sent;
}

}  // namespace

Measurement run_service_workload(const FramePool& pool, std::uint64_t seed,
                                 double seconds, Tracer& tracer) {
  Measurement m;
  const ldpc::QCLdpcCode& code = *pool.codec.code;

  // Code construction and the decoder build, timed by calling the same
  // public functions the codec cache and the workers call (traced runs).
  double codes_build_ms = 0.0, decoder_build_ms = 0.0;
  if (tracer.enabled()) {
    const auto t0 = Clock::now();
    const auto built = build_code(pool.codec.ref);
    const auto t1 = Clock::now();
    const auto decoder = ldpc::make_decoder(svc::ServiceConfig{}.decoder_name,
                                            *built, ldpc::DecoderOptions{});
    const auto t2 = Clock::now();
    tracer.record("codes.build", "codes", t0, t1);
    tracer.record("core.decoder_build", "core", t1, t2);
    codes_build_ms = ms_between(t0, t1);
    decoder_build_ms = ms_between(t1, t2);
  }

  // Every pool frame encoded once (the wire.encode spans); a send patches
  // in its request and tenant ids.
  std::vector<std::vector<std::uint8_t>> encoded;
  double req_bytes = 0.0;
  for (const Frame& f : pool.frames) {
    svc::DecodeRequest request;
    request.codec = pool.codec.ref;
    request.llr = f.llr;
    const auto t0 = Clock::now();
    encoded.push_back(svc::encode_decode_request(request));
    tracer.record("wire.encode", "wire", t0, Clock::now());
    req_bytes += static_cast<double>(encoded.back().size());
  }
  req_bytes /= static_cast<double>(encoded.size());

  svc::ServiceConfig config;             // decode_server's defaults ...
  config.engine.num_workers = kWorkers;  // ... sized to the thread budget

  std::unique_ptr<svc::DecodeService> service;
  std::unique_ptr<Generator> gen;
  std::vector<double> setup_s;
  std::vector<long> service_tids;  // threads the last set-up started
  const auto count = [&m](const Pending&, const Outcome& o) {
    if (o.verdict == Verdict::kMismatch) ++m.mismatches;
    if (o.verdict == Verdict::kMismatch || o.verdict == Verdict::kFailed)
      ++m.failed;
  };
  const auto tear_down = [&] {
    gen.reset();
    if (service) service->shutdown_after(std::chrono::seconds(2));
    service.reset();
  };
  const auto set_up = [&] {
    tear_down();
    const std::vector<long> before = thread_ids();
    const std::uint64_t span = tracer.reserve();
    const auto t0 = Clock::now();
    service = std::make_unique<svc::DecodeService>(config);
    service->start();
    const auto t1 = Clock::now();
    gen = std::make_unique<Generator>(pool, encoded, service->port(), tracer);
    gen->on_resolved = count;
    m.attempted += warm(*service, *gen, pool, tracer, span);
    const auto t2 = Clock::now();
    tracer.record("service.start", "service", t0, t1, span);
    tracer.record(span, 0, "setup", "service", t0, t2);
    setup_s.push_back(seconds_between(t0, t2));
    service_tids.clear();
    for (const long tid : thread_ids())
      if (!std::binary_search(before.begin(), before.end(), tid))
        service_tids.push_back(tid);
  };
  for (int k = 0; k < kSetups / 2; ++k) set_up();

  // The engine spawns its workers before the service starts its event loop,
  // and thread ids are handed out in creation order: the newest is the loop.
  // Only the per-layer CPU shares depend on this attribution.
  if (service_tids.size() != kWorkers + 1)
    std::printf("  warning: %zu new service threads, expected %u; CPU "
                "shares are unreliable\n", service_tids.size(), kWorkers + 1);
  const long loop_tid = service_tids.empty() ? 0 : service_tids.back();
  const std::vector<long> worker_tids(
      service_tids.begin(),
      service_tids.empty() ? service_tids.end() : service_tids.end() - 1);

  // ---- the measured window ------------------------------------------------
  const auto stats_before = service->stats();
  const double workers_cpu0 = thread_cpu_seconds(worker_tids);
  const double loop_cpu0 = loop_tid ? thread_cpu_seconds(loop_tid) : 0.0;
  const double gen_busy0 = gen->busy_seconds();
  const double parse_ms0 = tracer.total_ms("wire.parse");
  const HostTicks host0 = host_ticks();
  m.max_threads = thread_ids().size();

  const auto pool_size = static_cast<std::uint32_t>(pool.frames.size());
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  Tally tally(start, seconds, seed);
  double resp_bytes = 0.0;
  std::size_t responses = 0;
  std::uint32_t next_frame = 0;
  gen->on_resolved = [&](const Pending& p, const Outcome& o) {
    ++responses;
    resp_bytes += static_cast<double>(o.bytes);
    tally.add_latency(p.sent, ms_between(p.sent, o.done));
    count(p, o);
    if (o.verdict == Verdict::kGood)
      tally.add_bits(o.done, static_cast<double>(code.k()));
    // Closed loop: the tenant's next request goes out as this one returns.
    if (o.done < end) {
      gen->send(next_frame++ % pool_size, p.tenant, p.conn);
      ++m.attempted;
    }
  };

  std::this_thread::sleep_until(start);
  for (std::uint32_t t = 0; t < kTenants; ++t)
    for (std::uint32_t j = 0; j < kPerTenant; ++j) {
      gen->send(next_frame++ % pool_size, t + 1, t % 2);
      ++m.attempted;
    }
  for (;;) {
    const auto now = Clock::now();
    if (now >= end && gen->outstanding() == 0) break;
    if (now >= end + kDrainTimeout || gen->broken() != 0) break;
    const auto wake = now + std::chrono::milliseconds(5);
    gen->pump(now < end ? std::min(wake, end) : wake);
  }
  const auto finished = Clock::now();
  const double elapsed = seconds_between(start, finished);
  const double gen_busy = gen->busy_seconds() - gen_busy0;
  const double workers_cpu = thread_cpu_seconds(worker_tids) - workers_cpu0;
  const double loop_cpu =
      loop_tid ? thread_cpu_seconds(loop_tid) - loop_cpu0 : 0.0;
  const auto stats_after = service->stats();
  const double steal = steal_share(host0, host_ticks());
  // A request never answered is a failure and misses every latency limit.
  m.failed += gen->outstanding() + gen->broken();
  for (std::size_t i = 0; i < gen->outstanding(); ++i)
    tally.add_latency(start, 1e9);
  const double parse_ms = tracer.total_ms("wire.parse") - parse_ms0;
  const ldpc::EngineMetrics& engine = stats_after.engine;
  m.simd_fallbacks =
      simd_fallbacks(engine) - simd_fallbacks(stats_before.engine);
  m.failed += m.simd_fallbacks;

  // The other half of the set-ups, after the window: the median then
  // samples the host at both ends of the run.
  for (int k = kSetups / 2; k < kSetups; ++k) set_up();
  tear_down();
  std::printf("  set-up: %d set-ups, half before and half after the window, "
              "median %.3f ms\n", kSetups, median(setup_s) * 1e3);

  const std::vector<double> all = tally.all_latency();
  std::printf(
      "  window: %zu responses, whole-window p50 %.3f ms, p90 %.3f ms, p99 "
      "%.3f ms, p99.9 %.3f ms (%zu samples; p99 and p99.9 are not gated); "
      "host steal %.1f%%\n  run, warm-up included: %zu requests, %zu failed, "
      "%zu mismatches\n",
      responses, ldpc::percentile_sorted(all, 0.50),
      ldpc::percentile_sorted(all, 0.90), ldpc::percentile_sorted(all, 0.99),
      ldpc::percentile_sorted(all, 0.999), all.size(), steal * 100.0,
      m.attempted, m.failed, m.mismatches);

  m.end_to_end = {
      {"goodput_mbps", tally.goodput_mbps(), "Mbit/s"},
      {"p50_ms", tally.latency_ms(0.50), "ms"},
      {"p90_ms", tally.latency_ms(0.90), "ms"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };

  // ---- per-layer ------------------------------------------------------------
  double us_per_frame = 0.0;
  if (tracer.enabled())
    us_per_frame = direct_decode_us_per_frame(
        pool, svc::ServiceConfig{}.decoder_name, 1, 0.5, tracer,
        &m.mismatches);
  const PoolCost cost = pool_cost(pool, 4.0);  // int32 P and R memories
  const double job_p50_ms = engine.latency.p50_us / 1000.0;
  const auto requests = static_cast<double>(stats_after.requests_received -
                                            stats_before.requests_received);
  const double frame_rate = static_cast<double>(responses) / elapsed;
  const double predicted_rate =
      us_per_frame > 0.0 ? kWorkers * 1e6 / us_per_frame : 0.0;
  const auto delta = [&](std::size_t svc::ServiceStats::*field) {
    return static_cast<double>(stats_after.*field - stats_before.*field);
  };
  const double gen_share = gen_busy / elapsed;
  if (gen_share > 0.8)
    std::printf("  warning: the generator bounds this run (busy share "
                "%.2f)\n", gen_share);
  if (predicted_rate > 0.0)
    std::printf("  decode-bound check: %u workers / %.1f us = %.0f frames/s "
                "predicted, %.0f frames/s measured (%.2f)\n",
                kWorkers, us_per_frame, predicted_rate, frame_rate,
                frame_rate / predicted_rate);

  m.per_layer = {
      {"core.us_per_frame", us_per_frame, "us"},
      {"core.iters_per_frame", cost.iters_per_frame, "count"},
      {"core.converged_share", cost.converged_share, "ratio"},
      {"core.lane_util", 1.0, "ratio"},  // one frame per decode call
      {"core.edge_updates_per_frame", cost.edge_updates_per_frame, "count"},
      {"core.msg_bytes_per_frame", cost.msg_bytes_per_frame, "B"},
      {"core.simd_fallbacks", static_cast<double>(m.simd_fallbacks), "count"},
      {"core.decoder_build_ms", decoder_build_ms, "ms"},
      {"core.decode_bound_share",
       predicted_rate > 0.0 ? frame_rate / predicted_rate : 0.0, "ratio"},
      {"runtime.job_p50_ms", job_p50_ms, "ms"},
      {"runtime.job_p95_ms", engine.latency.p95_us / 1000.0, "ms"},
      {"runtime.handoff_ms", job_p50_ms - us_per_frame / 1000.0, "ms"},
      {"runtime.queue_mean_depth", engine.queue_mean_occupancy, "count"},
      {"runtime.queue_max_depth",
       static_cast<double>(engine.queue_max_occupancy), "count"},
      {"runtime.submit_wait_us", 0.0, "us"},
      {"runtime.worker_busy_share", workers_cpu / (kWorkers * elapsed),
       "ratio"},
      {"service.overhead_p50_ms", ldpc::percentile_sorted(all, 0.50) -
                                      job_p50_ms, "ms"},
      {"service.loop_cpu_us_per_req",
       requests > 0 ? loop_cpu * 1e6 / requests : 0.0, "us"},
      {"service.parked", delta(&svc::ServiceStats::jobs_parked), "count"},
      {"service.throttled", delta(&svc::ServiceStats::read_throttle_events),
       "count"},
      {"service.refused",
       delta(&svc::ServiceStats::jobs_rate_limited) +
           delta(&svc::ServiceStats::jobs_quota_rejected) +
           delta(&svc::ServiceStats::jobs_deadline_refused) +
           delta(&svc::ServiceStats::jobs_engine_rejected) +
           delta(&svc::ServiceStats::jobs_shed),
       "count"},
      {"service.expired", delta(&svc::ServiceStats::jobs_deadline_expired),
       "count"},
      {"service.codec_misses",
       static_cast<double>(stats_after.codec.misses -
                           stats_before.codec.misses),
       "count"},
      {"wire.req_bytes", req_bytes, "B"},
      {"wire.resp_bytes", responses ? resp_bytes / responses : 0.0, "B"},
      {"wire.encode_us", tracer.mean_us("wire.encode"), "us"},
      {"wire.parse_us",
       responses ? parse_ms * 1e3 / static_cast<double>(responses) : 0.0,
       "us"},
      {"codes.build_ms", codes_build_ms, "ms"},
      {"gen.cpu_share", gen_share, "ratio"},
  };
  return m;
}

}  // namespace perfbench
