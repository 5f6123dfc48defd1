#include "harness.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "channel/awgn.hpp"
#include "channel/modem.hpp"
#include "codes/encoder.hpp"
#include "core/decoder_factory.hpp"
#include "core/simd/simd_kernel.hpp"
#include "service/codec_cache.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

using ldpc::service::CodecRef;

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return ldpc::percentile_sorted(values, q);
}

// ---- Tracer ---------------------------------------------------------------

namespace {
long current_tid() {
  thread_local const long tid = static_cast<long>(::syscall(SYS_gettid));
  return tid;
}
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::uint64_t Tracer::reserve() {
  if (!enabled_) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(std::uint64_t id, std::uint64_t parent, const char* name,
                    const char* layer, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) return;
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = name;
  span.layer = layer;
  span.thread = current_tid();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      start - epoch_).count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::uint64_t Tracer::record(const char* name, const char* layer,
                             Clock::time_point start, Clock::time_point end,
                             std::uint64_t parent) {
  if (!enabled_) return 0;
  const std::uint64_t id = reserve();
  record(id, parent, name, layer, start, end);
  return id;
}

std::vector<Tracer::LayerTime> Tracer::self_time_by_layer() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_)
    if (s.parent != 0) children[s.parent].push_back(&s);
  std::map<std::string, LayerTime> by_layer;
  for (const Span& s : spans_) {
    // Self time: the span minus the union of its children's intervals.
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    if (const auto it = children.find(s.id); it != children.end())
      for (const Span* c : it->second)
        cover.emplace_back(std::max(c->start_ns, s.start_ns),
                           std::min(c->end_ns, s.end_ns));
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    LayerTime& lt = by_layer[s.layer];
    lt.layer = s.layer;
    ++lt.spans;
    lt.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    lt.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  std::vector<LayerTime> out;
  for (auto& [layer, lt] : by_layer) out.push_back(lt);
  return out;
}

double Tracer::mean_us(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  std::size_t n = 0;
  for (const Span& s : spans_)
    if (name == s.name) {
      sum += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      ++n;
    }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double Tracer::total_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  double sum = 0.0;
  for (const Span& s : spans_)
    if (name == s.name) sum += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  return sum;
}

void Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  for (const Span& s : spans_)
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"name\": \"" << s.name << "\", \"layer\": \"" << s.layer
        << "\", \"thread\": " << s.thread << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}\n";
}

// ---- inputs ---------------------------------------------------------------

std::shared_ptr<const ldpc::QCLdpcCode> build_code(const CodecRef& ref) {
  ldpc::service::CodecCache cache;
  auto error = ldpc::service::WireErrorCode::kNone;
  const auto entry = cache.resolve(ref, &error);
  if (!entry)
    throw std::runtime_error("unknown codec " + ldpc::service::to_string(ref));
  // The entry owns the code; the returned pointer keeps the entry alive.
  return {entry, &entry->code()};
}

FramePool make_pool(const CodecRef& ref, std::size_t count, float ebn0_db,
                    std::uint64_t seed, const std::string& reference_decoder) {
  FramePool pool;
  pool.codec.ref = ref;
  pool.codec.code = build_code(ref);
  const ldpc::QCLdpcCode& code = *pool.codec.code;
  const ldpc::RuEncoder encoder(code);
  const float variance = ldpc::awgn_noise_variance(ebn0_db, code.rate());

  pool.frames.resize(count);
  for (std::size_t f = 0; f < count; ++f) {
    std::uint64_t mix = seed ^ (0x5851f42d4c957f2dULL * (f + 1));
    ldpc::Xoshiro256 rng(ldpc::splitmix64(mix));
    ldpc::BitVec info(code.k());
    for (std::size_t i = 0; i < info.size(); ++i) info.set(i, rng.coin());
    ldpc::AwgnChannel channel(variance, rng());
    pool.frames[f].llr = ldpc::BpskModem::demodulate(
        channel.transmit(ldpc::BpskModem::modulate(encoder.encode(info))),
        variance);
  }

  // Reference decodes: benchmark work, on two threads before any timing.
  const auto decode_share = [&](std::size_t first) {
    const auto decoder =
        ldpc::make_decoder(reference_decoder, code, ldpc::DecoderOptions{});
    for (std::size_t f = first; f < count; f += 2)
      pool.frames[f].reference = decoder->decode(pool.frames[f].llr);
  };
  auto helper = std::async(std::launch::async, decode_share, 1);
  decode_share(0);
  helper.get();
  return pool;
}

bool matches_reference(const ldpc::DecodeResult& reference,
                       ldpc::DecodeStatus status, std::size_t iterations,
                       const ldpc::BitVec& hard_bits) {
  return status == reference.status && iterations == reference.iterations &&
         hard_bits == reference.hard_bits;
}

PoolCost pool_cost(const FramePool& pool, double message_bytes) {
  PoolCost cost;
  if (pool.frames.empty()) return cost;
  double iters = 0.0, converged = 0.0;
  for (const Frame& frame : pool.frames) {
    iters += static_cast<double>(frame.reference.iterations);
    if (frame.reference.status == ldpc::DecodeStatus::kConverged)
      converged += 1.0;
  }
  const auto n = static_cast<double>(pool.frames.size());
  cost.iters_per_frame = iters / n;
  cost.converged_share = converged / n;
  cost.edge_updates_per_frame =
      static_cast<double>(pool.codec.code->num_edges()) * cost.iters_per_frame;
  cost.msg_bytes_per_frame = cost.edge_updates_per_frame * 4.0 * message_bytes;
  return cost;
}

double direct_decode_us_per_frame(const FramePool& pool,
                                  const std::string& decoder_name,
                                  std::size_t block, double min_seconds,
                                  Tracer& tracer, std::size_t* mismatches) {
  const auto decoder = ldpc::make_decoder(decoder_name, *pool.codec.code,
                                          ldpc::DecoderOptions{});
  const std::size_t pool_size = pool.frames.size();
  std::size_t next = 0;
  std::size_t frames_done = 0;
  double busy = 0.0;
  std::vector<ldpc::BlockFrame> frames(block);
  std::vector<ldpc::DecodeResult> results(block);
  std::vector<ldpc::SaturationStats> saturation(block);
  std::vector<std::size_t> picked(block);
  while (busy < min_seconds || frames_done < pool_size) {
    if (block == 1) {
      const Frame& frame = pool.frames[next++ % pool_size];
      const auto t0 = Clock::now();
      const ldpc::DecodeResult r = decoder->decode(frame.llr);
      const auto t1 = Clock::now();
      tracer.record("decode", "core", t0, t1);
      busy += seconds_between(t0, t1);
      if (!matches_reference(frame.reference, r.status, r.iterations,
                             r.hard_bits))
        ++*mismatches;
      ++frames_done;
      continue;
    }
    for (std::size_t i = 0; i < block; ++i) {
      picked[i] = next++ % pool_size;
      frames[i].llr = pool.frames[picked[i]].llr;
      frames[i].cancel = nullptr;
    }
    const auto t0 = Clock::now();
    decoder->decode_block(frames, results, saturation);
    const auto t1 = Clock::now();
    tracer.record("decode_block", "core", t0, t1);
    busy += seconds_between(t0, t1);
    for (std::size_t i = 0; i < block; ++i) {
      const ldpc::DecodeResult& r = results[i];
      if (!matches_reference(pool.frames[picked[i]].reference, r.status,
                             r.iterations, r.hard_bits) ||
          r.simd_fallback != ldpc::SimdFallback::kNone)
        ++*mismatches;
    }
    frames_done += block;
  }
  return busy * 1e6 / static_cast<double>(frames_done);
}

// ---- process and thread probes ------------------------------------------

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

std::vector<long> thread_ids() {
  std::vector<long> tids;
  if (DIR* dir = ::opendir("/proc/self/task")) {
    while (const dirent* entry = ::readdir(dir))
      if (entry->d_name[0] != '.') tids.push_back(std::atol(entry->d_name));
    ::closedir(dir);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

double thread_cpu_seconds(long tid) {
  const std::string base = "/proc/self/task/" + std::to_string(tid);
  {
    std::ifstream schedstat(base + "/schedstat");
    unsigned long long run_ns = 0;
    if (schedstat >> run_ns) return static_cast<double>(run_ns) / 1e9;
  }
  // Fallback: utime + stime in clock ticks (fields 14 and 15 of stat; the
  // command name in field 2 may contain spaces, so parse after its ')').
  std::ifstream stat(base + "/stat");
  std::string text((std::istreambuf_iterator<char>(stat)),
                   std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;
  unsigned long long utime = 0, stime = 0;
  fields >> utime >> stime;
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double thread_cpu_seconds(const std::vector<long>& tids) {
  double total = 0.0;
  for (const long tid : tids) total += thread_cpu_seconds(tid);
  return total;
}

double this_thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

HostTicks host_ticks() {
  HostTicks t;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // the aggregate "cpu" line comes first
  // user nice system idle iowait irq softirq steal (guest time is inside user)
  for (int i = 0; i < 8; ++i) {
    unsigned long long v = 0;
    if (!(stat >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const HostTicks& before, const HostTicks& after) {
  const auto total = static_cast<double>(after.total - before.total);
  return total > 0.0 ? static_cast<double>(after.steal - before.steal) / total
                     : 0.0;
}

std::size_t simd_fallbacks(const ldpc::EngineMetrics& metrics) {
  std::size_t total = 0;
  for (const auto& w : metrics.workers) total += w.simd_fallbacks;
  return total;
}

// ---- reporting ------------------------------------------------------------

double Measurement::value(const std::string& name) const {
  for (const auto* list : {&end_to_end, &per_layer})
    for (const Metric& m : *list)
      if (m.name == name) return m.value;
  return 0.0;
}

namespace {
std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0)
    return static_cast<std::size_t>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}
}  // namespace

std::string fingerprint_json(const Options& options) {
  const char* tier_env = std::getenv("LDPC_SIMD_TIER");
  std::ostringstream os;
  os << "{\"nproc\": " << usable_cpus() << ", \"cpu\": \""
     << json_escape(cpu_model()) << "\", \"simd_tier\": \""
     << ldpc::simd::to_string(ldpc::simd::best_tier())
     << "\", \"LDPC_SIMD_TIER\": \"" << json_escape(tier_env ? tier_env : "")
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"rev\": \""
     << json_escape(options.rev) << "\", \"workload\": \""
     << json_escape(options.workload) << "\", \"seed\": " << options.seed
     << ", \"seconds\": " << options.seconds
     << ", \"trace\": " << (options.trace ? 1 : 0) << "}";
  return os.str();
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(12);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

}  // namespace perfbench
