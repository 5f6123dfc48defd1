// perfbench: the repository benchmark program (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--rev REV] [--spans-dir DIR]
//
// --trace 0 measures the workload for S seconds and prints the end-to-end
// metrics. --trace 1 measures it in four S/4 quarters, untraced, traced,
// traced, untraced, recording spans around every call the benchmark makes
// into a layer in the traced ones, and prints the per-layer metrics, self
// time per layer and the tracing overhead; the spans go to DIR. The last
// stdout line is always one JSON object {"correct", "attempted", "failed",
// "metrics"}. Exit status 0 means no operation failed: every output matched
// its reference decode, no decode left the SIMD lane kernel and no request
// was refused, shed, expired or left unanswered; 1 means one did; 2 is a
// usage error.
#include <sys/stat.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "service/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace svc = ldpc::service;

/// Inputs of one workload: the codec, the pool size and the channel.
struct WorkloadSpec {
  const char* name;
  svc::CodecRef codec;
  std::size_t pool_frames;
  float ebn0_db;
  const char* reference_decoder;
  const char* engine_decoder;  ///< nullptr: a service workload
};

/// WiMAX (2304, 1/2), z = 96.
constexpr svc::CodecRef kWimax2304{
    static_cast<std::uint8_t>(svc::CodeStandard::kWimax), 0, 96};

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> all = {
      {"service-bulk", kWimax2304, 509, 2.0F, "layered-minsum-fixed",
       nullptr},
      {"engine-fa4", kWimax2304, 331, 2.5F, "layered-minsum-fa4",
       "layered-minsum-simd-batched-fa4"},
  };
  return all;
}

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--rev REV] [--spans-dir DIR]\n  workloads:");
  for (const WorkloadSpec& s : specs()) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
}

bool parse(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      const long seconds = std::strtol(value, &end, 10);
      if (*end != '\0' || seconds < 1 || seconds > 3600) return false;
      options->seconds = static_cast<int>(seconds);
    } else if (arg == "--trace") {
      const std::string t = value;
      if (t != "0" && t != "1") return false;
      options->trace = t == "1";
    } else if (arg == "--rev") {
      options->rev = value;
    } else if (arg == "--spans-dir") {
      options->spans_dir = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

Measurement measure(const WorkloadSpec& spec, const FramePool& pool,
                    const Options& options, double seconds, Tracer& tracer) {
  if (spec.engine_decoder)
    return run_engine_workload(pool, spec.engine_decoder, seconds, tracer);
  return run_service_workload(pool, options.seed, seconds, tracer);
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

int run(const Options& options) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : specs())
    if (options.workload == s.name) spec = &s;
  if (!spec) {
    usage();
    return 2;
  }
  std::printf("perfbench fingerprint %s\n",
              fingerprint_json(options).c_str());

  // Inputs depend only on the seed and the workload.
  std::uint64_t pool_seed = options.seed * 0x9e3779b97f4a7c15ULL;
  for (const char* c = spec->name; *c; ++c)
    pool_seed = (pool_seed ^ static_cast<unsigned char>(*c)) * 0x100000001b3ULL;
  const auto p0 = Clock::now();
  const FramePool pool = make_pool(spec->codec, spec->pool_frames,
                                   spec->ebn0_db, pool_seed,
                                   spec->reference_decoder);
  const PoolCost cost = pool_cost(pool, 1.0);
  std::printf("  inputs: %zu frames of %s, Eb/N0 %.1f dB, reference %s: "
              "%.3f iterations/frame, %.4f converged (%.2f s)\n",
              pool.frames.size(), svc::to_string(spec->codec).c_str(),
              static_cast<double>(spec->ebn0_db), spec->reference_decoder,
              cost.iters_per_frame, cost.converged_share,
              seconds_between(p0, Clock::now()));

  const std::size_t nproc = std::thread::hardware_concurrency();
  if (!options.trace) {
    Tracer off(false);
    const Measurement m = measure(*spec, pool, options, options.seconds, off);
    print_metrics("end-to-end:", m.end_to_end);
    std::printf("  threads during the window: %zu (nproc %zu)\n",
                m.max_threads, nproc);
    std::printf("%s\n", result_json(m.correct(), m.attempted, m.failed,
                                    m.end_to_end).c_str());
    return m.correct() ? 0 : 1;
  }

  // Untraced, traced, traced, untraced quarters: host drift across the run
  // cancels to first order in the traced-versus-untraced comparison. The
  // per-layer metrics printed are the last traced quarter's.
  const double quarter = options.seconds / 4.0;
  Tracer off(false);
  Tracer on(true);
  std::vector<Measurement> plain, traced;
  plain.push_back(measure(*spec, pool, options, quarter, off));
  traced.push_back(measure(*spec, pool, options, quarter, on));
  traced.push_back(measure(*spec, pool, options, quarter, on));
  plain.push_back(measure(*spec, pool, options, quarter, off));
  bool correct = true;
  std::size_t attempted = 0, failed = 0;
  for (const auto* runs : {&plain, &traced})
    for (const Measurement& q : *runs) {
      correct = correct && q.correct();
      attempted += q.attempted;
      failed += q.failed;
    }
  const auto mean = [](const std::vector<Measurement>& runs,
                       const char* name) {
    return (runs[0].value(name) + runs[1].value(name)) / 2.0;
  };
  // The closed loop and the stream show tracing cost as lost goodput.
  const double overhead_pct =
      (1.0 - mean(traced, "goodput_mbps") / mean(plain, "goodput_mbps")) *
      100.0;
  Measurement result = traced.back();
  result.per_layer.push_back({"trace.overhead_pct", overhead_pct, "%"});
  const char* labels[] = {"untraced", "traced", "traced", "untraced"};
  const Measurement* order[] = {&plain[0], &traced[0], &traced[1], &plain[1]};
  for (int i = 0; i < 4; ++i)
    std::printf("quarter %d (%s): goodput %.4f Mbit/s, p50 %.4f ms, "
                "p90 %.4f ms\n", i + 1, labels[i],
                order[i]->value("goodput_mbps"), order[i]->value("p50_ms"),
                order[i]->value("p90_ms"));
  print_metrics("per-layer (last traced quarter):", result.per_layer);
  std::printf("self time per layer (traced quarters, spans from the "
              "benchmark's calls into each layer):\n");
  for (const auto& lt : on.self_time_by_layer())
    std::printf("  %-10s %8zu spans %12.3f ms total %12.3f ms self\n",
                lt.layer.c_str(), lt.spans, lt.total_ms, lt.self_ms);
  if (!options.spans_dir.empty()) {
    ::mkdir(options.spans_dir.c_str(), 0755);
    const std::string path = options.spans_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".jsonl";
    on.write(path);
    std::printf("  spans written to %s\n", path.c_str());
  }
  std::printf("  threads during the window: %zu (nproc %zu)\n",
              result.max_threads, nproc);
  std::printf("%s\n", result_json(correct, attempted, failed,
                                  result.per_layer).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  perfbench::Options options;
  if (!perfbench::parse(argc, argv, &options)) {
    perfbench::usage();
    return 2;
  }
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
