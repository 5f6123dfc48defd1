// Runtime kernel dispatch: pick the widest lane kernel this build carries
// and this CPU supports. Selection happens once per decoder construction,
// not per decode, so the hot path pays a single indirect call per layer.
#include "core/simd/simd_kernel.hpp"

#include <cstdlib>

#include "core/simd/simd_row_update.hpp"
#include "util/check.hpp"

namespace ldpc::simd {

bool tier_available(SimdTier tier) {
  switch (tier) {
    case SimdTier::kPortable:
      return true;
#ifdef LDPC_SIMD_X86
    case SimdTier::kSse2:
      // SSE2 is architecturally guaranteed on x86-64.
      return true;
    case SimdTier::kAvx2:
      return __builtin_cpu_supports("avx2") != 0;
    case SimdTier::kAvx512:
      // The int16 kernels need the BW (byte/word) extension on top of the
      // F foundation; both ship together on every AVX-512 server core.
      return __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0;
#else
    case SimdTier::kSse2:
    case SimdTier::kAvx2:
    case SimdTier::kAvx512:
      return false;
#endif
  }
  return false;
}

std::vector<SimdTier> available_tiers() {
  std::vector<SimdTier> tiers = {SimdTier::kPortable};
  if (tier_available(SimdTier::kSse2)) tiers.push_back(SimdTier::kSse2);
  if (tier_available(SimdTier::kAvx2)) tiers.push_back(SimdTier::kAvx2);
  if (tier_available(SimdTier::kAvx512)) tiers.push_back(SimdTier::kAvx512);
  return tiers;
}

const KernelSet& kernels_for(SimdTier tier) {
  LDPC_CHECK_MSG(tier_available(tier),
                 "SIMD tier " << to_string(tier)
                              << " is not available in this build/CPU");
  switch (tier) {
#ifdef LDPC_SIMD_X86
    case SimdTier::kSse2:
      return detail::kSse2Kernels;
    case SimdTier::kAvx2:
      return detail::kAvx2Kernels;
    case SimdTier::kAvx512:
      return detail::kAvx512Kernels;
#endif
    default:
      return detail::kPortableKernels;
  }
}

SimdTier tier_from_string(const std::string& name) {
  if (name == "portable") return SimdTier::kPortable;
  if (name == "sse2") return SimdTier::kSse2;
  if (name == "avx2") return SimdTier::kAvx2;
  if (name == "avx512") return SimdTier::kAvx512;
  throw Error("unknown SIMD tier name: " + name +
              " (expected portable|sse2|avx2|avx512)");
}

SimdTier best_tier() {
  if (const char* env = std::getenv("LDPC_SIMD_TIER")) {
    // Experimentation hook (benches, tier-pinned CI runs). A *known* tier
    // name that is unavailable on this build/CPU falls through to
    // auto-detection, so a pinned script stays portable across hosts; an
    // *unknown* name throws — an override that silently decoded on a
    // different tier than the one named would poison every number measured
    // under it.
    const SimdTier t = tier_from_string(env);
    if (tier_available(t)) return t;
  }
  if (tier_available(SimdTier::kAvx512)) return SimdTier::kAvx512;
  if (tier_available(SimdTier::kAvx2)) return SimdTier::kAvx2;
  if (tier_available(SimdTier::kSse2)) return SimdTier::kSse2;
  return SimdTier::kPortable;
}

}  // namespace ldpc::simd
