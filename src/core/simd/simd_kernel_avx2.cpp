// AVX2 lane kernels: 16 int16 / 32 int8 lanes per __m256i — a whole
// z = 96 int16 layer is six vector steps. Compiled with -mavx2 (see
// src/core/CMakeLists.txt) and only ever dispatched to after a runtime
// __builtin_cpu_supports check, so the library binary stays safe on
// pre-AVX2 hosts.
#include "core/simd/simd_row_update.hpp"

#ifdef LDPC_SIMD_X86

#include <immintrin.h>

namespace ldpc::simd {
namespace {

/// Width-independent half of the AVX2 policies.
template <class T_>
struct Avx2Base {
  using T = T_;
  using Vec = __m256i;
  using Mask = Vec;  // all-ones lanes where true
  static Vec load(const T* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(T* p, Vec a) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a);
  }
  static Vec zero() { return _mm256_setzero_si256(); }
  // blendv picks per byte; lane masks are all-ones per lane, so byte
  // granularity is exact for both widths.
  static Vec blend(Vec m, Vec a, Vec b) { return _mm256_blendv_epi8(b, a, m); }
  static Vec xor_(Vec a, Vec b) { return _mm256_xor_si256(a, b); }
  static Mask mask_xor(Mask a, Mask b) { return xor_(a, b); }
  static Vec or_(Vec a, Vec b) { return _mm256_or_si256(a, b); }
  static Vec and_(Vec a, Vec b) { return _mm256_and_si256(a, b); }
  static void quantize(const QuantizePass<T>& a);  // below
  static void lane_bits(const LaneBitsPass& a) {
    // Shift bit `lane` of 4 plane rows into their sign bits; movmskpd.
    const __m128i count = _mm_cvtsi32_si128(static_cast<int>(63 - a.lane));
    for (std::size_t w = 0; w < a.words; ++w) {
      const std::uint64_t* rows = a.plane + w * 64;
      std::uint64_t bits = 0;
      for (std::uint32_t g = 0; g < 16; ++g) {
        const __m256i v = _mm256_sll_epi64(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + 4 * g)),
            count);
        bits |= static_cast<std::uint64_t>(
                    _mm256_movemask_pd(_mm256_castsi256_pd(v)))
                << (4 * g);
      }
      a.out[w] = bits;
    }
  }
};

struct Avx2Ops16 : Avx2Base<std::int16_t> {
  static constexpr int kLanes = 16;
  static Vec broadcast(std::int16_t x) { return _mm256_set1_epi16(x); }
  static Vec add(Vec a, Vec b) { return _mm256_add_epi16(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_epi16(a, b); }
  static Vec min(Vec a, Vec b) { return _mm256_min_epi16(a, b); }
  static Vec max(Vec a, Vec b) { return _mm256_max_epi16(a, b); }
  static Vec cmpgt(Vec a, Vec b) { return _mm256_cmpgt_epi16(a, b); }
  static Vec cmpeq(Vec a, Vec b) { return _mm256_cmpeq_epi16(a, b); }
  static Vec abs(Vec a) { return _mm256_abs_epi16(a); }
  static std::uint64_t sign_bits(Vec a) {
    // Narrow to bytes in lane order (packs keeps the sign), then movemask.
    const __m128i b = _mm_packs_epi16(_mm256_castsi256_si128(a),
                                      _mm256_extracti128_si256(a, 1));
    return static_cast<std::uint32_t>(_mm_movemask_epi8(b));
  }
  template <int kShift>
  static Vec srl(Vec a) {
    return _mm256_srli_epi16(a, kShift);
  }
  template <int kShift>
  static Vec sll(Vec a) {
    return _mm256_slli_epi16(a, kShift);
  }
  static Vec mullo(Vec a, Vec b) { return _mm256_mullo_epi16(a, b); }
  static Vec mulhi(Vec a, Vec b) { return _mm256_mulhi_epi16(a, b); }
};

struct Avx2Ops8 : Avx2Base<std::int8_t> {
  static constexpr int kLanes = 32;
  static Vec broadcast(std::int8_t x) {
    return _mm256_set1_epi8(static_cast<char>(x));
  }
  static Vec add(Vec a, Vec b) { return _mm256_add_epi8(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_epi8(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm256_adds_epi8(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm256_subs_epi8(a, b); }
  static Vec min(Vec a, Vec b) { return _mm256_min_epi8(a, b); }
  static Vec max(Vec a, Vec b) { return _mm256_max_epi8(a, b); }
  static Vec cmpgt(Vec a, Vec b) { return _mm256_cmpgt_epi8(a, b); }
  static Vec cmpeq(Vec a, Vec b) { return _mm256_cmpeq_epi8(a, b); }
  static Vec abs(Vec a) { return _mm256_abs_epi8(a); }
  static std::uint64_t sign_bits(Vec a) {
    return static_cast<std::uint32_t>(_mm256_movemask_epi8(a));
  }
};

template <class T_>
void Avx2Base<T_>::quantize(const QuantizePass<T>& a) {
  // 16 LLRs per step: two 8-wide float pipelines narrowed to int16 by the
  // saturating packs_epi32 (|s| <= 2^15 + 1, the rails fit int16), which
  // interleaves the 128-bit halves, fixed by one permute4x64. The rail
  // clamp runs on int16; int8 codes take one more pack.
  const __m256 vscale = _mm256_set1_ps(a.fscale);
  const __m256 vhi = _mm256_set1_ps(a.fhi);
  const __m256 vlo = _mm256_set1_ps(a.flo);
  const __m256 vhalf = _mm256_set1_ps(0.5F);
  const __m256 vsign = _mm256_set1_ps(-0.0F);
  const __m256i vrail_hi = _mm256_set1_epi16(a.hi);
  const __m256i vrail_lo = _mm256_set1_epi16(a.lo);
  const auto quant8 = [&](std::size_t v) {
    __m256 s = _mm256_mul_ps(_mm256_loadu_ps(a.llr + v), vscale);
    // NaN and |s| < 0.5 -> 0 (the ordered compare is false for NaN).
    s = _mm256_and_ps(
        s, _mm256_cmp_ps(_mm256_andnot_ps(vsign, s), vhalf, _CMP_GE_OQ));
    s = _mm256_min_ps(_mm256_max_ps(s, vlo), vhi);
    const __m256 half = _mm256_or_ps(vhalf, _mm256_and_ps(s, vsign));
    return _mm256_cvttps_epi32(_mm256_add_ps(s, half));
  };
  std::size_t v = 0;
  for (; v + 16 <= a.n; v += 16) {
    __m256i w = _mm256_packs_epi32(quant8(v), quant8(v + 8));
    w = _mm256_permute4x64_epi64(w, 0xD8);  // undo the 128-lane interleave
    w = _mm256_max_epi16(_mm256_min_epi16(w, vrail_hi), vrail_lo);
    if constexpr (sizeof(T) == 1) {
      const __m128i lo = _mm256_castsi256_si128(w);
      const __m128i hi = _mm256_extracti128_si256(w, 1);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(a.out + v),
                       _mm_packs_epi16(lo, hi));
    } else {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.out + v), w);
    }
  }
  detail::quantize_scalar(a, v);
}

}  // namespace

namespace detail {
extern const KernelSet kAvx2Kernels = make_kernel_set<Avx2Ops16, Avx2Ops8>();
}  // namespace detail

}  // namespace ldpc::simd

#endif  // LDPC_SIMD_X86
