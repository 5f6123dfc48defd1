// AVX-512 lane kernels: 32 int16 / 64 int8 lanes per __m512i — one vector
// covers a whole 32-frame int16 batch row (a 64-frame int8 row is exactly
// one cache line). Compiled with -mavx512f -mavx512bw (see
// src/core/CMakeLists.txt) and only dispatched to after a runtime
// __builtin_cpu_supports check for both features, so the library binary
// stays safe on pre-AVX-512 hosts.
//
// The LaneOps Mask of this tier is a mask register (__mmask32 for int16,
// __mmask64 for int8), the form AVX-512 comparisons produce natively:
// cmpgt/cmpeq are vpcmpw/vpcmpb into a k-register, blend is
// vpblendmw/vpblendmb under it, and the row update's sign parity XORs two
// masks (kxord/kxorq). No lane predicate is ever widened into a vector.
#include "core/simd/simd_row_update.hpp"

#ifdef LDPC_SIMD_X86

#include <immintrin.h>

namespace ldpc::simd {
namespace {

/// Width-independent half of the AVX-512 policies.
template <class T_>
struct Avx512Base {
  using T = T_;
  using Vec = __m512i;
  static Vec load(const T* p) {
    return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
  }
  static void store(T* p, Vec a) {
    _mm512_storeu_si512(reinterpret_cast<void*>(p), a);
  }
  static Vec zero() { return _mm512_setzero_si512(); }
  static Vec xor_(Vec a, Vec b) { return _mm512_xor_si512(a, b); }
  static Vec or_(Vec a, Vec b) { return _mm512_or_si512(a, b); }
  static Vec and_(Vec a, Vec b) { return _mm512_and_si512(a, b); }
  static void quantize(const QuantizePass<T>& a);  // below
  static void lane_bits(const LaneBitsPass& a) {
    // vptestmq: bit `lane` of 8 plane rows per instruction.
    const __m512i sel =
        _mm512_set1_epi64(static_cast<long long>(1ULL << a.lane));
    for (std::size_t w = 0; w < a.words; ++w) {
      const std::uint64_t* rows = a.plane + w * 64;
      std::uint64_t bits = 0;
      for (std::uint32_t g = 0; g < 8; ++g)
        bits |= static_cast<std::uint64_t>(_mm512_test_epi64_mask(
                    _mm512_loadu_si512(rows + 8 * g), sel))
                << (8 * g);
      a.out[w] = bits;
    }
  }
};

struct Avx512Ops16 : Avx512Base<std::int16_t> {
  static constexpr int kLanes = 32;
  static Vec broadcast(std::int16_t x) { return _mm512_set1_epi16(x); }
  static Vec add(Vec a, Vec b) { return _mm512_add_epi16(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm512_sub_epi16(a, b); }
  static Vec min(Vec a, Vec b) { return _mm512_min_epi16(a, b); }
  static Vec max(Vec a, Vec b) { return _mm512_max_epi16(a, b); }
  using Mask = __mmask32;
  static Mask cmpgt(Vec a, Vec b) { return _mm512_cmpgt_epi16_mask(a, b); }
  static Mask cmpeq(Vec a, Vec b) { return _mm512_cmpeq_epi16_mask(a, b); }
  static Vec blend(Mask m, Vec a, Vec b) {
    return _mm512_mask_blend_epi16(m, b, a);
  }
  static Mask mask_xor(Mask a, Mask b) { return _kxor_mask32(a, b); }
  static Vec abs(Vec a) { return _mm512_abs_epi16(a); }
  static std::uint64_t sign_bits(Vec a) { return _mm512_movepi16_mask(a); }
  template <int kShift>
  static Vec srl(Vec a) {
    return _mm512_srli_epi16(a, kShift);
  }
  template <int kShift>
  static Vec sll(Vec a) {
    return _mm512_slli_epi16(a, kShift);
  }
  static Vec mullo(Vec a, Vec b) { return _mm512_mullo_epi16(a, b); }
  static Vec mulhi(Vec a, Vec b) { return _mm512_mulhi_epi16(a, b); }
};

struct Avx512Ops8 : Avx512Base<std::int8_t> {
  static constexpr int kLanes = 64;
  static Vec broadcast(std::int8_t x) {
    return _mm512_set1_epi8(static_cast<char>(x));
  }
  static Vec add(Vec a, Vec b) { return _mm512_add_epi8(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm512_sub_epi8(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm512_adds_epi8(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm512_subs_epi8(a, b); }
  static Vec min(Vec a, Vec b) { return _mm512_min_epi8(a, b); }
  static Vec max(Vec a, Vec b) { return _mm512_max_epi8(a, b); }
  using Mask = __mmask64;
  static Mask cmpgt(Vec a, Vec b) { return _mm512_cmpgt_epi8_mask(a, b); }
  static Mask cmpeq(Vec a, Vec b) { return _mm512_cmpeq_epi8_mask(a, b); }
  static Vec blend(Mask m, Vec a, Vec b) {
    return _mm512_mask_blend_epi8(m, b, a);
  }
  static Mask mask_xor(Mask a, Mask b) { return _kxor_mask64(a, b); }
  static Vec abs(Vec a) { return _mm512_abs_epi8(a); }
  static std::uint64_t sign_bits(Vec a) { return _mm512_movepi8_mask(a); }
  static Vec staircase_add(Vec s, Vec mag, Vec thr, Vec delta) {
    // One masked add replaces the generic cmpgt, vpand, vpaddb chain:
    // s + ((mag > thr) ? delta : 0) in two instructions, same value byte
    // for byte.
    return _mm512_mask_add_epi8(s, cmpgt(mag, thr), s, delta);
  }
};

// GCC 12's unmasked AVX-512 float intrinsics expand through
// _mm512_undefined_ps() merge operands, tripping -Wmaybe-uninitialized
// (GCC PR 105593). The operands are dead — full-mask forms ignore them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
template <class T_>
void Avx512Base<T_>::quantize(const QuantizePass<T>& a) {
  // 16 LLRs per step: one 16-wide float pipeline, the rail clamp on int32,
  // then one narrowing move, vpmovdw (int16) or vpmovdb (int8). Float
  // bit-ops go through integer casts — _mm512_and_ps is AVX-512DQ, which
  // this build does not assume (only F + BW).
  const __m512 vscale = _mm512_set1_ps(a.fscale);
  const __m512 vhi = _mm512_set1_ps(a.fhi);
  const __m512 vlo = _mm512_set1_ps(a.flo);
  const __m512 vhalf_ps = _mm512_set1_ps(0.5F);
  const __m512i vhalf = _mm512_castps_si512(vhalf_ps);
  const __m512i vsign = _mm512_castps_si512(_mm512_set1_ps(-0.0F));
  const __m512i vrail_hi = _mm512_set1_epi32(a.hi);
  const __m512i vrail_lo = _mm512_set1_epi32(a.lo);
  std::size_t v = 0;
  for (; v + 16 <= a.n; v += 16) {
    __m512 s = _mm512_mul_ps(_mm512_loadu_ps(a.llr + v), vscale);
    // NaN and |s| < 0.5 -> 0 (the ordered compare is false for NaN).
    const __mmask16 keep =
        _mm512_cmp_ps_mask(_mm512_abs_ps(s), vhalf_ps, _CMP_GE_OQ);
    s = _mm512_maskz_mov_ps(keep, s);
    s = _mm512_min_ps(_mm512_max_ps(s, vlo), vhi);
    const __m512i si = _mm512_castps_si512(s);
    const __m512 half = _mm512_castsi512_ps(
        _mm512_or_si512(vhalf, _mm512_and_si512(si, vsign)));
    __m512i t = _mm512_cvttps_epi32(_mm512_add_ps(s, half));
    t = _mm512_max_epi32(_mm512_min_epi32(t, vrail_hi), vrail_lo);
    if constexpr (sizeof(T) == 1)
      _mm_storeu_si128(reinterpret_cast<__m128i*>(a.out + v),
                       _mm512_cvtepi32_epi8(t));
    else
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.out + v),
                          _mm512_cvtepi32_epi16(t));
  }
  detail::quantize_scalar(a, v);
}
#pragma GCC diagnostic pop

}  // namespace

namespace detail {
extern const KernelSet kAvx512Kernels =
    make_kernel_set<Avx512Ops16, Avx512Ops8>();
}  // namespace detail

}  // namespace ldpc::simd

#endif  // LDPC_SIMD_X86
