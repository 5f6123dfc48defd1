// SSE2 lane kernels: 8 int16 / 16 int8 lanes per __m128i. SSE2 is
// baseline on every x86-64 CPU, so this tier needs no runtime feature
// check — it is the floor the AVX2 tier falls back to. SSE2 lacks
// blendv/pabsw and the int8 min/max/abs (SSE4.1/SSSE3), so blend is the
// classic and/andnot/or select, int8 min/max are cmpgt + select, and abs
// is max(v, 0 - v) (exact for every railed value).
#include "core/simd/simd_row_update.hpp"

#ifdef LDPC_SIMD_X86

#include <emmintrin.h>

namespace ldpc::simd {
namespace {

/// Width-independent half of the SSE2 policies.
template <class T_>
struct Sse2Base {
  using T = T_;
  using Vec = __m128i;
  using Mask = Vec;  // all-ones lanes where true
  static Vec load(const T* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(T* p, Vec a) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a);
  }
  static Vec zero() { return _mm_setzero_si128(); }
  static Vec blend(Vec m, Vec a, Vec b) {
    return _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b));
  }
  static Vec xor_(Vec a, Vec b) { return _mm_xor_si128(a, b); }
  static Mask mask_xor(Mask a, Mask b) { return xor_(a, b); }
  static Vec or_(Vec a, Vec b) { return _mm_or_si128(a, b); }
  static Vec and_(Vec a, Vec b) { return _mm_and_si128(a, b); }
  static void quantize(const QuantizePass<T>& a);  // below
  static void lane_bits(const LaneBitsPass& a) {
    // Per lane: shift bit `lane` of 2 plane rows into their sign bits;
    // movmskpd.
    detail::for_each_lane(a, [&](std::uint32_t lane, std::uint64_t* out) {
      const __m128i count = _mm_cvtsi32_si128(static_cast<int>(63 - lane));
      for (std::size_t w = 0; w < a.words; ++w) {
        const std::uint64_t* rows = a.plane + w * 64;
        std::uint64_t bits = 0;
        for (std::uint32_t g = 0; g < 32; ++g) {
          const __m128i v = _mm_sll_epi64(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + 2 * g)),
              count);
          bits |=
              static_cast<std::uint64_t>(_mm_movemask_pd(_mm_castsi128_pd(v)))
              << (2 * g);
        }
        out[w] = bits;
      }
    });
  }
};

struct Sse2Ops16 : Sse2Base<std::int16_t> {
  static constexpr int kLanes = 8;
  static Vec broadcast(std::int16_t x) { return _mm_set1_epi16(x); }
  static Vec add(Vec a, Vec b) { return _mm_add_epi16(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm_sub_epi16(a, b); }
  static Vec min(Vec a, Vec b) { return _mm_min_epi16(a, b); }
  static Vec max(Vec a, Vec b) { return _mm_max_epi16(a, b); }
  static Vec cmpgt(Vec a, Vec b) { return _mm_cmpgt_epi16(a, b); }
  static Vec cmpeq(Vec a, Vec b) { return _mm_cmpeq_epi16(a, b); }
  static Vec abs(Vec a) { return _mm_max_epi16(a, _mm_sub_epi16(zero(), a)); }
  static std::uint64_t sign_bits(Vec a) {
    // packs keeps the sign; the low 8 bytes are the 8 lanes.
    const int bytes = _mm_movemask_epi8(_mm_packs_epi16(a, a));
    return static_cast<std::uint32_t>(bytes) & 0xFFU;
  }
  template <int kShift>
  static Vec srl(Vec a) {
    return _mm_srli_epi16(a, kShift);
  }
  template <int kShift>
  static Vec sll(Vec a) {
    return _mm_slli_epi16(a, kShift);
  }
  static Vec mullo(Vec a, Vec b) { return _mm_mullo_epi16(a, b); }
  static Vec mulhi(Vec a, Vec b) { return _mm_mulhi_epi16(a, b); }
};

struct Sse2Ops8 : Sse2Base<std::int8_t> {
  static constexpr int kLanes = 16;
  static Vec broadcast(std::int8_t x) {
    return _mm_set1_epi8(static_cast<char>(x));
  }
  static Vec add(Vec a, Vec b) { return _mm_add_epi8(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm_sub_epi8(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm_adds_epi8(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm_subs_epi8(a, b); }
  static Vec cmpgt(Vec a, Vec b) { return _mm_cmpgt_epi8(a, b); }
  static Vec cmpeq(Vec a, Vec b) { return _mm_cmpeq_epi8(a, b); }
  static Vec min(Vec a, Vec b) { return blend(cmpgt(a, b), b, a); }
  static Vec max(Vec a, Vec b) { return blend(cmpgt(a, b), a, b); }
  static Vec abs(Vec a) { return max(a, _mm_sub_epi8(zero(), a)); }
  static std::uint64_t sign_bits(Vec a) {
    return static_cast<std::uint32_t>(_mm_movemask_epi8(a));
  }
};

template <class T_>
void Sse2Base<T_>::quantize(const QuantizePass<T>& a) {
  // 16 LLRs per step: four 4-wide float pipelines narrowed to int16 by the
  // saturating packs (harmless: |s| <= 2^15 + 1 and the rails fit int16),
  // clamped to the rails on int16 (SSE2 has no epi32 min/max), then stored
  // or packed once more to int8. copysign(0.5, s) = 0.5 | signbit.
  const QuantizeGrid<T> g = a.grid;
  const __m128 vscale = _mm_set1_ps(g.fscale);
  const __m128 vhi = _mm_set1_ps(g.fhi);
  const __m128 vlo = _mm_set1_ps(g.flo);
  const __m128 vhalf = _mm_set1_ps(0.5F);
  const __m128 vsign = _mm_set1_ps(-0.0F);
  const __m128i vrail_hi = _mm_set1_epi16(g.hi);
  const __m128i vrail_lo = _mm_set1_epi16(g.lo);
  const auto quant4 = [&](std::size_t v) {
    __m128 s = _mm_mul_ps(_mm_loadu_ps(a.llr + v), vscale);
    // NaN and |s| < 0.5 -> 0 (the ordered compare is false for NaN).
    s = _mm_and_ps(s, _mm_cmpge_ps(_mm_andnot_ps(vsign, s), vhalf));
    s = _mm_min_ps(_mm_max_ps(s, vlo), vhi);
    const __m128 half = _mm_or_ps(vhalf, _mm_and_ps(s, vsign));
    return _mm_cvttps_epi32(_mm_add_ps(s, half));
  };
  const auto rail = [&](__m128i w) {
    return _mm_max_epi16(_mm_min_epi16(w, vrail_hi), vrail_lo);
  };
  std::size_t v = 0;
  for (; v + 16 <= a.n; v += 16) {
    const __m128i c0 = rail(_mm_packs_epi32(quant4(v), quant4(v + 4)));
    const __m128i c1 = rail(_mm_packs_epi32(quant4(v + 8), quant4(v + 12)));
    auto* out = reinterpret_cast<__m128i*>(a.out + v);
    if constexpr (sizeof(T) == 1) {
      _mm_storeu_si128(out, _mm_packs_epi16(c0, c1));
    } else {
      _mm_storeu_si128(out, c0);
      _mm_storeu_si128(out + 1, c1);
    }
  }
  detail::quantize_scalar(a, v);
}

}  // namespace

namespace detail {
extern const KernelSet kSse2Kernels = make_kernel_set<Sse2Ops16, Sse2Ops8>();
}  // namespace detail

}  // namespace ldpc::simd

#endif  // LDPC_SIMD_X86
