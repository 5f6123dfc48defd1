// AVX2 lane kernels: 16 int16 / 32 int8 lanes per __m256i — a whole
// z = 96 int16 layer is six vector steps. Compiled with -mavx2 (see
// src/core/CMakeLists.txt) and only ever dispatched to after a runtime
// __builtin_cpu_supports check, so the library binary stays safe on
// pre-AVX2 hosts.
#include "core/simd/simd_row_update.hpp"

#ifdef LDPC_SIMD_X86

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace ldpc::simd {
namespace {

using detail::bit_reverse;
using detail::unpack_round;
using detail::unrolled;

/// The channel quantizer's step (QuantizeGrid): 16 LLRs per step, two
/// 8-wide float pipelines narrowed to int16 by the saturating
/// packs_epi32 (|s| <= 2^15 + 1, the rails fit int16), which interleaves
/// the 128-bit halves, fixed by one permute4x64. The rail clamp runs on
/// int16.
template <class T>
struct Avx2Quantizer {
  explicit Avx2Quantizer(const QuantizeGrid<T>& g)
      : scale(_mm256_set1_ps(g.fscale)),
        fhi(_mm256_set1_ps(g.fhi)),
        flo(_mm256_set1_ps(g.flo)),
        half(_mm256_set1_ps(0.5F)),
        sign(_mm256_set1_ps(-0.0F)),
        hi(_mm256_set1_epi16(g.hi)),
        lo(_mm256_set1_epi16(g.lo)) {}

  __m256i step8(__m256 llr) const {
    __m256 s = _mm256_mul_ps(llr, scale);
    // NaN and |s| < 0.5 -> 0 (the ordered compare is false for NaN).
    s = _mm256_and_ps(
        s, _mm256_cmp_ps(_mm256_andnot_ps(sign, s), half, _CMP_GE_OQ));
    s = _mm256_min_ps(_mm256_max_ps(s, flo), fhi);
    const __m256 away = _mm256_or_ps(half, _mm256_and_ps(s, sign));
    return _mm256_cvttps_epi32(_mm256_add_ps(s, away));
  }

  /// 16 LLRs at `llr` -> 16 railed int16 codes, in order.
  __m256i step(const float* llr) const {
    __m256i w = _mm256_packs_epi32(step8(_mm256_loadu_ps(llr)),
                                   step8(_mm256_loadu_ps(llr + 8)));
    w = _mm256_permute4x64_epi64(w, 0xD8);  // undo the 128-lane interleave
    return _mm256_max_epi16(_mm256_min_epi16(w, hi), lo);
  }

  /// The same codes narrowed to int8, for the Fa8 rails (+-127).
  __m128i step_i8(const float* llr) const {
    const __m256i w = step(llr);
    return _mm_packs_epi16(_mm256_castsi256_si128(w),
                           _mm256_extracti128_si256(w, 1));
  }

  __m256 scale, fhi, flo, half, sign;
  __m256i hi, lo;
};

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
  static void quantize(const QuantizePass<T>& a) {
    // One quantizer step per 16 LLRs; int8 codes take one more pack.
    const Avx2Quantizer<T> q(a.grid);
    std::size_t v = 0;
    for (; v + 16 <= a.n; v += 16) {
      if constexpr (sizeof(T) == 1)
        _mm_storeu_si128(reinterpret_cast<__m128i*>(a.out + v),
                         q.step_i8(a.llr + v));
      else
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(a.out + v),
                            q.step(a.llr + v));
    }
    detail::quantize_scalar(a, v);
  }
  static void lane_bits(const LaneBitsPass& a) {
    // Per lane: shift bit `lane` of 4 plane rows into their sign bits;
    // movmskpd.
    detail::for_each_lane(a, [&](std::uint32_t lane, std::uint64_t* out) {
      const __m128i count = _mm_cvtsi32_si128(static_cast<int>(63 - lane));
      for (std::size_t w = 0; w < a.words; ++w) {
        const std::uint64_t* rows = a.plane + w * 64;
        std::uint64_t bits = 0;
        for (std::uint32_t g = 0; g < 16; ++g) {
          const __m256i v = _mm256_sll_epi64(
              _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(rows + 4 * g)),
              count);
          bits |= static_cast<std::uint64_t>(
                      _mm256_movemask_pd(_mm256_castsi256_pd(v)))
                  << (4 * g);
        }
        out[w] = bits;
      }
    });
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

/// Transposes 16 vectors of 16-byte lanes in both lanes: unpack_round at
/// each element width from 8 to 64 bits.
inline void transpose_lanes(__m256i (&x)[16]) {
  using V = __m256i;
  unpack_round(x, [](V a, V b) { return _mm256_unpacklo_epi8(a, b); },
               [](V a, V b) { return _mm256_unpackhi_epi8(a, b); });
  unpack_round(x, [](V a, V b) { return _mm256_unpacklo_epi16(a, b); },
               [](V a, V b) { return _mm256_unpackhi_epi16(a, b); });
  unpack_round(x, [](V a, V b) { return _mm256_unpacklo_epi32(a, b); },
               [](V a, V b) { return _mm256_unpackhi_epi32(a, b); });
  unpack_round(x, [](V a, V b) { return _mm256_unpacklo_epi64(a, b); },
               [](V a, V b) { return _mm256_unpackhi_epi64(a, b); });
}

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

  /// Refill placement (refill_pass), 32-row blocks: the AVX-512 int8
  /// recipe at half the width. A 16 x 16 byte transpose in each 128-bit
  /// lane leaves row 16L + c in lane L of register bit_reverse<16>(c);
  /// each P row is a lane broadcast (vperm2i128), vpshufb by the slot
  /// control and, AVX2 having no byte-masked store, a vpblendvb into the
  /// loaded row before the store.
  struct Refill {
    explicit Refill(const RefillPass<T>& a) : quant(a.grid) {
      alignas(32) std::int8_t slot_of[kLanes] = {};  // byte f: lane f's slot
      alignas(32) std::int8_t lanes[kLanes] = {};    // -1: a fresh lane
      for (std::uint32_t k = 0; k < a.count; ++k) {
        slot_of[a.lane[k]] = static_cast<std::int8_t>(k);
        lanes[a.lane[k]] = -1;
      }
      control = load(slot_of);
      fresh = load(lanes);
    }

    Vec codes(const float* llr, std::uint32_t rows) const {
      alignas(32) float tail[kLanes];
      if (rows < kLanes) {
        // The block tail: quantize a zero-padded copy.
        std::fill(tail, tail + kLanes, 0.0F);
        std::memcpy(tail, llr, rows * sizeof(float));
        llr = tail;
      }
      return _mm256_set_m128i(quant.step_i8(llr + 16), quant.step_i8(llr));
    }

    void place(const Vec (&codes)[kRefillSlots], T* p,
               std::uint32_t rows) const {
      Vec t[kRefillSlots];
      unrolled<kRefillSlots>([&](auto i) { t[i] = codes[i]; });
      transpose_lanes(t);
      unrolled<kLanes>([&](auto row) {
        constexpr std::uint32_t c = bit_reverse<16>(row % 16);
        constexpr int lane = row < 16 ? 0x00 : 0x11;
        if (row < rows) {
          T* const dst = p + row * kLanes;
          const Vec placed = _mm256_shuffle_epi8(
              _mm256_permute2x128_si256(t[c], t[c], lane), control);
          store(dst, blend(fresh, placed, load(dst)));
        }
      });
    }

    Avx2Quantizer<T> quant;
    Vec control;
    Vec fresh;
  };
};

}  // namespace

namespace detail {
extern const KernelSet kAvx2Kernels = make_kernel_set<Avx2Ops16, Avx2Ops8>();
}  // namespace detail

}  // namespace ldpc::simd

#endif  // LDPC_SIMD_X86
