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
// masks (kxord/kxorq). No lane predicate is ever widened into a vector:
// an uncounted batched pass holds r_keep in a k-register too, and each
// edge's Q = P - R is one vpsubw / vpsubsb under it with P as the merge
// source (sub_keep), not an AND of every R load.
//
// The sign-plane passes use masked loads as well: the probe's straddling
// load is a masked load plus an expanding load (load_split), and the
// lane-set extraction transposes 64 plane rows in registers so that each
// finishing lane costs one vptestmb per 64 rows (lane_bits).
#include "core/simd/simd_row_update.hpp"

#ifdef LDPC_SIMD_X86

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace ldpc::simd {
namespace {

using detail::bit_reverse;
using detail::unpack_round;
using detail::unrolled;

// GCC 12's unmasked AVX-512 float intrinsics expand through
// _mm512_undefined_ps() merge operands, tripping -Wmaybe-uninitialized
// (GCC PR 105593). The operands are dead — full-mask forms ignore them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// The channel quantizer (QuantizeGrid): 16 LLRs per float step, then
/// saturating packs narrow a vector's steps to T (int32 -> int16, and
/// int16 -> int8 for int8 codes), one permute restores the row order the
/// packs interleave across 128-bit lanes, and the rail clamp runs once per
/// vector of T. The packs cannot change a code: a step's code has
/// |code| <= 2^15 + 1 and the rails fit T, so saturating before the clamp
/// gives the clamp's result. Float bit-ops go through integer casts —
/// _mm512_and_ps is AVX-512DQ, which this build does not assume (only F +
/// BW).
template <class T>
struct Avx512Quantizer {
  static constexpr std::uint32_t kCodes = 64 / sizeof(T);  ///< per vector

  explicit Avx512Quantizer(const QuantizeGrid<T>& g)
      : scale(_mm512_set1_ps(g.fscale)),
        fhi(_mm512_set1_ps(g.fhi)),
        flo(_mm512_set1_ps(g.flo)),
        half(_mm512_set1_ps(0.5F)),
        sign(_mm512_castps_si512(_mm512_set1_ps(-0.0F))),
        hi(sizeof(T) == 1 ? _mm512_set1_epi8(static_cast<char>(g.hi))
                          : _mm512_set1_epi16(g.hi)),
        lo(sizeof(T) == 1 ? _mm512_set1_epi8(static_cast<char>(g.lo))
                          : _mm512_set1_epi16(g.lo)),
        // packs_epi32 leaves qword 2L + k = step k's codes 4L .. 4L + 3;
        // for int8, packs_epi16 then leaves dword 4L + k = step k's codes
        // 4L .. 4L + 3 (k = 0..3).
        order(sizeof(T) == 1 ? _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2,
                                                 6, 10, 14, 3, 7, 11, 15)
                             : _mm512_setr_epi64(0, 2, 4, 6, 1, 3, 5, 7)) {}

  /// 16 LLRs -> 16 int32 codes before the rail clamp.
  __m512i step(__m512 llr) const {
    __m512 s = _mm512_mul_ps(llr, scale);
    // NaN and |s| < 0.5 -> 0 (the ordered compare is false for NaN).
    s = _mm512_maskz_mov_ps(
        _mm512_cmp_ps_mask(_mm512_abs_ps(s), half, _CMP_GE_OQ), s);
    s = _mm512_min_ps(_mm512_max_ps(s, flo), fhi);
    const __m512 away = _mm512_castsi512_ps(_mm512_or_si512(
        _mm512_castps_si512(half),
        _mm512_and_si512(_mm512_castps_si512(s), sign)));
    return _mm512_cvttps_epi32(_mm512_add_ps(s, away));
  }

  /// The step over rows [first, first + 16) of a block of `rows` LLRs:
  /// rows past the block are not loaded (a masked load) and code 0.
  __m512i step_rows(const float* llr, std::uint32_t first,
                    std::uint32_t rows) const {
    if (first >= rows) return _mm512_setzero_si512();
    const std::uint32_t left = rows - first;
    const auto live = static_cast<__mmask16>(left >= 16 ? 0xFFFFU
                                                        : (1U << left) - 1);
    return step(_mm512_maskz_loadu_ps(live, llr + first));
  }

  /// The railed codes of rows [0, rows <= kCodes) of `llr` in row order,
  /// one vector of T; rows past `rows` code 0.
  __m512i codes(const float* llr, std::uint32_t rows) const {
    if constexpr (sizeof(T) == 1) {
      const __m512i packed = _mm512_permutexvar_epi32(
          order,
          _mm512_packs_epi16(_mm512_packs_epi32(step_rows(llr, 0, rows),
                                                step_rows(llr, 16, rows)),
                             _mm512_packs_epi32(step_rows(llr, 32, rows),
                                                step_rows(llr, 48, rows))));
      return _mm512_max_epi8(_mm512_min_epi8(packed, hi), lo);
    } else {
      const __m512i packed = _mm512_permutexvar_epi64(
          order, _mm512_packs_epi32(step_rows(llr, 0, rows),
                                    step_rows(llr, 16, rows)));
      return _mm512_max_epi16(_mm512_min_epi16(packed, hi), lo);
    }
  }

  __m512 scale, fhi, flo, half;
  __m512i sign, hi, lo, order;
};

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
  static void quantize(const QuantizePass<T>& a) {
    // One vector of codes per step; the block tail is a masked load and a
    // masked store.
    constexpr std::uint32_t kCodes = Avx512Quantizer<T>::kCodes;
    const Avx512Quantizer<T> q(a.grid);
    for (std::size_t v = 0; v < a.n; v += kCodes) {
      const auto rows =
          static_cast<std::uint32_t>(std::min<std::size_t>(kCodes, a.n - v));
      const std::uint64_t live =
          rows == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << rows) - 1;
      const Vec codes = q.codes(a.llr + v, rows);
      if constexpr (sizeof(T) == 1)
        _mm512_mask_storeu_epi8(a.out + v, live, codes);
      else
        _mm512_mask_storeu_epi16(a.out + v, static_cast<__mmask32>(live),
                                 codes);
    }
  }
  /// The probe's straddling load (probe_pass): a masked load of the head
  /// words and an expanding load of the tail's first 8 - split words into
  /// the rest, so nothing before `tail` is read.
  static Vec load_split(const std::uint64_t* head, const std::uint64_t* tail,
                        std::uint32_t split) {
    const auto first = static_cast<__mmask8>((1U << split) - 1);
    return _mm512_mask_expandloadu_epi64(_mm512_maskz_loadu_epi64(first, head),
                                         static_cast<__mmask8>(~first), tail);
  }
  static void lane_bits(const LaneBitsPass& a);  // below
};

/// Transposes kN vectors of kN-element 128-bit lanes (16 of bytes or 8 of
/// words) in every lane: unpack_round at each element width up to 64 bits.
template <std::uint32_t kN>
void transpose_lanes(__m512i (&x)[kN]) {
  using V = __m512i;
  if constexpr (kN == 16)
    unpack_round(x, [](V a, V b) { return _mm512_unpacklo_epi8(a, b); },
                 [](V a, V b) { return _mm512_unpackhi_epi8(a, b); });
  unpack_round(x, [](V a, V b) { return _mm512_unpacklo_epi16(a, b); },
               [](V a, V b) { return _mm512_unpackhi_epi16(a, b); });
  unpack_round(x, [](V a, V b) { return _mm512_unpacklo_epi32(a, b); },
               [](V a, V b) { return _mm512_unpackhi_epi32(a, b); });
  unpack_round(x, [](V a, V b) { return _mm512_unpacklo_epi64(a, b); },
               [](V a, V b) { return _mm512_unpackhi_epi64(a, b); });
}

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
  static Vec sub_keep(Mask m, Vec a, Vec b) {
    return _mm512_mask_sub_epi16(a, m, a, b);  // vpsubw, a merges
  }
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

  /// Refill placement (refill_pass), 32-row blocks: slots 0-7 and 8-15
  /// each run an 8 x 8 word transpose in every 128-bit lane, which leaves
  /// row 8L + c of both groups in lane L of their registers
  /// bit_reverse<8>(c); one vpermt2w per row gathers each fresh lane's
  /// word from the two, and vmovdqu16 stores it under the fresh mask.
  struct Refill {
    explicit Refill(const RefillPass<T>& a) : quant(a.grid) {
      // vpermt2w index of lane f in lane group L: slot s < 8 is word
      // 8L + s of the first table, slot s >= 8 word 8L + s - 8 of the
      // second (index 32 + ...).
      alignas(64) std::int16_t index[kLanes] = {};
      std::uint32_t lanes = 0;
      for (std::uint32_t k = 0; k < a.count; ++k) {
        index[a.lane[k]] = static_cast<std::int16_t>(k < 8 ? k : k + 24);
        lanes |= 1U << a.lane[k];
      }
      const Vec base = _mm512_load_si512(index);
      unrolled<4>([&](auto l) {
        control[l] = _mm512_add_epi16(base, _mm512_set1_epi16(8 * l));
      });
      fresh = lanes;
      second_group = a.count > 8;
    }

    Vec codes(const float* llr, std::uint32_t rows) const {
      return quant.codes(llr, rows);
    }

    void place(const Vec (&codes)[kRefillSlots], T* p,
               std::uint32_t rows) const {
      Vec g0[8];
      Vec g1[8];
      unrolled<8>([&](auto i) {
        g0[i] = codes[i];
        g1[i] = codes[i + 8];
      });
      transpose_lanes(g0);
      // Slots past the count are zero: with 8 or fewer, g1 stays zero.
      if (second_group) transpose_lanes(g1);
      unrolled<kLanes>([&](auto row) {
        constexpr std::uint32_t c = bit_reverse<8>(row % 8);
        if (row < rows)
          _mm512_mask_storeu_epi16(
              p + row * kLanes, fresh,
              _mm512_permutex2var_epi16(g0[c], control[row / 8], g1[c]));
      });
    }

    Avx512Quantizer<T> quant;
    Vec control[4];
    __mmask32 fresh;
    bool second_group;
  };
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
  static Vec sub_keep(Mask m, Vec a, Vec b) {
    return _mm512_mask_subs_epi8(a, m, a, b);  // vpsubsb, a merges
  }
  static Vec abs(Vec a) { return _mm512_abs_epi8(a); }
  static std::uint64_t sign_bits(Vec a) { return _mm512_movepi8_mask(a); }
  static Vec staircase_add(Vec s, Vec mag, Vec thr, Vec delta) {
    // One masked add replaces the generic cmpgt, vpand, vpaddb chain:
    // s + ((mag > thr) ? delta : 0) in two instructions, same value byte
    // for byte.
    return _mm512_mask_add_epi8(s, cmpgt(mag, thr), s, delta);
  }

  /// Refill placement (refill_pass), 64-row blocks: a 16 x 16 byte
  /// transpose in every 128-bit lane leaves row 16L + c of the block in
  /// lane L of register bit_reverse<16>(c). Each P row is then three
  /// instructions: vshufi32x4 broadcasts the lane, vpshufb puts each
  /// fresh lane's slot byte in place, and vmovdqu8 stores under the fresh
  /// mask.
  struct Refill {
    explicit Refill(const RefillPass<T>& a) : quant(a.grid) {
      alignas(64) std::int8_t slot_of[kLanes] = {};  // byte f: lane f's slot
      std::uint64_t lanes = 0;
      for (std::uint32_t k = 0; k < a.count; ++k) {
        slot_of[a.lane[k]] = static_cast<std::int8_t>(k);
        lanes |= std::uint64_t{1} << a.lane[k];
      }
      control = _mm512_load_si512(slot_of);
      fresh = lanes;
    }

    Vec codes(const float* llr, std::uint32_t rows) const {
      return quant.codes(llr, rows);
    }

    void place(const Vec (&codes)[kRefillSlots], T* p,
               std::uint32_t rows) const {
      Vec t[kRefillSlots];
      unrolled<kRefillSlots>([&](auto i) { t[i] = codes[i]; });
      transpose_lanes(t);
      unrolled<kLanes>([&](auto row) {
        constexpr std::uint32_t c = bit_reverse<16>(row % 16);
        constexpr int lane = (row / 16) * 0x55;
        if (row < rows)
          _mm512_mask_storeu_epi8(
              p + row * kLanes, fresh,
              _mm512_shuffle_epi8(_mm512_shuffle_i32x4(t[c], t[c], lane),
                                  control));
      });
    }

    Avx512Quantizer<T> quant;
    Vec control;
    __mmask64 fresh;
  };
};

/// x[j] qword g <- x[g] qword j: an 8 x 8 qword transpose across 8
/// registers (vpunpck{l,h}qdq, then two rounds of vshufi64x2).
inline void transpose_qwords(__m512i (&x)[8]) {
  __m512i t[8];
  unrolled<4>([&](auto i) {
    t[2 * i] = _mm512_unpacklo_epi64(x[2 * i], x[2 * i + 1]);
    t[2 * i + 1] = _mm512_unpackhi_epi64(x[2 * i], x[2 * i + 1]);
  });
  __m512i u[8];
  unrolled<2>([&](auto h) {  // registers 4h .. 4h + 3
    u[4 * h] = _mm512_shuffle_i64x2(t[4 * h], t[4 * h + 2], 0x88);
    u[4 * h + 1] = _mm512_shuffle_i64x2(t[4 * h + 1], t[4 * h + 3], 0x88);
    u[4 * h + 2] = _mm512_shuffle_i64x2(t[4 * h], t[4 * h + 2], 0xDD);
    u[4 * h + 3] = _mm512_shuffle_i64x2(t[4 * h + 1], t[4 * h + 3], 0xDD);
  });
  unrolled<4>([&](auto j) {
    x[j] = _mm512_shuffle_i64x2(u[j], u[j + 4], 0x88);
    x[j + 4] = _mm512_shuffle_i64x2(u[j], u[j + 4], 0xDD);
  });
}

/// The lane-set extraction (LaneBitsPass), 64 plane rows per output word,
/// whatever the set's size. Each register of 8 rows gets an 8 x 8 byte
/// transpose: vpshufb pairs the two rows of each 128-bit lane byte by
/// byte, and vpermw gathers byte column j's four row pairs into qword j.
/// The qword transpose across the 8 registers then leaves byte b of
/// register j = byte j of row b, so each lane of the set is one vptestmb
/// of register lane / 8 against bit lane % 8 of every byte: row b's hard
/// bit lands at bit b.
template <class T_>
void Avx512Base<T_>::lane_bits(const LaneBitsPass& a) {
  if (a.lanes == 0) return;
  using V = __m512i;
  const V pair = _mm512_broadcast_i32x4(
      _mm_setr_epi8(0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15));
  alignas(64) std::int16_t gather[32];  // word 4j + L <- word 8L + j
  for (int o = 0; o < 32; ++o)
    gather[o] = static_cast<std::int16_t>(8 * (o % 4) + o / 4);
  const V column = _mm512_load_si512(gather);
  alignas(64) std::uint64_t bytes[8][8];  // the transposed registers
  V bit[8];
  unrolled<8>([&](auto k) { bit[k] = _mm512_set1_epi8(1 << k); });
  for (std::size_t w = 0; w < a.words; ++w) {
    const std::uint64_t* const rows = a.plane + 64 * w;
    V x[8];
    unrolled<8>([&](auto g) {
      x[g] = _mm512_permutexvar_epi16(
          column, _mm512_shuffle_epi8(_mm512_loadu_si512(rows + 8 * g), pair));
    });
    transpose_qwords(x);
    unrolled<8>([&](auto j) { _mm512_store_si512(bytes[j], x[j]); });
    for (std::uint64_t m = a.lanes; m != 0; m &= m - 1) {
      const auto lane = static_cast<std::uint32_t>(std::countr_zero(m));
      a.out[lane * a.words + w] = _mm512_test_epi8_mask(
          _mm512_load_si512(bytes[lane / 8]), bit[lane % 8]);
    }
  }
}

#pragma GCC diagnostic pop

}  // namespace

namespace detail {
extern const KernelSet kAvx512Kernels =
    make_kernel_set<Avx512Ops16, Avx512Ops8>();
}  // namespace detail

}  // namespace ldpc::simd

#endif  // LDPC_SIMD_X86
