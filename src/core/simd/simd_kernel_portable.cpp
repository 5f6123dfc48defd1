// Portable lane kernels: fixed-width int16[8] / int8[16] arrays and plain
// loops. No intrinsics — this tier compiles everywhere (and is the only
// one when LDPC_SIMD=OFF), and the fixed trip counts give the
// autovectorizer a fair shot at emitting vector code anyway. Arithmetic is
// bit-identical to the x86 tiers by construction: all of them instantiate
// the same row update.
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#include "core/simd/simd_row_update.hpp"

namespace ldpc::simd {
namespace {

/// One lane policy for both widths: kN lanes of element type T_.
template <class T_, int kN>
struct PortableOps {
  using T = T_;
  using U = std::make_unsigned_t<T>;
  static constexpr int kLanes = kN;
  struct Vec {
    T v[kLanes];
  };
  using Mask = Vec;  // -1 lanes where true
  // Every degree runs the run-time-degree row update (see with_degree),
  // and the probe a short group (see probe_pass).
  static constexpr bool kUnrolledBodies = false;

  template <class F>
  static Vec map(F f) {
    Vec r;
    for (int i = 0; i < kLanes; ++i) r.v[i] = static_cast<T>(f(i));
    return r;
  }

  static Vec load(const T* p) {
    return map([&](int i) { return p[i]; });
  }
  static void store(T* p, Vec a) {
    for (int i = 0; i < kLanes; ++i) p[i] = a.v[i];
  }
  static Vec broadcast(T x) {
    return map([&](int) { return x; });
  }
  static Vec zero() { return broadcast(0); }
  static Vec add(Vec a, Vec b) {
    return map([&](int i) { return a.v[i] + b.v[i]; });
  }
  static Vec sub(Vec a, Vec b) {
    return map([&](int i) { return a.v[i] - b.v[i]; });
  }
  static int sat(int s) {
    constexpr int kHi = std::numeric_limits<T>::max();
    constexpr int kLo = std::numeric_limits<T>::min();
    return s > kHi ? kHi : (s < kLo ? kLo : s);
  }
  static Vec adds(Vec a, Vec b) {
    return map([&](int i) { return sat(a.v[i] + b.v[i]); });
  }
  static Vec subs(Vec a, Vec b) {
    return map([&](int i) { return sat(a.v[i] - b.v[i]); });
  }
  static Vec min(Vec a, Vec b) {
    return map([&](int i) { return a.v[i] < b.v[i] ? a.v[i] : b.v[i]; });
  }
  static Vec max(Vec a, Vec b) {
    return map([&](int i) { return a.v[i] > b.v[i] ? a.v[i] : b.v[i]; });
  }
  static Vec cmpgt(Vec a, Vec b) {
    return map([&](int i) { return a.v[i] > b.v[i] ? -1 : 0; });
  }
  static Vec cmpeq(Vec a, Vec b) {
    return map([&](int i) { return a.v[i] == b.v[i] ? -1 : 0; });
  }
  static Vec blend(Vec m, Vec a, Vec b) {
    return map([&](int i) { return m.v[i] != 0 ? a.v[i] : b.v[i]; });
  }
  static Vec abs(Vec a) {
    return map([&](int i) { return a.v[i] < 0 ? -a.v[i] : a.v[i]; });
  }
  static Vec xor_(Vec a, Vec b) {
    return map([&](int i) { return a.v[i] ^ b.v[i]; });
  }
  static Vec or_(Vec a, Vec b) {
    return map([&](int i) { return a.v[i] | b.v[i]; });
  }
  static Vec and_(Vec a, Vec b) {
    return map([&](int i) { return a.v[i] & b.v[i]; });
  }
  static Mask mask_xor(Mask a, Mask b) { return xor_(a, b); }
  template <int kShift>
  static Vec srl(Vec a) {
    return map([&](int i) { return static_cast<U>(a.v[i]) >> kShift; });
  }
  template <int kShift>
  static Vec sll(Vec a) {
    return map([&](int i) {
      return static_cast<U>(static_cast<U>(a.v[i]) << kShift);
    });
  }
  static Vec mullo(Vec a, Vec b) {
    return map([&](int i) {
      return static_cast<U>(static_cast<std::int32_t>(a.v[i]) * b.v[i]);
    });
  }
  static Vec mulhi(Vec a, Vec b) {
    return map([&](int i) {
      return (static_cast<std::int32_t>(a.v[i]) * b.v[i]) >>
             (8 * sizeof(T));
    });
  }
  // A 64-bit word at a time: each lane's sign bit shifts down to the
  // lane's lowest bit, and one multiply gathers those bits, lane i to bit
  // i, into the word's top kPerWord bits. The partial products land on
  // distinct bits, so nothing carries. Where lane i sits in the loaded
  // word depends on the byte order, and so does the multiplier.
  static constexpr int kPerWord = 8 / sizeof(T);
  static constexpr std::uint64_t kLowBits = ~std::uint64_t{0} / U(-1);
  static constexpr std::uint64_t kGather = [] {
    constexpr int kBits = 8 * sizeof(T);
    std::uint64_t m = 0;
    for (int j = 0; j < kPerWord; ++j)
      m |= std::uint64_t{1} << (std::endian::native == std::endian::little
                                    ? (kBits - 1) * (j + 1)
                                    : (kBits + 1) * j + kBits - kPerWord);
    return m;
  }();
  static std::uint64_t sign_bits(Vec a) {
    std::uint64_t bits = 0;
    for (int w = 0; w < kLanes / kPerWord; ++w) {
      std::uint64_t x;
      std::memcpy(&x, a.v + w * kPerWord, sizeof(x));
      x = (x >> (8 * sizeof(T) - 1)) & kLowBits;
      bits |= (x * kGather) >> (64 - kPerWord) << (w * kPerWord);
    }
    return bits;
  }
  // Out of line: inlined into the refill pass's column loop, GCC 12 -O2
  // compiles the |s| >= 0.5 select into three instructions instead of one
  // andps, which made the int16 refill about 8% slower at 4-8 frames a
  // round.
  [[gnu::noinline]] static void quantize(const QuantizePass<T>& a) {
    detail::quantize_scalar(a, 0);
  }
  static void lane_bits(const LaneBitsPass& a) {
    detail::for_each_lane(a, [&](std::uint32_t lane, std::uint64_t* out) {
      for (std::size_t w = 0; w < a.words; ++w) {
        const std::uint64_t* rows = a.plane + w * 64;
        std::uint64_t bits = 0;
        for (std::uint32_t b = 0; b < 64; ++b)
          bits |= ((rows[b] >> lane) & 1U) << b;
        out[w] = bits;
      }
    });
  }
};

}  // namespace

namespace detail {
extern const KernelSet kPortableKernels =
    make_kernel_set<PortableOps<std::int16_t, 8>,
                    PortableOps<std::int8_t, 16>>();
}  // namespace detail

}  // namespace ldpc::simd
