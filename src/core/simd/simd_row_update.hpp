// The check-row update every SIMD pass runs — the single source of truth
// for the vectorized Algorithm 1 arithmetic of both families (Fixed16,
// Fa8) and both shapes (z-lane, batched). Each tier TU defines one LaneOps
// policy per element width and builds its KernelSet with make_kernel_set,
// so all tiers execute the same operation sequence on different widths.
//
// One row update = a reduction followed by a magnitude map:
//   stage 1 (core 1)  Q = rail(P - R) per block; min1, min2 and the sign
//                     parity across the layer, each lane its own check
//                     row: min2 = min(min2, max(min1, |Q|)), then
//                     min1 = min(min1, |Q|)
//   map               s1 = map(min1), s2 = map(min2) — hoisted out of the
//                     block loop, like the hardware's once-per-row scaler
//   stage 2 (core 2)  R' = ±(|Q_j| == min1 ? s2 : s1), P' = rail(Q + R')
//
// Stage 2 selects on the magnitude instead of the paper's min index pos1
// (the scalar references, src/hls and src/arch keep the index), and the
// choice is exact: edge pos1 has |Q_j| == min1 and gets s2 either way; any
// other edge with |Q_j| == min1 means min1 occurs twice, so min2 == min1
// and s2 == s1 under every map (3/4 shift-add, num/16, offset, staircase).
// Stage 1 thus needs no per-edge compare or blend and no index constants.
//
// LaneOps contract (Vec is a pack of kLanes values of element type T):
//   load/store (unaligned), broadcast, zero
//   add/sub           wrapping
//   adds/subs         saturating (int8 policies only)
//   srl<k>/sll<k>     logical shifts, mullo/mulhi (int16 policies only)
//   min/max           signed
//   Mask              a lane predicate: a k-register on AVX-512, elsewhere
//                     a Vec with all-ones lanes where true (Mask = Vec)
//   cmpgt/cmpeq       Mask of the lanes where a > b / a == b
//   blend(m, a, b)    m ? a : b per lane, m a Mask
//   mask_xor          lane-wise XOR of two Masks (the sign parity)
//   abs               |v| for every railed v
//   xor_/or_/and_     bitwise
//   staircase_add     optional fused s + (mag > thr ? delta : 0)
//   sub_keep(m, a, b) optional masked subtract m ? a - b : a per lane,
//                     with rail_sub's subtract (saturating for int8,
//                     wrapping for int16): an uncounted batched pass then
//                     holds r_keep as a Mask and applies it inside the
//                     subtract, not with an and_ per edge
//   kUnrolledBodies   optional; false runs the run-time-degree body at
//                     every degree (see with_degree) and the probe two
//                     vectors per group (see probe_pass)
//   sign_bits         bit i = (lane i < 0), kLanes (<= 64) bits
//   quantize          the channel quantizer (QuantizePass): one float
//                     pipeline per tier, narrowed to T
//   Refill            optional placement step of the refill pass
//                     (refill_pass): Refill(pass) builds the round's lane
//                     control; codes(llr, rows) quantizes rows
//                     [0, rows <= kLanes) of one frame into a Vec with
//                     the tier's quantizer step; place(codes, p, rows)
//                     writes each of the block's P rows once, under the
//                     mask of the taken lanes. Without it, the pass
//                     stores down each taken lane's column
//   lane_bits         a lane set's hard bits from a sign plane
//                     (LaneBitsPass), width-independent: AVX-512
//                     transposes 64 rows at a time for the whole set, the
//                     other tiers run their one-lane body per lane
//                     (for_each_lane)
//   load_split        optional; the probe's straddling load: 64-bit words
//                     [0, split) from head, [split, W) from tail[0 ..)
//                     (AVX-512: a masked load and an expanding load).
//                     Without it, a two-part copy through the stack
//
// The int8 policy also runs the parity probe (probe_pass): its Vec is read
// as W = kLanes / 8 plane words, with load/store, xor_, or_ and and_.
//
// What differs by width lives in Width<T> below; what differs by family is
// the magnitude map (MagnitudeMap); what differs by shape is addressing
// (ZLaneRow / BatchRow). Everything else is shared.
//
// The layer degree is a template parameter of the row update: the
// uncounted entries pick an instantiation for each degree in
// kSpecializedDegrees (simd_kernel.hpp), where the edge loop unrolls and Q
// plus each edge's P/R pointers stay in registers; kDeg = 0 reads the
// degree at run time, keeps Q in the row's scratch and serves every other
// degree, every counted pass and every pass of the portable tier.
//
// The batched pass carries each edge's P and R row pointers across the
// layer (batch_pass): set once per pass, they take the shared row offset
// at each step, and a block's P pointer rewinds by z rows at its wrap row
// z - shift, where the pass splits its row loop. A row step so loads no
// block descriptor and tests no wrap. The pointers are locals at a
// constant degree and the pass's pointer scratch at the run-time one.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "core/simd/simd_kernel.hpp"

namespace ldpc::simd::detail {

/// Per-width policy.
///
/// int16 (Fixed16): the dispatcher only routes formats with total_bits
/// <= 15 here, so |P|,|R| <= 2^14 and P - R, Q + R' fit int16 exactly;
/// the wrapping result is clamped to the format rails. Clip counters
/// accumulate in int16 lanes across a whole pass (callers keep the
/// geometry inside counters_fit).
///
/// int8 (Fa8): every value lives on the symmetric [-127, +127] rail, so
/// abs/negate are always representable. Saturating int8 ops supply the
/// upper rail and one max() the lower. Clip counters hold at most `deg`
/// (< 128) events per row step, so they drain every step. Rows are half
/// the bytes, so the batched prefetch looks further ahead.
///
/// Both widths share one clip predicate: railed != wrapping result. For
/// int16 that is "clamped differs from exact". For int8 it is exactly
/// "exact result outside [-127, +127]": in range, railed == wrap; above
/// it, railed = 127 while wrap is negative; at or below -128, railed = -127
/// while wrap is -128 or positive.
template <class T>
struct Width;

template <>
struct Width<std::int16_t> {
  static constexpr std::uint32_t kPrefetchRows = 8;
  static constexpr bool kDrainEveryStep = simd::kDrainEveryStep<std::int16_t>;
  template <class Ops, class V>
  static V rail_sub(V a, V b, V lo, V hi) {
    return Ops::max(lo, Ops::min(hi, Ops::sub(a, b)));
  }
  /// rail_sub where m, else a (a railed value passes the clamp unchanged).
  template <class Ops, class V, class M>
  static V rail_sub_keep(M m, V a, V b, V lo, V hi) {
    return Ops::max(lo, Ops::min(hi, Ops::sub_keep(m, a, b)));
  }
  template <class Ops, class V>
  static V rail_add(V a, V b, V lo, V hi) {
    return Ops::max(lo, Ops::min(hi, Ops::add(a, b)));
  }
};

template <>
struct Width<std::int8_t> {
  static constexpr std::uint32_t kPrefetchRows = 12;
  static constexpr bool kDrainEveryStep = simd::kDrainEveryStep<std::int8_t>;
  template <class Ops, class V>
  static V rail_sub(V a, V b, V lo, V /*hi*/) {
    return Ops::max(Ops::subs(a, b), lo);
  }
  template <class Ops, class V, class M>
  static V rail_sub_keep(M m, V a, V b, V lo, V /*hi*/) {
    return Ops::max(Ops::sub_keep(m, a, b), lo);
  }
  template <class Ops, class V>
  static V rail_add(V a, V b, V lo, V /*hi*/) {
    return Ops::max(Ops::adds(a, b), lo);
  }
};

/// True when the policy has the masked subtract sub_keep.
template <class Ops>
inline constexpr bool kHasSubKeep =
    requires(typename Ops::Mask m, typename Ops::Vec v) {
      Ops::sub_keep(m, v, v);
    };

/// Calls body(i) for i = 0 .. kN - 1, each i a std::integral_constant: an
/// unrolled loop whose locals indexed by i can live in registers.
template <std::uint32_t kN, class Body>
inline void unrolled(Body&& body) {
  [&]<std::uint32_t... I>(std::integer_sequence<std::uint32_t, I...>) {
    (body(std::integral_constant<std::uint32_t, I>{}), ...);
  }(std::make_integer_sequence<std::uint32_t, kN>{});
}

/// Calls body(i) like unrolled, stopping after the first call that returns
/// false.
template <std::uint32_t kN, class Body>
inline void unrolled_while(Body&& body) {
  [&]<std::uint32_t... I>(std::integer_sequence<std::uint32_t, I...>) {
    (body(std::integral_constant<std::uint32_t, I>{}) && ...);
  }(std::make_integer_sequence<std::uint32_t, kN>{});
}

template <class Ops, class Map>
struct MagnitudeMap;

/// Fixed16 map: scale_three_quarters, num/16 or offset, with the same
/// truncation as LayerRowKernel::scale.
template <class Ops>
struct MagnitudeMap<Ops, ScaleMap> {
  using V = typename Ops::Vec;
  static constexpr bool kInAlphabet = false;  ///< R' needs the rail clamp

  explicit MagnitudeMap(const ScaleMap& m)
      : mode(m.mode),
        num(Ops::broadcast(m.scale_num)),
        offset(Ops::broadcast(m.offset_code)) {}

  V operator()(V mag) const {
    switch (mode) {
      case ScaleMode::kThreeQuarters:
        // Each shift truncates separately, exactly like the hardware
        // shift-add.
        return Ops::add(Ops::template srl<1>(mag), Ops::template srl<2>(mag));
      case ScaleMode::kNumOver16: {
        // mag <= 2^14, num <= 16: the 32-bit product is < 2^19, so the
        // truncating divide is a logical shift of the {mulhi:mullo} pair.
        // Both factors are non-negative, so the signed high half equals
        // the unsigned one.
        const V lo = Ops::mullo(mag, num);
        const V hi = Ops::mulhi(mag, num);
        return Ops::or_(Ops::template srl<4>(lo), Ops::template sll<12>(hi));
      }
      case ScaleMode::kOffset:
        // mag - offset >= -2^15 + 1, no wrap.
        return Ops::max(Ops::zero(), Ops::sub(mag, offset));
    }
    return Ops::zero();  // unreachable
  }

  ScaleMode mode;
  V num;
  V offset;
};

/// Fa8 map: the staircase lookup (see StaircaseMap). A policy may provide
/// staircase_add(s, mag, thr, delta) to fuse the compare/mask/add step
/// (AVX-512 does it in two masked instructions); either way each step is
/// s + ((mag > thr) ? delta : 0) exactly. The steps unroll to
/// kFaMaxThresholds with num_thr as the exit, so each threshold and delta
/// is a register where the tier has enough of them, not a reload from the
/// map. The output is a table entry, so R' needs no clamp and r_clips
/// stays zero, like the scalar FaRowKernel.
template <class Ops>
struct MagnitudeMap<Ops, StaircaseMap> {
  using V = typename Ops::Vec;
  static constexpr bool kInAlphabet = true;

  explicit MagnitudeMap(const StaircaseMap& m)
      : recon0(Ops::load(m.recon0_lanes)), num_thr(m.num_thr) {
    unrolled<kFaMaxThresholds>([&](auto t) {
      const bool used = t < num_thr;
      thr[t] = used ? Ops::load(m.thr_lanes + t * Ops::kLanes) : Ops::zero();
      delta[t] =
          used ? Ops::load(m.delta_lanes + t * Ops::kLanes) : Ops::zero();
    });
  }

  V operator()(V mag) const {
    V s = recon0;
    unrolled_while<kFaMaxThresholds>([&](auto t) {
      if (t >= num_thr) return false;
      if constexpr (requires { Ops::staircase_add(s, mag, thr[t], delta[t]); })
        s = Ops::staircase_add(s, mag, thr[t], delta[t]);
      else
        s = Ops::add(s, Ops::and_(Ops::cmpgt(mag, thr[t]), delta[t]));
      return true;
    });
    return s;
  }

  V recon0;
  V thr[kFaMaxThresholds];
  V delta[kFaMaxThresholds];
  std::uint32_t num_thr;
};

/// Pass-wide constants and the in-register clip counters.
template <class Ops>
struct Lanes {
  using V = typename Ops::Vec;
  using T = typename Ops::T;

  Lanes(T lo_code, T hi_code)
      : lo(Ops::broadcast(lo_code)),
        hi(Ops::broadcast(hi_code)),
        zero(Ops::zero()),
        ones(Ops::broadcast(static_cast<T>(-1))),
        // The type maximum is the min1/min2 sentinel: every railed |Q| is
        // no larger, so after one edge min1 is that edge's |Q|, like the
        // scalar kernel's huge sentinel.
        sentinel(Ops::broadcast(std::numeric_limits<T>::max())),
        q_clips(zero),
        r_clips(zero),
        p_clips(zero) {}

  /// Count one event in every lane where railed != exact (and `live`).
  static V count(V acc, V railed, V exact, V live) {
    return Ops::blend(Ops::cmpeq(railed, exact), acc, Ops::sub(acc, live));
  }

  /// Move the counters into long long sinks, per lane or summed.
  void drain(long long* q, long long* r, long long* p, bool per_lane) {
    add_lanes(q_clips, q, per_lane);
    add_lanes(r_clips, r, per_lane);
    add_lanes(p_clips, p, per_lane);
    q_clips = r_clips = p_clips = zero;
  }

  template <class Acc>
  static void add_lanes(V v, Acc* sink, bool per_lane) {
    T tmp[Ops::kLanes];
    Ops::store(tmp, v);
    for (int f = 0; f < Ops::kLanes; ++f) sink[per_lane ? f : 0] += tmp[f];
  }

  V lo, hi, zero, ones, sentinel;
  V q_clips, r_clips, p_clips;
};

/// z-lane addressing: lane i of step c is check row c + i of the layer,
/// posteriors pre-rotated by the caller. Pad lanes are provably clip-free,
/// so clip events need no lane mask. The row views hold copies of the pass
/// fields: stores through int8 pointers may alias anything, so fields read
/// through the pass reference would be reloaded after every store.
template <class Ops>
struct ZLaneRow {
  using T = typename Ops::T;
  using V = typename Ops::Vec;
  static constexpr bool kKeepMask = false;
  T* p_;
  T* q_;
  T* r_;
  const std::uint32_t* r_base;
  std::uint32_t z_pad;
  std::uint32_t c;
  V all;

  T* p(std::uint32_t j) const { return p_ + j * z_pad + c; }
  T* q(std::uint32_t j) const { return q_ + j * z_pad + c; }
  T* r(std::uint32_t j) const { return r_ + r_base[j] + c; }
  V keep_r(V r) const { return r; }
  void prefetch(const T*, const T*) const {}
  V live() const { return all; }
};

/// The type of BatchRow::r_keep: the tier's Mask or its Vec. (A vector
/// type as a template argument drops its attributes, so the policy is the
/// argument.)
template <class Ops, bool kKeepMask>
struct KeepType {
  using type = typename Ops::Vec;
};
template <class Ops>
struct KeepType<Ops, true> {
  using type = typename Ops::Mask;
};

/// Batched addressing: lane f is frame f, one check row of the layer per
/// step. p_rows / r_rows hold each edge's P and R pointers for the current
/// segment of the pass (batch_pass sets and rewinds them); a step adds the
/// shared row offset `off` (row * F). With kKeepMask, r_keep is the tier's
/// lane Mask and the row update subtracts R under it (sub_keep); else it
/// is a lane vector ANDed into each R load.
template <class Ops, bool kKeepMask_>
struct BatchRow {
  using T = typename Ops::T;
  using V = typename Ops::Vec;
  static constexpr std::size_t kF = Ops::kLanes;
  static constexpr bool kKeepMask = kKeepMask_;
  T* const* p_rows;
  T* const* r_rows;
  T* q_;
  std::size_t off;
  V active;
  typename KeepType<Ops, kKeepMask>::type r_keep;

  T* p(std::uint32_t j) const { return p_rows[j] + off; }
  T* q(std::uint32_t j) const { return q_ + j * kF; }
  T* r(std::uint32_t j) const { return r_rows[j] + off; }
  // First-iteration lanes read R as 0 (r_keep masks the stale column);
  // stage 2 then stores the real value, so iteration 2 reads it back.
  V keep_r(V r) const { return Ops::and_(r, r_keep); }
  // Both streams advance one F-lane row per z-step; with ~2 * deg
  // concurrent streams the hardware prefetcher gives up, so fetch a few
  // rows ahead by hand. The look-ahead can run past a wrap or the last
  // row — the arrays carry kBatchPrefetchPad padding rows.
  void prefetch(const T* pj, const T* rj) const {
    constexpr std::size_t kAhead = Width<T>::kPrefetchRows * kF;
    __builtin_prefetch(pj + kAhead, 1);
    __builtin_prefetch(rj + kAhead, 1);
  }
  V live() const { return active; }
};

/// Runs body(j) for every edge j of a row: a loop over the run-time degree
/// when kDeg is 0, else kDeg calls with constant j, so per-edge locals
/// indexed by j can live in registers.
template <std::uint32_t kDeg, class Body>
inline void for_each_edge(std::uint32_t deg, Body&& body) {
  if constexpr (kDeg == 0) {
    for (std::uint32_t j = 0; j < deg; ++j) body(j);
  } else {
    unrolled<kDeg>(body);
  }
}

/// One check-row step. kDeg > 0 is the layer degree as a constant: Q and
/// each edge's P/R pointers are kept from stage 1 for stage 2. kDeg = 0
/// takes `deg` at run time: Q goes through the row's scratch and stage 2
/// recomputes the pointers. Each edge runs the same operations in the same
/// order either way. Stage 2 gives s2 to the edges whose |Q| is min1 (see
/// the file comment for why that equals the paper's pos1 select).
template <class Ops, bool kCount, std::uint32_t kDeg, class Row, class Map>
inline void row_update(const Row& row, std::uint32_t deg, const Map& map,
                       Lanes<Ops>& k) {
  using V = typename Ops::Vec;
  using M = typename Ops::Mask;
  using T = typename Ops::T;
  using W = Width<T>;
  static_assert(kDeg == 0 || kDeg >= 2, "a specialized degree has extrinsics");
  constexpr std::uint32_t kKept = kDeg == 0 ? 1 : kDeg;
  V q_kept[kKept];
  T* p_kept[kKept];
  T* r_kept[kKept];
  V min1 = k.sentinel;
  V min2 = k.sentinel;
  M signs{};
  static_assert(!(kCount && Row::kKeepMask), "counted passes AND r_keep");
  for_each_edge<kDeg>(deg, [&](std::uint32_t j) {
    T* const pj = row.p(j);
    T* const rj = row.r(j);
    row.prefetch(pj, rj);
    const V p = Ops::load(pj);
    V q;
    if constexpr (Row::kKeepMask) {
      q = W::template rail_sub_keep<Ops>(row.r_keep, p, Ops::load(rj), k.lo,
                                         k.hi);
    } else {
      const V r = row.keep_r(Ops::load(rj));
      q = W::template rail_sub<Ops>(p, r, k.lo, k.hi);
      if constexpr (kCount)
        k.q_clips = k.count(k.q_clips, q, Ops::sub(p, r), row.live());
    }
    if constexpr (kDeg == 0) {
      Ops::store(row.q(j), q);
    } else {
      q_kept[j] = q;
      p_kept[j] = pj;
      r_kept[j] = rj;
    }
    const V mag = Ops::abs(q);
    min2 = Ops::min(min2, Ops::max(min1, mag));
    min1 = Ops::min(min1, mag);
    signs = Ops::mask_xor(signs, Ops::cmpgt(k.zero, q));
  });

  // Degree < 2 (run-time body only): no extrinsic input, R' = 0 before any
  // clamp — the scalar kernels return early, so no clip event either.
  const bool degenerate = kDeg == 0 && deg < 2;
  const V s1 = degenerate ? k.zero : map(min1);
  const V s2 = degenerate ? k.zero : map(min2);

  for_each_edge<kDeg>(deg, [&](std::uint32_t j) {
    T* pj;
    T* rj;
    V q;
    if constexpr (kDeg == 0) {
      pj = row.p(j);
      rj = row.r(j);
      q = Ops::load(row.q(j));
    } else {
      pj = p_kept[j];
      rj = r_kept[j];
      q = q_kept[j];
    }
    V r_new = k.zero;
    if (!degenerate) {
      const V mag = Ops::blend(Ops::cmpeq(Ops::abs(q), min1), s2, s1);
      const M neg = Ops::mask_xor(signs, Ops::cmpgt(k.zero, q));
      const V val = Ops::blend(neg, Ops::sub(k.zero, mag), mag);
      if constexpr (Map::kInAlphabet) {
        r_new = val;
      } else {
        r_new = Ops::max(k.lo, Ops::min(k.hi, val));
        if constexpr (kCount)
          k.r_clips = k.count(k.r_clips, r_new, val, row.live());
      }
    }
    Ops::store(rj, r_new);
    const V p_new = W::template rail_add<Ops>(q, r_new, k.lo, k.hi);
    if constexpr (kCount)
      k.p_clips = k.count(k.p_clips, p_new, Ops::add(q, r_new), row.live());
    Ops::store(pj, p_new);
  });
}

// The passes are flattened: the row update, the maps and the lane ops must
// inline into one loop nest with the pass constants in registers. At -O2
// GCC otherwise leaves the portable tier's array-of-lanes helpers out of
// line, passing every vector through memory.
template <class Ops, bool kCount, std::uint32_t kDeg, class MapArgs>
[[gnu::flatten]] void zlane_pass(const ZLanePass<typename Ops::T, MapArgs>& a) {
  using W = Width<typename Ops::T>;
  Lanes<Ops> k(a.lo, a.hi);
  const MagnitudeMap<Ops, MapArgs> map(a.map);
  const auto drain = [&] {
    k.drain(&a.stats->q_clips, &a.stats->r_clips, &a.stats->p_clips, false);
  };
  for (std::uint32_t c = 0; c < a.z_pad; c += Ops::kLanes) {
    row_update<Ops, kCount, kDeg>(
        ZLaneRow<Ops>{a.p, a.q, a.r, a.r_base, a.z_pad, c, k.ones}, a.deg, map,
        k);
    if constexpr (kCount && W::kDrainEveryStep) drain();
  }
  if constexpr (kCount && !W::kDrainEveryStep) drain();
}

template <class Ops, bool kCount, std::uint32_t kDeg, class MapArgs>
[[gnu::flatten]] void batch_pass(const BatchPass<typename Ops::T, MapArgs>& a) {
  using T = typename Ops::T;
  using W = Width<T>;
  constexpr std::size_t kF = Ops::kLanes;
  Lanes<Ops> k(a.lo, a.hi);
  const MagnitudeMap<Ops, MapArgs> map(a.map);
  const typename Ops::Vec active = Ops::load(a.active);
  // An uncounted pass on a tier with sub_keep holds r_keep as a Mask.
  constexpr bool kKeepMask = !kCount && kHasSubKeep<Ops>;
  using Row = BatchRow<Ops, kKeepMask>;
  const auto r_keep = [&] {
    const typename Ops::Vec keep = Ops::load(a.r_keep);
    if constexpr (kKeepMask)
      return Ops::cmpgt(k.zero, keep);
    else
      return keep;
  }();
  const auto drain = [&] { k.drain(a.q_clips, a.r_clips, a.p_clips, true); };
  const std::uint32_t z = a.z;
  const std::uint32_t deg = a.deg;
  const BatchBlock* const blocks = a.blocks;
  // Each edge's P and R pointers at row 0 (P row p_base + shift), in
  // locals at a constant degree, else in the pass's pointer scratch.
  constexpr std::uint32_t kKept = kDeg == 0 ? 1 : kDeg;
  T* p_kept[kKept];
  T* r_kept[kKept];
  T** const p_rows = kDeg == 0 ? a.p_rows : p_kept;
  T** const r_rows = kDeg == 0 ? a.r_rows : r_kept;
  for_each_edge<kDeg>(deg, [&](std::uint32_t j) {
    const BatchBlock& b = blocks[j];
    p_rows[j] = a.p + static_cast<std::size_t>(b.p_base + b.shift) * kF;
    r_rows[j] = a.r + static_cast<std::size_t>(b.r_base) * kF;
  });
  // The rows run in segments split at each block's wrap row z - shift,
  // where its rotated row returns to 0 and its P pointer rewinds by z rows.
  // Blocks that share a shift rewind at the same row; a shift of 0 never
  // wraps.
  std::uint32_t row = 0;
  for (;;) {
    std::uint32_t end = z;
    for_each_edge<kDeg>(deg, [&](std::uint32_t j) {
      const std::uint32_t wrap = z - blocks[j].shift;
      if (wrap > row && wrap < end) end = wrap;
    });
    for (; row < end; ++row) {
      row_update<Ops, kCount, kDeg>(
          Row{p_rows, r_rows, a.q, row * kF, active, r_keep}, deg, map, k);
      if constexpr (kCount && W::kDrainEveryStep) drain();
    }
    if (row == z) break;
    for_each_edge<kDeg>(deg, [&](std::uint32_t j) {
      if (z - blocks[j].shift == row) p_rows[j] -= std::size_t{z} * kF;
    });
  }
  if constexpr (kCount && !W::kDrainEveryStep) drain();
}

/// The sign pass (SignPass): per_word / kLanes vector loads per word, each
/// contributing its lanes' sign bits.
template <class Ops>
[[gnu::flatten]] void sign_pass(const SignPass<typename Ops::T>& a) {
  constexpr std::uint32_t kF = Ops::kLanes;
  const auto* p = a.p;
  for (std::size_t w = 0; w < a.words; ++w) {
    std::uint64_t bits = 0;
    for (std::uint32_t c = 0; c < a.per_word; c += kF, p += kF)
      bits |= Ops::sign_bits(Ops::load(p)) << c;
    a.out[w] = bits;
  }
}

/// Calls body(lane, out) for each lane of a LaneBitsPass's set, with `out`
/// the lane's words of the output: the lane-set extraction of the tiers
/// whose body reads one lane at a time.
template <class Body>
inline void for_each_lane(const LaneBitsPass& a, Body&& body) {
  for (std::uint64_t m = a.lanes; m != 0; m &= m - 1) {
    const auto lane = static_cast<std::uint32_t>(std::countr_zero(m));
    body(lane, a.out + lane * a.words);
  }
}

/// The probe's load of plane words [0, split) from head and [split, W)
/// from tail: the policy's load_split, or a two-part copy.
template <class Ops>
inline typename Ops::Vec load_split(const std::uint64_t* head,
                                    const std::uint64_t* tail,
                                    std::uint32_t split) {
  using T = typename Ops::T;
  if constexpr (requires { Ops::load_split(head, tail, split); }) {
    return Ops::load_split(head, tail, split);
  } else {
    constexpr std::uint32_t kW = Ops::kLanes * sizeof(T) / 8;
    std::uint64_t buf[kW];
    for (std::uint32_t i = 0; i < split; ++i) buf[i] = head[i];
    for (std::uint32_t i = split; i < kW; ++i) buf[i] = tail[i - split];
    return Ops::load(reinterpret_cast<const T*>(buf));
  }
}

/// The policy's kUnrolledBodies, true when it sets none.
template <class Ops>
constexpr bool unrolled_bodies() {
  if constexpr (requires { Ops::kUnrolledBodies; })
    return Ops::kUnrolledBodies;
  return true;
}

/// The parity probe (ProbePass), one vector of W plane words = W check
/// rows at a time. For each layer, groups of kGroup row vectors sit in
/// register accumulators while every block XORs its rotated words into
/// them. Block (p_base, shift) gives rows [c, c + W) the words at
/// p_base + shift + c while c lies before its wrap row z - shift, and z
/// words lower from the wrap row on: both contiguous loads. A block so
/// splits a group into a run of vectors before its wrap and a run after,
/// and one dispatch on the split (a jump table over kGroup + 1
/// straight-line bodies) replaces a test per vector. The one vector per
/// block that straddles the wrap row read its tail past the column's
/// wrap; a correction, the XOR of that load and the two-part one
/// (load_split), goes into a per-group slot that the accumulators take
/// after the blocks. Words read for rows past z are cleared before the
/// OR; they lie in the block's column, the next one or the plane's
/// kProbePadWords of slack.
template <class Ops>
[[gnu::flatten]] std::uint64_t probe_pass(const ProbePass& a) {
  using T = typename Ops::T;
  using V = typename Ops::Vec;
  constexpr std::uint32_t kW = Ops::kLanes * sizeof(T) / 8;
  // Vectors per group: 96 rows (the largest registered z) on AVX-512, 8
  // vectors on the tiers with 16 vector registers, and 2 where the vectors
  // are arrays in memory (kUnrolledBodies = false): there an 8-vector
  // group's 9 straight-line bodies cost a third of the TU's compile time
  // and overrun GCC's variable tracking under ASan, for a pass that runs
  // once per round.
  constexpr std::uint32_t kGroup =
      !unrolled_bodies<Ops>() ? 2 : kW == 8 ? 12 : 8;
  static_assert(kW >= 1 && kW <= kProbePadWords);
  const auto words = [](const std::uint64_t* w) {
    return Ops::load(reinterpret_cast<const T*>(w));
  };
  const std::uint32_t z = a.z;
  // The rows of a layer's last vector that lie below z.
  std::uint64_t tail_words[kW];
  for (std::uint32_t i = 0; i < kW; ++i)
    tail_words[i] = i < z % kW || z % kW == 0 ? ~std::uint64_t{0} : 0;
  const V tail = words(tail_words);
  V unsat = Ops::zero();
  // One group of row vectors from row c0, every vector below z when kFull.
  const auto group = [&]<bool kFull>(const BatchBlock* first,
                                     const BatchBlock* last, std::uint32_t c0,
                                     std::uint64_t* rows) {
    V acc[kGroup];
    V fix[kGroup];
    unrolled<kGroup>([&](auto i) { acc[i] = fix[i] = Ops::zero(); });
    for (const BatchBlock* b = first; b != last; ++b) {
      const std::uint64_t* const col = a.plane + b->p_base;
      const std::uint32_t shift = b->shift;
      // Rows of this group before the block's wrap row; a shift of 0
      // never wraps.
      const std::int64_t before =
          (shift == 0 ? std::int64_t{z} + kGroup * kW
                      : std::int64_t{z} - shift) -
          c0;
      const std::uint64_t* const pre = col + shift + c0;
      // Vectors [0, kPre) start before the wrap row, the rest after it.
      const auto run = [&]<std::uint32_t kPre>() {
        unrolled<kGroup>([&](auto i) {
          if (!kFull && c0 + i * kW >= z) return;
          const std::uint64_t* const w = pre + i * kW;
          acc[i] = Ops::xor_(acc[i], words(i < kPre ? w : w - z));
        });
      };
      const auto pre_vectors = static_cast<std::uint32_t>(
          std::clamp<std::int64_t>((before + kW - 1) / kW, 0, kGroup));
      [&]<std::uint32_t... kPre>(
          std::integer_sequence<std::uint32_t, kPre...>) {
        (void)((pre_vectors == kPre &&
                (run.template operator()<kPre>(), true)) ||
               ...);
      }(std::make_integer_sequence<std::uint32_t, kGroup + 1>{});
      if (before > 0 && before < std::int64_t{kGroup} * kW &&
          before % kW != 0) {
        const auto i = static_cast<std::uint32_t>(before / kW);
        const std::uint64_t* const head = pre + i * kW;
        fix[i] = Ops::xor_(
            fix[i], Ops::xor_(words(head),
                              load_split<Ops>(head, col,
                                              static_cast<std::uint32_t>(
                                                  before % kW))));
      }
    }
    unrolled<kGroup>([&](auto i) {
      const std::uint32_t c = c0 + i * kW;
      if (!kFull && c >= z) return;
      V v = Ops::xor_(acc[i], fix[i]);
      if (!kFull && c + kW > z) v = Ops::and_(v, tail);
      unsat = Ops::or_(unsat, v);
      if (rows != nullptr) Ops::store(reinterpret_cast<T*>(rows + c), v);
    });
  };
  for (std::uint32_t l = 0; l < a.layers; ++l) {
    const BatchBlock* const first = a.blocks + a.layer_start[l];
    const BatchBlock* const last = a.blocks + a.layer_start[l + 1];
    std::uint64_t* const rows =
        a.rows == nullptr ? nullptr : a.rows + std::size_t{l} * z;
    for (std::uint32_t c0 = 0; c0 < z; c0 += kGroup * kW) {
      if (c0 + kGroup * kW <= z)
        group.template operator()<true>(first, last, c0, rows);
      else
        group.template operator()<false>(first, last, c0, rows);
    }
  }
  std::uint64_t lanes[kW];
  Ops::store(reinterpret_cast<T*>(lanes), unsat);
  std::uint64_t mask = 0;
  for (const std::uint64_t w : lanes) mask |= w;
  return mask;
}

/// Scalar body of the channel quantizer (see QuantizeGrid), for both
/// widths: the portable tier's whole pass, the SSE2 and AVX2 tail loop and
/// every counted refill. Returns the codes that lay outside [lo, hi] before
/// the rail clamp when kCount (the counted scalar quantizers' clips), else
/// 0. `static`: every tier TU gets its own copy, compiled for that TU's
/// ISA.
template <bool kCount = false, class T>
static inline long long quantize_scalar(const QuantizePass<T>& a,
                                        std::size_t v0) {
  const QuantizeGrid<T> g = a.grid;
  long long clips = 0;
  for (std::size_t v = v0; v < a.n; ++v) {
    float s = a.llr[v] * g.fscale;
    s = std::fabs(s) >= 0.5F ? s : 0.0F;  // NaN and |s| < 0.5 code 0
    s = s > g.fhi ? g.fhi : s;
    s = s < g.flo ? g.flo : s;
    const std::int32_t t =
        static_cast<std::int32_t>(s + std::copysign(0.5F, s));
    if constexpr (kCount) clips += t > g.hi || t < g.lo ? 1 : 0;
    a.out[v] = static_cast<T>(t > g.hi ? g.hi : (t < g.lo ? g.lo : t));
  }
  return clips;
}

/// Prefetches `count` elements from `first` on, one request per cache
/// line; kWrite = 1 fetches them for writing.
template <int kWrite, class T>
inline void prefetch_span(const T* first, std::size_t count) {
  const char* c = reinterpret_cast<const char*>(first);
  for (const char* const end = c + count * sizeof(T); c < end; c += 64)
    __builtin_prefetch(c, kWrite);
}

/// Refill by column (RefillPass): in blocks of 64 rows, quantize each
/// slot's block into a stack buffer, then store the codes down the slot's
/// lane. The block's P lines stay in L1 while every slot writes them; the
/// next block's P lines and LLRs are fetched meanwhile. A counted pass
/// quantizes with the scalar body and counts each slot's clips.
template <class Ops, bool kCount>
inline void refill_columns(const RefillPass<typename Ops::T>& a) {
  using T = typename Ops::T;
  constexpr std::size_t kF = Ops::kLanes;
  constexpr std::size_t kRows = 64;
  T* const p = a.p;
  const std::size_t n = a.n;
  const QuantizeGrid<T> grid = a.grid;
  T codes[kRows];
  for (std::size_t v0 = 0; v0 < n; v0 += kRows) {
    const std::size_t rows = std::min(kRows, n - v0);
    const std::size_t next = std::min(kRows, n - v0 - rows);
    prefetch_span<1>(p + (v0 + rows) * kF, next * kF);
    for (std::uint32_t k = 0; k < a.count; ++k) {
      prefetch_span<0>(a.llr[k] + v0 + rows, next);
      const QuantizePass<T> q{a.llr[k] + v0, codes, rows, grid};
      if constexpr (kCount)
        a.clips[k] += quantize_scalar<true>(q, 0);
      else
        Ops::quantize(q);
      T* const dst = p + v0 * kF + a.lane[k];
#pragma GCC unroll 8
      for (std::size_t i = 0; i < rows; ++i) dst[i * kF] = codes[i];
    }
  }
}

/// One round of an in-register transpose within each 128-bit lane: x[i]
/// becomes lo(x[2i], x[2i + 1]) and x[i + kN / 2] hi(x[2i], x[2i + 1]),
/// where lo / hi interleave the low / high halves of two vectors at one
/// element width. log2(kN) rounds at widths 1, 2, 4, ... elements
/// transpose kN vectors of kN-element lanes: element r of a lane of x[k]
/// ends up as element k of the same lane of x[bit_reverse<kN>(r)].
template <std::uint32_t kN, class V, class Lo, class Hi>
inline void unpack_round(V (&x)[kN], Lo lo, Hi hi) {
  V y[kN];
  unrolled<kN / 2>([&](auto i) {
    y[i] = lo(x[2 * i], x[2 * i + 1]);
    y[i + kN / 2] = hi(x[2 * i], x[2 * i + 1]);
  });
  unrolled<kN>([&](auto i) { x[i] = y[i]; });
}

/// i with its log2(kN) low bits reversed.
template <std::uint32_t kN>
constexpr std::uint32_t bit_reverse(std::uint32_t i) {
  std::uint32_t r = 0;
  for (std::uint32_t b = 1; b < kN; b <<= 1, i >>= 1) r = (r << 1) | (i & 1U);
  return r;
}

/// The refill pass (RefillPass). A policy with a placement step,
/// Ops::Refill, refills by row: per block of kLanes rows it quantizes each
/// taken slot's rows into one Vec (Refill::codes, the tier's quantizer
/// step), and Refill::place transposes the slots into rows in registers
/// and writes each P row once, under the mask of the taken lanes. Slots
/// past `count` are zero and land nowhere. Each slot's next block of
/// LLRs is fetched meanwhile; the P rows are not (the masked row stores
/// stream through them, and fetching a block ahead measured slower).
/// Other policies, and every counted pass, refill by column.
template <class Ops>
[[gnu::flatten]] void refill_pass(const RefillPass<typename Ops::T>& a) {
  if (a.clips != nullptr) {
    refill_columns<Ops, true>(a);
    return;
  }
  if constexpr (requires { typename Ops::Refill; }) {
    using T = typename Ops::T;
    using V = typename Ops::Vec;
    constexpr std::size_t kF = Ops::kLanes;
    const typename Ops::Refill step(a);
    T* const p = a.p;
    const std::size_t n = a.n;
    const std::uint32_t count = a.count;
    for (std::size_t v0 = 0; v0 < n; v0 += kF) {
      const auto rows = static_cast<std::uint32_t>(std::min(kF, n - v0));
      const std::size_t next = std::min(kF, n - v0 - rows);
      V codes[kRefillSlots];
      unrolled<kRefillSlots>([&](auto k) {
        if (k >= count) {
          codes[k] = Ops::zero();
          return;
        }
        const float* const llr = a.llr[k] + v0;
        prefetch_span<0>(llr + rows, next);
        codes[k] = step.codes(llr, rows);
      });
      step.place(codes, p + v0 * kF, rows);
    }
  } else {
    refill_columns<Ops, false>(a);
  }
}

/// Calls run.template operator()<kDeg>() once: kDeg = deg when deg is in
/// kSpecializedDegrees, else kDeg = 0, the run-time-degree body. A policy
/// with kUnrolledBodies = false always gets kDeg = 0: the portable tier's
/// lanes are arrays in memory, and GCC's alias analysis over an unrolled
/// body of them took minutes per degree to compile (the whole list: 4 s ->
/// 120 s at -O2, over 20 minutes with ASan) for a few percent.
template <class Ops, class Run>
inline void with_degree(std::uint32_t deg, Run&& run) {
  if constexpr (!unrolled_bodies<Ops>()) {
    run.template operator()<0>();
    return;
  }
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    const bool specialized =
        ((deg == kSpecializedDegrees[I] &&
          (run.template operator()<kSpecializedDegrees[I]>(), true)) ||
         ...);
    if (!specialized) run.template operator()<0>();
  }(std::make_index_sequence<kSpecializedDegrees.size()>{});
}

// Counted passes serve tests and diagnostics, so they stay on the run-time
// body: instantiating them per degree would double the kernels' code size.
template <class Ops, class MapArgs>
void zlane_entry(const ZLanePass<typename Ops::T, MapArgs>& a) {
  if (a.count_clips)
    zlane_pass<Ops, true, 0>(a);
  else
    with_degree<Ops>(a.deg, [&]<std::uint32_t kDeg>() {
      zlane_pass<Ops, false, kDeg>(a);
    });
}

template <class Ops, class MapArgs>
void batch_entry(const BatchPass<typename Ops::T, MapArgs>& a) {
  if (a.count_clips)
    batch_pass<Ops, true, 0>(a);
  else
    with_degree<Ops>(a.deg, [&]<std::uint32_t kDeg>() {
      batch_pass<Ops, false, kDeg>(a);
    });
}

/// The five passes of one family from its lane policy.
template <class Ops, class MapArgs>
constexpr ShapeKernels<typename Ops::T, MapArgs> shape_kernels() {
  return {&zlane_entry<Ops, MapArgs>, &batch_entry<Ops, MapArgs>,
          &sign_pass<Ops>, &Ops::quantize, &refill_pass<Ops>};
}

/// A tier's KernelSet from its int16 and int8 lane policies; the int8
/// policy runs the width-independent sign-plane passes.
template <class Ops16, class Ops8>
constexpr KernelSet make_kernel_set() {
  return {shape_kernels<Ops16, ScaleMap>(),
          shape_kernels<Ops8, StaircaseMap>(), &Ops8::lane_bits,
          &probe_pass<Ops8>};
}

/// One table per compiled tier, defined in its TU.
extern const KernelSet kPortableKernels;
#ifdef LDPC_SIMD_X86
extern const KernelSet kSse2Kernels;
extern const KernelSet kAvx2Kernels;
extern const KernelSet kAvx512Kernels;
#endif

}  // namespace ldpc::simd::detail
