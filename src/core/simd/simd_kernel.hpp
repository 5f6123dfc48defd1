// Vector kernel interface for the SIMD layered min-sum decoders.
//
// One layer of the paper's schedule updates `z` independent check rows —
// the hardware instantiates z datapath copies (Fig. 3) and runs them in
// lockstep. Every SIMD decoder executes one check-row update per vector
// step (simd_row_update.hpp): a reduction (saturating Q = P - R, then
// min1/min2/sign tracking with min/max), a magnitude map of min1/min2, and
// a saturating R'/P' write-back. The row update comes in two shapes and
// two element widths:
//
//   shape    z-lane: lane r = check row r of the layer (posteriors are
//            pre-rotated into a structure-of-arrays scratch, so the
//            (row + shift) % z gather collapses into two memcpys)
//            batched: lane f = frame f of a block, z rows run serially,
//            arrays lane-major with stride F (p[v * F + f])
//   family   Fixed16: int16 lanes, scaled / offset min-sum maps, format
//            rails — bit-identical to LayeredMinSumFixedDecoder
//            Fa8: int8 lanes on the symmetric [-127, +127] rail, the
//            finite-alphabet staircase map — bit-identical to
//            LayeredMinSumFaDecoder
//
// Besides the two row-update passes, each family has three data-movement
// passes: the sign pass (hard decisions and the batched sign plane), the
// channel quantizer (the z-lane shape's frame setup) and the batched
// refill, which quantizes the frames taken into freed lanes straight into
// their lanes of P, one pass over the rows per refill round. Two more
// passes read the batched sign plane and do not depend on the element
// width: the parity probe (every lane's unsatisfied checks) and the
// lane-set extraction (the hard bits of every lane that finishes at a
// boundary).
//
// Every tier compiles the same body over its own LaneOps policies and
// publishes the result as one KernelSet (see kernels_for below):
//   kAvx512    32 int16 / 64 int8 lanes, compiled only on x86-64 with
//              LDPC_SIMD=ON, dispatched after a runtime avx512f+avx512bw check
//   kAvx2      16 / 32 lanes, same build gate, runtime avx2 check
//   kSse2      8 / 16 lanes, same build gate (baseline on every x86-64 CPU)
//   kPortable  fixed-width arrays, plain C++ the autovectorizer can chew
//              on; always compiled, the only tier when LDPC_SIMD=OFF or on
//              non-x86 hosts
// Tier selection happens once per decoder at construction (best available,
// overridable with the LDPC_SIMD_TIER environment variable or an explicit
// constructor argument).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/decoder.hpp"
#include "core/quant.hpp"

namespace ldpc::simd {

enum class SimdTier : std::uint8_t { kPortable, kSse2, kAvx2, kAvx512 };

inline const char* to_string(SimdTier t) {
  switch (t) {
    case SimdTier::kPortable: return "portable";
    case SimdTier::kSse2:     return "sse2";
    case SimdTier::kAvx2:     return "avx2";
    case SimdTier::kAvx512:   return "avx512";
  }
  return "?";
}

/// int16 lanes per vector step of a tier — the stride padding granularity
/// of the Fixed16 z-lane layout and the frames-per-block of its batched
/// decoder.
constexpr std::uint32_t tier_lanes(SimdTier t) {
  switch (t) {
    case SimdTier::kPortable: return 8;
    case SimdTier::kSse2:     return 8;
    case SimdTier::kAvx2:     return 16;
    case SimdTier::kAvx512:   return 32;
  }
  return 8;
}

/// int8 lanes per vector step of a tier (the Fa8 family): twice
/// tier_lanes() on the x86 tiers.
constexpr std::uint32_t tier_lanes8(SimdTier t) {
  switch (t) {
    case SimdTier::kPortable: return 16;
    case SimdTier::kSse2:     return 16;
    case SimdTier::kAvx2:     return 32;
    case SimdTier::kAvx512:   return 64;
  }
  return 16;
}

/// Lanes per vector step for element type T (int16_t or int8_t).
template <class T>
constexpr std::uint32_t lanes_for(SimdTier t) {
  return sizeof(T) == 1 ? tier_lanes8(t) : tier_lanes(t);
}

/// Smallest block the batched kernel decodes faster than the z-lane kernel
/// does frame by frame, for a code whose z fills the z-lane vectors exactly
/// (measured per tier with LDPC_SIMD_TIER on WiMAX 1/2 z = 96 at 2.0 dB,
/// where the int8 AVX-512 z-lane stride pads 96 to 128, so its entry is the
/// measured 10 / 0.75, rounded down; see docs/simd_kernel.md). Where no
/// block up to the lane count measured faster, the entry is the lane
/// count: a full block still starts the batched kernel, whose lanes then
/// refill from the stream. The SIMD decoder scales it by its z-lane fill
/// and decodes smaller blocks on its z-lane shape.
template <class T>
constexpr std::uint32_t batch_break_even(SimdTier t) {
  switch (t) {
    case SimdTier::kPortable: return sizeof(T) == 1 ? 14 : 8;
    case SimdTier::kSse2:     return sizeof(T) == 1 ? 12 : 6;
    case SimdTier::kAvx2:     return sizeof(T) == 1 ? 12 : 9;
    case SimdTier::kAvx512:   return 13;  // both widths
  }
  return 8;
}

/// Clip events accumulate in T lanes, at most `deg` per lane per row step.
/// int8 lanes drain them every row step, int16 lanes once per pass.
template <class T>
inline constexpr bool kDrainEveryStep = sizeof(T) == 1;

/// Layer degrees with their own uncounted row-update instantiation: every
/// layer degree of the registered codes (WiMAX 1/2: 6, 7; 2/3A: 10; 2/3B:
/// 10, 11; 3/4A/B: 14, 15; 5/6: 20; WiFi 648 / 1944: 7, 8; the alist
/// registry codes: 5, 6). At these degrees the x86 tiers' row update holds
/// Q and each edge's P/R pointers in registers; every other degree, every
/// counted pass and the portable tier run the same body with the degree
/// read at run time.
inline constexpr std::array<std::uint32_t, 9> kSpecializedDegrees = {
    5, 6, 7, 8, 10, 11, 14, 15, 20};

/// True when a pass of `steps` row steps over layers of degree <= `deg`
/// keeps the in-register clip counters exact in T. Decoders route
/// geometries outside this envelope to their scalar twin.
template <class T>
constexpr bool counters_fit(std::size_t steps, std::size_t deg) {
  return (kDrainEveryStep<T> ? 1 : steps) * deg <=
         static_cast<std::size_t>(std::numeric_limits<T>::max());
}

// ---------------------------------------------------------------------------
// Magnitude maps: the only thing the two families' check updates differ in
// besides their element width. A new correction scheme is a new map type
// here plus its vector body in simd_row_update.hpp.
// ---------------------------------------------------------------------------

/// How check-message magnitudes are corrected, mirroring LayerRowKernel:
/// the paper's 0.75 shift-add, a truncating num/16 ratio (ablation
/// sweeps), or offset min-sum max(|m| - offset, 0).
enum class ScaleMode : std::uint8_t {
  kThreeQuarters,  ///< (x>>1) + (x>>2), truncating per shift
  kNumOver16,      ///< (x * num) / 16, truncating once
  kOffset,         ///< max(x - offset, 0)
};

/// Fixed16 map parameters, uniform across lanes.
struct ScaleMap {
  ScaleMode mode = ScaleMode::kThreeQuarters;
  std::int16_t scale_num = 3;    ///< numerator for kNumOver16
  std::int16_t offset_code = 0;  ///< subtrahend for kOffset
};

/// Maximum staircase thresholds any Fa8 map carries (fa4: 8 levels - 1).
inline constexpr std::uint32_t kFaMaxThresholds = 7;

/// Fa8 map parameters: the staircase
///   recon = recon0 + sum_t (mag > thr[t] ? delta[t] : 0)
/// with delta[t] = recon[t+1] - recon[t] >= 0 and every partial sum <= 127
/// (reconstruction levels are nondecreasing), so the wrapping adds cannot
/// overflow and the output is always in-alphabet. Tables are lane-major
/// rows (num_thr rows of F lanes, one recon0 row) because batched lanes
/// sit at independent decode iterations; the z-lane shape fills every
/// lane of a row with the same value.
struct StaircaseMap {
  const std::int8_t* thr_lanes = nullptr;
  const std::int8_t* delta_lanes = nullptr;
  const std::int8_t* recon0_lanes = nullptr;
  std::uint32_t num_thr = 0;  ///< levels - 1, <= kFaMaxThresholds
};

// ---------------------------------------------------------------------------
// Pass descriptors, one per shape. T is the lane element type, Map one of
// the map parameter structs above.
// ---------------------------------------------------------------------------

/// One layer of the z-lane shape. All pointers reference lane buffers
/// padded to z_pad (a multiple of the tier's lane count); padding lanes
/// hold zeros on entry and provably generate no saturation events, so the
/// tail of a non-multiple-of-lane-width z rides in the same vector ops.
template <class T, class Map>
struct ZLanePass {
  T* p;                        ///< deg * z_pad gathered posteriors (in/out)
  T* q;                        ///< deg * z_pad Q scratch (Fig. 5's Q_array),
                               ///< used by the run-time-degree body only
  T* r;                        ///< R memory base, stride z_pad per slot
  const std::uint32_t* r_base; ///< deg offsets into `r` (multiples of z_pad)
  std::uint32_t deg;           ///< non-zero blocks in this layer; a degree
                               ///< below 2 forces R' = 0 (no extrinsic input)
  std::uint32_t z_pad;
  T lo;                        ///< lower rail
  T hi;                        ///< upper rail
  Map map;
  bool count_clips;            ///< accumulate saturation events into *stats
  /// Per-site clip counters (used iff count_clips): the Q clamp fills
  /// q_clips, the R' clamp r_clips, the P' clamp p_clips — same attribution
  /// as the scalar row kernels, so the equivalence suites compare
  /// site-for-site and the static range verifier's proofs apply unchanged.
  SaturationStats* stats;
};

/// Rows of slack the batched passes' software prefetch may touch past the
/// logical end of the posterior / check-message arrays (and past a
/// circulant wrap). Callers allocate this many extra F-lane rows.
constexpr std::uint32_t kBatchPrefetchPad = 16;

/// One non-zero block of a layer, batched view. Offsets are in rows (the
/// kernel multiplies by the lane stride F itself).
struct BatchBlock {
  std::uint32_t p_base;  ///< block_col * z into the posterior rows
  std::uint32_t shift;   ///< circulant rotation, already reduced mod z
  std::uint32_t r_base;  ///< r_slot * z into the check-message rows
};

/// One layer of the batched shape: z serial check rows, F frames in lanes.
/// Inactive lanes (retired or not-yet-filled frames) still flow through
/// the arithmetic — their stores are garbage nobody reads — but clip
/// accounting is masked by `active` so per-frame SaturationStats stay
/// exact.
template <class T, class Map>
struct BatchPass {
  T* p;                        ///< n rows * F lanes posteriors (in/out)
  T* q;                        ///< deg * F Q scratch (one row at a time),
                               ///< used by the run-time-degree body only
  T* r;                        ///< R memory, nonzero_blocks * z rows * F
  /// deg P and deg R row-pointer scratch: the run-time-degree body carries
  /// each edge's pointers here across the pass (see batch_pass).
  T** p_rows;
  T** r_rows;
  const BatchBlock* blocks;    ///< deg block descriptors
  std::uint32_t deg;           ///< non-zero blocks in this layer
  std::uint32_t z;             ///< circulant size (serial row count)
  const T* active;             ///< F lane mask, -1 = live frame, 0 = idle
  /// F lane mask: -1 = the lane's R memory is valid, 0 = the lane is in its
  /// first iteration and R reads as 0. Each R slot is read exactly once per
  /// iteration (by its own layer) and rewritten in the same row step, so
  /// masking reads for one full iteration replaces zero-filling the lane's
  /// whole R column at refill — a strided walk over every R cache line that
  /// cost more than a decode iteration. An uncounted pass on a tier with a
  /// masked subtract turns it into the tier's lane Mask once per pass.
  const T* r_keep;
  T lo;
  T hi;
  Map map;
  bool count_clips;
  /// Per-lane (= per-frame) clip accumulators, F entries each (used iff
  /// count_clips). Same per-site attribution as the scalar row kernels.
  long long* q_clips;
  long long* r_clips;
  long long* p_clips;
};

/// The sign pass of both shapes: packs the hard decisions (value < 0) of
/// words * per_word contiguous values into `words` 64-bit words, bit b of
/// out[w] = (p[w * per_word + b] < 0). The batched shape reads its sign
/// plane with per_word = F (one posterior row per word, bit f = lane f);
/// the z-lane shape packs its natural-order posteriors with per_word =
/// 64, straight into hard-decision words.
template <class T>
struct SignPass {
  const T* p;              ///< words * per_word values
  std::size_t words;
  std::uint32_t per_word;  ///< a multiple of the tier's lane count, <= 64
  std::uint64_t* out;      ///< `words` words
};

/// A lane set's hard decisions from a sign plane: for every lane in
/// `lanes`, bit b of out[lane * words + w] = bit `lane` of plane[64 w + b].
/// The plane holds words * 64 rows; rows past the code length are zero.
/// Nothing outside the set's words is written.
struct LaneBitsPass {
  const std::uint64_t* plane;
  std::size_t words;
  std::uint64_t lanes;  ///< bit f set: extract lane f
  std::uint64_t* out;   ///< 64 * words words, lane-major
};

/// Words of slack past the last sign-plane row (and past the last row
/// word) that the probe pass may read (and write): the widest vector's
/// words. Callers allocate that much more.
inline constexpr std::uint32_t kProbePadWords = 8;

/// The batched shape's parity probe over a sign plane. Check row r of a
/// layer XORs the plane words p_base + (r + shift) mod z of the layer's
/// blocks; bit f of that row word is set when lane f's check is
/// unsatisfied. The pass returns the OR of every layer's row words, the
/// mask of lanes with an unsatisfied check. With `rows` set, layer l's row
/// words also land in rows[l * z + r], so the caller can count each
/// lane's unsatisfied checks (the watchdog's syndrome weight). A layer
/// without blocks has no check rows: its words are 0.
struct ProbePass {
  const std::uint64_t* plane;        ///< the sign plane, padded
  const BatchBlock* blocks;          ///< every layer's blocks, in order
  const std::uint32_t* layer_start;  ///< layers + 1 offsets into blocks
  std::uint32_t layers;
  std::uint32_t z;
  std::uint64_t* rows;  ///< null, or layers * z words, padded
};

/// The channel quantizer's grid, shared by the quantize and refill passes:
/// float LLRs -> T codes on the grid of a FixedFormat, clamped to [lo, hi]:
/// the format's own rails for Fixed16 (bit-identical to the uncounted
/// FixedFormat::quantize) and +-kFaRail for Fa8 (to fa_quantize). Every
/// tier runs one float pipeline and narrows per width:
///
///   s = llr * fscale; s = |s| >= 0.5 ? s : 0; s = clamp(s, flo, fhi)
///   code = clamp(trunc(s + copysign(0.5, s)), lo, hi)
///
/// Exactness for every 2..16-bit format: the pre-limit to the rails +-1
/// keeps |s| <= 2^15 + 1 < 2^23, so 0.5 is a multiple of ulp(s) once
/// |s| >= 0.5. The float sum is then exact, or, where it steps into the
/// next binade 2^k, rounds to within [2^k, 2^k + 0.5] and truncates to 2^k
/// as the exact sum does: truncation is round-half-away either way. Below
/// 0.5 the sum can round up to 1.0 (s = nextafter(0.5, 0)); those lanes,
/// and NaN, whose ordered compare is false, take code 0 instead. No double
/// arithmetic is needed. The truncated sum is also the scalar quantizers'
/// code before their rail clamp (they pre-limit to the same rails +-1), so
/// a counted pass counts a clip exactly where it lies outside [lo, hi].
template <class T>
struct QuantizeGrid {
  float fscale;  ///< 1 << frac_bits
  float fhi;     ///< max_code() + 1 (pre-limit, not the rail)
  float flo;     ///< min_code() - 1
  T lo;          ///< lower rail
  T hi;          ///< upper rail
};

/// The grid of `fmt` with rails [lo, hi].
template <class T>
QuantizeGrid<T> quantize_grid(const FixedFormat& fmt, T lo, T hi) {
  return {static_cast<float>(1 << fmt.frac_bits),
          static_cast<float>(fmt.max_code()) + 1.0F,
          static_cast<float>(fmt.min_code()) - 1.0F, lo, hi};
}

/// The channel quantize pass: contiguous float LLRs -> contiguous codes
/// (the z-lane shape's frame setup).
template <class T>
struct QuantizePass {
  const float* llr;  ///< n channel LLRs
  T* out;            ///< n codes, contiguous
  std::size_t n;
  QuantizeGrid<T> grid;
};

/// The quantize pass of `fmt`'s grid with rails [lo, hi].
template <class T>
QuantizePass<T> quantize_pass(const FixedFormat& fmt, T lo, T hi,
                              std::span<const float> llr, T* out) {
  return {llr.data(), out, llr.size(), quantize_grid(fmt, lo, hi)};
}

/// Frames one refill pass loads: the batched shape takes freed lanes'
/// frames in rounds of at most this many.
inline constexpr std::uint32_t kRefillSlots = 16;

/// The batched shape's refill: quantize `count` taken frames straight
/// into their lanes of P, in one pass over its rows. For each block of
/// rows every slot's LLRs are quantized on `grid`, and the codes land in
/// P[v * F + lane[k]]; no other lane and no row past n is written. An
/// uncounted pass uses the tier's vector quantizer and, where the tier has
/// one, a transposing placement step that writes each P row with one
/// masked vector store; a counted pass runs the scalar quantizer and adds
/// slot k's rail clips to clips[k].
template <class T>
struct RefillPass {
  const float* llr[kRefillSlots];    ///< slot k's n channel LLRs
  std::uint32_t lane[kRefillSlots];  ///< slot k's lane (< F), distinct
  std::uint32_t count;               ///< slots taken, <= kRefillSlots
  std::size_t n;                     ///< code length (P rows)
  T* p;                              ///< n rows * F lanes posteriors
  QuantizeGrid<T> grid;
  long long* clips;  ///< count per-slot clip counters (counted pass), or null
};

/// The five passes one family runs on one tier.
template <class T, class Map>
struct ShapeKernels {
  void (*zlane)(const ZLanePass<T, Map>&);
  void (*batch)(const BatchPass<T, Map>&);
  void (*signs)(const SignPass<T>&);
  void (*quantize)(const QuantizePass<T>&);
  void (*refill)(const RefillPass<T>&);
};

/// Every kernel of one tier: each family's passes, and the two sign-plane
/// passes both families share.
struct KernelSet {
  ShapeKernels<std::int16_t, ScaleMap> fixed16;
  ShapeKernels<std::int8_t, StaircaseMap> fa8;
  void (*lane_bits)(const LaneBitsPass&);
  std::uint64_t (*probe)(const ProbePass&);
};

/// True when `tier` is both compiled in and supported by this CPU.
bool tier_available(SimdTier tier);

/// All usable tiers on this host, portable first (for test sweeps).
std::vector<SimdTier> available_tiers();

/// The kernel table of a tier; throws ldpc::Error if it is unavailable.
const KernelSet& kernels_for(SimdTier tier);

/// Best available tier, honouring an LDPC_SIMD_TIER environment override.
/// An override naming a *known but unavailable* tier (e.g. avx512 on a CPU
/// without it) falls through to auto-detection — pinned-tier scripts stay
/// portable across hosts; an *unknown* name throws ldpc::Error so a typo
/// can never silently change what a benchmark measured.
SimdTier best_tier();

/// Parse a tier name; throws ldpc::Error on unknown names.
SimdTier tier_from_string(const std::string& name);

}  // namespace ldpc::simd
