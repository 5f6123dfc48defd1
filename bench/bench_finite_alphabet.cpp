// Finite-alphabet decoder family — the two numbers the low-resolution
// story stands on, measured on the WiMAX (2304, 1/2) z = 96 case-study
// code and gated by scripts/check.sh on the JSON artifact:
//
//   1. Throughput: the int8-packed fa4 inter-frame-batched kernel against
//      the int16 q8.2 batched kernel, both with early termination OFF at a
//      fixed 30-iteration budget — the honest per-iteration datapath
//      ratio, independent of convergence luck. The int8 kernel packs twice
//      the lanes per vector; the gate requires >= 1.6x info throughput.
//      Timing alternates the two decoders over N rounds and gates on the
//      median of the N per-round fa4/int16 ratios: a host phase that
//      speeds or slows one side skews only the rounds it lands in, and
//      moving the median takes half of them (the ratio of two best-of-N
//      maxima moves with either side's single best round).
//
//   2. BER: the Eb/N0 each decoder needs to reach info-bit BER 1e-5,
//      found by log-linear interpolation over a 0.2 dB grid on identical
//      noise realizations. The MIM tables must hold fa4 within 0.2 dB of
//      the uniform 6-bit q6.1 decoder — 4-bit messages at 6-bit
//      performance is the finite-alphabet claim (Ghanaatian et al.,
//      Mohr & Bauch). BER is counted on the k info bits, matching the
//      info-Mbps throughput convention: the WiMAX dual-diagonal parity
//      chain's degree-2 nodes carry a small residual-error population in
//      every non-converged frame that says nothing about the payload.
//      When a decoder's curve never reaches 1e-5 inside the grid (q6.1
//      floors near 1e-2 on this code — its +-15.5 posterior rail clips
//      ever harder as the channel LLRs grow), its crossing is reported
//      absent and the other decoder wins the comparison outright.
//
// A third row family prices the message-SRAM footprint (src/power's
// MessageMemoryProfile) so the area/power side of the trade rides in the
// same artifact: fa4 halves R memory vs q8.2, fa2 quarters it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "codes/wimax.hpp"
#include "core/decoder_factory.hpp"
#include "core/simd/simd_kernel.hpp"
#include "power/message_memory.hpp"

using namespace ldpc;
using Clock = std::chrono::steady_clock;

namespace {

struct FramePool {
  std::vector<std::vector<float>> llr;
  std::vector<BitVec> codewords;
};

FramePool make_pool(const QCLdpcCode& code, std::size_t count, float ebn0_db,
                    std::uint64_t seed_base) {
  const RuEncoder encoder(code);
  const float variance = awgn_noise_variance(ebn0_db, code.rate());
  FramePool pool;
  pool.llr.reserve(count);
  pool.codewords.reserve(count);
  for (std::size_t f = 0; f < count; ++f) {
    Xoshiro256 info_rng(seed_base + 3 * f);
    BitVec info(code.k());
    for (std::size_t i = 0; i < info.size(); ++i) info.set(i, info_rng.coin());
    const BitVec word = encoder.encode(info);
    AwgnChannel awgn(variance, seed_base + 3 * f + 1);
    pool.llr.push_back(BpskModem::demodulate(
        awgn.transmit(BpskModem::modulate(word)), variance));
    pool.codewords.push_back(word);
  }
  return pool;
}

/// One timed pass: `reps` full decode_block calls over the pool. Returns
/// info Mbps and accumulates SIMD fallbacks (any nonzero count fails the
/// check.sh gate — a scalar fallback would make the ratio a lie).
template <class D>
double timed_mbps(D& dec, const FramePool& pool, std::size_t k, int reps,
                  std::size_t& fallbacks) {
  std::vector<BlockFrame> frames(pool.llr.size());
  for (std::size_t i = 0; i < frames.size(); ++i) frames[i].llr = pool.llr[i];
  std::vector<DecodeResult> res(frames.size());
  std::vector<SaturationStats> sat(frames.size());
  dec.decode_block(frames, res, sat);  // warm-up (untimed)
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) dec.decode_block(frames, res, sat);
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  for (const DecodeResult& r : res)
    if (r.simd_fallback != SimdFallback::kNone) ++fallbacks;
  const double bits =
      static_cast<double>(reps) * static_cast<double>(frames.size()) *
      static_cast<double>(k);
  return bits / secs / 1e6;
}

/// Decode the pool in lane-width blocks and count info-bit errors (the
/// first k positions — the RU encoding is systematic).
template <class D>
long long count_info_bit_errors(D& dec, const FramePool& pool,
                                const QCLdpcCode& code) {
  const std::size_t w = dec.block_width();
  std::vector<DecodeResult> res(w);
  std::vector<SaturationStats> sat(w);
  long long errors = 0;
  for (std::size_t f0 = 0; f0 < pool.llr.size(); f0 += w) {
    const std::size_t cnt = std::min(w, pool.llr.size() - f0);
    std::vector<BlockFrame> frames(cnt);
    for (std::size_t i = 0; i < cnt; ++i) frames[i].llr = pool.llr[f0 + i];
    dec.decode_block(frames, std::span(res).first(cnt),
                     std::span(sat).first(cnt));
    for (std::size_t i = 0; i < cnt; ++i)
      for (std::size_t v = 0; v < code.k(); ++v)
        errors += res[i].hard_bits.get(v) != pool.codewords[f0 + i].get(v);
  }
  return errors;
}

struct BerPoint {
  float ebn0_db;
  long long bits;
  long long errors;
  double ber() const {
    return static_cast<double>(errors) / static_cast<double>(bits);
  }
};

/// Log-linear interpolation of the Eb/N0 where the BER curve crosses
/// `target`. Points are in grid order; zero-error points are floored to
/// half an error so the log is defined. Returns NaN when the curve never
/// crosses inside the grid.
double crossing_ebn0(const std::vector<BerPoint>& points, double target) {
  for (std::size_t i = 1; i < points.size(); ++i) {
    const double floor0 = 0.5 / static_cast<double>(points[i - 1].bits);
    const double floor1 = 0.5 / static_cast<double>(points[i].bits);
    const double b0 = std::max(points[i - 1].ber(), floor0);
    const double b1 = std::max(points[i].ber(), floor1);
    if (b0 >= target && b1 < target) {
      const double t = (std::log(b0) - std::log(target)) /
                       (std::log(b0) - std::log(b1));
      return points[i - 1].ebn0_db +
             t * (points[i].ebn0_db - points[i - 1].ebn0_db);
    }
  }
  return std::nan("");
}

}  // namespace

int main() {
  const QCLdpcCode code = make_wimax_2304_half_rate();
  const std::string code_name = bench::code_id("wimax-1/2", code);
  const std::string rev = bench::git_rev();
  bench::JsonReporter json;

  // ------------------------------------------------- throughput leg ------
  // ET off, fixed 30-iteration budget: every frame costs the same, so the
  // ratio measures the datapath (int8 lane density + staircase CN update)
  // and nothing else. 61 frames is coprime to every lane count, so partial
  // tail blocks are exercised too.
  DecoderOptions tput_opt;
  tput_opt.max_iterations = 30;
  tput_opt.early_termination = false;
  const FramePool tput_pool = make_pool(code, 61, 2.0F, 7001);

  const auto q8 = make_decoder("layered-minsum-simd-batched", code, tput_opt);
  const auto fa4 =
      make_decoder("layered-minsum-simd-batched-fa4", code, tput_opt);
  std::size_t fallbacks_q8 = 0;
  std::size_t fallbacks_fa4 = 0;
  double mbps_q8 = 0.0;
  double mbps_fa4 = 0.0;
  constexpr int kRounds = 8;
  constexpr int kReps = 4;
  std::vector<double> ratios;
  for (int round = 0; round < kRounds; ++round) {
    const double q8_round =
        timed_mbps(*q8, tput_pool, code.k(), kReps, fallbacks_q8);
    const double fa4_round =
        timed_mbps(*fa4, tput_pool, code.k(), kReps, fallbacks_fa4);
    mbps_q8 = std::max(mbps_q8, q8_round);
    mbps_fa4 = std::max(mbps_fa4, fa4_round);
    ratios.push_back(q8_round > 0.0 ? fa4_round / q8_round : 0.0);
  }
  std::sort(ratios.begin(), ratios.end());
  const double speedup = (ratios[kRounds / 2 - 1] + ratios[kRounds / 2]) / 2.0;
  const double speedup_best = mbps_q8 > 0.0 ? mbps_fa4 / mbps_q8 : 0.0;
  std::printf(
      "finite-alphabet throughput — %s, 30 iters fixed, ET off, "
      "best of %d rounds\n", code_name.c_str(), kRounds);
  std::printf("  int16 q8.2 batched (W=%zu): %8.1f info Mbps\n",
              q8->block_width(), mbps_q8);
  std::printf("  int8  fa4  batched (W=%zu): %8.1f info Mbps  (%.2fx)\n",
              fa4->block_width(), mbps_fa4, speedup_best);
  std::printf("  fa4/int16 per-round ratio: median %.2fx, range %.2f..%.2f\n",
              speedup, ratios.front(), ratios.back());
  json.add_row()
      .set("kind", "throughput")
      .set("decoder", q8->name())
      .set("message_format", q8->message_format())
      .set("code", code_name)
      .set("ebn0_db", 2.0)
      .set("info_mbps", mbps_q8)
      .set("code_mbps", mbps_q8 / code.rate())
      .set("block_width", q8->block_width())
      .set("simd_tier", simd::to_string(simd::best_tier()))
      .set("simd_fallbacks", fallbacks_q8)
      .set("git_rev", rev);
  json.add_row()
      .set("kind", "throughput")
      .set("decoder", fa4->name())
      .set("message_format", fa4->message_format())
      .set("code", code_name)
      .set("ebn0_db", 2.0)
      .set("info_mbps", mbps_fa4)
      .set("code_mbps", mbps_fa4 / code.rate())
      .set("block_width", fa4->block_width())
      .set("simd_tier", simd::to_string(simd::best_tier()))
      .set("simd_fallbacks", fallbacks_fa4)
      .set("speedup_int8_vs_int16", speedup)
      .set("speedup_best_of_rounds", speedup_best)
      .set("git_rev", rev);

  // -------------------------------------------------------- BER leg ------
  // Identical noise realizations feed both decoders at every grid point,
  // so the measured gap is the quantizer's, not the channel's. Points stop
  // accumulating at kMinErrors; the grid ascent stops once both curves
  // have crossed 1e-5.
  DecoderOptions ber_opt;
  ber_opt.max_iterations = 30;
  const auto q6 = make_decoder("layered-minsum-simd-batched-q6", code, ber_opt);
  const auto fa4_ber =
      make_decoder("layered-minsum-simd-batched-fa4", code, ber_opt);
  constexpr double kTargetBer = 1e-5;
  constexpr long long kMinErrors = 40;
  constexpr std::size_t kChunkFrames = 64;
  constexpr std::size_t kMaxFrames = 4096;
  std::vector<BerPoint> q6_curve;
  std::vector<BerPoint> fa4_curve;
  std::printf("\nfinite-alphabet BER — q6.1 vs fa4, identical noise, "
              "info-bit target %.0e\n", kTargetBer);
  for (float ebn0 = 2.0F; ebn0 <= 3.61F; ebn0 += 0.2F) {
    BerPoint pq{ebn0, 0, 0};
    BerPoint pf{ebn0, 0, 0};
    std::size_t frames = 0;
    while (frames < kMaxFrames &&
           (pq.errors < kMinErrors || pf.errors < kMinErrors)) {
      const FramePool chunk =
          make_pool(code, kChunkFrames, ebn0,
                    100003ULL *
                            static_cast<std::uint64_t>(
                                std::lround(ebn0 * 10.0F)) +
                        17ULL * frames);
      const long long bits =
          static_cast<long long>(kChunkFrames) *
          static_cast<long long>(code.k());
      pq.errors += count_info_bit_errors(*q6, chunk, code);
      pq.bits += bits;
      pf.errors += count_info_bit_errors(*fa4_ber, chunk, code);
      pf.bits += bits;
      frames += kChunkFrames;
    }
    q6_curve.push_back(pq);
    fa4_curve.push_back(pf);
    std::printf("  %.1f dB: q6 %lld/%lld (%.2e)  fa4 %lld/%lld (%.2e)\n",
                static_cast<double>(ebn0), pq.errors, pq.bits, pq.ber(),
                pf.errors, pf.bits, pf.ber());
    for (const auto* p : {&pq, &pf})
      json.add_row()
          .set("kind", "ber")
          .set("decoder", p == &pq ? q6->name() : fa4_ber->name())
          .set("message_format", p == &pq ? q6->message_format()
                                          : fa4_ber->message_format())
          .set("code", code_name)
          .set("ebn0_db", static_cast<double>(ebn0))
          .set("bits", p->bits)
          .set("bit_errors", p->errors)
          .set("ber", p->ber())
          .set("git_rev", rev);
    if (pq.ber() < kTargetBer && pf.ber() < kTargetBer) break;
  }
  const double q6_cross = crossing_ebn0(q6_curve, kTargetBer);
  const double fa4_cross = crossing_ebn0(fa4_curve, kTargetBer);
  const bool q6_crossed = std::isfinite(q6_cross);
  const bool fa4_crossed = std::isfinite(fa4_cross);
  // "fa4 within 0.2 dB of q6 at 1e-5": when q6 never reaches the target
  // inside the grid, fa4 reaching it at all already beats q6 outright and
  // the gap criterion is vacuously met.
  const double gap = (q6_crossed && fa4_crossed) ? fa4_cross - q6_cross
                                                 : (fa4_crossed ? 0.0 : 1e9);
  std::printf("  BER %.0e crossing: q6 %s dB, fa4 %s dB, gap %+.3f dB\n",
              kTargetBer,
              q6_crossed ? std::to_string(q6_cross).c_str() : "absent",
              fa4_crossed ? std::to_string(fa4_cross).c_str() : "absent",
              gap);
  {
    auto& row = json.add_row()
                    .set("kind", "ber-crossing")
                    .set("message_format", q6->message_format())
                    .set("code", code_name)
                    .set("crossed", q6_crossed);
    if (q6_crossed) row.set("ebn0_db", q6_cross);
    row.set("git_rev", rev);
  }
  {
    auto& row = json.add_row()
                    .set("kind", "ber-crossing")
                    .set("message_format", fa4_ber->message_format())
                    .set("code", code_name)
                    .set("crossed", fa4_crossed);
    if (fa4_crossed) row.set("ebn0_db", fa4_cross).set("gap_vs_q6_db", gap);
    row.set("git_rev", rev);
  }

  // ----------------------------------------------- message memory leg ----
  std::printf("\nmessage-SRAM footprint vs q8.2 (P + R bits)\n");
  for (const char* fmt : {"q8.2", "q6.1", "fa4", "fa3", "fa2"}) {
    const MessageMemoryProfile prof = message_memory_profile(code, fmt);
    std::printf("  %-5s P %d b  R %d b  total %lld bits  (%.2fx q8.2)\n",
                fmt, prof.p_bits, prof.r_bits, prof.total_bits,
                prof.reduction_vs_q8(code));
    json.add_row()
        .set("kind", "message-memory")
        .set("message_format", fmt)
        .set("code", code_name)
        .set("p_bits", static_cast<long long>(prof.p_bits))
        .set("r_bits", static_cast<long long>(prof.r_bits))
        .set("p_memory_bits", prof.p_memory_bits)
        .set("r_memory_bits", prof.r_memory_bits)
        .set("total_bits", prof.total_bits)
        .set("reduction_vs_q8", prof.reduction_vs_q8(code))
        .set("git_rev", rev);
  }

  json.write("BENCH_finite_alphabet.json");
  // The artifact gate lives in scripts/check.sh; failing here too keeps a
  // bare `./bench_finite_alphabet` run honest.
  const bool ok = speedup >= 1.6 && fallbacks_q8 + fallbacks_fa4 == 0 &&
                  fa4_crossed && gap <= 0.2;
  if (!ok) std::fprintf(stderr, "finite-alphabet acceptance NOT met\n");
  return ok ? 0 : 1;
}
