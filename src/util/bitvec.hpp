// Packed bit vector used for codewords, hard decisions and syndromes.
//
// std::vector<bool> is avoided per the Core Guidelines (proxy references,
// no data()); this class stores bits in 64-bit words and exposes the word
// view so parity computations can XOR whole words at a time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace ldpc {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t n_bits) { resize(n_bits); }

  void resize(std::size_t n_bits) {
    n_bits_ = n_bits;
    words_.assign((n_bits + 63) / 64, 0);
  }

  std::size_t size() const { return n_bits_; }
  bool empty() const { return n_bits_ == 0; }

  bool get(std::size_t i) const {
    LDPC_CHECK(i < n_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void set(std::size_t i, bool value) {
    LDPC_CHECK(i < n_bits_);
    const std::uint64_t mask = 1ULL << (i & 63);
    if (value)
      words_[i >> 6] |= mask;
    else
      words_[i >> 6] &= ~mask;
  }

  void flip(std::size_t i) {
    LDPC_CHECK(i < n_bits_);
    words_[i >> 6] ^= 1ULL << (i & 63);
  }

  void clear_all() { std::fill(words_.begin(), words_.end(), 0); }

  /// XOR-accumulate another vector of identical length.
  void xor_with(const BitVec& other) {
    LDPC_CHECK(other.n_bits_ == n_bits_);
    for (std::size_t w = 0; w < words_.size(); ++w) words_[w] ^= other.words_[w];
  }

  /// Number of set bits.
  std::size_t popcount() const {
    std::size_t total = 0;
    for (std::uint64_t w : words_) total += static_cast<std::size_t>(__builtin_popcountll(w));
    return total;
  }

  /// True iff every bit is zero (e.g. a satisfied syndrome).
  bool all_zero() const {
    for (std::uint64_t w : words_)
      if (w != 0) return false;
    return true;
  }

  /// Hamming distance to another vector of identical length.
  std::size_t hamming_distance(const BitVec& other) const {
    LDPC_CHECK(other.n_bits_ == n_bits_);
    std::size_t total = 0;
    for (std::size_t w = 0; w < words_.size(); ++w)
      total += static_cast<std::size_t>(__builtin_popcountll(words_[w] ^ other.words_[w]));
    return total;
  }

  /// Hamming distance to `other` over positions [0, bits) only — e.g. the
  /// information bits of a systematic codeword. Both must hold >= bits.
  std::size_t hamming_distance_prefix(const BitVec& other,
                                      std::size_t bits) const {
    LDPC_CHECK(bits <= n_bits_ && bits <= other.n_bits_);
    std::size_t total = 0;
    for (std::size_t w = 0; (w << 6) < bits; ++w) {
      std::uint64_t diff = words_[w] ^ other.words_[w];
      const std::size_t tail = bits - (w << 6);
      if (tail < 64) diff &= (1ULL << tail) - 1ULL;
      total += static_cast<std::size_t>(__builtin_popcountll(diff));
    }
    return total;
  }

  bool operator==(const BitVec& other) const {
    return n_bits_ == other.n_bits_ && words_ == other.words_;
  }

  std::span<const std::uint64_t> words() const { return words_; }

  /// Overwrite word `w` (bits [64w, 64w+63]) wholesale — the fast path for
  /// producers that assemble hard decisions 64 at a time instead of calling
  /// set() per bit. Bits beyond size() are masked off so the "padding bits
  /// are zero" invariant popcount/all_zero/== rely on still holds.
  void set_word(std::size_t w, std::uint64_t value) {
    LDPC_CHECK(w < words_.size());
    const std::size_t tail = n_bits_ - (w << 6);
    if (tail < 64) value &= (1ULL << tail) - 1ULL;
    words_[w] = value;
  }

 private:
  std::size_t n_bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ldpc
