#include "codes/qc_code.hpp"

namespace ldpc {

QCLdpcCode::QCLdpcCode(BaseMatrix base) : base_(std::move(base)) {
  const auto mb = base_.rows();
  const auto nb = base_.cols();
  const auto zz = static_cast<std::size_t>(z());
  LDPC_CHECK_MSG(mb > 0 && nb > mb, "base matrix must be m x n with n > m");

  // Layer structure with global R-slot numbering.
  layers_.resize(mb);
  std::uint32_t slot = 0;
  for (std::size_t r = 0; r < mb; ++r) {
    for (std::size_t c = 0; c < nb; ++c) {
      if (base_.is_zero_block(r, c)) continue;
      layers_[r].push_back(LayerBlock{static_cast<std::uint32_t>(c),
                                      static_cast<std::uint32_t>(base_.at(r, c)),
                                      slot++});
    }
  }

  // Expanded Tanner connectivity. Row `row` of circulant with shift s in
  // block (r, c) connects check r*z+row to variable c*z + (row + s) % z.
  check_adj_.resize(mb * zz);
  var_adj_.resize(nb * zz);
  for (std::size_t r = 0; r < mb; ++r) {
    for (const LayerBlock& blk : layers_[r]) {
      for (std::size_t row = 0; row < zz; ++row) {
        const std::uint32_t check = static_cast<std::uint32_t>(r * zz + row);
        const std::uint32_t var = static_cast<std::uint32_t>(
            blk.block_col * zz + (row + blk.shift) % zz);
        check_adj_[check].push_back(var);
        var_adj_[var].push_back(check);
      }
    }
  }

  // Edge numbering: (check, position) order.
  check_edge_offset_.resize(check_adj_.size() + 1, 0);
  for (std::size_t c = 0; c < check_adj_.size(); ++c)
    check_edge_offset_[c + 1] = check_edge_offset_[c] + check_adj_[c].size();
  num_edges_ = check_edge_offset_.back();

  var_edges_.resize(var_adj_.size());
  for (std::size_t c = 0; c < check_adj_.size(); ++c)
    for (std::size_t pos = 0; pos < check_adj_[c].size(); ++pos)
      var_edges_[check_adj_[c][pos]].push_back(
          static_cast<std::uint32_t>(check_edge_offset_[c] + pos));
}

bool QCLdpcCode::parity_ok(const BitVec& word) const {
  LDPC_CHECK(word.size() == n());
  const std::span<const std::uint64_t> bits = word.words();
  for (const auto& vars : check_adj_) {
    std::uint64_t parity = 0;
    for (const std::uint32_t v : vars) parity ^= bits[v >> 6] >> (v & 63);
    if ((parity & 1U) != 0) return false;
  }
  return true;
}

std::size_t QCLdpcCode::syndrome_weight(const BitVec& word) const {
  LDPC_CHECK(word.size() == n());
  const std::span<const std::uint64_t> bits = word.words();
  std::size_t weight = 0;
  for (const auto& vars : check_adj_) {
    std::uint64_t parity = 0;
    for (const std::uint32_t v : vars) parity ^= bits[v >> 6] >> (v & 63);
    weight += parity & 1U;
  }
  return weight;
}

}  // namespace ldpc
