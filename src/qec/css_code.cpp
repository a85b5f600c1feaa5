#include "qec/css_code.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "f2/gauss.hpp"
#include "f2/span.hpp"

namespace ftsp::qec {

using f2::BitMatrix;
using f2::BitVec;

CssCode::CssCode(std::string name, BitMatrix hx, BitMatrix hz)
    : name_(std::move(name)),
      n_(hx.cols()),
      hx_(std::move(hx)),
      hz_(std::move(hz)) {
  if (hz_.cols() != n_ || n_ == 0) {
    throw std::invalid_argument("CssCode: check matrix widths differ");
  }
  // CSS condition: every X generator commutes with every Z generator,
  // i.e. their supports overlap on an even number of qubits.
  for (std::size_t i = 0; i < hx_.rows(); ++i) {
    for (std::size_t j = 0; j < hz_.rows(); ++j) {
      if (hx_.row(i).dot(hz_.row(j))) {
        throw std::invalid_argument("CssCode: Hx * Hz^T != 0 (not CSS)");
      }
    }
  }
  const std::size_t rx = f2::rank(hx_);
  const std::size_t rz = f2::rank(hz_);
  if (rx != hx_.rows() || rz != hz_.rows()) {
    throw std::invalid_argument("CssCode: generator rows must be independent");
  }
  if (rx + rz >= n_) {
    throw std::invalid_argument("CssCode: no logical qubits (k <= 0)");
  }
  k_ = n_ - rx - rz;

  compute_logicals();
  pair_logicals();
  dx_ = compute_distance(PauliType::X);
  dz_ = compute_distance(PauliType::Z);
}

void CssCode::compute_logicals() {
  // X logicals: ker(Hz) modulo rowspace(Hx); Z logicals: ker(Hx) modulo
  // rowspace(Hz). Greedily pick kernel vectors independent of the
  // stabilizer rows (and of each other).
  const auto pick = [this](const BitMatrix& kernel_of,
                           const BitMatrix& modulo) {
    BitMatrix chosen;
    BitMatrix accumulated = modulo;
    for (const BitVec& v : f2::kernel_basis(kernel_of)) {
      if (!f2::in_row_span(accumulated, v)) {
        accumulated.append_row(v);
        chosen.append_row(v);
      }
      if (chosen.rows() == k_) {
        break;
      }
    }
    assert(chosen.rows() == k_);
    return chosen;
  };
  lx_ = pick(hz_, hx_);
  lz_ = pick(hx_, hz_);
}

void CssCode::pair_logicals() {
  // Adjust the Z logicals so that <Lx_i, Lz_j> = delta_ij. The pairing
  // matrix M[i][j] = <Lx_i, Lz_j> is invertible because the logicals span
  // complementary quotients; replacing Lz by (M^-1)^T Lz diagonalizes it.
  BitMatrix m(k_, k_);
  for (std::size_t i = 0; i < k_; ++i) {
    for (std::size_t j = 0; j < k_; ++j) {
      m.set(i, j, lx_.row(i).dot(lz_.row(j)));
    }
  }
  BitMatrix inv(k_, k_);
  for (std::size_t j = 0; j < k_; ++j) {
    BitVec unit(k_);
    unit.set(j);
    const auto column = f2::solve(m, unit);
    if (!column.has_value()) {
      throw std::logic_error("CssCode: degenerate logical pairing");
    }
    for (std::size_t i = 0; i < k_; ++i) {
      inv.set(i, j, column->get(i));
    }
  }
  // Lz'_j = sum_m inv[m][j] * Lz_m  (i.e. Lz' = (M^-1)^T * Lz).
  BitMatrix new_lz(k_, n_);
  for (std::size_t j = 0; j < k_; ++j) {
    for (std::size_t mi = 0; mi < k_; ++mi) {
      if (inv.get(mi, j)) {
        new_lz.row(j) ^= lz_.row(mi);
      }
    }
  }
  lz_ = std::move(new_lz);
}

std::size_t CssCode::compute_distance(PauliType t) const {
  // Minimum weight of a type-t logical: in the kernel of the opposite
  // check matrix but outside the same-type stabilizer row space.
  const BitMatrix& stabilizers = check_matrix(t);
  const BitMatrix& logical_rows = logicals(t);
  const std::size_t r = stabilizers.rows();
  const std::size_t dim = r + k_;
  if (dim > f2::kMaxSpanDimension) {
    // Too many normalizer elements to walk: search by weight instead.
    const BitMatrix& commute_with = check_matrix(other(t));
    const auto stab_rref = f2::rref(stabilizers);
    for (std::size_t w = 1; w <= n_; ++w) {
      bool found = false;
      for_each_weight(n_, w, [&](const BitVec& v) {
        if (commute_with.multiply(v).none() &&
            f2::reduce_against(v, stab_rref.reduced, stab_rref.pivots)
                .any()) {
          found = true;
          return false;
        }
        return true;
      });
      if (found) {
        return w;
      }
    }
    throw std::logic_error("CssCode: no logical operator found");
  }
  // The kernel is the span of the r stabilizer rows (bits below r) and
  // the k logicals (bits r and up). Step i of a Gray-code walk XORs one
  // row in, reaching the sum of the rows set in i ^ (i >> 1). That sum
  // is a logical iff it has a bit at r or above, since the logicals are
  // independent of the stabilizers.
  const std::size_t words = (n_ + 63) / 64;
  std::vector<std::uint64_t> rows(dim * words);
  for (std::size_t i = 0; i < dim; ++i) {
    const auto row =
        i < r ? stabilizers.row(i).words() : logical_rows.row(i - r).words();
    std::copy(row.begin(), row.end(), rows.data() + i * words);
  }
  std::vector<std::uint64_t> element(words, 0);
  std::size_t best = n_ + 1;
  for (std::size_t i = 1; i < (std::size_t{1} << dim); ++i) {
    const auto flip = static_cast<std::size_t>(std::countr_zero(i));
    std::size_t weight = 0;
    for (std::size_t w = 0; w < words; ++w) {
      element[w] ^= rows[flip * words + w];
      weight += static_cast<std::size_t>(std::popcount(element[w]));
    }
    if (((i ^ (i >> 1)) >> r) != 0 && weight < best) {
      best = weight;
    }
  }
  return best;
}

std::string CssCode::description() const {
  std::ostringstream out;
  out << "[[" << n_ << ',' << k_ << ',' << distance() << "]] " << name_;
  return out.str();
}

bool for_each_weight(std::size_t n, std::size_t w,
                     const std::function<bool(const f2::BitVec&)>& fn) {
  if (w > n) {
    return true;
  }
  std::vector<std::size_t> idx(w);
  std::iota(idx.begin(), idx.end(), 0);
  for (;;) {
    BitVec v(n);
    for (std::size_t i : idx) {
      v.set(i);
    }
    if (!fn(v)) {
      return false;
    }
    // Advance the combination.
    std::size_t i = w;
    while (i > 0) {
      --i;
      if (idx[i] != i + n - w) {
        ++idx[i];
        for (std::size_t j = i + 1; j < w; ++j) {
          idx[j] = idx[j - 1] + 1;
        }
        break;
      }
      if (i == 0) {
        return true;
      }
    }
    if (w == 0) {
      return true;
    }
  }
}

}  // namespace ftsp::qec
