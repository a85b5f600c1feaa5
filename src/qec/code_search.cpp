#include "qec/code_search.hpp"

#include <random>
#include <vector>

#include "f2/gauss.hpp"
#include "sat/cnf_builder.hpp"
#include "sat/solver.hpp"
#include "util/mt64.hpp"

namespace ftsp::qec {

using f2::BitMatrix;
using f2::BitVec;
using sat::CnfBuilder;
using sat::Lit;
using sat::Solver;

std::optional<BitMatrix> find_self_dual_check_matrix(
    const SelfDualSearchOptions& options) {
  const std::size_t r = options.rows;
  const std::size_t n = options.n;
  if (r == 0 || n <= r) {
    return std::nullopt;
  }
  const std::size_t tail = n - r;

  Solver solver;
  CnfBuilder cnf(solver);

  // A[i][q]: tail part of the systematic check matrix H = [I_r | A].
  std::vector<std::vector<Lit>> a(r, std::vector<Lit>(tail));
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t q = 0; q < tail; ++q) {
      a[i][q] = cnf.fresh();
    }
  }

  // Self-orthogonality: <H_i, H_j> = delta_ij + <A_i, A_j> = 0, i.e. the
  // tail rows must satisfy <A_i, A_j> = delta_ij.
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = i; j < r; ++j) {
      std::vector<Lit> products;
      products.reserve(tail);
      for (std::size_t q = 0; q < tail; ++q) {
        products.push_back(cnf.and_of({a[i][q], a[j][q]}));
      }
      const Lit parity = cnf.xor_of(products);
      solver.add_unit(i == j ? parity : ~parity);
    }
  }

  // <H_i, v> as a literal, for a constant vector v of length n.
  const auto row_dot = [&](std::size_t i, const BitVec& v) -> Lit {
    std::vector<Lit> terms;
    for (std::size_t q = 0; q < tail; ++q) {
      if (v.get(r + q)) {
        terms.push_back(a[i][q]);
      }
    }
    Lit parity = cnf.xor_of(terms);
    if (v.get(i)) {
      parity = ~parity;  // XOR with the constant identity-part bit.
    }
    return parity;
  };

  // Membership literal: v in rowspan(H). With the systematic form the
  // only candidate combination is fixed by v's identity-part coordinates;
  // v is a member iff every tail coordinate matches.
  const auto member_lit = [&](const BitVec& v) -> Lit {
    std::vector<std::size_t> combo;
    for (std::size_t i = 0; i < r; ++i) {
      if (v.get(i)) {
        combo.push_back(i);
      }
    }
    if (combo.empty()) {
      return cnf.constant(v.none());
    }
    std::vector<Lit> matches;
    matches.reserve(tail);
    for (std::size_t q = 0; q < tail; ++q) {
      std::vector<Lit> terms;
      for (std::size_t i : combo) {
        terms.push_back(a[i][q]);
      }
      Lit parity = cnf.xor_of(terms);
      if (v.get(r + q)) {
        parity = ~parity;  // parity == 1 iff coordinates differ.
      }
      matches.push_back(~parity);
    }
    return cnf.and_of(matches);
  };

  // Logical distance: every nonzero v with wt(v) < min_detect_weight must
  // either have a nonzero syndrome H * v or (if degeneracy is allowed) be
  // a stabilizer itself.
  for (std::size_t w = 1; w < options.min_detect_weight; ++w) {
    for_each_weight(n, w, [&](const BitVec& v) {
      std::vector<Lit> escape;
      escape.reserve(r + 1);
      for (std::size_t i = 0; i < r; ++i) {
        escape.push_back(row_dot(i, v));
      }
      if (options.allow_degenerate) {
        escape.push_back(member_lit(v));
      }
      cnf.add_at_least_one(escape);
      return true;
    });
  }

  // Optional pinned logical: v in ker(H) but outside rowspan(H).
  if (options.forced_logical.has_value()) {
    const BitVec& v = *options.forced_logical;
    for (std::size_t i = 0; i < r; ++i) {
      solver.add_unit(~row_dot(i, v));
    }
    // If v were in rowspan(H), the combination is fixed by v's identity
    // part; forbid the tail from matching on at least one coordinate.
    std::vector<std::size_t> combo;
    for (std::size_t i = 0; i < r; ++i) {
      if (v.get(i)) {
        combo.push_back(i);
      }
    }
    if (!combo.empty()) {
      std::vector<Lit> mismatch;
      for (std::size_t q = 0; q < tail; ++q) {
        std::vector<Lit> terms;
        for (std::size_t i : combo) {
          terms.push_back(a[i][q]);
        }
        Lit parity = cnf.xor_of(terms);
        if (v.get(r + q)) {
          parity = ~parity;
        }
        mismatch.push_back(parity);  // True iff coordinates differ... (below)
      }
      // parity == <sum of combo rows>[q] XOR v[q]; require some q differs.
      cnf.add_at_least_one(mismatch);
    }
  }

  if (!solver.solve()) {
    return std::nullopt;
  }

  BitMatrix h(r, n);
  for (std::size_t i = 0; i < r; ++i) {
    h.set(i, i);
    for (std::size_t q = 0; q < tail; ++q) {
      if (solver.model_value(a[i][q])) {
        h.set(i, r + q);
      }
    }
  }
  return h;
}

std::optional<CssSearchResult> find_css_check_matrices(
    const CssSearchOptions& options) {
  const std::size_t n = options.n;
  const std::size_t rx = options.rx;
  const std::size_t rz = options.rz;
  if (rx == 0 || rz == 0 || rx + rz >= n) {
    return std::nullopt;
  }

  Solver solver;
  CnfBuilder cnf(solver);

  // Every matrix entry is a literal; identity-block entries are constants.
  // Hx = [I_rx | A] (identity at columns 0..rx), Hz = [B | I_rz] (identity
  // at columns n-rz..n).
  std::vector<std::vector<Lit>> hx(rx, std::vector<Lit>(n));
  std::vector<std::vector<Lit>> hz(rz, std::vector<Lit>(n));
  for (std::size_t i = 0; i < rx; ++i) {
    for (std::size_t q = 0; q < n; ++q) {
      hx[i][q] = q < rx ? cnf.constant(q == i) : cnf.fresh();
    }
  }
  const std::size_t z_off = n - rz;
  for (std::size_t j = 0; j < rz; ++j) {
    for (std::size_t q = 0; q < n; ++q) {
      hz[j][q] = q >= z_off ? cnf.constant(q - z_off == j) : cnf.fresh();
    }
  }

  // CSS orthogonality: <Hx_i, Hz_j> = 0.
  for (std::size_t i = 0; i < rx; ++i) {
    for (std::size_t j = 0; j < rz; ++j) {
      std::vector<Lit> products;
      products.reserve(n);
      for (std::size_t q = 0; q < n; ++q) {
        products.push_back(cnf.and_of({hx[i][q], hz[j][q]}));
      }
      solver.add_unit(~cnf.xor_of(products));
    }
  }

  const auto row_dot = [&](const std::vector<Lit>& row,
                           const BitVec& v) -> Lit {
    std::vector<Lit> terms;
    for (std::size_t q : v.ones()) {
      terms.push_back(row[q]);
    }
    return cnf.xor_of(terms);
  };

  // Membership of a constant v in the rowspan of a systematic matrix with
  // identity block at column `off`: the combination is fixed by v's
  // identity-part coordinates; member iff all other columns match.
  const auto member_lit = [&](const std::vector<std::vector<Lit>>& h,
                              std::size_t off, const BitVec& v) -> Lit {
    std::vector<std::size_t> combo;
    for (std::size_t i = 0; i < h.size(); ++i) {
      if (v.get(off + i)) {
        combo.push_back(i);
      }
    }
    if (combo.empty()) {
      return cnf.constant(v.none());
    }
    std::vector<Lit> matches;
    for (std::size_t q = 0; q < n; ++q) {
      if (q >= off && q < off + h.size()) {
        continue;  // Identity block matches by construction of `combo`.
      }
      std::vector<Lit> terms;
      for (std::size_t i : combo) {
        terms.push_back(h[i][q]);
      }
      Lit parity = cnf.xor_of(terms);
      if (v.get(q)) {
        parity = ~parity;
      }
      matches.push_back(~parity);
    }
    return cnf.and_of(matches);
  };

  // Logical distance on both sides.
  for (std::size_t w = 1; w < options.min_distance; ++w) {
    for_each_weight(n, w, [&](const BitVec& v) {
      // X side: v as an X error must be detected by Hz or be an X stabilizer.
      std::vector<Lit> x_escape;
      for (std::size_t j = 0; j < rz; ++j) {
        x_escape.push_back(row_dot(hz[j], v));
      }
      x_escape.push_back(member_lit(hx, 0, v));
      cnf.add_at_least_one(x_escape);
      // Z side, mirrored.
      std::vector<Lit> z_escape;
      for (std::size_t i = 0; i < rx; ++i) {
        z_escape.push_back(row_dot(hx[i], v));
      }
      z_escape.push_back(member_lit(hz, z_off, v));
      cnf.add_at_least_one(z_escape);
      return true;
    });
  }

  if (!solver.solve()) {
    return std::nullopt;
  }

  CssSearchResult result;
  result.hx = BitMatrix(rx, n);
  result.hz = BitMatrix(rz, n);
  for (std::size_t i = 0; i < rx; ++i) {
    for (std::size_t q = 0; q < n; ++q) {
      result.hx.set(i, q, solver.model_value(hx[i][q]));
    }
  }
  for (std::size_t j = 0; j < rz; ++j) {
    for (std::size_t q = 0; q < n; ++q) {
      result.hz.set(j, q, solver.model_value(hz[j][q]));
    }
  }
  return result;
}

std::optional<CssCode> random_css_search(std::size_t n, std::size_t k,
                                         std::size_t rx,
                                         std::size_t target_distance,
                                         std::uint64_t seed,
                                         std::size_t max_tries) {
  const std::size_t rz = n - k - rx;
  util::Mt64 rng(seed);
  std::uniform_int_distribution<int> bit(0, 1);

  for (std::size_t attempt = 0; attempt < max_tries; ++attempt) {
    // Random full-rank Hz.
    BitMatrix hz;
    while (hz.rows() < rz) {
      BitVec row(n);
      for (std::size_t q = 0; q < n; ++q) {
        if (bit(rng) != 0) {
          row.set(q);
        }
      }
      if (row.any() && (hz.empty() || !f2::in_row_span(hz, row))) {
        hz.append_row(row);
      }
    }
    // Hx from random independent kernel combinations of Hz.
    const auto kernel = f2::kernel_basis(hz);
    BitMatrix hx;
    std::size_t stuck = 0;
    while (hx.rows() < rx && stuck < 200) {
      BitVec candidate(n);
      for (const auto& kv : kernel) {
        if (bit(rng) != 0) {
          candidate ^= kv;
        }
      }
      if (candidate.any() && (hx.empty() || !f2::in_row_span(hx, candidate))) {
        hx.append_row(candidate);
      } else {
        ++stuck;
      }
    }
    if (hx.rows() != rx) {
      continue;
    }
    try {
      CssCode code("random-search", hx, hz);
      if (code.num_logical() == k && code.distance() == target_distance) {
        return code;
      }
    } catch (const std::exception&) {
      continue;  // Rank/k mismatch; resample.
    }
  }
  return std::nullopt;
}

}  // namespace ftsp::qec
