#pragma once

#include <cstdint>
#include <optional>

#include "f2/bit_matrix.hpp"
#include "f2/bit_vec.hpp"
#include "qec/css_code.hpp"

namespace ftsp::qec {

/// Options for the SAT-based self-dual CSS code search.
///
/// Searches for a check matrix `H = [I_r | A]` (rows x n, systematic) with
/// `H * H^T = 0`, i.e. a self-orthogonal classical code C = rowspan(H);
/// `Hx = Hz = H` then defines a CSS code with `k = n - 2r`. Requiring
/// `H * v != 0` for every nonzero `v` with `wt(v) < min_detect_weight`
/// forces the dual distance (and hence the CSS distance) to be at least
/// `min_detect_weight`.
struct SelfDualSearchOptions {
  std::size_t n = 0;
  std::size_t rows = 0;
  std::size_t min_detect_weight = 3;

  /// Optionally force this vector to be a codeword of the dual that is NOT
  /// a stabilizer, pinning the code distance from above (e.g. force a
  /// weight-3 logical to obtain distance exactly 3).
  std::optional<f2::BitVec> forced_logical;

  /// If true, low-weight vectors with zero syndrome are tolerated as long
  /// as they are stabilizers themselves (degenerate code); the *logical*
  /// distance still reaches `min_detect_weight`. Needed e.g. for
  /// [[12,2,4]]: a non-degenerate self-dual instance does not exist (our
  /// SAT search proves the stronger formula unsatisfiable).
  bool allow_degenerate = false;
};

/// Runs the search; returns the full check matrix `[I | A]` on success,
/// nullopt if the formula is unsatisfiable.
std::optional<f2::BitMatrix> find_self_dual_check_matrix(
    const SelfDualSearchOptions& options);

/// Options for the general two-sided CSS search: `Hx` is systematic on the
/// first `rx` columns, `Hz` on the last `rz` columns. Requires the logical
/// distance (both X and Z) to be at least `min_distance`; vectors below
/// that weight must either be detected by the opposite check matrix or be
/// stabilizers themselves (degeneracy is always permitted here).
struct CssSearchOptions {
  std::size_t n = 0;
  std::size_t rx = 0;
  std::size_t rz = 0;
  std::size_t min_distance = 3;
};

struct CssSearchResult {
  f2::BitMatrix hx;
  f2::BitMatrix hz;
};

/// SAT search for a general CSS code; nullopt if unsatisfiable (under the
/// fixed systematic column choice).
std::optional<CssSearchResult> find_css_check_matrices(
    const CssSearchOptions& options);

/// Randomized search for a general (not necessarily self-dual) CSS code:
/// samples a random full-rank Hz, takes Hx from the kernel of Hz, and
/// keeps the result if the distance reaches `target_distance`.
/// Simple but effective for small, low-distance instances.
std::optional<CssCode> random_css_search(std::size_t n, std::size_t k,
                                         std::size_t rx,
                                         std::size_t target_distance,
                                         std::uint64_t seed,
                                         std::size_t max_tries);

}  // namespace ftsp::qec
