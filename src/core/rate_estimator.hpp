#pragma once

#include <cstdint>
#include <vector>

#include "core/executor.hpp"
#include "core/samplers.hpp"
#include "decoder/lookup_decoder.hpp"
#include "sim/fault_sectors.hpp"
#include "util/cancel.hpp"

namespace ftsp::core {

/// Controls for the stratified fault-sector logical-error-rate
/// estimator. The estimator decomposes circuit-level noise by total
/// fault count k (see `sim::SectorModel`), enumerates the small sectors
/// exhaustively on the planted batch runner, Monte-Carlo-samples the
/// rest with adaptively allocated per-sector shot budgets, and combines
/// everything into an unbiased estimate with Clopper-Pearson intervals.
/// At low p this replaces the ~1/p_L shots of naive Monte Carlo with a
/// few exact sector sums plus small conditioned samples. The k = 2 sum
/// runs a lane only for the cases whose two faults both fire; every
/// other case has the outcome of a k = 1 or noiseless lane, which the
/// lower sectors keep.
struct RateOptions {
  /// Stop once std_error <= rel_err * p_logical (or the budget runs out).
  double rel_err = 0.05;
  /// Total Monte-Carlo lane budget across all sampled sectors.
  std::size_t max_shots = std::size_t{1} << 22;
  /// Initial shots per sampled sector before adaptive allocation.
  std::size_t min_sector_shots = 2048;
  /// Lanes per planted wave — the unit of memory and of adaptive
  /// allocation. Bounded waves keep the estimator's footprint flat no
  /// matter the budget (the serving path's backpressure knob).
  std::size_t chunk_shots = std::size_t{1} << 14;
  std::uint64_t seed = 1;
  /// Worker threads for wave batches; 0 = hardware concurrency.
  std::size_t num_threads = 1;
  /// Optional precomputed layout (artifact-driven serving): checked
  /// against the Executor's segment table and used to size scratch
  /// batches, exactly like `SamplerOptions::layout`.
  const FrameBatchLayout* layout = nullptr;
  /// Optional cooperative cancellation (per-request deadlines in the
  /// serving tier). Checked between wave batches — never mid-wave, so
  /// every result that *is* returned stays deterministic; a fired token
  /// aborts the estimate with `util::CancelledError` instead. Null =
  /// never cancelled.
  const util::CancelToken* cancel = nullptr;
};

/// One fault-count sector's contribution.
struct SectorEstimate {
  std::uint32_t num_faults = 0;  ///< k.
  double weight = 0.0;           ///< P(K = k) at the estimate's rates.
  bool exhaustive = false;
  /// Cases the exhaustive sum covers, whether run on a lane or
  /// resolved from a lower sector's lane (0 for sampled sectors).
  std::uint64_t cases = 0;
  std::uint64_t shots = 0;  ///< Monte-Carlo lanes run (sampled sectors).
  std::uint64_t fails = 0;  ///< Monte-Carlo fail count.
  /// Conditional logical-failure probability f_k = P(fail | K = k).
  /// Exact for exhaustive sectors.
  double fail_rate = 0.0;
  double ci_low = 0.0;   ///< Clopper-Pearson (== fail_rate if exhaustive).
  double ci_high = 0.0;
};

struct RateEstimate {
  double p_logical = 0.0;
  /// Std error of the sampled sectors (Jeffreys posterior variances, so
  /// zero-fail sectors report honest nonzero uncertainty). Exactly 0
  /// only when every covered sector was exhaustive.
  double std_error = 0.0;
  double ci_low = 0.0;
  double ci_high = 0.0;  ///< Includes `tail_weight` (truncation bias bound).
  /// P(K > covered sectors) — the truncated mass.
  double tail_weight = 0.0;
  std::vector<SectorEstimate> sectors;
  std::uint64_t mc_shots = 0;          ///< Total Monte-Carlo lanes run.
  /// Total cases of the exhaustive sectors (`SectorEstimate::cases`).
  std::uint64_t exhaustive_cases = 0;
  /// Shots a naive Monte-Carlo sampler would need for the same std
  /// error: p(1-p) / var. +inf when var == 0 (fully exhaustive).
  double equivalent_naive_shots = 0.0;
};

/// Estimates the logical error rate of the protocol at rates `p`. The
/// result is deterministic for fixed options (the thread count never
/// changes sampled bits).
RateEstimate estimate_logical_error_rate(const Executor& executor,
                                         const decoder::PerfectDecoder& decoder,
                                         const sim::NoiseParams& p,
                                         const RateOptions& options = {});
RateEstimate estimate_logical_error_rate(const Executor& executor,
                                         const decoder::PerfectDecoder& decoder,
                                         double p,
                                         const RateOptions& options = {});

/// Whole-curve estimation under the uniform E1_1 model: ONE sector
/// sampling pass (anchored at max(ps), where the sector weights spread
/// widest) serves every p by reweighting the sector probabilities —
/// the conditional distribution within a sector is p-invariant for
/// uniform rates, so the per-sector estimates transfer exactly. Returns
/// one estimate per input p, in input order. Throws
/// std::invalid_argument when `ps` is empty or any p is outside (0, 1).
std::vector<RateEstimate> estimate_logical_error_rate_sweep(
    const Executor& executor, const decoder::PerfectDecoder& decoder,
    const std::vector<double>& ps, const RateOptions& options = {});

/// Log-spaced sweep grid from `p_min` to `p_max` inclusive — the one
/// grid construction shared by the serving `rate` op and the CLI so
/// the two front ends can never drift. `points` must be positive and
/// p_min <= p_max (both in (0, 1)); throws std::invalid_argument
/// otherwise. A single point collapses to {p_min}.
std::vector<double> log_spaced_grid(double p_min, double p_max,
                                    std::size_t points);

}  // namespace ftsp::core
