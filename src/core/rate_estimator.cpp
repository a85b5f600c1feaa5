#include "core/rate_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>

#include "core/frame_runner.hpp"
#include "obs/registry.hpp"
#include "util/parallel.hpp"

namespace ftsp::core {

namespace {

using Plan = std::vector<detail::PlanEntry>;

/// Hard cap on the number of fault-count sectors ever considered; far
/// above anything the tail cutoff leaves relevant at realistic rates.
constexpr std::size_t kMaxSectors = 128;

/// Two-sided level of the per-sector Clopper-Pearson intervals.
constexpr double kIntervalAlpha = 0.05;
/// A sector is enumerated exhaustively when its weighted case count (sum
/// over location subsets of the fault-op product) fits this budget and
/// its fault count is at most kMaxExhaustiveK (sector 0 is one noiseless
/// run).
constexpr std::uint64_t kExhaustiveBudget = std::uint64_t{1} << 20;
constexpr std::size_t kMaxExhaustiveK = 2;
/// Sectors beyond the covered range carry at most this probability mass;
/// the cutoff is reported as `tail_weight` and added to the upper
/// confidence limit (f_k <= 1 bounds the truncation bias).
constexpr double kTailEpsilon = 1e-12;

/// Lemire's multiply-shift bounded draw (matches the batched sampler's
/// op-choice draw; the O(n / 2^64) bias is far below sampling noise).
std::uint64_t bounded_draw(std::mt19937_64& rng, std::uint64_t n) {
  return static_cast<std::uint64_t>(
      (static_cast<detail::uint128>(rng()) * n) >> 64);
}

/// The Executor's global fault-site numbering, flattened: every site of
/// every protocol segment in table order — executed or not. This is the
/// fixed location set the sector decomposition is defined over.
struct SiteIndex {
  std::vector<sim::LocationKind> kinds;  ///< Per global site.
  std::array<std::vector<std::uint32_t>, sim::kNumLocationKinds> by_kind;
  sim::SectorModel::KindCounts counts{};

  explicit SiteIndex(const Executor& executor) {
    for (const Executor::Segment& segment : executor.segments()) {
      for (const circuit::Gate& gate : segment.circuit->gates()) {
        const sim::LocationKind kind = sim::location_kind(gate.kind);
        const auto k = static_cast<std::size_t>(kind);
        by_kind[k].push_back(static_cast<std::uint32_t>(kinds.size()));
        ++counts[k];
        kinds.push_back(kind);
      }
    }
  }

  std::uint32_t num_ops(std::uint32_t site) const {
    return static_cast<std::uint32_t>(sim::num_fault_ops(kinds[site]));
  }
};

/// One planted batch: a flat fault plan plus its accumulated result.
/// Exhaustive waves carry per-lane case weights; sampled waves count
/// plain fails.
struct Wave {
  Plan plan;
  std::size_t shots = 0;
  std::vector<double> case_weights;  ///< Exhaustive waves only.
  double weighted_fails = 0.0;
  std::uint64_t fails = 0;
};

/// Counts one batch of planted waves (and their lanes) into the rate
/// estimator's telemetry series. Observation-only: the estimate math
/// never reads these.
void record_wave_batch(const std::vector<Wave>& waves) {
  static obs::Counter& wave_count =
      obs::Registry::instance().counter("rate.wave.count");
  static obs::Counter& shot_count =
      obs::Registry::instance().counter("rate.shot.count");
  std::uint64_t shots = 0;
  for (const Wave& wave : waves) {
    shots += wave.shots;
  }
  wave_count.add(waves.size());
  shot_count.add(shots);
}

/// Immutable shared context + the planted-wave executor.
class WaveRunner {
 public:
  WaveRunner(const Executor& executor, const decoder::PerfectDecoder& decoder,
             const RateOptions& options)
      : executor_(executor),
        options_(options),
        tables_(decoder),
        index_(executor) {
    if (options.layout != nullptr) {
      executor.check_layout(*options.layout, "estimate_logical_error_rate");
    }
  }

  const SiteIndex& index() const { return index_; }

  /// Waves worth building before running any: one per worker thread.
  std::size_t wave_group() const {
    return util::resolve_threads(options_.num_threads);
  }

  void run_wave(Wave& wave) const {
    const detail::SitePlan plan(wave.plan, index_.kinds.size());
    wave.plan = Plan{};
    detail::PlantedInjector injector{plan};
    detail::ShardRunner<detail::PlantedInjector> runner(
        executor_, tables_, wave.shots, nullptr, injector, options_.layout);
    runner.run();
    const auto& fails = runner.fails(executor_.protocol().basis);
    if (wave.case_weights.empty()) {
      wave.fails = detail::count_lanes(fails);
      return;
    }
    detail::for_each_lane(fails, [&](std::size_t lane) {
      wave.weighted_fails += wave.case_weights[lane];
    });
  }

  /// Runs a batch of waves over the configured thread count. Results
  /// land in per-wave fields, so the final (ordered) accumulation is
  /// thread-count invariant. The single cancellation choke point of the
  /// estimator: every loop (exhaustive enumeration, initial allocation,
  /// adaptive refinement) funnels through here, and checking *between*
  /// wave batches means a cancelled estimate never returns — it throws —
  /// so partial results can't leak nondeterminism.
  void run_waves(std::vector<Wave>& waves) const {
    if (options_.cancel != nullptr) {
      options_.cancel->throw_if_cancelled("rate estimate cancelled");
    }
    record_wave_batch(waves);
    util::run_indexed_parallel(waves.size(), options_.num_threads,
                               [&](std::size_t i) { run_wave(waves[i]); });
  }

 private:
  const Executor& executor_;
  const RateOptions& options_;
  detail::DecodeTables tables_;
  SiteIndex index_;
};

struct CaseFault {
  std::uint32_t site = 0;
  std::uint32_t op = 0;
};

/// Chunks enumerated cases into bounded waves and runs them a group of
/// `runner.wave_group()` waves at a time, so an exhaustive sector holds
/// one group's fault plans and case weights, not the whole sector's.
/// `weighted_fails` sums the waves' results in enumeration order.
struct WaveBuilder {
  const WaveRunner& runner;
  std::size_t chunk;
  std::vector<Wave> waves;
  double weighted_fails = 0.0;

  void add(const CaseFault* faults, std::size_t k, double weight) {
    if (waves.empty() || waves.back().shots == chunk) {
      if (waves.size() == runner.wave_group()) {
        flush();
      }
      waves.emplace_back();
    }
    Wave& wave = waves.back();
    const auto lane = static_cast<std::uint32_t>(wave.shots++);
    for (std::size_t i = 0; i < k; ++i) {
      wave.plan.push_back({faults[i].site, lane, faults[i].op});
    }
    wave.case_weights.push_back(weight);
  }

  /// Runs the pending waves and folds their results.
  void flush() {
    runner.run_waves(waves);
    for (const Wave& wave : waves) {
      weighted_fails += wave.weighted_fails;
    }
    waves.clear();
  }
};

/// Exhaustive case enumeration for sectors k = 1, 2 — every location
/// subset of size k (restricted to kinds with nonzero rate) crossed
/// with every fault-operator assignment, weighted by the exact
/// conditional probability P(subset | K = k) * P(ops) =
/// prod r_i / e_k * prod 1/|ops_i|. `emit` may be a counter or a
/// `WaveBuilder`.
template <typename Emit>
void for_each_case(const SiteIndex& index, const sim::SectorModel& model,
                   std::size_t k, Emit&& emit) {
  const std::size_t n = index.kinds.size();
  const double ek = model.elementary_symmetric(k);
  const auto odds_of = [&](std::uint32_t site) {
    return model.odds(index.kinds[site]);
  };
  CaseFault faults[2];
  if (k == 1) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const double r = odds_of(i);
      if (r <= 0.0) {
        continue;
      }
      const std::uint32_t ops_i = index.num_ops(i);
      const double weight = r / ek / static_cast<double>(ops_i);
      for (std::uint32_t oi = 0; oi < ops_i; ++oi) {
        faults[0] = {i, oi};
        emit(faults, 1, weight);
      }
    }
    return;
  }
  if (k == 2) {
    for (std::uint32_t i = 0; i < n; ++i) {
      const double ri = odds_of(i);
      if (ri <= 0.0) {
        continue;
      }
      const std::uint32_t ops_i = index.num_ops(i);
      for (std::uint32_t j = i + 1; j < n; ++j) {
        const double rj = odds_of(j);
        if (rj <= 0.0) {
          continue;
        }
        const std::uint32_t ops_j = index.num_ops(j);
        const double weight = ri * rj / ek / static_cast<double>(ops_i) /
                              static_cast<double>(ops_j);
        for (std::uint32_t oi = 0; oi < ops_i; ++oi) {
          for (std::uint32_t oj = 0; oj < ops_j; ++oj) {
            faults[0] = {i, oi};
            faults[1] = {j, oj};
            emit(faults, 2, weight);
          }
        }
      }
    }
    return;
  }
  throw std::logic_error("for_each_case: only k <= 2 is enumerable");
}

std::uint64_t count_cases(const SiteIndex& index,
                          const sim::SectorModel& model, std::size_t k) {
  std::uint64_t count = 0;
  if (k == 1) {
    for_each_case(index, model, 1,
                  [&](const CaseFault*, std::size_t, double) { ++count; });
    return count;
  }
  // k == 2: closed form (sum_i<j ops_i * ops_j over faultable sites)
  // without touching the op loops.
  std::uint64_t sum = 0;
  std::uint64_t sum_sq = 0;
  for (std::uint32_t i = 0; i < index.kinds.size(); ++i) {
    if (model.odds(index.kinds[i]) <= 0.0) {
      continue;
    }
    const std::uint64_t ops = index.num_ops(i);
    sum += ops;
    sum_sq += ops * ops;
  }
  return (sum * sum - sum_sq) / 2;
}

/// Draws one sampled lane of sector k: a per-kind split from the
/// conditional CDF, then a uniform subset per kind (Floyd's algorithm),
/// then a uniform fault op per chosen site.
void plant_sampled_lane(const SiteIndex& index,
                        const std::vector<sim::SectorModel::KindSplit>& cdf,
                        std::uint32_t lane, std::mt19937_64& rng,
                        Plan& plan, std::vector<std::uint32_t>& scratch) {
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  const auto it = std::lower_bound(
      cdf.begin(), cdf.end(), u,
      [](const sim::SectorModel::KindSplit& entry, double value) {
        return entry.cumulative < value;
      });
  const auto& split = it->split;
  for (std::size_t j = 0; j < sim::kNumLocationKinds; ++j) {
    const std::uint32_t kj = split[j];
    if (kj == 0) {
      continue;
    }
    const auto& pool = index.by_kind[j];
    scratch.clear();
    // Floyd's uniform k-subset of [0, pool.size()).
    for (std::uint64_t t = pool.size() - kj; t < pool.size(); ++t) {
      auto pick = static_cast<std::uint32_t>(bounded_draw(rng, t + 1));
      if (std::find(scratch.begin(), scratch.end(), pick) != scratch.end()) {
        pick = static_cast<std::uint32_t>(t);
      }
      scratch.push_back(pick);
      const std::uint32_t site = pool[pick];
      const auto op = static_cast<std::uint32_t>(
          bounded_draw(rng, index.num_ops(site)));
      plan.push_back({site, lane, op});
    }
  }
}

/// Accumulated per-sector state across waves.
struct SectorData {
  std::uint32_t k = 0;
  bool exhaustive = false;
  std::uint64_t cases = 0;
  std::uint64_t shots = 0;
  std::uint64_t fails = 0;
  double exact_fail_rate = 0.0;  ///< Exhaustive sectors.
  std::uint64_t next_wave = 0;   ///< Wave counter (seed derivation).
  std::vector<sim::SectorModel::KindSplit> split_cdf;
  /// Clopper-Pearson interval of a sampled sector's final counts; the
  /// same for every target, so computed once.
  sim::BinomialInterval interval;

  double fail_rate() const {
    if (exhaustive) {
      return exact_fail_rate;
    }
    return shots == 0 ? 0.0
                      : static_cast<double>(fails) /
                            static_cast<double>(shots);
  }

  /// Jeffreys-posterior variance of the sector mean — nonzero even at 0
  /// observed fails, so zero-fail sectors report honest uncertainty and
  /// the adaptive allocator has a gradient to follow.
  double variance() const {
    if (exhaustive || shots == 0) {
      return 0.0;
    }
    const double a = static_cast<double>(fails) + 0.5;
    const double b = static_cast<double>(shots - fails) + 0.5;
    const double s = a + b;
    return a * b / (s * s * (s + 1.0));
  }
};

std::uint64_t wave_seed(std::uint64_t seed, std::uint32_t k,
                        std::uint64_t wave) {
  return detail::shard_seed(seed, (std::uint64_t{k} << 32) | wave);
}

/// Builds (but does not run) `shots` sampled lanes of sector `data.k`,
/// split into chunk-bounded waves with deterministic per-wave seeds.
std::vector<Wave> build_sampled_waves(const SiteIndex& index,
                                      SectorData& data, std::size_t shots,
                                      const RateOptions& options) {
  std::vector<Wave> waves;
  std::vector<std::uint32_t> scratch;
  while (shots > 0) {
    const std::size_t count = std::min(shots, options.chunk_shots);
    shots -= count;
    Wave wave;
    wave.shots = count;
    std::mt19937_64 rng(wave_seed(options.seed, data.k, data.next_wave++));
    for (std::uint32_t lane = 0; lane < count; ++lane) {
      plant_sampled_lane(index, data.split_cdf, lane, rng, wave.plan,
                         scratch);
    }
    waves.push_back(std::move(wave));
  }
  return waves;
}

RateEstimate combine(const std::vector<SectorData>& sectors,
                     const sim::SectorModel::KindCounts& counts,
                     const sim::NoiseParams& p, std::size_t covered_k) {
  const sim::SectorModel model(counts, p);
  const std::vector<double> all_weights = model.weights(covered_k);
  RateEstimate estimate;
  estimate.tail_weight = model.tail(covered_k);
  double variance = 0.0;
  for (const SectorData& data : sectors) {
    const double w = all_weights[data.k];
    SectorEstimate sector;
    sector.num_faults = data.k;
    sector.weight = w;
    sector.exhaustive = data.exhaustive;
    sector.cases = data.cases;
    sector.shots = data.shots;
    sector.fails = data.fails;
    sector.fail_rate = data.fail_rate();
    if (!data.exhaustive && data.shots == 0) {
      // Budget ran out before this sector saw a single lane: its f_k is
      // simply unknown. Folding its whole weight into the reported tail
      // (and thus into ci_high via the f_k <= 1 bound) keeps the
      // estimate honest instead of silently treating the mass as
      // failure-free.
      sector.ci_low = 0.0;
      sector.ci_high = 1.0;
      estimate.tail_weight += w;
      estimate.sectors.push_back(sector);
      continue;
    }
    if (data.exhaustive) {
      sector.ci_low = sector.ci_high = sector.fail_rate;
      estimate.exhaustive_cases += data.cases;
    } else {
      sector.ci_low = data.interval.low;
      sector.ci_high = data.interval.high;
      estimate.mc_shots += data.shots;
    }
    estimate.p_logical += w * sector.fail_rate;
    estimate.ci_low += w * sector.ci_low;
    estimate.ci_high += w * sector.ci_high;
    variance += w * w * data.variance();
    estimate.sectors.push_back(sector);
  }
  estimate.ci_high += estimate.tail_weight;  // f_k <= 1 bounds the tail.
  estimate.ci_high = std::min(estimate.ci_high, 1.0);
  estimate.std_error = std::sqrt(variance);
  const double spread = estimate.p_logical * (1.0 - estimate.p_logical);
  estimate.equivalent_naive_shots =
      variance > 0.0 ? spread / variance
                     : std::numeric_limits<double>::infinity();
  return estimate;
}

std::vector<RateEstimate> run_estimator(
    const Executor& executor, const decoder::PerfectDecoder& decoder,
    const sim::NoiseParams& q, const std::vector<sim::NoiseParams>& targets,
    const RateOptions& options) {
  sim::validate_rates(q, "estimate_logical_error_rate");
  if (options.chunk_shots == 0 || options.rel_err <= 0.0) {
    throw std::invalid_argument(
        "estimate_logical_error_rate: chunk_shots and rel_err must be "
        "positive");
  }

  const WaveRunner runner(executor, decoder, options);
  const SiteIndex& index = runner.index();
  const sim::SectorModel model(index.counts, q);

  // Sector coverage: the smallest K whose tail mass is negligible.
  std::size_t covered_k = 0;
  const auto k_cap = static_cast<std::size_t>(
      std::min<std::uint64_t>(model.total_locations(), kMaxSectors));
  while (covered_k < k_cap && model.tail(covered_k) > kTailEpsilon) {
    ++covered_k;
  }

  std::vector<SectorData> sectors;
  const std::vector<double> anchor_weights = model.weights(covered_k);

  // --- Exhaustive sectors: k = 0 (one noiseless lane) and every k <=
  // kMaxExhaustiveK whose case count fits the budget. Each sector owns
  // its waves, so the weighted fail sums attribute cleanly.
  std::size_t first_sampled_k = 1;
  for (std::size_t k = 0;
       k <= std::min(kMaxExhaustiveK, covered_k); ++k) {
    std::uint64_t cases = 1;
    if (k > 0) {
      if (anchor_weights[k] <= 0.0) {
        break;
      }
      cases = count_cases(index, model, k);
      if (cases == 0 || cases > kExhaustiveBudget) {
        break;
      }
    }
    SectorData data;
    data.k = static_cast<std::uint32_t>(k);
    data.exhaustive = true;
    data.cases = cases;
    WaveBuilder builder{runner, options.chunk_shots, {}};
    if (k == 0) {
      const CaseFault none{};
      builder.add(&none, 0, 1.0);
    } else {
      for_each_case(index, model, k,
                    [&](const CaseFault* faults, std::size_t nk,
                        double weight) { builder.add(faults, nk, weight); });
    }
    builder.flush();
    data.exact_fail_rate = builder.weighted_fails;
    sectors.push_back(std::move(data));
    first_sampled_k = k + 1;
  }

  // --- Sampled sectors: initial allocation.
  const std::size_t budget = options.max_shots;
  std::uint64_t spent = 0;
  for (std::size_t k = first_sampled_k; k <= covered_k; ++k) {
    if (anchor_weights[k] <= 0.0) {
      continue;  // Unreachable sector (k beyond the location count).
    }
    SectorData data;
    data.k = static_cast<std::uint32_t>(k);
    data.split_cdf = model.kind_split_cdf(k);
    const std::size_t initial = std::min<std::size_t>(
        options.min_sector_shots,
        budget > spent ? budget - spent : 0);
    if (initial > 0) {
      std::vector<Wave> waves =
          build_sampled_waves(index, data, initial, options);
      runner.run_waves(waves);
      for (const Wave& wave : waves) {
        data.shots += wave.shots;
        data.fails += wave.fails;
      }
      spent += initial;
    }
    sectors.push_back(std::move(data));
  }

  // --- Adaptive refinement: one chunk at a time into the sector whose
  // refinement most reduces the variance at the worst-served target.
  // The per-target sector weights are p-dependent but iteration-
  // invariant, so they are computed once; the loop itself only needs
  // the cheap first two moments (no Clopper-Pearson work until the
  // final combination).
  std::vector<std::vector<double>> target_weights;
  target_weights.reserve(targets.size());
  for (const sim::NoiseParams& target : targets) {
    const sim::SectorModel target_model(index.counts, target);
    const std::vector<double> all = target_model.weights(covered_k);
    std::vector<double> per_sector;
    per_sector.reserve(sectors.size());
    for (const SectorData& data : sectors) {
      per_sector.push_back(all[data.k]);
    }
    target_weights.push_back(std::move(per_sector));
  }
  struct Moments {
    double p_hat = 0.0;
    double variance = 0.0;
    double unassessed = 0.0;  ///< Weight of sectors with zero shots.
  };
  const auto moments = [&](std::size_t t) {
    Moments m;
    for (std::size_t i = 0; i < sectors.size(); ++i) {
      const SectorData& data = sectors[i];
      const double w = target_weights[t][i];
      if (!data.exhaustive && data.shots == 0) {
        // Unassessed mass counts as potential error (f_k <= 1), never
        // as f_k = 0 — so convergence cannot be declared by simply
        // ignoring sectors the budget has not reached yet.
        m.unassessed += w;
        continue;
      }
      m.p_hat += w * data.fail_rate();
      m.variance += w * w * data.variance();
    }
    return m;
  };

  for (;;) {
    double worst_rel_err = 0.0;
    std::size_t worst_target = 0;
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const Moments m = moments(t);
      const double rel =
          m.p_hat > 0.0 ? (std::sqrt(m.variance) + m.unassessed) / m.p_hat
                        : 0.0;
      if (rel > worst_rel_err) {
        worst_rel_err = rel;
        worst_target = t;
      }
    }
    if (worst_rel_err <= options.rel_err || spent >= budget) {
      break;
    }
    const std::size_t chunk =
        std::min<std::size_t>(options.chunk_shots, budget - spent);
    // Marginal variance reduction of adding `chunk` shots to sector i:
    // w_i^2 * v_i * (1 - n_i / (n_i + chunk)); a never-sampled sector
    // scores with the worst-case Bernoulli variance so it is always
    // drained before refinement polishing.
    double best_gain = 0.0;
    std::size_t best = sectors.size();
    for (std::size_t i = 0; i < sectors.size(); ++i) {
      const SectorData& data = sectors[i];
      if (data.exhaustive) {
        continue;
      }
      const double w = target_weights[worst_target][i];
      const double n = static_cast<double>(data.shots);
      const double gain =
          data.shots == 0
              ? w * w * 0.25
              : w * w * data.variance() *
                    (1.0 - n / (n + static_cast<double>(chunk)));
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == sectors.size()) {
      break;  // Nothing sampled contributes variance: fully converged.
    }
    std::vector<Wave> waves =
        build_sampled_waves(index, sectors[best], chunk, options);
    runner.run_waves(waves);
    for (const Wave& wave : waves) {
      sectors[best].shots += wave.shots;
      sectors[best].fails += wave.fails;
    }
    spent += chunk;
  }

  static obs::Counter& sector_count =
      obs::Registry::instance().counter("rate.sector.count");
  static obs::Counter& estimate_count =
      obs::Registry::instance().counter("rate.estimate.count");
  sector_count.add(sectors.size());
  estimate_count.add(1);

  // --- Final combination per target, over one interval per sector.
  for (SectorData& data : sectors) {
    if (!data.exhaustive && data.shots > 0) {
      data.interval =
          sim::clopper_pearson(data.fails, data.shots, kIntervalAlpha);
    }
  }
  std::vector<RateEstimate> estimates;
  estimates.reserve(targets.size());
  for (const sim::NoiseParams& target : targets) {
    estimates.push_back(combine(sectors, index.counts, target, covered_k));
  }
  return estimates;
}

}  // namespace

RateEstimate estimate_logical_error_rate(const Executor& executor,
                                         const decoder::PerfectDecoder& decoder,
                                         const sim::NoiseParams& p,
                                         const RateOptions& options) {
  return run_estimator(executor, decoder, p, {p}, options).front();
}

RateEstimate estimate_logical_error_rate(const Executor& executor,
                                         const decoder::PerfectDecoder& decoder,
                                         double p,
                                         const RateOptions& options) {
  sim::validate_uniform_rate(p, "estimate_logical_error_rate", "p");
  return estimate_logical_error_rate(executor, decoder,
                                     sim::NoiseParams::e1_1(p), options);
}

std::vector<double> log_spaced_grid(double p_min, double p_max,
                                    std::size_t points) {
  if (points == 0 || !(p_min > 0.0) || p_min >= 1.0 || !(p_max > 0.0) ||
      p_max >= 1.0 || p_min > p_max) {
    throw std::invalid_argument(
        "log_spaced_grid: wants 0 < p_min <= p_max < 1 and points > 0");
  }
  std::vector<double> ps;
  ps.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double t = points == 1 ? 0.0
                                 : static_cast<double>(i) /
                                       static_cast<double>(points - 1);
    ps.push_back(p_min * std::pow(p_max / p_min, t));
  }
  return ps;
}

std::vector<RateEstimate> estimate_logical_error_rate_sweep(
    const Executor& executor, const decoder::PerfectDecoder& decoder,
    const std::vector<double>& ps, const RateOptions& options) {
  if (ps.empty()) {
    throw std::invalid_argument(
        "estimate_logical_error_rate_sweep: empty sweep");
  }
  double anchor = 0.0;
  std::vector<sim::NoiseParams> targets;
  targets.reserve(ps.size());
  for (double p : ps) {
    sim::validate_uniform_rate(p, "estimate_logical_error_rate_sweep", "p");
    anchor = std::max(anchor, p);
    targets.push_back(sim::NoiseParams::e1_1(p));
  }
  return run_estimator(executor, decoder, sim::NoiseParams::e1_1(anchor),
                       targets, options);
}

}  // namespace ftsp::core
