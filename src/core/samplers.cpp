#include "core/samplers.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <random>
#include <span>
#include <stdexcept>

#include "core/frame_runner.hpp"
#include "sim/frame_batch.hpp"
#include "util/parallel.hpp"

namespace ftsp::core {

namespace {

/// log of the probability of the trajectory's fault pattern under rates
/// `r` (the uniform op-choice factors cancel between distributions and
/// are omitted). Returns -infinity when impossible.
double log_density(const Trajectory& t, const sim::NoiseParams& r) {
  double log_p = 0.0;
  for (std::size_t k = 0; k < sim::kNumLocationKinds; ++k) {
    const double rate = r.rates[k];
    const double faults = t.faults[k];
    const double clean = t.sites[k] - t.faults[k];
    if (faults > 0) {
      if (rate <= 0.0) {
        return -std::numeric_limits<double>::infinity();
      }
      log_p += faults * std::log(rate);
    }
    if (clean > 0) {
      if (rate >= 1.0) {
        return -std::numeric_limits<double>::infinity();
      }
      log_p += clean * std::log1p(-rate);
    }
  }
  return log_p;
}

/// Mean and standard error of `n` weighted shots from the sums of their
/// weights and squared weights.
Estimate from_weight_sums(double sum, double sum_sq, double n) {
  Estimate estimate;
  estimate.mean = sum / n;
  const double variance = (sum_sq / n - estimate.mean * estimate.mean) / n;
  estimate.std_error = variance > 0.0 ? std::sqrt(variance) : 0.0;
  return estimate;
}

/// The one MIS loop behind every batch entry point: it reads the
/// batches through pointers, so no entry point copies a batch.
Estimate estimate_over(std::span<const TrajectoryBatch* const> batches,
                       const sim::NoiseParams& p) {
  std::size_t total = 0;
  for (const TrajectoryBatch* b : batches) {
    total += b->trajectories.size();
  }
  if (total == 0) {
    return {};
  }

  // Balance-heuristic MIS weight; the uniform fault-operator choice is
  // identical in the target and every sampling distribution, so it
  // cancels and only the per-kind fault/clean counts matter.
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const TrajectoryBatch* b : batches) {
    for (const auto& t : b->trajectories) {
      if (!t.fails(b->basis)) {
        continue;  // Zero contribution; weights need not be evaluated.
      }
      const double log_target = log_density(t, p);
      if (!std::isfinite(log_target)) {
        continue;  // Impossible under the target: weight 0.
      }
      double mixture = 0.0;
      for (const TrajectoryBatch* bs : batches) {
        const double share = static_cast<double>(bs->trajectories.size()) /
                             static_cast<double>(total);
        mixture += share * std::exp(log_density(t, bs->q) - log_target);
      }
      const double weight = 1.0 / mixture;
      sum += weight;
      sum_sq += weight * weight;
    }
  }
  return from_weight_sums(sum, sum_sq, static_cast<double>(total));
}

void validate_options(const sim::NoiseParams& q,
                      const SamplerOptions& options) {
  sim::validate_rates(q, "sample_protocol_batch");
  if (options.shard_shots == 0) {
    throw std::invalid_argument(
        "sample_protocol_batch: shard_shots must be positive");
  }
}

/// The one shard loop of the Monte-Carlo sampler; callers run
/// `validate_options` first, and a set layout is checked here in the
/// name of `caller`. Shard `index` covers `count` shots from
/// shot `index * shard_shots` on and draws from `shard_seed(seed,
/// index)` alone, so its shots depend on neither the thread count nor
/// where they are written. `fn(begin, count, run)` is called once per
/// shard; `run(out)` samples the shard and returns its tallies (basis
/// and shots left unset). A non-null `out` also receives the shard's
/// `count` trajectories, zero-initialised before the call.
template <typename Fn>
void for_each_shard(const char* caller, const Executor& executor,
                    const decoder::PerfectDecoder& decoder,
                    const sim::NoiseParams& q, std::size_t shots,
                    std::uint64_t seed, const SamplerOptions& options,
                    Fn&& fn) {
  if (options.layout != nullptr) {
    executor.check_layout(*options.layout, caller);
  }
  if (shots == 0) {
    return;
  }

  const detail::DecodeTables tables(decoder);
  const detail::KindMaskTables masks(q);
  const std::size_t shard = options.shard_shots;
  // Ceiling division that cannot wrap, even for shard sizes near SIZE_MAX.
  const std::size_t num_shards = shots / shard + (shots % shard != 0);
  util::run_indexed_parallel(
      num_shards, options.num_threads, [&](std::size_t index) {
        const std::size_t begin = index * shard;
        const std::size_t count = std::min(shard, shots - begin);
        fn(begin, count, [&](Trajectory* out) {
          detail::BernoulliInjector injector(q, masks, out,
                                             detail::shard_seed(seed, index));
          detail::ShardRunner<detail::BernoulliInjector> runner(
              executor, tables, count, out, injector,
              options.layout);
          runner.run();
          SampleCounts tally;
          tally.x_fails = detail::count_lanes(runner.x_fails());
          tally.z_fails = detail::count_lanes(runner.z_fails());
          tally.hook_terminated = detail::count_lanes(runner.hooked());
          tally.total_faults = injector.total_faults;
          return tally;
        });
      });
}

}  // namespace

FrameBatchLayout compute_frame_batch_layout(const Protocol& protocol) {
  FrameBatchLayout layout;
  const Executor executor(protocol);
  for (const Executor::Segment& segment : executor.segments()) {
    FrameBatchLayout::Segment seg;
    seg.num_qubits = static_cast<std::uint32_t>(segment.circuit->num_qubits());
    seg.num_cbits = static_cast<std::uint32_t>(segment.circuit->num_cbits());
    seg.site_counts = segment.site_counts;
    layout.peak_qubits = std::max(layout.peak_qubits, seg.num_qubits);
    layout.peak_cbits = std::max(layout.peak_cbits, seg.num_cbits);
    layout.segments.push_back(seg);
  }
  return layout;
}

TrajectoryBatch sample_protocol_batch(const Executor& executor,
                                      const decoder::PerfectDecoder& decoder,
                                      const sim::NoiseParams& q,
                                      std::size_t shots, std::uint64_t seed,
                                      const SamplerOptions& options) {
  validate_options(q, options);
  TrajectoryBatch batch;
  batch.q = q;
  batch.basis = executor.protocol().basis;
  batch.trajectories.assign(shots, Trajectory{});
  for_each_shard("sample_protocol_batch", executor, decoder, q, shots, seed,
                 options, [&](std::size_t begin, std::size_t, auto&& run) {
                   run(batch.trajectories.data() + begin);
                 });
  return batch;
}

TrajectoryBatch sample_protocol_batch(const Executor& executor,
                                      const decoder::PerfectDecoder& decoder,
                                      double q, std::size_t shots,
                                      std::uint64_t seed,
                                      const SamplerOptions& options) {
  sim::validate_uniform_rate(q, "sample_protocol_batch", "q");
  return sample_protocol_batch(executor, decoder, sim::NoiseParams::e1_1(q),
                               shots, seed, options);
}

SampleCounts sample_protocol_counts(const Executor& executor,
                                    const decoder::PerfectDecoder& decoder,
                                    double q, std::size_t shots,
                                    std::uint64_t seed,
                                    const SamplerOptions& options) {
  sim::validate_uniform_rate(q, "sample_protocol_batch", "q");
  const sim::NoiseParams rates = sim::NoiseParams::e1_1(q);
  validate_options(rates, options);
  SampleCounts total;
  total.basis = executor.protocol().basis;
  total.shots = shots;
  // Integer sums do not depend on the order shards finish in, so the
  // counts stay thread-count invariant.
  std::mutex mutex;
  for_each_shard(
      "sample_protocol_counts", executor, decoder, rates, shots, seed,
      options,
      [&](std::size_t, std::size_t, auto&& run) {
        const SampleCounts shard = run(nullptr);
        const std::lock_guard<std::mutex> lock(mutex);
        total.x_fails += shard.x_fails;
        total.z_fails += shard.z_fails;
        total.hook_terminated += shard.hook_terminated;
        total.total_faults += shard.total_faults;
      });
  return total;
}

TrajectoryBatch sample_protocol_batch_scalar(
    const Executor& executor, const decoder::PerfectDecoder& decoder,
    const sim::NoiseParams& q, std::size_t shots, std::uint64_t seed) {
  sim::validate_rates(q, "sample_protocol_batch");
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  TrajectoryBatch batch;
  batch.q = q;
  batch.basis = executor.protocol().basis;
  batch.trajectories.reserve(shots);
  for (std::size_t s = 0; s < shots; ++s) {
    Trajectory t;
    const auto result = executor.run([&](const SiteRef& ref) -> int {
      const sim::LocationKind location =
          sim::location_kind(ref.segment->gates()[ref.gate_index].kind);
      const auto kind = static_cast<std::size_t>(location);
      ++t.sites[kind];
      if (unit(rng) >= q.rates[kind]) {
        return -1;
      }
      ++t.faults[kind];
      return static_cast<int>(rng() % sim::num_fault_ops(location));
    });
    t.hook_terminated = result.hook_terminated;
    const auto logical = decoder.decode(result.data_error);
    t.x_fail = logical.x_flip;
    t.z_fail = logical.z_flip;
    batch.trajectories.push_back(t);
  }
  return batch;
}

TrajectoryBatch sample_protocol_batch_scalar(
    const Executor& executor, const decoder::PerfectDecoder& decoder,
    double q, std::size_t shots, std::uint64_t seed) {
  sim::validate_uniform_rate(q, "sample_protocol_batch", "q");
  return sample_protocol_batch_scalar(executor, decoder,
                                      sim::NoiseParams::e1_1(q), shots, seed);
}

Estimate estimate_logical_rate(const std::vector<TrajectoryBatch>& batches,
                               const sim::NoiseParams& p) {
  std::vector<const TrajectoryBatch*> views;
  views.reserve(batches.size());
  for (const TrajectoryBatch& b : batches) {
    views.push_back(&b);
  }
  return estimate_over(views, p);
}

Estimate estimate_logical_rate(const std::vector<TrajectoryBatch>& batches,
                               double p) {
  return estimate_logical_rate(batches, sim::NoiseParams::e1_1(p));
}

Estimate estimate_logical_rate(const TrajectoryBatch& batch,
                               const sim::NoiseParams& p) {
  const TrajectoryBatch* const one = &batch;
  return estimate_over({&one, 1}, p);
}

Estimate estimate_logical_rate(const TrajectoryBatch& batch, double p) {
  return estimate_logical_rate(batch, sim::NoiseParams::e1_1(p));
}

Estimate estimate_logical_rate(const SampleCounts& counts) {
  if (counts.shots == 0) {
    return {};
  }
  // Every weight is 1, so both weight sums are the fail count.
  const double fails = static_cast<double>(counts.fails());
  return from_weight_sums(fails, fails, static_cast<double>(counts.shots));
}

}  // namespace ftsp::core
