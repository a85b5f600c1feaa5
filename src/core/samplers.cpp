#include "core/samplers.hpp"

#include <algorithm>
#include <cmath>
#include <random>
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

void validate_rates(const sim::NoiseParams& q) {
  for (double rate : q.rates) {
    if (rate < 0.0 || rate >= 1.0) {
      throw std::invalid_argument(
          "sample_protocol_batch: rates must be in [0,1)");
    }
  }
}

}  // namespace

FrameBatchLayout compute_frame_batch_layout(const Protocol& protocol) {
  FrameBatchLayout layout;
  detail::for_each_segment(protocol, [&](const circuit::Circuit& c) {
    FrameBatchLayout::Segment seg;
    seg.num_qubits = static_cast<std::uint32_t>(c.num_qubits());
    seg.num_cbits = static_cast<std::uint32_t>(c.num_cbits());
    seg.site_counts = detail::count_kinds(c);
    layout.peak_qubits = std::max(layout.peak_qubits, seg.num_qubits);
    layout.peak_cbits = std::max(layout.peak_cbits, seg.num_cbits);
    layout.segments.push_back(seg);
  });
  return layout;
}

TrajectoryBatch sample_protocol_batch(const Executor& executor,
                                      const decoder::PerfectDecoder& decoder,
                                      const sim::NoiseParams& q,
                                      std::size_t shots, std::uint64_t seed,
                                      const SamplerOptions& options) {
  validate_rates(q);
  if (options.shard_shots == 0) {
    throw std::invalid_argument(
        "sample_protocol_batch: shard_shots must be positive");
  }

  TrajectoryBatch batch;
  batch.q = q;
  batch.trajectories.assign(shots, Trajectory{});
  if (shots == 0) {
    return batch;
  }

  const detail::SegmentCounts counts(executor.protocol(), options.layout);
  const detail::DecodeTables tables(decoder);
  const detail::KindMaskTables masks(q);
  const std::size_t shard = options.shard_shots;
  // Ceiling division that cannot wrap, even for shard sizes near SIZE_MAX.
  const std::size_t num_shards = shots / shard + (shots % shard != 0);
  util::run_indexed_parallel(
      num_shards, options.num_threads, [&](std::size_t index) {
        const std::size_t begin = index * shard;
        const std::size_t count = std::min(shard, shots - begin);
        Trajectory* out = batch.trajectories.data() + begin;
        detail::BernoulliInjector injector(q, masks, out,
                                           detail::shard_seed(seed, index));
        detail::ShardRunner<detail::BernoulliInjector> runner(
            executor, counts, tables, count, out, injector, options.layout);
        runner.run();
      });
  return batch;
}

TrajectoryBatch sample_protocol_batch(const Executor& executor,
                                      const decoder::PerfectDecoder& decoder,
                                      double q, std::size_t shots,
                                      std::uint64_t seed,
                                      const SamplerOptions& options) {
  if (q <= 0.0 || q >= 1.0) {
    throw std::invalid_argument("sample_protocol_batch: q must be in (0,1)");
  }
  return sample_protocol_batch(executor, decoder, sim::NoiseParams::e1_1(q),
                               shots, seed, options);
}

TrajectoryBatch sample_protocol_batch_scalar(
    const Executor& executor, const decoder::PerfectDecoder& decoder,
    const sim::NoiseParams& q, std::size_t shots, std::uint64_t seed) {
  validate_rates(q);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  TrajectoryBatch batch;
  batch.q = q;
  batch.trajectories.reserve(shots);
  for (std::size_t s = 0; s < shots; ++s) {
    Trajectory t;
    const auto result = executor.run([&](const SiteRef& ref) -> int {
      const auto kind = static_cast<std::size_t>(sim::location_kind(
          ref.segment->gates()[ref.gate_index].kind));
      ++t.sites[kind];
      if (unit(rng) >= q.rates[kind]) {
        return -1;
      }
      ++t.faults[kind];
      return static_cast<int>(rng() % ref.site->ops.size());
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
  if (q <= 0.0 || q >= 1.0) {
    throw std::invalid_argument("sample_protocol_batch: q must be in (0,1)");
  }
  return sample_protocol_batch_scalar(executor, decoder,
                                      sim::NoiseParams::e1_1(q), shots, seed);
}

Estimate estimate_logical_rate(const std::vector<TrajectoryBatch>& batches,
                               const sim::NoiseParams& p,
                               bool x_criterion) {
  std::size_t total = 0;
  for (const auto& b : batches) {
    total += b.trajectories.size();
  }
  if (total == 0) {
    return {};
  }

  // Balance-heuristic MIS weight; the uniform fault-operator choice is
  // identical in the target and every sampling distribution, so it
  // cancels and only the per-kind fault/clean counts matter.
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& b : batches) {
    for (const auto& t : b.trajectories) {
      const bool fail = x_criterion ? t.x_fail : (t.x_fail || t.z_fail);
      if (!fail) {
        continue;  // Zero contribution; weights need not be evaluated.
      }
      const double log_target = log_density(t, p);
      if (!std::isfinite(log_target)) {
        continue;  // Impossible under the target: weight 0.
      }
      double mixture = 0.0;
      for (const auto& bs : batches) {
        const double share = static_cast<double>(bs.trajectories.size()) /
                             static_cast<double>(total);
        mixture += share * std::exp(log_density(t, bs.q) - log_target);
      }
      const double weight = 1.0 / mixture;
      sum += weight;
      sum_sq += weight * weight;
    }
  }
  Estimate estimate;
  const double n = static_cast<double>(total);
  estimate.mean = sum / n;
  const double variance = (sum_sq / n - estimate.mean * estimate.mean) / n;
  estimate.std_error = variance > 0.0 ? std::sqrt(variance) : 0.0;
  return estimate;
}

Estimate estimate_logical_rate(const std::vector<TrajectoryBatch>& batches,
                               double p, bool x_criterion) {
  return estimate_logical_rate(batches, sim::NoiseParams::e1_1(p),
                               x_criterion);
}

}  // namespace ftsp::core
