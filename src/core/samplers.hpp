#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/executor.hpp"
#include "decoder/lookup_decoder.hpp"
#include "qec/state_context.hpp"
#include "sim/faults.hpp"

namespace ftsp::core {

/// Outcome of one simulated protocol run, reduced to what the estimators
/// need: per location kind, how many fault locations were executed and
/// how many actually faulted, plus whether the state failed logically
/// after the perfect final EC round.
struct Trajectory {
  // 32-bit counters: large codes sweep past 65k fault locations per run,
  // which would silently wrap a uint16_t.
  std::array<std::uint32_t, sim::kNumLocationKinds> sites{};
  std::array<std::uint32_t, sim::kNumLocationKinds> faults{};
  bool x_fail = false;  ///< A logical X error (some Z logical flipped).
  bool z_fail = false;  ///< A logical Z error (some X logical flipped).
  bool hook_terminated = false;

  /// The logical failure of the prepared state (`qec::basis_failure`).
  bool fails(qec::LogicalBasis basis) const {
    return qec::basis_failure(basis, x_fail, z_fail);
  }

  std::uint32_t total_faults() const {
    std::uint32_t total = 0;
    for (auto f : faults) {
      total += f;
    }
    return total;
  }
};

/// A batch of trajectories sampled under per-kind fault probabilities
/// `q`. The fault-operator choice (uniform over the location's ops) is
/// shared between the sampling and target distributions, so re-weighting
/// a trajectory to target rates `p` only involves the per-kind fault and
/// clean-location counts.
struct TrajectoryBatch {
  sim::NoiseParams q;
  /// The sampled protocol's basis: it picks `Trajectory::fails`.
  qec::LogicalBasis basis = qec::LogicalBasis::Zero;
  std::vector<Trajectory> trajectories;
};

/// Precomputed per-segment dimensions and fault-site counts of a
/// protocol, in canonical segment order: prep, then per layer the
/// verification circuit followed by its correction branches in
/// outcome-key order. Computed once per protocol and shipped inside
/// protocol artifacts, where it is a sizing hint for the frame batches
/// and a structural fingerprint that `Executor::check_layout` checks
/// against the protocol's segment table.
struct FrameBatchLayout {
  struct Segment {
    std::uint32_t num_qubits = 0;
    std::uint32_t num_cbits = 0;
    /// Fault locations per `sim::LocationKind`.
    std::array<std::uint32_t, sim::kNumLocationKinds> site_counts{};
  };
  std::vector<Segment> segments;
  std::uint32_t peak_qubits = 0;  ///< Max over segments (batch sizing).
  std::uint32_t peak_cbits = 0;
};

FrameBatchLayout compute_frame_batch_layout(const Protocol& protocol);

/// Retired: the batch word is always u64 now. Kept only because
/// `perfbench/estimate_workload.cpp` still names these values; nothing
/// in the library reads them.
enum class WordWidth {
  Auto,
  W64,
  W256,
};

/// Controls for the batched sampler. Shots are split into fixed-size
/// shards; each shard derives its RNG stream from (seed, shard index)
/// alone and writes a disjoint slice of the output, so the sampled batch
/// is bit-identical for any `num_threads` — thread count only changes
/// wall-clock time.
struct SamplerOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency().
  std::size_t num_threads = 0;
  /// Shots per deterministic shard (the unit of work stealing). Part of
  /// the sampling function: changing it changes which RNG stream each
  /// shot sees.
  std::size_t shard_shots = 4096;
  /// Optional precomputed layout (artifact-driven construction). When
  /// set it must describe this protocol: every call checks it against
  /// the Executor's segment table (`Executor::check_layout`) and a
  /// mismatch throws. It only pre-sizes the scratch batches to the peak
  /// dimensions; site counts always come from the table. Never changes
  /// sampled bits.
  const FrameBatchLayout* layout = nullptr;
  /// Retired no-op: the sampler ignores it. Kept only because
  /// `perfbench/estimate_workload.cpp` still assigns it; set it nowhere
  /// else.
  WordWidth width = WordWidth::Auto;
};

/// Samples `shots` protocol runs at the (typically elevated) fault rates
/// `q`. This is the stand-in for the paper's Dynamic Subset Sampling: one
/// batch serves a whole p-sweep via importance re-weighting.
///
/// Runs on the bit-packed `sim::FrameBatch` engine: 64 shots per u64
/// word per kernel op through the always-executed segments, with
/// triggered lanes regrouped per correction branch — orders of
/// magnitude faster than the scalar reference below at equal
/// statistics.
TrajectoryBatch sample_protocol_batch(const Executor& executor,
                                      const decoder::PerfectDecoder& decoder,
                                      const sim::NoiseParams& q,
                                      std::size_t shots, std::uint64_t seed,
                                      const SamplerOptions& options = {});

/// Convenience overload for the uniform E1_1 model.
TrajectoryBatch sample_protocol_batch(const Executor& executor,
                                      const decoder::PerfectDecoder& decoder,
                                      double q, std::size_t shots,
                                      std::uint64_t seed,
                                      const SamplerOptions& options = {});

/// What a plain Monte-Carlo reply needs from a sampled batch: integer
/// tallies over its shots, with no per-shot record kept.
struct SampleCounts {
  /// The sampled protocol's basis: it picks `fails`.
  qec::LogicalBasis basis = qec::LogicalBasis::Zero;
  std::uint64_t shots = 0;
  std::uint64_t x_fails = 0;
  std::uint64_t z_fails = 0;
  std::uint64_t hook_terminated = 0;
  std::uint64_t total_faults = 0;  ///< Summed over every kind and shot.

  std::uint64_t fails() const {
    return qec::basis_failure(basis, x_fails, z_fails);
  }
};

/// The shots `sample_protocol_batch` draws for the same uniform E1_1
/// arguments (same shards, shard seeds and runner), folded into counts
/// shard by shard from the runner's per-word fail and hook masks; no
/// per-shot record is kept, so memory is bounded by the running shards,
/// not by `shots`.
SampleCounts sample_protocol_counts(const Executor& executor,
                                    const decoder::PerfectDecoder& decoder,
                                    double q, std::size_t shots,
                                    std::uint64_t seed,
                                    const SamplerOptions& options = {});

/// One-shot-at-a-time reference sampler over the scalar `PauliFrame`
/// executor. Kept as the oracle the batched engine is cross-checked
/// against; use `sample_protocol_batch` for anything performance-bound.
TrajectoryBatch sample_protocol_batch_scalar(
    const Executor& executor, const decoder::PerfectDecoder& decoder,
    const sim::NoiseParams& q, std::size_t shots, std::uint64_t seed);

TrajectoryBatch sample_protocol_batch_scalar(
    const Executor& executor, const decoder::PerfectDecoder& decoder,
    double q, std::size_t shots, std::uint64_t seed);

struct Estimate {
  double mean = 0.0;
  double std_error = 0.0;
};

/// Multiple-importance-sampling estimate (balance heuristic) of the
/// logical error rate at target rates `p` from one or more batches.
/// With a single batch sampled at q == p this reduces to plain Monte
/// Carlo. A trajectory fails by its batch's basis (`Trajectory::fails`).
/// Batches are read in place, never copied.
Estimate estimate_logical_rate(const std::vector<TrajectoryBatch>& batches,
                               const sim::NoiseParams& p);

Estimate estimate_logical_rate(const std::vector<TrajectoryBatch>& batches,
                               double p);

/// One batch. A braced `{batch}` argument resolves here, so it is not
/// copied into a temporary vector. Spell an empty batch list
/// `std::vector<TrajectoryBatch>{}`: a bare `{}` is ambiguous.
Estimate estimate_logical_rate(const TrajectoryBatch& batch,
                               const sim::NoiseParams& p);

Estimate estimate_logical_rate(const TrajectoryBatch& batch, double p);

/// Plain Monte-Carlo estimate at the sampling rates. Every MIS weight of
/// a single batch at q == p is exactly 1, so this equals
/// `estimate_logical_rate(batch, q)` of the same shots bit for bit.
Estimate estimate_logical_rate(const SampleCounts& counts);

}  // namespace ftsp::core
