#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/executor.hpp"
#include "decoder/lookup_decoder.hpp"
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
  bool x_fail = false;  ///< Paper's criterion for |0>_L (bitstring).
  bool z_fail = false;
  bool hook_terminated = false;

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
  std::vector<Trajectory> trajectories;
};

/// Precomputed per-segment dimensions and fault-site counts of a
/// protocol, in canonical segment order: prep, then per layer the
/// verification circuit followed by its correction branches in
/// outcome-key order. Computed once per protocol (and shipped inside
/// protocol artifacts) so a serving process can size its frame batches
/// and per-shot site bookkeeping without re-walking every gate of every
/// segment; also a cheap structural fingerprint for artifact validation.
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
  /// set it must describe this protocol — segment dimensions are
  /// validated and a mismatch throws — and the sampler skips the
  /// per-call gate walk, pre-sizing its scratch batches to the peak
  /// dimensions instead. Never changes sampled bits.
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
/// Carlo. `x_criterion` selects the paper's destructive-Z-readout
/// criterion (logical X flips); false counts either flip.
Estimate estimate_logical_rate(const std::vector<TrajectoryBatch>& batches,
                               const sim::NoiseParams& p,
                               bool x_criterion = true);

Estimate estimate_logical_rate(const std::vector<TrajectoryBatch>& batches,
                               double p, bool x_criterion = true);

}  // namespace ftsp::core
