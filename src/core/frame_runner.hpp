#pragma once

// Internal engine of the batched protocol runners. Not part of the
// public API: `core/samplers.cpp` instantiates it with Bernoulli fault
// injection (Monte-Carlo sampling) and `core/rate_estimator.cpp` with
// planted per-lane fault lists (exhaustive fault-sector enumeration and
// conditional sector sampling). Both share the exact same word-parallel
// propagation, branch regrouping and table-driven decode — so the
// estimator's planted runs are bit-compatible with the sampler's
// semantics by construction.

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "core/executor.hpp"
#include "core/samplers.hpp"
#include "decoder/lookup_decoder.hpp"
#include "sim/frame_batch.hpp"

namespace ftsp::core::detail {

// 128-bit multiply for Lemire bounded draws; `__extension__` keeps the
// GNU builtin type admissible under -Wpedantic.
__extension__ using uint128 = unsigned __int128;

using KindCounts = std::array<std::uint32_t, sim::kNumLocationKinds>;

inline KindCounts count_kinds(const circuit::Circuit& c) {
  KindCounts counts{};
  for (const auto& g : c.gates()) {
    ++counts[static_cast<std::size_t>(sim::location_kind(g.kind))];
  }
  return counts;
}

/// SplitMix64 finalizer: decorrelates the per-shard seeds derived from
/// (user seed, shard index).
inline std::uint64_t shard_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t x = seed + (index + 1) * 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Invokes `fn` on every compiled circuit segment of the protocol in the
/// canonical layout order: prep, then per layer the verification circuit
/// followed by the branches in outcome-key order. This order is shared
/// with `FrameBatchLayout` (and with the artifact codec), which is what
/// lets a stored layout be re-associated with a loaded protocol — and
/// what defines the global fault-site numbering of the rate estimator.
template <typename Fn>
void for_each_segment(const Protocol& protocol, Fn&& fn) {
  fn(protocol.prep);
  for (const auto* layer : {&protocol.layer1, &protocol.layer2}) {
    if (!layer->has_value()) {
      continue;
    }
    fn((*layer)->verif);
    for (const auto& [key, branch] : (*layer)->branches) {
      (void)key;
      fn(branch.circ);
    }
  }
}

/// Per-kind fault-site totals of every protocol segment. Every lane that
/// runs a segment executes the same sites, so the per-lane `sites`
/// bookkeeping reduces to one table lookup per segment instead of one
/// increment per location per shot.
struct SegmentCounts {
  std::unordered_map<const circuit::Circuit*, KindCounts> by_circuit;

  /// With a precomputed layout the counts come from the table (validated
  /// against each segment's dimensions); without one they are recounted
  /// from the gates.
  SegmentCounts(const Protocol& protocol, const FrameBatchLayout* layout) {
    if (layout == nullptr) {
      for_each_segment(protocol, [&](const circuit::Circuit& c) {
        by_circuit.emplace(&c, count_kinds(c));
      });
      return;
    }
    std::size_t index = 0;
    for_each_segment(protocol, [&](const circuit::Circuit& c) {
      if (index >= layout->segments.size()) {
        throw std::invalid_argument(
            "sample_protocol_batch: layout has too few segments");
      }
      const FrameBatchLayout::Segment& seg = layout->segments[index++];
      if (seg.num_qubits != c.num_qubits() || seg.num_cbits != c.num_cbits()) {
        throw std::invalid_argument(
            "sample_protocol_batch: layout does not match protocol");
      }
      by_circuit.emplace(&c, seg.site_counts);
    });
    if (index != layout->segments.size()) {
      throw std::invalid_argument(
          "sample_protocol_batch: layout has too many segments");
    }
  }
};

/// Batched decode tables for one error type: everything needed to turn
/// the packed data-error rows into per-lane logical-flip bits without
/// per-lane BitVec work. Syndrome and logical parities are word-parallel
/// XORs of data rows; the per-syndrome correction parities come from the
/// lookup decoder's table once, up front.
struct ErrorDecodeTables {
  /// Qubit supports of the opposite-type check rows (syndrome bits).
  std::vector<std::vector<std::size_t>> check_support;
  /// Qubit supports of the logicals this error type can flip.
  std::vector<std::vector<std::size_t>> logical_support;
  /// Bit i = parity(correction(s) & logical i), indexed by packed
  /// syndrome s.
  std::vector<std::uint64_t> correction_parity;
};

inline ErrorDecodeTables build_error_tables(const qec::CssCode& code,
                                            const decoder::LookupDecoder& dec,
                                            qec::PauliType t) {
  ErrorDecodeTables tables;
  const auto& checks = code.check_matrix(qec::other(t));
  const auto& logicals = code.logicals(qec::other(t));
  for (std::size_t i = 0; i < checks.rows(); ++i) {
    tables.check_support.push_back(checks.row(i).ones());
  }
  for (std::size_t i = 0; i < logicals.rows(); ++i) {
    tables.logical_support.push_back(logicals.row(i).ones());
  }
  tables.correction_parity.assign(std::size_t{1} << checks.rows(), 0);
  for (std::size_t s = 0; s < tables.correction_parity.size(); ++s) {
    const f2::BitVec& correction = dec.decode_packed(s);
    for (std::size_t i = 0; i < logicals.rows(); ++i) {
      if (correction.dot(logicals.row(i))) {
        tables.correction_parity[s] |= std::uint64_t{1} << i;
      }
    }
  }
  return tables;
}

struct DecodeTables {
  ErrorDecodeTables x;  ///< X errors -> x_fail (flip of some Z logical).
  ErrorDecodeTables z;

  explicit DecodeTables(const decoder::PerfectDecoder& decoder)
      : x(build_error_tables(decoder.code(), decoder.x_decoder(),
                             qec::PauliType::X)),
        z(build_error_tables(decoder.code(), decoder.z_decoder(),
                             qec::PauliType::Z)) {}
};

inline bool mask_any(const std::vector<std::uint64_t>& mask) {
  for (const std::uint64_t w : mask) {
    if (w != 0) {
      return true;
    }
  }
  return false;
}

/// Iterates the set lanes of `mask` in ascending shot order.
template <typename Fn>
void for_each_lane(const std::vector<std::uint64_t>& mask, Fn&& fn) {
  for (std::size_t w = 0; w < mask.size(); ++w) {
    std::uint64_t bits = mask[w];
    while (bits != 0) {
      fn(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

/// One inverse-CDF Bernoulli-mask table per location kind, shared by all
/// shards of a sampling call.
struct KindMaskTables {
  std::vector<sim::BernoulliWordTable> by_kind;

  explicit KindMaskTables(const sim::NoiseParams& q) {
    by_kind.reserve(sim::kNumLocationKinds);
    for (double rate : q.rates) {
      by_kind.emplace_back(rate);
    }
  }
};

/// I.i.d. Bernoulli fault injection (the Monte-Carlo sampler): one mask
/// draw per nonzero batch word per site, in ascending word order, then
/// a uniform op draw per faulted lane.
struct BernoulliInjector {
  const sim::NoiseParams& q;
  const KindMaskTables& masks;
  Trajectory* out;
  // ftsp-lint: allow(det-unseeded-rng) member decl; ctor seeds it with the shard seed
  std::mt19937_64 rng;

  BernoulliInjector(const sim::NoiseParams& q_in,
                    const KindMaskTables& masks_in, Trajectory* out_in,
                    std::uint64_t seed)
      : q(q_in), masks(masks_in), out(out_in), rng(seed) {}

  void inject(sim::FrameBatch& frame, const circuit::Circuit&, std::size_t,
              const sim::FaultSite& site, const circuit::Gate& gate,
              const std::vector<std::uint64_t>& mask, std::size_t w0,
              std::size_t w1) {
    const auto kind = static_cast<std::size_t>(sim::location_kind(gate.kind));
    if (q.rates[kind] <= 0.0) {
      return;  // No draws: the site can never fault.
    }
    const auto& ops = site.ops;
    const sim::BernoulliWordTable& table = masks.by_kind[kind];
    for (std::size_t w = w0; w < w1; ++w) {
      if (mask[w] == 0) {
        continue;  // Sparse branch groups: skip fully inactive words.
      }
      std::uint64_t faulted = table.draw(rng) & mask[w];
      while (faulted != 0) {
        const std::size_t shot =
            w * 64 + static_cast<std::size_t>(std::countr_zero(faulted));
        faulted &= faulted - 1;
        // Lemire's multiply-shift bounded draw (no division).
        const auto op = static_cast<std::size_t>(
            (static_cast<uint128>(rng()) * ops.size()) >> 64);
        frame.apply_fault(ops[op], gate, shot);
        ++out[shot].faults[kind];
      }
    }
  }
};

/// One prescribed fault of a planted lane: which fault operator of the
/// owning site to inject.
struct PlantedFault {
  std::uint32_t lane = 0;
  std::uint32_t op = 0;
};

/// Deterministic per-lane fault plans keyed by *global site index* (the
/// canonical `for_each_segment` numbering). A planted fault only fires
/// when its lane actually executes the owning segment — faults planted
/// on never-taken branches are dead by the principle of deferred
/// decisions, which is exactly what makes fault-count sectors
/// well-defined for adaptive protocols.
struct PlantedInjector {
  /// site global index -> faults, in any lane order.
  const std::unordered_map<std::uint32_t, std::vector<PlantedFault>>& plan;
  /// segment -> first global site index of that segment.
  const std::unordered_map<const circuit::Circuit*, std::uint32_t>& base;

  void inject(sim::FrameBatch& frame, const circuit::Circuit& c,
              std::size_t gate_index, const sim::FaultSite& site,
              const circuit::Gate& gate,
              const std::vector<std::uint64_t>& mask, std::size_t,
              std::size_t) {
    const auto it =
        plan.find(base.at(&c) + static_cast<std::uint32_t>(gate_index));
    if (it == plan.end()) {
      return;
    }
    for (const PlantedFault& fault : it->second) {
      if (sim::get_lane(mask.data(), fault.lane)) {
        frame.apply_fault(site.ops[fault.op], gate, fault.lane);
      }
    }
  }
};

/// Executes one shard of shots bit-packed: prep and verification segments
/// run word-parallel over all live lanes; lanes whose verification
/// outcome is nonzero are regrouped by outcome vector and each group runs
/// its correction branch word-parallel too. Mirrors `Executor::run`
/// lane-for-lane (Fig. 3 control flow, hook termination included). Fault
/// injection is delegated to the `Injector` policy after every gate.
template <typename Injector>
class ShardRunner {
 public:
  static constexpr std::size_t kLanesPerWord =
      sim::FrameBatch::kLanesPerWord;

  ShardRunner(const Executor& executor, const SegmentCounts& counts,
              const DecodeTables& tables, std::size_t shots,
              Trajectory* out, Injector& injector,
              const FrameBatchLayout* layout = nullptr)
      : executor_(executor),
        counts_(counts),
        tables_(tables),
        shots_(shots),
        words_((shots + kLanesPerWord - 1) / kLanesPerWord),
        out_(out),
        injector_(injector),
        n_(executor.protocol().num_data_qubits()),
        data_x_(n_ * words_, 0),
        data_z_(n_ * words_, 0) {
    if (layout != nullptr) {
      verif_frame_.reserve(layout->peak_qubits, layout->peak_cbits, shots);
      branch_frame_.reserve(layout->peak_qubits, layout->peak_cbits, shots);
    }
  }

  void run() {
    const Protocol& protocol = executor_.protocol();
    std::vector<std::uint64_t> active(words_, ~std::uint64_t{0});
    if (const std::size_t tail = shots_ % kLanesPerWord; tail != 0) {
      active[words_ - 1] = ~std::uint64_t{0} >> (kLanesPerWord - tail);
    }

    run_segment(protocol.prep, active, verif_frame_);
    for (const auto* layer : {&protocol.layer1, &protocol.layer2}) {
      if (!layer->has_value() || !mask_any(active)) {
        continue;
      }
      run_layer(**layer, active);
    }
    decode_all();
  }

 private:
  /// Runs segment `c` over the lanes in `mask`: copies the accumulated
  /// data error in, propagates all words gate by gate with policy-driven
  /// fault injection, then copies the data error back out — masked, so
  /// lanes outside `mask` are untouched (their word lanes compute garbage
  /// that is simply discarded).
  void run_segment(const circuit::Circuit& c,
                   const std::vector<std::uint64_t>& mask,
                   sim::FrameBatch& frame) {
    // Restrict all word loops (including the reset) to the nonzero span
    // of the lane mask: a correction branch taken by a handful of lanes
    // costs words proportional to where those lanes sit, not the whole
    // shard.
    std::size_t w0 = 0;
    std::size_t w1 = words_;
    while (w0 < w1 && mask[w0] == 0) {
      ++w0;
    }
    while (w1 > w0 && mask[w1 - 1] == 0) {
      --w1;
    }
    const std::size_t span = w1 - w0;
    frame.reset(c.num_qubits(), c.num_cbits(), shots_, w0, w1);
    for (std::size_t q = 0; q < n_; ++q) {
      std::memcpy(frame.x_row(q) + w0, data_x_.data() + q * words_ + w0,
                  span * sizeof(std::uint64_t));
      std::memcpy(frame.z_row(q) + w0, data_z_.data() + q * words_ + w0,
                  span * sizeof(std::uint64_t));
    }

    const auto& sites = executor_.fault_sites(c);
    const auto& gates = c.gates();
    for (std::size_t g = 0; g < gates.size(); ++g) {
      frame.apply_gate(gates[g], w0, w1);
      injector_.inject(frame, c, g, sites[g], gates[g], mask, w0, w1);
    }

    const KindCounts& segment_sites = counts_.by_circuit.at(&c);
    for_each_lane(mask, [&](std::size_t shot) {
      for (std::size_t k = 0; k < sim::kNumLocationKinds; ++k) {
        out_[shot].sites[k] += segment_sites[k];
      }
    });

    for (std::size_t q = 0; q < n_; ++q) {
      std::uint64_t* dx = data_x_.data() + q * words_;
      std::uint64_t* dz = data_z_.data() + q * words_;
      const std::uint64_t* fx = frame.x_row(q);
      const std::uint64_t* fz = frame.z_row(q);
      for (std::size_t w = w0; w < w1; ++w) {
        dx[w] = (dx[w] & ~mask[w]) | (fx[w] & mask[w]);
        dz[w] = (dz[w] & ~mask[w]) | (fz[w] & mask[w]);
      }
    }
  }

  /// Groups the lanes of `lanes` by their full outcome vector in
  /// `frame` and invokes `fn(outcome, group_mask)` per distinct outcome,
  /// in deterministic (lex) order. Outcome vectors fit one word for
  /// every realistic protocol, so the grouping key is a packed uint64
  /// (no per-lane heap traffic) with a BitVec fallback beyond 64 bits.
  template <typename Fn>
  void for_each_outcome_group(const sim::FrameBatch& frame,
                              const std::vector<std::uint64_t>& lanes,
                              Fn&& fn) {
    const std::size_t cbits = frame.num_cbits();
    if (cbits <= 64) {
      std::map<std::uint64_t, std::vector<std::uint64_t>> groups;
      for_each_lane(lanes, [&](std::size_t shot) {
        std::uint64_t key = 0;
        for (std::size_t c = 0; c < cbits; ++c) {
          key |= std::uint64_t{frame.outcome_bit(c, shot)} << c;
        }
        auto [it, inserted] = groups.try_emplace(key);
        if (inserted) {
          it->second.assign(words_, 0);
        }
        sim::set_lane(it->second.data(), shot);
      });
      for (const auto& [key, group_mask] : groups) {
        f2::BitVec outcome(cbits);
        for (std::size_t c = 0; c < cbits; ++c) {
          if ((key >> c) & 1) {
            outcome.set(c);
          }
        }
        fn(outcome, group_mask);
      }
    } else {
      std::map<f2::BitVec, std::vector<std::uint64_t>, f2::BitVecLexLess>
          groups;
      for_each_lane(lanes, [&](std::size_t shot) {
        f2::BitVec outcome(cbits);
        for (std::size_t c = 0; c < cbits; ++c) {
          if (frame.outcome_bit(c, shot)) {
            outcome.set(c);
          }
        }
        auto [it, inserted] = groups.try_emplace(std::move(outcome));
        if (inserted) {
          it->second.assign(words_, 0);
        }
        sim::set_lane(it->second.data(), shot);
      });
      for (const auto& [outcome, group_mask] : groups) {
        fn(outcome, group_mask);
      }
    }
  }

  void run_layer(const CompiledLayer& layer,
                 std::vector<std::uint64_t>& active) {
    sim::FrameBatch& frame = verif_frame_;
    run_segment(layer.verif, active, frame);
    const std::size_t cbits = layer.verif.num_cbits();

    std::vector<std::uint64_t> triggered(words_, 0);
    for (std::size_t c = 0; c < cbits; ++c) {
      const std::uint64_t* row = frame.outcome_row(c);
      for (std::size_t w = 0; w < words_; ++w) {
        triggered[w] |= row[w];
      }
    }
    for (std::size_t w = 0; w < words_; ++w) {
      triggered[w] &= active[w];
    }
    if (!mask_any(triggered)) {
      return;
    }

    // Regroup triggered lanes by full outcome vector; each distinct
    // outcome selects (at most) one branch, exactly like the scalar
    // executor's branch-table lookup. Group iteration is in
    // deterministic (lex) order, which keeps the shard's RNG stream
    // deterministic.
    std::vector<std::uint64_t> hooked(words_, 0);
    for_each_outcome_group(
        frame, triggered,
        [&](const f2::BitVec& outcome,
            const std::vector<std::uint64_t>& group_mask) {
          const bool hook = (outcome & layer.flag_mask).any();
          if (const auto it = layer.branches.find(outcome);
              it != layer.branches.end()) {
            run_branch(it->second, group_mask);
          }
          if (hook) {
            for (std::size_t w = 0; w < words_; ++w) {
              hooked[w] |= group_mask[w];
            }
          }
        });
    if (mask_any(hooked)) {
      for_each_lane(hooked, [&](std::size_t shot) {
        out_[shot].hook_terminated = true;
      });
      for (std::size_t w = 0; w < words_; ++w) {
        active[w] &= ~hooked[w];
      }
    }
  }

  void run_branch(const CompiledBranch& branch,
                  const std::vector<std::uint64_t>& group_mask) {
    sim::FrameBatch& frame = branch_frame_;
    run_segment(branch.circ, group_mask, frame);
    std::vector<std::uint64_t>& data =
        branch.corrected_type == qec::PauliType::X ? data_x_ : data_z_;
    // One recovery lookup per distinct extended syndrome, not per lane.
    for_each_outcome_group(
        frame, group_mask,
        [&](const f2::BitVec& extended,
            const std::vector<std::uint64_t>& mask) {
          if (const auto rec = branch.plan.recoveries.find(extended);
              rec != branch.plan.recoveries.end()) {
            // Word-parallel: XOR the recovery into every group lane.
            for (std::size_t q : rec->second.ones()) {
              std::uint64_t* row = data.data() + q * words_;
              for (std::size_t w = 0; w < words_; ++w) {
                row[w] ^= mask[w];
              }
            }
          }
        });
  }

  /// Per-lane logical flips of one error type, fully word-parallel:
  /// syndrome rows and logical parities are XORs of data rows; the only
  /// per-lane work is gathering a handful of bits and one table lookup.
  template <typename Store>
  void compute_fails(const ErrorDecodeTables& tables,
                     const std::vector<std::uint64_t>& data, Store&& store) {
    const std::size_t checks = tables.check_support.size();
    const std::size_t logicals = tables.logical_support.size();
    std::vector<std::uint64_t> syndrome(checks * words_, 0);
    std::vector<std::uint64_t> parity(logicals * words_, 0);
    for (std::size_t i = 0; i < checks; ++i) {
      std::uint64_t* row = syndrome.data() + i * words_;
      for (std::size_t q : tables.check_support[i]) {
        const std::uint64_t* src = data.data() + q * words_;
        for (std::size_t w = 0; w < words_; ++w) {
          row[w] ^= src[w];
        }
      }
    }
    for (std::size_t i = 0; i < logicals; ++i) {
      std::uint64_t* row = parity.data() + i * words_;
      for (std::size_t q : tables.logical_support[i]) {
        const std::uint64_t* src = data.data() + q * words_;
        for (std::size_t w = 0; w < words_; ++w) {
          row[w] ^= src[w];
        }
      }
    }
    for (std::size_t shot = 0; shot < shots_; ++shot) {
      std::size_t packed = 0;
      for (std::size_t i = 0; i < checks; ++i) {
        packed |= std::size_t{sim::get_lane(syndrome.data() + i * words_,
                                            shot)}
                  << i;
      }
      std::uint64_t flips = tables.correction_parity[packed];
      for (std::size_t i = 0; i < logicals; ++i) {
        flips ^= std::uint64_t{sim::get_lane(parity.data() + i * words_,
                                             shot)}
                 << i;
      }
      store(shot, flips != 0);
    }
  }

  void decode_all() {
    compute_fails(tables_.x, data_x_, [&](std::size_t shot, bool fail) {
      out_[shot].x_fail = fail;
    });
    compute_fails(tables_.z, data_z_, [&](std::size_t shot, bool fail) {
      out_[shot].z_fail = fail;
    });
  }

  const Executor& executor_;
  const SegmentCounts& counts_;
  const DecodeTables& tables_;
  std::size_t shots_;
  std::size_t words_;
  Trajectory* out_;
  Injector& injector_;
  std::size_t n_;
  // Accumulated data-qubit error between segments, row per qubit.
  std::vector<std::uint64_t> data_x_;
  std::vector<std::uint64_t> data_z_;
  // Scratch batches recycled across segments (branch runs happen while
  // the verification frame's outcomes are still being consumed, hence
  // two).
  sim::FrameBatch verif_frame_{0, 0, 0};
  sim::FrameBatch branch_frame_{0, 0, 0};
};

}  // namespace ftsp::core::detail
