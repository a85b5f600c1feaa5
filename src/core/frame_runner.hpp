#pragma once

// Internal engine of the batched protocol runners. Not part of the
// public API: `core/samplers.cpp` instantiates it with Bernoulli fault
// injection (Monte-Carlo sampling) and `core/rate_estimator.cpp` with
// planted per-site fault lists (exhaustive fault-sector enumeration and
// conditional sector sampling). Both share the exact same word-parallel
// propagation, branch regrouping and table-driven decode — so the
// estimator's planted runs are bit-compatible with the sampler's
// semantics by construction. Each segment's per-kind site counts and
// global site base come from the Executor's segment table, and each
// site's fault operators from `sim::fault_op` of its gate; the runner
// hands the injector the entry of the segment it runs and the gate. A
// shard's result is three per-word lane masks (x fail, z fail, hook
// termination); only a caller that keeps per-shot records hands the
// runner a `Trajectory` array to fill.

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <random>
#include <stdexcept>
#include <vector>

#include "core/executor.hpp"
#include "core/samplers.hpp"
#include "decoder/lookup_decoder.hpp"
#include "sim/frame_batch.hpp"

namespace ftsp::core::detail {

// 128-bit multiply for Lemire bounded draws; `__extension__` keeps the
// GNU builtin type admissible under -Wpedantic.
__extension__ using uint128 = unsigned __int128;

/// SplitMix64 finalizer: decorrelates the per-shard seeds derived from
/// (user seed, shard index).
inline std::uint64_t shard_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t x = seed + (index + 1) * 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

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
  // The shard decode skips the lookup for zero-syndrome lanes.
  if (tables.correction_parity[0] != 0) {
    throw std::logic_error(
        "build_error_tables: the zero syndrome's correction flips a logical");
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

/// Number of set lanes of `mask`.
inline std::uint64_t count_lanes(const std::vector<std::uint64_t>& mask) {
  std::uint64_t count = 0;
  for (const std::uint64_t w : mask) {
    count += static_cast<std::uint64_t>(std::popcount(w));
  }
  return count;
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
/// a uniform op draw per faulted lane. Counts every fault it injects in
/// `total_faults`, and per lane and kind in `out` when that is not null.
struct BernoulliInjector {
  const sim::NoiseParams& q;
  const KindMaskTables& masks;
  Trajectory* out;
  // ftsp-lint: allow(det-unseeded-rng) member decl; ctor seeds it with the shard seed
  std::mt19937_64 rng;
  std::uint64_t total_faults = 0;

  BernoulliInjector(const sim::NoiseParams& q_in,
                    const KindMaskTables& masks_in, Trajectory* out_in,
                    std::uint64_t seed)
      : q(q_in), masks(masks_in), out(out_in), rng(seed) {}

  void inject(sim::FrameBatch& frame, const Executor::Segment&, std::size_t,
              const circuit::Gate& gate,
              const std::vector<std::uint64_t>& mask, std::size_t w0,
              std::size_t w1) {
    const sim::LocationKind location = sim::location_kind(gate.kind);
    const auto kind = static_cast<std::size_t>(location);
    if (q.rates[kind] <= 0.0) {
      return;  // No draws: the site can never fault.
    }
    const std::uint64_t num_ops = sim::num_fault_ops(location);
    const sim::BernoulliWordTable& table = masks.by_kind[kind];
    for (std::size_t w = w0; w < w1; ++w) {
      if (mask[w] == 0) {
        continue;  // Sparse branch groups: skip fully inactive words.
      }
      std::uint64_t faulted = table.draw(rng) & mask[w];
      total_faults += static_cast<std::uint64_t>(std::popcount(faulted));
      while (faulted != 0) {
        const std::size_t shot =
            w * 64 + static_cast<std::size_t>(std::countr_zero(faulted));
        faulted &= faulted - 1;
        // Lemire's multiply-shift bounded draw (no division).
        const auto op = static_cast<std::size_t>(
            (static_cast<uint128>(rng()) * num_ops) >> 64);
        frame.apply_fault(sim::fault_op(gate, op), gate, shot);
        if (out != nullptr) {
          ++out[shot].faults[kind];
        }
      }
    }
  }
};

/// One prescribed fault of a planted lane: inject fault operator `op`
/// of global site `site` (the Executor's segment-table numbering).
struct PlanEntry {
  std::uint32_t site = 0;
  std::uint32_t lane = 0;
  std::uint32_t op = 0;
};

/// A wave's plan in CSR form: the faults of global site s are
/// `faults[offsets[s], offsets[s + 1])`, in the plan's order.
struct SitePlan {
  struct Fault {
    std::uint32_t lane = 0;
    std::uint32_t op = 0;
  };
  std::vector<std::uint32_t> offsets;
  std::vector<Fault> faults;

  /// Counting sort of `plan` by site; `num_sites` bounds every site.
  SitePlan(const std::vector<PlanEntry>& plan, std::size_t num_sites)
      : offsets(num_sites + 1, 0), faults(plan.size()) {
    for (const PlanEntry& e : plan) {
      ++offsets[e.site + 1];
    }
    for (std::size_t s = 1; s <= num_sites; ++s) {
      offsets[s] += offsets[s - 1];
    }
    // Placing advances each site's start to its end, which is the next
    // site's start; shifting back by one restores the starts.
    for (const PlanEntry& e : plan) {
      faults[offsets[e.site]++] = {e.lane, e.op};
    }
    for (std::size_t s = num_sites; s > 0; --s) {
      offsets[s] = offsets[s - 1];
    }
    offsets[0] = 0;
  }
};

/// Deterministic per-lane fault plans keyed by *global site index*. A
/// planted fault only fires when its lane actually executes the owning
/// segment — faults planted on never-taken branches are dead by the
/// principle of deferred decisions, which is exactly what makes
/// fault-count sectors well-defined for adaptive protocols.
struct PlantedInjector {
  const SitePlan& plan;

  void inject(sim::FrameBatch& frame, const Executor::Segment& segment,
              std::size_t gate_index, const circuit::Gate& gate,
              const std::vector<std::uint64_t>& mask, std::size_t,
              std::size_t) {
    const std::size_t s = segment.site_base + gate_index;
    for (std::uint32_t i = plan.offsets[s]; i < plan.offsets[s + 1]; ++i) {
      const SitePlan::Fault& fault = plan.faults[i];
      if (sim::get_lane(mask.data(), fault.lane)) {
        frame.apply_fault(sim::fault_op(gate, fault.op), gate, fault.lane);
      }
    }
  }
};

/// Executes one shard of shots bit-packed: prep and verification segments
/// run word-parallel over all live lanes; lanes whose verification
/// outcome is nonzero are regrouped by outcome vector and each group runs
/// its correction branch word-parallel too. Mirrors `Executor::run`
/// lane-for-lane (Fig. 3 control flow, hook termination included). Fault
/// injection is delegated to the `Injector` policy after every gate,
/// together with the gate's entry in the Executor's segment table.
/// The result is the per-word `x_fails`, `z_fails` and `hooked` masks;
/// with a non-null `out`, `run` also fills one `Trajectory` per shot
/// (fail bits, hook bit and site counts).
template <typename Injector>
class ShardRunner {
 public:
  static constexpr std::size_t kLanesPerWord =
      sim::FrameBatch::kLanesPerWord;

  /// A non-null `layout` (checked against the executor by the caller)
  /// pre-sizes the scratch batches to its peak dimensions.
  ShardRunner(const Executor& executor, const DecodeTables& tables,
              std::size_t shots, Trajectory* out, Injector& injector,
              const FrameBatchLayout* layout = nullptr)
      : executor_(executor),
        tables_(tables),
        shots_(shots),
        words_((shots + kLanesPerWord - 1) / kLanesPerWord),
        out_(out),
        injector_(injector),
        n_(executor.protocol().num_data_qubits()),
        data_x_(n_ * words_, 0),
        data_z_(n_ * words_, 0),
        x_fails_(words_, 0),
        z_fails_(words_, 0),
        hooked_(words_, 0) {
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

    // Every lane runs prep and the first verification.
    const Executor::Segment& prep = executor_.segment(protocol.prep);
    KindCounts every_lane = prep.site_counts;
    run_segment(prep, active, verif_frame_);
    bool first = true;
    for (const auto* layer : {&protocol.layer1, &protocol.layer2}) {
      if (!layer->has_value() || !mask_any(active)) {
        continue;
      }
      const Executor::Segment& verif = executor_.segment((*layer)->verif);
      if (first) {
        add_counts(every_lane, verif.site_counts);
      } else {
        add_sites(verif, active);
      }
      first = false;
      run_layer(**layer, verif, active);
    }
    compute_fails(tables_.x, data_x_, x_fails_);
    compute_fails(tables_.z, data_z_, z_fails_);
    if (out_ != nullptr) {
      for (std::size_t shot = 0; shot < shots_; ++shot) {
        Trajectory& t = out_[shot];
        add_counts(t.sites, every_lane);
        t.x_fail = sim::get_lane(x_fails_.data(), shot);
        t.z_fail = sim::get_lane(z_fails_.data(), shot);
        t.hook_terminated = sim::get_lane(hooked_.data(), shot);
      }
    }
  }

  /// Per-word lane masks of the shard's outcome, valid after `run`.
  const std::vector<std::uint64_t>& x_fails() const { return x_fails_; }
  const std::vector<std::uint64_t>& z_fails() const { return z_fails_; }
  const std::vector<std::uint64_t>& hooked() const { return hooked_; }
  /// The mask of the prepared basis's failure (`qec::basis_failure`).
  const std::vector<std::uint64_t>& fails(qec::LogicalBasis basis) const {
    return *qec::basis_failure(basis, &x_fails_, &z_fails_);
  }

 private:
  static void add_counts(KindCounts& into, const KindCounts& counts) {
    for (std::size_t k = 0; k < sim::kNumLocationKinds; ++k) {
      into[k] += counts[k];
    }
  }

  /// Adds the site counts of `segment` to the records of the lanes in
  /// `mask`.
  void add_sites(const Executor::Segment& segment,
                 const std::vector<std::uint64_t>& mask) {
    if (out_ == nullptr) {
      return;
    }
    for_each_lane(mask, [&](std::size_t shot) {
      add_counts(out_[shot].sites, segment.site_counts);
    });
  }

  /// Runs `segment` over the lanes in `mask`: copies the accumulated
  /// data error in, propagates all words gate by gate with policy-driven
  /// fault injection, then copies the data error back out — masked, so
  /// lanes outside `mask` are untouched (their word lanes compute garbage
  /// that is simply discarded).
  void run_segment(const Executor::Segment& segment,
                   const std::vector<std::uint64_t>& mask,
                   sim::FrameBatch& frame) {
    const circuit::Circuit& c = *segment.circuit;
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

    const auto& gates = c.gates();
    for (std::size_t g = 0; g < gates.size(); ++g) {
      frame.apply_gate(gates[g], w0, w1);
      injector_.inject(frame, segment, g, gates[g], mask, w0, w1);
    }

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

  void run_layer(const CompiledLayer& layer, const Executor::Segment& verif,
                 std::vector<std::uint64_t>& active) {
    sim::FrameBatch& frame = verif_frame_;
    run_segment(verif, active, frame);
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
    for (std::size_t w = 0; w < words_; ++w) {
      hooked_[w] |= hooked[w];
      active[w] &= ~hooked[w];
    }
  }

  void run_branch(const CompiledBranch& branch,
                  const std::vector<std::uint64_t>& group_mask) {
    sim::FrameBatch& frame = branch_frame_;
    const Executor::Segment& segment = executor_.segment(branch.circ);
    add_sites(segment, group_mask);
    run_segment(segment, group_mask, frame);
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

  /// Per-lane logical flips of one error type into `fails`, fully
  /// word-parallel: syndrome rows and logical parities are XORs of data
  /// rows. The zero syndrome corrects nothing (`correction_parity[0] ==
  /// 0`), so a lane with a zero syndrome fails on its parity bits alone;
  /// only lanes with a nonzero syndrome gather their bits and look up
  /// the correction.
  void compute_fails(const ErrorDecodeTables& tables,
                     const std::vector<std::uint64_t>& data,
                     std::vector<std::uint64_t>& fails) {
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
    for (std::size_t w = 0; w < words_; ++w) {
      std::uint64_t flagged = 0;
      for (std::size_t i = 0; i < checks; ++i) {
        flagged |= syndrome[i * words_ + w];
      }
      std::uint64_t flipped = 0;
      for (std::size_t i = 0; i < logicals; ++i) {
        flipped |= parity[i * words_ + w];
      }
      std::uint64_t fail = flipped & ~flagged;
      for (std::uint64_t bits = flagged; bits != 0; bits &= bits - 1) {
        const int b = std::countr_zero(bits);
        std::size_t packed = 0;
        for (std::size_t i = 0; i < checks; ++i) {
          packed |= static_cast<std::size_t>(
                        (syndrome[i * words_ + w] >> b) & 1)
                    << i;
        }
        std::uint64_t flips = tables.correction_parity[packed];
        for (std::size_t i = 0; i < logicals; ++i) {
          flips ^= ((parity[i * words_ + w] >> b) & 1) << i;
        }
        if (flips != 0) {
          fail |= std::uint64_t{1} << b;
        }
      }
      fails[w] = fail;
    }
  }

  const Executor& executor_;
  const DecodeTables& tables_;
  std::size_t shots_;
  std::size_t words_;
  Trajectory* out_;
  Injector& injector_;
  std::size_t n_;
  // Accumulated data-qubit error between segments, row per qubit.
  std::vector<std::uint64_t> data_x_;
  std::vector<std::uint64_t> data_z_;
  // The shard's result masks.
  std::vector<std::uint64_t> x_fails_;
  std::vector<std::uint64_t> z_fails_;
  std::vector<std::uint64_t> hooked_;
  // Scratch batches recycled across segments (branch runs happen while
  // the verification frame's outcomes are still being consumed, hence
  // two).
  sim::FrameBatch verif_frame_{0, 0, 0};
  sim::FrameBatch branch_frame_{0, 0, 0};
};

}  // namespace ftsp::core::detail
