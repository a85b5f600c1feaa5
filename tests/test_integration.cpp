// End-to-end integration: synthesis -> exhaustive FT check -> noisy
// simulation -> decoding, mirroring the paper's full evaluation pipeline
// on a representative subset of codes.
#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "core/ft_check.hpp"
#include "core/global_opt.hpp"
#include "core/metrics.hpp"
#include "core/nondet.hpp"
#include "core/protocol.hpp"
#include "core/samplers.hpp"
#include "qec/code_library.hpp"
#include "sim/tableau.hpp"
#include "util/mt64.hpp"

namespace ftsp::core {
namespace {

using qec::LogicalBasis;

TEST(Integration, SteaneFullPipeline) {
  const auto code = qec::steane();
  const auto protocol = synthesize_protocol(code, LogicalBasis::Zero);

  // 1. The protocol is exhaustively fault-tolerant.
  ASSERT_TRUE(check_fault_tolerance(protocol).ok);

  // 2. The preparation makes |0>_L on the tableau simulator.
  sim::Tableau tableau(protocol.prep.num_qubits());
  util::Mt64 rng(1);
  tableau.run(protocol.prep, rng);
  qec::Pauli zl(code.num_qubits());
  zl.z = code.logical_z().row(0);
  EXPECT_TRUE(tableau.stabilizes(zl));

  // 3. Noisy logical error rates scale quadratically and sit well below
  //    the physical rate at p = 1e-2.
  const Executor executor(protocol);
  const decoder::PerfectDecoder decoder(code);
  const std::vector<TrajectoryBatch> batches = {
      sample_protocol_batch(executor, decoder, 0.1, 8000, 1001),
      sample_protocol_batch(executor, decoder, 0.02, 8000, 1002)};
  const auto at_1em2 = estimate_logical_rate(batches, 1e-2);
  EXPECT_GT(at_1em2.mean, 0.0);
  EXPECT_LT(at_1em2.mean, 1e-2);

  const auto at_1em3 = estimate_logical_rate(batches, 1e-3);
  // Quadratic scaling: two decades below at one decade smaller p, within
  // generous statistical slack.
  const double ratio = at_1em3.mean / at_1em2.mean;
  EXPECT_LT(ratio, 0.15);
}

TEST(Integration, DeterministicBeatsPostSelectionInAttempts) {
  const auto protocol =
      synthesize_protocol(qec::steane(), LogicalBasis::Zero);
  const decoder::PerfectDecoder decoder(*protocol.code);
  const auto stats = sample_nondet(protocol, decoder, 0.05, 20000, 77);
  // The non-deterministic scheme needs > 1 attempt on average; the
  // deterministic protocol needs exactly 1 by construction.
  EXPECT_GT(stats.expected_attempts, 1.0);
}

TEST(Integration, TwoLayerCodeFullPipeline) {
  // A d = 4 code with both layers exercises flags, hook branches and the
  // second verification round.
  const auto code = qec::carbon();
  const auto protocol = synthesize_protocol(code, LogicalBasis::Zero);
  ASSERT_TRUE(protocol.layer1.has_value());
  ASSERT_TRUE(protocol.layer2.has_value());
  ASSERT_TRUE(check_fault_tolerance(protocol).ok);

  // At p = 1e-3 the protocol (~200 locations) is firmly in the
  // single-fault regime, so p_L must sit well below p.
  const Executor executor(protocol);
  const decoder::PerfectDecoder decoder(code);
  const std::vector<TrajectoryBatch> batches = {
      sample_protocol_batch(executor, decoder, 0.05, 6000, 2024),
      sample_protocol_batch(executor, decoder, 0.01, 6000, 2025)};
  const auto estimate = estimate_logical_rate(batches, 1e-3);
  EXPECT_LT(estimate.mean, 1e-3);
}

TEST(Integration, MetricsRowsForAllCodesPrintable) {
  // Smoke over the full library with the cheap heuristic settings: the
  // whole Table-I pipeline must run end to end.
  for (const auto& code : qec::all_library_codes()) {
    const auto protocol = synthesize_protocol(code, LogicalBasis::Zero);
    const auto metrics = compute_metrics(protocol);
    const auto row = format_metrics_row(code.name(), metrics);
    EXPECT_FALSE(row.empty());
    EXPECT_TRUE(protocol.layer1.has_value() ||
                protocol.layer2.has_value())
        << code.name() << " needs no verification at all?";
  }
}

TEST(Integration, GlobalOptimizationEndToEnd) {
  const auto result = globally_optimize(qec::shor(), LogicalBasis::Zero);
  ASSERT_TRUE(check_fault_tolerance(result.best).ok);
  const Executor executor(result.best);
  const decoder::PerfectDecoder decoder(*result.best.code);
  const std::vector<TrajectoryBatch> batches = {
      sample_protocol_batch(executor, decoder, 0.05, 6000, 555),
      sample_protocol_batch(executor, decoder, 0.01, 6000, 556)};
  EXPECT_LT(estimate_logical_rate(batches, 1e-3).mean, 1e-3);
}

}  // namespace
}  // namespace ftsp::core
