// Naive-vs-stratified logical-error-rate estimation: the acceptance
// benchmark of the fault-sector estimator. For each code it runs
//
//   (a) the naive batched Monte-Carlo sampler at p (a fixed shot
//       budget; its Clopper-Pearson interval is the correctness bar),
//   (b) the stratified fault-sector estimator (exhaustive k <= 2
//       sectors + adaptive conditional sampling),
//
// and gates on two hard criteria:
//   * the stratified estimate lies inside the naive sampler's 99%
//     Clopper-Pearson interval (when the naive run saw any fails), and
//   * the equivalent-shot reduction — naive shots needed for the
//     stratified std error, per lane the estimator actually simulated —
//     is >= 50x at p = 1e-3,
// plus a bit-identity check of the u64 and 256-bit estimator paths.
//
// Plain chrono main (no Google Benchmark dependency), JSON-per-code
// output consumed by the CI bench-smoke job (folded into BENCH_ci.json):
//   bench_rate_estimator [--smoke] [--all] [--p RATE] [--naive-shots N]
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/protocol.hpp"
#include "core/rate_estimator.hpp"
#include "core/samplers.hpp"
#include "decoder/lookup_decoder.hpp"
#include "qec/code_library.hpp"
#include "sim/fault_sectors.hpp"

namespace {

using namespace ftsp;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// %.6e prints "inf" (invalid JSON) when the estimate is fully
/// exhaustive (variance 0); clamp like the serving front end does.
double json_safe(double value) {
  constexpr double kCap = 1e18;
  return std::isfinite(value) ? std::min(value, kCap) : kCap;
}

bool identical(const core::RateEstimate& a, const core::RateEstimate& b) {
  if (a.p_logical != b.p_logical || a.std_error != b.std_error ||
      a.sectors.size() != b.sectors.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.sectors.size(); ++i) {
    if (a.sectors[i].fails != b.sectors[i].fails ||
        a.sectors[i].shots != b.sectors[i].shots ||
        a.sectors[i].fail_rate != b.sectors[i].fail_rate) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool all = false;
  double p = 1e-3;
  std::size_t naive_shots = std::size_t{1} << 22;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--all") == 0) {
      all = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      naive_shots = std::size_t{1} << 20;
    } else if (std::strcmp(argv[i], "--p") == 0 && i + 1 < argc) {
      p = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--naive-shots") == 0 && i + 1 < argc) {
      naive_shots = static_cast<std::size_t>(std::stoul(argv[++i]));
    }
  }

  std::vector<std::string> names = {"Steane", "Surface_3"};
  if (all) {
    names.clear();
    for (const auto& code : qec::all_library_codes()) {
      names.push_back(code.name());
    }
  }

  constexpr double kTargetReduction = 50.0;
  double worst_reduction = std::numeric_limits<double>::infinity();
  bool ok = true;
  std::printf("[\n");
  for (std::size_t c = 0; c < names.size(); ++c) {
    const auto code = qec::library_code_by_name(names[c]);
    const auto protocol =
        core::synthesize_protocol(code, qec::LogicalBasis::Zero);
    const core::Executor executor(protocol);
    const decoder::PerfectDecoder decoder(*protocol.code);

    // --- Naive batched Monte Carlo at a fixed budget.
    const auto t_naive = Clock::now();
    const auto batch =
        core::sample_protocol_batch(executor, decoder, p, naive_shots, 42);
    std::uint64_t naive_fails = 0;
    for (const auto& t : batch.trajectories) {
      naive_fails += t.x_fail;
    }
    const double naive_ms = ms_since(t_naive);
    const auto naive_interval =
        sim::clopper_pearson(naive_fails, naive_shots, 0.01);

    // --- Stratified estimator.
    core::RateOptions options;
    options.rel_err = 0.05;
    options.seed = 42;
    const auto t_strat = Clock::now();
    const auto estimate =
        core::estimate_logical_error_rate(executor, decoder, p, options);
    const double strat_ms = ms_since(t_strat);

    // --- u64 path must agree bit for bit with the (default) wide path.
    core::RateOptions narrow = options;
    narrow.width = core::WordWidth::W64;
    const bool widths_identical = identical(
        estimate,
        core::estimate_logical_error_rate(executor, decoder, p, narrow));

    // Equivalent-shot reduction: naive shots this std error is worth,
    // per lane the estimator actually simulated.
    const double spent = static_cast<double>(estimate.mc_shots) +
                         static_cast<double>(estimate.exhaustive_cases);
    const double reduction = estimate.equivalent_naive_shots / spent;
    worst_reduction = std::min(worst_reduction, reduction);

    const bool inside =
        naive_fails == 0 || (estimate.p_logical >= naive_interval.low &&
                             estimate.p_logical <= naive_interval.high);
    if (!inside || !widths_identical) {
      ok = false;
    }

    std::printf(
        "  {\"code\": \"%s\", \"p\": %g, "
        "\"naive_shots\": %zu, \"naive_fails\": %" PRIu64
        ", \"naive_ci\": [%.6e, %.6e], \"naive_ms\": %.3f, "
        "\"p_logical\": %.6e, \"std_error\": %.3e, "
        "\"mc_shots\": %" PRIu64 ", \"exhaustive_cases\": %" PRIu64
        ", \"strat_ms\": %.3f, \"equivalent_naive_shots\": %.6e, "
        "\"shot_reduction\": %.3e, \"inside_naive_ci\": %s, "
        "\"widths_identical\": %s}%s\n",
        names[c].c_str(), p, naive_shots, naive_fails, naive_interval.low,
        naive_interval.high, naive_ms, estimate.p_logical,
        estimate.std_error, estimate.mc_shots, estimate.exhaustive_cases,
        strat_ms, json_safe(estimate.equivalent_naive_shots),
        json_safe(reduction),
        inside ? "true" : "false", widths_identical ? "true" : "false",
        c + 1 < names.size() ? "," : "");
    if (!inside) {
      std::fprintf(stderr,
                   "FAIL: %s stratified estimate %.4e outside naive 99%% CI "
                   "[%.4e, %.4e]\n",
                   names[c].c_str(), estimate.p_logical, naive_interval.low,
                   naive_interval.high);
    }
    if (!widths_identical) {
      std::fprintf(stderr, "FAIL: %s u64 and SIMD paths diverged\n",
                   names[c].c_str());
    }
  }
  std::printf("]\n");
  std::fprintf(stderr,
               "worst equivalent-shot reduction: %.1fx (target >= %.0fx)\n",
               worst_reduction, kTargetReduction);
  if (worst_reduction < kTargetReduction) {
    ok = false;
  }
  return ok ? 0 : 1;
}
