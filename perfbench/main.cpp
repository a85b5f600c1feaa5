// perfbench: the repository's one benchmark (see README.md here).
//
//   perfbench --workload compile|serve_open|estimate --seed N
//             --seconds S --trace 0|1 --cli PATH --out-dir DIR
//
// Runs one workload, checks its outputs against independent oracles,
// and prints as its last stdout line one JSON object with `correct`,
// `attempted`, `failed` and `values`, every metric it measured by name.
// run.py picks from `values` the metrics BENCHMARK.json lists, with
// their units. Exits 1 when any oracle fails and 2 on a usage or
// build-configuration error.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"

namespace {

namespace fs = std::filesystem;
using perfbench::Clock;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload compile|serve_open|estimate "
               "--seed N --seconds S --trace 0|1 --cli PATH --out-dir DIR\n");
  return 2;
}

/// A fixed integer loop: the unit of the parallel-capacity calibration.
std::uint64_t spin(std::uint64_t iterations, std::uint64_t state) {
  for (std::uint64_t i = 0; i < iterations; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
  }
  return state;
}

/// Effective parallel cores: nproc threads each run the loop one thread
/// runs alone; capacity = nproc * t(1 thread) / t(nproc threads). A
/// machine whose cores are shared reads well below nproc.
struct Calibration {
  double loop_ms = 0.0;   ///< One thread alone, median.
  double capacity = 0.0;  ///< Effective parallel cores.
};

Calibration calibrate(unsigned nproc) {
  constexpr std::uint64_t kIterations = 20'000'000;
  std::vector<double> single;
  std::vector<double> parallel;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    sink += spin(kIterations, 88172645463325252ULL + rep);
    single.push_back(perfbench::seconds_since(t0));
    t0 = Clock::now();
    std::vector<std::uint64_t> results(nproc, 0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < nproc; ++t) {
      threads.emplace_back([&results, t] {
        results[t] = spin(kIterations, 88172645463325252ULL + t);
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    parallel.push_back(perfbench::seconds_since(t0));
    for (const auto r : results) {
      sink += r;
    }
  }
  if (sink == 0) {
    std::fprintf(stderr, "calibration loop degenerated\n");
  }
  return {1e3 * perfbench::median(single),
          static_cast<double>(nproc) * perfbench::median(single) /
              perfbench::median(parallel)};
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string cli_path;
  std::string out_dir;
  perfbench::Context ctx;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) {
        return usage();
      }
      const std::string value = argv[++i];
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        ctx.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        ctx.seconds = std::stod(value);
        have_seconds = ctx.seconds > 0;
      } else if (arg == "--trace") {
        ctx.trace = value == "1";
        have_trace = value == "0" || value == "1";
      } else if (arg == "--cli") {
        cli_path = value;
      } else if (arg == "--out-dir") {
        out_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (workload.empty() || cli_path.empty() || out_dir.empty() ||
      !have_seed || !have_seconds || !have_trace) {
    return usage();
  }
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench: refusing to report from a build with assertions "
               "enabled (build type %s); configure with "
               "-DCMAKE_BUILD_TYPE=Release\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
  ctx.cli_path = cli_path;
  const std::string run_id =
      workload + "-seed" + std::to_string(ctx.seed) + "-trace" +
      (ctx.trace ? "1" : "0");
  ctx.work_dir = (fs::path(out_dir) /
                  ("work-" + run_id + "-" + std::to_string(::getpid())))
                     .string();
  fs::remove_all(ctx.work_dir);
  fs::create_directories(ctx.work_dir);
  perfbench::Tracer tracer(ctx.trace, run_id);
  perfbench::Report report;
  ctx.tracer = &tracer;
  ctx.report = &report;

  const Calibration calibration = calibrate(ctx.nproc);
  // This machine's parallel capacity swings between about one and
  // nproc cores from minute to minute (see the calibration), while one
  // core's speed holds steady: the run keeps to one CPU, and its timed
  // multi-threaded calls use one thread, as on a one-core machine.
  const int cpu = perfbench::pin_to_one_cpu();
  ctx.threads = cpu >= 0 ? 1 : ctx.nproc;
  std::printf(
      "{\"machine\":{\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
      "\"calibration_loop_ms\":%.3f,\"parallel_capacity\":%.3f,"
      "\"pinned_cpu\":%d,\"threads\":%u,"
      "\"workload\":\"%s\",\"seed\":%llu,"
      "\"seconds\":%g,\"trace\":%d}}\n",
      ctx.nproc, json_escape(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      calibration.loop_ms, calibration.capacity, cpu, ctx.threads,
      workload.c_str(), static_cast<unsigned long long>(ctx.seed),
      ctx.seconds, ctx.trace ? 1 : 0);
  std::fflush(stdout);

  int exit_code = 0;
  try {
    if (workload == "compile") {
      perfbench::run_compile(ctx);
    } else if (workload == "serve_open") {
      perfbench::run_serve_open(ctx);
    } else if (workload == "estimate") {
      perfbench::run_estimate(ctx);
    } else {
      fs::remove_all(ctx.work_dir);
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s workload aborted: %s\n",
                 workload.c_str(), e.what());
    report.check(false, std::string("workload aborted: ") + e.what());
  }
  report.set("machine.parallel_capacity", calibration.capacity);
  fs::remove_all(ctx.work_dir);
  if (ctx.trace) {
    const std::string trace_path =
        (fs::path(out_dir) / ("trace-" + run_id + ".jsonl")).string();
    tracer.write_jsonl(trace_path);
    std::fprintf(stderr, "perfbench: spans written to %s\n",
                 trace_path.c_str());
  }

  std::string values;
  for (const auto& [name, value] : report.metrics()) {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\":%.17g",
                  values.empty() ? "" : ",", name.c_str(), value);
    values += buffer;
  }
  for (const auto& failure : report.failures()) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = report.failed() == 0;
  if (!correct) {
    exit_code = 1;
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"values\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              values.c_str());
  return exit_code;
}
