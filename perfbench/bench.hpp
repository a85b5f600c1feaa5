#pragma once

// Shared infrastructure of the perf ledger: run context, result report,
// in-memory span tracer, order statistics, memory probes and the
// cold-process runner. Every timing uses std::chrono::steady_clock and
// every random choice an explicitly seeded std::mt19937_64.

#include <chrono>
#include <cstdint>
#include <atomic>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "compile/artifact.hpp"
#include "compile/store.hpp"
#include "core/protocol.hpp"
#include "qec/css_code.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);
double seconds_since(Clock::time_point from);

/// Order statistics over a copy of `values` (nearest-rank on the sorted
/// sample; 0 for an empty sample).
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
double sum(const std::vector<double>& values);

/// One recorded span: a timed call into a layer, parented by the span
/// that was open when it started. All spans of one run share `run_id`.
struct SpanRecord {
  std::string name;
  std::int64_t start_ns = 0;  ///< Relative to the tracer's epoch.
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;
};

/// Spans kept in memory and written as JSONL when the run ends. Only
/// the benchmark's main thread records spans. Disabled tracers record
/// nothing, so untraced runs pay one branch per span site.
class Tracer {
 public:
  Tracer(bool enabled, std::string run_id);

  int open(const std::string& name);
  void close(int id);
  /// Records a finished span whose interval the caller measured (one
  /// of many overlapping requests), parented by the open span.
  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end);

  /// One JSON object per span, with its self time (duration minus the
  /// time its direct children cover) as `self_ns`.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::string run_id_;
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// What one benchmark run reports: the metrics by name (their units
/// are listed in BENCHMARK.json), plus every checked operation
/// (attempted) and every failed check (failed).
class Report {
 public:
  void set(const std::string& name, double value);

  /// Counts one checked operation; a false `ok` records a failure.
  bool check(bool ok, const std::string& what);
  /// Counts `n` operations of which `failed` failed.
  void count(std::uint64_t n, std::uint64_t failed, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  const std::map<std::string, double>& metrics() const { return metrics_; }

 private:
  std::map<std::string, double> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Set-up is repeated this many times per run and reported as the
/// median, so work moved into set-up shows above the noise.
constexpr std::size_t kSetupReps = 15;

/// How many of `total` repetitions of a measurement are due once `done`
/// of a run's `whole` has passed: at least one, at most `total`. This
/// host's speed drifts from second to second, so repetitions spread over
/// the run average the drift out, where a burst catches one moment of it.
std::size_t due_reps(double done, double whole, std::size_t total);

struct Context {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned nproc = 1;
  /// CPUs the run may use (1 once pinned): the thread count of every
  /// timed multi-threaded call, as `nproc` would be on a machine with
  /// that many cores.
  unsigned threads = 1;
  std::string work_dir;  ///< Scratch directory owned by this run.
  std::string cli_path;  ///< The ftsp_cli executable under test.
  Tracer* tracer = nullptr;
  Report* report = nullptr;
};

/// Pins the calling thread — and every thread it creates afterwards —
/// to one CPU, the highest-numbered one it may use; returns that CPU
/// (-1 when refused).
int pin_to_one_cpu();
/// RAII: the calling thread (and threads it creates meanwhile) may use
/// every CPU the process started with, for a measurement of parallel
/// scaling inside a pinned run.
class AllCpus {
 public:
  AllCpus();
  ~AllCpus();
  AllCpus(const AllCpus&) = delete;
  AllCpus& operator=(const AllCpus&) = delete;
};

/// RAII: a lowest-priority (SCHED_IDLE) thread spinning on the pinned
/// CPU, so the CPU never idles between requests. Any other thread that
/// wakes preempts it at once; what it prevents is the wake-up delay of
/// a halted virtual CPU.
class BusyCpu {
 public:
  BusyCpu();
  ~BusyCpu();
  BusyCpu(const BusyCpu&) = delete;
  BusyCpu& operator=(const BusyCpu&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Peak resident set (VmHWM) and current resident set (VmRSS), MiB.
double vm_hwm_mb();
double vm_rss_mb();
/// Resets VmHWM to the current RSS (no-op where the kernel refuses).
void reset_peak_rss();

/// Runs `argv` as a child process, waits for it, and returns its
/// standard output; `status` receives the exit status (-1 when the
/// child could not be started).
std::string run_process(const std::vector<std::string>& argv, int& status);

/// Sum of the sizes of the `.ftsa` and `.proof` files in `dir`, bytes.
std::uint64_t artifact_bytes(const std::string& dir);

/// `[A-Za-z0-9_.-]` only: other characters become `_`, and leading,
/// trailing and repeated `_` are dropped ("[[11,1,3]]" -> "11_1_3").
std::string sanitize(const std::string& name);

// ----------------------------------------------------------------------
// The compiled library store shared by the workloads.

/// One compile job: a code and the options `ftsp_cli compile` uses.
struct CompileJob {
  std::string label;  ///< Serving name ("Steane", "Steane@linear").
  ftsp::qec::CssCode code;
  ftsp::core::SynthesisOptions options;
};

/// The nine library codes with `ftsp_cli compile --all` settings:
/// portfolio engine on min(cores, 8) threads with `cores` the CPUs the
/// run may use, proof capture on. The order is a seeded shuffle;
/// compiles are order-independent because the synthesis cache is
/// cleared per pass, and thread-count-independent by the portfolio's
/// determinism contract.
std::vector<CompileJob> library_jobs(std::uint64_t seed, unsigned cores);
/// The SAT-optimal device compiles `ftsp_cli compile <code> --coupling
/// linear` runs: sequential engine, optimal preparation, proofs on.
std::vector<CompileJob> device_jobs();

/// Compiles `jobs` into a fresh store at `dir` (synthesis cache cleared
/// first and attached to the store, as the CLI does); returns the
/// artifacts in job order.
std::vector<ftsp::compile::ProtocolArtifact> compile_store(
    const std::vector<CompileJob>& jobs, const std::string& dir);

/// Σ prep CNOTs + Σ verification CNOTs (core::compute_metrics) — the
/// paper's output quality.
double protocol_cnots(const std::vector<ftsp::compile::ProtocolArtifact>&);

/// Times `reps` cold-process `ftsp_cli query` calls of `line` against
/// the store at `dir`, checking each response byte-equals a direct
/// `handle_request` of the same line; returns the per-call times, ms.
std::vector<double> cold_queries(Context& ctx, const std::string& dir,
                                 const std::string& line, int reps);

/// Reports the three store-derived end-to-end metrics every workload
/// shares: cold query latency, artifact size and protocol CNOTs.
void report_store_metrics(
    Context& ctx, const std::string& dir,
    const std::vector<ftsp::compile::ProtocolArtifact>& artifacts,
    const std::vector<double>& query_ms);

// ----------------------------------------------------------------------
// Workloads. Each fills every end-to-end metric, and in traced runs the
// per-layer metrics of the layers it exercises.

void run_compile(Context& ctx);
void run_serve_open(Context& ctx);
void run_estimate(Context& ctx);

}  // namespace perfbench
