#include "bench.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "compile/service.hpp"
#include "core/metrics.hpp"
#include "core/synth_cache.hpp"
#include "qec/code_library.hpp"

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;
using namespace ftsp;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t mid = sorted.size() / 2;
  return sorted.size() % 2 == 1 ? sorted[mid]
                                : 0.5 * (sorted[mid - 1] + sorted[mid]);
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) {
    total += v;
  }
  return total;
}

std::size_t due_reps(double done, double whole, std::size_t total) {
  const double share = whole > 0.0 ? std::clamp(done / whole, 0.0, 1.0) : 1.0;
  const auto due =
      static_cast<std::size_t>(std::ceil(share * static_cast<double>(total)));
  return std::clamp<std::size_t>(due, 1, total);
}

// ---------------------------------------------------------------- tracer

Tracer::Tracer(bool enabled, std::string run_id)
    : enabled_(enabled), run_id_(std::move(run_id)), epoch_(Clock::now()) {}

int Tracer::open(const std::string& name) {
  if (!enabled_) {
    return -1;
  }
  SpanRecord span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(int id) {
  if (!enabled_ || id < 0) {
    return;
  }
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  if (!stack_.empty() && stack_.back() == id) {
    stack_.pop_back();
  }
}

void Tracer::record(const std::string& name, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) {
    return;
  }
  SpanRecord span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  spans_.push_back(std::move(span));
}

void Tracer::write_jsonl(const std::string& path) const {
  if (!enabled_) {
    return;
  }
  std::ofstream out(path);
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const auto& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  for (const auto& span : spans_) {
    const std::int64_t self =
        span.end_ns - span.start_ns - child_ns[static_cast<std::size_t>(span.id)];
    out << "{\"run\":\"" << run_id_ << "\",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"self_ns\":" << self
        << "}\n";
  }
}

Span::Span(Tracer& tracer, const std::string& name)
    : tracer_(tracer), id_(tracer.open(name)) {}

Span::~Span() { tracer_.close(id_); }

// ---------------------------------------------------------------- report

void Report::set(const std::string& name, double value) {
  metrics_[name] = value;
}

bool Report::check(bool ok, const std::string& what) {
  count(1, ok ? 0 : 1, what);
  return ok;
}

void Report::count(std::uint64_t n, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += n;
  failed_ += failed;
  if (failed > 0 && failures_.size() < 32) {
    failures_.push_back(what + " (" + std::to_string(failed) + " of " +
                        std::to_string(n) + ")");
  }
}

// ------------------------------------------------------------- affinity

namespace {

cpu_set_t g_started_with;  ///< The process mask before pinning.
cpu_set_t g_pinned;

}  // namespace

int pin_to_one_cpu() {
  if (::sched_getaffinity(0, sizeof(g_started_with), &g_started_with) != 0) {
    return -1;
  }
  // The highest-numbered allowed CPU: a fixed choice, and usually the
  // one the kernel routes the fewest interrupts to.
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &g_started_with)) {
      cpu = c;
    }
  }
  if (cpu < 0) {
    return -1;
  }
  CPU_ZERO(&g_pinned);
  CPU_SET(cpu, &g_pinned);
  return ::sched_setaffinity(0, sizeof(g_pinned), &g_pinned) == 0 ? cpu : -1;
}

AllCpus::AllCpus() {
  ::sched_setaffinity(0, sizeof(g_started_with), &g_started_with);
}

AllCpus::~AllCpus() { ::sched_setaffinity(0, sizeof(g_pinned), &g_pinned); }

BusyCpu::BusyCpu()
    : thread_([this] {
        sched_param param{};
        ::sched_setscheduler(0, SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      }) {}

BusyCpu::~BusyCpu() {
  stop_.store(true, std::memory_order_relaxed);
  thread_.join();
}

// ---------------------------------------------------------------- memory

namespace {

double status_field_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace

double vm_hwm_mb() { return status_field_mb("VmHWM"); }
double vm_rss_mb() { return status_field_mb("VmRSS"); }

void reset_peak_rss() {
  // Freed heap goes back to the system first, so the peak starts from
  // live memory rather than from what earlier phases left cached.
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

// --------------------------------------------------------------- process

std::string run_process(const std::vector<std::string>& argv, int& status) {
  status = -1;
  int fds[2];
  if (::pipe(fds) != 0) {
    return "";
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> args;
  for (const auto& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string output;
  if (rc == 0) {
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::read(fds[0], buffer, sizeof(buffer));
      if (n <= 0) {
        break;
      }
      output.append(buffer, static_cast<std::size_t>(n));
    }
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, 0) == pid && WIFEXITED(wstatus)) {
      status = WEXITSTATUS(wstatus);
    }
  }
  ::close(fds[0]);
  return output;
}

std::uint64_t artifact_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string ext = entry.path().extension().string();
    if (entry.is_regular_file() && (ext == ".ftsa" || ext == ".proof")) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

std::string sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    const bool keep = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                      c == '.' || c == '-';
    if (keep) {
      out.push_back(c);
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  while (!out.empty() && out.back() == '_') {
    out.pop_back();
  }
  return out;
}

// ------------------------------------------------------------ the store

std::vector<CompileJob> library_jobs(std::uint64_t seed, unsigned cores) {
  core::SynthesisOptions options;
  options.capture_proofs = true;
  sat::EngineOptions portfolio;
  portfolio.num_configs = 4;
  portfolio.num_threads =
      std::min<std::size_t>(std::max<std::size_t>(1, cores), 8);
  options.verification.engine = portfolio;
  options.correction.engine = portfolio;
  options.prep.engine.num_configs = portfolio.num_configs;
  options.prep.engine.num_threads = portfolio.num_threads;

  std::vector<CompileJob> jobs;
  for (auto& code : qec::all_library_codes()) {
    const std::string label = code.name();
    jobs.push_back({label, std::move(code), options});
  }
  std::mt19937_64 rng(seed);
  std::shuffle(jobs.begin(), jobs.end(), rng);
  return jobs;
}

std::vector<CompileJob> device_jobs() {
  core::SynthesisOptions options;
  options.capture_proofs = true;
  options.coupling.name = "linear";
  options.prep.method = core::PrepSynthOptions::Method::Optimal;
  std::vector<CompileJob> jobs;
  for (const char* name : {"Steane", "Surface_3"}) {
    jobs.push_back({std::string(name) + "@linear",
                    qec::library_code_by_name(name), options});
  }
  return jobs;
}

std::vector<compile::ProtocolArtifact> compile_store(
    const std::vector<CompileJob>& jobs, const std::string& dir) {
  compile::ArtifactStore store(dir);
  core::SynthCache::instance().clear();
  store.attach_synth_cache();
  std::vector<compile::ProtocolArtifact> artifacts;
  for (const auto& job : jobs) {
    artifacts.push_back(compile::ProtocolCompiler(job.options)
                            .compile(job.code, qec::LogicalBasis::Zero));
    store.put(artifacts.back());
  }
  compile::ArtifactStore::detach_synth_cache();
  return artifacts;
}

double protocol_cnots(
    const std::vector<compile::ProtocolArtifact>& artifacts) {
  double cnots = 0.0;
  for (const auto& artifact : artifacts) {
    const auto metrics = core::compute_metrics(artifact.protocol);
    cnots += static_cast<double>(metrics.prep_cnots + metrics.total_verif_cnots);
  }
  return cnots;
}

std::vector<double> cold_queries(Context& ctx, const std::string& dir,
                                 const std::string& line, int reps) {
  compile::ArtifactStore store(dir);
  compile::ProtocolService direct;
  direct.load_store(store);
  const std::string expected = direct.handle_request(line) + "\n";
  std::vector<double> times_ms;
  for (int rep = 0; rep < reps; ++rep) {
    const Span span(*ctx.tracer, "cli.query");
    int status = -1;
    const auto t0 = Clock::now();
    const std::string response =
        run_process({ctx.cli_path, "query", "--store", dir, line}, status);
    times_ms.push_back(1e3 * seconds_since(t0));
    ctx.report->check(status == 0 && response == expected,
                      "cold query response equals direct handle_request: " +
                          line);
  }
  return times_ms;
}

void report_store_metrics(
    Context& ctx, const std::string& dir,
    const std::vector<compile::ProtocolArtifact>& artifacts,
    const std::vector<double>& query_ms) {
  ctx.report->set("cold_query_ms", median(query_ms));
  ctx.report->set("artifact_kb",
                  static_cast<double>(artifact_bytes(dir)) / 1024.0);
  ctx.report->set("protocol_cnots", protocol_cnots(artifacts));
}

}  // namespace perfbench
