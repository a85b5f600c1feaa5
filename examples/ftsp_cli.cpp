// Command-line front end: synthesize, check, simulate, export — and the
// compile/serve/query trio of the precompiled-artifact pipeline.
//
//   ftsp_cli synth   <code> [--basis zero|plus] [--defer-flags]
//                    [--save FILE] [--coupling <name|file>]
//                    [--gadget-reach N]
//   ftsp_cli check   <code|@FILE>
//   ftsp_cli report  <code|@FILE>
//   ftsp_cli qasm    <code|@FILE>
//   ftsp_cli sim     <code|@FILE> [--p RATE] [--shots N]
//   ftsp_cli rate    <code|@FILE> [--p RATE | --p-sweep MIN:MAX:POINTS]
//                    [--rel-err R] [--max-shots N] [--seed S] [--sectors]
//       Stratified fault-sector logical-error-rate estimation: exact
//       small-fault sectors + adaptive conditional sampling — orders of
//       magnitude fewer shots than `sim` at low p, and one --p-sweep
//       pass prices a whole curve.
//   ftsp_cli table   <code>           (Table-I style metrics row)
//   ftsp_cli codes                     (list the built-in library)
//
//   ftsp_cli compile <code|--all> --store DIR [--basis zero|plus]
//                    [--defer-flags] [--force]
//                    [--coupling <name|file>] [--gadget-reach N]
//       Offline synthesis sweep: compiles protocols into artifact files
//       under DIR (see src/compile/format.md). Already-compiled keys are
//       skipped unless --force. Every SAT query runs on the one CDCL
//       solver (sat::Solver), single-threaded and deterministic.
//       --coupling targets a device topology (builtin name or map file;
//       implies SAT-optimal prep); --gadget-reach bounds measurement-
//       ancilla transport (0 = unbounded, 1 = strict neighbor walk).
//       Device artifacts serve under "<code>@<map>" names; `query`
//       accepts --coupling NAME to retarget a request's "code" field.
//       Compiles capture optimality proofs by default: every
//       optimality-anchoring UNSAT leg of the SAT sweeps is logged as a
//       DRAT refutation, checked in-process, fingerprinted into the
//       artifact and persisted as a .proof sidecar, which only `audit`
//       reads (serving never opens it). --no-proofs opts out (artifact
//       bytes then match pre-proof builds exactly).
//   ftsp_cli store   --store DIR --prune [--dry-run]
//                    [--max-cache-age-days N]
//       Store garbage collection: removes orphaned .ftsa containers
//       (key churn), orphaned .proof sidecars, leftover .tmp files, and
//       corrupt or aged-out satcache entries. --dry-run lists without
//       deleting.
//   ftsp_cli audit   [--store DIR | --artifact FILE]
//       Static audit: re-verifies every artifact without a solver in
//       the loop — container CRCs, decoder-table rehydration against
//       freshly built tables, the exhaustive fault-tolerance check, the
//       coupling-realizability audit, and a full DRAT re-check of every
//       stored optimality proof against its fingerprinted premise.
//       Exits nonzero if any artifact fails.
//   ftsp_cli serve   --store DIR [--threads N]
//                    [--socket PATH | --tcp HOST:PORT] [--reload]
//                    [--cache-mb N] [--max-connections N]
//                    [--idle-timeout-ms N] [--request-timeout-ms N]
//                    [--metrics HOST:PORT] [--access-log FILE]
//       Loads every artifact and answers newline-delimited JSON requests
//       — zero SAT work — through one server on one of three
//       transports: stdin/stdout (the default; exits 0 once stdin hits
//       EOF and every answer is written), a unix socket file
//       (--socket), or a multi-client TCP endpoint (--tcp). Every other
//       flag works on every transport: hot store reload (--reload
//       watches index.tsv and swaps atomically; the `reload` op forces
//       a swap), cross-request coalescing, and an LRU response cache
//       (--cache-mb). --metrics serves a Prometheus plaintext scrape
//       endpoint on a TCP port; --access-log appends one JSONL line per
//       request (rotate by rename, see src/serve/access_log.hpp).
//       --request-timeout-ms bounds every request from arrival to
//       answer (expired requests get a `deadline_exceeded` error and
//       cancel cooperatively mid-compute). SIGTERM/SIGINT drain
//       gracefully: in-flight requests finish, the access log flushes,
//       and the process exits 0. See src/serve/protocol.md.
//   ftsp_cli query   --store DIR <json|->
//       One-shot request against the store (reads stdin when "-").
//       Failures print the same machine-readable error envelope the
//       servers emit (exit 1 on store errors, 0 for answered requests
//       including request-level errors, 2 on usage errors).
//
// <code> is a library name (e.g. Steane) or a path to a CSS code file in
// the code_io format; @FILE loads a previously saved protocol.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "compile/artifact.hpp"
#include "compile/format.hpp"
#include "compile/json.hpp"
#include "compile/service.hpp"
#include "compile/store.hpp"
#include "core/executor.hpp"
#include "core/ft_check.hpp"
#include "core/metrics.hpp"
#include "core/protocol.hpp"
#include "core/qasm_export.hpp"
#include "core/rate_estimator.hpp"
#include "core/report.hpp"
#include "core/samplers.hpp"
#include "core/serialize.hpp"
#include "core/synth_cache.hpp"
#include "qec/code_io.hpp"
#include "qec/code_library.hpp"
#include "sat/dimacs.hpp"
#include "sat/drat_check.hpp"
#include "serve/cache.hpp"
#include "serve/reload.hpp"
#include "serve/tcp_server.hpp"
#include "serve/wire.hpp"
#include "util/binio.hpp"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace {

using namespace ftsp;

/// A malformed command line (unknown value, missing flag argument).
/// Caught in main: prints the message plus the usage text and exits 2 —
/// distinct from runtime failures, which exit 1.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Checked numeric parsing: the whole token must be consumed and in
/// range. Replaces the bare std::stoul/stod/stoull calls, which aborted
/// the process with an uncaught exception on input like `--shots abc`.
std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE ||
      text.find('-') != std::string::npos) {
    throw UsageError(flag + " wants a non-negative integer, got '" + text +
                     "'");
  }
  return value;
}

std::size_t parse_size(const std::string& flag, const std::string& text) {
  return static_cast<std::size_t>(parse_u64(flag, text));
}

double parse_double(const std::string& flag, const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || errno == ERANGE) {
    throw UsageError(flag + " wants a number, got '" + text + "'");
  }
  return value;
}

/// The value of a flag in a subcommand argument vector; advances `i`.
/// A flag in last position has no value — that used to read past the
/// vector (or be silently ignored); now it is a usage error.
const std::string& flag_value(const std::vector<std::string>& args,
                              std::size_t& i) {
  if (i + 1 >= args.size()) {
    throw UsageError(args[i] + " needs a value");
  }
  return args[++i];
}

/// Same for the raw argv loop of the synth-family commands.
std::string flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    throw UsageError(std::string(argv[i]) + " needs a value");
  }
  return argv[++i];
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// `--coupling <name|file>`: a built-in topology name, or a path to a
/// coupling-map file in the code_io format.
qec::CouplingSpec parse_coupling_spec(const std::string& value) {
  qec::CouplingSpec spec;
  if (qec::CouplingMap::is_builtin_name(value)) {
    spec.name = value;
    return spec;
  }
  if (!std::filesystem::exists(value)) {
    throw UsageError(
        "--coupling wants a builtin map (all, linear, ring, grid, "
        "heavy-hex) or a coupling-map file, got '" +
        value + "'");
  }
  auto map = std::make_shared<const qec::CouplingMap>(
      qec::parse_coupling_map(read_file(value)));
  spec.name = map->name();
  spec.custom = std::move(map);
  return spec;
}

/// Applies a coupling spec to synthesis options. Constrained maps force
/// SAT-optimal preparation: the heuristic usually cannot satisfy a
/// restricted map and would error out, while the SAT search encodes the
/// allowed pairs directly.
void apply_coupling(core::SynthesisOptions& options,
                    const std::string& value) {
  // Flag order is free: keep a --gadget-reach that was parsed first.
  const std::size_t reach = options.coupling.gadget_reach;
  options.coupling = parse_coupling_spec(value);
  options.coupling.gadget_reach = reach;
  if (!options.coupling.is_all_to_all()) {
    options.prep.method = core::PrepSynthOptions::Method::Optimal;
  }
}

qec::CssCode resolve_code(const std::string& spec) {
  try {
    return qec::library_code_by_name(spec);
  } catch (const std::invalid_argument&) {
    return qec::parse_css_code(read_file(spec));
  }
}

core::Protocol resolve_protocol(const std::string& spec,
                                const core::SynthesisOptions& options) {
  if (!spec.empty() && spec[0] == '@') {
    return core::load_protocol(read_file(spec.substr(1)));
  }
  return core::synthesize_protocol(resolve_code(spec),
                                   qec::LogicalBasis::Zero, options);
}

int usage() {
  std::fprintf(stderr,
               "usage: ftsp_cli synth|check|report|qasm|sim|rate|table "
               "<code> [options], ftsp_cli codes,\n"
               "       ftsp_cli compile <code|--all> --store DIR "
               "[--basis zero|plus] [--defer-flags] [--force] "
               "[--coupling <name|file>] [--gadget-reach N],\n"
               "       ftsp_cli compile ... [--no-proofs],\n"
               "       ftsp_cli store --store DIR --prune [--dry-run] "
               "[--max-cache-age-days N],\n"
               "       ftsp_cli audit [--store DIR | --artifact FILE],\n"
               "       ftsp_cli serve --store DIR [--threads N] "
               "[--socket PATH | --tcp HOST:PORT] [--reload] "
               "[--cache-mb N] [--max-connections N] "
               "[--idle-timeout-ms N] [--request-timeout-ms N] "
               "[--metrics HOST:PORT] [--access-log FILE],\n"
               "       ftsp_cli query --store DIR [--coupling NAME] "
               "<json|->\n"
               "coupling maps: all, linear, ring, grid, heavy-hex, or a "
               "coupling-map file (see README)\n");
  return 2;
}

int run_compile(const std::vector<std::string>& args) {
  std::string store_dir;
  std::string target;
  qec::LogicalBasis basis = qec::LogicalBasis::Zero;
  core::SynthesisOptions options;
  // Proof-carrying compiles are the default: the capture costs a bounded
  // slice of solve time (see bench_proof_overhead) and makes the store
  // auditable offline. --no-proofs restores bit-identical pre-proof
  // artifacts.
  options.capture_proofs = true;
  bool all = false;
  bool force = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--store") {
      store_dir = flag_value(args, i);
    } else if (args[i] == "--all") {
      all = true;
    } else if (args[i] == "--force") {
      force = true;
    } else if (args[i] == "--no-proofs") {
      options.capture_proofs = false;
    } else if (args[i] == "--defer-flags") {
      options.flag_policy = core::FlagPolicy::DeferToNextLayer;
    } else if (args[i] == "--coupling") {
      apply_coupling(options, flag_value(args, i));
    } else if (args[i] == "--gadget-reach") {
      options.coupling.gadget_reach =
          parse_size("--gadget-reach", flag_value(args, i));
    } else if (args[i] == "--basis") {
      const std::string& value = flag_value(args, i);
      if (value != "zero" && value != "plus") {
        throw UsageError("--basis wants zero or plus, got '" + value + "'");
      }
      basis = value == "plus" ? qec::LogicalBasis::Plus
                              : qec::LogicalBasis::Zero;
    } else if (target.empty() && !args[i].empty() && args[i][0] != '-') {
      target = args[i];
    } else {
      // A typo'd flag must not silently compile a differently-configured
      // artifact.
      throw UsageError("unknown argument '" + args[i] + "'");
    }
  }
  if (store_dir.empty() || (target.empty() && !all)) {
    return usage();
  }

  compile::ArtifactStore store(store_dir);
  // Warm SAT-cache persistence rides along with the artifact files, so
  // even aborted compiles leave reusable solver results behind.
  store.attach_synth_cache();
  const compile::ProtocolCompiler compiler(options);

  std::vector<qec::CssCode> codes;
  if (all) {
    codes = qec::all_library_codes();
  } else {
    codes.push_back(resolve_code(target));
  }
  for (const auto& code : codes) {
    const std::string key = compile::artifact_key(code, basis, options);
    if (!force && store.contains(key)) {
      std::printf("%-14s already compiled (use --force to recompile)\n",
                  code.name().c_str());
      continue;
    }
    const auto artifact = compiler.compile(code, basis);
    store.put(artifact);
    std::size_t proofs_present = 0;
    for (const auto& proof : artifact.proofs) {
      if (proof.present) {
        ++proofs_present;
      }
    }
    std::printf(
        "%-14s compiled in %.2fs (%llu solver calls, %u prep CNOTs, "
        "%u branches, %zu/%zu proof(s)%s%s)\n",
        code.name().c_str(), artifact.provenance.wall_seconds,
        static_cast<unsigned long long>(
            artifact.provenance.solver_invocations),
        artifact.provenance.prep_cnots, artifact.provenance.branch_count,
        proofs_present, artifact.proofs.size(),
        artifact.coupling != nullptr
            ? (", coupling " + artifact.coupling->name()).c_str()
            : "",
        artifact.provenance.prep_fallback ? ", HEURISTIC PREP FALLBACK"
                                          : "");
  }
  std::printf("store %s: %zu artifact(s)\n", store_dir.c_str(),
              store.size());
  return 0;
}

int run_store(const std::vector<std::string>& args) {
  std::string store_dir;
  bool prune = false;
  bool dry_run = false;
  std::chrono::seconds max_age{0};
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--store") {
      store_dir = flag_value(args, i);
    } else if (args[i] == "--prune") {
      prune = true;
    } else if (args[i] == "--dry-run") {
      dry_run = true;
    } else if (args[i] == "--max-cache-age-days") {
      const std::uint64_t days =
          parse_u64("--max-cache-age-days", flag_value(args, i));
      // Bounded so hours{24} * days cannot overflow (and a fat-fingered
      // huge value cannot silently read as "no age limit").
      if (days > 36500) {
        throw UsageError("--max-cache-age-days wants at most 36500, got " +
                         std::to_string(days));
      }
      max_age = std::chrono::hours{24} * static_cast<long>(days);
    } else {
      throw UsageError("unknown argument '" + args[i] + "'");
    }
  }
  if (store_dir.empty() || !prune) {
    return usage();
  }
  const compile::ArtifactStore store(store_dir);
  const auto report = store.prune(dry_run, max_age);
  for (const auto& name : report.removed) {
    std::printf("%s %s\n", dry_run ? "would remove" : "removed",
                name.c_str());
  }
  std::printf(
      "%s: %zu artifact(s) indexed; %s %zu orphaned artifact(s), "
      "%zu orphaned proof sidecar(s), %zu temp "
      "file(s), %zu stale cache entr%s (%llu bytes)\n",
      store_dir.c_str(), store.size(),
      dry_run ? "would reclaim" : "reclaimed", report.orphan_artifacts,
      report.orphan_proofs, report.temp_files, report.stale_cache_entries,
      report.stale_cache_entries == 1 ? "y" : "ies",
      static_cast<unsigned long long>(report.bytes));
  return 0;
}

/// Audits one fully decoded artifact: decoder-table cross-check against
/// freshly built tables, the exhaustive single-fault FT check, the
/// coupling-realizability audit, and a byte-level + semantic re-check of
/// every stored optimality proof (sizes, CRCs, compile-time verdict, and
/// an independent forward DRAT run — no solver in the loop). Prints a
/// per-artifact report; returns the number of failed checks. Absent
/// proof entries are reported but never fail the audit — they are the
/// honest record of stages with nothing to prove.
std::size_t audit_artifact(const std::string& label,
                           const compile::ProtocolArtifact& artifact) {
  std::vector<std::string> failures;
  std::size_t proofs_checked = 0;
  std::size_t proofs_absent = 0;

  const auto& protocol = artifact.protocol;
  {
    const auto fresh_x =
        decoder::LookupDecoder(*protocol.code, qec::PauliType::X).table();
    const auto fresh_z =
        decoder::LookupDecoder(*protocol.code, qec::PauliType::Z).table();
    if (artifact.x_decoder_table != fresh_x) {
      failures.push_back("stored X decoder table differs from rebuild");
    }
    if (artifact.z_decoder_table != fresh_z) {
      failures.push_back("stored Z decoder table differs from rebuild");
    }
  }

  const auto ft = core::check_fault_tolerance(protocol);
  if (!ft.ok) {
    failures.push_back("fault tolerance VIOLATED (" +
                       std::to_string(ft.violations.size()) +
                       " violation(s), e.g. " + ft.violations.front() + ")");
  }

  if (artifact.coupling != nullptr) {
    const auto violations = core::check_protocol_coupling(
        protocol, *artifact.coupling, artifact.gadget_reach);
    if (!violations.empty()) {
      failures.push_back("coupling map '" + artifact.coupling->name() +
                         "' violated: " + violations.front());
    }
  }

  for (const auto& proof : artifact.proofs) {
    if (!proof.present) {
      ++proofs_absent;
      continue;
    }
    const std::string where = "proof [" + proof.stage + "] \"" +
                              proof.claim + "\": ";
    if (!proof.checked) {
      failures.push_back(where + "compile-time checker verdict is FAIL");
      continue;
    }
    if (proof.premise_dimacs.empty() && proof.drat.empty()) {
      failures.push_back(where +
                         "proof bytes missing (sidecar absent, stale or "
                         "mismatched)");
      continue;
    }
    if (proof.premise_dimacs.size() != proof.premise_size ||
        util::crc32(proof.premise_dimacs) != proof.premise_crc) {
      failures.push_back(where + "premise bytes do not match fingerprint");
      continue;
    }
    if (proof.drat.size() != proof.drat_size ||
        util::crc32(proof.drat) != proof.drat_crc) {
      failures.push_back(where + "DRAT bytes do not match fingerprint");
      continue;
    }
    try {
      // The persisted premise bakes the solve-time assumptions in as
      // unit clauses, so the re-check runs assumption-free.
      const sat::CnfFormula premise =
          sat::parse_dimacs_string(proof.premise_dimacs);
      const auto verdict = sat::check_drat(premise.clauses, proof.drat);
      if (!verdict.ok) {
        failures.push_back(where + "DRAT re-check failed: " + verdict.error);
      } else {
        ++proofs_checked;
      }
    } catch (const std::exception& e) {
      failures.push_back(where + std::string("premise parse failed: ") +
                         e.what());
    }
  }

  if (failures.empty()) {
    std::printf(
        "%-40s OK (%zu faults, %zu proof(s) re-checked, %zu absent)\n",
        label.c_str(), ft.faults_checked, proofs_checked, proofs_absent);
  } else {
    std::printf("%-40s FAIL\n", label.c_str());
    for (const auto& failure : failures) {
      std::printf("    %s\n", failure.c_str());
    }
  }
  return failures.size();
}

int run_audit(const std::vector<std::string>& args) {
  std::string store_dir;
  std::string artifact_file;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--store") {
      store_dir = flag_value(args, i);
    } else if (args[i] == "--artifact") {
      artifact_file = flag_value(args, i);
    } else {
      throw UsageError("unknown argument '" + args[i] + "'");
    }
  }
  if (store_dir.empty() == artifact_file.empty()) {
    throw UsageError("audit wants exactly one of --store DIR or "
                     "--artifact FILE");
  }

  std::size_t artifacts = 0;
  std::size_t failures = 0;
  if (!artifact_file.empty()) {
    // Standalone container: the proof sidecar is its sibling
    // "<stem>.proof" (how ArtifactStore lays files out); a missing
    // sidecar leaves the byte fields empty, which the audit then flags
    // for every present proof entry.
    std::ifstream in(artifact_file, std::ios::binary);
    if (!in) {
      throw std::runtime_error("cannot open " + artifact_file);
    }
    std::ostringstream bytes;
    bytes << in.rdbuf();
    compile::ProtocolArtifact artifact =
        compile::decode_artifact(bytes.str());
    compile::read_proof_sidecar(
        artifact, std::filesystem::path(artifact_file)
                      .replace_extension(".proof")
                      .string());
    ++artifacts;
    failures += audit_artifact(artifact_file, artifact);
  } else {
    if (!std::filesystem::is_directory(store_dir)) {
      throw std::runtime_error("store directory does not exist: " +
                               store_dir);
    }
    const compile::ArtifactStore store(store_dir);
    for (const auto& key : store.keys()) {
      // get() re-verifies the container CRCs (structural corruption
      // surfaces here) and returns metadata-only proof entries;
      // load_proofs() then rehydrates their bytes from the sidecar.
      try {
        auto artifact = store.get(key);
        if (!artifact.has_value()) {
          std::printf("%-40s FAIL\n    vanished from index\n", key.c_str());
          ++failures;
          ++artifacts;
          continue;
        }
        store.load_proofs(*artifact);
        ++artifacts;
        failures += audit_artifact(
            artifact->protocol.code->name() + " (" +
                (artifact->protocol.basis == qec::LogicalBasis::Zero
                     ? "zero"
                     : "plus") +
                (artifact->coupling != nullptr
                     ? ", " + artifact->coupling->name()
                     : "") +
                ")",
            *artifact);
      } catch (const compile::ArtifactFormatError& e) {
        std::printf("%-40s FAIL\n    %s\n", key.c_str(), e.what());
        ++failures;
        ++artifacts;
      }
    }
  }
  std::printf("audit: %zu artifact(s), %zu failure(s)\n", artifacts,
              failures);
  return failures == 0 ? 0 : 1;
}

/// Read-only consumers (serve/query) must not silently create an empty
/// store out of a mistyped --store path — that masks the operator's
/// mistake behind "unknown code" errors.
void require_store_exists(const std::string& dir) {
  if (!std::filesystem::is_directory(dir)) {
    throw std::runtime_error("store directory does not exist: " + dir +
                             " (create it with 'ftsp_cli compile')");
  }
}

#ifndef _WIN32
/// Self-pipe for graceful shutdown: a signal handler may only call
/// async-signal-safe functions, so SIGTERM/SIGINT write one byte here
/// and a waiter thread turns it into TcpServer::stop() — in-flight
/// requests drain, the access log flushes, the process exits 0.
int g_shutdown_pipe[2] = {-1, -1};

void handle_shutdown_signal(int) {
  const char byte = 1;
  // Only job is waking the waiter; a full pipe has already done that.
  [[maybe_unused]] const ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
}
#endif

int run_serve(const std::vector<std::string>& args) {
  std::string store_dir;
  std::string socket_path;
  std::string tcp_spec;
  std::string metrics_spec;
  bool reload = false;
  serve::ReloadableService::Options reload_options;
  serve::TcpServerOptions server_options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--store") {
      store_dir = flag_value(args, i);
    } else if (args[i] == "--threads") {
      server_options.num_threads =
          parse_size("--threads", flag_value(args, i));
    } else if (args[i] == "--socket") {
      socket_path = flag_value(args, i);
    } else if (args[i] == "--tcp") {
      tcp_spec = flag_value(args, i);
    } else if (args[i] == "--metrics") {
      metrics_spec = flag_value(args, i);
    } else if (args[i] == "--access-log") {
      reload_options.access_log = flag_value(args, i);
    } else if (args[i] == "--reload") {
      reload = true;
    } else if (args[i] == "--cache-mb") {
      reload_options.cache_bytes =
          parse_size("--cache-mb", flag_value(args, i)) << 20;
    } else if (args[i] == "--max-connections") {
      server_options.max_connections =
          parse_size("--max-connections", flag_value(args, i));
      if (server_options.max_connections == 0) {
        throw UsageError("--max-connections must be at least 1");
      }
    } else if (args[i] == "--idle-timeout-ms") {
      server_options.idle_timeout = std::chrono::milliseconds(
          parse_size("--idle-timeout-ms", flag_value(args, i)));
    } else if (args[i] == "--request-timeout-ms") {
      server_options.request_timeout = std::chrono::milliseconds(
          parse_size("--request-timeout-ms", flag_value(args, i)));
    } else {
      throw UsageError("unknown argument '" + args[i] + "'");
    }
  }
  if (store_dir.empty()) {
    return usage();
  }
  if (!tcp_spec.empty() && !socket_path.empty()) {
    throw UsageError("--tcp and --socket are mutually exclusive");
  }
  require_store_exists(store_dir);

  // Splits a HOST:PORT spec (flag is the name used in error messages).
  const auto parse_host_port =
      [](const char* flag,
         const std::string& spec) -> std::pair<std::string, std::uint16_t> {
    const auto colon = spec.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= spec.size()) {
      throw UsageError(std::string(flag) + " wants HOST:PORT, got '" + spec +
                       "'");
    }
    const std::size_t port = parse_size(flag, spec.substr(colon + 1));
    if (port > 65535) {
      throw UsageError(std::string(flag) + " port out of range: " + spec);
    }
    return {spec.substr(0, colon), static_cast<std::uint16_t>(port)};
  };

  // One server for every transport: --tcp listens on IPv4, --socket on
  // a unix socket file, and otherwise stdin/stdout is the one
  // connection (no listener at all).
  if (!tcp_spec.empty()) {
    std::tie(server_options.host, server_options.port) =
        parse_host_port("--tcp", tcp_spec);
  } else {
    server_options.host.clear();
    server_options.unix_path = socket_path;
  }
  if (!metrics_spec.empty()) {
    server_options.metrics_enabled = true;
    std::tie(server_options.metrics_host, server_options.metrics_port) =
        parse_host_port("--metrics", metrics_spec);
  }

  // The `reload` op works without --reload, which only adds the
  // index.tsv watcher.
  serve::ReloadableService reloadable(store_dir, reload_options);
  if (reload) {
    reloadable.start_watcher();
  }
  serve::TcpServer server([&] { return reloadable.service(); },
                          server_options);
  std::optional<serve::StdioBridge> stdio;
  if (tcp_spec.empty() && socket_path.empty()) {
    stdio.emplace(server, /*in_fd=*/0, /*out_fd=*/1);
  }
  server.start();
#ifndef _WIN32
  if (::pipe(g_shutdown_pipe) != 0) {
    throw std::runtime_error("serve: cannot create shutdown pipe");
  }
  struct sigaction shutdown_action {};
  shutdown_action.sa_handler = &handle_shutdown_signal;
  ::sigemptyset(&shutdown_action.sa_mask);
  ::sigaction(SIGTERM, &shutdown_action, nullptr);
  ::sigaction(SIGINT, &shutdown_action, nullptr);
  std::thread shutdown_waiter([&server] {
    char byte = 0;
    while (::read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
    }
    if (byte != 0) {
      std::fprintf(stderr, "ftsp-serve: shutdown signal received; draining "
                           "in-flight requests\n");
    }
    server.stop();
  });
#endif
  const std::string endpoint =
      !tcp_spec.empty()
          ? server_options.host + ":" + std::to_string(server.port())
          : socket_path.empty() ? "stdin/stdout" : socket_path;
  std::fprintf(stderr,
               "serving %zu protocol(s) from %s on %s (reload=%s, "
               "cache=%zuMB)\n",
               reloadable.service()->size(), store_dir.c_str(),
               endpoint.c_str(), reload ? "on" : "off",
               reload_options.cache_bytes >> 20);
  if (server_options.metrics_enabled) {
    std::fprintf(stderr, "metrics on http://%s:%u/metrics\n",
                 server_options.metrics_host.c_str(), server.metrics_port());
  }
  if (!reload_options.access_log.empty()) {
    std::fprintf(stderr, "access log: %s\n",
                 reload_options.access_log.c_str());
  }
  server.wait();
#ifndef _WIN32
  // wait() also returns when stdin is answered in full or on a fatal
  // event-loop error: wake the waiter quietly (a zero byte), join it,
  // then restore default signal dispositions for the rest of the
  // process.
  const char quiet = 0;
  [[maybe_unused]] const ssize_t n = ::write(g_shutdown_pipe[1], &quiet, 1);
  shutdown_waiter.join();
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
  ::close(g_shutdown_pipe[0]);
  ::close(g_shutdown_pipe[1]);
  g_shutdown_pipe[0] = g_shutdown_pipe[1] = -1;
#endif
  stdio.reset();
  if (reloadable.access_log() != nullptr) {
    reloadable.access_log()->flush();
  }
  std::fprintf(stderr, "ftsp-serve: drained; exiting cleanly\n");
  return 0;
}

/// Rewrites a request's "code" field to target a device-specific serving
/// name ("Steane" -> "Steane@linear") unless the caller already picked
/// one explicitly.
std::string retarget_request(const std::string& request,
                             const std::string& coupling) {
  const compile::JsonObject object = compile::parse_json_object(request);
  compile::JsonWriter out;
  for (const auto& [name, value] : object) {
    if (name == "code" && value.kind == compile::JsonValue::Kind::String &&
        value.text.find('@') == std::string::npos) {
      out.field(name, value.text + "@" + coupling);
    } else if (value.kind == compile::JsonValue::Kind::String) {
      out.field(name, value.text);
    } else {
      out.raw_field(name, value.text);  // Numbers/bools/null keep tokens.
    }
  }
  return out.take();
}

int run_query(const std::vector<std::string>& args) {
  std::string store_dir;
  std::string request;
  std::string coupling;
  std::size_t gadget_reach = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--store") {
      store_dir = flag_value(args, i);
    } else if (args[i] == "--coupling") {
      coupling = flag_value(args, i);
    } else if (args[i] == "--gadget-reach") {
      gadget_reach = parse_size("--gadget-reach", flag_value(args, i));
    } else if (request.empty() &&
               (args[i] == "-" || args[i].empty() || args[i][0] != '-')) {
      request = args[i];
    } else {
      throw UsageError("unknown argument '" + args[i] + "'");
    }
  }
  if (store_dir.empty() || request.empty()) {
    return usage();
  }
  if (request == "-") {
    std::getline(std::cin, request);
  }
  if (gadget_reach != 0 && (coupling.empty() || coupling == "all")) {
    // No artifact ever serves under a bare "+gN" name; answering from
    // the untargeted artifact would silently ignore the reach request.
    throw UsageError("--gadget-reach needs --coupling <map>");
  }
  if (!coupling.empty() && coupling != "all") {
    // A map *file* argument resolves exactly like compile's: its
    // declared name becomes the serving suffix, and a structurally
    // all-to-all file retargets nothing (compile served it as the plain
    // code name). Any other string is taken as the serving map name
    // directly. Match ProtocolService::serving_name:
    // "<code>@<map>[+g<reach>]".
    std::string serving = coupling;
    if (std::filesystem::exists(coupling)) {
      const auto spec = parse_coupling_spec(coupling);
      if (spec.is_all_to_all()) {
        serving.clear();
      } else {
        serving = spec.name;
      }
    }
    if (!serving.empty()) {
      if (gadget_reach != 0) {
        serving += "+g" + std::to_string(gadget_reach);
      }
      try {
        request = retarget_request(request, serving);
      } catch (const std::invalid_argument&) {
        // Malformed request JSON: leave it untouched — the service
        // answers with the documented {"ok":false,...} envelope (and
        // exit 0), same as without --coupling.
      }
    }
  }
  try {
    require_store_exists(store_dir);
    compile::ArtifactStore store(store_dir);
    compile::ProtocolService service;
    service.load_store(store);
    std::printf("%s\n", service.handle_request(request).c_str());
    return 0;
  } catch (const std::exception& e) {
    // CLI-level failure (missing/unreadable store): same machine-
    // readable envelope the servers emit, in the dialect the request
    // asked for, plus the human line on stderr. Exit 1, matching the
    // historical store-error exit code.
    serve::Envelope envelope;
    try {
      serve::parse_envelope(compile::parse_json_object(request), envelope);
    } catch (...) {
      // Malformed request JSON alongside a store failure: report the
      // store failure in the default (v1) dialect.
    }
    std::printf("%s\n",
                serve::render_error(envelope, serve::error_code::kStoreError,
                                    e.what())
                    .c_str());
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  try {
    if (command == "codes") {
      for (const auto& code : qec::all_library_codes()) {
        std::printf("%s\n", code.description().c_str());
      }
      return 0;
    }
    if (command == "compile" || command == "serve" || command == "query" ||
        command == "store" || command == "audit") {
      const std::vector<std::string> args(argv + 2, argv + argc);
      if (command == "compile") {
        return run_compile(args);
      }
      if (command == "store") {
        return run_store(args);
      }
      if (command == "audit") {
        return run_audit(args);
      }
      return command == "serve" ? run_serve(args) : run_query(args);
    }
    if (argc < 3) {
      return usage();
    }
    const std::string spec = argv[2];

    core::SynthesisOptions options;
    std::string save_path;
    std::string p_sweep;
    double p = 0.01;
    double rel_err = 0.05;
    std::size_t shots = 20000;
    std::size_t max_shots = std::size_t{1} << 20;
    std::uint64_t seed = 1;
    bool show_sectors = false;
    for (int i = 3; i < argc; ++i) {
      if (std::strcmp(argv[i], "--defer-flags") == 0) {
        options.flag_policy = core::FlagPolicy::DeferToNextLayer;
      } else if (std::strcmp(argv[i], "--basis") == 0) {
        const std::string value = flag_value(argc, argv, i);
        if (value != "zero" && value != "plus") {
          throw UsageError("--basis wants zero or plus, got '" + value +
                           "'");
        }
        // Applied below for synth; other commands prepare |0>_L.
      } else if (std::strcmp(argv[i], "--save") == 0) {
        save_path = flag_value(argc, argv, i);
      } else if (std::strcmp(argv[i], "--coupling") == 0) {
        apply_coupling(options, flag_value(argc, argv, i));
      } else if (std::strcmp(argv[i], "--gadget-reach") == 0) {
        options.coupling.gadget_reach =
            parse_size("--gadget-reach", flag_value(argc, argv, i));
      } else if (std::strcmp(argv[i], "--p") == 0) {
        p = parse_double("--p", flag_value(argc, argv, i));
      } else if (std::strcmp(argv[i], "--shots") == 0) {
        shots = parse_size("--shots", flag_value(argc, argv, i));
      } else if (std::strcmp(argv[i], "--p-sweep") == 0) {
        p_sweep = flag_value(argc, argv, i);
      } else if (std::strcmp(argv[i], "--rel-err") == 0) {
        rel_err = parse_double("--rel-err", flag_value(argc, argv, i));
      } else if (std::strcmp(argv[i], "--max-shots") == 0) {
        max_shots = parse_size("--max-shots", flag_value(argc, argv, i));
      } else if (std::strcmp(argv[i], "--seed") == 0) {
        seed = parse_u64("--seed", flag_value(argc, argv, i));
      } else if (std::strcmp(argv[i], "--sectors") == 0) {
        show_sectors = true;
      } else {
        throw UsageError(std::string("unknown argument '") + argv[i] + "'");
      }
    }

    if (command == "synth") {
      qec::LogicalBasis basis = qec::LogicalBasis::Zero;
      for (int i = 3; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--basis") == 0 &&
            std::string(argv[i + 1]) == "plus") {
          basis = qec::LogicalBasis::Plus;
        }
      }
      const auto protocol =
          core::synthesize_protocol(resolve_code(spec), basis, options);
      const auto ft = core::check_fault_tolerance(protocol);
      std::printf("%s\n",
                  core::format_metrics_row(
                      spec, core::compute_metrics(protocol))
                      .c_str());
      std::printf("fault tolerance: %s (%zu faults)\n",
                  ft.ok ? "OK" : "VIOLATED", ft.faults_checked);
      if (!save_path.empty()) {
        std::ofstream out(save_path);
        out << core::save_protocol(protocol);
        std::printf("saved to %s\n", save_path.c_str());
      }
      return ft.ok ? 0 : 1;
    }

    const auto protocol = resolve_protocol(spec, options);
    if (command == "check") {
      const auto ft = core::check_fault_tolerance(protocol);
      std::printf("%s: %zu faults checked, %s\n", spec.c_str(),
                  ft.faults_checked, ft.ok ? "OK" : "VIOLATED");
      for (const auto& violation : ft.violations) {
        std::printf("  %s\n", violation.c_str());
      }
      return ft.ok ? 0 : 1;
    }
    if (command == "report") {
      std::printf("%s", core::describe_protocol(protocol).c_str());
      return 0;
    }
    if (command == "qasm") {
      std::printf("%s", core::protocol_to_qasm(protocol).c_str());
      return 0;
    }
    if (command == "table") {
      std::printf("%s\n%s\n", core::metrics_row_header().c_str(),
                  core::format_metrics_row(
                      spec, core::compute_metrics(protocol))
                      .c_str());
      return 0;
    }
    if (command == "sim") {
      const core::Executor executor(protocol);
      const decoder::PerfectDecoder decoder(*protocol.code);
      const auto batch =
          core::sample_protocol_batch(executor, decoder, p, shots, 1);
      const auto estimate = core::estimate_logical_rate({batch}, p);
      std::printf("%s @ p=%g: pL = %.4e +- %.1e (%zu shots)\n",
                  spec.c_str(), p, estimate.mean, estimate.std_error,
                  shots);
      return 0;
    }
    if (command == "rate") {
      const core::Executor executor(protocol);
      const decoder::PerfectDecoder decoder(*protocol.code);
      core::RateOptions rate_options;
      rate_options.rel_err = rel_err;
      rate_options.max_shots = max_shots;
      rate_options.seed = seed;
      const auto print_one = [&](double point,
                                 const core::RateEstimate& estimate) {
        std::printf(
            "%-14s p=%-10.4g pL = %.4e +- %.1e  ci=[%.3e, %.3e]  "
            "(mc %llu, exact %llu, ~%.3g naive shots)\n",
            spec.c_str(), point, estimate.p_logical, estimate.std_error,
            estimate.ci_low, estimate.ci_high,
            static_cast<unsigned long long>(estimate.mc_shots),
            static_cast<unsigned long long>(estimate.exhaustive_cases),
            estimate.equivalent_naive_shots);
        if (show_sectors) {
          for (const auto& sector : estimate.sectors) {
            std::printf(
                "    k=%-3u w=%-12.4e f_k=%-12.4e %s%llu\n",
                sector.num_faults, sector.weight, sector.fail_rate,
                sector.exhaustive ? "exact cases=" : "shots=",
                static_cast<unsigned long long>(
                    sector.exhaustive ? sector.cases : sector.shots));
          }
        }
      };
      if (p_sweep.empty()) {
        print_one(p, core::estimate_logical_error_rate(executor, decoder, p,
                                                       rate_options));
        return 0;
      }
      double p_min = 0.0;
      double p_max = 0.0;
      std::size_t points = 0;
      if (std::sscanf(p_sweep.c_str(), "%lf:%lf:%zu", &p_min, &p_max,
                      &points) != 3 ||
          points == 0) {
        std::fprintf(stderr, "error: --p-sweep wants MIN:MAX:POINTS\n");
        return 2;
      }
      const std::vector<double> ps =
          core::log_spaced_grid(p_min, p_max, points);
      const auto estimates = core::estimate_logical_error_rate_sweep(
          executor, decoder, ps, rate_options);
      for (std::size_t i = 0; i < ps.size(); ++i) {
        print_one(ps[i], estimates[i]);
      }
      return 0;
    }
    return usage();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
