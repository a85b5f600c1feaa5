// Artifact round-trip and store semantics: compile -> save -> load in a
// fresh ArtifactStore must reproduce the protocol bit-for-bit (batched
// sampler output identical at equal seed) with zero SAT solver
// invocations on the warm path; plus the SynthCache LRU cap and the
// store's read/write-through backing.
#include "compile/store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "compile/artifact.hpp"
#include "compile/format.hpp"
#include "compile/service.hpp"
#include "core/executor.hpp"
#include "core/ft_check.hpp"
#include "core/samplers.hpp"
#include "core/serialize.hpp"
#include "core/synth_cache.hpp"
#include "qec/code_library.hpp"
#include "sat/engine.hpp"
#include "util/fault_inject.hpp"

namespace ftsp::compile {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under the system temp root, removed on destruction.
struct TempDir {
  fs::path path;

  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("ftsp-test-" + tag + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Restores the process-wide cache to a pristine, detached state.
void reset_cache() {
  ArtifactStore::detach_synth_cache();
  auto& cache = core::SynthCache::instance();
  cache.clear();
  cache.set_max_entries(core::SynthCache::kDefaultMaxEntries);
  cache.reset_stats();
}

void expect_identical_batches(const core::TrajectoryBatch& a,
                              const core::TrajectoryBatch& b) {
  ASSERT_EQ(a.trajectories.size(), b.trajectories.size());
  for (std::size_t i = 0; i < a.trajectories.size(); ++i) {
    const auto& ta = a.trajectories[i];
    const auto& tb = b.trajectories[i];
    ASSERT_EQ(ta.sites, tb.sites) << "shot " << i;
    ASSERT_EQ(ta.faults, tb.faults) << "shot " << i;
    ASSERT_EQ(ta.x_fail, tb.x_fail) << "shot " << i;
    ASSERT_EQ(ta.z_fail, tb.z_fail) << "shot " << i;
    ASSERT_EQ(ta.hook_terminated, tb.hook_terminated) << "shot " << i;
  }
}

TEST(ProtocolCompiler, ArtifactMatchesDirectSynthesis) {
  reset_cache();
  const ProtocolCompiler compiler;
  const auto artifact = compiler.compile(qec::steane());

  // Decoder tables match a from-scratch build.
  const decoder::LookupDecoder fresh_x(*artifact.protocol.code,
                                       qec::PauliType::X);
  EXPECT_EQ(artifact.x_decoder_table, fresh_x.table());

  // Layout matches the sampler's own recomputation.
  const auto layout = core::compute_frame_batch_layout(artifact.protocol);
  ASSERT_EQ(artifact.layout.segments.size(), layout.segments.size());
  EXPECT_EQ(artifact.layout.peak_qubits, layout.peak_qubits);

  // Provenance recorded real work.
  EXPECT_GT(artifact.provenance.solver_invocations, 0u);
  EXPECT_GT(artifact.provenance.prep_cnots, 0u);
  EXPECT_FALSE(artifact.provenance.engine_fingerprint.empty());
  EXPECT_GT(artifact.provenance.compiled_at_unix, 0u);
}

TEST(ProtocolCompiler, EncodeDecodeRoundTripsEveryField) {
  reset_cache();
  const ProtocolCompiler compiler;
  const auto original = compiler.compile(qec::surface3());
  const auto decoded = decode_artifact(encode_artifact(original));

  EXPECT_EQ(decoded.key, original.key);
  EXPECT_EQ(decoded.protocol.code->name(), original.protocol.code->name());
  EXPECT_EQ(decoded.protocol.code->hx(), original.protocol.code->hx());
  EXPECT_EQ(decoded.protocol.basis, original.protocol.basis);
  // The binary codec stores circuits verbatim: gate-for-gate identity.
  EXPECT_EQ(decoded.protocol.prep.to_text(), original.protocol.prep.to_text());
  ASSERT_EQ(decoded.protocol.layer1.has_value(),
            original.protocol.layer1.has_value());
  if (original.protocol.layer1) {
    EXPECT_EQ(decoded.protocol.layer1->verif.to_text(),
              original.protocol.layer1->verif.to_text());
    EXPECT_EQ(decoded.protocol.layer1->flag_mask,
              original.protocol.layer1->flag_mask);
    ASSERT_EQ(decoded.protocol.layer1->branches.size(),
              original.protocol.layer1->branches.size());
    auto it = decoded.protocol.layer1->branches.begin();
    for (const auto& [key, branch] : original.protocol.layer1->branches) {
      EXPECT_EQ(it->first, key);
      EXPECT_EQ(it->second.circ.to_text(), branch.circ.to_text());
      EXPECT_EQ(it->second.plan.recoveries, branch.plan.recoveries);
      EXPECT_EQ(it->second.is_hook_branch, branch.is_hook_branch);
      ++it;
    }
  }
  EXPECT_EQ(decoded.x_decoder_table, original.x_decoder_table);
  EXPECT_EQ(decoded.z_decoder_table, original.z_decoder_table);
  EXPECT_EQ(decoded.layout.segments.size(), original.layout.segments.size());
  EXPECT_EQ(decoded.provenance.engine_fingerprint,
            original.provenance.engine_fingerprint);
  EXPECT_EQ(decoded.provenance.solver_invocations,
            original.provenance.solver_invocations);
  EXPECT_EQ(decoded.provenance.compiled_at_unix,
            original.provenance.compiled_at_unix);

  // And the decoded protocol is still fault-tolerant.
  EXPECT_TRUE(core::check_fault_tolerance(decoded.protocol).ok);
}

TEST(ArtifactStore, ColdLoadSamplesBitIdenticalWithZeroSolverCalls) {
  reset_cache();
  const TempDir dir("store-cold");

  // Offline: compile and persist.
  const ProtocolCompiler compiler;
  const auto compiled = compiler.compile(qec::steane());
  const core::Protocol& fresh = compiled.protocol;
  {
    ArtifactStore store(dir.path.string());
    store.put(compiled);
  }

  // Reference sampling from the freshly synthesized protocol.
  const core::Executor fresh_executor(fresh);
  const decoder::PerfectDecoder fresh_decoder(*fresh.code);
  const auto reference = core::sample_protocol_batch(
      fresh_executor, fresh_decoder, 0.02, 4096, 1234);

  // Online: a "cold process" (cleared cache, fresh store handle) loads
  // the artifact and samples. Not a single SAT engine construction may
  // happen anywhere on this path.
  core::SynthCache::instance().clear();
  core::SynthCache::instance().reset_stats();
  ASSERT_EQ(sat::engine_solver_invocations(), 0u);

  const ArtifactStore store(dir.path.string());
  ASSERT_EQ(store.size(), 1u);
  const auto loaded = store.get(compiled.key);
  ASSERT_TRUE(loaded.has_value());

  const core::Executor executor(loaded->protocol);
  const decoder::PerfectDecoder decoder = make_artifact_decoder(*loaded);
  core::SamplerOptions options;
  options.layout = &loaded->layout;
  const auto warm = core::sample_protocol_batch(executor, decoder, 0.02,
                                                4096, 1234, options);

  EXPECT_EQ(sat::engine_solver_invocations(), 0u)
      << "warm path invoked the SAT engine";
  EXPECT_EQ(core::SynthCache::instance().solver_invocations(), 0u);
  expect_identical_batches(reference, warm);
}

TEST(ArtifactStore, IndexAndContainsSurviveReopen) {
  reset_cache();
  const TempDir dir("store-reopen");
  const ProtocolCompiler compiler;
  const auto a1 = compiler.compile(qec::steane());
  const auto a2 = compiler.compile(qec::surface3());
  {
    ArtifactStore store(dir.path.string());
    store.put(a1);
    store.put(a2);
    store.put(a1);  // Overwrite is idempotent.
    EXPECT_EQ(store.size(), 2u);
  }
  const ArtifactStore reopened(dir.path.string());
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_TRUE(reopened.contains(a1.key));
  EXPECT_TRUE(reopened.contains(a2.key));
  EXPECT_FALSE(reopened.contains("no-such-key"));
  EXPECT_FALSE(reopened.get("no-such-key").has_value());
}

/// A store compiled before the SAT portfolio was retired holds
/// `compile --all` artifacts keyed by the portfolio fingerprint. Keys
/// load in sorted order and the last one wins its serving name, and
/// `cfg=4,...` sorts after `cfg=1,...`: a fresh sequential compile over
/// such a store is shadowed by the legacy artifact, loudly. (Both
/// engines produced identical protocols; migrate by compiling into a
/// fresh store.)
TEST(ArtifactStore, LegacyPortfolioKeyOutranksSequentialKeyInMixedStore) {
  reset_cache();
  const TempDir dir("store-mixed-engines");
  const ProtocolCompiler compiler;
  const auto current = compiler.compile(qec::steane());
  const std::string current_engine = "eng=inc=1,cfg=1,cube=0";
  const std::string legacy_engine = "eng=inc=1,cfg=4,cube=0,seed=1,rc=4096";
  const std::size_t at = current.key.rfind(current_engine);
  ASSERT_NE(at, std::string::npos) << current.key;
  ASSERT_EQ(at + current_engine.size(), current.key.size());
  auto legacy = current;
  legacy.key = current.key.substr(0, at) + legacy_engine;
  legacy.provenance.engine_fingerprint = "inc=1,cfg=4,cube=0,seed=1,rc=4096";
  {
    ArtifactStore store(dir.path.string());
    store.put(current);  // Write order is irrelevant; key order decides.
    store.put(legacy);
  }

  ArtifactStore reopened(dir.path.string());
  ProtocolService service;
  testing::internal::CaptureStderr();
  EXPECT_EQ(service.load_store(reopened), 1u);
  const std::string warning = testing::internal::GetCapturedStderr();
  EXPECT_EQ(warning, "ftsp-serve: WARNING: serving name 'Steane' shadows "
                     "artifact key '" + current.key + "' (replaced by '" +
                         legacy.key + "'; last key in store order wins)\n");
  ASSERT_EQ(service.shadowed_keys(), std::vector<std::string>{current.key});
  EXPECT_EQ(service.handle_request(R"({"op":"codes"})"),
            R"({"ok":true,"codes":["Steane"],"shadowed":[")" + current.key +
                R"("]})");
  const auto info = service.handle_request(R"({"op":"info","code":"Steane"})");
  EXPECT_NE(info.find(R"("engine":"inc=1,cfg=4,cube=0,seed=1,rc=4096")"),
            std::string::npos)
      << info;
}

TEST(ArtifactStore, TwoConcurrentWritersBothSurvive) {
  reset_cache();
  const TempDir dir("store-two-writers");
  const ProtocolCompiler compiler;
  const auto a1 = compiler.compile(qec::steane());
  const auto a2 = compiler.compile(qec::surface3());

  // Two independent handles on one directory, mimicking two compile
  // processes: each knows only its own artifact. The historical
  // whole-index rewrite made the second put erase the first writer's
  // entry; merge-on-write keeps both.
  ArtifactStore writer_a(dir.path.string());
  ArtifactStore writer_b(dir.path.string());
  writer_a.put(a1);
  writer_b.put(a2);

  const ArtifactStore reopened(dir.path.string());
  EXPECT_EQ(reopened.size(), 2u);
  EXPECT_TRUE(reopened.contains(a1.key));
  EXPECT_TRUE(reopened.contains(a2.key));
  EXPECT_TRUE(reopened.get(a1.key).has_value());
  EXPECT_TRUE(reopened.get(a2.key).has_value());

  // Interleaved rounds in both directions, including same-key
  // overwrites: nothing is ever dropped.
  writer_b.put(a1);
  writer_a.put(a2);
  const ArtifactStore again(dir.path.string());
  EXPECT_EQ(again.size(), 2u);

  // Genuinely racing same-key puts: writer-unique temp names mean each
  // rename publishes a complete container, never a torn mix of two
  // writers sharing one temp file.
  std::thread racer_a([&] {
    for (int round = 0; round < 6; ++round) {
      writer_a.put(a1);
    }
  });
  std::thread racer_b([&] {
    for (int round = 0; round < 6; ++round) {
      writer_b.put(a1);
    }
  });
  racer_a.join();
  racer_b.join();
  const ArtifactStore raced(dir.path.string());
  EXPECT_TRUE(raced.contains(a1.key));
  EXPECT_TRUE(raced.get(a1.key).has_value());  // Decodes = not torn.

  // No torn temp files left behind.
  std::size_t temps = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    temps += entry.path().extension() == ".tmp";
  }
  EXPECT_EQ(temps, 0u);
}

TEST(ArtifactStore, BackingMakesResynthesisSolverFree) {
  reset_cache();
  const TempDir dir("store-backing");
  const ArtifactStore store(dir.path.string());
  store.attach_synth_cache();

  // First synthesis: hits the solver, write-through persists results.
  const auto protocol1 = core::synthesize_protocol(
      qec::steane(), qec::LogicalBasis::Zero);
  EXPECT_GT(sat::engine_solver_invocations(), 0u);

  // Simulated cold process: in-memory cache wiped, stats zeroed — the
  // persisted entries alone must carry the second synthesis.
  core::SynthCache::instance().clear();
  core::SynthCache::instance().reset_stats();
  const auto protocol2 = core::synthesize_protocol(
      qec::steane(), qec::LogicalBasis::Zero);
  EXPECT_EQ(sat::engine_solver_invocations(), 0u);
  EXPECT_GT(core::SynthCache::instance().backing_hits(), 0u);
  EXPECT_EQ(core::save_protocol(protocol1), core::save_protocol(protocol2));

  ArtifactStore::detach_synth_cache();
  reset_cache();
}

TEST(SynthCache, LruCapEvictsAndCounts) {
  reset_cache();
  auto& cache = core::SynthCache::instance();
  cache.set_max_entries(2);
  cache.store("a", "1");
  cache.store("b", "2");
  EXPECT_TRUE(cache.lookup("a").has_value());  // Refresh "a": now b is LRU.
  cache.store("c", "3");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup("b").has_value()) << "LRU entry survived";
  EXPECT_TRUE(cache.lookup("a").has_value());
  EXPECT_TRUE(cache.lookup("c").has_value());

  // Shrinking evicts immediately; 0 lifts the cap.
  cache.set_max_entries(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 2u);
  cache.set_max_entries(0);
  for (int i = 0; i < 100; ++i) {
    cache.store("k" + std::to_string(i), "v");
  }
  EXPECT_EQ(cache.size(), 101u);
  reset_cache();
}

TEST(SynthCache, EnvOverrideParses) {
  ::setenv("FTSP_SAT_CACHE_MAX", "123", 1);
  EXPECT_EQ(core::SynthCache::max_entries_from_env(7), 123u);
  ::setenv("FTSP_SAT_CACHE_MAX", "0", 1);
  EXPECT_EQ(core::SynthCache::max_entries_from_env(7), 0u);  // Unbounded.
  ::setenv("FTSP_SAT_CACHE_MAX", "not-a-number", 1);
  EXPECT_EQ(core::SynthCache::max_entries_from_env(7), 7u);
  ::unsetenv("FTSP_SAT_CACHE_MAX");
  EXPECT_EQ(core::SynthCache::max_entries_from_env(7), 7u);
}

TEST(Sampler, RejectsMismatchedLayout) {
  reset_cache();
  const ProtocolCompiler compiler;
  const auto steane = compiler.compile(qec::steane());
  const auto surface = compiler.compile(qec::surface3());
  const core::Executor executor(steane.protocol);
  const decoder::PerfectDecoder decoder = make_artifact_decoder(steane);
  core::SamplerOptions options;
  options.layout = &surface.layout;  // Wrong protocol's layout.
  EXPECT_THROW(core::sample_protocol_batch(executor, decoder, 0.01, 64, 1,
                                           options),
               std::invalid_argument);
}

TEST(ArtifactStore, PruneRemovesOrphansAndKeepsIndexedArtifacts) {
  reset_cache();
  TempDir dir("prune");
  const ProtocolCompiler compiler;
  const auto artifact = compiler.compile(qec::steane());
  {
    ArtifactStore store(dir.path.string());
    store.put(artifact);
  }

  // Plant garbage: an orphaned container, torn temp files, a corrupt
  // satcache entry, and a valid satcache entry that must survive.
  const auto write_file = [](const fs::path& path, const std::string& body) {
    std::ofstream out(path, std::ios::binary);
    out << body;
  };
  write_file(dir.path / "feedfacefeedface.ftsa", "not a container");
  write_file(dir.path / "whatever.tmp", "torn");
  write_file(dir.path / "satcache" / "torn.tmp", "torn");
  write_file(dir.path / "satcache" / "corrupt.kv", "xy");  // Bad framing.
  // Fresh .tmp files are protected by the live-writer grace period;
  // these are backdated to look like genuine torn leftovers. A brand
  // new one must survive the prune.
  const auto stale_time =
      fs::file_time_type::clock::now() - std::chrono::hours{1};
  fs::last_write_time(dir.path / "feedfacefeedface.ftsa", stale_time);
  fs::last_write_time(dir.path / "whatever.tmp", stale_time);
  fs::last_write_time(dir.path / "satcache" / "torn.tmp", stale_time);
  write_file(dir.path / "inflight.tmp", "live write");
  // A fresh unreferenced container could be a concurrent compiler's
  // just-written artifact (index rewrite pending): also protected.
  write_file(dir.path / "0123456789abcdef.ftsa", "fresh container");
  {
    util::ByteWriter valid;
    valid.str("some-key");
    valid.raw("some-value");
    write_file(dir.path / "satcache" / "valid.kv", valid.bytes());
  }

  ArtifactStore store(dir.path.string());
  const auto dry = store.prune(/*dry_run=*/true);
  EXPECT_TRUE(dry.dry_run);
  EXPECT_EQ(dry.orphan_artifacts, 1u);
  EXPECT_EQ(dry.temp_files, 2u);
  EXPECT_EQ(dry.stale_cache_entries, 1u);
  EXPECT_EQ(dry.removed.size(), 4u);
  EXPECT_GT(dry.bytes, 0u);
  // Dry run deleted nothing.
  EXPECT_TRUE(fs::exists(dir.path / "feedfacefeedface.ftsa"));
  EXPECT_TRUE(fs::exists(dir.path / "satcache" / "corrupt.kv"));

  const auto report = store.prune(/*dry_run=*/false);
  EXPECT_EQ(report.orphan_artifacts, 1u);
  EXPECT_EQ(report.temp_files, 2u);
  EXPECT_EQ(report.stale_cache_entries, 1u);
  EXPECT_FALSE(fs::exists(dir.path / "feedfacefeedface.ftsa"));
  EXPECT_FALSE(fs::exists(dir.path / "whatever.tmp"));
  EXPECT_FALSE(fs::exists(dir.path / "satcache" / "torn.tmp"));
  EXPECT_FALSE(fs::exists(dir.path / "satcache" / "corrupt.kv"));
  // Untouched: the index, the indexed artifact, the healthy cache
  // entry, and the fresh (possibly in-flight) temp file.
  EXPECT_TRUE(fs::exists(dir.path / "index.tsv"));
  EXPECT_TRUE(fs::exists(dir.path / "satcache" / "valid.kv"));
  EXPECT_TRUE(fs::exists(dir.path / "inflight.tmp"));
  EXPECT_TRUE(fs::exists(dir.path / "0123456789abcdef.ftsa"));
  ASSERT_TRUE(store.get(artifact.key).has_value());

  // Age-based collection takes the healthy entry too once it is older
  // than the horizon (everything here is brand new, so a 1-second
  // horizon keeps it and a "negative age" horizon of 0 disables aging).
  const auto aged = store.prune(/*dry_run=*/true,
                                std::chrono::seconds{3600});
  EXPECT_EQ(aged.stale_cache_entries, 0u);

  // Idempotent: a second pass finds a clean store.
  const auto again = store.prune(/*dry_run=*/false);
  EXPECT_TRUE(again.removed.empty());
  EXPECT_EQ(again.bytes, 0u);
}

TEST(ArtifactStore, RecoveryModeSkipsMalformedIndexLines) {
  reset_cache();
  const TempDir dir("store-torn-index");
  {
    // Hand-write a torn index: two valid entries bracketing the kinds
    // of damage a crash mid-rewrite (pre-crash-safety builds) or disk
    // corruption leaves behind.
    std::ofstream index(dir.path / "index.tsv", std::ios::binary);
    index << "aaaa0000aaaa0000.ftsa\tkey-one\n"
          << "no tab separator on this line\n"
          << "\tkey-with-empty-filename\n"
          << "bbbb0000bbbb0000.ftsa\t\n"
          << "cccc0000cccc0000.ftsa\tkey-two\n";
  }
  const ArtifactStore store(dir.path.string());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.contains("key-one"));
  EXPECT_TRUE(store.contains("key-two"));
  EXPECT_EQ(store.recovery().malformed_index_lines, 3u);
  EXPECT_EQ(store.recovery().quarantined, 0u);

  // Prune keeps every file a line names, the empty-key line's included,
  // even once all of them are past the grace period; an unnamed
  // container of the same age shows that the period has passed.
  const auto an_hour_ago =
      fs::file_time_type::clock::now() - std::chrono::hours{1};
  for (const char* name :
       {"aaaa0000aaaa0000.ftsa", "bbbb0000bbbb0000.ftsa",
        "cccc0000cccc0000.ftsa", "dddd0000dddd0000.ftsa"}) {
    std::ofstream(dir.path / name, std::ios::binary) << "payload";
    fs::last_write_time(dir.path / name, an_hour_ago);
  }
  const auto dry = store.prune(/*dry_run=*/true);
  EXPECT_EQ(dry.removed, std::vector<std::string>{"dddd0000dddd0000.ftsa"});

  // A put rewrites the index from its well-formed lines only.
  const auto artifact = ProtocolCompiler().compile(qec::steane());
  ArtifactStore writer(dir.path.string());
  writer.put(artifact);
  std::ifstream index(dir.path / "index.tsv");
  std::vector<std::string> keys;
  for (std::string line; std::getline(index, line);) {
    const auto tab = line.find('\t');
    ASSERT_NE(tab, std::string::npos) << line;
    ASSERT_GT(tab, 0u) << line;
    keys.push_back(line.substr(tab + 1));
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::string> expected = {artifact.key, "key-one", "key-two"};
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(keys, expected);
  EXPECT_EQ(ArtifactStore(dir.path.string()).recovery().malformed_index_lines,
            0u);
}

TEST(ArtifactStore, QuarantineMovesArtifactAndDropsIndexEntry) {
  reset_cache();
  const TempDir dir("store-quarantine");
  const ProtocolCompiler compiler;
  const auto artifact = compiler.compile(qec::steane());
  ArtifactStore store(dir.path.string());
  store.put(artifact);
  ASSERT_TRUE(store.contains(artifact.key));

  store.quarantine(artifact.key, "test corruption");
  EXPECT_FALSE(store.contains(artifact.key));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.recovery().quarantined, 1u);

  // The payload moved (not deleted) into quarantine/ for post-mortems.
  std::size_t quarantined_payloads = 0;
  for (const auto& entry : fs::directory_iterator(dir.path / "quarantine")) {
    quarantined_payloads += entry.path().extension() == ".ftsa" ? 1 : 0;
  }
  EXPECT_EQ(quarantined_payloads, 1u);

  // The index rewrite persisted: a fresh handle agrees, and nothing in
  // quarantine/ resurfaces as a servable artifact.
  const ArtifactStore reopened(dir.path.string());
  EXPECT_EQ(reopened.size(), 0u);
  EXPECT_FALSE(reopened.contains(artifact.key));
}

TEST(ArtifactStore, CorruptArtifactQuarantinedAtServiceLoad) {
  reset_cache();
  const TempDir dir("store-corrupt-load");
  const ProtocolCompiler compiler;
  const auto good = compiler.compile(qec::steane());
  const auto victim = compiler.compile(qec::surface3());
  ArtifactStore store(dir.path.string());
  store.put(good);
  store.put(victim);

  // Garble the victim's payload mid-file (CRC catches it at read).
  std::string victim_file;
  {
    std::ifstream index(dir.path / "index.tsv");
    std::string line;
    while (std::getline(index, line)) {
      const auto tab = line.find('\t');
      if (tab != std::string::npos && line.substr(tab + 1) == victim.key) {
        victim_file = line.substr(0, tab);
      }
    }
  }
  ASSERT_FALSE(victim_file.empty());
  {
    std::fstream payload(dir.path / victim_file,
                         std::ios::in | std::ios::out | std::ios::binary);
    payload.seekp(128);
    payload.write("CORRUPTCORRUPT", 14);
  }

  // One corrupt artifact must not take down the rest of the store: the
  // healthy protocol loads, the corrupt one is quarantined and the
  // damage is surfaced for `health`.
  ArtifactStore reopened(dir.path.string());
  ProtocolService service;
  EXPECT_EQ(service.load_store(reopened), 1u);
  EXPECT_FALSE(reopened.contains(victim.key));
  EXPECT_TRUE(reopened.contains(good.key));
  EXPECT_EQ(service.store_recovery().quarantined, 1u);
  EXPECT_TRUE(fs::exists(dir.path / "quarantine" / victim_file));
}

TEST(ArtifactStore, InjectedWriteFailureLeavesStoreConsistent) {
  reset_cache();
  const TempDir dir("store-write-fault");
  const ProtocolCompiler compiler;
  const auto artifact = compiler.compile(qec::steane());
  {
    ArtifactStore store(dir.path.string());
    util::fault::set_plan("store.write:fail@1");
    EXPECT_THROW(store.put(artifact), ArtifactFormatError);
    util::fault::clear_plan();
    EXPECT_FALSE(store.contains(artifact.key));
  }
  // The failed put left no index entry and no half-written payload a
  // reload would trip over; a clean retry then succeeds.
  {
    ArtifactStore reopened(dir.path.string());
    EXPECT_EQ(reopened.size(), 0u);
    EXPECT_EQ(reopened.recovery().malformed_index_lines, 0u);
    reopened.put(artifact);
  }
  const ArtifactStore final_store(dir.path.string());
  EXPECT_TRUE(final_store.contains(artifact.key));
  EXPECT_TRUE(final_store.get(artifact.key).has_value());
}

/// The whole contents of `path` ("" when absent).
std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::size_t count_with_extension(const fs::path& dir, const char* ext) {
  std::size_t count = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    count += entry.path().extension() == ext ? 1 : 0;
  }
  return count;
}

TEST(ArtifactStore, PutPublishesContainerSidecarAndIndexInOrder) {
  reset_cache();
  const TempDir dir("store-fault-sites");
  core::SynthesisOptions options;
  options.capture_proofs = true;
  const auto artifact = ProtocolCompiler(options).compile(qec::steane());
  ASSERT_TRUE(has_proof_bytes(artifact));
  ArtifactStore store(dir.path.string());

  // Armed far past any hit, so the sites count without firing: one
  // write, fsync and rename each for the container, sidecar and index.
  util::fault::set_plan(
      "store.write:fail@1000,store.fsync:fail@1000,store.rename:fail@1000");
  store.put(artifact);
  EXPECT_EQ(util::fault::hit_count("store.write"), 3u);
  EXPECT_EQ(util::fault::hit_count("store.fsync"), 3u);
  EXPECT_EQ(util::fault::hit_count("store.rename"), 3u);
  util::fault::clear_plan();

  // The second write is the sidecar's: when it fails, the container is
  // already published and the index is not yet rewritten.
  ProtocolArtifact variant = artifact;
  variant.key += ":variant";
  const std::string index_before = slurp(dir.path / "index.tsv");
  util::fault::set_plan("store.write:fail@2");
  try {
    store.put(variant);
    ADD_FAILURE() << "put survived a failed sidecar write";
  } catch (const ArtifactFormatError& e) {
    EXPECT_NE(std::string(e.what()).find("proof sidecar"), std::string::npos)
        << e.what();
  }
  util::fault::clear_plan();
  EXPECT_FALSE(store.contains(variant.key));
  EXPECT_EQ(count_with_extension(dir.path, ".ftsa"), 2u);
  EXPECT_EQ(count_with_extension(dir.path, ".proof"), 1u);
  EXPECT_EQ(count_with_extension(dir.path, ".tmp"), 0u);
  EXPECT_EQ(slurp(dir.path / "index.tsv"), index_before);
  EXPECT_FALSE(ArtifactStore(dir.path.string()).contains(variant.key));
}

TEST(ArtifactStore, InjectedRenameFailureNeverPublishes) {
  reset_cache();
  const TempDir dir("store-rename-fault");
  const ProtocolCompiler compiler;
  const auto artifact = compiler.compile(qec::steane());
  ArtifactStore store(dir.path.string());
  util::fault::set_plan("store.rename:fail@1");
  EXPECT_THROW(store.put(artifact), std::exception);
  util::fault::clear_plan();

  // Publication is atomic-or-nothing: no payload file and no index
  // entry may exist after a failed rename.
  const ArtifactStore reopened(dir.path.string());
  EXPECT_EQ(reopened.size(), 0u);
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    EXPECT_NE(entry.path().extension(), ".ftsa") << entry.path();
  }
}

// CI golden-artifact cross-check: when FTSP_GOLDEN_STORE points at a
// store directory produced by an *earlier build step* (possibly another
// machine), reload every artifact, verify zero solver calls, and check
// sampling agreement against fresh synthesis.
TEST(ArtifactStore, GoldenStoreReload) {
  const char* golden = std::getenv("FTSP_GOLDEN_STORE");
  if (golden == nullptr) {
    GTEST_SKIP() << "FTSP_GOLDEN_STORE not set";
  }
  reset_cache();
  const ArtifactStore store(golden);
  ASSERT_GT(store.size(), 0u) << "golden store is empty";
  for (const auto& key : store.keys()) {
    core::SynthCache::instance().reset_stats();
    const auto artifact = store.get(key);
    ASSERT_TRUE(artifact.has_value());
    const core::Executor executor(artifact->protocol);
    const decoder::PerfectDecoder decoder = make_artifact_decoder(*artifact);
    core::SamplerOptions options;
    options.layout = &artifact->layout;
    const auto warm = core::sample_protocol_batch(executor, decoder, 0.02,
                                                  2048, 99, options);
    EXPECT_EQ(sat::engine_solver_invocations(), 0u) << key;

    // Cross-check against a from-scratch synthesis of the same code,
    // under the same device targeting the artifact records (mirroring
    // the CLI: a constrained map implies SAT-optimal preparation).
    core::SynthesisOptions synth_options;
    if (artifact->coupling != nullptr) {
      synth_options.coupling.name = artifact->coupling->name();
      synth_options.coupling.custom = artifact->coupling;
      synth_options.coupling.gadget_reach = artifact->gadget_reach;
      synth_options.prep.method = core::PrepSynthOptions::Method::Optimal;
    }
    const auto fresh = core::synthesize_protocol(*artifact->protocol.code,
                                                 artifact->protocol.basis,
                                                 synth_options);
    const core::Executor fresh_executor(fresh);
    const decoder::PerfectDecoder fresh_decoder(*fresh.code);
    const auto reference = core::sample_protocol_batch(
        fresh_executor, fresh_decoder, 0.02, 2048, 99);
    expect_identical_batches(reference, warm);
  }
  reset_cache();
}

}  // namespace
}  // namespace ftsp::compile
