// ftsp_lint end-to-end: drives the real binary (path injected by CMake
// as FTSP_LINT_PATH) over the mini-trees in tests/lint_fixtures/. Every
// rule gets at least one accepting and one rejecting fixture; the
// registry rules additionally prove the append-only edge cases
// (removal, reorder) and the --update-manifests round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

namespace {

namespace fs = std::filesystem;

struct LintResult {
  int exit_code = -1;
  std::string output;  ///< Combined stdout + stderr.
};

LintResult run_lint(const std::string& args) {
  const std::string command = std::string(FTSP_LINT_PATH) + " " + args +
                              " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << command;
    return {};
  }
  LintResult result;
  char chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), pipe)) > 0) {
    result.output.append(chunk, got);
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string fixture(const std::string& name) {
  return std::string(FTSP_LINT_FIXTURES) + "/" + name;
}

/// Runs one rule over one fixture root.
LintResult lint_fixture(const std::string& name, const std::string& rule) {
  return run_lint("--root " + fixture(name) + " --rule " + rule);
}

void expect_clean(const std::string& name, const std::string& rule) {
  const auto result = lint_fixture(name, rule);
  EXPECT_EQ(result.exit_code, 0) << name << ":\n" << result.output;
  EXPECT_NE(result.output.find("clean"), std::string::npos)
      << result.output;
}

void expect_finding(const std::string& name, const std::string& rule,
                    const std::string& needle) {
  const auto result = lint_fixture(name, rule);
  EXPECT_EQ(result.exit_code, 1) << name << ":\n" << result.output;
  EXPECT_NE(result.output.find(rule + ":"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find(needle), std::string::npos)
      << result.output;
}

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("ftsp-lint-" + tag + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

TEST(LintCli, ListRulesNamesEveryRule) {
  const auto result = run_lint("--list-rules");
  EXPECT_EQ(result.exit_code, 0);
  for (const char* rule :
       {"registry-error-slug", "registry-metric-name", "registry-section-id",
        "registry-op-name", "det-wall-clock", "det-rand", "det-unseeded-rng",
        "det-unordered-serialize", "hyg-stdout", "hyg-exit",
        "hyg-using-namespace", "hyg-pragma-once", "hyg-naked-new",
        "hyg-local-crc"}) {
    EXPECT_NE(result.output.find(rule), std::string::npos)
        << "missing rule " << rule << " in:\n" << result.output;
  }
}

TEST(LintCli, UsageErrors) {
  EXPECT_EQ(run_lint("--rule no-such-rule").exit_code, 2);
  EXPECT_EQ(run_lint("--bogus-flag").exit_code, 2);
  EXPECT_EQ(run_lint("--root /nonexistent/lint/root").exit_code, 2);
}

TEST(LintDeterminism, WallClock) {
  expect_clean("det_wall_clock/accept", "det-wall-clock");
  expect_finding("det_wall_clock/reject", "det-wall-clock",
                 "wall-clock read");
}

TEST(LintDeterminism, Rand) {
  expect_clean("det_rand/accept", "det-rand");
  expect_finding("det_rand/reject", "det-rand", "nondeterministic");
}

TEST(LintDeterminism, JustifiedSuppressionIsHonored) {
  expect_clean("det_rand/suppressed", "det-rand");
}

TEST(LintDeterminism, UnjustifiedSuppressionStillFails) {
  expect_finding("det_rand/unjustified", "det-rand",
                 "lacks a justification");
}

TEST(LintDeterminism, UnseededRng) {
  expect_clean("det_unseeded_rng/accept", "det-unseeded-rng");
  expect_finding("det_unseeded_rng/reject", "det-unseeded-rng",
                 "default-constructed");
  expect_finding("det_unseeded_rng/reject", "det-unseeded-rng",
                 "default-constructed Mt64");
}

TEST(LintDeterminism, UnorderedSerialize) {
  expect_clean("det_unordered_serialize/accept", "det-unordered-serialize");
  expect_finding("det_unordered_serialize/reject", "det-unordered-serialize",
                 "unordered container");
}

TEST(LintHygiene, Stdout) {
  expect_clean("hyg_stdout/accept", "hyg-stdout");
  expect_finding("hyg_stdout/reject", "hyg-stdout", "stdout write");
}

TEST(LintHygiene, Exit) {
  expect_clean("hyg_exit/accept", "hyg-exit");
  expect_finding("hyg_exit/reject", "hyg-exit", "process-terminating");
}

TEST(LintHygiene, UsingNamespace) {
  expect_clean("hyg_using_namespace/accept", "hyg-using-namespace");
  expect_finding("hyg_using_namespace/reject", "hyg-using-namespace",
                 "leaks into every includer");
}

TEST(LintHygiene, PragmaOnce) {
  expect_clean("hyg_pragma_once/accept", "hyg-pragma-once");
  expect_finding("hyg_pragma_once/reject", "hyg-pragma-once",
                 "lacks #pragma once");
}

TEST(LintHygiene, NakedNew) {
  expect_clean("hyg_naked_new/accept", "hyg-naked-new");
  expect_finding("hyg_naked_new/reject", "hyg-naked-new", "naked");
}

TEST(LintHygiene, LocalCrc) {
  expect_clean("hyg_local_crc/accept", "hyg-local-crc");
  expect_finding("hyg_local_crc/reject", "hyg-local-crc",
                 "magic constant");
}

TEST(LintRegistry, ErrorSlugAcceptsMatchingManifest) {
  expect_clean("registry_error_slug/accept", "registry-error-slug");
}

TEST(LintRegistry, ErrorSlugRejectsUnregistered) {
  expect_finding("registry_error_slug/reject_unregistered",
                 "registry-error-slug", "unregistered error slug");
}

TEST(LintRegistry, ErrorSlugRejectsRemoval) {
  expect_finding("registry_error_slug/reject_removal", "registry-error-slug",
                 "removed from the source");
}

TEST(LintRegistry, ErrorSlugRejectsReorder) {
  expect_finding("registry_error_slug/reject_reorder", "registry-error-slug",
                 "renames/reorders violate append-only");
}

TEST(LintRegistry, SectionId) {
  expect_clean("registry_section_id/accept", "registry-section-id");
  // Renumbering a section is a registry mismatch even when the name
  // survives — the fixture bumps Payload from 2 to 3.
  expect_finding("registry_section_id/reject", "registry-section-id",
                 "registry mismatch");
}

TEST(LintRegistry, OpName) {
  expect_clean("registry_op_name/accept", "registry-op-name");
  expect_finding("registry_op_name/reject", "registry-op-name",
                 "registry mismatch");
}

TEST(LintRegistry, MetricNameAcceptsRegistered) {
  expect_clean("registry_metric_name/accept", "registry-metric-name");
}

TEST(LintRegistry, MetricNameRejectsUnregistered) {
  expect_finding("registry_metric_name/reject_unregistered",
                 "registry-metric-name", "unregistered metric name");
}

TEST(LintRegistry, MetricNameRejectsRemoval) {
  expect_finding("registry_metric_name/reject_removal",
                 "registry-metric-name", "no longer appears");
}

TEST(LintUpdate, RoundTripRegistersNewEntriesThenLintsClean) {
  // Copy the fixture (source has two slugs, manifest only one) into a
  // scratch root, register, then re-lint: clean, and the manifest
  // gained exactly the missing slug at the end.
  TempDir tmp("roundtrip");
  fs::copy(fixture("update_roundtrip"), tmp.path,
           fs::copy_options::recursive);
  const std::string root = tmp.path.string();

  const auto before =
      run_lint("--root " + root + " --rule registry-error-slug");
  EXPECT_EQ(before.exit_code, 1) << before.output;

  const auto update = run_lint("--root " + root +
                               " --update-manifests"
                               " --rule registry-error-slug");
  EXPECT_EQ(update.exit_code, 0) << update.output;
  EXPECT_NE(update.output.find("registered 1 new error slug"),
            std::string::npos)
      << update.output;

  const auto after = run_lint("--root " + root +
                              " --rule registry-error-slug");
  EXPECT_EQ(after.exit_code, 0) << after.output;

  const std::string manifest =
      read_file(tmp.path / "tools/lint/manifests/error_slugs.txt");
  EXPECT_NE(manifest.find("bad_request\nnot_found\n"), std::string::npos)
      << manifest;
}

TEST(LintUpdate, RefusesToBlessARemoval) {
  TempDir tmp("refuse");
  fs::copy(fixture("update_refuses_removal"), tmp.path,
           fs::copy_options::recursive);
  const std::string root = tmp.path.string();

  const auto update = run_lint("--root " + root +
                               " --update-manifests"
                               " --rule registry-error-slug");
  EXPECT_EQ(update.exit_code, 1) << update.output;
  EXPECT_NE(update.output.find("refusing to update"), std::string::npos)
      << update.output;

  // The manifest is untouched: the removed slug is still registered,
  // so a plain lint still reports the removal.
  const std::string manifest =
      read_file(tmp.path / "tools/lint/manifests/error_slugs.txt");
  EXPECT_NE(manifest.find("gone_slug"), std::string::npos) << manifest;
}

}  // namespace
