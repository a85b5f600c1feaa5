// ftsp_cli end-to-end: argument-parsing robustness (malformed numbers
// and trailing value flags exit 2 with a usage message instead of
// aborting on an uncaught exception) and the device-targeted
// compile/query flow. Drives the real binary, whose path CMake injects
// as FTSP_CLI_PATH.
#include <gtest/gtest.h>

#include <cstdio>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

struct CliResult {
  int exit_code = -1;
  std::string output;  ///< Combined stdout + stderr.
};

/// Runs a shell command line, capturing its stdout + stderr.
CliResult run_shell(const std::string& command_line) {
  const std::string command = command_line + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed for: " << command;
    return {};
  }
  CliResult result;
  char chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), pipe)) > 0) {
    result.output.append(chunk, got);
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

CliResult run_cli(const std::string& args) {
  return run_shell(std::string(FTSP_CLI_PATH) + " " + args);
}

/// Lines of `text` that start with '{' (JSON responses, not banners).
std::size_t count_json_lines(const std::string& text) {
  std::istringstream lines(text);
  std::size_t count = 0;
  for (std::string line; std::getline(lines, line);) {
    count += !line.empty() && line.front() == '{';
  }
  return count;
}

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("ftsp-cli-" + tag + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

TEST(Cli, NumericGarbageIsAUsageErrorNotAnAbort) {
  const auto result = run_cli("sim Steane --shots abc");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--shots"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("usage:"), std::string::npos)
      << result.output;

  EXPECT_EQ(run_cli("sim Steane --shots -5").exit_code, 2);
  EXPECT_EQ(run_cli("rate Steane --p 0.01x").exit_code, 2);
  EXPECT_EQ(run_cli("rate Steane --seed 1e9").exit_code, 2);
}

TEST(Cli, TrailingValueFlagIsAUsageError) {
  const auto result = run_cli("sim Steane --shots");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("needs a value"), std::string::npos)
      << result.output;
  EXPECT_EQ(run_cli("rate Steane --p").exit_code, 2);
  EXPECT_EQ(run_cli("synth Steane --coupling").exit_code, 2);
}

TEST(Cli, SubcommandNumbersAreCheckedToo) {
  TempDir dir("store-args");
  const std::string store = dir.path.string();
  EXPECT_EQ(
      run_cli("store --store " + store + " --prune --max-cache-age-days x")
          .exit_code,
      2);
  EXPECT_EQ(run_cli("serve --store " + store + " --threads nope").exit_code,
            2);
  EXPECT_EQ(run_cli("compile Steane --store").exit_code, 2);

  // Typo'd flags are rejected, not silently ignored (which would
  // compile a differently-configured artifact with exit 0).
  const auto typo = run_cli("compile Steane --store " + store +
                            " --gadget_reach 2 --coupling linear");
  EXPECT_EQ(typo.exit_code, 2) << typo.output;
  EXPECT_NE(typo.output.find("unknown argument"), std::string::npos);
  EXPECT_EQ(run_cli("sim Steane --bogus").exit_code, 2);
}

TEST(Cli, UnknownCouplingIsAUsageError) {
  const auto result = run_cli("synth Steane --coupling torus");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--coupling"), std::string::npos);
}

TEST(Cli, ValidInvocationsStillSucceed) {
  const auto codes = run_cli("codes");
  EXPECT_EQ(codes.exit_code, 0) << codes.output;
  EXPECT_NE(codes.output.find("Steane"), std::string::npos);

  const auto sim = run_cli("sim Steane --p 0.02 --shots 512");
  EXPECT_EQ(sim.exit_code, 0) << sim.output;
  EXPECT_NE(sim.output.find("pL"), std::string::npos);
}

TEST(Cli, DeviceTargetedCompileAndQuery) {
  TempDir dir("coupling");
  const std::string store = dir.path.string();

  const auto all = run_cli("compile Steane --store " + store);
  EXPECT_EQ(all.exit_code, 0) << all.output;
  const auto linear =
      run_cli("compile Steane --store " + store + " --coupling linear");
  EXPECT_EQ(linear.exit_code, 0) << linear.output;
  EXPECT_NE(linear.output.find("coupling linear"), std::string::npos)
      << linear.output;

  // Two artifacts, distinct store keys.
  std::ifstream index(dir.path / "index.tsv");
  std::string line;
  std::size_t entries = 0;
  while (std::getline(index, line)) {
    entries += !line.empty();
  }
  EXPECT_EQ(entries, 2u);

  // --coupling retargets the query to the device-specific serving name.
  const auto info = run_cli("query --store " + store +
                            " --coupling linear "
                            "'{\"op\":\"info\",\"code\":\"Steane\"}'");
  EXPECT_EQ(info.exit_code, 0) << info.output;
  EXPECT_NE(info.output.find("\"coupling\":\"linear\""), std::string::npos)
      << info.output;

  const auto plain = run_cli("query --store " + store +
                             " '{\"op\":\"info\",\"code\":\"Steane\"}'");
  EXPECT_EQ(plain.exit_code, 0) << plain.output;
  EXPECT_NE(plain.output.find("\"coupling\":\"all\""), std::string::npos)
      << plain.output;

  // A custom coupling-map file works end to end.
  const fs::path map_file = dir.path / "device.cmap";
  {
    std::ofstream out(map_file);
    out << "coupling: testbed\nsites: 7\nedges:\n";
    for (int q = 0; q + 1 < 7; ++q) {
      out << q << ' ' << (q + 1) << '\n';
    }
    out << "0 6\n";  // A ring, so it differs from the builtin linear map.
  }
  const auto custom = run_cli("compile Steane --store " + store +
                              " --coupling " + map_file.string());
  EXPECT_EQ(custom.exit_code, 0) << custom.output;
  const auto custom_info =
      run_cli("query --store " + store +
              " --coupling testbed "
              "'{\"op\":\"info\",\"code\":\"Steane\"}'");
  EXPECT_EQ(custom_info.exit_code, 0) << custom_info.output;
  EXPECT_NE(custom_info.output.find("\"coupling\":\"testbed\""),
            std::string::npos)
      << custom_info.output;

  // The same map *file* argument that compiled the artifact also
  // addresses it at query time (resolved to the map's declared name).
  const auto by_file =
      run_cli("query --store " + store + " --coupling " +
              map_file.string() + " '{\"op\":\"info\",\"code\":\"Steane\"}'");
  EXPECT_EQ(by_file.exit_code, 0) << by_file.output;
  EXPECT_NE(by_file.output.find("\"coupling\":\"testbed\""),
            std::string::npos)
      << by_file.output;

  // Malformed request JSON keeps the documented error envelope (exit 0)
  // even with --coupling present.
  const auto malformed =
      run_cli("query --store " + store + " --coupling linear '{bad'");
  EXPECT_EQ(malformed.exit_code, 0) << malformed.output;
  EXPECT_NE(malformed.output.find("\"ok\":false"), std::string::npos)
      << malformed.output;
}

TEST(Cli, ServeAnswersPipedStdinWithAccessLog) {
  TempDir dir("serve-stdin");
  const std::string store = (dir.path / "store").string();
  const auto compiled = run_cli("compile Steane --store " + store);
  ASSERT_EQ(compiled.exit_code, 0) << compiled.output;
  constexpr std::size_t kRequests = 5;
  const fs::path requests = dir.path / "requests.jsonl";
  {
    std::ofstream out(requests);
    for (std::size_t i = 0; i < kRequests; ++i) {
      out << R"({"id":)" << i << R"(,"v":2,"op":"health"})" << '\n';
    }
  }
  const fs::path log = dir.path / "access.jsonl";
  const auto piped = run_shell("cat " + requests.string() + " | " +
                               FTSP_CLI_PATH + " serve --store " + store +
                               " --access-log " + log.string());
  EXPECT_EQ(piped.exit_code, 0) << piped.output;
  EXPECT_EQ(count_json_lines(piped.output), kRequests) << piped.output;
  std::ifstream access(log);
  std::size_t logged = 0;
  for (std::string line; std::getline(access, line);) {
    ++logged;
  }
  EXPECT_EQ(logged, kRequests);

  // A regular file on stdin works too (epoll cannot watch one, so this
  // exercises the bridge's pump).
  const auto redirected =
      run_cli("serve --store " + store + " < " + requests.string());
  EXPECT_EQ(redirected.exit_code, 0) << redirected.output;
  EXPECT_EQ(count_json_lines(redirected.output), kRequests)
      << redirected.output;
}

}  // namespace
