// The `sample` op of the protocol service end to end: its reply bytes
// are pinned per code, shot count and thread count, and a request at
// the shot cap runs in bounded memory.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <string>

#include "compile/service.hpp"
#include "qec/code_library.hpp"
#include "util/hash.hpp"

namespace ftsp::compile {
namespace {

class SampleReply : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const ProtocolCompiler compiler;
    service_ = new ProtocolService();
    service_->add(compiler.compile(qec::steane()));
    service_->add(compiler.compile(qec::steane(), qec::LogicalBasis::Plus));
    service_->add(compiler.compile(qec::carbon()));
  }
  static void TearDownTestSuite() {
    delete service_;
    service_ = nullptr;
  }

  static std::string sample(const std::string& code, std::uint64_t shots,
                            int threads) {
    return service_->handle_request(
        R"({"op":"sample","code":")" + code + R"(","shots":)" +
        std::to_string(shots) + R"(,"threads":)" + std::to_string(threads) +
        "}");
  }

  static ProtocolService* service_;
};

ProtocolService* SampleReply::service_ = nullptr;

struct PinnedReply {
  const char* code;
  std::uint64_t shots;
  std::uint64_t digest;  ///< FNV-1a/64 of the whole reply line.
};

// Replies at the defaults (p = 0.01, seed 1). 2^22 is the request cap.
constexpr PinnedReply kPinnedReplies[] = {
    {"Steane", 512, 0x1b7052b1f30787c9ULL},
    {"Steane", 20000, 0x6491e7b00f150d7fULL},
    {"Steane", std::uint64_t{1} << 22, 0x2c3136d4f0821cc0ULL},
    {"Steane/plus", 512, 0x023d41e83122ab6aULL},
    {"Steane/plus", 20000, 0xdb55ab9173dbdda7ULL},
    {"Steane/plus", std::uint64_t{1} << 22, 0x72070ce081200b5fULL},
    {"Carbon", 512, 0x648b5cc524afa553ULL},
    {"Carbon", 20000, 0xa4be5760f157801dULL},
    {"Carbon", std::uint64_t{1} << 22, 0x5c5900f40781af56ULL},
};

TEST_F(SampleReply, BytesArePinnedAtOneAndFourThreads) {
  for (const PinnedReply& pin : kPinnedReplies) {
    for (const int threads : {1, 4}) {
      const std::string reply = sample(pin.code, pin.shots, threads);
      const std::uint64_t digest = util::fnv1a64(reply);
      EXPECT_EQ(digest, pin.digest)
          << pin.code << " shots=" << pin.shots << " threads=" << threads
          << std::hex << ": got 0x" << digest << "\n"
          << reply;
    }
  }
}

// Sanitizer runtimes inflate RSS (shadow memory, quarantined frees), so
// the memory gate only means something in a plain build.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

TEST_F(SampleReply, CappedRequestGrowsMaxRssLittle) {
  // A 2^22-shot request once kept a 36-byte trajectory per shot and
  // copied the batch twice more to estimate it (about 440 MiB). Shards
  // now fold into counts, so the request needs one shard's scratch. A
  // forked child reads its high-water mark, serves the request and
  // exits; `wait4` then reports the child's peak.
  if (kSanitized) {
    GTEST_SKIP() << "sanitizer runtimes inflate RSS";
  }
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    rusage before{};
    ::getrusage(RUSAGE_SELF, &before);
    const std::string reply = sample("Steane", std::uint64_t{1} << 22, 1);
    const long start_kib = before.ru_maxrss;
    const bool written = ::write(fds[1], &start_kib, sizeof start_kib) ==
                         static_cast<ssize_t>(sizeof start_kib);
    const bool ok = reply.find(R"("ok":true)") != std::string::npos;
    ::_exit(written && ok ? 0 : 1);
  }
  ::close(fds[1]);
  long start_kib = 0;
  const ssize_t got = ::read(fds[0], &start_kib, sizeof start_kib);
  ::close(fds[0]);
  int status = 0;
  rusage usage{};
  ASSERT_EQ(::wait4(pid, &status, 0, &usage), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child failed, status " << status;
  ASSERT_EQ(got, static_cast<ssize_t>(sizeof start_kib));
  const long growth_kib = usage.ru_maxrss - start_kib;
  EXPECT_LT(growth_kib, 16 * 1024)
      << "peak " << usage.ru_maxrss << " KiB from " << start_kib << " KiB";
}

}  // namespace
}  // namespace ftsp::compile
