// Load generator for the TCP serving tier: spins up (or connects to) a
// server, drives it with concurrent closed-loop clients over a
// representative request mix (codes/info/sample/rate, v1 and v2
// dialects), and reports latency percentiles + throughput as JSON
// (bench_serve.json by default; the CI serve-load and bench-smoke jobs
// gate on it):
//
//   bench_serve_load [--smoke] [--clients N] [--requests N]
//                    [--cache-mb N] [--connect HOST:PORT] [--out FILE]
//
// Without --connect it serves in-process: compiles Steane once, then
// serves it through a real TcpServer on an ephemeral loopback port —
// the full event-loop + worker-pool + coalescing path, minus only process
// isolation. With --connect it targets a running `ftsp_cli serve
// --tcp` instance. Exits nonzero if any request fails or throughput is
// zero, so CI can gate on it.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "compile/artifact.hpp"
#include "compile/service.hpp"
#include "qec/code_library.hpp"
#include "serve/cache.hpp"
#include "serve/tcp_server.hpp"

namespace {

using namespace ftsp;
using Clock = std::chrono::steady_clock;

#ifndef _WIN32

struct Options {
  bool smoke = false;
  std::size_t clients = 8;
  std::size_t requests_per_client = 200;
  std::size_t cache_mb = 16;
  std::string connect_host;
  std::uint16_t connect_port = 0;
  std::string out_path = "bench_serve.json";
};

/// Blocking line client (one request in flight — closed loop, so
/// latency numbers are honest per-request round trips).
class Client {
 public:
  /// Connects with a bounded retry loop — exponential backoff from 50ms
  /// doubling to a 2s cap, ~10 attempts. A just-launched server (CI
  /// starts `ftsp_cli serve` and this bench back to back) needs a beat
  /// before its listener answers, and a busy accept queue can refuse
  /// transiently; anything persistent still fails within seconds. The
  /// jitter that spreads concurrent clients apart is deterministic
  /// (derived from the client index and attempt number), keeping runs
  /// reproducible.
  Client(const std::string& host, std::uint16_t port, std::size_t salt = 0) {
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, host.c_str(), &address.sin_addr);
    constexpr int kMaxAttempts = 10;
    std::chrono::milliseconds backoff(50);
    for (int attempt = 0; attempt < kMaxAttempts && !ok_; ++attempt) {
      if (attempt > 0) {
        const std::chrono::milliseconds jitter(
            (salt * 7919 + static_cast<std::size_t>(attempt) * 104729) % 25);
        std::this_thread::sleep_for(backoff + jitter);
        backoff = std::min(backoff * 2, std::chrono::milliseconds(2000));
      }
      fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd_ < 0) {
        continue;
      }
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                    sizeof(address)) == 0) {
        ok_ = true;
        break;
      }
      ::close(fd_);
      fd_ = -1;
    }
    if (ok_) {
      const int one = 1;
      ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
  }
  ~Client() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }

  bool ok() const { return ok_; }

  /// Round-trips one request; returns the response line ("" = error).
  std::string round_trip(const std::string& request) {
    std::string framed = request;
    framed += '\n';
    std::size_t written = 0;
    while (written < framed.size()) {
      const auto sent = ::send(fd_, framed.data() + written,
                               framed.size() - written, 0);
      if (sent <= 0) {
        return "";
      }
      written += static_cast<std::size_t>(sent);
    }
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[8192];
      const auto got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) {
        return "";
      }
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  int fd_ = -1;
  bool ok_ = false;
  std::string buffer_;
};

/// The serving mix: metadata lookups, Monte-Carlo sampling with
/// distinct seeds (never coalesces — worst case), and a repeated rate
/// query (always coalesces/caches — best case), across both dialects.
std::string request_for(std::size_t client, std::size_t index) {
  switch (index % 6) {
    case 0:
      return R"({"op":"codes"})";
    case 1:
      return R"({"v":2,"op":"info","code":"Steane"})";
    case 2:
    case 3: {
      const std::size_t seed = 1 + (client * 1000 + index) % 5000;
      return R"({"v":2,"op":"sample","code":"Steane","p":0.01,"shots":512,)"
             R"("seed":)" +
             std::to_string(seed) + "}";
    }
    case 4:
      return R"({"v":2,"op":"rate","code":"Steane","p":0.003,"shots":4096,)"
             R"("seed":11})";
    default:
      return R"({"v":2,"op":"health"})";
  }
}

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

int run(const Options& options) {
  // In-process server (unless --connect): real TCP stack on loopback.
  std::shared_ptr<compile::ProtocolService> service;
  std::unique_ptr<serve::TcpServer> server;
  std::shared_ptr<serve::PayloadCache> cache;
  std::string host = options.connect_host;
  std::uint16_t port = options.connect_port;
  if (host.empty()) {
    std::fprintf(stderr, "bench_serve_load: compiling Steane...\n");
    const compile::ProtocolCompiler compiler;
    service = std::make_shared<compile::ProtocolService>();
    service->add(compiler.compile(qec::steane()));
    cache = std::make_shared<serve::PayloadCache>(options.cache_mb << 20);
    service->set_payload_cache(cache);
    serve::TcpServerOptions tcp_options;
    tcp_options.port = 0;
    server = std::make_unique<serve::TcpServer>(
        [&service]() -> std::shared_ptr<const compile::ProtocolService> {
          return service;
        },
        tcp_options);
    server->start();
    host = "127.0.0.1";
    port = server->port();
  }
  std::fprintf(stderr,
               "bench_serve_load: %zu clients x %zu requests -> %s:%u\n",
               options.clients, options.requests_per_client, host.c_str(),
               port);

  std::atomic<std::uint64_t> failures{0};
  std::vector<std::vector<double>> latencies(options.clients);
  const auto wall_start = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < options.clients; ++c) {
    threads.emplace_back([&, c] {
      Client client(host, port, c);
      if (!client.ok()) {
        failures.fetch_add(options.requests_per_client);
        return;
      }
      latencies[c].reserve(options.requests_per_client);
      for (std::size_t i = 0; i < options.requests_per_client; ++i) {
        const std::string request = request_for(c, i);
        const auto start = Clock::now();
        const std::string response = client.round_trip(request);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count();
        if (response.find("\"ok\":true") == std::string::npos) {
          failures.fetch_add(1);
        } else {
          latencies[c].push_back(ms);
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const double wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  std::sort(all.begin(), all.end());
  const std::uint64_t total =
      static_cast<std::uint64_t>(options.clients) *
      options.requests_per_client;
  const std::uint64_t succeeded = total - failures.load();
  const double qps =
      wall_seconds > 0.0 ? static_cast<double>(succeeded) / wall_seconds
                         : 0.0;

  std::uint64_t cache_hits = 0;
  std::uint64_t cache_coalesced = 0;
  if (cache) {
    const auto stats = cache->stats();
    cache_hits = stats.hits;
    cache_coalesced = stats.coalesced;
  }

  FILE* out = std::fopen(options.out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_serve_load: cannot write %s\n",
                 options.out_path.c_str());
    return 1;
  }
  std::fprintf(
      out,
      "{\"bench\":\"serve_load\",\"mode\":\"%s\",\"clients\":%zu,"
      "\"requests_per_client\":%zu,\"total_requests\":%llu,"
      "\"failures\":%llu,\"wall_seconds\":%.3f,\"qps\":%.1f,"
      "\"latency_ms\":{\"p50\":%.3f,\"p90\":%.3f,\"p99\":%.3f,"
      "\"max\":%.3f},\"cache_hits\":%llu,\"cache_coalesced\":%llu}\n",
      options.smoke ? "smoke" : "full", options.clients,
      options.requests_per_client,
      static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(failures.load()), wall_seconds, qps,
      percentile(all, 0.50), percentile(all, 0.90), percentile(all, 0.99),
      all.empty() ? 0.0 : all.back(),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_coalesced));
  std::fclose(out);
  std::fprintf(stderr,
               "bench_serve_load: %llu ok, %llu failed, %.0f req/s, "
               "p50 %.2fms p99 %.2fms -> %s\n",
               static_cast<unsigned long long>(succeeded),
               static_cast<unsigned long long>(failures.load()), qps,
               percentile(all, 0.50), percentile(all, 0.99),
               options.out_path.c_str());

  if (server) {
    server->stop();
  }
  return (failures.load() == 0 && qps > 0.0) ? 0 : 1;
}

#endif  // !_WIN32

}  // namespace

int main(int argc, char** argv) {
#ifdef _WIN32
  (void)argc;
  (void)argv;
  std::fprintf(stderr, "bench_serve_load: not supported on this platform\n");
  return 0;
#else
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--clients") {
      options.clients = std::stoul(value());
    } else if (arg == "--requests") {
      options.requests_per_client = std::stoul(value());
    } else if (arg == "--cache-mb") {
      options.cache_mb = std::stoul(value());
    } else if (arg == "--out") {
      options.out_path = value();
    } else if (arg == "--connect") {
      const std::string spec = value();
      const auto colon = spec.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--connect wants HOST:PORT\n");
        return 2;
      }
      options.connect_host = spec.substr(0, colon);
      options.connect_port =
          static_cast<std::uint16_t>(std::stoul(spec.substr(colon + 1)));
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  if (options.smoke) {
    options.clients = std::min<std::size_t>(options.clients, 4);
    options.requests_per_client =
        std::min<std::size_t>(options.requests_per_client, 40);
  }
  return run(options);
#endif
}
