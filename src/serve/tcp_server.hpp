#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "compile/service.hpp"

namespace ftsp::serve {

struct TcpServerOptions {
  /// IPv4 listener address. Empty = no request listener at all: the
  /// server then answers only connections handed to it by `adopt()`
  /// (see StdioBridge).
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned ephemeral port; read back via `port()`.
  std::uint16_t port = 0;
  /// When set, the request listener is an AF_UNIX socket at this path
  /// instead of IPv4 (`host`/`port` are ignored). A stale socket file
  /// there is replaced; any other file is refused. The server unlinks
  /// its own socket file on `stop()`.
  std::string unix_path;
  /// Accepted-connection cap. A connection beyond the cap receives one
  /// v2 `overloaded` error line and is closed immediately.
  std::size_t max_connections = 256;
  /// Compute worker threads (0 = hardware concurrency).
  std::size_t num_threads = 0;
  /// Idle connections (no bytes received, nothing in flight) are closed
  /// after this long. 0 disables the idle reaper.
  std::chrono::milliseconds idle_timeout{0};
  /// Per-request deadline, measured from request *arrival* (so time
  /// spent queued behind other work counts). An expired request answers
  /// with the `deadline_exceeded` error code and — for compute ops —
  /// cooperatively cancels mid-estimate, freeing its worker. 0 disables;
  /// a v2 request's `deadline_ms` field can tighten (never extend) it.
  std::chrono::milliseconds request_timeout{0};
  /// Backpressure, output side: reading from a connection pauses while
  /// its un-flushed response bytes exceed half of this; a connection
  /// whose pending bytes still exceed all of it is closed loudly.
  std::size_t max_output_bytes = 8u << 20;
  /// A single request line longer than this is rejected (connection
  /// closed) — bounds per-connection input memory.
  std::size_t max_line_bytes = 1u << 20;
  /// Backpressure, input side: reading from a connection pauses while
  /// it has this many requests queued or computing; resumes as
  /// responses flush.
  std::size_t max_inflight_per_connection = 64;
  /// Optional plaintext metrics sidecar: when enabled, a second
  /// listener on metrics_host:metrics_port answers every HTTP request
  /// with one Prometheus text rendering of the process metric registry
  /// (see src/obs/expose.hpp) and closes — scrape with curl or a
  /// Prometheus scrape job, no JSON protocol handshake needed. Served
  /// by the same event loop; read back the bound port via
  /// `TcpServer::metrics_port()` when 0.
  bool metrics_enabled = false;
  std::string metrics_host = "127.0.0.1";
  std::uint16_t metrics_port = 0;
};

/// The request server for the line protocol, on every transport: an
/// IPv4 or unix-socket listener, or stdin/stdout through StdioBridge.
/// One event-loop thread multiplexes every connection via epoll (Linux;
/// poll(2) elsewhere), in front of a pool of compute workers.
///
/// Responses to one connection are written in request arrival order
/// (per-connection sequence numbers), while requests from different
/// connections compute concurrently.
///
/// The service is taken as a *snapshot provider* rather than a
/// reference: each request grabs the current `shared_ptr` once and
/// computes entirely against it, which is what makes hot store reloads
/// (see ReloadableService) invisible to in-flight requests.
class TcpServer {
 public:
  using ServiceSnapshotFn =
      std::function<std::shared_ptr<const compile::ProtocolService>()>;

  struct Stats {
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected_overloaded{0};
    std::atomic<std::uint64_t> closed_idle{0};
    std::atomic<std::uint64_t> closed_overflow{0};
    std::atomic<std::uint64_t> requests{0};
  };

  /// Binds and listens (throws std::runtime_error on failure) but does
  /// not serve until `start()`.
  TcpServer(ServiceSnapshotFn service, TcpServerOptions options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Actual bound port (resolves port 0 requests); 0 without an IPv4
  /// request listener.
  std::uint16_t port() const { return port_; }

  /// Actual bound metrics-sidecar port; 0 when the sidecar is disabled.
  std::uint16_t metrics_port() const { return metrics_port_; }

  /// Serves an already-connected stream socket as one more connection
  /// (the server takes ownership of `fd`). Call before `start()`.
  void adopt(int fd);

  /// Starts the event loop and worker threads (idempotent).
  void start();

  /// Graceful shutdown: stops accepting and stops reading new request
  /// lines, drains every in-flight compute and queued response, closes
  /// every connection, joins all threads. In-flight requests are never
  /// dropped; unparsed partial input is. Idempotent; also run by the
  /// destructor.
  void stop();

  /// Blocks until `stop()` is called from another thread (or a fatal
  /// event-loop error).
  void wait();

  const Stats& stats() const { return stats_; }

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  Stats stats_;
  std::uint16_t port_ = 0;
  std::uint16_t metrics_port_ = 0;
};

/// Serves newline-delimited requests read from `in_fd` and writes the
/// responses, in request order, to `out_fd` (typically stdin/stdout).
/// Any fd works, regular files included: the bridge adopts one end of a
/// socketpair into `server` and pumps `in_fd` -> socket (half-closing
/// at EOF) and socket -> `out_fd` on two threads. Once the server has
/// answered everything and closed its end, the bridge calls
/// `server.stop()`, so `server.wait()` returns. Construct before
/// `server.start()`; destroy before `server`. Neither fd is closed.
class StdioBridge {
 public:
  StdioBridge(TcpServer& server, int in_fd, int out_fd);
  ~StdioBridge();

  StdioBridge(const StdioBridge&) = delete;
  StdioBridge& operator=(const StdioBridge&) = delete;

 private:
  TcpServer& server_;
  int socket_ = -1;
  std::thread input_;
  std::thread output_;
};

}  // namespace ftsp::serve
