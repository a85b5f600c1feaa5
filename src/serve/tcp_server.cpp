#include "serve/tcp_server.hpp"

#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/expose.hpp"
#include "obs/registry.hpp"
#include "serve/wire.hpp"
#include "util/fault_inject.hpp"

#ifndef _WIN32

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#ifdef __linux__
#include <sys/epoll.h>
#include <sys/eventfd.h>
#endif

namespace ftsp::serve {

namespace {

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

/// Out-of-band error line of the serving tier itself (connection
/// admission, shutdown) — no request envelope exists, so it is always
/// the v2 dialect: machine code + message.
std::string control_error_line(const char* code, const std::string& message) {
  Envelope envelope;
  envelope.version = 2;
  return render_error(envelope, code, message) + "\n";
}

/// `metric` is the full registered name ("serve.conn.accept.count", ...)
/// — spelled out at every call site so the append-only metric-name
/// registry stays greppable and ftsp_lint can extract it.
void count_connection_event(const char* metric, std::uint64_t n = 1) {
  if (obs::enabled()) {
    obs::Registry::instance().counter(metric).add(n);
  }
}

}  // namespace

struct TcpServer::Impl {
  // -------------------------------------------------------------------
  // Types
  // -------------------------------------------------------------------

  struct Connection {
    int fd = -1;
    std::string in;   ///< Bytes received, not yet newline-terminated.
    std::string out;  ///< Response bytes not yet accepted by the kernel.
    /// Per-connection response ordering: each parsed line gets the next
    /// sequence number; responses append to `out` strictly in sequence.
    std::uint64_t next_seq = 0;
    std::uint64_t next_flush = 0;
    std::map<std::uint64_t, std::string> ready;  ///< Out-of-order done.
    std::size_t inflight = 0;  ///< Parsed, response not yet in `ready`.
    std::chrono::steady_clock::time_point last_activity;
    bool want_read = true;
    bool want_write = false;
    bool eof = false;   ///< Peer half-closed; close once drained.
    bool dead = false;  ///< Marked for removal this iteration.
    /// Metrics-sidecar connection: bytes read are an HTTP request, the
    /// (single) response is a Prometheus text page, written-then-closed
    /// through the ordinary flush + drained-EOF machinery.
    bool metrics = false;
    bool metrics_responded = false;
  };

  struct Task {
    std::uint64_t conn_id;
    std::uint64_t seq;
    std::string line;
    /// When the line was parsed off the socket — the base of the
    /// per-request deadline, so queue wait counts against the budget.
    std::chrono::steady_clock::time_point arrival;
  };

  struct Completion {
    std::uint64_t conn_id;
    std::uint64_t seq;
    std::string response;
  };

  // Reserved event ids (connection ids start above them).
  static constexpr std::uint64_t kListenerId = 0;
  static constexpr std::uint64_t kWakeId = 1;
  static constexpr std::uint64_t kMetricsListenerId = 2;

  ServiceSnapshotFn snapshot;
  TcpServerOptions options;
  Stats* stats = nullptr;

  int listener = -1;  ///< -1 when serving adopted connections only.
  /// Identity of the unix socket file this server bound, so `stop()`
  /// never unlinks a file that replaced it.
  struct stat unix_socket_file {};
  int metrics_listener = -1;
  int wake_read = -1;
  int wake_write = -1;
#ifdef __linux__
  int epoll_fd = -1;
#endif

  std::uint64_t next_conn_id = 3;
  std::unordered_map<std::uint64_t, Connection> conns;

  std::mutex task_mutex;
  std::condition_variable task_cv;
  std::deque<Task> tasks;
  bool stopping = false;  ///< Guarded by task_mutex.

  std::mutex done_mutex;
  std::vector<Completion> done;

  std::vector<std::thread> workers;
  std::thread loop_thread;
  bool started = false;

  std::mutex stop_mutex;
  std::condition_variable stop_cv;
  bool stop_initiated = false;
  bool stopped = false;

  // -------------------------------------------------------------------
  // Setup / teardown
  // -------------------------------------------------------------------

  ~Impl() {
    if (listener >= 0) ::close(listener);
    if (metrics_listener >= 0) ::close(metrics_listener);
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0 && wake_write != wake_read) ::close(wake_write);
#ifdef __linux__
    if (epoll_fd >= 0) ::close(epoll_fd);
#endif
    for (auto& [id, conn] : conns) {
      if (conn.fd >= 0) ::close(conn.fd);
    }
  }

  /// Binds one nonblocking listener — AF_UNIX at `unix_path` when set,
  /// else IPv4 on host:port — and returns {fd, bound IPv4 port}. A stale
  /// socket file at `unix_path` is replaced; any other file there is
  /// refused, so a mistyped path can never delete a user's file.
  std::pair<int, std::uint16_t> bind_listener(
      const std::string& host, std::uint16_t port,
      const std::string& unix_path = {}) {
    sockaddr_storage address{};
    socklen_t size = sizeof(sockaddr_in);
    auto& inet = reinterpret_cast<sockaddr_in&>(address);
    if (!unix_path.empty()) {
      auto& local = reinterpret_cast<sockaddr_un&>(address);
      local.sun_family = AF_UNIX;
      if (unix_path.size() >= sizeof(local.sun_path)) {
        throw std::runtime_error("serve: socket path too long: " + unix_path);
      }
      unix_path.copy(local.sun_path, unix_path.size());
      size = sizeof(sockaddr_un);
      struct stat existing {};
      if (::lstat(unix_path.c_str(), &existing) == 0) {
        if (!S_ISSOCK(existing.st_mode)) {
          throw std::runtime_error("serve: refusing to replace " +
                                   unix_path + ": not a socket file");
        }
        ::unlink(unix_path.c_str());
      }
    } else {
      inet.sin_family = AF_INET;
      inet.sin_port = htons(port);
      if (::inet_pton(AF_INET, host.c_str(), &inet.sin_addr) != 1) {
        throw std::runtime_error("serve_tcp: bad IPv4 host '" + host + "'");
      }
    }
    const int fd = ::socket(address.ss_family, SOCK_STREAM, 0);
    if (fd < 0) {
      throw std::runtime_error("serve: socket() failed");
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    auto* generic = reinterpret_cast<sockaddr*>(&address);
    if (::bind(fd, generic, size) != 0 || ::listen(fd, 128) != 0 ||
        ::getsockname(fd, generic, &size) != 0 ||
        (!unix_path.empty() &&
         ::lstat(unix_path.c_str(), &unix_socket_file) != 0)) {
      ::close(fd);
      throw std::runtime_error(
          "serve: cannot bind " +
          (unix_path.empty() ? host + ":" + std::to_string(port) : unix_path));
    }
    set_nonblocking(fd);
    return {fd, unix_path.empty() ? ntohs(inet.sin_port) : std::uint16_t{0}};
  }

  void unlink_own_socket_file() {
    struct stat current {};
    if (!options.unix_path.empty() &&
        ::lstat(options.unix_path.c_str(), &current) == 0 &&
        current.st_dev == unix_socket_file.st_dev &&
        current.st_ino == unix_socket_file.st_ino) {
      ::unlink(options.unix_path.c_str());
    }
  }

  /// Returns {request port, metrics port} (0 = no such IPv4 listener).
  std::pair<std::uint16_t, std::uint16_t> bind_and_listen() {
    std::uint16_t bound_port = 0;
    if (!options.unix_path.empty() || !options.host.empty()) {
      std::tie(listener, bound_port) =
          bind_listener(options.host, options.port, options.unix_path);
    }
    std::uint16_t bound_metrics_port = 0;
    if (options.metrics_enabled) {
      std::tie(metrics_listener, bound_metrics_port) =
          bind_listener(options.metrics_host, options.metrics_port);
    }

#ifdef __linux__
    wake_read = wake_write = ::eventfd(0, EFD_NONBLOCK);
    if (wake_read < 0) {
      throw std::runtime_error("serve_tcp: eventfd() failed");
    }
    epoll_fd = ::epoll_create1(0);
    if (epoll_fd < 0) {
      throw std::runtime_error("serve_tcp: epoll_create1() failed");
    }
    if (listener >= 0) {
      epoll_add(listener, kListenerId, /*read=*/true, /*write=*/false);
    }
    if (metrics_listener >= 0) {
      epoll_add(metrics_listener, kMetricsListenerId, /*read=*/true,
                /*write=*/false);
    }
    epoll_add(wake_read, kWakeId, /*read=*/true, /*write=*/false);
#else
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      throw std::runtime_error("serve_tcp: pipe() failed");
    }
    wake_read = pipe_fds[0];
    wake_write = pipe_fds[1];
    set_nonblocking(wake_read);
    set_nonblocking(wake_write);
#endif
    return {bound_port, bound_metrics_port};
  }

  // -------------------------------------------------------------------
  // Readiness plumbing (epoll on Linux, poll(2) elsewhere)
  // -------------------------------------------------------------------

#ifdef __linux__
  void epoll_add(int fd, std::uint64_t id, bool read, bool write) {
    epoll_event event{};
    event.events = (read ? EPOLLIN : 0u) | (write ? EPOLLOUT : 0u);
    event.data.u64 = id;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event);
  }

  void epoll_mod(int fd, std::uint64_t id, bool read, bool write) {
    epoll_event event{};
    event.events = (read ? EPOLLIN : 0u) | (write ? EPOLLOUT : 0u);
    event.data.u64 = id;
    ::epoll_ctl(epoll_fd, EPOLL_CTL_MOD, fd, &event);
  }
#endif

  void set_interest(std::uint64_t id, Connection& conn, bool read,
                    bool write) {
    if (conn.want_read == read && conn.want_write == write) {
      return;
    }
    conn.want_read = read;
    conn.want_write = write;
#ifdef __linux__
    epoll_mod(conn.fd, id, read, write);
#else
    (void)id;  // poll(2) path rebuilds its fd set each iteration.
#endif
  }

  struct Event {
    std::uint64_t id;
    bool readable;
    bool writable;
  };

  std::vector<Event> wait_events(int timeout_ms) {
    std::vector<Event> out;
#ifdef __linux__
    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd, events, 64, timeout_ms);
    out.reserve(n > 0 ? static_cast<std::size_t>(n) : 0);
    for (int i = 0; i < n; ++i) {
      const bool readable =
          (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0;
      const bool writable = (events[i].events & EPOLLOUT) != 0;
      out.push_back({events[i].data.u64, readable, writable});
    }
#else
    std::vector<pollfd> fds;
    std::vector<std::uint64_t> ids;
    if (listener >= 0) {
      fds.push_back({listener, POLLIN, 0});
      ids.push_back(kListenerId);
    }
    if (metrics_listener >= 0) {
      fds.push_back({metrics_listener, POLLIN, 0});
      ids.push_back(kMetricsListenerId);
    }
    fds.push_back({wake_read, POLLIN, 0});
    ids.push_back(kWakeId);
    for (auto& [id, conn] : conns) {
      short events = 0;
      if (conn.want_read) events |= POLLIN;
      if (conn.want_write) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      ids.push_back(id);
    }
    const int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n > 0) {
      for (std::size_t i = 0; i < fds.size(); ++i) {
        const bool readable =
            (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0;
        const bool writable = (fds[i].revents & POLLOUT) != 0;
        if (readable || writable) {
          out.push_back({ids[i], readable, writable});
        }
      }
    }
#endif
    return out;
  }

  void wake() {
    const std::uint64_t one = 1;
    // Best effort: a full pipe/eventfd already guarantees a wakeup.
    [[maybe_unused]] const auto n =
        ::write(wake_write, &one, sizeof(one));
  }

  void drain_wake_fd() {
    char buf[64];
    while (::read(wake_read, buf, sizeof(buf)) > 0) {
    }
  }

  bool is_stopping() {
    std::lock_guard<std::mutex> lock(task_mutex);
    return stopping;
  }

  // -------------------------------------------------------------------
  // Workers
  // -------------------------------------------------------------------

  void worker_loop() {
    for (;;) {
      Task task;
      {
        std::unique_lock<std::mutex> lock(task_mutex);
        task_cv.wait(lock, [&] { return !tasks.empty() || stopping; });
        if (tasks.empty()) {
          return;  // stopping && drained — graceful exit.
        }
        task = std::move(tasks.front());
        tasks.pop_front();
      }
      // Snapshot once per request: the request computes wholly against
      // one store generation even if a reload swaps mid-compute.
      const auto service = snapshot();
      // Server-imposed deadline, anchored at arrival. The service layer
      // may tighten it further from a v2 `deadline_ms` request field.
      const auto deadline =
          options.request_timeout.count() > 0
              ? task.arrival + options.request_timeout
              : std::chrono::steady_clock::time_point{};
      std::string response;
      // The `serve.compute` chaos site: a delay action holds the worker
      // (exercising deadlines and drain), a fail action simulates a
      // handler crash — answered as a well-formed v2 internal error
      // line, so even injected faults never corrupt the wire.
      if (util::fault::hit("serve.compute").fail) {
        Envelope envelope;
        envelope.version = 2;
        response = render_error(envelope, error_code::kInternal,
                                "injected fault at serve.compute");
      } else {
        response = service->handle_request(task.line, deadline);
      }
      {
        std::lock_guard<std::mutex> lock(done_mutex);
        done.push_back({task.conn_id, task.seq, std::move(response)});
      }
      wake();
    }
  }

  // -------------------------------------------------------------------
  // Event-loop helpers
  // -------------------------------------------------------------------

  /// Accepts every pending connection on the request listener, or on
  /// the metrics listener when `metrics`.
  void accept_ready(bool metrics) {
    for (;;) {
      const int fd = ::accept(metrics ? metrics_listener : listener,
                              nullptr, nullptr);
      if (fd < 0) {
        return;  // EAGAIN (or transient error): back to the loop.
      }
      // The `serve.accept` chaos site: a fail action drops the freshly
      // accepted connection, simulating fd exhaustion / transient accept
      // errors. (Delays are applied too, but keep them short — this is
      // the event-loop thread.)
      if (!metrics && util::fault::hit("serve.accept").fail) {
        ::close(fd);
        continue;
      }
      if (conns.size() >= options.max_connections) {
        // Over the admission cap: tell the client *why* before closing
        // — a silent RST is indistinguishable from a network fault.
        stats->rejected_overloaded.fetch_add(1);
        count_connection_event("serve.conn.reject.count");
        const std::string reply =
            metrics ? "HTTP/1.0 503 Service Unavailable\r\n"
                      "Content-Length: 0\r\nConnection: close\r\n\r\n"
                    : control_error_line(
                          error_code::kOverloaded,
                          "connection limit reached (" +
                              std::to_string(options.max_connections) + ")");
        [[maybe_unused]] const auto n =
            ::send(fd, reply.data(), reply.size(), kSendFlags);
        ::close(fd);
        continue;
      }
      if (metrics || options.unix_path.empty()) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      add_connection(fd, metrics);
    }
  }

  void add_connection(int fd, bool metrics) {
    set_nonblocking(fd);
    stats->accepted.fetch_add(1);
    count_connection_event("serve.conn.accept.count");
    const std::uint64_t id = next_conn_id++;
    Connection conn;
    conn.fd = fd;
    conn.metrics = metrics;
    conn.last_activity = std::chrono::steady_clock::now();
#ifdef __linux__
    epoll_add(fd, id, /*read=*/true, /*write=*/false);
#endif
    conns.emplace(id, std::move(conn));
  }

  /// Reads the (ignored) HTTP request off a metrics connection, then
  /// preloads one Prometheus page into `conn.out` and half-closes —
  /// the ordinary flush + drained-EOF machinery writes and reaps it.
  /// The request bytes are not parsed: every path scrapes the same
  /// registry, so GET /metrics, GET /, and HEAD all get the page.
  void metrics_read_ready(Connection& conn) {
    char chunk[4096];
    for (;;) {
      const auto got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (got > 0) {
        conn.last_activity = std::chrono::steady_clock::now();
        conn.in.append(chunk, static_cast<std::size_t>(got));
        if (conn.in.size() > options.max_line_bytes) {
          conn.dead = true;  // Absurd "HTTP request": not a scraper.
          return;
        }
        continue;
      }
      if (got == 0) {
        conn.eof = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        break;
      }
      conn.dead = true;
      return;
    }
    // Respond only after the header terminator (or peer EOF): writing
    // before the request has fully arrived risks an RST tearing down
    // the response bytes still in flight.
    const bool have_request =
        conn.in.find("\r\n\r\n") != std::string::npos ||
        conn.in.find("\n\n") != std::string::npos;
    if ((have_request || conn.eof) && !conn.metrics_responded) {
      conn.metrics_responded = true;
      if (obs::enabled()) {
        static obs::Counter& scrapes =
            obs::Registry::instance().counter("serve.metrics.scrape.count");
        scrapes.add(1);
      }
      conn.out = obs::render_http_metrics_response();
      conn.eof = true;  // Write-and-close (HTTP/1.0, Connection: close).
    }
  }

  /// Input backpressure: a connection takes new request lines only
  /// while its pipeline is short and its unsent responses stay under
  /// half the output cap, so a slow reader stalls its own requests
  /// instead of being closed at `max_output_bytes`.
  bool has_capacity(const Connection& conn) const {
    return conn.inflight < options.max_inflight_per_connection &&
           conn.out.size() < options.max_output_bytes / 2;
  }

  /// Parses complete lines out of `conn.in` and queues them as compute
  /// tasks while the connection has capacity; the rest wait in `conn.in`
  /// for `update_connection_states`. Returns false when the connection
  /// violated the protocol (oversized line) and must die.
  bool queue_lines(std::uint64_t id, Connection& conn) {
    std::size_t start = 0;
    std::size_t queued = 0;
    while (has_capacity(conn)) {
      const auto newline = conn.in.find('\n', start);
      if (newline == std::string::npos) {
        break;
      }
      std::string line = conn.in.substr(start, newline - start);
      if (!line.empty() && line.back() == '\r') {
        line.pop_back();
      }
      start = newline + 1;
      if (line.empty()) {
        continue;
      }
      stats->requests.fetch_add(1);
      ++conn.inflight;
      {
        std::lock_guard<std::mutex> lock(task_mutex);
        tasks.push_back({id, conn.next_seq++, std::move(line),
                         std::chrono::steady_clock::now()});
      }
      ++queued;
    }
    conn.in.erase(0, start);
    // With capacity left every complete line was taken: `in` holds one
    // partial line.
    if (has_capacity(conn) && conn.in.size() > options.max_line_bytes) {
      std::fprintf(stderr,
                   "ftsp-serve: closing connection %llu: request line "
                   "exceeds %zu bytes\n",
                   static_cast<unsigned long long>(id),
                   options.max_line_bytes);
      return false;
    }
    if (queued == 1) {
      task_cv.notify_one();
    } else if (queued > 1) {
      task_cv.notify_all();
    }
    return true;
  }

  void read_ready(std::uint64_t id, Connection& conn) {
    char chunk[16384];
    while (has_capacity(conn)) {
      const auto got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (got > 0) {
        conn.last_activity = std::chrono::steady_clock::now();
        conn.in.append(chunk, static_cast<std::size_t>(got));
        if (!queue_lines(id, conn)) {
          conn.dead = true;
          return;
        }
        continue;
      }
      if (got == 0) {
        conn.eof = true;  // Half-close: finish what was submitted.
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return;  // Drained for now.
      }
      conn.dead = true;  // Hard error (ECONNRESET, ...): nothing left
      return;            // to drain to this peer.
    }
    // Out of capacity: the kernel buffers the rest until we resume.
  }

  /// Pushes `conn.out` into the kernel until it blocks. Returns false
  /// on a dead peer.
  bool flush(Connection& conn) {
    while (!conn.out.empty()) {
      const auto sent =
          ::send(conn.fd, conn.out.data(), conn.out.size(), kSendFlags);
      if (sent > 0) {
        conn.out.erase(0, static_cast<std::size_t>(sent));
        conn.last_activity = std::chrono::steady_clock::now();
        continue;
      }
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;  // Kernel buffer full; EPOLLOUT will resume us.
      }
      return false;  // Peer went away.
    }
    return true;
  }

  void apply_completions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lock(done_mutex);
      batch.swap(done);
    }
    for (auto& completion : batch) {
      const auto it = conns.find(completion.conn_id);
      if (it == conns.end()) {
        continue;  // Connection closed while computing; drop response.
      }
      Connection& conn = it->second;
      --conn.inflight;
      conn.ready.emplace(completion.seq, std::move(completion.response));
      // Append every response that is next in sequence — responses on
      // one connection always flush in request arrival order.
      for (auto ready_it = conn.ready.find(conn.next_flush);
           ready_it != conn.ready.end();
           ready_it = conn.ready.find(conn.next_flush)) {
        conn.out += ready_it->second;
        conn.out += '\n';
        conn.ready.erase(ready_it);
        ++conn.next_flush;
      }
    }
  }

  /// Recomputes per-connection readiness interest, resumes lines held
  /// back by backpressure, and enforces the output-overflow and
  /// drained-EOF close conditions.
  void update_connection_states(bool draining) {
    for (auto& [id, conn] : conns) {
      if (conn.dead) {
        continue;
      }
      if (!conn.out.empty() && !flush(conn)) {
        conn.dead = true;
        continue;
      }
      if (conn.out.size() > options.max_output_bytes) {
        std::fprintf(stderr,
                     "ftsp-serve: closing connection %llu: %zu response "
                     "bytes pending, client not reading (limit %zu)\n",
                     static_cast<unsigned long long>(id), conn.out.size(),
                     options.max_output_bytes);
        stats->closed_overflow.fetch_add(1);
        conn.dead = true;
        continue;
      }
      if (!draining && !conn.metrics && has_capacity(conn) &&
          conn.in.find('\n') != std::string::npos && !queue_lines(id, conn)) {
        conn.dead = true;
        continue;
      }
      if (conn.eof && conn.inflight == 0 && conn.ready.empty() &&
          conn.out.empty()) {
        conn.dead = true;  // Fully drained after peer half-close.
        continue;
      }
      const bool read = !draining && !conn.eof && has_capacity(conn);
      set_interest(id, conn, read, !conn.out.empty());
    }
  }

  void reap_dead() {
    std::uint64_t reaped = 0;
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->second.dead) {
        ::close(it->second.fd);
        it = conns.erase(it);
        ++reaped;
      } else {
        ++it;
      }
    }
    if (reaped > 0) {
      count_connection_event("serve.conn.reap.count", reaped);
    }
  }

  void close_idle() {
    if (options.idle_timeout.count() <= 0) {
      return;
    }
    const auto now = std::chrono::steady_clock::now();
    for (auto& [id, conn] : conns) {
      if (!conn.dead && conn.inflight == 0 && conn.ready.empty() &&
          conn.out.empty() && now - conn.last_activity > options.idle_timeout) {
        stats->closed_idle.fetch_add(1);
        conn.dead = true;
      }
    }
  }

  // -------------------------------------------------------------------
  // Event loop
  // -------------------------------------------------------------------

  void loop() {
    bool draining = false;
    for (;;) {
      const int timeout_ms = draining ? 20 : 200;
      for (const Event& event : wait_events(timeout_ms)) {
        if (event.id == kWakeId) {
          drain_wake_fd();
          continue;
        }
        if (event.id == kListenerId) {
          if (!draining) {
            accept_ready(/*metrics=*/false);
          }
          continue;
        }
        if (event.id == kMetricsListenerId) {
          if (!draining) {
            accept_ready(/*metrics=*/true);
          }
          continue;
        }
        const auto it = conns.find(event.id);
        if (it == conns.end()) {
          continue;  // Stale event for a just-closed connection.
        }
        if (event.readable && !it->second.dead && !draining) {
          if (it->second.metrics) {
            metrics_read_ready(it->second);
          } else {
            read_ready(event.id, it->second);
          }
        }
        // Writes are retried for every connection below.
      }

      apply_completions();
      close_idle();

      // Graceful drain: no new connections, no new request lines —
      // existing in-flight work runs to completion and flushes.
      draining = draining || is_stopping();
      update_connection_states(draining);
      reap_dead();

      if (draining) {
        bool drained = true;
        for (const auto& [id, conn] : conns) {
          if (conn.inflight != 0 || !conn.ready.empty() ||
              !conn.out.empty()) {
            drained = false;
            break;
          }
        }
        bool tasks_empty;
        {
          std::lock_guard<std::mutex> lock(task_mutex);
          tasks_empty = tasks.empty();
        }
        if (drained && tasks_empty) {
          for (auto& [id, conn] : conns) {
            conn.dead = true;
          }
          reap_dead();
          return;
        }
      }
    }
  }
};

TcpServer::TcpServer(ServiceSnapshotFn service, TcpServerOptions options)
    : impl_(std::make_unique<Impl>()) {
  if (!service) {
    throw std::runtime_error("serve_tcp: null service snapshot provider");
  }
  impl_->snapshot = std::move(service);
  impl_->options = options;
  impl_->stats = &stats_;
  std::tie(port_, metrics_port_) = impl_->bind_and_listen();
}

TcpServer::~TcpServer() { stop(); }

void TcpServer::adopt(int fd) {
  if (impl_->started) {
    ::close(fd);
    throw std::logic_error("serve_tcp: adopt() after start()");
  }
  impl_->add_connection(fd, /*metrics=*/false);
}

void TcpServer::start() {
  if (impl_->started) {
    return;
  }
  impl_->started = true;
  std::size_t threads = impl_->options.num_threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  impl_->workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
  impl_->loop_thread = std::thread([this] { impl_->loop(); });
}

void TcpServer::stop() {
  {
    std::lock_guard<std::mutex> lock(impl_->stop_mutex);
    if (impl_->stop_initiated) {
      return;  // Already stopped (or stopping on another thread).
    }
    impl_->stop_initiated = true;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->task_mutex);
    impl_->stopping = true;
  }
  impl_->task_cv.notify_all();
  impl_->wake();
  if (impl_->started) {
    impl_->loop_thread.join();
    for (auto& worker : impl_->workers) {
      worker.join();
    }
  } else {
    // Never served: close adopted connections so their peers see EOF.
    for (auto& [id, conn] : impl_->conns) {
      conn.dead = true;
    }
    impl_->reap_dead();
  }
  impl_->unlink_own_socket_file();
  {
    std::lock_guard<std::mutex> lock(impl_->stop_mutex);
    impl_->stopped = true;
  }
  impl_->stop_cv.notify_all();
}

void TcpServer::wait() {
  std::unique_lock<std::mutex> lock(impl_->stop_mutex);
  impl_->stop_cv.wait(lock, [&] { return impl_->stopped; });
}

namespace {

/// Writes all of `data` to `fd` (a socket when `socket`); false once
/// the other side is gone.
bool write_all(int fd, const char* data, std::size_t size, bool socket) {
  while (size > 0) {
    const auto n = socket ? ::send(fd, data, size, kSendFlags)
                          : ::write(fd, data, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

StdioBridge::StdioBridge(TcpServer& server, int in_fd, int out_fd)
    : server_(server) {
  int ends[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, ends) != 0) {
    throw std::runtime_error("serve_stdio: socketpair() failed");
  }
  socket_ = ends[0];
  try {
    server.adopt(ends[1]);
  } catch (...) {
    ::close(socket_);
    throw;
  }
  // in_fd -> server. poll() also watches the socket so the pump quits
  // when the server closes its end (stop() drained it) even while in_fd
  // is a terminal with nothing to read.
  input_ = std::thread([this, in_fd] {
    char chunk[16384];
    for (;;) {
      pollfd watch[2] = {{in_fd, POLLIN, 0}, {socket_, 0, 0}};
      if ((::poll(watch, 2, -1) < 0 && errno != EINTR) ||
          watch[1].revents != 0) {
        break;
      }
      if (watch[0].revents == 0) {
        continue;  // EINTR.
      }
      const auto got = ::read(in_fd, chunk, sizeof(chunk));
      if (got <= 0 ||
          !write_all(socket_, chunk, static_cast<std::size_t>(got), true)) {
        break;
      }
    }
    // Half-close: the server answers everything already sent, then
    // closes its end.
    ::shutdown(socket_, SHUT_WR);
  });
  // server -> out_fd, until the server closes its end. A failed write
  // (out_fd gone) shuts the socket both ways so the server drops the
  // connection instead of waiting on a reader that never comes.
  output_ = std::thread([this, out_fd] {
    char chunk[16384];
    for (;;) {
      const auto got = ::recv(socket_, chunk, sizeof(chunk), 0);
      if (got < 0 && errno == EINTR) {
        continue;
      }
      if (got <= 0) {
        break;
      }
      if (!write_all(out_fd, chunk, static_cast<std::size_t>(got), false)) {
        ::shutdown(socket_, SHUT_RDWR);
        break;
      }
    }
    server_.stop();
  });
}

StdioBridge::~StdioBridge() {
  server_.stop();  // Drains a running server; closes an unstarted one.
  input_.join();
  output_.join();
  ::close(socket_);
}

}  // namespace ftsp::serve

#else  // _WIN32

namespace ftsp::serve {

struct TcpServer::Impl {};

TcpServer::TcpServer(ServiceSnapshotFn, TcpServerOptions) {
  throw std::runtime_error("serve_tcp: not supported on this platform");
}
TcpServer::~TcpServer() = default;
void TcpServer::adopt(int) {}
void TcpServer::start() {}
void TcpServer::stop() {}
void TcpServer::wait() {}

StdioBridge::StdioBridge(TcpServer& server, int, int) : server_(server) {
  throw std::runtime_error("serve_stdio: not supported on this platform");
}
StdioBridge::~StdioBridge() = default;

}  // namespace ftsp::serve

#endif
