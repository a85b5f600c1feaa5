// The serving tier: the poll(2) event loop on its three transports (TCP,
// unix socket, stdin/stdout through StdioBridge), per-connection
// response ordering, admission control, backpressure, idle reaping, hot
// store reload, and coalesced/cached serving determinism.
#include "serve/tcp_server.hpp"

#include <gtest/gtest.h>

#ifndef _WIN32

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fstream>
#include <sstream>

#include "compile/artifact.hpp"
#include "compile/service.hpp"
#include "compile/store.hpp"
#include "obs/registry.hpp"
#include "qec/code_library.hpp"
#include "qec/coupling.hpp"
#include "serve/access_log.hpp"
#include "serve/cache.hpp"
#include "serve/reload.hpp"
#include "util/fault_inject.hpp"

namespace ftsp::serve {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("ftsp-serve-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  static int& counter() {
    static int n = 0;
    return n;
  }
};

void set_blocking(int fd, bool blocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, blocking ? flags & ~O_NONBLOCK : flags | O_NONBLOCK);
}

/// Blocking line-oriented TCP or unix-socket client for driving the
/// server under test.
class Client {
 public:
  explicit Client(const std::string& unix_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    unix_path.copy(address.sun_path, sizeof(address.sun_path) - 1);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                           sizeof(address)) == 0;
  }

  /// With `blocking` false the connect only starts (`connected()` means
  /// it is in progress); wait for POLLOUT on `fd()`, then make the socket
  /// blocking before sending.
  explicit Client(std::uint16_t port, bool blocking = true) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    set_blocking(fd_, blocking);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                           sizeof(address)) == 0 ||
                 (!blocking && errno == EINPROGRESS);
  }
  ~Client() { close(); }

  bool connected() const { return connected_; }
  int fd() const { return fd_; }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool send_line(const std::string& line) {
    std::string framed = line;
    framed += '\n';
    std::size_t written = 0;
    while (written < framed.size()) {
      const auto sent = ::send(fd_, framed.data() + written,
                               framed.size() - written, 0);
      if (sent <= 0) {
        return false;
      }
      written += static_cast<std::size_t>(sent);
    }
    return true;
  }

  /// Reads one newline-terminated response. Empty string = EOF/error.
  std::string read_line() {
    for (;;) {
      const auto newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const auto got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got <= 0) {
        return "";
      }
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

  /// True when the peer has closed (next read yields EOF).
  bool at_eof() {
    char byte;
    const auto got = ::recv(fd_, &byte, 1, 0);
    if (got > 0) {
      buffer_.push_back(byte);
      return false;
    }
    return got == 0;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

class ServeTcpTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const compile::ProtocolCompiler compiler;
    artifact_ = new compile::ProtocolArtifact(compiler.compile(qec::steane()));
  }
  static void TearDownTestSuite() {
    delete artifact_;
    artifact_ = nullptr;
  }

  static std::shared_ptr<const compile::ProtocolService> make_service(
      std::shared_ptr<PayloadCache> cache = nullptr) {
    auto service = std::make_shared<compile::ProtocolService>();
    service->add(*artifact_);
    if (cache) {
      service->set_payload_cache(std::move(cache));
    }
    return service;
  }

  /// A second artifact with a distinct serving name ("Steane@linear")
  /// and a distinct store key, WITHOUT re-running synthesis: same
  /// protocol and tables, retargeted coupling metadata.
  static compile::ProtocolArtifact linear_variant() {
    compile::ProtocolArtifact variant = *artifact_;
    variant.coupling = std::make_shared<const qec::CouplingMap>(
        qec::CouplingMap::linear(variant.protocol.code->num_qubits()));
    variant.key += ":linear-variant";
    return variant;
  }

  static compile::ProtocolArtifact* artifact_;
};

compile::ProtocolArtifact* ServeTcpTest::artifact_ = nullptr;

constexpr const char* kSampleRequest =
    R"({"op":"sample","code":"Steane","p":0.02,"shots":512,"seed":9})";

/// Current value of a process-wide registry counter. Other tests in this
/// binary bump the same series, so count checks assert deltas.
std::uint64_t counter_value(const char* name) {
  return obs::Registry::instance().counter(name).value();
}

TEST_F(ServeTcpTest, ConcurrentClientsGetOrderedResponses) {
  const auto service = make_service();
  TcpServerOptions options;
  options.num_threads = 4;
  TcpServer server([&] { return service; }, options);
  server.start();
  const std::uint64_t requests_before = counter_value("serve.request.count");

  constexpr int kClients = 4;
  constexpr int kRequests = 8;
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      // Pipeline every request up front — responses must still come
      // back in request order.
      for (int i = 0; i < kRequests; ++i) {
        const std::string id = std::to_string(c * 100 + i);
        client.send_line(R"({"id":)" + id +
                         R"(,"op":"sample","code":"Steane","p":0.02,)" +
                         R"("shots":256,"seed":)" + id + "}");
      }
      for (int i = 0; i < kRequests; ++i) {
        const std::string line = client.read_line();
        const std::string prefix =
            "{\"id\":" + std::to_string(c * 100 + i) + ",\"ok\":true";
        if (line.rfind(prefix, 0) != 0) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : clients) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(counter_value("serve.request.count") - requests_before,
            static_cast<std::uint64_t>(kClients * kRequests));
  server.stop();
}

TEST_F(ServeTcpTest, StdioBridgeAnswersPipedRequestsInOrder) {
  const auto service = make_service();
  TcpServerOptions options;
  options.host.clear();  // No listener: the bridge is the only client.
  options.num_threads = 8;
  TcpServer server([&] { return service; }, options);
  EXPECT_EQ(server.port(), 0u);

  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  constexpr int kRequests = 24;
  std::string requests;
  for (int i = 0; i < kRequests; ++i) {
    requests += R"({"id":)" + std::to_string(i) +
                R"(,"op":"sample","code":"Steane","p":0.02,"shots":512,)" +
                R"("seed":)" + std::to_string(i) + "}\n";
  }
  ASSERT_EQ(::write(in_pipe[1], requests.data(), requests.size()),
            static_cast<ssize_t>(requests.size()));
  ::close(in_pipe[1]);  // EOF after the batch, like `serve < file`.

  std::string output;
  std::thread reader([&] {
    char chunk[4096];
    for (ssize_t got; (got = ::read(out_pipe[0], chunk, sizeof(chunk))) > 0;) {
      output.append(chunk, static_cast<std::size_t>(got));
    }
  });
  const std::uint64_t requests_before = counter_value("serve.request.count");
  {
    StdioBridge bridge(server, in_pipe[0], out_pipe[1]);
    server.start();
    server.wait();  // Returns once every answer is out: the bridge stops.
  }
  ::close(out_pipe[1]);
  reader.join();
  ::close(in_pipe[0]);
  ::close(out_pipe[0]);

  std::istringstream lines(output);
  std::string line;
  int expected = 0;
  while (std::getline(lines, line)) {
    const std::string prefix =
        "{\"id\":" + std::to_string(expected) + ",\"ok\":true";
    EXPECT_EQ(line.rfind(prefix, 0), 0u)
        << "line " << expected << " out of order: " << line;
    ++expected;
  }
  EXPECT_EQ(expected, kRequests);
  EXPECT_EQ(counter_value("serve.request.count") - requests_before,
            static_cast<std::uint64_t>(kRequests));
}

TEST_F(ServeTcpTest, UnixListenerSurvivesEarlyDisconnectAndAnswers) {
  TempDir dir;
  const std::string path = (dir.path / "s.sock").string();
  {
    // A stale socket file from a crashed server is replaced.
    const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    path.copy(address.sun_path, sizeof(address.sun_path) - 1);
    ASSERT_EQ(::bind(stale, reinterpret_cast<const sockaddr*>(&address),
                     sizeof(address)),
              0);
    ::close(stale);
  }
  const auto service = make_service();
  TcpServerOptions options;
  options.unix_path = path;
  options.num_threads = 2;
  TcpServer server([&] { return service; }, options);
  EXPECT_EQ(server.port(), 0u);
  server.start();

  // Connection 1: send a request and hang up WITHOUT reading the
  // response. The server's write hits a closed peer — it must shrug
  // (EPIPE), not die of SIGPIPE taking every connection with it.
  {
    Client rude(path);
    ASSERT_TRUE(rude.connected());
    ASSERT_TRUE(rude.send_line(
        R"({"op":"sample","code":"Steane","p":0.02,"shots":2048})"));
  }

  // Connection 2: the server must still be alive and correct.
  Client client(path);
  ASSERT_TRUE(client.connected()) << "server died after the rude client";
  ASSERT_TRUE(client.send_line(R"({"op":"info","code":"Steane"})"));
  const std::string response = client.read_line();
  EXPECT_NE(response.find(R"("ok":true)"), std::string::npos) << response;
  EXPECT_NE(response.find(R"("n":7)"), std::string::npos) << response;
  client.close();
  server.stop();
  EXPECT_FALSE(fs::exists(path)) << "socket file left behind after stop()";
}

TEST_F(ServeTcpTest, UnixListenerRefusesToReplaceARegularFile) {
  TempDir dir;
  const fs::path path = dir.path / "notes.txt";
  {
    std::ofstream notes(path);
    notes << "not a socket\n";
  }
  const auto service = make_service();
  TcpServerOptions options;
  options.unix_path = path.string();
  EXPECT_THROW(TcpServer([&] { return service; }, options),
               std::runtime_error);
  std::ifstream notes(path);
  std::string content;
  ASSERT_TRUE(std::getline(notes, content)) << "regular file was deleted";
  EXPECT_EQ(content, "not a socket");
}

TEST_F(ServeTcpTest, SlowReaderGetsEveryReplyInsteadOfAnOverflowClose) {
  // The replies total ~3 MB, far beyond max_output_bytes plus the
  // kernel's unix-socket buffers. Reading must pause while replies pile
  // up, so the slow client still gets all of them, in order.
  TempDir dir;
  const std::string path = (dir.path / "s.sock").string();
  const auto service = make_service();
  TcpServerOptions options;
  options.unix_path = path;
  options.num_threads = 2;
  options.max_output_bytes = 64u << 10;
  options.max_inflight_per_connection = 8;
  TcpServer server([&] { return service; }, options);
  server.start();

  Client client(path);
  ASSERT_TRUE(client.connected());
  constexpr int kRequests = 4000;
  std::thread writer([&] {
    for (int i = 0; i < kRequests; ++i) {
      if (!client.send_line(R"({"id":)" + std::to_string(i) +
                            R"(,"op":"circuit","code":"Steane",)"
                            R"("format":"qasm"})")) {
        return;
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  int answered = 0;
  for (; answered < kRequests; ++answered) {
    const std::string line = client.read_line();
    const std::string prefix =
        "{\"id\":" + std::to_string(answered) + ",\"ok\":true";
    if (line.rfind(prefix, 0) != 0) {
      ADD_FAILURE() << "reply " << answered << ": " << line.substr(0, 80);
      break;
    }
  }
  EXPECT_EQ(answered, kRequests);
  client.close();  // Unblocks the writer if the server closed on us.
  writer.join();
  server.stop();
}

TEST_F(ServeTcpTest, StalledRequestKeepsLaterRepliesWithinTheInflightCap) {
  // The first request stalls 300 ms on one worker while the other
  // answers the rest. Replies held back for response order must count
  // against max_inflight_per_connection; otherwise they pile up, land
  // in the output buffer at once when the stall ends, and overflow it.
  util::fault::set_plan("serve.compute:delay=300ms@1");
  TempDir dir;
  const std::string path = (dir.path / "s.sock").string();
  const auto service = make_service();
  TcpServerOptions options;
  options.unix_path = path;
  options.num_threads = 2;
  options.max_output_bytes = 64u << 10;
  options.max_inflight_per_connection = 8;
  TcpServer server([&] { return service; }, options);
  server.start();

  Client client(path);
  ASSERT_TRUE(client.connected());
  constexpr int kRequests = 2000;
  std::thread writer([&] {
    for (int i = 0; i < kRequests; ++i) {
      if (!client.send_line(R"({"id":)" + std::to_string(i) +
                            R"(,"op":"circuit","code":"Steane",)"
                            R"("format":"qasm"})")) {
        return;
      }
    }
  });
  int answered = 0;
  for (; answered < kRequests; ++answered) {
    const std::string line = client.read_line();
    const std::string prefix =
        "{\"id\":" + std::to_string(answered) + ",\"ok\":true";
    if (line.rfind(prefix, 0) != 0) {
      ADD_FAILURE() << "reply " << answered << ": " << line.substr(0, 80);
      break;
    }
  }
  EXPECT_EQ(answered, kRequests);
  client.close();  // Unblocks the writer if the server closed on us.
  writer.join();
  util::fault::clear_plan();
  server.stop();
}

TEST_F(ServeTcpTest, OverLimitConnectionIsRejectedWithCode) {
  const auto service = make_service();
  TcpServerOptions options;
  options.max_connections = 1;
  options.num_threads = 1;
  TcpServer server([&] { return service; }, options);
  server.start();
  const std::uint64_t rejects_before =
      counter_value("serve.conn.reject.count");

  Client first(server.port());
  ASSERT_TRUE(first.connected());
  // Round-trip once so the server has definitely admitted this
  // connection before the second one arrives.
  ASSERT_TRUE(first.send_line(R"({"v":2,"op":"health"})"));
  EXPECT_NE(first.read_line().find(R"("status":"serving")"),
            std::string::npos);

  Client second(server.port());
  ASSERT_TRUE(second.connected());
  const std::string rejection = second.read_line();
  EXPECT_NE(rejection.find(R"("code":"overloaded")"), std::string::npos)
      << rejection;
  EXPECT_TRUE(second.at_eof()) << "rejected connection was left open";

  // The admitted connection keeps working.
  ASSERT_TRUE(first.send_line(R"({"op":"codes"})"));
  EXPECT_NE(first.read_line().find(R"("ok":true)"), std::string::npos);
  EXPECT_EQ(counter_value("serve.conn.reject.count") - rejects_before, 1u);
  server.stop();
}

// A connect burst of exactly `max_connections` clients: every handshake
// completes in the listen backlog before the loop accepts any, every
// connection is served once the loop runs, and only the next one is
// refused.
TEST_F(ServeTcpTest, FullHouseBurstIsAcceptedServedAndTheNextRefused) {
  TcpServerOptions options;  // The default admission cap.
  options.num_threads = 2;
  const std::size_t house = options.max_connections;
  int somaxconn = 0;
  std::ifstream("/proc/sys/net/core/somaxconn") >> somaxconn;
  if (somaxconn < static_cast<int>(house)) {
    GTEST_SKIP() << "somaxconn " << somaxconn << " cannot queue " << house
                 << " handshakes";
  }
  const auto service = make_service();
  TcpServer server([&] { return service; }, options);
  const std::uint64_t accepts_before =
      counter_value("serve.conn.accept.count");
  const std::uint64_t rejects_before =
      counter_value("serve.conn.reject.count");

  // The loop is not running yet, so only the backlog holds the burst.
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<pollfd> handshakes;
  for (std::size_t c = 0; c < house; ++c) {
    clients.push_back(std::make_unique<Client>(server.port(), false));
    ASSERT_TRUE(clients.back()->connected()) << "client " << c;
    handshakes.push_back({clients.back()->fd(), POLLOUT, 0});
  }
  // A SYN the full backlog dropped is retried only after ~1 s.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(500);
  std::size_t completed = 0;
  while (completed < house) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0 || ::poll(handshakes.data(), handshakes.size(),
                            static_cast<int>(left)) <= 0) {
      break;
    }
    for (auto& watch : handshakes) {
      if (watch.fd >= 0 && watch.revents != 0) {
        int error = 0;
        socklen_t size = sizeof(error);
        ::getsockopt(watch.fd, SOL_SOCKET, SO_ERROR, &error, &size);
        EXPECT_EQ(error, 0) << std::strerror(error);
        watch.fd = -1;  // poll(2) skips negative fds.
        ++completed;
      }
    }
  }
  ASSERT_EQ(completed, house) << "handshakes completed within 500 ms";

  server.start();
  for (auto& client : clients) {
    set_blocking(client->fd(), true);
    ASSERT_TRUE(client->send_line(R"({"op":"health"})"));
  }
  for (auto& client : clients) {
    const std::string reply = client->read_line();
    EXPECT_NE(reply.find(R"("status":"serving")"), std::string::npos)
        << reply;
  }

  Client next(server.port());
  ASSERT_TRUE(next.connected());
  const std::string rejection = next.read_line();
  EXPECT_EQ(rejection.rfind(R"({"v":2,)", 0), 0u) << rejection;
  EXPECT_NE(rejection.find(R"("code":"overloaded")"), std::string::npos)
      << rejection;
  EXPECT_TRUE(next.at_eof()) << "more than one line for a refused client";

  EXPECT_EQ(counter_value("serve.conn.accept.count") - accepts_before, house);
  EXPECT_EQ(counter_value("serve.conn.reject.count") - rejects_before, 1u);
  server.stop();
}

TEST_F(ServeTcpTest, IdleConnectionIsReaped) {
  const auto service = make_service();
  TcpServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(150);
  options.num_threads = 1;
  TcpServer server([&] { return service; }, options);
  server.start();

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(R"({"op":"codes"})"));
  EXPECT_NE(client.read_line().find(R"("ok":true)"), std::string::npos);
  // Now go quiet: the server must close us, not leak the slot forever.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool closed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (client.at_eof()) {
      closed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(closed) << "idle connection never reaped";
  server.stop();
}

TEST_F(ServeTcpTest, HotReloadSwapsUnderOpenConnectionWithoutDrops) {
  TempDir store_dir;
  {
    compile::ArtifactStore store(store_dir.path.string());
    store.put(*artifact_);
  }
  ReloadableService::Options reload_options;
  reload_options.poll_interval = std::chrono::milliseconds(50);
  ReloadableService reloadable(store_dir.path.string(), reload_options);
  reloadable.start_watcher();

  TcpServerOptions options;
  options.num_threads = 2;
  TcpServer server([&] { return reloadable.service(); }, options);
  server.start();

  Client client(server.port());
  ASSERT_TRUE(client.connected());

  // Continuous in-flight traffic on ONE connection across the swap:
  // every response must be ok:true and the connection must survive.
  std::atomic<bool> swap_done{false};
  std::atomic<int> sent{0};
  std::thread writer([&] {
    int i = 0;
    while (!swap_done.load()) {
      client.send_line(kSampleRequest);
      ++i;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    sent.store(i);
  });

  // Grow the store while requests are streaming; the watcher must pick
  // the new index up and swap without disturbing the connection.
  {
    compile::ArtifactStore store(store_dir.path.string());
    store.put(linear_variant());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (reloadable.generation() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(reloadable.generation(), 2u) << "watcher never swapped";
  swap_done.store(true);
  writer.join();

  int ok = 0;
  for (int i = 0; i < sent.load(); ++i) {
    const std::string line = client.read_line();
    ASSERT_FALSE(line.empty()) << "connection dropped mid-swap at " << i;
    EXPECT_NE(line.find(R"("ok":true)"), std::string::npos) << line;
    ++ok;
  }
  EXPECT_EQ(ok, sent.load()) << "in-flight requests failed across the swap";

  // The same (still-open) connection now sees the new artifact.
  ASSERT_TRUE(client.send_line(R"({"op":"codes"})"));
  const std::string codes = client.read_line();
  EXPECT_NE(codes.find("Steane@linear"), std::string::npos) << codes;

  // The reload op (second trigger path) bumps the generation again.
  ASSERT_TRUE(client.send_line(R"({"v":2,"op":"reload"})"));
  const std::string reloaded = client.read_line();
  EXPECT_NE(reloaded.find(R"("reloaded":true)"), std::string::npos)
      << reloaded;
  server.stop();
}

TEST_F(ServeTcpTest, CoalescedAndUncoalescedServingAreBitIdentical) {
  // Reference bytes: no cache, no coalescing.
  const auto plain = make_service();
  const std::string reference = plain->handle_request(kSampleRequest);
  ASSERT_NE(reference.find(R"("ok":true)"), std::string::npos);

  const auto cache = std::make_shared<PayloadCache>(4u << 20);
  const auto cached_service = make_service(cache);
  TcpServerOptions options;
  options.num_threads = 4;
  TcpServer server([&] { return cached_service; }, options);
  server.start();

  // Many concurrent requests from `lines`, sent in turn: whether a given
  // one computed, coalesced onto another's compute, or (rate, circuit)
  // hit the LRU, the bytes must equal the uncached reference exactly.
  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  const auto mismatches_of = [&](const std::vector<std::string>& lines) {
    std::vector<std::string> expected;
    for (const std::string& line : lines) {
      expected.push_back(plain->handle_request(line));
    }
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        Client client(server.port());
        if (!client.connected()) {
          ++mismatches;
          return;
        }
        for (int i = 0; i < kPerClient; ++i) {
          client.send_line(lines[i % lines.size()]);
        }
        for (int i = 0; i < kPerClient; ++i) {
          if (client.read_line() != expected[i % lines.size()]) {
            ++mismatches;
          }
        }
      });
    }
    for (auto& thread : clients) {
      thread.join();
    }
    return mismatches.load();
  };
  EXPECT_EQ(mismatches_of({kSampleRequest}), 0);
  // qasm circuit replies in both dialects share one memoized payload.
  const std::string circuit_request =
      R"({"op":"circuit","code":"Steane","format":"qasm"})";
  ASSERT_NE(plain->handle_request(circuit_request).find(R"("ok":true)"),
            std::string::npos);
  EXPECT_EQ(mismatches_of({circuit_request,
                           R"({"v":2,"id":5,"op":"circuit","code":"Steane",)"
                           R"("format":"qasm"})"}),
            0);

  // Repeated rate requests memoize: the second identical query must be
  // served from the LRU, byte-identical to the first.
  // Hits are counted from here: the circuit pass above hits the LRU too.
  const auto before = cache->stats();
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  const std::string rate_request =
      R"({"op":"rate","code":"Steane","p":0.01,"shots":2048,"seed":3})";
  ASSERT_TRUE(client.send_line(rate_request));
  const std::string first = client.read_line();
  ASSERT_TRUE(client.send_line(rate_request));
  const std::string second = client.read_line();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, plain->handle_request(rate_request))
      << "cached rate bytes diverge from uncached serving";
  EXPECT_EQ(cache->stats().hits, before.hits + 1)
      << "repeated rate query never hit the cache";
  server.stop();
}

// Regression: health used to read the *live* runtime generation, so a
// request racing a hot reload could see codes from the old snapshot but
// the generation of the new one. Both now come from the same immutable
// service snapshot.
TEST_F(ServeTcpTest, HealthGenerationAgreesWithSnapshotAcrossReload) {
  TempDir store_dir;
  {
    compile::ArtifactStore store(store_dir.path.string());
    store.put(*artifact_);
  }
  ReloadableService reloadable(store_dir.path.string(), {});

  // Hold the pre-reload snapshot open, exactly like an in-flight
  // request would across a swap.
  const auto old_snapshot = reloadable.service();
  {
    compile::ArtifactStore store(store_dir.path.string());
    store.put(linear_variant());
  }
  EXPECT_EQ(reloadable.force_reload(), 2u);

  const auto old_health =
      old_snapshot->handle_request(R"({"v":2,"op":"health"})");
  EXPECT_NE(old_health.find(R"("codes":1)"), std::string::npos) << old_health;
  EXPECT_NE(old_health.find(R"("generation":1)"), std::string::npos)
      << "old snapshot must keep reporting the generation it serves: "
      << old_health;

  const auto new_health =
      reloadable.service()->handle_request(R"({"v":2,"op":"health"})");
  EXPECT_NE(new_health.find(R"("codes":2)"), std::string::npos) << new_health;
  EXPECT_NE(new_health.find(R"("generation":2)"), std::string::npos)
      << new_health;

  // stats stays cumulative (live runtime counter) by design.
  const auto stats = old_snapshot->handle_request(R"({"v":2,"op":"stats"})");
  EXPECT_NE(stats.find(R"("generation":2)"), std::string::npos) << stats;
}

TEST_F(ServeTcpTest, GenerationGaugeIsSetFromConstruction) {
  // A server that never reloads still exports the generation that
  // `health` and `stats` report.
  obs::Registry::instance().reset_for_tests();
  const obs::Gauge& generation =
      obs::Registry::instance().gauge("serve.reload.generation");
  TempDir store_dir;
  {
    compile::ArtifactStore store(store_dir.path.string());
    store.put(*artifact_);
  }
  ReloadableService reloadable(store_dir.path.string(), {});
  EXPECT_EQ(generation.value(), 1);
  EXPECT_EQ(reloadable.force_reload(), 2u);
  EXPECT_EQ(generation.value(), 2);
}

// `ftsp_cli serve` builds its service from default options, so the
// defaults must store payloads: a repeated circuit request is answered
// from one cache entry.
TEST_F(ServeTcpTest, DefaultOptionsCacheRepeatedCircuitReplies) {
  TempDir store_dir;
  {
    compile::ArtifactStore store(store_dir.path.string());
    store.put(*artifact_);
  }
  ReloadableService reloadable(store_dir.path.string(), {});
  const auto service = reloadable.service();
  const std::string request =
      R"({"op":"circuit","code":"Steane","format":"qasm"})";
  const std::string first = service->handle_request(request);
  ASSERT_NE(first.find(R"("ok":true)"), std::string::npos) << first;
  EXPECT_EQ(service->handle_request(request), first);
  const PayloadCache::Stats stats = reloadable.cache()->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

/// One HTTP GET against the metrics sidecar, reading to EOF (the
/// sidecar answers every request with one rendering and closes).
std::string http_get_metrics(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char chunk[4096];
  for (;;) {
    const auto got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got <= 0) {
      break;
    }
    response.append(chunk, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return response;
}

TEST_F(ServeTcpTest, MetricsSidecarServesPrometheusText) {
  obs::set_enabled(true);
  const auto service = make_service();
  TcpServerOptions options;
  options.num_threads = 1;
  options.metrics_enabled = true;
  TcpServer server([&] { return service; }, options);
  server.start();
  ASSERT_NE(server.metrics_port(), 0u);
  ASSERT_NE(server.metrics_port(), server.port());

  // Serve one JSON request first so serve.request.count exists and is
  // nonzero in the scrape.
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(R"({"v":2,"op":"health"})"));
  ASSERT_NE(client.read_line().find(R"("status":"serving")"),
            std::string::npos);

  const std::string response = http_get_metrics(server.metrics_port());
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(response.find("# TYPE serve_request_count counter"),
            std::string::npos);
  EXPECT_NE(response.find("serve_metrics_scrape_count"), std::string::npos);
  // The JSON line protocol on the main port is untouched by the
  // sidecar: the same connection still answers.
  ASSERT_TRUE(client.send_line(R"({"op":"codes"})"));
  EXPECT_NE(client.read_line().find(R"("ok":true)"), std::string::npos);

  // A second scrape works (one connection per scrape, like Prometheus).
  EXPECT_NE(http_get_metrics(server.metrics_port())
                .find("serve_metrics_scrape_count"),
            std::string::npos);
  server.stop();
  obs::clear_enabled_override();
}

TEST_F(ServeTcpTest, AccessLogWritesOneJsonLinePerRequest) {
  TempDir store_dir;
  {
    compile::ArtifactStore store(store_dir.path.string());
    store.put(*artifact_);
  }
  const std::string log_path = (store_dir.path / "access.jsonl").string();
  ReloadableService::Options reload_options;
  reload_options.access_log = log_path;
  ReloadableService reloadable(store_dir.path.string(), reload_options);
  ASSERT_NE(reloadable.access_log(), nullptr);

  const auto service = reloadable.service();
  service->handle_request(R"({"v":2,"op":"health"})");
  service->handle_request(R"({"op":"codes"})");
  service->handle_request(R"({"v":2,"op":"nope"})");
  reloadable.access_log()->flush();
  EXPECT_EQ(reloadable.access_log()->lines_written(), 3u);

  std::ifstream in(log_path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find(R"("op":"health")"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find(R"("v":2)"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find(R"("status":"ok")"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find(R"("op":"codes")"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find(R"("v":1)"), std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find(R"("status":"unknown_op")"), std::string::npos)
      << lines[2];
  for (const auto& l : lines) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
    EXPECT_NE(l.find(R"("ts_us":)"), std::string::npos) << l;
    EXPECT_NE(l.find(R"("latency_us":)"), std::string::npos) << l;
  }

  // Rotation by rename: move the file aside; the next batch creates a
  // fresh file at the original path.
  const std::string rotated = log_path + ".1";
  fs::rename(log_path, rotated);
  service->handle_request(R"({"v":2,"op":"health"})");
  reloadable.access_log()->flush();
  std::ifstream fresh(log_path);
  ASSERT_TRUE(fresh.good()) << "no new file after rotation";
  std::string fresh_line;
  ASSERT_TRUE(std::getline(fresh, fresh_line));
  EXPECT_NE(fresh_line.find(R"("op":"health")"), std::string::npos);
}

TEST_F(ServeTcpTest, RequestTimeoutAnswersDeadlineExceededAndFreesWorker) {
  // The injected 300ms pre-compute delay on the FIRST request only
  // outlasts the 50ms per-request deadline (measured from arrival), so
  // the expiry is checked before compute even starts — deterministic.
  util::fault::set_plan("serve.compute:delay=300ms@1");
  const auto service = make_service();
  TcpServerOptions options;
  options.num_threads = 1;
  options.request_timeout = std::chrono::milliseconds(50);
  TcpServer server([&] { return service; }, options);
  server.start();

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_line(
      R"({"v":2,"op":"sample","code":"Steane","p":0.02,"shots":512,)"
      R"("seed":9})"));
  const std::string expired = client.read_line();
  EXPECT_NE(expired.find(R"("code":"deadline_exceeded")"), std::string::npos)
      << expired;
  // The stable message only — never partial compute progress.
  EXPECT_NE(expired.find("deadline exceeded"), std::string::npos) << expired;
  EXPECT_EQ(expired.find(R"("ok":true)"), std::string::npos) << expired;

  // The worker is free again: a follow-up on the same connection (no
  // injected delay this time) answers well inside its own 50ms budget.
  ASSERT_TRUE(client.send_line(R"({"v":2,"op":"health"})"));
  EXPECT_NE(client.read_line().find(R"("status":"serving")"),
            std::string::npos);
  util::fault::clear_plan();
  server.stop();
}

TEST_F(ServeTcpTest, V2DeadlineMsCancelsMidCompute) {
  const auto service = make_service();
  TcpServerOptions options;
  options.num_threads = 1;  // No server-side timeout: the request's own
                            // deadline_ms is the only deadline.
  TcpServer server([&] { return service; }, options);
  server.start();

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  // A maximum-budget, tight-tolerance rate estimate runs far longer
  // than 5ms; the cooperative CancelToken fires between wave batches
  // and frees the worker long before the estimate would finish.
  const auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.send_line(
      R"({"v":2,"op":"rate","code":"Steane","p":0.001,"shots":4194304,)"
      R"("rel_err":0.0001,"deadline_ms":5})"));
  const std::string cancelled = client.read_line();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_NE(cancelled.find(R"("code":"deadline_exceeded")"),
            std::string::npos)
      << cancelled;
  EXPECT_LT(elapsed, std::chrono::seconds(30))
      << "cancellation did not free the worker promptly";

  // Deadline bookkeeping is per-request: the next request has none.
  ASSERT_TRUE(client.send_line(R"({"v":2,"op":"health"})"));
  EXPECT_NE(client.read_line().find(R"("status":"serving")"),
            std::string::npos);
  server.stop();
}

TEST_F(ServeTcpTest, FailedReloadDegradesHealthButKeepsServing) {
  TempDir store_dir;
  {
    compile::ArtifactStore store(store_dir.path.string());
    store.put(*artifact_);
  }
  ReloadableService reloadable(store_dir.path.string(), {});
  const auto health_before =
      reloadable.service()->handle_request(R"({"v":2,"op":"health"})");
  EXPECT_EQ(health_before.find("degraded"), std::string::npos)
      << health_before;

  // Make the reload's fresh store scan fail hard: reads fail, and the
  // quarantine fallback's index rewrite fails too, so build() throws.
  util::fault::set_plan("store.read:fail,store.write:fail");
  EXPECT_THROW(reloadable.force_reload(), std::exception);
  util::fault::clear_plan();
  EXPECT_EQ(reloadable.generation(), 1u) << "failed reload bumped generation";

  // Degraded, not down: the old snapshot keeps answering compute...
  const auto service = reloadable.service();
  EXPECT_NE(service->handle_request(kSampleRequest).find(R"("ok":true)"),
            std::string::npos);
  // ...and health surfaces the failure.
  const auto degraded =
      service->handle_request(R"({"v":2,"op":"health"})");
  EXPECT_NE(degraded.find(R"("degraded":true)"), std::string::npos)
      << degraded;
  EXPECT_NE(degraded.find(R"("last_error":)"), std::string::npos) << degraded;

  // A later successful reload clears the flag. (The failed attempt
  // quarantined the artifact before its index rewrite threw, so
  // re-publish it first — exactly what an operator repairing a bad
  // store would do.)
  {
    compile::ArtifactStore store(store_dir.path.string());
    store.put(*artifact_);
  }
  EXPECT_EQ(reloadable.force_reload(), 2u);
  const auto recovered =
      reloadable.service()->handle_request(R"({"v":2,"op":"health"})");
  EXPECT_EQ(recovered.find("degraded"), std::string::npos) << recovered;
}

TEST_F(ServeTcpTest, StoreChangedDuringReloadIsSeenAsChanged) {
  TempDir store_dir;
  {
    compile::ArtifactStore store(store_dir.path.string());
    store.put(*artifact_);
  }
  ReloadableService reloadable(store_dir.path.string(), {});
  // The reload's artifact read stalls after its store handle has read
  // the index; the store gains an artifact inside that window.
  util::fault::set_plan("store.read:delay=300ms@1");
  std::thread writer([&] {
    while (util::fault::hit_count("store.read") < 1) {
      std::this_thread::yield();
    }
    compile::ArtifactStore store(store_dir.path.string());
    store.put(linear_variant());
  });
  reloadable.force_reload();
  writer.join();
  util::fault::clear_plan();
  // The swapped-in service was built from the old index, so the next
  // check must see the store as changed and pick the new artifact up.
  EXPECT_TRUE(reloadable.reload_if_changed());
  const std::string codes =
      reloadable.service()->handle_request(R"({"op":"codes"})");
  EXPECT_NE(codes.find("Steane@linear"), std::string::npos) << codes;
}

}  // namespace
}  // namespace ftsp::serve

#else
TEST(ServeTcp, SkippedOnThisPlatform) { GTEST_SKIP(); }
#endif
