#pragma once
// HttpServer: accept loop + thread-per-connection HTTP/1.1 serving over
// net::Socket/net::HttpParser. Thread-per-connection (rather than a
// fixed worker pool) because keep-alive connections are held for the
// whole client session — a 64-client bench on an 8-worker pool would
// simply deadlock. A max_connections cap bounds the thread count.
//
// The accept path is a fault-injection site ("net.accept", class
// kDevice): when it fires the freshly accepted connection is closed
// immediately, modelling transient connection loss that well-behaved
// clients retry.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/http.hpp"
#include "net/socket.hpp"

namespace ndft::net {

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; read back via port().
  std::size_t max_connections = 256;
  /// Idle read timeout per connection; the connection closes when the
  /// client sends nothing for this long. Sliced internally so shutdown()
  /// is honored promptly regardless.
  double io_timeout_ms = 30000.0;
  HttpLimits limits;
};

/// Maps one parsed request to a response. Must be thread-safe: it is
/// invoked concurrently from connection threads.
using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

class HttpServer {
 public:
  HttpServer(ServerConfig config, HttpHandler handler);
  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds and starts the accept thread; throws NdftError when the bind
  /// fails. Idempotent per instance (second call throws).
  void start();

  /// The bound port (valid after start()).
  std::uint16_t port() const noexcept { return port_; }

  /// Stops accepting, waits for in-flight connections to finish their
  /// current request, and joins all threads. Safe to call twice.
  void shutdown();

  bool running() const noexcept { return running_.load(); }

  // Counters (monotonic over the server's lifetime).
  std::uint64_t connections_dropped() const noexcept {
    return connections_dropped_.load();
  }
  std::uint64_t requests_served() const noexcept {
    return requests_served_.load();
  }

 private:
  void accept_loop();
  void serve_connection(Socket socket);
  void reap_finished();

  ServerConfig config_;
  HttpHandler handler_;
  Listener listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;

  std::atomic<std::uint64_t> connections_dropped_{0};
  std::atomic<std::uint64_t> requests_served_{0};
  std::atomic<std::size_t> live_connections_{0};
};

}  // namespace ndft::net
