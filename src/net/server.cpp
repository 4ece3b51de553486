#include "net/server.hpp"

#include <utility>

#include "common/fault.hpp"

namespace ndft::net {

HttpServer::HttpServer(ServerConfig config, HttpHandler handler)
    : config_(std::move(config)), handler_(std::move(handler)) {
  NDFT_REQUIRE(handler_ != nullptr, "HttpServer needs a handler");
}

HttpServer::~HttpServer() { shutdown(); }

void HttpServer::start() {
  NDFT_REQUIRE(!running_.load() && !stopping_.load(),
               "HttpServer::start called twice");
  listener_ = Listener(config_.bind_address, config_.port);
  port_ = listener_.port();
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void HttpServer::shutdown() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // The accept thread polls the listener in 100 ms slices and sees the
  // flag; closing the listener before it has left would race its accept.
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  // Connection threads observe stopping_ between requests (and between
  // read slices) and wind down; join them all.
  std::vector<std::unique_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    if (connection->thread.joinable()) connection->thread.join();
  }
}

void HttpServer::reap_finished() {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void HttpServer::accept_loop() {
  while (!stopping_.load()) {
    Socket socket = listener_.accept(/*timeout_ms=*/100.0);
    if (!socket.valid()) {
      reap_finished();
      continue;
    }
    if (fault_fires("net.accept")) {
      connections_dropped_.fetch_add(1);
      continue;  // Socket destructor closes the connection
    }
    reap_finished();
    if (live_connections_.load() >= config_.max_connections) {
      // Over capacity: tell the client explicitly rather than hanging.
      HttpResponse busy;
      busy.status = 503;
      busy.headers.emplace_back("Content-Type", "text/plain");
      busy.body = "server at connection capacity\n";
      try {
        socket.send_all(busy.serialize(/*keep_alive=*/false));
      } catch (const NdftError&) {
      }
      connections_dropped_.fetch_add(1);
      continue;
    }
    live_connections_.fetch_add(1);
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(std::move(connection));
    }
    raw->thread = std::thread(
        [this, raw](Socket sock) {
          serve_connection(std::move(sock));
          live_connections_.fetch_sub(1);
          raw->done.store(true);
        },
        std::move(socket));
  }
}

void HttpServer::serve_connection(Socket socket) {
  HttpParser parser(HttpParser::Kind::kRequest, config_.limits);
  const std::string client = socket.peer_address();
  char buf[8192];
  double idle_ms = 0.0;
  try {
    while (!stopping_.load()) {
      // Read in short slices so a shutdown is observed within ~100ms
      // even while blocked on an idle keep-alive connection.
      const long n = socket.recv_some(buf, sizeof(buf), /*timeout_ms=*/100.0);
      if (n == 0) return;  // peer closed
      if (n < 0) {
        idle_ms += 100.0;
        if (idle_ms >= config_.io_timeout_ms) return;
        continue;
      }
      idle_ms = 0.0;
      parser.feed(buf, static_cast<std::size_t>(n));
      // Drain every complete message in the buffer (pipelining).
      while (parser.state() == HttpParser::State::kDone) {
        HttpRequest request = parser.request();
        request.client = client;
        const std::string pipelined = parser.remainder();
        parser.reset();
        parser.feed(pipelined);

        HttpResponse response;
        try {
          response = handler_(request);
        } catch (const std::exception& e) {
          response = HttpResponse();
          response.status = 500;
          response.headers.emplace_back("Content-Type", "text/plain");
          response.body = std::string("internal error: ") + e.what() + "\n";
        }
        const bool keep = request.keep_alive() && !stopping_.load();
        requests_served_.fetch_add(1);
        socket.send_all(response.serialize(keep));
        if (!keep) return;
      }
      if (parser.state() == HttpParser::State::kError) {
        HttpResponse response;
        response.status = parser.error_status();
        response.headers.emplace_back("Content-Type", "text/plain");
        response.body = parser.error_detail() + "\n";
        requests_served_.fetch_add(1);
        socket.send_all(response.serialize(/*keep_alive=*/false));
        return;  // framing is unrecoverable after a parse error
      }
    }
  } catch (const NdftError&) {
    // Socket-level failure (peer reset mid-write, ...): drop the
    // connection; the client observes the close and may retry.
  }
}

}  // namespace ndft::net
