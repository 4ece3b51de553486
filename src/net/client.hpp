#pragma once
// Blocking HTTP/1.1 client for tests, examples, and benches: one
// keep-alive connection per instance, lazily (re)connected, with the
// same parser the server uses. Not thread-safe — give each client
// thread its own instance.

#include <cstdint>
#include <string>

#include "net/http.hpp"
#include "net/socket.hpp"

namespace ndft::net {

class HttpClient {
 public:
  /// Does not connect yet; the first request does.
  HttpClient(std::string host, std::uint16_t port,
             double timeout_ms = 30000.0);

  /// Bearer token attached to every request ("" = none).
  void set_bearer(std::string token) { bearer_ = std::move(token); }

  /// Sends one request and blocks for the response. Reconnects once when
  /// the kept-alive connection turns out to be dead. Throws NdftError on
  /// connect failure, timeout, or an unparseable response.
  HttpResponse request(const std::string& method, const std::string& target,
                       const std::string& body = "",
                       const std::string& content_type = "application/json");

  HttpResponse get(const std::string& target) {
    return request("GET", target);
  }
  HttpResponse post(const std::string& target, const std::string& body) {
    return request("POST", target, body);
  }
  HttpResponse del(const std::string& target) {
    return request("DELETE", target);
  }

 private:
  HttpResponse round_trip(const std::string& wire);

  std::string host_;
  std::uint16_t port_;
  double timeout_ms_;
  std::string bearer_;
  Socket socket_;
  std::string pipeline_rest_;  // bytes past the previous response
};

}  // namespace ndft::net
