#pragma once
// Service: the route table of the NDFT HTTP front end. Owns no sockets —
// it is an HttpHandler (plug it into HttpServer, or call handle()
// directly in tests to skip the wire) that maps requests onto a
// borrowed api::Engine:
//
//   GET    /healthz           liveness (auth-exempt)
//   GET    /metrics           Prometheus text format (auth-exempt)
//   POST   /v1/jobs           submit an ndft.job_request.v1 body;
//                             202 + Location, or 200 with the full
//                             ndft.job_result.v1 when ?wait_ms= is given
//                             and the job finishes in time
//   GET    /v1/jobs/{id}      poll (or long-poll with ?wait_ms=) status;
//                             terminal jobs return the full result
//   DELETE /v1/jobs/{id}      cancel
//
// Cross-cutting: static bearer-token auth, per-client token-bucket rate
// limiting, per-client queue quotas, and one structured log line per
// request with latency.

#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "net/http.hpp"

namespace ndft::net {

struct ServiceConfig {
  /// Accepted bearer tokens. Empty falls back to the NDFT_AUTH_TOKENS
  /// environment variable (comma-separated); when that is empty too, the
  /// service runs open (no auth) — the loopback-development default.
  std::vector<std::string> auth_tokens;
  /// Token-bucket rate limit per client address; <= 0 disables limiting.
  double rate_limit_per_s = 0.0;
  /// Bucket depth (burst size). Defaults to the per-second rate.
  double rate_burst = 0.0;
  /// Max simultaneously queued-or-running jobs per client address;
  /// 0 = unlimited.
  std::size_t queue_quota = 0;
  /// Structured request log destination; nullptr silences logging.
  std::FILE* log = stderr;
};

class Service {
 public:
  /// `engine` must outlive the Service.
  Service(api::Engine& engine, ServiceConfig config = {});

  /// Routes one request. Thread-safe; this is the HttpHandler.
  HttpResponse handle(const HttpRequest& request);

  /// Count of responses sent per HTTP status code (for tests/metrics).
  std::uint64_t responses_with_status(int status);

 private:
  struct JobEntry {
    api::JobHandle handle;
    std::string client;
  };
  struct Bucket {
    double tokens = 0.0;
    std::chrono::steady_clock::time_point last_refill;
    bool initialized = false;
  };

  HttpResponse route(const HttpRequest& request);
  HttpResponse post_job(const HttpRequest& request);
  HttpResponse get_job(const HttpRequest& request, std::uint64_t id);
  HttpResponse delete_job(const HttpRequest& request, std::uint64_t id);
  HttpResponse metrics();

  bool authorized(const HttpRequest& request) const;
  /// True when the client is within its rate limit (consumes a token).
  /// On rejection, `*retry_after_s` (when non-null) receives the whole
  /// seconds until the bucket refills enough for one request (>= 1) —
  /// the value the 429's Retry-After header advertises.
  bool admit_rate(const std::string& client, double* retry_after_s = nullptr);
  /// Queued-or-running jobs owned by `client` (prunes terminal handles).
  std::size_t active_jobs_locked(const std::string& client);
  void retain_locked(std::uint64_t id, JobEntry entry);
  void log_request(const HttpRequest& request, int status,
                   double latency_ms) const;

  api::Engine& engine_;
  ServiceConfig config_;
  std::vector<std::string> tokens_;  // resolved auth tokens

  std::mutex mutex_;
  std::map<std::uint64_t, JobEntry> jobs_;
  std::deque<std::uint64_t> job_order_;  // insertion order, for eviction
  std::map<std::string, Bucket> buckets_;
  std::map<int, std::uint64_t> status_counts_;
  mutable std::mutex log_mutex_;
};

}  // namespace ndft::net
