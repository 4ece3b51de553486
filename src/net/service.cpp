#include "net/service.hpp"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "api/request_json.hpp"
#include "common/json.hpp"

namespace ndft::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Terminal jobs kept for GET after completion; oldest are evicted.
constexpr std::size_t kMaxRetainedJobs = 4096;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

HttpResponse json_response(int status, const Json& body) {
  HttpResponse response;
  response.status = status;
  response.headers.emplace_back("Content-Type", "application/json");
  response.body = body.dump(2) + "\n";
  return response;
}

HttpResponse error_response(int status, const std::string& message,
                            std::vector<std::string> details = {}) {
  Json error = Json::object();
  error.set("status", static_cast<std::int64_t>(status));
  error.set("message", message);
  if (!details.empty()) {
    Json list = Json::array();
    for (const std::string& detail : details) list.push_back(Json(detail));
    error.set("details", std::move(list));
  }
  Json body = Json::object();
  body.set("error", std::move(error));
  return json_response(status, body);
}

/// Parses "/v1/jobs/{id}"; returns false when the tail is not a job id.
bool parse_job_id(const std::string& path, std::uint64_t* id) {
  const std::string prefix = "/v1/jobs/";
  if (path.rfind(prefix, 0) != 0 || path.size() == prefix.size()) {
    return false;
  }
  std::uint64_t value = 0;
  for (std::size_t i = prefix.size(); i < path.size(); ++i) {
    const char c = path[i];
    if (c < '0' || c > '9') return false;
    if (value > (static_cast<std::uint64_t>(-1) - (c - '0')) / 10) {
      return false;
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *id = value;
  return true;
}

/// Parses the ?wait_ms= long-poll budget into `*out` (0 when absent).
/// Returns false on a malformed value — trailing garbage, negative, or
/// non-finite. The non-finite check matters: strtod happily parses "nan"
/// and "inf", NaN slips past a plain `value < 0.0` guard, and a NaN
/// budget poisons every duration comparison downstream of wait_for
/// (std::min(NaN, cap) is NaN). Malformed input must be a 400, not a
/// silent zero: a sharded client that typos its long-poll would
/// otherwise degrade to busy-polling without ever learning why.
bool parse_wait_ms(const HttpRequest& request, double* out) {
  *out = 0.0;
  const std::string raw = request.query("wait_ms");
  if (raw.empty()) return true;
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  if (end == nullptr || *end != '\0' || raw.c_str() == end ||
      !std::isfinite(value) || value < 0.0) {
    return false;
  }
  // Cap long-polls: a client cannot pin a connection thread forever.
  *out = std::min(value, 60000.0);
  return true;
}

Json status_stub(std::uint64_t id, api::JobStatus status) {
  Json body = Json::object();
  body.set("id", id);
  body.set("status", std::string(api::to_string(status)));
  return body;
}

}  // namespace

Service::Service(api::Engine& engine, ServiceConfig config)
    : engine_(engine), config_(std::move(config)) {
  tokens_ = config_.auth_tokens;
  if (tokens_.empty()) {
    if (const char* env = std::getenv("NDFT_AUTH_TOKENS")) {
      std::string text = env;
      std::size_t start = 0;
      while (start <= text.size()) {
        std::size_t end = text.find(',', start);
        if (end == std::string::npos) end = text.size();
        const std::string token = text.substr(start, end - start);
        if (!token.empty()) tokens_.push_back(token);
        start = end + 1;
      }
    }
  }
  if (config_.rate_burst <= 0.0) config_.rate_burst = config_.rate_limit_per_s;
}

HttpResponse Service::handle(const HttpRequest& request) {
  const Clock::time_point start = Clock::now();
  HttpResponse response;
  try {
    response = route(request);
  } catch (const std::exception& e) {
    response = error_response(500, std::string("internal error: ") + e.what());
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++status_counts_[response.status];
  }
  log_request(request, response.status, ms_since(start));
  return response;
}

std::uint64_t Service::responses_with_status(int status) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = status_counts_.find(status);
  return it == status_counts_.end() ? 0 : it->second;
}

HttpResponse Service::route(const HttpRequest& request) {
  const std::string path = request.path();
  if (path == "/healthz") {
    if (request.method != "GET") return error_response(405, "GET only");
    HttpResponse response;
    response.headers.emplace_back("Content-Type", "text/plain");
    response.body = "ok\n";
    return response;
  }
  if (path == "/metrics") {
    if (request.method != "GET") return error_response(405, "GET only");
    return metrics();
  }
  if (!authorized(request)) {
    HttpResponse response =
        error_response(401, "missing or invalid bearer token");
    response.headers.emplace_back("WWW-Authenticate", "Bearer");
    return response;
  }
  if (path == "/v1/jobs") {
    if (request.method != "POST") return error_response(405, "POST only");
    return post_job(request);
  }
  std::uint64_t id = 0;
  if (parse_job_id(path, &id)) {
    if (request.method == "GET") return get_job(request, id);
    if (request.method == "DELETE") return delete_job(request, id);
    return error_response(405, "GET or DELETE only");
  }
  return error_response(404, "no such route: " + path);
}

HttpResponse Service::post_job(const HttpRequest& request) {
  double retry_after_s = 1.0;
  if (!admit_rate(request.client, &retry_after_s)) {
    HttpResponse response = error_response(429, "rate limit exceeded");
    response.headers.emplace_back(
        "Retry-After",
        std::to_string(static_cast<long long>(retry_after_s)));
    return response;
  }
  // Parse + validate everything BEFORE touching the Engine: a malformed
  // request must leave no trace in engine counters or queue state.
  api::JobRequest job;
  try {
    const Json body = Json::parse(request.body);
    job = api::job_request_from_json(body);
  } catch (const NdftError& e) {
    return error_response(400, e.what());
  }
  const std::vector<std::string> errors = api::validate(job);
  if (!errors.empty()) {
    return error_response(400, "request failed validation", errors);
  }
  // The long-poll budget is part of the request contract too: reject it
  // here, while the Engine still has no record of the job.
  double wait_ms = 0.0;
  if (!parse_wait_ms(request, &wait_ms)) {
    return error_response(400, "malformed wait_ms query parameter");
  }
  if (config_.queue_quota > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_jobs_locked(request.client) >= config_.queue_quota) {
      HttpResponse response =
          error_response(429, "queue quota exceeded for client");
      response.headers.emplace_back("Retry-After", "1");
      return response;
    }
  }
  api::JobHandle handle;
  try {
    handle = engine_.submit(std::move(job));
  } catch (const NdftError& e) {
    // Pending queue full: backpressure, not client error.
    HttpResponse response = error_response(503, e.what());
    response.headers.emplace_back("Retry-After", "1");
    return response;
  }
  const std::uint64_t id = handle.id();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    retain_locked(id, JobEntry{handle, request.client});
  }
  // wait_for happens OUTSIDE the service mutex: long-polls must not
  // serialize the route table.
  if (wait_ms > 0.0 && handle.wait_for(wait_ms)) {
    return json_response(200, handle.wait().to_json());
  }
  HttpResponse response = json_response(202, status_stub(id, handle.status()));
  response.headers.emplace_back("Location", "/v1/jobs/" + std::to_string(id));
  return response;
}

HttpResponse Service::get_job(const HttpRequest& request, std::uint64_t id) {
  double wait_ms = 0.0;
  if (!parse_wait_ms(request, &wait_ms)) {
    return error_response(400, "malformed wait_ms query parameter");
  }
  api::JobHandle handle;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return error_response(404, "no such job: " + std::to_string(id));
    }
    handle = it->second.handle;
  }
  if (wait_ms > 0.0) handle.wait_for(wait_ms);
  const api::JobStatus status = handle.status();
  if (status == api::JobStatus::kQueued || status == api::JobStatus::kRunning) {
    return json_response(200, status_stub(id, status));
  }
  return json_response(200, handle.wait().to_json());
}

HttpResponse Service::delete_job(const HttpRequest& request, std::uint64_t id) {
  (void)request;
  api::JobHandle handle;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) {
      return error_response(404, "no such job: " + std::to_string(id));
    }
    handle = it->second.handle;
  }
  const bool accepted = handle.cancel();
  Json body = status_stub(id, handle.status());
  body.set("cancel_accepted", accepted);
  return json_response(200, body);
}

HttpResponse Service::metrics() {
  std::string out;
  const auto counter = [&out](const char* name, const char* help,
                              std::uint64_t value) {
    out += "# HELP " + std::string(name) + " " + help + "\n";
    out += "# TYPE " + std::string(name) + " counter\n";
    out += std::string(name) + " " + std::to_string(value) + "\n";
  };
  const auto gauge = [&out](const char* name, const char* help,
                            std::uint64_t value) {
    out += "# HELP " + std::string(name) + " " + help + "\n";
    out += "# TYPE " + std::string(name) + " gauge\n";
    out += std::string(name) + " " + std::to_string(value) + "\n";
  };
  counter("ndft_engine_jobs_submitted_total", "Jobs accepted by the engine.",
          engine_.jobs_submitted());
  counter("ndft_engine_jobs_completed_total",
          "Jobs that reached a non-cancelled terminal state.",
          engine_.jobs_completed());
  counter("ndft_engine_jobs_cancelled_total", "Jobs cancelled.",
          engine_.jobs_cancelled());
  counter("ndft_engine_jobs_started_total",
          "Queued jobs that began executing (exec-sequence high-water mark).",
          engine_.jobs_started());
  counter("ndft_engine_jobs_retried_total",
          "Transient-failure retries across all jobs.",
          engine_.jobs_retried());
  counter("ndft_engine_jobs_deadline_exceeded_total",
          "Jobs that ended with an exceeded deadline.",
          engine_.jobs_deadline_exceeded());
  counter("ndft_engine_jobs_degraded_total",
          "Jobs that completed with degradation notes.",
          engine_.jobs_degraded());
  gauge("ndft_engine_jobs_pending", "Jobs waiting in the engine queue.",
        engine_.jobs_pending());
  gauge("ndft_engine_jobs_running", "Jobs currently executing.",
        engine_.jobs_running());
  gauge("ndft_engine_pool_threads", "Shared kernel thread-pool width.",
        engine_.pool_threads());
  gauge("ndft_engine_dispatch_threads", "Async queue drain width.",
        engine_.dispatch_threads());
  // Per-status response counts, one labelled series per code seen so far.
  out +=
      "# HELP ndft_http_responses_total HTTP responses sent by status "
      "code.\n";
  out += "# TYPE ndft_http_responses_total counter\n";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [status, count] : status_counts_) {
      out += "ndft_http_responses_total{code=\"" + std::to_string(status) +
             "\"} " + std::to_string(count) + "\n";
    }
  }
  HttpResponse response;
  response.headers.emplace_back("Content-Type",
                                "text/plain; version=0.0.4");
  response.body = std::move(out);
  return response;
}

bool Service::authorized(const HttpRequest& request) const {
  if (tokens_.empty()) return true;  // open mode
  const std::string auth = request.header("authorization");
  const std::string prefix = "Bearer ";
  if (auth.rfind(prefix, 0) != 0) return false;
  const std::string presented = auth.substr(prefix.size());
  for (const std::string& token : tokens_) {
    if (presented == token) return true;
  }
  return false;
}

bool Service::admit_rate(const std::string& client, double* retry_after_s) {
  if (config_.rate_limit_per_s <= 0.0) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  Bucket& bucket = buckets_[client];
  const Clock::time_point now = Clock::now();
  if (!bucket.initialized) {
    bucket.tokens = config_.rate_burst;
    bucket.last_refill = now;
    bucket.initialized = true;
  } else {
    const double elapsed_s =
        std::chrono::duration<double>(now - bucket.last_refill).count();
    bucket.tokens = std::min(config_.rate_burst,
                             bucket.tokens +
                                 elapsed_s * config_.rate_limit_per_s);
    bucket.last_refill = now;
  }
  if (bucket.tokens < 1.0) {
    // Tell the client when a retry can actually succeed: the bucket just
    // refilled, so the next admissible request is the time the remaining
    // token deficit takes to refill at the configured rate, rounded up
    // to whole seconds (Retry-After is integral) with a floor of 1. A
    // hardcoded "1" under-reports at low refill rates and turns polite
    // clients into a retry storm of guaranteed 429s.
    if (retry_after_s != nullptr) {
      const double deficit = 1.0 - bucket.tokens;
      *retry_after_s = std::max(
          1.0, std::ceil(deficit / config_.rate_limit_per_s));
    }
    return false;
  }
  bucket.tokens -= 1.0;
  return true;
}

std::size_t Service::active_jobs_locked(const std::string& client) {
  std::size_t active = 0;
  for (const auto& [id, entry] : jobs_) {
    if (entry.client != client) continue;
    const api::JobStatus status = entry.handle.status();
    if (status == api::JobStatus::kQueued ||
        status == api::JobStatus::kRunning) {
      ++active;
    }
  }
  return active;
}

void Service::retain_locked(std::uint64_t id, JobEntry entry) {
  jobs_.emplace(id, std::move(entry));
  job_order_.push_back(id);
  // Evict the oldest TERMINAL entries over the cap; live handles are
  // never dropped (clients could no longer poll or cancel them).
  while (jobs_.size() > kMaxRetainedJobs && !job_order_.empty()) {
    bool evicted = false;
    for (auto it = job_order_.begin(); it != job_order_.end(); ++it) {
      const auto jt = jobs_.find(*it);
      if (jt == jobs_.end()) {
        it = job_order_.erase(it);
        evicted = true;
        break;
      }
      const api::JobStatus status = jt->second.handle.status();
      if (status != api::JobStatus::kQueued &&
          status != api::JobStatus::kRunning) {
        jobs_.erase(jt);
        job_order_.erase(it);
        evicted = true;
        break;
      }
    }
    if (!evicted) break;  // everything live: allow temporary overshoot
  }
}

void Service::log_request(const HttpRequest& request, int status,
                          double latency_ms) const {
  if (config_.log == nullptr) return;
  std::lock_guard<std::mutex> lock(log_mutex_);
  std::fprintf(config_.log, "ndft_serve: %s \"%s %s\" %d %zuB %.3fms\n",
               request.client.empty() ? "-" : request.client.c_str(),
               request.method.c_str(), request.target.c_str(), status,
               request.body.size(), latency_ms);
  std::fflush(config_.log);
}

}  // namespace ndft::net
