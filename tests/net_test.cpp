// The HTTP service layer (ctest label: net, RUN_SERIAL).
//
// Covers, bottom up: the HTTP/1.1 parser (framing, keep-alive,
// pipelining, limit violations), the ndft.job_request.v1 wire schema,
// the Service route table in-process (auth, rate limits, quotas,
// malformed-request fuzz with zero engine-state leakage), and the full
// socket path end to end — including the 16-client concurrent==serial
// bitwise stress test, the 1/8/64-client keep-alive storm in which every
// request must succeed, and deterministic net.accept fault replay.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "api/request_json.hpp"
#include "common/fault.hpp"
#include "net/client.hpp"
#include "net/http.hpp"
#include "net/server.hpp"
#include "net/service.hpp"

namespace ndft {
namespace {

using api::Engine;
using api::EngineConfig;
using api::JobRequest;
using api::JobResult;
using net::HttpClient;
using net::HttpParser;
using net::HttpRequest;
using net::HttpResponse;
using net::HttpServer;
using net::ServerConfig;
using net::Service;
using net::ServiceConfig;

EngineConfig fast_config(std::size_t dispatch_threads = 2) {
  EngineConfig config;
  config.dispatch_threads = dispatch_threads;
  config.system.sampled_ops_per_kernel = 20000;
  config.system.min_ops_per_core = 200;
  return config;
}

ServiceConfig quiet_service() {
  ServiceConfig config;
  config.log = nullptr;
  return config;
}

/// Engine + Service + HttpServer on an ephemeral loopback port.
struct TestServer {
  Engine engine;
  Service service;
  HttpServer server;

  explicit TestServer(EngineConfig engine_config = fast_config(),
                      ServiceConfig service_config = quiet_service(),
                      ServerConfig server_config = ServerConfig())
      : engine(std::move(engine_config)),
        service(engine, std::move(service_config)),
        server(std::move(server_config), [this](const HttpRequest& request) {
          return service.handle(request);
        }) {
    server.start();
  }

  HttpClient client() { return HttpClient("127.0.0.1", server.port()); }
};

/// Value of an unlabelled counter/gauge in Prometheus text format.
std::uint64_t metric_value(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const std::size_t pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << "metric " << name << " missing";
  if (pos == std::string::npos) return ~0ull;
  const std::size_t start = pos + needle.size();
  return std::stoull(text.substr(start));
}

// ------------------------------------------------------------ HTTP parser

TEST(HttpParserTest, ParsesContentLengthRequest) {
  HttpParser parser(HttpParser::Kind::kRequest);
  const std::string wire =
      "POST /v1/jobs?wait_ms=50 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 4\r\n"
      "\r\n"
      "{\"a\"";
  ASSERT_EQ(parser.feed(wire), HttpParser::State::kDone);
  const HttpRequest& request = parser.request();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.path(), "/v1/jobs");
  EXPECT_EQ(request.query("wait_ms"), "50");
  EXPECT_EQ(request.header("content-type"), "application/json");
  EXPECT_EQ(request.body, "{\"a\"");
  EXPECT_TRUE(request.keep_alive());
}

TEST(HttpParserTest, ParsesChunkedBodyAcrossFeeds) {
  HttpParser parser(HttpParser::Kind::kRequest);
  const std::string wire =
      "POST /v1/jobs HTTP/1.1\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "5\r\nhello\r\n"
      "6\r\n world\r\n"
      "0\r\n\r\n";
  // Feed byte by byte: the parser must be restartable at any boundary.
  for (char c : wire) {
    ASSERT_NE(parser.feed(&c, 1), HttpParser::State::kError);
  }
  ASSERT_EQ(parser.state(), HttpParser::State::kDone);
  EXPECT_EQ(parser.request().body, "hello world");
}

TEST(HttpParserTest, PipelinedRequestsSurviveViaRemainder) {
  HttpParser parser(HttpParser::Kind::kRequest);
  const std::string wire =
      "GET /healthz HTTP/1.1\r\n\r\n"
      "GET /metrics HTTP/1.1\r\n\r\n";
  ASSERT_EQ(parser.feed(wire), HttpParser::State::kDone);
  EXPECT_EQ(parser.request().target, "/healthz");
  const std::string rest = parser.remainder();
  parser.reset();
  ASSERT_EQ(parser.feed(rest), HttpParser::State::kDone);
  EXPECT_EQ(parser.request().target, "/metrics");
  EXPECT_TRUE(parser.remainder().empty());
}

TEST(HttpParserTest, RejectsProtocolViolations) {
  struct Case {
    const char* wire;
    int status;
  };
  const Case cases[] = {
      {"GARBAGE\r\n\r\n", 400},
      {"GET / HTTP/2.0\r\n\r\n", 505},
      {"GET relative HTTP/1.1\r\n\r\n", 400},
      {"GET / HTTP/1.1\r\nbad header line\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nContent-Length: 99999999999999999999\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: chunked"
       "\r\n\r\n",
       400},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", 400},
  };
  for (const Case& c : cases) {
    HttpParser parser(HttpParser::Kind::kRequest);
    parser.feed(std::string(c.wire));
    EXPECT_EQ(parser.state(), HttpParser::State::kError) << c.wire;
    EXPECT_EQ(parser.error_status(), c.status) << c.wire;
  }
}

TEST(HttpParserTest, EnforcesByteLimits) {
  net::HttpLimits limits;
  limits.max_start_line = 64;
  limits.max_header_bytes = 256;
  limits.max_body_bytes = 32;

  HttpParser long_target(HttpParser::Kind::kRequest, limits);
  long_target.feed("GET /" + std::string(200, 'x') + " HTTP/1.1\r\n\r\n");
  EXPECT_EQ(long_target.state(), HttpParser::State::kError);
  EXPECT_EQ(long_target.error_status(), 431);

  HttpParser long_headers(HttpParser::Kind::kRequest, limits);
  long_headers.feed("GET / HTTP/1.1\r\nx-pad: " + std::string(400, 'y') +
                    "\r\n\r\n");
  EXPECT_EQ(long_headers.state(), HttpParser::State::kError);
  EXPECT_EQ(long_headers.error_status(), 431);

  HttpParser big_body(HttpParser::Kind::kRequest, limits);
  big_body.feed("POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n");
  EXPECT_EQ(big_body.state(), HttpParser::State::kError);
  EXPECT_EQ(big_body.error_status(), 413);

  HttpParser big_chunked(HttpParser::Kind::kRequest, limits);
  big_chunked.feed(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nfff\r\n");
  EXPECT_EQ(big_chunked.state(), HttpParser::State::kError);
  EXPECT_EQ(big_chunked.error_status(), 413);
}

// ------------------------------------------------- request wire schema

TEST(RequestJsonTest, AllJobKindsRoundTrip) {
  std::vector<JobRequest> requests;
  api::ScfJob scf;
  scf.atoms = 16;
  scf.scf.scheme = dft::MixingScheme::kLinear;
  scf.scf.max_iterations = 7;
  scf.record_trace = true;
  requests.emplace_back(scf);

  api::BandStructureJob bands;
  bands.atoms = 8;
  bands.sampling = api::BandStructureJob::Sampling::kMonkhorstPack;
  bands.mp_grid[0] = 1;
  bands.mp_grid[1] = 2;
  bands.mp_grid[2] = 3;
  bands.deadline_ms = 1234.5;
  requests.emplace_back(bands);

  // Explicit sampling: the sharded front end's wire form of a sub-job.
  api::BandStructureJob explicit_bands;
  explicit_bands.sampling = api::BandStructureJob::Sampling::kExplicit;
  api::BandStructureJob::KPointSpec spec;
  spec.k[0] = 0.125;
  spec.k[1] = -0.25;
  spec.k[2] = 0.5;
  spec.weight = 0.375;
  spec.label = "Gamma";
  explicit_bands.kpoints.push_back(spec);
  spec.label.clear();
  spec.k[0] = -0.125;
  explicit_bands.kpoints.push_back(spec);
  requests.emplace_back(explicit_bands);

  api::LrtddftJob lrtddft;
  lrtddft.config.conduction_window = 6;
  lrtddft.oscillator_strengths = true;
  requests.emplace_back(lrtddft);

  api::SimulateJob simulate;
  simulate.mode = core::ExecMode::kNdpOnly;
  simulate.sampled_ops = 5000;
  requests.emplace_back(simulate);

  api::PlanJob plan;
  plan.granularity = runtime::Granularity::kKernel;
  plan.profile_override = {runtime::DeviceProfile::table3_cpu(),
                           runtime::DeviceProfile::table3_ndp()};
  requests.emplace_back(plan);

  api::CoDesignJob codesign;
  codesign.trace.atoms = 8;
  codesign.trace.basis_size = 128;
  codesign.trace.grid_points = 4096;
  TraceEvent event;
  event.cls = KernelClass::kGemm;
  event.name = "gemm";
  event.flops = 1000;
  event.bytes = 2000;
  codesign.trace.events.push_back(event);
  codesign.calibrate = false;
  requests.emplace_back(codesign);

  for (const JobRequest& request : requests) {
    const Json serialized = api::job_request_to_json(request);
    EXPECT_EQ(serialized.at("schema").as_string(), "ndft.job_request.v1");
    EXPECT_EQ(serialized.at("kind").as_string(), api::job_kind(request));
    const JobRequest rebuilt =
        api::job_request_from_json(Json::parse(serialized.dump(2)));
    // Doubles print with %.17g, so dump equality is bit equality.
    EXPECT_EQ(api::job_request_to_json(rebuilt).dump(2), serialized.dump(2))
        << api::job_kind(request) << " did not round-trip";
  }
}

TEST(RequestJsonTest, MinimalRequestGetsStructDefaults) {
  const Json minimal = Json::parse(
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"band_structure\","
      "\"job\":{}}");
  const JobRequest request = api::job_request_from_json(minimal);
  const auto& job = std::get<api::BandStructureJob>(request);
  const api::BandStructureJob defaults;
  EXPECT_EQ(job.atoms, defaults.atoms);
  EXPECT_EQ(job.ecut_ry, defaults.ecut_ry);
  EXPECT_EQ(job.segments, defaults.segments);
  EXPECT_EQ(job.bands, defaults.bands);
}

TEST(RequestJsonTest, RejectsUnknownKindAndBadSchema) {
  EXPECT_THROW(api::job_request_from_json(Json::parse(
                   "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"mine\","
                   "\"job\":{}}")),
               NdftError);
  EXPECT_THROW(api::job_request_from_json(Json::parse(
                   "{\"schema\":\"something.else\",\"kind\":\"plan\","
                   "\"job\":{}}")),
               NdftError);
  EXPECT_THROW(api::job_request_from_json(Json::parse(
                   "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"plan\","
                   "\"job\":[]}")),
               NdftError);
}

// ----------------------------------------------- service routes in-process

HttpRequest make_request(const std::string& method, const std::string& target,
                         const std::string& body = "") {
  HttpRequest request;
  request.method = method;
  request.target = target;
  request.version = "HTTP/1.1";
  request.body = body;
  request.client = "test";
  return request;
}

std::string plan_request_body() {
  return api::job_request_to_json(api::PlanJob{}).dump();
}

TEST(ServiceTest, HealthzAndMetricsAreServed) {
  Engine engine(fast_config());
  Service service(engine, quiet_service());
  EXPECT_EQ(service.handle(make_request("GET", "/healthz")).status, 200);
  const HttpResponse metrics = service.handle(make_request("GET", "/metrics"));
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metric_value(metrics.body, "ndft_engine_jobs_submitted_total"),
            0u);
  EXPECT_EQ(metric_value(metrics.body, "ndft_engine_pool_threads"),
            engine.pool_threads());
}

TEST(ServiceTest, JobLifecycleQueuedThenCancelled) {
  // dispatch_threads = 0: submitted jobs stay queued until drain(), so
  // the queued->cancelled path is deterministic.
  Engine engine(fast_config(/*dispatch_threads=*/0));
  Service service(engine, quiet_service());

  const HttpResponse posted =
      service.handle(make_request("POST", "/v1/jobs", plan_request_body()));
  ASSERT_EQ(posted.status, 202) << posted.body;
  const Json stub = Json::parse(posted.body);
  const std::uint64_t id = stub.at("id").as_uint();
  EXPECT_EQ(stub.at("status").as_string(), "queued");
  std::string location;
  for (const auto& [key, value] : posted.headers) {
    if (key == "Location") location = value;
  }
  EXPECT_EQ(location, "/v1/jobs/" + std::to_string(id));

  const std::string target = "/v1/jobs/" + std::to_string(id);
  const HttpResponse polled = service.handle(make_request("GET", target));
  ASSERT_EQ(polled.status, 200);
  EXPECT_EQ(Json::parse(polled.body).at("status").as_string(), "queued");

  const HttpResponse cancelled =
      service.handle(make_request("DELETE", target));
  ASSERT_EQ(cancelled.status, 200);
  EXPECT_TRUE(Json::parse(cancelled.body).at("cancel_accepted").as_bool());

  // Terminal now: the GET returns the full ndft.job_result.v1 document.
  const HttpResponse final_poll = service.handle(make_request("GET", target));
  ASSERT_EQ(final_poll.status, 200);
  const Json result = Json::parse(final_poll.body);
  EXPECT_EQ(result.at("schema").as_string(), "ndft.job_result.v1");
  EXPECT_EQ(result.at("status").as_string(), "cancelled");

  const HttpResponse metrics = service.handle(make_request("GET", "/metrics"));
  EXPECT_EQ(metric_value(metrics.body, "ndft_engine_jobs_submitted_total"),
            1u);
  EXPECT_EQ(metric_value(metrics.body, "ndft_engine_jobs_cancelled_total"),
            1u);
  EXPECT_EQ(metric_value(metrics.body, "ndft_engine_jobs_pending"), 0u);

  EXPECT_EQ(service.handle(make_request("GET", "/v1/jobs/99999")).status, 404);
}

TEST(ServiceTest, BearerAuthGuardsJobRoutes) {
  Engine engine(fast_config(/*dispatch_threads=*/0));
  ServiceConfig config = quiet_service();
  config.auth_tokens = {"s3cret"};
  Service service(engine, config);

  // Liveness and metrics stay open; job routes are guarded.
  EXPECT_EQ(service.handle(make_request("GET", "/healthz")).status, 200);
  EXPECT_EQ(service.handle(make_request("GET", "/metrics")).status, 200);
  EXPECT_EQ(
      service.handle(make_request("POST", "/v1/jobs", plan_request_body()))
          .status,
      401);

  HttpRequest bad = make_request("POST", "/v1/jobs", plan_request_body());
  bad.headers.emplace_back("authorization", "Bearer wrong");
  EXPECT_EQ(service.handle(bad).status, 401);

  HttpRequest good = make_request("POST", "/v1/jobs", plan_request_body());
  good.headers.emplace_back("authorization", "Bearer s3cret");
  EXPECT_EQ(service.handle(good).status, 202);
  EXPECT_EQ(engine.jobs_submitted(), 1u);
}

TEST(ServiceTest, TokenBucketRateLimitsPerClient) {
  Engine engine(fast_config(/*dispatch_threads=*/0));
  ServiceConfig config = quiet_service();
  config.rate_limit_per_s = 0.001;  // effectively no refill mid-test
  config.rate_burst = 2.0;
  Service service(engine, config);

  EXPECT_EQ(
      service.handle(make_request("POST", "/v1/jobs", plan_request_body()))
          .status,
      202);
  EXPECT_EQ(
      service.handle(make_request("POST", "/v1/jobs", plan_request_body()))
          .status,
      202);
  EXPECT_EQ(
      service.handle(make_request("POST", "/v1/jobs", plan_request_body()))
          .status,
      429);
  // Another client address has its own bucket.
  HttpRequest other = make_request("POST", "/v1/jobs", plan_request_body());
  other.client = "other";
  EXPECT_EQ(service.handle(other).status, 202);
  EXPECT_EQ(engine.jobs_submitted(), 3u);
}

TEST(ServiceTest, RateLimit429AdvertisesComputedRetryAfter) {
  // The Retry-After on a rate-limit 429 must reflect the actual bucket
  // state: at 0.001 tokens/s an empty bucket refills one token in 1000
  // seconds, and telling the client "1" would guarantee its polite retry
  // another 429. The header is ceil(deficit / rate), floored at 1.
  Engine engine(fast_config(/*dispatch_threads=*/0));
  ServiceConfig config = quiet_service();
  config.rate_limit_per_s = 0.001;
  config.rate_burst = 1.0;
  Service service(engine, config);

  ASSERT_EQ(
      service.handle(make_request("POST", "/v1/jobs", plan_request_body()))
          .status,
      202);
  const HttpResponse limited =
      service.handle(make_request("POST", "/v1/jobs", plan_request_body()));
  ASSERT_EQ(limited.status, 429);
  std::string retry_after;
  for (const auto& [key, value] : limited.headers) {
    if (key == "Retry-After") retry_after = value;
  }
  // The bucket refilled for the elapsed microseconds between the two
  // requests, so the deficit is a hair under one full token: still 1000
  // seconds after the ceil unless the test stalls for a second or more.
  EXPECT_EQ(retry_after, "1000");
}

TEST(ServiceTest, MalformedWaitMsIsRejectedWith400) {
  // strtod parses "nan" and "inf" happily, and NaN slips past a plain
  // `< 0` guard; a NaN long-poll budget then poisons every duration
  // comparison downstream. All malformed forms must be a clean 400 —
  // and on POST, a 400 that leaves no trace in the engine.
  Engine engine(fast_config(/*dispatch_threads=*/0));
  Service service(engine, quiet_service());

  for (const char* bad : {"nan", "inf", "-inf", "-5", "10abc", "abc"}) {
    const HttpResponse posted = service.handle(make_request(
        "POST", std::string("/v1/jobs?wait_ms=") + bad, plan_request_body()));
    EXPECT_EQ(posted.status, 400) << "wait_ms=" << bad;
  }
  EXPECT_EQ(engine.jobs_submitted(), 0u);

  // Same contract on the poll route.
  const HttpResponse posted =
      service.handle(make_request("POST", "/v1/jobs", plan_request_body()));
  ASSERT_EQ(posted.status, 202);
  const std::string target =
      "/v1/jobs/" + std::to_string(Json::parse(posted.body).at("id").as_uint());
  EXPECT_EQ(service.handle(make_request("GET", target + "?wait_ms=nan")).status,
            400);
  EXPECT_EQ(service.handle(make_request("GET", target + "?wait_ms=inf")).status,
            400);
  // A well-formed zero (and an absent parameter) still poll immediately.
  EXPECT_EQ(service.handle(make_request("GET", target + "?wait_ms=0")).status,
            200);
  EXPECT_EQ(service.handle(make_request("GET", target)).status, 200);
}

TEST(ServiceTest, QueueQuotaBoundsPerClientBacklog) {
  Engine engine(fast_config(/*dispatch_threads=*/0));
  ServiceConfig config = quiet_service();
  config.queue_quota = 2;
  Service service(engine, config);

  const HttpResponse first =
      service.handle(make_request("POST", "/v1/jobs", plan_request_body()));
  ASSERT_EQ(first.status, 202);
  ASSERT_EQ(
      service.handle(make_request("POST", "/v1/jobs", plan_request_body()))
          .status,
      202);
  EXPECT_EQ(
      service.handle(make_request("POST", "/v1/jobs", plan_request_body()))
          .status,
      429);

  // Cancelling one job frees quota.
  const std::uint64_t id = Json::parse(first.body).at("id").as_uint();
  service.handle(make_request("DELETE", "/v1/jobs/" + std::to_string(id)));
  EXPECT_EQ(
      service.handle(make_request("POST", "/v1/jobs", plan_request_body()))
          .status,
      202);
}

TEST(ServiceTest, MalformedJobRequestsLeaveNoEngineState) {
  // The deterministic fuzz corpus of the parser boundary: every entry
  // must produce a clean 400 and leave the engine untouched.
  Engine engine(fast_config(/*dispatch_threads=*/0));
  Service service(engine, quiet_service());

  std::vector<std::string> corpus = {
      "",
      "not json at all",
      "{",
      "[1,2,3]",
      "{\"kind\":\"plan\",\"job\":{}}",  // missing schema
      "{\"schema\":\"ndft.job_request.v0\",\"kind\":\"plan\",\"job\":{}}",
      "{\"schema\":\"ndft.job_request.v1\",\"job\":{}}",  // missing kind
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"nonsense\","
      "\"job\":{}}",
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"plan\",\"job\":3}",
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"plan\","
      "\"job\":{\"atoms\":\"many\"}}",
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"band_structure\","
      "\"job\":{\"mp_grid\":[2,2]}}",
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"codesign\","
      "\"job\":{}}",  // codesign without the required trace
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"simulate\","
      "\"job\":{\"mode\":\"TPU\"}}",
      // Structurally valid but semantically invalid (validation layer):
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"scf\","
      "\"job\":{\"atoms\":7}}",
      // Integers outside their C++ type (would wrap to 1, [2,2,2], 60):
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"band_structure\","
      "\"job\":{\"segments\":4294967297}}",
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"band_structure\","
      "\"job\":{\"mp_grid\":[4294967298,2,2]}}",
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"scf\","
      "\"job\":{\"scf\":{\"max_iterations\":4294967356}}}",
      // A fraction for an integer (would truncate to 64):
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"plan\","
      "\"job\":{\"atoms\":64.9}}",
      // Misspelled or unknown members (would run with the defaults):
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"scf\","
      "\"job\":{\"ecut_Ry\":9.0}}",
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"band_structure\","
      "\"job\":{\"kpoints\":[{\"k\":[0,0,0],\"wieght\":0.5}]}}",
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"plan\","
      "\"job\":{},\"priority\":3}",
      // Non-objects where objects belong (would run with the defaults):
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"scf\","
      "\"job\":{\"scf\":3}}",
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"lrtddft\","
      "\"job\":{\"config\":[1,2]}}",
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"plan\","
      "\"job\":{\"profile_override\":[7,\"x\"]}}",
      // Override link rates the cost model cannot divide by:
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"plan\","
      "\"job\":{\"profile_override\":[{},{}]}}",
      "{\"schema\":\"ndft.job_request.v1\",\"kind\":\"plan\","
      "\"job\":{\"profile_override\":["
      "{\"kind\":\"CPU\",\"peak_gflops\":768.0,\"dram_gbps\":100.0,"
      "\"link_gbps\":250.0},"
      "{\"kind\":\"NDP\",\"peak_gflops\":409.6,\"dram_gbps\":2000.0,"
      "\"link_gbps\":null}]}}",
  };
  // Deterministic truncations/corruptions of a valid request round out
  // the corpus (fixed seed: the same bytes every run).
  const std::string valid = plan_request_body();
  std::mt19937 rng(20260808u);
  for (int i = 0; i < 40; ++i) {
    std::string mutated = valid;
    const std::size_t cut = rng() % valid.size();
    if (i % 2 == 0) {
      mutated = valid.substr(0, cut);  // truncation
    } else {
      mutated[cut] = static_cast<char>(rng() % 256);  // byte corruption
    }
    if (mutated == valid) continue;
    // A corruption inside a number/string can still parse as valid JSON
    // with a valid shape; only keep mutations that are actually broken.
    try {
      (void)api::validate(api::job_request_from_json(Json::parse(mutated)));
      continue;
    } catch (const NdftError&) {
    }
    corpus.push_back(mutated);
  }

  for (const std::string& body : corpus) {
    const HttpResponse response =
        service.handle(make_request("POST", "/v1/jobs", body));
    EXPECT_EQ(response.status, 400) << "body: " << body;
    const Json error = Json::parse(response.body);
    EXPECT_TRUE(error.has("error")) << "body: " << body;
  }
  // Zero engine-side state leakage: nothing submitted, nothing queued.
  EXPECT_EQ(engine.jobs_submitted(), 0u);
  EXPECT_EQ(engine.jobs_pending(), 0u);
  // And the service still works: a valid request is accepted.
  EXPECT_EQ(service.handle(make_request("POST", "/v1/jobs", valid)).status,
            202);
}

// ----------------------------------------------------- end-to-end sockets

TEST(EndToEndTest, BandStructureOverWireMatchesInProcessBitwise) {
  // Serial in-process reference.
  Engine reference(fast_config(/*dispatch_threads=*/0));
  api::BandStructureJob job;
  job.segments = 2;
  const JobResult expected = reference.run(job);
  ASSERT_TRUE(expected.ok()) << expected.error_message;

  TestServer ts;
  HttpClient client = ts.client();
  const HttpResponse response = client.post(
      "/v1/jobs?wait_ms=60000", api::job_request_to_json(job).dump());
  ASSERT_EQ(response.status, 200) << response.body;

  const Json body = Json::parse(response.body);
  EXPECT_EQ(body.at("schema").as_string(), "ndft.job_result.v1");
  EXPECT_EQ(body.at("status").as_string(), "ok");
  // Bitwise identity of the physics: the payload (every energy, gap and
  // counter, printed with %.17g) must equal the in-process run exactly.
  // Timings and queue metadata legitimately differ across transports.
  EXPECT_EQ(body.at("payload").dump(),
            expected.to_json().at("payload").dump());
}

TEST(EndToEndTest, SixteenConcurrentClientsMatchSerialBitwise) {
  // The api_test stress mix, pushed over real sockets: 4 copies x 4
  // execution modes, 16 client threads, one POST each with a long poll.
  std::vector<JobRequest> requests;
  for (int copy = 0; copy < 4; ++copy) {
    for (const core::ExecMode mode :
         {core::ExecMode::kCpuBaseline, core::ExecMode::kGpuBaseline,
          core::ExecMode::kNdpOnly, core::ExecMode::kNdft}) {
      api::SimulateJob job;
      job.atoms = 16;
      job.mode = mode;
      requests.emplace_back(job);
    }
  }

  // Small samples. The per-core bounds, more than
  // sampled_ops_per_kernel, set the size of fast_config's Si_16 runs, so
  // all three shrink. The 16 concurrent simulations then finish well
  // inside the clients' 30 s timeout under ThreadSanitizer too.
  EngineConfig config = fast_config(/*dispatch_threads=*/0);
  config.system.sampled_ops_per_kernel = 500;
  config.system.min_ops_per_core = 20;
  config.system.max_ops_per_core = 200;
  Engine serial(config);
  std::vector<std::string> expected;
  for (const JobRequest& request : requests) {
    const JobResult result = serial.run(request);
    ASSERT_TRUE(result.ok()) << result.error_message;
    expected.push_back(result.to_json().at("payload").dump());
  }

  config.dispatch_threads = 8;
  TestServer ts(config);
  std::vector<std::string> actual(requests.size());
  std::vector<int> statuses(requests.size(), 0);
  // An exception escaping a client thread would std::terminate the whole
  // binary; each client records it instead and the test fails with it.
  std::vector<std::string> errors(requests.size());
  std::vector<std::thread> clients;
  clients.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    clients.emplace_back([&, i] {
      try {
        HttpClient client("127.0.0.1", ts.server.port());
        const HttpResponse response =
            client.post("/v1/jobs?wait_ms=60000",
                        api::job_request_to_json(requests[i]).dump());
        statuses[i] = response.status;
        if (response.status == 200) {
          actual[i] = Json::parse(response.body).at("payload").dump();
        }
      } catch (const std::exception& error) {
        errors[i] = error.what();
      }
    });
  }
  for (std::thread& thread : clients) thread.join();

  for (std::size_t i = 0; i < requests.size(); ++i) {
    ASSERT_EQ(errors[i], "") << "client " << i << " threw";
    ASSERT_EQ(statuses[i], 200) << "client " << i;
    EXPECT_EQ(actual[i], expected[i])
        << "job " << i << " diverged over the socket";
  }

  // /metrics reflects the storm exactly.
  HttpClient client = ts.client();
  const std::string metrics = client.get("/metrics").body;
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_submitted_total"), 16u);
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_completed_total"), 16u);
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_started_total"), 16u);
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_cancelled_total"), 0u);
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_retried_total"), 0u);
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_pending"), 0u);
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_running"), 0u);
  EXPECT_EQ(ts.service.responses_with_status(200), 17u);  // 16 posts + this
}

TEST(EndToEndTest, KeepAlivePlanStormsServeEveryRequest) {
  // 1, 8 and 64 keep-alive clients, each sending 25 long-polled PlanJobs
  // (submit -> execute -> result in one round trip) over one connection.
  constexpr std::size_t kRequestsPerClient = 25;
  TestServer ts(fast_config(/*dispatch_threads=*/4));
  const std::string body = api::job_request_to_json(api::PlanJob{}).dump();
  std::uint64_t total = 0;
  for (const std::size_t clients : {1u, 8u, 64u}) {
    std::vector<std::size_t> served(clients, 0);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          HttpClient client("127.0.0.1", ts.server.port());
          for (std::size_t i = 0; i < kRequestsPerClient; ++i) {
            if (client.post("/v1/jobs?wait_ms=60000", body).status == 200) {
              ++served[c];
            }
          }
        } catch (const NdftError&) {
          // A lost connection leaves the client's remaining requests
          // unserved; the count below reports it.
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (std::size_t c = 0; c < clients; ++c) {
      EXPECT_EQ(served[c], kRequestsPerClient)
          << "client " << c << " of " << clients;
    }
    total += clients * kRequestsPerClient;
  }

  // /metrics counts the storm exactly.
  HttpClient client = ts.client();
  const std::string metrics = client.get("/metrics").body;
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_submitted_total"), total);
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_completed_total"), total);
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_started_total"), total);
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_cancelled_total"), 0u);
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_retried_total"), 0u);
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_pending"), 0u);
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_running"), 0u);
  EXPECT_EQ(ts.service.responses_with_status(200), total + 1);  // + this
}

TEST(EndToEndTest, CancelOverSocketIsCounted) {
  TestServer ts(fast_config(/*dispatch_threads=*/0));
  HttpClient client = ts.client();

  const HttpResponse posted =
      client.post("/v1/jobs", plan_request_body());
  ASSERT_EQ(posted.status, 202) << posted.body;
  const std::uint64_t id = Json::parse(posted.body).at("id").as_uint();

  const HttpResponse cancelled =
      client.del("/v1/jobs/" + std::to_string(id));
  ASSERT_EQ(cancelled.status, 200);
  EXPECT_EQ(Json::parse(cancelled.body).at("status").as_string(),
            "cancelled");

  const std::string metrics = client.get("/metrics").body;
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_submitted_total"), 1u);
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_cancelled_total"), 1u);
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_completed_total"), 0u);
}

TEST(EndToEndTest, MalformedHttpGetsCleanErrorsAndNoEngineLeakage) {
  TestServer ts(fast_config(/*dispatch_threads=*/0));

  struct Case {
    const char* wire;
    int status;  // 0 = server just closes without a response (truncated)
  };
  const Case cases[] = {
      {"GARBAGE\r\n\r\n", 400},
      {"GET / HTTP/2.0\r\n\r\n", 505},
      {"POST /v1/jobs HTTP/1.1\r\nContent-Length: 999999999999999999999"
       "\r\n\r\n",
       400},
      {"POST /v1/jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n{}", 413},
      {"POST /v1/jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n[]", 400},
  };
  for (const Case& c : cases) {
    net::Socket socket = net::Socket::connect("127.0.0.1", ts.server.port());
    socket.send_all(std::string(c.wire));
    HttpParser parser(HttpParser::Kind::kResponse);
    char buf[4096];
    while (parser.state() == HttpParser::State::kNeedMore) {
      const long n = socket.recv_some(buf, sizeof(buf), 5000.0);
      ASSERT_GT(n, 0) << "no response for: " << c.wire;
      parser.feed(buf, static_cast<std::size_t>(n));
    }
    ASSERT_EQ(parser.state(), HttpParser::State::kDone) << c.wire;
    EXPECT_EQ(parser.response().status, c.status) << c.wire;
  }

  // Oversized body limit with a small configured cap gets 413 before the
  // body even arrives (tested above with the default 16M cap declared
  // larger than the limit). A connection truncated mid-headers must not
  // wedge the server either:
  {
    net::Socket socket = net::Socket::connect("127.0.0.1", ts.server.port());
    socket.send_all(std::string("POST /v1/jobs HTTP/1.1\r\nContent-Le"));
    socket.close();
  }

  // Zero engine-side leakage, and the server still serves valid traffic.
  HttpClient client = ts.client();
  EXPECT_EQ(client.get("/healthz").status, 200);
  const std::string metrics = client.get("/metrics").body;
  EXPECT_EQ(metric_value(metrics, "ndft_engine_jobs_submitted_total"), 0u);
  EXPECT_EQ(ts.engine.jobs_pending(), 0u);
}

TEST(EndToEndTest, NetAcceptFaultReplaysDeterministically) {
  // net.accept rides the NDFT_FAULTS grammar: the same spec must drop
  // the same connections (by sequence) across two independent runs.
  const auto run_pattern = [](int attempts) {
    fault_install(FaultSpec::parse("seed=11;net.accept=0.4"));
    std::vector<bool> pattern;
    std::uint64_t dropped = 0;
    {
      TestServer ts(fast_config(/*dispatch_threads=*/0));
      for (int i = 0; i < attempts; ++i) {
        // One fresh connection per attempt so the accept sequence is
        // exactly the attempt index.
        bool ok = false;
        try {
          HttpClient client("127.0.0.1", ts.server.port());
          ok = client.get("/healthz").status == 200;
        } catch (const NdftError&) {
          ok = false;  // connection dropped at accept
        }
        pattern.push_back(ok);
      }
      dropped = ts.server.connections_dropped();
    }
    fault_clear();
    std::size_t drops_seen = 0;
    for (const bool ok : pattern) drops_seen += ok ? 0 : 1;
    EXPECT_EQ(dropped, drops_seen);
    return pattern;
  };

  const std::vector<bool> first = run_pattern(12);
  const std::vector<bool> second = run_pattern(12);
  EXPECT_EQ(first, second) << "fault pattern did not replay";
  // The spec actually bites: some dropped, some served.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST(EndToEndTest, GracefulShutdownDrainsInFlightWork) {
  auto ts = std::make_unique<TestServer>(fast_config(/*dispatch_threads=*/2));
  HttpClient client = ts->client();
  const HttpResponse posted = client.post(
      "/v1/jobs?wait_ms=60000",
      api::job_request_to_json(api::SimulateJob{.atoms = 16}).dump());
  ASSERT_EQ(posted.status, 200) << posted.body;
  // The daemon's drain sequence: stop the server, then drain the engine.
  ts->server.shutdown();
  ts->engine.drain();
  EXPECT_EQ(ts->engine.jobs_completed(), ts->engine.jobs_submitted());
}

}  // namespace
}  // namespace ndft
