// ndft_serve: the NDFT service daemon. Binds an HTTP/1.1 port, maps the
// /v1/jobs routes onto one api::Engine, and drains gracefully on
// SIGTERM/SIGINT: stop accepting, finish in-flight requests, let queued
// jobs complete, then exit 0. See docs/SERVICE.md for the protocol.
//
// Usage: ndft_serve [options]
//   --port N            listen port, 0-65535 (default 8424; 0 = ephemeral,
//                       printed)
//   --address A         bind address (default 127.0.0.1)
//   --dispatch N        engine dispatcher threads, 0-256 (default 2)
//   --auth-token T      accepted bearer token (repeatable; default: the
//                       NDFT_AUTH_TOKENS env var, else open access)
//   --rate-limit R      whole requests/s per client address, 0-1000000
//                       (default 0: off)
//   --burst B           rate-limit burst size, 0-1000000 (default: same as
//                       rate)
//   --quota N           max queued+running jobs per client, 0-1000000
//                       (default 0: off)
//   --max-connections N concurrent connections, 1-4096 (default 256)
//   --quiet             disable the per-request log line
//
// A malformed or out-of-range number exits with code 2 and a message.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.hpp"
#include "core/cli.hpp"
#include "net/server.hpp"
#include "net/service.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

[[noreturn]] void usage_error(const char* argv0, const std::string& what) {
  std::fprintf(stderr, "%s: %s (see the header comment for usage)\n", argv0,
               what.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  ndft::net::ServerConfig server_config;
  server_config.port = 8424;
  ndft::net::ServiceConfig service_config;
  ndft::api::EngineConfig engine_config;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(argv[0], arg + " needs a value");
      return argv[++i];
    };
    const auto number = [&](long min, long max) -> long {
      try {
        return ndft::core::parse_int(value(), min, max, arg);
      } catch (const ndft::NdftError& error) {
        usage_error(argv[0], error.what());
      }
    };
    if (arg == "--port") {
      server_config.port = static_cast<std::uint16_t>(number(0, 65535));
    } else if (arg == "--address") {
      server_config.bind_address = value();
    } else if (arg == "--dispatch") {
      engine_config.dispatch_threads =
          static_cast<std::size_t>(number(0, 256));
    } else if (arg == "--auth-token") {
      service_config.auth_tokens.push_back(value());
    } else if (arg == "--rate-limit") {
      service_config.rate_limit_per_s =
          static_cast<double>(number(0, 1000000));
    } else if (arg == "--burst") {
      service_config.rate_burst = static_cast<double>(number(0, 1000000));
    } else if (arg == "--quota") {
      service_config.queue_quota = static_cast<std::size_t>(number(0, 1000000));
    } else if (arg == "--max-connections") {
      server_config.max_connections =
          static_cast<std::size_t>(number(1, 4096));
    } else if (arg == "--quiet") {
      service_config.log = nullptr;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("see the header comment of apps/ndft_serve.cpp\n");
      return 0;
    } else {
      usage_error(argv[0], "unknown option " + arg);
    }
  }

  try {
    ndft::api::Engine engine(engine_config);
    ndft::net::Service service(engine, service_config);
    ndft::net::HttpServer server(
        server_config,
        [&service](const ndft::net::HttpRequest& request) {
          return service.handle(request);
        });
    server.start();
    std::fprintf(stderr, "ndft_serve: listening on %s:%u (%zu dispatchers)\n",
                 server_config.bind_address.c_str(),
                 static_cast<unsigned>(server.port()),
                 engine.dispatch_threads());

    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }

    // Graceful drain: stop accepting and finish in-flight requests first,
    // then let already-queued jobs run to completion. Per-job deadlines
    // and client cancellations keep applying throughout.
    std::fprintf(stderr, "ndft_serve: draining on signal\n");
    server.shutdown();
    engine.drain();
    std::fprintf(
        stderr,
        "ndft_serve: done (%llu submitted, %llu completed, %llu cancelled, "
        "%llu requests)\n",
        static_cast<unsigned long long>(engine.jobs_submitted()),
        static_cast<unsigned long long>(engine.jobs_completed()),
        static_cast<unsigned long long>(engine.jobs_cancelled()),
        static_cast<unsigned long long>(server.requests_served()));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ndft_serve: fatal: %s\n", e.what());
    return 1;
  }
}
