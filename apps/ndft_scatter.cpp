// ndft_scatter: the scatter/gather CLI. Builds a ShardedEngine over a
// mix of in-process engines and remote ndft_serve instances, runs one
// job through it, prints the merged ndft.job_result.v1 document to
// stdout and the fan-out accounting to stderr. The payload is bitwise
// identical to what a single engine would produce for the same request
// (see docs/SHARDING.md), so this doubles as a quick conformance probe
// against a live cluster.
//
// Usage: ndft_scatter [options]
//   --local N           in-process backend engines, 0-256 (default 4 when
//                       no --connect is given, else 0)
//   --connect HOST:PORT remote ndft_serve backend, PORT 1-65535
//                       (repeatable)
//   --auth-token T      bearer token sent to remote backends
//   --job FILE          ndft.job_request.v1 JSON to run ("-" = stdin;
//                       default: a 4x4x4 Monkhorst-Pack band job)
//   --mp N              grid of the default band job, 1-64 (default 4)
//   --shards N          target sub-jobs per backend, 1-1024 (default 4)
//   --no-fallback       fail instead of degrading to local execution
//                       when every backend is down
//   --quiet             suppress the fan-out summary on stderr
//
// A malformed or out-of-range number exits with code 2 and a message.

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "api/request_json.hpp"
#include "api/shard.hpp"
#include "common/json.hpp"
#include "core/cli.hpp"

namespace {

[[noreturn]] void usage_error(const char* argv0, const std::string& what) {
  std::fprintf(stderr, "%s: %s (see the header comment for usage)\n", argv0,
               what.c_str());
  std::exit(2);
}

std::string read_all(std::FILE* file) {
  std::string text;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, file)) > 0) {
    text.append(buffer, n);
  }
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t local = 0;
  bool local_set = false;
  struct Remote {
    std::string host;
    std::uint16_t port = 0;
  };
  std::vector<Remote> remotes;
  std::string bearer;
  std::string job_path;
  unsigned mp = 4;
  ndft::api::ShardedEngineConfig shard_config;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error(argv[0], arg + " needs a value");
      return argv[++i];
    };
    const auto number = [&](const std::string& text, long min,
                            long max) -> long {
      try {
        return ndft::core::parse_int(text, min, max, arg);
      } catch (const ndft::NdftError& error) {
        usage_error(argv[0], error.what());
      }
    };
    if (arg == "--local") {
      local = static_cast<std::size_t>(number(value(), 0, 256));
      local_set = true;
    } else if (arg == "--connect") {
      const std::string spec = value();
      const std::size_t colon = spec.rfind(':');
      if (colon == std::string::npos || colon + 1 >= spec.size()) {
        usage_error(argv[0], "--connect wants HOST:PORT, got " + spec);
      }
      Remote remote;
      remote.host = spec.substr(0, colon);
      remote.port = static_cast<std::uint16_t>(
          number(spec.substr(colon + 1), 1, 65535));
      remotes.push_back(std::move(remote));
    } else if (arg == "--auth-token") {
      bearer = value();
    } else if (arg == "--job") {
      job_path = value();
    } else if (arg == "--mp") {
      mp = static_cast<unsigned>(number(value(), 1, 64));
    } else if (arg == "--shards") {
      shard_config.shards_per_backend =
          static_cast<std::size_t>(number(value(), 1, 1024));
    } else if (arg == "--no-fallback") {
      shard_config.allow_local_fallback = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("see the header comment of apps/ndft_scatter.cpp\n");
      return 0;
    } else {
      usage_error(argv[0], "unknown option " + arg);
    }
  }
  if (!local_set && remotes.empty()) local = 4;
  if (local == 0 && remotes.empty()) {
    usage_error(argv[0], "no backends: give --local N and/or --connect");
  }

  try {
    ndft::api::JobRequest request;
    if (job_path.empty()) {
      ndft::api::BandStructureJob job;
      job.sampling = ndft::api::BandStructureJob::Sampling::kMonkhorstPack;
      job.mp_grid[0] = job.mp_grid[1] = job.mp_grid[2] = mp;
      request = job;
    } else {
      std::string text;
      if (job_path == "-") {
        text = read_all(stdin);
      } else {
        std::FILE* file = std::fopen(job_path.c_str(), "r");
        if (file == nullptr) {
          std::fprintf(stderr, "%s: cannot open %s\n", argv[0],
                       job_path.c_str());
          return 1;
        }
        text = read_all(file);
        std::fclose(file);
      }
      request = ndft::api::job_request_from_json(ndft::Json::parse(text));
    }

    std::vector<std::unique_ptr<ndft::api::Engine>> engines;
    std::vector<std::shared_ptr<ndft::api::Backend>> backends;
    for (std::size_t i = 0; i < local; ++i) {
      ndft::api::EngineConfig config;
      config.dispatch_threads = 0;  // backends run on the sharder workers
      engines.push_back(std::make_unique<ndft::api::Engine>(config));
      backends.push_back(std::make_shared<ndft::api::LocalBackend>(
          *engines.back(), "local-" + std::to_string(i)));
    }
    for (const Remote& remote : remotes) {
      ndft::api::HttpBackend::Config config;
      config.host = remote.host;
      config.port = remote.port;
      config.bearer = bearer;
      backends.push_back(
          std::make_shared<ndft::api::HttpBackend>(std::move(config)));
    }
    ndft::api::ShardedEngine sharded(std::move(backends), shard_config);

    const ndft::api::JobResult result = sharded.run(request);
    const std::string text = result.to_json().dump(2);
    std::fwrite(text.data(), 1, text.size(), stdout);
    std::fputc('\n', stdout);

    if (!quiet) {
      std::fprintf(
          stderr,
          "ndft_scatter: %zu backends, %llu shards executed, "
          "%llu rerouted, %llu backends failed, %llu local-fallback\n",
          sharded.backend_count(),
          static_cast<unsigned long long>(sharded.shards_executed()),
          static_cast<unsigned long long>(sharded.shards_rerouted()),
          static_cast<unsigned long long>(sharded.backends_failed()),
          static_cast<unsigned long long>(sharded.local_fallback_shards()));
    }
    return result.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ndft_scatter: fatal: %s\n", e.what());
    return 1;
  }
}
