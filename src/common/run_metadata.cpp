#include "common/run_metadata.hpp"

#include <cstdio>
#include <string>

#include "common/thread_pool.hpp"

// The SHA header is regenerated by CMake on every build (cmake/
// git_sha.cmake), so incremental rebuilds after a commit stamp the right
// revision; the build type is a configure-time property. The fallbacks
// keep non-CMake builds (and source tarballs) compiling.
#if __has_include("ndft_git_sha.h")
#include "ndft_git_sha.h"
#endif
#ifndef NDFT_GIT_SHA
#define NDFT_GIT_SHA "unknown"
#endif
#ifndef NDFT_BUILD_TYPE
#define NDFT_BUILD_TYPE "unknown"
#endif

namespace ndft {

const char* build_git_sha() noexcept { return NDFT_GIT_SHA; }

const char* build_type() noexcept { return NDFT_BUILD_TYPE; }

Json run_metadata_json() {
  Json meta = Json::object();
  meta.set("git_sha", build_git_sha());
  meta.set("build_type", build_type());
  meta.set("pool_threads", ThreadPool::instance().threads());
  return meta;
}

bool write_bench_json(const char* path, const Json& bench) {
  std::FILE* file = std::fopen(path, "w");
  if (file == nullptr) return false;
  const std::string text = bench.dump(2);
  const bool written =
      std::fwrite(text.data(), 1, text.size(), file) == text.size() &&
      std::fputc('\n', file) != EOF;
  return std::fclose(file) == 0 && written;
}

}  // namespace ndft
