#pragma once
// Shared provenance block for every machine-readable artifact the repo
// emits (the BENCH_*.json files): git revision, build type and kernel
// pool width, stamped through one helper so the perf trajectory stays
// comparable across commits and machines, and the one writer that puts
// those files on disk.

#include "common/json.hpp"

namespace ndft {

/// Git SHA the build was configured from ("unknown" outside a checkout).
const char* build_git_sha() noexcept;

/// CMake build type the binary was compiled as ("Release", "Debug", ...).
const char* build_type() noexcept;

/// The provenance object every BENCH_*.json emitter sets under "meta":
/// {"git_sha", "build_type", "pool_threads"}.
Json run_metadata_json();

/// Writes `bench` to `path` as two-space-indented JSON plus a trailing
/// newline, replacing the file. Returns false when it cannot be written.
bool write_bench_json(const char* path, const Json& bench);

}  // namespace ndft
