#!/usr/bin/env bash
# One-shot tier-1 gate: configure, build, and run the full test suite.
# The fast kernel tier (ctest label `kernel`) runs first so a broken
# numerical kernel fails the gate before the physics/simulator tiers pay
# their startup cost.
#
# Usage: scripts/verify.sh [--tier LABEL] [--bench-smoke] [--sanitize]
#                          [--tsan] [--portable] [build-dir]
#   (default build-dir: build)
#   --tier LABEL   build, then run only the ctest tier LABEL (kernel,
#                  physics, api, robust, trace, net, shard or sim) and
#                  stop — e.g. `--tier sim` while iterating on the
#                  simulator.
#   --bench-smoke  additionally run the three bench drivers whose records
#                  nothing else produces: bench_micro_engine (the
#                  disabled-faults Engine path must stay within noise of
#                  an armed p=0 spec; BENCH_engine.json), bench_sim_fabric
#                  (machine-document simulations must reproduce bitwise;
#                  BENCH_sim.json) and bench_paper_claims (the paper
#                  ledger, regenerated in a temporary directory: every
#                  part but "meta" must equal the committed
#                  BENCH_paper.json; needs python3). The correctness
#                  gates it used to run live in ctest:
#                    syevd/partial gates        bench_micro_eig_smoke (kernel)
#                    per-class fault contracts  robust_test
#                      FaultSweepTest.EverySiteHonoursItsClassContract (robust)
#                    1/8/64-client storm        net_test
#                      EndToEndTest.KeepAlivePlanStormsServeEveryRequest (net)
#                    sharded bitwise + 1.7x     shard_test
#                      ShardedEngineScalingTest.DenseGridStaysBitwiseAndFourBackendsReach1_7x
#                      (shard; the speedup half skips below 4 hardware threads)
#                    co-design loop closes      codesign_test
#                      CoDesignTest.RecordedTraceReplaysThroughEngine (sim)
#   --sanitize     additionally build an ASan+UBSan tree (build-asan,
#                  -DNDFT_SANITIZE=ON) and run the api, robust, net and
#                  shard tiers (the robust tier carries the fault-site
#                  sweep, so every site's fault path runs instrumented;
#                  net and shard carry the thread-per-connection server,
#                  the HTTP client and the scatter workers), the
#                  simulator unit tests (sim, cache, cpu, mem, noc, ndp:
#                  the event core's slot reuse and in-place callables, and
#                  every component queue on it), common_test (the thread
#                  pool's join/close hand-off), fft_test (the FFT line
#                  engine's lane buffers, its loads straight from grid
#                  storage and the plan cache) and linalg_test and
#                  kpoints_test (the window solver's reused workspace
#                  buffers, GEMM pack regions and per-thread k-point
#                  solvers) under it, plus extensions_test's ScfFixture
#                  tests (the SCF's two parity blocks solved on two
#                  threads at once, one workspace each, and the worker's
#                  linalg time handed back) and integration_test's
#                  RunContractTest tests (each distinct kernel simulated
#                  on its own machine across the pool, and serially with
#                  faults armed); any sanitizer report fails the gate.
#                  physics_test stays out: its goldens drift under ASan
#                  (ROADMAP item 1).
#   --tsan         additionally build a ThreadSanitizer tree (build-tsan,
#                  `cmake --preset tsan`: -fsanitize=thread) and run
#                  common_test (the thread pool, with its join/close
#                  stress and placement tests), fft_test (plans built
#                  while four threads race for a new length), linalg_test
#                  and kpoints_test (the pool's heaviest callers: GEMM row
#                  blocks and the band k-loop), extensions_test's
#                  ScfFixture tests (the SCF's parity blocks on two
#                  threads), integration_test's RunContractTest tests
#                  (a run's distinct kernels simulated across the pool)
#                  and the api, net and
#                  shard tiers (the Engine's dispatchers, queue and
#                  concurrent simulations, the HTTP server's connection
#                  threads, the client and the scatter workers) under it;
#                  a race report makes the test exit nonzero and fails the
#                  gate. The robust tier stays out: its starvation test's
#                  8 s limit races TSan speed (it passed in 4 of 4 runs
#                  once simulations used the pool; ROADMAP item 1).
#   --portable     additionally build a portable tree (build-portable,
#                  -DNDFT_NATIVE_ARCH=OFF: no -march=native, so no
#                  AVX-512 on x86-64) and run the kernel tier under it.
#                  It is the only build that compiles the kernels'
#                  non-AVX-512 code: dot_range's scalar path, the GEMM
#                  microkernel's generic loop, and the bisection lanes
#                  lowered to narrower vectors.
set -euo pipefail

cd "$(dirname "$0")/.."
BENCH_SMOKE=0
SANITIZE=0
TSAN=0
PORTABLE=0
TIER=""
BUILD_DIR="build"
while [ "$#" -gt 0 ]; do
  case "$1" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    --sanitize) SANITIZE=1 ;;
    --tsan) TSAN=1 ;;
    --portable) PORTABLE=1 ;;
    --tier)
      [ "$#" -ge 2 ] || { echo "verify.sh: --tier needs a label" >&2; exit 2; }
      TIER="$2"; shift ;;
    -*) echo "verify.sh: unknown option '$1'" >&2; exit 2 ;;
    *) BUILD_DIR="$1" ;;
  esac
  shift
done
JOBS="$(nproc 2>/dev/null || echo 2)"

if [ -n "$TIER" ] && { [ "$BENCH_SMOKE" -eq 1 ] || [ "$PORTABLE" -eq 1 ] ||
                       [ "$TSAN" -eq 1 ]; }; then
  # --tier is an iteration shortcut that stops after one ctest label; it
  # would silently skip the extra gates the caller asked for.
  echo "verify.sh: --tier cannot be combined with --bench-smoke, --tsan or --portable" >&2
  exit 2
fi

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$JOBS"

if [ -n "$TIER" ]; then
  ctest --test-dir "$BUILD_DIR" -L "$TIER" --output-on-failure -j "$JOBS"
  echo "tier '$TIER': OK"
  exit 0
fi

ctest --test-dir "$BUILD_DIR" -L kernel --output-on-failure -j "$JOBS"
ctest --test-dir "$BUILD_DIR" -LE kernel --output-on-failure -j "$JOBS"

# API smoke: one simulation job end to end through the Engine, emitting a
# machine-readable JobResult that must be valid JSON.
SMOKE_JSON="$BUILD_DIR/smoke_ndft_run.json"
"$BUILD_DIR/example_ndft_run" --atoms 16 --mode ndft --json > "$SMOKE_JSON"
if command -v python3 >/dev/null 2>&1; then
  python3 -m json.tool "$SMOKE_JSON" >/dev/null
else
  grep -q '"schema": "ndft.job_result.v1"' "$SMOKE_JSON"
fi
echo "ndft_run --json smoke: OK ($SMOKE_JSON)"

if [ "$BENCH_SMOKE" -eq 1 ]; then
  # Disabled-faults engine path must stay within noise of the armed one.
  (cd "$BUILD_DIR" && ./bench_micro_engine --smoke)
  echo "engine overhead smoke: OK ($BUILD_DIR/BENCH_engine.json)"
  # Event-fabric determinism: simulating the same "ndft.machine.v1"
  # document twice must produce bitwise-identical payloads.
  (cd "$BUILD_DIR" && ./bench_sim_fabric --smoke)
  echo "sim fabric smoke: OK ($BUILD_DIR/BENCH_sim.json)"
  # Paper ledger: simulated values are deterministic, so a fresh run must
  # reproduce every part of the committed BENCH_paper.json but "meta".
  LEDGER_DIR="$(mktemp -d)"
  trap 'rm -rf "$LEDGER_DIR"' EXIT
  LEDGER_BIN="$(cd "$BUILD_DIR" && pwd)/bench_paper_claims"
  (cd "$LEDGER_DIR" && "$LEDGER_BIN" > paper_claims.txt)
  python3 - "$LEDGER_DIR/BENCH_paper.json" BENCH_paper.json <<'PY'
import json
import sys

fresh, committed = (json.load(open(path)) for path in sys.argv[1:])
fresh.pop("meta", None)
committed.pop("meta", None)
if fresh != committed:
    old = {row["id"]: row for row in committed.get("rows", [])}
    new = {row["id"]: row for row in fresh.get("rows", [])}
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(f"{key}: committed {old.get(key)}, now {new.get(key)}",
                  file=sys.stderr)
    sys.exit("paper ledger: BENCH_paper.json does not reproduce")
PY
  echo "paper ledger smoke: OK (BENCH_paper.json reproduces)"
fi

if [ "$SANITIZE" -eq 1 ]; then
  # Instrumented pass over the tiers that exercise concurrency, fault
  # paths, sockets and cancellation races, over the simulator unit
  # tests, where placement-new lifetimes and reused event slots live, and
  # over the pool's tests (the join/close hand-off) and the window
  # solver's, where workspace buffers are reused across solves and
  # threads; -fno-sanitize-recover=all makes any report fail the run.
  SAN_DIR="build-asan"
  UNIT_TESTS='^(sim|cache|cpu|mem|noc|ndp|common|fft|linalg|kpoints)_test$'
  cmake -B "$SAN_DIR" -S . -DNDFT_SANITIZE=ON
  cmake --build "$SAN_DIR" -j "$JOBS"
  ctest --test-dir "$SAN_DIR" -L 'api|robust|net|shard' --output-on-failure \
    -j "$JOBS"
  ctest --test-dir "$SAN_DIR" -R "$UNIT_TESTS" --output-on-failure \
    -j "$JOBS"
  "$SAN_DIR/extensions_test" --gtest_filter='ScfFixture.*'
  "$SAN_DIR/integration_test" --gtest_filter='RunContractTest.*'
  echo "sanitize (api|robust|net|shard + simulator, common, fft, linalg, kpoints unit tests, SCF and run-contract tests): OK ($SAN_DIR)"
fi

if [ "$TSAN" -eq 1 ]; then
  # Race detector over the pool, its heaviest callers and the threaded
  # tiers. TSan exits nonzero from a run that reported a race, so ctest
  # fails it.
  TSAN_DIR="build-tsan"
  cmake --preset tsan
  cmake --build "$TSAN_DIR" -j "$JOBS" --target common_test fft_test \
    linalg_test kpoints_test extensions_test integration_test api_test \
    net_test shard_test
  ctest --test-dir "$TSAN_DIR" -R '^(common|fft|linalg|kpoints)_test$' \
    --output-on-failure -j "$JOBS"
  "$TSAN_DIR/extensions_test" --gtest_filter='ScfFixture.*'
  "$TSAN_DIR/integration_test" --gtest_filter='RunContractTest.*'
  ctest --test-dir "$TSAN_DIR" -L 'api|net|shard' --output-on-failure \
    -j "$JOBS"
  echo "tsan (common, fft, linalg, kpoints, SCF and run-contract tests + api|net|shard): OK ($TSAN_DIR)"
fi

if [ "$PORTABLE" -eq 1 ]; then
  # The same kernel tier without -march=native: the non-AVX-512 branches
  # must build and pass the same bitwise and accuracy tests.
  PORTABLE_DIR="build-portable"
  cmake -B "$PORTABLE_DIR" -S . -DNDFT_NATIVE_ARCH=OFF
  cmake --build "$PORTABLE_DIR" -j "$JOBS"
  ctest --test-dir "$PORTABLE_DIR" -L kernel --output-on-failure -j "$JOBS"
  echo "portable (kernel): OK ($PORTABLE_DIR)"
fi
