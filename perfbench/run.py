#!/usr/bin/env python3
"""The repository benchmark: builds the driver and runs one workload.

One run:
    python3 perfbench/run.py --workload scf_si8 --seed 1 --seconds 30 --trace 0

builds perfbench/ (the NDFT library plus the ndft_perfbench driver) into
.bench_build/perfbench, then runs the workload with the kernel pool pinned
to two threads. The driver's last stdout line is the JSON result; with
--trace 1 the spans of the traced window are written to
.bench_build/perfbench/spans/<workload>-seed<N>.json.

A/A steadiness check (two sets of runs of one build):
    python3 perfbench/run.py --aa [--runs 10] [--workloads a,b] [--seconds 30]

prints, for every end-to-end metric of every workload, each set's median
and quartile spread against the metric's bound from BENCHMARK.json, and
the drift of the second set's median from the first. It exits nonzero
when a spread or drift exceeds its bound. perfbench/README.md records the
last such check.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "ndft_perfbench"
WORKLOADS = ("scf_si8", "service_mix", "sim_si64")
# Kernel pool width for every workload: a wider pool widened the run-to-run
# spread on a 4-vCPU host and leaves no core for the generator and server.
POOL_THREADS = "2"
RUN_TIMEOUT_S = 170
SPEC = ROOT / "BENCHMARK.json"


def build():
    """Configures (once) and builds the driver; returns False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "ndft_perfbench",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-20:]
                sys.stderr.write("perfbench: build failed:\n" +
                                 "\n".join(tail) + "\n")
                return False
    return True


def run_driver(workload, seed, seconds, trace, capture=False):
    """Runs one workload; returns (exit code, stdout text or None)."""
    env = dict(os.environ, NDFT_NUM_THREADS=POOL_THREADS)
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--spec", str(SPEC)]
    if trace:
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        command += ["--spans-out", str(spans / f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s\n")
        return 1, None
    return done.returncode, done.stdout


def parse_output(text):
    """All end-to-end metrics of one run: the result line's and the
    workload-specific ones of the stamp line (marked "exact" when
    simulated)."""
    lines = text.strip().splitlines()
    metrics = dict(json.loads(lines[-1])["metrics"])
    for line in lines:
        if line.startswith("stamp "):
            metrics.update(json.loads(line[len("stamp "):])["workload_metrics"])
    return metrics


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def aa_check(workloads, runs, seconds):
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    report = {}
    for workload in workloads:
        sets = []
        for offset in (0, 100):
            values = {}
            for seed in range(offset + 1, offset + runs + 1):
                started = time.time()
                code, text = run_driver(workload, seed, seconds, 0, capture=True)
                if code != 0 or not text:
                    print(f"{workload} seed {seed}: FAILED (exit {code})")
                    ok = False
                    continue
                for name, metric in parse_output(text).items():
                    if metric.get("exact"):
                        bounds[name] = "exact"
                    values.setdefault(name, []).append(metric["value"])
                sys.stderr.write(f"  {workload} seed {seed}: "
                                 f"{time.time() - started:.1f} s\n")
            sets.append(values)
        print(f"\n{workload}: {runs} + {runs} runs of {seconds} s")
        print(f"  {'metric':28} {'bound':>6} {'median A':>12} {'median B':>12}"
              f" {'IQR A':>7} {'IQR B':>7} {'IQR all':>7} {'drift':>7}")
        report[workload] = {}
        for name in sorted(sets[0]):
            a, b = sets[0][name], sets[1].get(name, [])
            if len(a) < 2 or len(b) < 2:
                continue
            bound = bounds.get(name)
            med_a, med_b = statistics.median(a), statistics.median(b)
            if bound == "exact":
                good = len(set(a + b)) == 1
                print(f"  {name:28} {'exact':>6} {med_a:12.6g} {med_b:12.6g}"
                      f"  {'identical' if good else 'DIFFER'}")
                ok = ok and good
                continue
            iqr_a, iqr_b, iqr_all = spread(a), spread(b), spread(a + b)
            drift = (med_b - med_a) / med_a if med_a else 0.0
            if bound is None:
                verdict, shown = "  (reported, not bounded)", "-"
            else:
                good = abs(drift) <= bound and max(iqr_a, iqr_b) <= bound
                ok = ok and good
                verdict, shown = ("" if good else "  OVER BOUND"), f"{bound:.2f}"
            print(f"  {name:28} {shown:>6} {med_a:12.6g} {med_b:12.6g}"
                  f" {iqr_a:7.3f} {iqr_b:7.3f} {iqr_all:7.3f} {drift:+7.3f}"
                  f"{verdict}")
            report[workload][name] = {
                "bound": bound, "median_a": med_a, "median_b": med_b,
                "iqr_a": iqr_a, "iqr_b": iqr_b, "iqr_all": iqr_all,
                "drift": drift, "values_a": a, "values_b": b}
    (BUILD / "aa_report.json").write_text(json.dumps(report, indent=1))
    print("\nA/A " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--aa", action="store_true",
                        help="A/A steadiness check over two sets of runs")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set in --aa mode")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated workloads for --aa")
    args = parser.parse_args()
    if not args.aa and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.aa:
        return aa_check(args.workloads.split(","), args.runs, args.seconds)
    code, _ = run_driver(args.workload, args.seed, args.seconds, args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
