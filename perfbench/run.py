#!/usr/bin/env python3
"""Connected-components benchmark: file to labels, sharded, serving and
many small graphs, timed end to end and layer by layer.

    python3 perfbench/run.py --workload skewed_rmat --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench_driver (perfbench/CMakeLists.txt, Release) from the
checkout's sources, sets every input up from the seed several times, runs
the measuring passes in a fresh process, checks every result against the
union-find reference, and prints one JSON line as the last line of
standard output.  --trace 0 prints the end-to-end metrics; --trace 1
prints the per-layer ones.  perfbench/README.md lists them all.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
# Driver processes run in WORK under these relative names (see
# driver_env), so their argument strings have the same length in every
# checkout and for every seed.
DRIVER = Path("..") / "perfbench" / "perfbench_driver"
DATA = Path("data")
WORKLOADS = ("skewed_rmat", "road_grid")
ALL_PIPELINES = "labels,planned,sharded,small,serve"
SOLVE_PIPELINES = "labels,planned,sharded,small"
SPEEDUP_PIPELINES = ("labels", "planned", "sharded", "small")
# Setup runs at least SETUP_REPEATS times, and again while the repeats
# together took under SETUP_SECONDS: a setup of a third of a second is
# dominated by file-system noise, and more repeats steady its median.
SETUP_REPEATS = 3
SETUP_SECONDS = 4.0
SETUP_MAX_REPEATS = 15
# Every run must end within 180 s of its start (the build excepted).
RUN_DEADLINE_S = 175.0
BUILD_TIMEOUT_S = 850.0
MIN_COVERAGE = 0.95
# Small-graph figures are taken per window of this many consecutive solves
# (four passes over the set) and reported as the median over windows, so
# a slow spell of the host that covers a minority of the run moves them
# little.  Each window's p99 still has 20 solves beyond it.
SMALL_WINDOW = 2048
# labels_p90_ms is taken per window of this many consecutive labels
# samples (a few seconds of the run) and reported as the median over the
# ten or more windows.  A pooled p90 flips between the host's quiet and
# slow modes whenever its slow spells cover about a tenth of a run; a
# spell that covers under half of the windows leaves this median alone.
LABELS_WINDOW = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "labels_p50_ms": "ms",
    "labels_p90_ms": "ms",
    "planned_p50_ms": "ms",
    "sharded_p50_ms": "ms",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "ingest_edges_per_s": "1/s",
    "small_solves_per_s": "1/s",
    "small_p50_us": "us",
    "small_p99_us": "us",
    "peak_rss_mib": "MiB",
}


def fixed_layout():
    """Runs in each driver process before exec: turns address-space
    randomisation off.  Where objects land decides whether some data the
    threads share fall on one cache line, and that alone moves the
    fork/join-bound solves by up to 1.5x.  With randomisation off, and
    with the environment, arguments and working directory of every
    driver process fixed (driver_env, DRIVER, DATA), every run lays the
    process out alike."""
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | 0x0040000)  # ADDR_NO_RANDOMIZE


class BenchFailure(Exception):
    """The benchmark itself could not run (build, setup, timeout)."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def percentile(values, fraction):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def counted_percentile(counts, fraction):
    """Nearest-rank percentile of (value, count) pairs."""
    counts = sorted(counts)
    rank = max(1, math.ceil(fraction * sum(c for _, c in counts)))
    seen = 0
    for value, count in counts:
        seen += count
        if seen >= rank:
            return value
    raise ValueError("no values")


def driver_env(threads):
    """The whole environment of a driver process.  Its size moves the
    initial stack, so it holds only what the program reads: the thread
    count and any other OMP_* setting of the caller."""
    env = {k: v for k, v in sorted(os.environ.items()) if k.startswith("OMP_")}
    env["OMP_NUM_THREADS"] = str(threads)
    return env


def thread_count():
    text = os.environ.get("OMP_NUM_THREADS", "").split(",")[0].strip()
    return int(text) if text.isdigit() and int(text) > 0 else len(
        os.sched_getaffinity(0))


class Runner:
    def __init__(self, deadline):
        self.deadline = deadline

    def call(self, command, env=None, timeout=None, cwd=ROOT):
        """Runs `command` to completion (killed and reaped on timeout)."""
        remaining = self.deadline - time.monotonic()
        if timeout is None:
            timeout = remaining
        if timeout <= 0:
            raise BenchFailure("out of time before: " + " ".join(map(str, command)))
        try:
            done = subprocess.run(
                [str(c) for c in command], cwd=cwd, env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                timeout=timeout, check=False, preexec_fn=fixed_layout)
        except subprocess.TimeoutExpired as e:
            raise BenchFailure(f"timed out: {' '.join(map(str, command))}") from e
        if done.returncode != 0:
            raise BenchFailure(
                f"{' '.join(map(str, command))} exited {done.returncode}:\n"
                f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
        return done.stdout


def build(runner):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchFailure("no library sources next to perfbench/")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        runner.call(["cmake", "-S", ROOT / "perfbench", "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], timeout=BUILD_TIMEOUT_S)
    jobs = str(len(os.sched_getaffinity(0)))
    runner.call(["cmake", "--build", BUILD, "-j", jobs, "--target",
                 "perfbench_driver"], timeout=BUILD_TIMEOUT_S)
    WORK.mkdir(parents=True, exist_ok=True)
    if not (WORK / DRIVER).is_file():
        raise BenchFailure(f"no driver at {WORK / DRIVER}")


def drive(runner, args, env):
    """Runs the driver with `args` from WORK."""
    return runner.call([DRIVER, *args], env=env, cwd=WORK)


def setup(runner, workload, seed, env):
    """Sets the inputs up several times from scratch; every repeat must
    reproduce the same fingerprints, and so must earlier runs of the same
    seed in this checkout."""
    times, phases, fingerprints = [], [], None
    while len(times) < SETUP_REPEATS or (
            sum(times) < SETUP_SECONDS and len(times) < SETUP_MAX_REPEATS):
        shutil.rmtree(WORK / DATA, ignore_errors=True)
        start = time.perf_counter()
        drive(runner, ["setup", "--workload", workload, "--seed", str(seed),
                       "--dir", DATA], env)
        times.append(time.perf_counter() - start)
        result = json.loads((WORK / DATA / "setup.json").read_text())
        phases.append(result["phases_ms"])
        if fingerprints is None:
            fingerprints = result["inputs"]
        elif result["inputs"] != fingerprints:
            raise BenchFailure(f"seed {seed} gave two different inputs")
    # Flush the inputs now, so their writeback does not fall into the
    # measured passes.
    os.sync()
    known = WORK / "fingerprints" / f"{workload}-{seed}.json"
    if known.is_file():
        if json.loads(known.read_text()) != fingerprints:
            raise BenchFailure(
                f"seed {seed} gave other inputs than in an earlier run")
    else:
        known.parent.mkdir(parents=True, exist_ok=True)
        known.write_text(json.dumps(fingerprints, sort_keys=True))
    return times, phases, fingerprints


def measure(runner, name, seconds, pipelines, env, traced=False,
            mins=(100, 3, 3 * SMALL_WINDOW, 3), inject_fault=False):
    """One measuring process.  `mins` are the minimum samples of labels,
    of planned and sharded each, of small solves, and of serve."""
    out = DATA / f"{name}.json"
    spans = DATA / f"{name}.spans.jsonl"
    args = ["measure", "--dir", DATA, "--seconds", f"{seconds:g}",
            "--pipelines", pipelines, "--min-labels", mins[0],
            "--min-heavy", mins[1], "--min-small", mins[2],
            "--min-serve", mins[3], "--out", out]
    if traced:
        args += ["--traced", "--spans", spans]
    if inject_fault:
        args.append("--inject-fault")
    drive(runner, args, env)
    result = json.loads((WORK / out).read_text())
    if traced:
        with open(WORK / spans) as lines:
            result["spans"] = [json.loads(line) for line in lines]
    return result


def by_pipeline(result):
    groups = {}
    for sample in result["samples"]:
        groups.setdefault(sample["pipeline"], []).append(sample)
    return groups


def totals(result, pipeline):
    return [s["total_ms"] for s in by_pipeline(result).get(pipeline, [])]


def require(counts, name, have, need):
    counts[name] = have
    if have < need:
        raise BenchFailure(f"{name}: {have} samples, {need} needed")


def end_to_end(result, setup_times, counts):
    labels = totals(result, "labels")
    small = totals(result, "small")
    serves = result["serve"]
    require(counts, "labels", len(labels), 100)
    labels_windows = [labels[i:i + LABELS_WINDOW] for i in range(
        0, len(labels) - LABELS_WINDOW + 1, LABELS_WINDOW)]
    require(counts, "labels_windows", len(labels_windows), 10)
    require(counts, "planned", len(totals(result, "planned")), 3)
    require(counts, "sharded", len(totals(result, "sharded")), 3)
    windows = [small[i:i + SMALL_WINDOW]
               for i in range(0, len(small) - SMALL_WINDOW + 1, SMALL_WINDOW)]
    require(counts, "small_windows", len(windows), 3)
    counts["small"] = len(small)
    require(counts, "serve_samples", len(serves), 3)
    require(counts, "queries_per_serve_sample",
            min(s["queries"] for s in serves), 1000)
    counts["serve_batches"] = len(totals(result, "serve"))

    def over_serves(value):
        return statistics.median(value(s) for s in serves)

    def over_windows(value):
        return statistics.median(value(w) for w in windows)

    return {
        "setup_s": statistics.median(setup_times),
        "labels_p50_ms": percentile(labels, 0.50),
        "labels_p90_ms": statistics.median(
            percentile(w, 0.90) for w in labels_windows),
        "planned_p50_ms": percentile(totals(result, "planned"), 0.50),
        "sharded_p50_ms": percentile(totals(result, "sharded"), 0.50),
        "query_p50_us": over_serves(
            lambda s: counted_percentile(s["latency_ns_counts"], 0.50) / 1e3),
        "query_p99_us": over_serves(
            lambda s: counted_percentile(s["latency_ns_counts"], 0.99) / 1e3),
        "ingest_edges_per_s": over_serves(
            lambda s: s["ingested_edges"] / (s["ingest_ms"] / 1e3)),
        "small_solves_per_s": over_windows(lambda w: len(w) / (sum(w) / 1e3)),
        "small_p50_us": over_windows(lambda w: percentile(w, 0.50) * 1e3),
        "small_p99_us": over_windows(lambda w: percentile(w, 0.99) * 1e3),
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
    }


def span_tree(spans):
    """Groups spans into samples, checks that no child leaves or outgrows
    its parent, and returns (durations by (pipeline, name), worst
    coverage, problems).  Samples of 1 ms or more must each be covered;
    shorter ones, which one scheduler preemption between two spans can
    dominate, are covered in aggregate per pipeline."""
    durations, problems, children, short = {}, [], {}, {}
    for span in spans:
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(span)
    worst = 1.0
    for index, span in enumerate(spans):
        duration = (span["end_ns"] - span["start_ns"]) / 1e6
        durations.setdefault((span["pipeline"], span["name"]), []).append(
            (span["sample"], duration))
        if span["parent"] >= 0 or index not in children:
            continue
        inner = children[index]
        covered = sum(c["end_ns"] - c["start_ns"] for c in inner)
        whole = span["end_ns"] - span["start_ns"]
        if any(c["start_ns"] < span["start_ns"] or c["end_ns"] > span["end_ns"]
               for c in inner) or covered > whole:
            problems.append(f"span {index} ({span['name']}): a child "
                            "exceeds its parent")
        if whole >= 1_000_000:
            worst = min(worst, covered / whole)
        else:
            total = short.setdefault(span["pipeline"], [0, 0])
            total[0] += covered
            total[1] += whole
    for covered, whole in short.values():
        worst = min(worst, covered / whole)
    if worst < MIN_COVERAGE:
        problems.append(f"spans cover only {worst:.3f} of a sample")
    return durations, worst, problems


def per_layer(plain, traced, serial, phases, durations, coverage):
    def span_ms(pipeline, name):
        values = [d for _, d in durations.get((pipeline, name), [])]
        return statistics.median(values) if values else 0.0

    def stat(pipeline, key):
        values = [s[key] for s in by_pipeline(traced).get(pipeline, [])]
        return statistics.median(values) if values else 0.0

    def ratio(numerator, denominator, pipeline):
        a, b = totals(numerator, pipeline), totals(denominator, pipeline)
        return statistics.median(a) / statistics.median(b) if a and b else 0.0

    solve_ms = dict(durations.get(("sharded", "shard.solve"), []))
    other = [solve_ms[s["id"]] - s["shard.sweep_ms"] - s["shard.exchange_ms"]
             for s in by_pipeline(traced).get("sharded", [])
             if s["id"] in solve_ms]
    load_ms = span_ms("labels", "io.load")
    serves = traced["serve"]
    metrics = {
        "io.load_ms": load_ms,
        "io.load_mib_per_s": traced["main_file_bytes"] / 2**20 / (load_ms / 1e3),
        "core.solve_ms": span_ms("labels", "core.solve"),
        "core.canonical_ms": span_ms("labels", "core.canonical"),
        "core.iterations": stat("labels", "core.iterations"),
        "core.push_iterations": stat("labels", "core.push_iterations"),
        "core.label_changes": stat("labels", "core.label_changes"),
        "core.edges_processed_frac": traced["core.edges_processed_frac"],
        "plan.solve_ms": span_ms("planned", "plan.solve"),
        "plan.steps": stat("planned", "plan.steps"),
        "plan.pull_steps": stat("planned", "plan.pull_steps"),
        "plan.async_steps": stat("planned", "plan.async_steps"),
        "shard.manifest_ms": span_ms("sharded", "shard.manifest"),
        "shard.solve_ms": span_ms("sharded", "shard.solve"),
        "shard.sweep_ms": stat("sharded", "shard.sweep_ms"),
        "shard.exchange_ms": stat("sharded", "shard.exchange_ms"),
        "shard.other_ms": statistics.median(other) if other else 0.0,
        "shard.rounds": stat("sharded", "shard.rounds"),
        "shard.loads": stat("sharded", "shard.loads"),
        "shard.evictions": stat("sharded", "shard.evictions"),
        "shard.boundary_updates": stat("sharded", "shard.boundary_updates"),
        "shard.peak_window_mib": stat("sharded", "shard.peak_window_mib"),
        "small.solve_us": span_ms("small", "core.solve") * 1e3,
        "small.canonical_us": span_ms("small", "core.canonical") * 1e3,
        "serve.ingest_ms": span_ms("serve", "serve.ingest"),
        "serve.recompact_ms": span_ms("serve", "serve.recompact"),
        "serve.recompactions": statistics.median(
            s["recompactions"] for s in serves),
        "protocol.err_responses": sum(s["err_responses"] for s in serves),
    }
    for pipeline in SPEEDUP_PIPELINES:
        # Throughput at N threads over throughput at one: below 1 means
        # the team costs more than it gives.
        metrics[f"parallel.speedup.{pipeline}"] = ratio(serial, plain, pipeline)
        metrics[f"trace.overhead.{pipeline}"] = ratio(traced, plain, pipeline)
    metrics["trace.min_coverage"] = coverage
    for phase in ("gen.edges_ms", "graph.build_ms", "io.write_ms",
                  "shard.partition_ms", "shard.write_ms"):
        metrics[phase] = statistics.median(p[phase] for p in phases)
    return metrics


PER_LAYER_UNITS = {
    "io.load_ms": "ms", "io.load_mib_per_s": "MiB/s",
    "core.solve_ms": "ms", "core.canonical_ms": "ms",
    "core.iterations": "count", "core.push_iterations": "count",
    "core.label_changes": "count", "core.edges_processed_frac": "ratio",
    "plan.solve_ms": "ms", "plan.steps": "count", "plan.pull_steps": "count",
    "plan.async_steps": "count",
    "shard.manifest_ms": "ms", "shard.solve_ms": "ms", "shard.sweep_ms": "ms",
    "shard.exchange_ms": "ms", "shard.other_ms": "ms", "shard.rounds": "count",
    "shard.loads": "count", "shard.evictions": "count",
    "shard.boundary_updates": "count", "shard.peak_window_mib": "MiB",
    "small.solve_us": "us", "small.canonical_us": "us",
    "serve.ingest_ms": "ms", "serve.recompact_ms": "ms",
    "serve.recompactions": "count", "protocol.err_responses": "count",
    **{f"parallel.speedup.{p}": "ratio" for p in SPEEDUP_PIPELINES},
    **{f"trace.overhead.{p}": "ratio" for p in SPEEDUP_PIPELINES},
    "trace.min_coverage": "ratio",
    "gen.edges_ms": "ms", "graph.build_ms": "ms", "io.write_ms": "ms",
    "shard.partition_ms": "ms", "shard.write_ms": "ms",
    "error_rate": "ratio",
}


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def last_level_cache():
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level >= best["level"]:
            best = {"level": level, "size": size}
    return best or {"level": 0, "size": "unknown"}


def commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """Hash of the sources the driver was built from, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(
            (ROOT / "perfbench").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_record(args, threads, info, fingerprints, counts, errors, metrics):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "threads": threads, "simd": info["simd"],
        "address_randomisation": info["address_randomisation"],
        "driver_env": driver_env(threads),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("OMP_", "THRIFTY_"))},
        "cpu_model": cpu_model(), "llc": last_level_cache(),
        "main_csr_bytes_computed": fingerprints["main_csr_bytes"],
        "commit": commit(), "source_digest": source_digest(),
        "fingerprints": fingerprints, "sample_counts": counts,
        "errors": errors, "metrics": metrics,
    }


def bench(args):
    threads = thread_count()
    env = driver_env(threads)
    serial_env = driver_env(1)
    build(Runner(time.monotonic() + BUILD_TIMEOUT_S))
    runner = Runner(time.monotonic() + RUN_DEADLINE_S)
    info = json.loads(drive(runner, ["info"], env))
    try:
        setup_times, phases, fingerprints = setup(
            runner, args.workload, args.seed, env)
        counts = {}
        if args.trace == 0:
            result = measure(runner, "plain", args.seconds, ALL_PIPELINES,
                             env)
            passes = [result]
            metrics = end_to_end(result, setup_times, counts)
            problems = []
        else:
            # One third each: untraced N threads, traced N threads (with
            # serve and the instrumented solve), untraced one thread.
            third = args.seconds / 3
            quick = (20, 1, 512, 1)
            plain = measure(runner, "plain", third, SOLVE_PIPELINES, env,
                            mins=quick)
            traced = measure(runner, "traced", third, ALL_PIPELINES, env,
                             traced=True, mins=quick)
            serial = measure(runner, "serial", third, SOLVE_PIPELINES,
                             serial_env, mins=(5, 1, 512, 1))
            passes = [plain, traced, serial]
            durations, coverage, problems = span_tree(traced["spans"])
            metrics = per_layer(plain, traced, serial, phases, durations,
                                coverage)
            for name, result in (("plain", plain), ("traced", traced),
                                 ("serial", serial)):
                counts[name] = {p: len(s) for p, s in by_pipeline(result).items()}
    finally:
        shutil.rmtree(WORK / DATA, ignore_errors=True)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = [e for p in passes for e in p["errors"]] + problems
    if args.trace == 1:
        metrics["error_rate"] = failed / attempted
    units = END_TO_END_UNITS if args.trace == 0 else PER_LAYER_UNITS
    record = run_record(args, threads, info, fingerprints, counts, errors,
                        metrics)
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    log("run record:", json.dumps({k: record[k] for k in (
        "threads", "simd", "address_randomisation", "env", "cpu_model", "llc",
        "main_csr_bytes_computed", "commit", "source_digest",
        "sample_counts")}))
    for error in errors:
        log("error:", error)
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


def self_test():
    """Shows that the checks catch faults: the driver's own unit checks,
    then a real pass whose first labelling is corrupted on purpose."""
    build(Runner(time.monotonic() + BUILD_TIMEOUT_S))
    runner = Runner(time.monotonic() + RUN_DEADLINE_S)
    env = driver_env(thread_count())
    log(drive(runner, ["selftest"], env).rstrip())
    try:
        drive(runner, ["setup", "--workload", "road_grid", "--seed", "1",
                       "--dir", DATA], env)
        outcomes = [measure(runner, f"fault{fault}", 0.1, "labels", env,
                            mins=(3, 1, 1, 1), inject_fault=bool(fault))
                    for fault in (0, 1)]
    finally:
        shutil.rmtree(WORK / DATA, ignore_errors=True)
    clean, faulty = outcomes
    caught = faulty["failed"] == 1 and any(
        "not the reference partition" in e for e in faulty["errors"])
    log(f"clean pass: {clean['failed']} failed of {clean['attempted']}; "
        f"corrupted pass: {faulty['failed']} failed of {faulty['attempted']}")
    if clean["failed"] != 0 or not caught:
        log("self-test: FAILED")
        return 1
    log("self-test: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    overrides = sorted(k for k in os.environ if k.startswith("THRIFTY_"))
    if overrides:
        # A stray override would change the program being measured.
        log("refusing to run with THRIFTY_* set:", ", ".join(overrides))
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args)
    except BenchFailure as e:
        log("perfbench:", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
