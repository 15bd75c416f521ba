"""Benchmark of the rainbowcube package, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation serves one workload in this interpreter, closed loop: one
client, no threads, each request sent after the previous one returns.
`--workload all` runs every workload in turn, each in a fresh interpreter.

A workload's inputs are one fixed corpus of requests.  --trace 0 serves it
in passes for the given seconds and measures the end-to-end metrics with
tracing off, in time scaled to a reference speed (see clock.py).  --trace 1
alternates untraced and traced passes and reports per-layer metrics from
the traced ones, with the tracing overhead.  The last line of output is one
JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_PASSES = 3
TAIL_BEYOND = 10  # the tail is the slowest request with this many beyond it
SEGMENT_S = 0.1  # the calibration loop runs between stretches of this much work
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import clock; "
    "before = clock.loop_seconds(); t = time.perf_counter(); import rainbowcube; "
    "t = time.perf_counter() - t; print(clock.scale(t, before, clock.loop_seconds()))"
)


def import_seconds() -> float:
    """Median scaled time to import the package in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout))
    return statistics.median(times)


def timings(passes: list[list[float | None]]) -> dict[str, float]:
    """The timing metrics, in seconds, over the corpus.  Each request counts
    with the median of its passes, so that one odd pass moves nothing.  A
    request that failed in every pass is left out; with no request left
    every figure is 0."""
    best = sorted(statistics.median(t for t in ts if t is not None)
                  for ts in zip(*passes) if any(t is not None for t in ts))
    if not best:
        return {"p50": 0.0, "tail": 0.0, "tail_percentile": 0.0, "rate": 0.0}
    beyond = min(TAIL_BEYOND, len(best) - 1)
    return {
        "p50": statistics.median(best),
        "tail": best[-1 - beyond],
        "tail_percentile": 100 * (1 - beyond / len(best)),
        "rate": len(best) / sum(best),
    }


class Runner:
    """Serves one workload's requests and counts failures."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.attempted = self.failed = 0
        self.first_failure = ""
        self.unscaled = []  # each pass's request seconds as the wall clock read them

    def serve(self, hosts, req):
        """(output, seconds) of one request, or None when it failed; the time
        runs from the first library call to the end of the request's check."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = self.workload.run(hosts, req)
        except Exception as exc:  # a failed request is counted, never fatal or timed
            self.failed += 1
            if not self.first_failure:
                self.first_failure = f"{type(exc).__name__}: {exc}"
            return None
        return out, perf_counter() - start

    def corpus_pass(self, hosts) -> tuple[str, list[float | None]]:
        """Serve the corpus once, in order: the sha256 of the outputs, and
        each request's scaled seconds (None for a failed request).  The
        calibration loop runs before the first request and after every
        stretch of SEGMENT_S seconds; a stretch is scaled by the loop times
        on either side of it."""
        h, times, stretch = hashlib.sha256(), [], []
        self.unscaled.append([])
        before, start = clock.loop_seconds(), perf_counter()
        for i, req in enumerate(self.inputs.requests, 1):
            done = self.serve(hosts, req)
            h.update(b"failed\n" if done is None else self.workload.digest_text(done[0]).encode())
            stretch.append(None if done is None else done[1])
            if i == len(self.inputs.requests) or perf_counter() - start >= SEGMENT_S:
                after = clock.loop_seconds()
                times += [None if t is None else clock.scale(t, before, after) for t in stretch]
                self.unscaled[-1] += stretch
                stretch, before, start = [], after, perf_counter()
        return h.hexdigest(), times


def environment(seed: int, limit_before: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "recursionlimit_before": limit_before,
        "recursionlimit_after": sys.getrecursionlimit(),
    }


def measure(workload, seed: int, seconds: float) -> tuple[dict, dict, Runner]:
    """End-to-end metrics, tracing off."""
    limit_before = sys.getrecursionlimit()
    inputs = workload.inputs(seed)
    runner = Runner(workload, inputs)

    load_times = []
    for _ in range(SETUP_REPEATS):
        hosts = None  # drop the previous hosts first, so each load starts alike
        before, start = clock.loop_seconds(), perf_counter()
        hosts = workload.load(inputs.hosts)
        wall = perf_counter() - start
        load_times.append(clock.scale(wall, before, clock.loop_seconds()))
    import_s, load_s = import_seconds(), statistics.median(load_times)

    # Passes, at least MIN_PASSES, while the next one fits in `seconds`.
    # The first pass needs no warm-up before it: each request counts with
    # its median pass, so a cold first pass moves nothing.  Every pass must
    # give the first pass's digest.
    passes, digests = [], []
    deadline = perf_counter() + seconds
    last = 0.0
    while len(passes) < MIN_PASSES or perf_counter() + last < deadline:
        start = perf_counter()
        pass_digest, times = runner.corpus_pass(hosts)
        last = perf_counter() - start
        digests.append(pass_digest)
        passes.append(times)
    digest = digests[0]
    t = timings(passes)
    metrics = {
        "latency_p50_ms": (t["p50"] * 1e3, "ms"),
        "latency_tail_ms": (t["tail"] * 1e3, "ms"),
        "requests_per_s": (t["rate"], "1/s"),
        "success_ratio": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (import_s + load_s, "s"),
    }
    report = {
        "workload": workload.name,
        "env": environment(seed, limit_before),
        "digest": digest,
        "passes_match_digest": set(digests) == {digest},
        "failed_ratio": runner.failed / runner.attempted,
        "requests": len(inputs.requests),
        "passes": len(passes),
        "tail_percentile": t["tail_percentile"],
        "setup": {"import_s": import_s, "host_load_s": load_s},
        "unscaled": timings(runner.unscaled),
    }
    return metrics, report, runner


def trace(workload, seed: int, seconds: float) -> tuple[dict, dict, Runner]:
    """Per-layer metrics: untraced and traced passes (host load plus the
    corpus) alternate for `seconds`."""
    import spans  # imports the package, so only once it is on the path

    limit_before = sys.getrecursionlimit()
    inputs = workload.inputs(seed)
    runner = Runner(workload, inputs)

    def one_pass(tracer=None):
        start = perf_counter()
        if tracer:
            tracer.install()
        try:
            digest, _ = runner.corpus_pass(workload.load(inputs.hosts))
        finally:
            if tracer:
                tracer.uninstall()
        return digest, perf_counter() - start

    reference, _ = one_pass()  # also the warm-up
    plain, traced, layers, digests = [], [], [], set()
    # untraced and traced pass in turn, while the next turn fits in `seconds`
    deadline = perf_counter() + seconds
    while not traced or perf_counter() + plain[-1] + traced[-1] < deadline:
        digest, wall = one_pass()
        digests.add(digest)
        plain.append(wall)
        tracer = spans.Tracer()
        digest, wall = one_pass(tracer)
        digests.add(digest)
        traced.append(wall)
        layers.append(tracer.layer_metrics())

    metrics = {}
    repeat_ok = True
    for name, (value, unit) in layers[0].items():
        if unit == "s":
            value = statistics.median(run[name][0] for run in layers)
        elif any(run[name][0] != value for run in layers):
            repeat_ok = False  # counts and step telemetry must repeat exactly
        metrics[name] = (value, unit)
    # each traced pass is compared with the untraced pass just before it
    overhead = statistics.median(t - u for u, t in zip(plain, traced))
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / statistics.median(plain), "ratio")
    report = {
        "workload": workload.name,
        "env": environment(seed, limit_before),
        "digest": reference,
        "traced_digest_matches": digests == {reference},
        "counts_repeat": repeat_ok,
        "passes": len(traced),
        "call_graph": tracer.call_graph(),
    }
    return metrics, report, runner


def print_result(metrics: dict, report: dict, runner: Runner) -> bool:
    correct = (
        runner.failed == 0
        and report.get("traced_digest_matches", True)
        and report.get("passes_match_digest", True)
        and report.get("counts_repeat", True)
    )
    env = report["env"]
    print(
        f"workload {report['workload']}  seed {env['seed']}  python {env['python']}"
        f"  nproc {env['nproc']}  recursionlimit {env['recursionlimit_before']}"
        f" -> {env['recursionlimit_after']}"
    )
    print(f"digest {report['digest']}")
    if runner.first_failure:
        print(f"first failure: {runner.first_failure}")
    if "tail_percentile" in report:
        print(
            f"failed_ratio {report['failed_ratio']}  {report['passes']} passes over"
            f" {report['requests']} requests  tail = p{report['tail_percentile']:.4g}"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {unit}")
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return correct


def run_all(args, names) -> int:
    """Every workload in turn, each in a fresh interpreter."""
    status = 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, timeout=600).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rainbowcube" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'rainbowcube'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    metrics, report, runner = (trace if args.trace else measure)(workload(), args.seed, args.seconds)
    return 0 if print_result(metrics, report, runner) else 1


if __name__ == "__main__":
    sys.exit(main())
