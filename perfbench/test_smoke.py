"""Smoke test of the benchmark at tiny sizes: Q_20, refined Q_5 and Q_6, 20 fuzz trials.

    python3 -m pytest perfbench -q

It fails when any output fails its check, or when tracing changes an output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import clock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = [
    workloads.ImplicitBigTrees(dims=(20,), blocks=2),
    workloads.ExplicitWideHosts(dims=(5, 6), blocks=2),
    workloads.FuzzCrosscheck(blocks=2),
]


def digests(workload, seed: int = 1):
    """The corpus digest untraced and traced, with the runner and tracer."""
    inputs = workload.inputs(seed)
    runner = run.Runner(workload, inputs)
    plain, _ = runner.corpus_pass(workload.load(inputs.hosts))
    tracer = spans.Tracer().install()
    try:
        traced, _ = runner.corpus_pass(workload.load(inputs.hosts))
    finally:
        tracer.uninstall()
    return plain, traced, runner, tracer


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_outputs_verify_and_tracing_changes_no_output(workload):
    plain, traced, runner, tracer = digests(workload)
    assert runner.failed == 0, runner.first_failure
    assert runner.attempted == 2 * len(workload.inputs(1).requests)
    assert plain == traced
    assert tracer.calls["embed.embed_rainbow_tree"] > 0
    assert sum(tracer.layer_metrics()[f"embed.step.{label}.count"][0]
               for label in spans.STEP_LABELS) == tracer.calls["embed.extend_one"]


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_seed_fixes_the_inputs(workload):
    assert digests(workload, 1)[0] == digests(workload, 1)[0]
    assert digests(workload, 1)[0] != digests(workload, 2)[0]


def test_uninstall_restores_the_package():
    originals = (workloads.embed.extend_one, workloads.hypercube.GraphView.delta,
                 workloads.verify.oracle_find, workloads.embed.build_tree)
    spans.Tracer().install().uninstall()
    assert originals == (workloads.embed.extend_one, workloads.hypercube.GraphView.delta,
                         workloads.verify.oracle_find, workloads.embed.build_tree)


def test_a_wrong_embedding_is_a_failure(monkeypatch):
    engine = workloads.embed.embed_rainbow_tree

    def broken(g, t, **kwargs):
        pe = engine(g, t, **kwargs)
        pe.image[t.n - 1] = pe.image[0]
        return pe

    monkeypatch.setattr(workloads.embed, "embed_rainbow_tree", broken)
    monkeypatch.setattr(workloads.verify, "embed_rainbow_tree", broken)  # cross_check's
    for workload in TINY:
        runner = digests(workload)[2]
        assert runner.failed > 0 and "verify failed" in runner.first_failure


def test_a_control_that_embeds_is_a_failure(monkeypatch):
    oracle = workloads.verify.oracle_find

    def lying(g, t, *args, **kwargs):
        result = oracle(g, t, *args, **kwargs)
        if not result.found:
            result.found, result.image = True, {}
        return result

    monkeypatch.setattr(workloads.verify, "oracle_find", lying)
    runner = digests(TINY[2])[2]
    assert runner.failed > 0 and "sharpness control" in runner.first_failure


def test_each_request_counts_with_its_median_pass():
    times = [float(t) for t in range(1, 22)]  # 21 requests: p50 11, tail 11
    expected = {"p50": 11.0, "tail": 11.0, "tail_percentile": 100 * (1 - 10 / 21),
                "rate": 21 / sum(times)}
    assert run.timings([times]) == expected
    slowed = [[10 * t if i % 3 == k else t for i, t in enumerate(times)] for k in range(3)]
    assert run.timings(slowed) == expected
    assert run.timings([[10 * t for t in times]] * 3) != expected
    assert run.timings([[None, 1.0, 3.0], [2.0, None, 4.0]])["p50"] == 2.0


def test_time_is_scaled_by_the_calibration_loop_around_it():
    assert clock.scale(0.5, clock.NOMINAL_S, clock.NOMINAL_S) == 0.5
    assert clock.scale(0.5, clock.NOMINAL_S, 3 * clock.NOMINAL_S) == 0.25
    assert clock.loop_seconds() > 0
    workload = TINY[2]
    runner = run.Runner(workload, workload.inputs(1))
    _, scaled = runner.corpus_pass(workload.load({}))
    (unscaled,) = runner.unscaled
    assert len(scaled) == len(unscaled) == len(workload.inputs(1).requests)
    ratios = {round(s / u, 9) for s, u in zip(scaled, unscaled)}
    assert 0 < len(ratios) < len(scaled)  # one factor per stretch of work


def test_a_run_whose_every_request_fails_prints_an_incorrect_result(monkeypatch, capsys):
    workload = TINY[2]

    def failing(hosts, req):
        raise workloads.RequestFailed("always")

    monkeypatch.setattr(workload, "run", failing)
    metrics, report, runner = run.measure(workload, 1, 0.0)
    assert not run.print_result(metrics, report, runner)
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"] > 0
    assert result["metrics"]["requests_per_s"]["value"] == 0.0


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_a_correct_result(trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "fuzz-crosscheck",
         "--seed", "3", "--seconds", "0.2", "--trace", trace],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "fuzz-crosscheck",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert out.returncode != 0 and not out.stdout
