"""The names the benchmark's tracer hooks stay in the package.

``perfbench/spans.py`` wraps package functions and methods by name, among
them ``PartialEmbedding.lift`` and ``adopt`` (frame open and close),
``extend_one`` and ``certify_path_windows``.  A change that drops or renames
one of them makes ``perfbench/run.py --trace 1`` fail; installing that
tracer here makes the same change fail the test suite too.
"""

import importlib.util
from pathlib import Path

import rainbowcube.embed as embed
from rainbowcube import VirtualCayleyCube, cayley_coloring, format_embedding
from rainbowcube.gen import random_spider

from test_golden import comb

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def outputs():
    """Embeddings with traces of a comb and a spider, looked up by module name."""
    cases = [(VirtualCayleyCube(12), comb(12)), (cayley_coloring(7), random_spider((3, 2, 2)))]
    return [
        format_embedding(embed.embed_rainbow_tree(g, t, seed=seed), include_trace=True)
        for g, t in cases
        for seed in (None, 1)
    ]


def test_tracing_changes_no_output_and_sees_the_frames():
    spans = load_spans()
    plain = outputs()
    originals = (embed.PartialEmbedding.lift, embed.PartialEmbedding.adopt, embed.extend_one)
    tracer = spans.Tracer().install()
    try:
        traced = outputs()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert (embed.PartialEmbedding.lift, embed.PartialEmbedding.adopt, embed.extend_one) == originals
    assert tracer.calls["embed.lift"] == tracer.calls["embed.adopt"] > 0
    assert tracer.counts["embed.lift_vertices"] > 0
    assert tracer.calls["embed.certify_path_windows"] > 0
    steps = sum(len(tracer.steps[label]) for label in spans.STEP_LABELS)
    assert steps == tracer.calls["embed.extend_one"] > 0
