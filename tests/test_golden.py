"""Golden corpus: the engine's embeddings and traces, byte for byte.

One sha256 covers ``format_embedding(pe, include_trace=True)`` and the
blocked vertex of every instance in a fixed corpus: implicit and explicit
hosts, path, comb, star, spider, even-spider-forest and random trees, each
run unseeded and with two tie-break seeds.  A change that must keep the
engine's output (an optimisation, a refactor) keeps this digest; a change
that means to alter the output replaces GOLDEN and says why.
"""

import hashlib

import pytest

import rainbowcube.embed as embed
from rainbowcube import (
    VirtualCayleyCube,
    build_tree,
    cayley_coloring,
    embed_rainbow_tree,
    format_embedding,
    path_tree,
    verify,
)
from rainbowcube.gen import random_spider, random_tree, refined_cayley, subgraph_min_degree
from rainbowcube.tree import enumerate_trees

from test_sweep import exact_delta_calls

GOLDEN = "1d3b114a8aa1854dcd7f1de84ee2449b2fb9c500edd49533e7875d4900e978ab"
GOLDEN_CASES = 144
SEEDS = (None, 1, 2)


def comb(edges):
    """A spine of ceil(edges/2) edges with a leaf off each spine vertex below the root."""
    spine = (edges + 1) // 2
    return build_tree(list(range(spine)) + list(range(1, edges - spine + 1)))


def even_spider_forest(edges):
    """Root children each topping a two-edge chain (the shape that reaches
    step3 and step5), then leaves at the root until `edges` edges are used."""
    parents = []
    while len(parents) + 3 <= edges:
        top = len(parents) + 1
        parents += [0, top, top + 1]
    return build_tree(parents + [0] * (edges - len(parents)))


def trees(edges, seed):
    yield path_tree(edges)
    yield comb(edges)
    yield build_tree([0] * edges)
    yield random_spider((edges // 3, edges // 3, edges - 2 * (edges // 3)))
    yield even_spider_forest(edges)
    yield random_tree(edges, seed)


def hosts():
    yield "virtual24", VirtualCayleyCube(24)
    yield "cayley6", cayley_coloring(6)
    yield "refined7", refined_cayley(7, 3, 2)
    yield "subgraph6", subgraph_min_degree(6, 5, 11)


def corpus():
    """(name, host, tree, seed) for every instance, in a fixed order."""
    for name, g in hosts():
        top = g.delta()
        for edges in (top, top - 1):
            for i, t in enumerate(trees(edges, 100 * edges + top)):
                for seed in SEEDS:
                    yield f"{name} e={edges} tree={i} seed={seed}", g, t, seed


def corpus_digest(instances=None, *, labels=None):
    """(sha256, case count) over the instances; `labels` gathers their stage labels."""
    h = hashlib.sha256()
    cases = 0
    for case, g, t, seed in corpus() if instances is None else instances:
        pe = embed_rainbow_tree(g, t, seed=seed)
        assert verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad).ok, case
        if labels is not None:
            labels.update(entry[0] for entry in pe.trace)
        h.update(f"case {case}\nz_bad {pe.z_bad}\n".encode())
        h.update(format_embedding(pe, include_trace=True).encode())
        cases += 1
    return h.hexdigest(), cases


STAGE_LABELS = {"half", "step1", "step2", "step3", "step4", "step5", "step7-mid", "spider0", "path"}


def test_corpus_reaches_every_stage():
    labels = set()
    for _, g, t, seed in corpus():
        labels.update(entry[0] for entry in embed_rainbow_tree(g, t, seed=seed).trace)
    assert labels >= STAGE_LABELS


def test_golden_digest(monkeypatch):
    calls = exact_delta_calls(monkeypatch)
    assert corpus_digest() == (GOLDEN, GOLDEN_CASES)
    # the paper's bound alone decides every degree check of the engine
    assert calls == []


# The deep corpus: 200-edge trees in Q_200, deep enough for the extension to
# open frames many levels down and at positions far from their ids.
DEEP = "15c13d94c79a82a8e27965b7bd33a1e80aa8538b4bff6e8223059bb34c5205e4"
DEEP_CASES = 12


def deep_corpus():
    """(name, host, tree, seed) for the 200-edge trees, in a fixed order."""
    g = VirtualCayleyCube(200)
    shapes = {
        "path": path_tree(200),
        "comb": comb(200),
        "star": build_tree([0] * 200),
        "spider": random_spider((100, 100)),
        "random1": random_tree(200, 1),
        "random2": random_tree(200, 2),
    }
    for name, t in shapes.items():
        for seed in (None, 7):
            yield f"deep {name} seed={seed}", g, t, seed


def test_deep_digest(monkeypatch):
    calls = exact_delta_calls(monkeypatch)
    assert corpus_digest(deep_corpus()) == (DEEP, DEEP_CASES)
    assert calls == []


# The stage corpus: every tree with at most 8 edges (486 of them) on four
# hosts of minimum degree 8, unseeded and seeded.  Exhaustive over
# the small trees, so it reaches every stage; step3 and step5 need two
# even-spider children, hence at least 6 edges, and are rare.
STAGES = "f282d0d1b83ac7c39bcb05bac1fe697eef008a90aaf68b5c4765c87d135cb77d"
STAGES_CASES = 3888


def stage_corpus():
    """(name, host, tree, seed) for every tree with at most 8 edges, in a fixed order."""
    hosts = {
        "virtual8": VirtualCayleyCube(8),
        "cayley8": cayley_coloring(8),
        "refined8": refined_cayley(8, 3, 2),
        "subgraph9": subgraph_min_degree(9, 8, 5),
    }
    trees = list(enumerate_trees(8))
    for name, g in hosts.items():
        for i, t in enumerate(trees):
            for seed in (None, 11):
                yield f"stages {name} tree={i} seed={seed}", g, t, seed


def test_stage_corpus(monkeypatch):
    calls = exact_delta_calls(monkeypatch)
    labels = set()
    assert corpus_digest(stage_corpus(), labels=labels) == (STAGES, STAGES_CASES)
    assert labels == STAGE_LABELS
    assert calls == []


# The shield corpus: the spider with legs of 4 and 2 edges below a root
# child, on hosts of minimum degree 7 and 8.  It pins step 1's view for leg
# one, which bans the other leg's colors and no coordinate of its lower half
# (the count at that step makes such a ban needless): banning those
# coordinates too changes 9 of these 24 embeddings, all still verifying.
SHIELD_GOLDEN = "5d8d01ce07c7a8716e7e30841421b051324dc43b32b4d2b3be3ca4e92dd96595"
SHIELD_CASES = 24


def shield_corpus():
    """(name, host, tree, seed) for the (4, 2)-legged spider below vertex 1."""
    t = build_tree([0, 1, 2, 3, 4, 1, 6])
    for s in range(3):
        hosts = [(f"refined8 s={s} splits={k}", refined_cayley(8, s, k)) for k in (2, 4)]
        hosts += [(f"subgraph8 d={d} s={s}", subgraph_min_degree(8, d, s)) for d in (8, 7)]
        for name, g in hosts:
            for seed in (None, 1):
                yield f"shield {name} seed={seed}", g, t, seed


def test_shield_digest():
    assert corpus_digest(shield_corpus()) == (SHIELD_GOLDEN, SHIELD_CASES)


def broom(edges):
    """A handle of ceil(edges/2) edges from the root, then leaves at its far end."""
    handle = (edges + 1) // 2
    return build_tree(list(range(handle)) + [handle] * (edges - handle))


# The wide corpus: 500-edge trees in Q_500, unseeded and seeded, whose frames
# hold many mapped edges and whose stages see many children at once.
WIDE = "a0adfa4bdd960a5568fa8582626a5737031895ae827d24600b050dc6d0de1d8b"
WIDE_CASES = 10


def wide_corpus():
    """(name, host, tree, seed) for the 500-edge trees, in a fixed order."""
    g = VirtualCayleyCube(500)
    shapes = {
        "comb": comb(500),
        "broom": broom(500),
        "two-leg spiders": random_spider([2] * 250),
        "random1": random_tree(500, 1),
        "random2": random_tree(500, 2),
    }
    for name, t in shapes.items():
        for seed in (None, 7):
            yield f"wide {name} seed={seed}", g, t, seed


def test_wide_digest(monkeypatch):
    calls = exact_delta_calls(monkeypatch)
    assert corpus_digest(wide_corpus()) == (WIDE, WIDE_CASES)
    assert calls == []


# The skew corpus: 12-edge trees on hosts whose colors are not coordinates,
# so that a frame's banned colors and coordinates differ in every view.
SKEW = "3fc2f5d7e79c4ed60c46da8c5d0dda374a7eaec0d7ca84b418f80c1012965891"
SKEW_CASES = 36


def skew_corpus():
    """(name, host, tree, seed) for the 12-edge trees on refined and thinned hosts."""
    for s in range(3):
        hosts = [(f"refined12 s={s}", refined_cayley(12, s, 2)),
                 (f"subgraph12 s={s}", subgraph_min_degree(12, 11, s))]
        for name, g in hosts:
            edges = g.delta()
            for i, t in enumerate((comb(edges), broom(edges), random_tree(edges, 40 + s))):
                for seed in (None, 3):
                    yield f"skew {name} tree={i} seed={seed}", g, t, seed


def test_skew_digest(monkeypatch):
    calls = exact_delta_calls(monkeypatch)
    assert corpus_digest(skew_corpus()) == (SKEW, SKEW_CASES)
    assert calls == []


# Every corpus above again, each tree on the other side of the threshold
# between listed frames and frames read in place: the small trees read
# their sets in place, the large ones list them.  The two give the same
# embeddings and traces.
@pytest.mark.parametrize("instances, digest, listed", [
    (corpus, GOLDEN, -1),
    (skew_corpus, SKEW, -1),
    (shield_corpus, SHIELD_GOLDEN, -1),
    (deep_corpus, DEEP, 10**9),
    (wide_corpus, WIDE, 10**9),
], ids=["golden", "skew", "shield", "deep", "wide"])
def test_the_digest_does_not_depend_on_how_frames_hold_their_sets(instances, digest, listed, monkeypatch):
    cases = list(instances())
    assert all((t.n - 1 > listed) != (t.n - 1 > embed.LISTED) for _, _, t, _ in cases)
    monkeypatch.setattr(embed, "LISTED", listed)
    assert corpus_digest(cases)[0] == digest
