"""The theorem at desk scale: every proper coloring, every tree, every start,
every admissible choice.

The paper's claim is about every proper edge-coloring of a cube subgraph,
and its greedy argument lets every step take any admissible edge.  At n <= 4
both quantifiers can be enumerated outright:

- :func:`proper_colorings` lists the proper colorings of Q_n up to renaming
  colors (Q_4 with 4 colors has 1,840: its 1-factorizations; Q_3 has
  81,984 in all);
- :class:`Odometer` is an `rng` for the engine that replays a scripted
  choice sequence, so that :func:`branches` runs every admissible branch of
  one embedding through `embed_half(..., rng=)`, `choose_z_bad` and
  `extend_tree`, with no API of its own.

At n = 6 the quantifier over choices can still be enumerated on every tree
shape, with every stage of the engine included, and the one over colorings
sampled.

The Tier-1 slices run by default, in about a second.  The full sweeps are
marked ``sweep`` and deselected by default; run them with

    PYTHONPATH=src python -m pytest -m sweep tests/test_sweep.py
"""

from __future__ import annotations

import pytest

import rainbowcube.embed as embed
from rainbowcube import ColoredCubeGraph, build_tree, cayley_coloring, extend_spider, extend_tree, verify
from rainbowcube.embed import choose_z_bad, embed_half
from rainbowcube.errors import RainbowCubeError
from rainbowcube.gen import random_spider, refined_cayley, subgraph_min_degree
from rainbowcube.hypercube import GraphView, cube_edges
from rainbowcube.tree import enumerate_trees


def proper_colorings(n: int, max_colors: int):
    """Every proper coloring of Q_n's edges with at most `max_colors`
    colors, up to renaming colors, as a tuple of colors in `cube_edges`
    order.

    A restricted-growth recursion over the edges: each edge joins a class
    an earlier edge opened, if neither endpoint has that color yet, or opens
    the next class.  So every coloring appears once, with its classes
    numbered in order of their first edge.
    """
    edges = [(u, v) for u, v, _ in cube_edges(n)]
    colors = [0] * len(edges)
    at: list[set[int]] = [set() for _ in range(1 << n)]

    def grow(i: int, opened: int):
        if i == len(edges):
            yield tuple(colors)
            return
        u, v = edges[i]
        at_u, at_v = at[u], at[v]
        for c in range(min(opened + 1, max_colors)):
            if c in at_u or c in at_v:
                continue
            colors[i] = c
            at_u.add(c)
            at_v.add(c)
            yield from grow(i + 1, max(opened, c + 1))
            at_u.discard(c)
            at_v.discard(c)

    yield from grow(0, 0)


def host(n: int, coloring, drop: int | None = None, *, prism: bool = False) -> ColoredCubeGraph:
    """Q_n colored by `coloring`, without the edges of color `drop`.  With
    `prism`, first Q_n × K_2 inside Q_(n+1): two copies of the colored Q_n
    joined in coordinate n by edges of a new color n."""
    edges = [(u, v, c) for (u, v, _), c in zip(cube_edges(n), coloring)]
    if prism:
        top = 1 << n
        edges = [(u | h, v | h, c) for u, v, c in edges for h in (0, top)]
        edges += [(x, x | top, n) for x in range(top)]
        n += 1
    return ColoredCubeGraph(n, ((u, v, c) for u, v, c in edges if c != drop))


def rooted_trees(edges: int):
    """Every rooted tree with exactly `edges` edges, one per isomorphism class."""
    return [t for t in enumerate_trees(edges) if t.n_edges() == edges]


Q4_FACTORIZATIONS = list(proper_colorings(4, 4))
TREES3, TREES4 = rooted_trees(3), rooted_trees(4)


class Odometer:
    """An `rng` whose `randrange` replays a scripted choice sequence.

    A run takes the scripted choice at each call and 0 past the script's
    end, and records every call's range.  `advance` then turns the script
    like an odometer: the last choice with a successor moves on, and the
    choices after it are dropped, to restart at 0.  The engine is
    deterministic given its choices, so the choices before a position fix
    the range there, and the runs between a fresh Odometer and the
    `advance` that returns False take every sequence of admissible choices
    once, in lexicographic order.
    """

    def __init__(self):
        self.script: list[int] = []
        self.ranges: list[int] = []

    def randrange(self, n: int) -> int:
        i = len(self.ranges)
        self.ranges.append(n)
        if i == len(self.script):
            self.script.append(0)
        return self.script[i]

    def advance(self) -> bool:
        """Move to the next branch; False when every branch has run."""
        script, ranges = self.script, self.ranges
        self.ranges = []
        del script[len(ranges):]  # a run that raised read only a prefix
        while script:
            choice = script.pop() + 1
            if choice < ranges[len(script)]:
                script.append(choice)
                return True
        return False


def failure(g, t, start: int, rng=None, spider: bool = False) -> str | None:
    """Why the embedding of t into g from `start`, making `rng`'s choices
    (the first candidate at every step without one), fails: the engine's
    error or verify's report; None when it verifies.  The half embedding
    is finished by `extend_tree`, or with `spider` by `extend_spider` (no
    blocked vertex, no path-distinctness)."""
    z = None
    try:
        pe = embed_half(g, t, start, rng=rng)
        if spider:
            extend_spider(pe)
        else:
            _, z = choose_z_bad(g, pe)
            extend_tree(pe, z)
    except RainbowCubeError as exc:
        return f"{type(exc).__name__}: {exc}"
    report = verify(g, t, pe.image, require_path_distinct=not spider, z_bad=z)
    return None if report.ok else str(report)


def branches(g, t, start: int, spider: bool = False):
    """The failure of every admissible branch of one embedding, in order."""
    rng = Odometer()
    while True:
        yield failure(g, t, start, rng, spider)
        if not rng.advance():
            return


# the host families of the slice, each a 1-factorization of Q_4 made into a
# host, with the trees it takes.  Without color 0, Q_4 is 3-regular and
# its prism a 4-regular subgraph of Q_5: hosts with δ(G) < n, where
# z_bad's coordinate q is a real one that step 1 must dodge
FAMILIES = {
    "q4": (lambda coloring: host(4, coloring), TREES4),
    "q4-0": (lambda coloring: host(4, coloring, 0), TREES3),
    "prism-0": (lambda coloring: host(4, coloring, 0, prism=True), TREES4),
}
# the 1-factorizations whose every branch the slice runs: the first, the
# last and two between
BRANCH_HOSTS = (0, 613, 1226, 1839)


def slice_runs():
    """The Tier-1 slice, one (case, failure) per embedding or branch:

    - every 8th Q_4 1-factorization, in each family, × every tree the
      family takes, from the host's default start;
    - every admissible branch of the same embeddings from vertex 0, on the
      factorizations of BRANCH_HOSTS.
    """
    for name, (make, trees) in FAMILIES.items():
        for i in range(0, len(Q4_FACTORIZATIONS), 8):
            g = make(Q4_FACTORIZATIONS[i])
            for j, t in enumerate(trees):
                yield f"{name} #{i} tree={j}", failure(g, t, g.default_start())
        for i in BRANCH_HOSTS:
            g = make(Q4_FACTORIZATIONS[i])
            for j, t in enumerate(trees):
                for k, why in enumerate(branches(g, t, 0)):
                    yield f"{name} #{i} tree={j} branch={k}", why


def exact_delta_calls(monkeypatch) -> list[GraphView]:
    """Record every view whose exact δ is asked for from now on."""
    calls = []
    original = GraphView.delta

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(GraphView, "delta", counting)
    return calls


class TestEnumerators:
    def test_colorings_up_to_renaming(self):
        assert len(Q4_FACTORIZATIONS) == len(set(Q4_FACTORIZATIONS)) == 1840
        for coloring in Q4_FACTORIZATIONS[::97]:
            # the constructor refuses an improper coloring
            assert host(4, coloring).delta() == 4
            # classes are numbered in order of their first edge
            firsts = [coloring.index(c) for c in range(4)]
            assert firsts == sorted(firsts)
        # C_4 keeps or parts each of its two pairs of opposite edges
        assert sum(1 for _ in proper_colorings(2, 4)) == 4
        assert len(TREES3) == 4 and len(TREES4) == 9

    def test_subgraph_hosts(self):
        coloring = Q4_FACTORIZATIONS[613]
        for g, n, delta in ((host(4, coloring, 0), 4, 3), (host(4, coloring, 0, prism=True), 5, 4)):
            assert (g.dimension, g.delta(), g.n_vertices()) == (n, delta, 1 << n)
            assert all(g.degree(x) == delta for x in g.vertices)

    def test_odometer_takes_every_sequence_once(self):
        # a scripted process whose later ranges depend on its earlier choices
        def run(rng):
            first = rng.randrange(3)
            return (first, *(rng.randrange(2) for _ in range(first)))

        rng, seen = Odometer(), []
        while True:
            seen.append(run(rng))
            if not rng.advance():
                break
        assert seen == [(0,), (1, 0), (1, 1), (2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1)]


# admissible branches in the slice, over all its trees and BRANCH_HOSTS
SLICE_BRANCHES = 1715


class TestSlice:
    def test_every_case_verifies(self, monkeypatch):
        calls = exact_delta_calls(monkeypatch)
        runs = list(slice_runs())
        assert [(case, why) for case, why in runs if why is not None] == []
        assert len(runs) == 230 * (9 + 4 + 9) + SLICE_BRANCHES
        # the paper's bound alone decides every degree check of the engine
        assert calls == []

    def test_a_step1_that_takes_q_fails_it(self, monkeypatch):
        # step 1 finishes the anchor sets dodging z_bad's coordinate q on
        # top of the coordinates used so far; let it dodge only those
        extend = embed._extend

        def mutant(pe, target, x_coor, label, witnesses=()):
            if label == "step1":
                x_coor = pe.used_coords()
            return extend(pe, target, x_coor, label, witnesses)

        monkeypatch.setattr(embed, "_extend", mutant)
        assert any(why is not None for _, why in slice_runs())


# ROADMAP item 3's slice on the stages past Q_4's reach: on cayley_coloring(6),
# from vertex 0, every branch of the three 6-edge trees that reach step3,
# step5 and path, and of the first tree that brings in step1 and step7-mid
# (no tree of at most 5 edges reaches both there)
STAGE_TREES = ([0, 0, 2, 3, 4, 5], [0, 1, 2, 0, 4, 5], [0, 1, 2, 3, 4, 5], [0, 1, 0, 3, 3, 5])
STAGE_LABELS = {"half", "step1", "step2", "step3", "step4", "step5", "step7-mid", "spider0", "path"}


class TestStageSlice:
    def test_every_branch_verifies_and_reaches_every_stage(self, monkeypatch):
        labels, step = set(), embed.extend_one

        def labelled(pe, req):
            labels.add(req.label)
            return step(pe, req)

        monkeypatch.setattr(embed, "extend_one", labelled)
        calls = exact_delta_calls(monkeypatch)
        g = cayley_coloring(6)
        runs = [(parents, why) for parents in STAGE_TREES for why in branches(g, build_tree(parents), 0)]
        assert [(parents, why) for parents, why in runs if why is not None] == []
        assert len(runs) == 4 * 720
        assert labels == STAGE_LABELS and calls == []


# a spider slice: every branch of extend_spider from its half embedding, on
# spiders whose leg one is finished while another leg's lower half is
# mapped, at one level ([4, 2]) and at two ([2, 2, 2]); the tree slice above
# reaches extend_spider only below a tree frame
SPIDER_LEGS = ([4, 2], [2, 2, 2])


class TestSpiderSlice:
    def test_every_branch_verifies(self, monkeypatch):
        labels, step = set(), embed.extend_one

        def labelled(pe, req):
            labels.add(req.label)
            return step(pe, req)

        monkeypatch.setattr(embed, "extend_one", labelled)
        calls = exact_delta_calls(monkeypatch)
        g = cayley_coloring(6)
        runs = [(legs, why) for legs in SPIDER_LEGS for why in branches(g, random_spider(legs), 0, spider=True)]
        assert [(legs, why) for legs, why in runs if why is not None] == []
        assert len(runs) == 2 * 720
        assert labels == {"half", "spider0", "path"} and calls == []


def step_slack(monkeypatch) -> dict[str, int]:
    """Record, per stage label, the least slack of the paper's count over
    every step from now on: the view's degree bound δ(base) − |banned
    colors| − |banned coords|, less |x_col| + |x_coor| − r, less 1."""
    slack, step = {}, embed.extend_one

    def spied(pe, req):
        view = pe.graph
        bound = view.base.delta() - len(view.banned_colors) - len(view.banned_coords)
        least = bound - (len(req.x_col) + len(req.x_coor) - len(req.witnesses)) - 1
        slack[req.label] = min(least, slack.get(req.label, least))
        return step(pe, req)

    monkeypatch.setattr(embed, "extend_one", spied)
    return slack


# ROADMAP item 3's sweep: every admissible branch from vertex 0 of every
# rooted 6-edge tree, on three hosts of minimum degree 6, the last with
# δ < n.  On each, every stage but the half embedding takes a step with no
# slack left; the half embedding's least slack is 1.
SWEEP_SLACK = dict.fromkeys(STAGE_LABELS, 0) | {"half": 1}


@pytest.mark.sweep
@pytest.mark.parametrize("make, count", [
    pytest.param(lambda: cayley_coloring(6), 34560, id="cayley6"),
    pytest.param(lambda: refined_cayley(6, 1, 2), 173769, id="refined6"),
    pytest.param(lambda: subgraph_min_degree(7, 6, 0), 186742, id="subgraph7"),
])
def test_every_branch_of_every_six_edge_tree(make, count, monkeypatch):
    g = make()
    slack = step_slack(monkeypatch)
    calls = exact_delta_calls(monkeypatch)
    runs = [why for t in rooted_trees(6) for why in branches(g, t, 0)]
    assert [why for why in runs if why is not None] == []
    # the paper's bound alone decides every degree check
    assert (len(runs), slack, calls) == (count, SWEEP_SLACK, [])


@pytest.mark.sweep
def test_every_q4_factorization_tree_and_start():
    # 1,840 hosts x 9 trees x 16 starts = 264,960 embeddings
    failed = []
    for i, coloring in enumerate(Q4_FACTORIZATIONS):
        g = host(4, coloring)
        for j, t in enumerate(TREES4):
            for start in range(16):
                if (why := failure(g, t, start)) is not None:
                    failed.append((i, j, start, why))
    assert failed == []


@pytest.mark.sweep
def test_every_q3_coloring_tree_and_start():
    # 81,984 hosts x 4 trees x 8 starts = 2,623,488 embeddings
    failed, hosts = [], 0
    for i, coloring in enumerate(proper_colorings(3, 12)):
        g = host(3, coloring)
        hosts += 1
        for j, t in enumerate(TREES3):
            for start in range(8):
                if (why := failure(g, t, start)) is not None:
                    failed.append((i, j, start, why))
    assert (hosts, failed) == (81984, [])
