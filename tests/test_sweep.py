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

The Tier-1 slice runs by default, in about a second.  The full sweeps are
marked ``sweep`` and deselected by default; run them with

    PYTHONPATH=src python -m pytest -m sweep tests/test_sweep.py
"""

from __future__ import annotations

import pytest

import rainbowcube.embed as embed
from rainbowcube import ColoredCubeGraph, GraphView, embed_half, enumerate_trees, extend_tree, verify
from rainbowcube.embed import choose_z_bad
from rainbowcube.errors import RainbowCubeError
from rainbowcube.hypercube import cube_edges


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


def failure(g, t, start: int, rng=None) -> str | None:
    """Why the embedding of t into g from `start`, making `rng`'s choices
    (the first candidate at every step without one), fails: the engine's
    error or verify's report; None when it verifies."""
    try:
        pe = embed_half(g, t, start, rng=rng)
        _, z = choose_z_bad(g, pe)
        extend_tree(pe, z)
    except RainbowCubeError as exc:
        return f"{type(exc).__name__}: {exc}"
    report = verify(g, t, pe.image, require_path_distinct=True, z_bad=z)
    return None if report.ok else str(report)


def branches(g, t, start: int):
    """The failure of every admissible branch of one embedding, in order."""
    rng = Odometer()
    while True:
        yield failure(g, t, start, rng)
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
