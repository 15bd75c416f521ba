"""Seeded instance generators for hosts, colorings, and trees.

Every generator is a pure function of its parameters and seed, drawing from
SplitMix64 in a fixed order, so outputs are bit-identical across runs and
platforms.  Each host generator builds, and so checks, one host: the one
it returns.  It reads the edges of Q_n from ``cube_edges`` in the order
``edges()`` gives, so every draw is made in that order.  Draws come from
``SplitMix64.draws``, a block at a time, in the order the per-draw calls
made them, so the hosts are those of one call per draw.  ``cayley_coloring``
and ``refined_cayley`` stream those edges into the constructor, which reads
them in that order; ``refined_cayley`` draws the subclasses one block of
edges at a time as the constructor reads them, so no edge list is held.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

from .hypercube import ColoredCubeGraph, cayley_coloring, cube_edges
from .prng import _CHUNK, SplitMix64
from .tree import RootedTree, build_tree

KEEP_PERCENT = 75  # greedy_proper's share of the edges of Q_n


def refined_cayley(n: int, seed: int, splits: int) -> ColoredCubeGraph:
    """Refine each direction class of the coordinate coloring of Q_n into at
    most `splits` fresh classes.

    Refining a proper coloring keeps it proper; edge q gets color
    q*splits + subclass, so splits=1 reproduces cayley_coloring(n) exactly.
    """
    return ColoredCubeGraph(n, _refined_edges(n, seed, splits))


def _refined_edges(n: int, seed: int, splits: int) -> Iterator[tuple[int, int, int]]:
    """An iterator over the edges of refined_cayley(n, seed, splits), in
    sorted order; it draws the subclasses one block of edges at a time, as
    it reaches the block, so it holds neither the edges nor their draws."""
    if splits < 1:
        raise ValueError(f"splits must be >= 1, got {splits}")
    edges = cube_edges(n)
    if splits == 1:
        return edges
    draws, total = SplitMix64(seed).draws, n << (n - 1)
    zs = chain.from_iterable(map(draws, (min(_CHUNK, total - i) for i in range(0, total, _CHUNK))))
    return ((u, v, q * splits + z % splits) for (u, v, q), z in zip(edges, zs))


def greedy_proper(n: int, seed: int) -> ColoredCubeGraph:
    """Seeded random edge subset of Q_n with a first-fit proper coloring.

    Each edge is kept with the fixed probability KEEP_PERCENT/100.  Kept
    edges are visited in a seeded shuffle; each takes the smallest color id
    absent at both endpoints, so at most 2n-1 colors appear.
    """
    rng = SplitMix64(seed)
    kept = [(u, v) for (u, v, _), z in zip(cube_edges(n), rng.draws(n << (n - 1))) if z % 100 < KEEP_PERCENT]
    rng.shuffle(kept)
    palette_at: dict[int, set[int]] = {}
    edges = []
    for u, v in kept:
        used = palette_at.setdefault(u, set()) | palette_at.setdefault(v, set())
        c = 0
        while c in used:
            c += 1
        palette_at[u].add(c)
        palette_at[v].add(c)
        edges.append((u, v, c))
    return ColoredCubeGraph(n, edges)


def subgraph_min_degree(n: int, d: int, seed: int) -> ColoredCubeGraph:
    """Random edge-deleted subgraph of a refined coloring of Q_n, repaired
    greedily (re-adding deleted edges at deficient vertices) until the
    minimum degree reaches d.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    rng = SplitMix64(seed)
    all_edges = list(_refined_edges(n, rng.next_u64(), 1 + rng.randrange(3)))
    rng.shuffle(all_edges)
    n_delete = rng.randrange(len(all_edges) // 2 + 1)
    deleted = all_edges[:n_delete]
    kept = all_edges[n_delete:]

    # every vertex has degree n in Q_n, less its deleted edges
    degree = [n] * (1 << n)
    removed_at: list[list[tuple[int, int, int]]] = [[] for _ in range(1 << n)]
    for e in sorted(deleted):
        u, v, _ = e
        degree[u] -= 1
        degree[v] -= 1
        removed_at[u].append(e)
        removed_at[v].append(e)

    # one pass: x's turn leaves degree[x] >= d, or x's deleted edges all read
    # and degree[x] = n >= d; that stays so, since degrees only rise and
    # only x's turn reads removed_at[x], so a second pass would restore nothing
    restored: set[tuple[int, int, int]] = set()
    for x, at in enumerate(removed_at):
        i = 0
        while degree[x] < d and i < len(at):
            e = at[i]
            i += 1
            if e in restored:
                continue
            restored.add(e)
            kept.append(e)
            u, v, _ = e
            degree[u] += 1
            degree[v] += 1
    return ColoredCubeGraph(n, kept)


def random_tree(m_edges: int, seed: int) -> RootedTree:
    """Random-attachment tree: vertex i picks a uniform parent among 0..i-1.

    This is not uniform over unlabeled shapes (later vertices attach to a
    growing set), which matters for deficiency statistics; it is simple,
    seedable, and shape-diverse.
    """
    if m_edges < 0:
        raise ValueError(f"edge count must be >= 0, got {m_edges}")
    rng = SplitMix64(seed)
    return build_tree([rng.randrange(i) for i in range(1, m_edges + 1)])


def random_spider(leg_lengths) -> RootedTree:
    """The spider with the given leg lengths; deterministic, no seed."""
    legs = list(leg_lengths)
    if not legs or any(l < 1 for l in legs):
        raise ValueError(f"leg lengths must be positive, got {legs}")
    parents = []
    next_id = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            parents.append(prev)
            prev = next_id
            next_id += 1
    return build_tree(parents)


# each generator kind: the parameters its generator reads, in the order
# `rainbowcube gen` asks for them, and the generator, which takes them and
# then the seed
KINDS = {
    "cayley": (("n",), lambda n, seed: cayley_coloring(n)),
    "refined_cayley": (("n", "splits"), lambda n, splits, seed: refined_cayley(n, seed, splits)),
    "greedy_proper": (("n",), greedy_proper),
    "random_tree": (("edges",), random_tree),
    "random_spider": (("legs",), lambda legs, seed: random_spider(legs)),
    "subgraph_min_degree": (("n", "d"), subgraph_min_degree),
}


def generate(kind: str, seed: int = 0, params: dict | None = None):
    """Build the graph or tree of generator `kind`: same (kind, seed, params)
    in, bit-identical artifact out.  `splits` defaults to 2; any other
    parameter the kind reads must be given, else ValueError names it."""
    if kind not in KINDS:
        raise ValueError(f"unknown generator kind {kind!r}")
    names, make = KINDS[kind]
    p = {"splits": 2, **(params or {})}
    missing = [name for name in names if name not in p]
    if missing:
        raise ValueError(f"generator {kind!r} needs parameter {missing[0]!r}")
    return make(*(p[name] for name in names), seed)
