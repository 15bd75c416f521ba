"""Seeded instance generators for hosts, colorings, and trees.

Every generator is a pure function of its parameters and seed, drawing from
SplitMix64 in a fixed order, so outputs are bit-identical across runs and
platforms.  Each host generator writes its host's flat color list (one slot
per vertex and coordinate, as ``hypercube`` describes) and builds, and so
checks, one host from it with ``ColoredCubeGraph.from_slots``.  It works on
edge indices into ``edge_table``, which lists the edges of Q_n in the order
``cube_edges`` and ``edges()`` give, so every draw is made in that order.
Draws come from ``SplitMix64.draws``, a block at a time, in the order the
per-draw calls made them, so the hosts are those of one call per draw;
``refined_cayley`` draws the subclasses one block of edges at a time as it
writes their slots, so it never holds all its draws.
"""

from __future__ import annotations

from itertools import chain

from .hypercube import ColoredCubeGraph, cayley_coloring, cayley_slots, edge_table
from .prng import _CHUNK, SplitMix64
from .tree import RootedTree, build_tree

KEEP_PERCENT = 75  # greedy_proper's share of the edges of Q_n


def refined_cayley(n: int, seed: int, splits: int) -> ColoredCubeGraph:
    """Refine each direction class of the coordinate coloring of Q_n into at
    most `splits` fresh classes.

    Refining a proper coloring keeps it proper; edge q gets color
    q*splits + subclass, so splits=1 reproduces cayley_coloring(n) exactly.
    """
    return ColoredCubeGraph.from_slots(n, _refined_slots(n, seed, splits))


def _refined_slots(n: int, seed: int, splits: int) -> list[int]:
    """The flat color list of refined_cayley(n, seed, splits), its edges'
    subclasses drawn in edge order, one block of draws at a time."""
    if splits < 1:
        raise ValueError(f"splits must be >= 1, got {splits}")
    if splits == 1:
        return cayley_slots(n)
    coords, low, high = edge_table(n)
    draws, total = SplitMix64(seed).draws, len(coords)
    zs = chain.from_iterable(map(draws, (min(_CHUNK, total - i) for i in range(0, total, _CHUNK))))
    colors = [-1] * (n << n)
    for i, j, q, z in zip(low, high, coords, zs):
        colors[i] = colors[j] = q * splits + z % splits
    return colors


def greedy_proper(n: int, seed: int) -> ColoredCubeGraph:
    """Seeded random edge subset of Q_n with a first-fit proper coloring.

    Each edge is kept with the fixed probability KEEP_PERCENT/100.  Kept
    edges are visited in a seeded shuffle; each takes the smallest color id
    absent at both endpoints, so at most 2n-1 colors appear.
    """
    coords, low, high = edge_table(n)
    rng = SplitMix64(seed)
    kept = [e for e, z in enumerate(rng.draws(len(coords))) if z % 100 < KEEP_PERCENT]
    rng.shuffle(kept)
    colors = [-1] * (n << n)
    # bit c of used[x] is set when an edge at x has color c, so the lowest
    # bit clear at both ends is the smallest color absent at both
    used = [0] * (1 << n)
    for e in kept:
        i, j = low[e], high[e]
        u, v = i // n, j // n
        taken = used[u] | used[v]
        bit = ~taken & (taken + 1)
        used[u] |= bit
        used[v] |= bit
        colors[i] = colors[j] = bit.bit_length() - 1
    return ColoredCubeGraph.from_slots(n, colors)


def subgraph_min_degree(n: int, d: int, seed: int) -> ColoredCubeGraph:
    """Random edge-deleted subgraph of a refined coloring of Q_n, repaired
    greedily (re-adding deleted edges at deficient vertices) until the
    minimum degree reaches d.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    rng = SplitMix64(seed)
    colors = _refined_slots(n, rng.next_u64(), 1 + rng.randrange(3))
    _, low, high = edge_table(n)
    order = list(range(len(low)))
    rng.shuffle(order)
    # in edge order, which is the edges' sorted order
    deleted = sorted(order[: rng.randrange(len(order) // 2 + 1)])

    # every vertex has degree n in Q_n, less its deleted edges
    degree = [n] * (1 << n)
    removed_at: list[list[int]] = [[] for _ in range(1 << n)]
    for e in deleted:
        u, v = low[e] // n, high[e] // n
        degree[u] -= 1
        degree[v] -= 1
        removed_at[u].append(e)
        removed_at[v].append(e)

    # one pass: x's turn leaves degree[x] >= d, or x's deleted edges all read
    # and degree[x] = n >= d; that stays so, since degrees only rise and
    # only x's turn reads removed_at[x], so a second pass would restore nothing
    restored: set[int] = set()
    for x, at in enumerate(removed_at):
        i = 0
        while degree[x] < d and i < len(at):
            e = at[i]
            i += 1
            if e in restored:
                continue
            restored.add(e)
            degree[low[e] // n] += 1
            degree[high[e] // n] += 1
    for e in deleted:
        if e not in restored:
            colors[low[e]] = colors[high[e]] = -1
    return ColoredCubeGraph.from_slots(n, colors)


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
