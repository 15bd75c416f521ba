"""Seeded instance generators for hosts, colorings, and trees.

Every generator is a pure function of its parameters and seed, drawing from
SplitMix64 in a fixed order, so outputs are bit-identical across runs and
platforms.  Each host generator builds, and so checks, one host: the one
it returns.  It reads the edges of Q_n from ``cube_edges`` in the order
``edges()`` gives, so every draw is made in that order.
"""

from __future__ import annotations

from .hypercube import ColoredCubeGraph, cayley_coloring, cube_edges
from .prng import SplitMix64
from .tree import RootedTree, build_tree

KINDS = (
    "cayley",
    "refined_cayley",
    "greedy_proper",
    "random_tree",
    "random_spider",
    "subgraph_min_degree",
)

KEEP_PERCENT = 75  # greedy_proper's share of the edges of Q_n


def generate(kind: str, seed: int = 0, params: dict | None = None):
    """Build the graph or tree of generator `kind`: same (kind, seed, params)
    in, bit-identical artifact out."""
    p = params or {}
    if kind == "cayley":
        return cayley_coloring(p["n"])
    if kind == "refined_cayley":
        return refined_cayley(p["n"], seed, p.get("splits", 2))
    if kind == "greedy_proper":
        return greedy_proper(p["n"], seed)
    if kind == "random_tree":
        return random_tree(p["edges"], seed)
    if kind == "random_spider":
        return random_spider(p["legs"])
    if kind == "subgraph_min_degree":
        return subgraph_min_degree(p["n"], p["d"], seed)
    raise ValueError(f"unknown generator kind {kind!r}")


def refined_cayley(n: int, seed: int, splits: int) -> ColoredCubeGraph:
    """Refine each direction class of the coordinate coloring of Q_n into at
    most `splits` fresh classes.

    Refining a proper coloring keeps it proper; edge q gets color
    q*splits + subclass, so splits=1 reproduces cayley_coloring(n) exactly.
    """
    return ColoredCubeGraph(n, _refined_edges(n, seed, splits))


def _refined_edges(n: int, seed: int, splits: int) -> list[tuple[int, int, int]]:
    """The edges of refined_cayley(n, seed, splits), in sorted order."""
    if splits < 1:
        raise ValueError(f"splits must be >= 1, got {splits}")
    edges = cube_edges(n)
    if splits == 1:
        return edges
    rng = SplitMix64(seed)
    return [(u, v, q * splits + rng.randrange(splits)) for u, v, q in edges]


def greedy_proper(n: int, seed: int) -> ColoredCubeGraph:
    """Seeded random edge subset of Q_n with a first-fit proper coloring.

    Each edge is kept with the fixed probability KEEP_PERCENT/100.  Kept
    edges are visited in a seeded shuffle; each takes the smallest color id
    absent at both endpoints, so at most 2n-1 colors appear.
    """
    rng = SplitMix64(seed)
    kept = [(u, v) for u, v, _ in cube_edges(n) if rng.randrange(100) < KEEP_PERCENT]
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

    Repair terminates: in the worst case every edge returns and the full
    cube has minimum degree n >= d.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    rng = SplitMix64(seed)
    all_edges = _refined_edges(n, rng.next_u64(), 1 + rng.randrange(3))
    rng.shuffle(all_edges)
    n_delete = rng.randrange(len(all_edges) // 2 + 1)
    deleted = all_edges[:n_delete]
    kept = all_edges[n_delete:]

    degree = {v: 0 for v in range(1 << n)}
    for u, v, _ in kept:
        degree[u] += 1
        degree[v] += 1

    removed_at: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(1 << n)}
    for u, v, c in sorted(deleted):
        removed_at[u].append((u, v, c))
        removed_at[v].append((u, v, c))

    restored: set[tuple[int, int]] = set()
    changed = True
    while changed:
        changed = False
        for x in range(1 << n):
            while degree[x] < d and removed_at[x]:
                u, v, c = removed_at[x].pop(0)
                if (u, v) in restored:
                    continue
                restored.add((u, v))
                kept.append((u, v, c))
                degree[u] += 1
                degree[v] += 1
                changed = True
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
