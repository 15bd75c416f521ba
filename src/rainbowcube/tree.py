"""Rooted trees: levels, half-trees, spiders, and child classification.

A tree on n vertices is rooted at vertex 0; non-root vertex ids are
arbitrary but children lists are kept sorted so every traversal is
deterministic.  A tree edge is named by its child endpoint throughout
(the parent is implied), so edge sets are sets of non-root vertex ids.

level(v) is the distance to the root; level_max(v) the deepest level in
v's subtree.  The *lower half* keeps vertices with
level(v) <= floor(level_max(v)/2) and the *upper-closed half* those with
level(v) <= ceil(level_max(v)/2): the first halves of all root-to-leaf
paths, excluding resp. including the middle edges of odd-length paths.
The *deficiency* e(T) - 2*e(lower half) is >= 0, zero exactly for spiders
whose legs all have even length.

The same notions apply to the subtree at any vertex v, with levels taken
relative to v.  A tree's preorder, computed once, makes every subtree a
contiguous slice, so these subtree quantities need no walk of their own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Iterator, NamedTuple, Sequence

from .errors import (
    CycleDetected,
    DisconnectedInput,
    EmptyTree,
    FormatError,
    IndexOutOfRange,
    LimitExceeded,
    PreconditionViolated,
)
from .records import read_records


class Preorder(NamedTuple):
    """A tree's vertices depth first (children in id order), with subtree intervals.

    The subtree at v is order[pos[v]:end[v]].  half_level[i] is
    2*level(w) - level_max(w) for w = order[i]: w lies in the lower half of
    the subtree at a proper ancestor v exactly when level(v) >= half_level[i],
    and in its upper-closed half when level(v) + 1 >= half_level[i].  (With
    a = level(v): level(w) - a <= (level_max(w) - a) // 2 holds iff
    2*(level(w) - a) <= level_max(w) - a, and the ceiling adds one.)
    """

    order: tuple[int, ...]
    pos: tuple[int, ...]
    end: tuple[int, ...]
    half_level: tuple[int, ...]


class RootedTree:
    """Immutable rooted tree with cached level, level_max and preorder."""

    __slots__ = ("n", "parent", "children", "level", "level_max", "_preorder")

    def __init__(self, parent: tuple, children: tuple, level: tuple, level_max: tuple):
        self.n = len(parent)
        self.parent = parent            # parent[0] is None
        self.children = children        # sorted tuples
        self.level = level
        self.level_max = level_max
        self._preorder = None

    def preorder(self) -> Preorder:
        """The preorder and subtree intervals, computed on first use."""
        if self._preorder is None:
            order = []
            stack = [0]
            while stack:
                w = stack.pop()
                order.append(w)
                stack.extend(reversed(self.children[w]))
            pos = [0] * self.n
            for i, w in enumerate(order):
                pos[w] = i
            size = [1] * self.n
            for w in reversed(order[1:]):
                size[self.parent[w]] += size[w]
            self._preorder = Preorder(
                tuple(order),
                tuple(pos),
                tuple(p + k for p, k in zip(pos, size)),
                tuple(2 * self.level[w] - self.level_max[w] for w in order),
            )
        return self._preorder

    @property
    def root(self) -> int:
        return 0

    def n_edges(self) -> int:
        return self.n - 1

    def edge_ids(self) -> range:
        return range(1, self.n)

    def degree(self, v: int) -> int:
        d = len(self.children[v])
        return d if v == 0 else d + 1

    def subtree_preorder(self, v: int) -> tuple[int, ...]:
        """v and its descendants, depth-first with children in id order."""
        order, pos, end, _ = self.preorder()
        return order[pos[v] : end[v]]

    def __repr__(self) -> str:
        return f"RootedTree(parents={list(self.parent[1:])})"


def build_tree(parents: Sequence[int]) -> RootedTree:
    """Build and validate a rooted tree from the parents of vertices 1..n-1."""
    n = len(parents) + 1
    parent: list = [None] * n
    for i, p in enumerate(parents, start=1):
        if not 0 <= p < n:
            raise IndexOutOfRange(f"parent of vertex {i} is {p}, outside [0, {n})")
        parent[i] = p

    level = [0] * n
    state = [0] * n  # 0 unseen, 1 on stack, 2 resolved
    state[0] = 2
    for v in range(1, n):
        if state[v] == 2:
            continue
        chain = []
        w = v
        while state[w] == 0:
            state[w] = 1
            chain.append(w)
            w = parent[w]
        if state[w] == 1:
            raise CycleDetected(f"parent chain from vertex {v} loops at vertex {w}")
        base = level[w]
        for j, u in enumerate(reversed(chain), start=1):
            level[u] = base + j
            state[u] = 2

    kids: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        kids[parent[v]].append(v)

    level_max = list(level)
    for v in sorted(range(n), key=level.__getitem__, reverse=True):
        p = parent[v]
        if p is not None and level_max[v] > level_max[p]:
            level_max[p] = level_max[v]

    return RootedTree(
        tuple(parent),
        tuple(tuple(sorted(c)) for c in kids),
        tuple(level),
        tuple(level_max),
    )


def path_tree(length: int) -> RootedTree:
    return build_tree(list(range(length)))


# --- halves and deficiency --------------------------------------------------


def _in_half(t: RootedTree, v: int, ceil: int):
    """The proper descendants of v and, in step, whether each lies in the
    lower (ceil=0) or upper-closed (ceil=1) half of v's subtree."""
    order, pos, end, half_level = t.preorder()
    lo, hi = pos[v] + 1, end[v]
    return order[lo:hi], map((t.level[v] + ceil).__ge__, half_level[lo:hi])


def half_floor(t: RootedTree, v: int = 0) -> frozenset[int]:
    """Edge set of the lower half of the subtree at v, by default of all of
    t (edges named by child endpoint, in t's vertex ids)."""
    return frozenset(compress(*_in_half(t, v, 0)))


def half_ceil(t: RootedTree, v: int = 0) -> frozenset[int]:
    """Edge set of the upper-closed half of the subtree at v (all of t by default)."""
    return frozenset(compress(*_in_half(t, v, 1)))


# the halves of a child's subtree, under the names the extension's anchor
# bookkeeping looks them up by
subtree_floor_edges = half_floor
subtree_ceil_edges = half_ceil


def deficiency(t: RootedTree, v: int = 0) -> int:
    """e - 2*e(lower half) of the subtree at v; nonnegative, and counts odd
    legs on spiders."""
    vertices, in_floor = _in_half(t, v, 0)
    return len(vertices) - 2 * sum(in_floor)


# --- spiders -----------------------------------------------------------------


@dataclass(frozen=True)
class SpiderShape:
    root: int
    legs: tuple[tuple[int, ...], ...]   # each leg runs root -> leaf, inclusive
    leg_lengths: tuple[int, ...]

    @property
    def odd_legs(self) -> int:
        return sum(length % 2 for length in self.leg_lengths)


def as_spider(t: RootedTree, v: int = 0) -> SpiderShape | None:
    """Leg decomposition of the subtree at v (all of t by default) if every
    vertex below v has degree <= 2, else None.

    Legs are listed in order of their first vertex, so the decomposition is
    deterministic.  The legs partition the edge set.
    """
    if not t.children[v]:
        raise EmptyTree("single-vertex tree has no legs")
    if _branches_below(t, v) is not None:
        return None
    legs = []
    for c in t.children[v]:
        leg = [v, c]
        while t.children[leg[-1]]:
            leg.append(t.children[leg[-1]][0])
        legs.append(tuple(leg))
    return SpiderShape(v, tuple(legs), tuple(len(leg) - 1 for leg in legs))


def _branches_below(t: RootedTree, v: int) -> int | None:
    """A proper descendant of v with two or more children, or None."""
    order, pos, end, _ = t.preorder()
    children = t.children
    return next((w for w in order[pos[v] + 1 : end[v]] if len(children[w]) > 1), None)


# --- classification of the root's children ----------------------------------


@dataclass(frozen=True)
class SpiderChild:
    """A root child whose subtree is a nonempty spider with all legs even.

    ``leg`` is the designated leg (lexicographically first maximal path from
    the child), ``half_len`` half its length; ``mid_edge`` is the leg edge
    from depth half_len-1 to half_len below the child, ``after_mid_edge``
    the next one.  Edges are child-endpoint ids in the containing tree.
    """

    vertex: int
    leg: tuple[int, ...]
    half_len: int
    mid_edge: int
    after_mid_edge: int


@dataclass(frozen=True)
class ChildClassification:
    leaves: tuple[int, ...]
    spiders: tuple[SpiderChild, ...]
    rest: tuple[int, ...]   # deficiency >= 1, sorted by (deficiency, id)


def classify_children(t: RootedTree, root: int = 0) -> ChildClassification:
    """Partition the children of `root` (by default t's root) into leaves,
    even-spider subtrees, rest."""
    if not t.children[root]:
        raise EmptyTree("no edges to classify")
    leaves = []
    spiders = []
    rest = []
    for v in t.children[root]:
        if not t.children[v]:
            leaves.append(v)
            continue
        d = deficiency(t, v)
        if d == 0:
            # zero deficiency forces an even spider below v; check it live
            w = _branches_below(t, v)
            if w is not None:
                raise AssertionError(f"deficiency 0 but vertex {w} branches below {v}")
            leg = [v]
            while t.children[leg[-1]]:
                leg.append(t.children[leg[-1]][0])
            length = len(leg) - 1
            if length % 2:
                raise AssertionError(f"deficiency 0 but designated leg below {v} is odd")
            half = length // 2
            spiders.append(SpiderChild(v, tuple(leg), half, leg[half], leg[half + 1]))
        else:
            rest.append((d, v))
    rest.sort()
    return ChildClassification(tuple(leaves), tuple(spiders), tuple(v for _, v in rest))


# --- the reflection injection ------------------------------------------------


def _max_level_path(t: RootedTree, w: int) -> list[int]:
    """Path from w to its first maximum-level descendant (children in id order)."""
    path = [w]
    target = t.level_max[w]
    while t.level[path[-1]] < target:
        nxt = next(c for c in t.children[path[-1]] if t.level_max[c] == target)
        path.append(nxt)
    return path


def iota_injection(t: RootedTree) -> dict[int, int]:
    """Injective map from lower-half edges into edges beyond the upper half.

    Each edge is reflected about the midpoint of a maximal root path through
    it: the edge at depth d on a path to a level-l leaf maps to the edge at
    depth l-d+1 on that path.  Root-incident non-leaf edges land on
    leaf-incident non-root edges.
    """
    out: dict[int, int] = {}
    ceil_set = half_ceil(t)
    for w in sorted(half_floor(t)):
        d, l = t.level[w], t.level_max[w]
        down = _max_level_path(t, w)  # w = v_d, ..., v_l
        image = down[l - d + 1 - d]   # v_{l-d+1}, indexed relative to v_d
        if image in ceil_set:
            raise PreconditionViolated(f"iota maps edge {w} into the upper half")
        out[w] = image
    if len(set(out.values())) != len(out):
        raise PreconditionViolated("iota is not injective")
    return out


def degree_sum_identity(t: RootedTree) -> tuple[int, int]:
    """(|E2| - |E1|, sum of max(deg(v)-2, 0) over non-root v); always equal.

    E1: edges at the root not touching a leaf; E2: edges touching a leaf but
    not the root.
    """
    e1 = sum(1 for c in t.children[0] if t.children[c])
    e2 = sum(1 for v in range(1, t.n) if not t.children[v] and t.parent[v] != 0)
    rhs = sum(max(t.degree(v) - 2, 0) for v in range(1, t.n))
    return (e2 - e1, rhs)


# --- enumeration up to rooted isomorphism ------------------------------------

# a canonical form is the sorted tuple of the children's canonical forms


@lru_cache(maxsize=None)
def _forms(n_vertices: int) -> tuple:
    if n_vertices == 1:
        return ((),)
    out = set()
    smaller = [_forms(k) if k else () for k in range(n_vertices)]

    def grow(remaining: int, bound: tuple | None, acc: tuple):
        # choose child subtrees in nonincreasing (size, form) order
        if remaining == 0:
            out.add(tuple(sorted(acc)))
            return
        max_size = remaining if bound is None else min(remaining, bound[0])
        for size in range(max_size, 0, -1):
            for f in smaller[size]:
                if bound is not None and size == bound[0] and f > bound[1]:
                    continue
                grow(remaining - size, (size, f), acc + (f,))

    grow(n_vertices - 1, None, ())
    return tuple(sorted(out))


def _form_to_parents(form: tuple, parent: int, parents: list[int], counter: list[int]):
    for child_form in form:
        v = counter[0]
        counter[0] += 1
        parents.append(parent)
        _form_to_parents(child_form, v, parents, counter)


def canonical_form(t: RootedTree, v: int = 0) -> tuple:
    """Canonical form of the subtree at v; equal forms == rooted-isomorphic."""
    return tuple(sorted(canonical_form(t, c) for c in t.children[v]))


def enumerate_trees(max_edges: int) -> Iterator[RootedTree]:
    """All rooted trees with at most max_edges edges, one per isomorphism class.

    Emitted in increasing edge count, then canonical-form order.  Guarded at
    max_edges <= 8 (486 trees).
    """
    if max_edges > 8:
        raise LimitExceeded(f"enumerate_trees guard is 8 edges, got {max_edges}")
    for n in range(1, max_edges + 2):
        for form in _forms(n):
            parents: list[int] = []
            _form_to_parents(form, 0, parents, [1])
            yield build_tree(parents)


# --- text format --------------------------------------------------------------
#
#   tree <n_vertices>
#   parents <p1> <p2> ... <p_{n-1}>


def format_tree(t: RootedTree) -> str:
    if t.n == 1:
        return "tree 1\n"
    return f"tree {t.n}\nparents {' '.join(str(p) for p in t.parent[1:])}\n"


def parse_tree(text: str) -> RootedTree:
    parents = None

    def tree(n_text: str) -> int:
        n = int(n_text)
        if n < 1:
            raise FormatError("vertex count must be >= 1")
        return n

    def parents_line(n: int, *values: str) -> None:
        nonlocal parents
        if parents is not None:
            raise FormatError("duplicate parents line")
        parents = [int(x) for x in values]

    n = read_records(text, "tree", {"tree": (1, tree), "parents": (None, parents_line)})
    parents = parents or []
    if len(parents) != n - 1:
        raise DisconnectedInput(f"tree {n} needs {n - 1} parents, got {len(parents)}")
    return build_tree(parents)
