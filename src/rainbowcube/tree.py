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
relative to v.  build_tree makes the children, level, level_max and
preorder tables in one walk from the root.  The preorder makes every
subtree a contiguous slice, so these subtree quantities need no walk of
their own.  The halves table (RootedTree.halves), which only the engine
and the deficiency read, is the one table computed on first use.
"""

from __future__ import annotations

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
    """Immutable rooted tree.  build_tree makes its parent, children, level,
    level_max and preorder tables; the halves are computed on first use."""

    __slots__ = ("n", "parent", "children", "level", "level_max", "_preorder", "_halves")

    def __init__(self, parent: tuple, children: tuple, level: tuple, level_max: tuple, preorder: Preorder):
        self.n = len(parent)
        self.parent = parent            # parent[0] is None
        self.children = children        # sorted tuples
        self.level = level
        self.level_max = level_max
        self._preorder = preorder
        self._halves = None

    def preorder(self) -> Preorder:
        """The preorder and subtree intervals."""
        return self._preorder

    def halves(self) -> tuple[tuple[int, ...], dict[int, list[int]]]:
        """Every subtree's lower half, counted and bucketed, computed on first
        use: (floor_size, bucket).  floor_size[v] is |half_floor(t, v)|.
        bucket[h] lists in increasing order the preorder positions i with
        half_level[i] == h; by Preorder's rule, the positions of v's subtree
        past v that bucket[level(v) + 1] lists are half_ceil(t, v) less
        half_floor(t, v).

        By Preorder's rule, w lies in the lower half of the subtree at a
        proper ancestor a exactly when level(a) >= half_level(w): the
        ancestors at levels max(half_level(w), 0) .. level(w) - 1, one
        segment of w's root path.  So w adds +1 at its parent and -1 at the
        ancestor just above the segment (none when it reaches the root),
        and floor_size[v] is the sum of these marks over v's subtree.
        """
        if self._halves is None:
            order, _, _, half_level = self.preorder()
            level, parent = self.level, self.parent
            mark = [0] * self.n
            path = [0] * (max(level) + 1)  # path[l]: the ancestor at level l of the vertex in hand
            bucket: dict[int, list[int]] = {}
            for i, w in enumerate(order):
                lw, h = level[w], half_level[i]
                path[lw] = w
                bucket.setdefault(h, []).append(i)
                if w and h < lw:  # max(h, 0) < lw, as lw >= 1
                    mark[parent[w]] += 1
                    if h > 0:
                        mark[path[h - 1]] -= 1
            for w in reversed(order[1:]):
                mark[parent[w]] += mark[w]
            self._halves = tuple(mark), bucket
        return self._halves

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
    """Build and validate a rooted tree from the parents of vertices 1..n-1.

    Makes the children, level, level_max and preorder tables; the halves
    are the one table left to first use (RootedTree.halves).  One walk from
    the root lists the preorder, over child lists that are in id order as
    they are filled.  A pass down the preorder gives the levels, and one
    back up it, children before parents, the subtree intervals and
    level_max.  A vertex the walk misses has a parent chain that never
    reaches the root, so the chain from the least such vertex names the
    loop.
    """
    n = len(parents) + 1
    parent = (None, *parents)
    if n > 1 and not 0 <= min(parents) <= max(parents) < n:
        i = next(i for i in range(1, n) if not 0 <= parent[i] < n)
        raise IndexOutOfRange(f"parent of vertex {i} is {parent[i]}, outside [0, {n})")
    kids: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        kids[parent[v]].append(v)

    order, stack = [], [0]
    while stack:
        w = stack.pop()
        order.append(w)
        stack += reversed(kids[w])
    if len(order) < n:
        reached = set(order)
        v = w = next(v for v in range(n) if v not in reached)
        chain = set()
        while w not in chain:
            chain.add(w)
            w = parent[w]
        raise CycleDetected(f"parent chain from vertex {v} loops at vertex {w}")

    pos, level = [0] * n, [0] * n
    for i in range(1, n):
        w = order[i]
        pos[w], level[w] = i, level[parent[w]] + 1
    end, level_max = [i + 1 for i in pos], level.copy()
    for w in order[:0:-1]:
        p = parent[w]
        if end[p] < end[w]:
            end[p] = end[w]
        if level_max[p] < level_max[w]:
            level_max[p] = level_max[w]
    preorder = Preorder(tuple(order), tuple(pos), tuple(end),
                        tuple(2 * level[w] - level_max[w] for w in order))
    return RootedTree(parent, tuple(map(tuple, kids)), tuple(level), tuple(level_max), preorder)


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


def deficiency(t: RootedTree, v: int = 0) -> int:
    """e - 2*e(lower half) of the subtree at v; nonnegative, and counts odd
    legs on spiders.  O(1): the subtree's interval gives e, and the tree's
    halves the lower half's size."""
    _, pos, end, _ = t.preorder()
    return end[v] - pos[v] - 1 - 2 * t.halves()[0][v]


def lower_halves(t: RootedTree) -> tuple[tuple[int, ...], dict[int, list[int]]]:
    """The tree's cached lower-half sizes and half-level buckets."""
    return t.halves()


# --- spiders -----------------------------------------------------------------


class SpiderShape(NamedTuple):
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
    order, pos, end, _ = t.preorder()
    if any(len(t.children[w]) > 1 for w in order[pos[v] + 1 : end[v]]):
        return None
    legs = tuple((v, *_first_child_path(t, c)) for c in t.children[v])
    return SpiderShape(v, legs, tuple(len(leg) - 1 for leg in legs))


def _first_child_path(t: RootedTree, v: int) -> list[int]:
    """v, its first child, that child's first child, and so on to a leaf."""
    path = [v]
    while t.children[path[-1]]:
        path.append(t.children[path[-1]][0])
    return path


# --- classification of the root's children ----------------------------------


class SpiderChild(NamedTuple):
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


class ChildClassification(NamedTuple):
    leaves: tuple[int, ...]
    spiders: tuple[SpiderChild, ...]
    rest: tuple[int, ...]   # deficiency >= 1, sorted by (deficiency, id)


def classify_children(t: RootedTree, root: int = 0) -> ChildClassification:
    """Partition the children of `root` (by default t's root) into leaves,
    even-spider subtrees, rest.  Each deficiency is read in O(1)
    (`deficiency`), so this costs the children and the spider legs it lists."""
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
        # d = 0 forces an even spider below v, and so does d = 1 with a middle
        # edge, one odd leg aside (_tree_frame's step7-mid): iota_injection maps
        # the lower half injectively past the upper-closed half, so d counts the
        # middle edges and the edges past that half unhit, and both cases leave
        # none unhit.  It hits a leaf edge at depth L >= 2 (depths below v) only
        # from the depth-1 edge above (depth j goes to L - j + 1 on that edge's
        # one deepest path), so each child of v heads a path; a path has a
        # middle edge exactly when it is odd
        if d == 0:
            leg = _first_child_path(t, v)
            half = (len(leg) - 1) // 2
            spiders.append(SpiderChild(v, tuple(leg), half, leg[half], leg[half + 1]))
        else:
            rest.append((d, v))
    rest.sort()
    return ChildClassification(tuple(leaves), tuple(spiders), tuple(v for _, v in rest))


# --- the reflection injection ------------------------------------------------


def iota_injection(t: RootedTree) -> dict[int, int]:
    """Injective map from lower-half edges into edges beyond the upper half.

    Each edge is reflected about the midpoint of a maximal root path through
    it: the edge at depth d on a path to a level-l leaf maps to the edge at
    depth l-d+1 on that path.  Root-incident non-leaf edges land on
    leaf-incident non-root edges.  The path taken from an edge w runs down
    through each vertex's first maximum-level child (children in id order)
    to w's first maximum-level descendant.
    """
    level, level_max, parent = t.level, t.level_max, t.parent
    # those children chain the vertices into disjoint downward paths, each
    # listed from its top vertex, which is no vertex's first such child; the
    # path from w is the rest of w's chain, and a chain's levels run on by one
    first = [next((c for c in kids if level_max[c] == level_max[v]), None)
             for v, kids in enumerate(t.children)]
    chain = [None] * t.n
    for v in t.preorder().order:
        chain[v] = chain[parent[v]] if v and first[parent[v]] == v else []
        chain[v].append(v)
    out: dict[int, int] = {}
    ceil_set = half_ceil(t)
    # the iota lemma, so no tree fails the checks below: w at level d <= l/2
    # goes to level l - d + 1 > (l + 1)/2, past the upper-closed half, on a path
    # to level l; its image p fixes l = level_max(p) and so d: iota is one-to-one
    for w in sorted(half_floor(t)):
        d, l = level[w], level_max[w]
        down = chain[w]
        image = down[l - d + 1 - level[down[0]]]  # the vertex at level l - d + 1
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
