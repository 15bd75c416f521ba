"""Finite subgraphs of the hypercube with edge colorings.

Vertices are ints: bit i of a vertex is its i-th coordinate, bit 0 least
significant.  A vertex serializes as an N-character binary string, most
significant bit first.  An edge joins vertices differing in exactly one bit;
the index of that bit is the edge's *coordinate*.  A coloring is *proper*
when no two edges sharing an endpoint carry the same color.  Every host is
proper by construction: :class:`ColoredCubeGraph` refuses an improper
coloring, and the implicit cube colors each edge by its coordinate.

Two host flavors share one query surface: :class:`ColoredCubeGraph` stores
an explicit edge list, while :class:`VirtualCayleyCube` is the full cube
with color == coordinate, kept implicit so the ambient dimension can be
large.  ``restrict`` produces O(1) filtered views; no host is ever copied.
``candidate_edges`` returns a sequence of incident records: a list on an
explicit host, and on the implicit cube a lazy one that builds only the
records it is asked for.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Collection, Sequence
from heapq import merge
from itertools import chain
from typing import Iterable, Iterator

from .errors import (
    DifferingBitCount,
    EmptyGraph,
    FormatError,
    LimitExceeded,
    VertexNotInGraph,
)
from .records import read_records

Edge = tuple[int, int]
# incident-edge record: (coordinate, neighbor, color)
Incidence = tuple[int, int, int]

# the widest cube built explicitly (2^16 vertices); VirtualCayleyCube goes beyond
MAX_EXPLICIT_DIMENSION = 16


def edge_coordinate(u: int, v: int) -> int:
    """Index of the unique bit where u and v differ."""
    x = u ^ v
    if x == 0 or x & (x - 1):
        raise DifferingBitCount(
            f"vertices {u} and {v} differ in {bin(x).count('1')} bits, expected exactly 1"
        )
    return x.bit_length() - 1


def canonical_edge(u: int, v: int) -> Edge:
    return (u, v) if u <= v else (v, u)


def vertex_str(v: int, dimension: int) -> str:
    return format(v, f"0{dimension}b")


def parse_vertex(text: str, dimension: int) -> int:
    if len(text) != dimension or set(text) - {"0", "1"}:
        raise FormatError(f"bad vertex {text!r} for dimension {dimension}")
    return int(text, 2)


class _Host:
    """Queries shared by the two host flavors; each defines delta()."""

    __slots__ = ()

    def delta_at_least(self, k: int) -> bool:
        return self.delta() >= k

    def restrict(self, banned_colors: Iterable[int] = (), banned_coords: Iterable[int] = ()):
        bc, bx = frozenset(banned_colors), frozenset(banned_coords)
        if not bc and not bx:
            return self
        return GraphView(self, bc, bx)


def _first_clash(adj: dict[int, tuple[Incidence, ...]], dimension: int) -> str | None:
    """The first vertex with two edges of one color, in vertex then
    coordinate order, as text; the caller has found that one exists."""
    for x in sorted(adj):
        seen: dict[int, int] = {}
        for _, y, c in adj[x]:
            if c in seen:
                a, b, z = (vertex_str(w, dimension) for w in (x, seen[c], y))
                return f"vertex {a}: edges to {b} and {z} share color {c}"
            seen[c] = y


class ColoredCubeGraph(_Host):
    """Explicit edge-colored subgraph of Q_N.  Immutable after construction.

    ``edges`` is an iterable of (u, v, color) triples; endpoints are added to
    the vertex set automatically.  A malformed edge (out of range, not a
    single bit flip, or a negative color) raises ValueError here, and so
    does an improper coloring, naming its first clash in vertex and then
    coordinate order.
    """

    __slots__ = ("dimension", "_color", "_adj", "_vertices", "_delta")

    def __init__(
        self,
        dimension: int,
        edges: Iterable[tuple[int, int, int]] = (),
        vertices: Iterable[int] = (),
    ):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        top = 1 << dimension
        color: dict[Edge, int] = {}
        verts = set(vertices)
        for v in verts:
            if not 0 <= v < top:
                raise ValueError(f"vertex {v} outside [0, 2^{dimension})")
        for u, v, c in edges:
            e = canonical_edge(u, v)
            if e in color:
                raise ValueError(f"duplicate edge {e}")
            if not (0 <= u < top and 0 <= v < top):
                raise ValueError(f"edge {e}: endpoint out of range")
            x = u ^ v
            if x == 0 or x & (x - 1):
                raise ValueError(f"edge {e}: endpoints differ in != 1 bit")
            if c < 0:
                raise ValueError(f"edge {e}: negative color")
            color[e] = c
            verts.update(e)
        self._color = color
        self._vertices = frozenset(verts)
        adj: dict[int, list[Incidence]] = {v: [] for v in verts}
        for (u, v), c in color.items():
            q = edge_coordinate(u, v)
            adj[u].append((q, v, c))
            adj[v].append((q, u, c))
        self._adj = {v: tuple(sorted(items)) for v, items in adj.items()}
        # one short-lived color set per vertex; the witness is sought only on a clash
        if any(len({c for _, _, c in items}) < len(items) for items in self._adj.values()):
            raise ValueError(_first_clash(self._adj, dimension))
        self._delta: int | None = None

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    def n_vertices(self) -> int:
        return len(self._vertices)

    def n_edges(self) -> int:
        return len(self._color)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (u, v, color) in sorted order."""
        for (u, v) in sorted(self._color):
            yield u, v, self._color[(u, v)]

    def has_vertex(self, v: int) -> bool:
        return v in self._vertices

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self._color

    def edge_color(self, u: int, v: int) -> int:
        return self._color[canonical_edge(u, v)]

    def incident(self, x: int) -> tuple[Incidence, ...]:
        """Incident edges at x as (coordinate, neighbor, color), by coordinate."""
        try:
            return self._adj[x]
        except KeyError:
            raise VertexNotInGraph(f"vertex {x} not in graph") from None

    def admissible(self, x: int, colors: frozenset[int], coords: frozenset[int]) -> list[Incidence]:
        """Incident edges at x avoiding `colors` and `coords`, by coordinate."""
        return [rec for rec in self.incident(x) if rec[2] not in colors and rec[0] not in coords]

    def degree(self, x: int) -> int:
        return len(self.incident(x))

    def delta(self) -> int:
        """Minimum degree over all vertices."""
        if not self._vertices:
            raise EmptyGraph("graph has no vertices")
        if self._delta is None:
            self._delta = min(len(items) for items in self._adj.values())
        return self._delta

    def delta_after_bans(self, banned_colors: frozenset[int], banned_coords: frozenset[int]) -> int:
        if not self._vertices:
            raise EmptyGraph("graph has no vertices")
        return min(
            sum(1 for q, _, c in items if c not in banned_colors and q not in banned_coords)
            for items in self._adj.values()
        )

    def default_start(self) -> int:
        if not self._vertices:
            raise EmptyGraph("graph has no vertices")
        return min(self._vertices)


class VirtualCayleyCube(_Host):
    """The full cube Q_n with color(e) == coordinate(e), stored implicitly.

    Holds no vertex or edge tables, so n may be large; only neighborhood
    queries are supported (no vertex iteration).
    """

    __slots__ = ("dimension",)

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension

    def n_vertices(self) -> int:
        return 1 << self.dimension

    def n_edges(self) -> int:
        return self.dimension << (self.dimension - 1)

    def has_vertex(self, v: int) -> bool:
        return 0 <= v < (1 << self.dimension)

    def has_edge(self, u: int, v: int) -> bool:
        if not (self.has_vertex(u) and self.has_vertex(v)):
            return False
        x = u ^ v
        return x != 0 and not (x & (x - 1))

    def edge_color(self, u: int, v: int) -> int:
        return edge_coordinate(u, v)

    def incident(self, x: int) -> tuple[Incidence, ...]:
        return tuple(self.admissible(x, frozenset(), frozenset()))

    def admissible(self, x: int, colors: frozenset[int], coords: frozenset[int]) -> "FreeCoordinates":
        """Incident edges at x avoiding `colors` and `coords`, by coordinate.

        Colors coincide with coordinates, so the admissible edges are the
        coordinates outside one set union; they are listed lazily.
        """
        if not self.has_vertex(x):
            raise VertexNotInGraph(f"vertex {x} not in graph")
        return FreeCoordinates(x, self.dimension, sorted(colors | coords))

    def degree(self, x: int) -> int:
        if not self.has_vertex(x):
            raise VertexNotInGraph(f"vertex {x} not in graph")
        return self.dimension

    def delta(self) -> int:
        return self.dimension

    def delta_after_bans(self, banned_colors: frozenset[int], banned_coords: frozenset[int]) -> int:
        # colors coincide with coordinates; each vertex loses exactly one
        # edge per banned class that names a real coordinate
        lost = {c for c in banned_colors | banned_coords if 0 <= c < self.dimension}
        return self.dimension - len(lost)

    def default_start(self) -> int:
        return 0


class FreeCoordinates(Sequence):
    """The records (q, x ^ 2^q, q) for the coordinates q < m outside the
    bans, in coordinate order: the admissible edges at x of the implicit
    cube, built on demand.

    The bans come in two parts.  `banned` is a sorted sequence, read in
    place and never copied, so it must not change while the sequence is in
    use.  `more` holds further sets of bans, read by membership alone, and
    `banned_sets` holds sets whose union is the set of `banned`, so that
    the bans only `more` makes can be told apart when a count needs them.

    Truth and the first record make no pass over any ban: they cost
    O(log |banned|) for the record and for each coordinate below it that
    only `more` bans.  `len` and any other ``[i]`` first list those
    coordinates, in one pass over `more`; then `len` costs O(1) and ``[i]``
    O(log |banned|) times one plus the listed coordinates below the record.
    None of these costs O(m).  Iteration gives the records in order, and the
    sequence compares equal to the list of them.
    """

    __slots__ = ("_x", "_m", "_banned", "_lo", "_hi", "_more", "_banned_sets", "_extra", "_q0")

    def __init__(self, x: int, m: int, banned: Sequence[int],
                 more: tuple[Collection[int], ...] = (),
                 banned_sets: tuple[Collection[int], ...] = ()):
        self._x, self._m, self._banned = x, m, banned
        # the bans that name a coordinate are banned[lo:hi]
        self._lo, self._hi = bisect_left(banned, 0), bisect_left(banned, m)
        self._more, self._banned_sets = more, banned_sets
        self._extra: list[int] | None = None if more else []
        self._q0: int | None = None

    def _outside_banned(self, j: int) -> int:
        """The j-th coordinate outside `banned` (m or more past the last)."""
        # it is j + (the number of bans below it); a ban s[k], the (k - lo)-th
        # that names a coordinate, lies below it exactly when the s[k] - (k - lo)
        # coordinates under s[k] outside `banned` number at most j, a test
        # monotone in k
        s, lo = self._banned, self._lo
        a, b = lo, self._hi
        while a < b:
            mid = (a + b) // 2
            if s[mid] - (mid - lo) <= j:
                a = mid + 1
            else:
                b = mid
        return j + a - lo

    def _first(self) -> int:
        """The first free coordinate (m or more when there is none)."""
        if self._q0 is None:
            j, m, more = 0, self._m, self._more
            q = self._outside_banned(0)
            while q < m:
                for bans in more:
                    if q in bans:
                        break
                else:
                    break  # no set of `more` bans q
                j += 1
                q = self._outside_banned(j)
            self._q0 = q
        return self._q0

    def _only_more(self) -> list[int]:
        """The coordinates in [0, m) that `more` bans and `banned` does not, in order."""
        if self._extra is None:
            m = self._m
            extra = set().union(*self._more).difference(*self._banned_sets)
            self._extra = sorted(q for q in extra if 0 <= q < m)
        return self._extra

    def __len__(self) -> int:
        return self._m - (self._hi - self._lo) - len(self._only_more())

    def __bool__(self) -> bool:
        return self._first() < self._m

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        if i == 0:
            q = self._first()
        else:
            n = len(self)
            if not -n <= i < n:
                raise IndexError("candidate index out of range")
            q = self._nth(i % n)
        if q >= self._m:
            raise IndexError("candidate index out of range")
        return q, self._x ^ (1 << q), q

    def _nth(self, i: int) -> int:
        """The i-th free coordinate, for 0 <= i < len(self)."""
        # it is the (i + k)-th outside `banned`, where k counts the
        # coordinates below it that only `more` bans; k only grows from 0 to
        # that count, and at the fixed point q is itself free (were only
        # `more` to ban q, the count would be one past the k that chose q)
        extra, k = self._only_more(), 0
        while True:
            q = self._outside_banned(i + k)
            below = bisect_right(extra, q)
            if below == k:
                return q
            k = below

    def __iter__(self) -> Iterator[Incidence]:
        x, start = self._x, 0
        # the two kinds of bans are disjoint, so their merge lists each once
        for stop in chain(merge(self._banned[self._lo : self._hi], self._only_more()), (self._m,)):
            for q in range(start, stop):
                yield q, x ^ (1 << q), q
            start = stop + 1

    def __eq__(self, other):
        if isinstance(other, FreeCoordinates):
            other = list(other)
        return list(self) == other if isinstance(other, list) else NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"FreeCoordinates({list(self)!r})"


class GraphView:
    """Edge-filtered view of a host: whole color/coordinate classes removed."""

    __slots__ = ("base", "banned_colors", "banned_coords", "_delta")

    def __init__(self, base, banned_colors: frozenset[int], banned_coords: frozenset[int]):
        self.base = base
        self.banned_colors = banned_colors
        self.banned_coords = banned_coords
        self._delta: int | None = None

    @property
    def dimension(self) -> int:
        return self.base.dimension

    def has_vertex(self, v: int) -> bool:
        return self.base.has_vertex(v)

    def _allows(self, q: int, c: int) -> bool:
        return c not in self.banned_colors and q not in self.banned_coords

    def has_edge(self, u: int, v: int) -> bool:
        if not self.base.has_edge(u, v):
            return False
        return self._allows(edge_coordinate(u, v), self.base.edge_color(u, v))

    def edge_color(self, u: int, v: int) -> int:
        return self.base.edge_color(u, v)

    def incident(self, x: int) -> tuple[Incidence, ...]:
        return tuple(self.base.admissible(x, self.banned_colors, self.banned_coords))

    def admissible(self, x: int, colors: frozenset[int], coords: frozenset[int]) -> Sequence[Incidence]:
        return self.base.admissible(x, colors | self.banned_colors, coords | self.banned_coords)

    def degree(self, x: int) -> int:
        return len(self.incident(x))

    def delta(self) -> int:
        """Exact minimum degree of the view (a scan of an explicit host), cached."""
        if self._delta is None:
            self._delta = self.base.delta_after_bans(self.banned_colors, self.banned_coords)
        return self._delta

    def delta_at_least(self, k: int) -> bool:
        """Whether delta() >= k, without a host scan when a bound settles it.

        Every vertex has at most one edge per coordinate (cube geometry) and,
        since every host is proper by construction, at most one edge per
        color.  So each banned class removes at most one edge at each vertex,
        and delta(view) >= delta(base) - |banned colors| - |banned coords|.
        When that bound falls short of k, the exact delta() decides, so the
        answer is always the same as delta() >= k.
        """
        bound = self.base.delta() - len(self.banned_colors) - len(self.banned_coords)
        return bound >= k or self.delta() >= k

    def restrict(self, banned_colors: Iterable[int] = (), banned_coords: Iterable[int] = ()):
        bc, bx = frozenset(banned_colors), frozenset(banned_coords)
        if not bc and not bx:
            return self
        return GraphView(self.base, self.banned_colors | bc, self.banned_coords | bx)

    def default_start(self) -> int:
        return self.base.default_start()


def cube_edges(n: int) -> list[tuple[int, int, int]]:
    """Every edge (u, v, coordinate) of Q_n with u < v, in sorted order: the
    order ``edges()`` gives.  Guarded to 1 <= n <= MAX_EXPLICIT_DIMENSION;
    use VirtualCayleyCube beyond."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_EXPLICIT_DIMENSION:
        raise LimitExceeded(f"cayley_coloring materializes 2^{n} vertices; use VirtualCayleyCube")
    # for a fixed u, v = u + 2^q grows with q
    return [(u, u | (1 << q), q) for u in range(1 << n) for q in range(n) if not u >> q & 1]


def cayley_coloring(n: int) -> ColoredCubeGraph:
    """Full Q_n where every edge is colored by its coordinate.

    Uses n colors, each class a perfect matching of 2^(n-1) edges, and the
    coloring is proper.  Guarded as :func:`cube_edges` is.
    """
    return ColoredCubeGraph(n, cube_edges(n))


def candidate_edges(
    g,
    x: int,
    forbidden_colors: Iterable[int] = (),
    forbidden_coords: Iterable[int] = (),
    sorted_colors: Sequence[int] | None = None,
) -> Sequence[Incidence]:
    """Incident edges at x avoiding the forbidden colors and coordinates.

    Deterministic order: by coordinate (at a fixed vertex the coordinate
    determines the neighbor, so this is also lexicographic-by-neighbor
    within each coordinate).  The result is a sequence: a list on an
    explicit host, and on the implicit cube a lazy :class:`FreeCoordinates`,
    whose length and items cost what the bans cost, not the cube's width.

    `sorted_colors`, when given, must list in increasing order exactly the
    colors the query bans: the forbidden colors together with those the
    view bans; the caller vouches for that.  The implicit cube, whose
    colors are coordinates, then reads that list in place, so its first or
    i-th free coordinate comes from a binary search in it plus membership
    tests of the coordinate bans, with no union or sort of the bans.  An
    explicit host has no use for it (:func:`reads_color_index`).
    """
    colors, coords = frozenset(forbidden_colors), frozenset(forbidden_coords)
    if sorted_colors is None or not reads_color_index(g):
        return g.admissible(x, colors, coords)
    if isinstance(g, GraphView):
        base, view_colors, view_coords = g.base, g.banned_colors, g.banned_coords
    else:
        base, view_colors, view_coords = g, (), ()
    if not base.has_vertex(x):
        raise VertexNotInGraph(f"vertex {x} not in graph")
    return FreeCoordinates(x, base.dimension, sorted_colors,
                           (coords, view_coords), (colors, view_colors))


def reads_color_index(g) -> bool:
    """Whether :func:`candidate_edges` on `g` reads a `sorted_colors` index:
    on the implicit cube and its views, whose colors are coordinates."""
    return isinstance(g.base if isinstance(g, GraphView) else g, VirtualCayleyCube)


# --- text format ----------------------------------------------------------
#
# one record per line, `#` starts a comment:
#   cube <N>
#   vertex <binary>
#   edge <binary_u> <binary_v> <color>
#
# Coordinates are always recomputed from the endpoint bits, never read.


def format_graph(g: ColoredCubeGraph) -> str:
    lines = [f"cube {g.dimension}"]
    touched = set()
    for u, v, _ in g.edges():
        touched.update((u, v))
    for v in sorted(g.vertices - touched):
        lines.append(f"vertex {vertex_str(v, g.dimension)}")
    for u, v, c in g.edges():
        lines.append(f"edge {vertex_str(u, g.dimension)} {vertex_str(v, g.dimension)} {c}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str, *, strict_vertices: bool = False) -> ColoredCubeGraph:
    declared: set[int] = set()
    edges: list[tuple[int, int, int]] = []

    def cube(n_text: str) -> int:
        dimension = int(n_text)
        if dimension < 1:
            raise FormatError("dimension must be >= 1")
        return dimension

    def vertex(dimension: int, v_text: str) -> None:
        declared.add(parse_vertex(v_text, dimension))

    def edge(dimension: int, u_text: str, v_text: str, c_text: str) -> None:
        u = parse_vertex(u_text, dimension)
        v = parse_vertex(v_text, dimension)
        c = int(c_text)
        if c < 0:
            raise FormatError("color must be nonnegative")
        edge_coordinate(u, v)  # reject malformed pairs
        if strict_vertices and not (u in declared and v in declared):
            raise FormatError("edge uses undeclared vertex under strict-vertices")
        declared.update((u, v))
        edges.append((u, v, c))

    dimension = read_records(text, "cube", {"cube": (1, cube), "vertex": (1, vertex), "edge": (3, edge)})
    try:
        return ColoredCubeGraph(dimension, edges, declared)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
