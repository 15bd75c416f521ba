"""Finite subgraphs of the hypercube with edge colorings.

Vertices are ints: bit i of a vertex is its i-th coordinate, bit 0 least
significant.  A vertex serializes as an N-character binary string, most
significant bit first.  An edge joins vertices differing in exactly one bit;
the index of that bit is the edge's *coordinate*.  A coloring is *proper*
when no two edges sharing an endpoint carry the same color.

Two host flavors share one query surface: :class:`ColoredCubeGraph` stores
an explicit edge list, while :class:`VirtualCayleyCube` is the full cube
with color == coordinate, kept implicit so the ambient dimension can be
large.  ``restrict`` produces O(1) filtered views; no host is ever copied.
``candidate_edges`` returns a sequence of incident records: a list on an
explicit host, and on the implicit cube a lazy one that builds only the
records it is asked for.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
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
from .report import Check, VerificationReport

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


class ColoredCubeGraph(_Host):
    """Explicit edge-colored subgraph of Q_N.  Immutable after construction.

    ``edges`` is an iterable of (u, v, color) triples; endpoints are added to
    the vertex set automatically.  With ``unchecked=True`` malformed edges
    (not a single bit flip, or out of range) are retained for ``validate``
    to report instead of raising here.
    """

    __slots__ = ("dimension", "_color", "_adj", "_vertices", "_bad_edges", "_delta", "_proper")

    def __init__(
        self,
        dimension: int,
        edges: Iterable[tuple[int, int, int]] = (),
        vertices: Iterable[int] = (),
        *,
        unchecked: bool = False,
    ):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        top = 1 << dimension
        color: dict[Edge, int] = {}
        bad: list[tuple[Edge, int, str]] = []
        verts = set(vertices)
        for v in verts:
            if not 0 <= v < top:
                raise ValueError(f"vertex {v} outside [0, 2^{dimension})")
        for u, v, c in edges:
            e = canonical_edge(u, v)
            if e in color:
                raise ValueError(f"duplicate edge {e}")
            problem = None
            if not (0 <= u < top and 0 <= v < top):
                problem = "endpoint out of range"
            else:
                x = u ^ v
                if x == 0 or x & (x - 1):
                    problem = "endpoints differ in != 1 bit"
            if c < 0:
                problem = problem or "negative color"
            if problem:
                if not unchecked:
                    raise ValueError(f"edge {e}: {problem}")
                bad.append((e, c, problem))
                verts.update(e)
                continue
            color[e] = c
            verts.update(e)
        self._color = color
        self._bad_edges = tuple(bad)
        self._vertices = frozenset(verts)
        adj: dict[int, list[Incidence]] = {v: [] for v in verts}
        for (u, v), c in color.items():
            q = edge_coordinate(u, v)
            adj[u].append((q, v, c))
            adj[v].append((q, u, c))
        self._adj = {v: tuple(sorted(items)) for v, items in adj.items()}
        self._delta: int | None = None
        self._proper: bool | None = None

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

    def improper_witness(self) -> tuple[int, int, int, int] | None:
        """(x, y1, y2, c) for the first vertex x with two edges xy1, xy2 of
        color c, in vertex then coordinate order; None when the coloring is proper."""
        for x in sorted(self._vertices):
            seen: dict[int, int] = {}
            for _, y, c in self._adj[x]:
                if c in seen:
                    return x, seen[c], y, c
                seen[c] = y
        return None

    def is_proper(self) -> bool:
        """No two edges at a vertex share a color; one pass, then cached.

        Hosts are not checked for properness when built or parsed, so the
        degree bound of :meth:`GraphView.delta_at_least` asks here first.
        """
        if self._proper is None:
            self._proper = self.improper_witness() is None
        return self._proper

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
        return FreeCoordinates(x, self.dimension, colors | coords)

    def degree(self, x: int) -> int:
        if not self.has_vertex(x):
            raise VertexNotInGraph(f"vertex {x} not in graph")
        return self.dimension

    def delta(self) -> int:
        return self.dimension

    def is_proper(self) -> bool:
        return True

    def delta_after_bans(self, banned_colors: frozenset[int], banned_coords: frozenset[int]) -> int:
        # colors coincide with coordinates; each vertex loses exactly one
        # edge per banned class that names a real coordinate
        lost = {c for c in banned_colors | banned_coords if 0 <= c < self.dimension}
        return self.dimension - len(lost)

    def default_start(self) -> int:
        return 0


class FreeCoordinates(Sequence):
    """The records (q, x ^ 2^q, q) for the coordinates q < m outside
    `banned`, in coordinate order: the admissible edges at x of the implicit
    cube, built on demand.

    Building it sorts the bans; `len` then costs O(1) and ``[i]`` O(log
    |banned|), not O(m).  Iteration gives the records in order, and the
    sequence compares equal to the list of them.
    """

    __slots__ = ("_x", "_m", "_banned")

    def __init__(self, x: int, m: int, banned: frozenset[int]):
        # the bans that name a coordinate, in order
        s = sorted(banned)
        lo, hi = bisect_left(s, 0), bisect_left(s, m)
        self._x, self._m, self._banned = x, m, s[lo:hi] if lo or hi < len(s) else s

    def __len__(self) -> int:
        return self._m - len(self._banned)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(self)[i]
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("candidate index out of range")
        # the i-th free coordinate is i + (the number of bans below it); a
        # ban s[k] lies below it exactly when the s[k] - k free coordinates
        # under s[k] number at most i, a test monotone in k
        s = self._banned
        lo, hi = 0, len(s)
        while lo < hi:
            mid = (lo + hi) // 2
            if s[mid] - mid <= i:
                lo = mid + 1
            else:
                hi = mid
        q = i + lo
        return q, self._x ^ (1 << q), q

    def __iter__(self) -> Iterator[Incidence]:
        x, start = self._x, 0
        for stop in chain(self._banned, (self._m,)):
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
        when the base is properly colored, at most one edge per color.  So
        each banned class removes at most one edge at each vertex, and
        delta(view) >= delta(base) - |banned colors| - |banned coords|.  When
        that bound falls short of k, or the base is improper (one banned
        color can then take several edges at a vertex), the exact delta()
        decides, so the answer is always the same as delta() >= k.
        """
        base = self.base
        bound = base.delta() - len(self.banned_colors) - len(self.banned_coords)
        if bound >= k and base.is_proper():
            return True
        return self.delta() >= k

    def restrict(self, banned_colors: Iterable[int] = (), banned_coords: Iterable[int] = ()):
        bc, bx = frozenset(banned_colors), frozenset(banned_coords)
        if not bc and not bx:
            return self
        return GraphView(self.base, self.banned_colors | bc, self.banned_coords | bx)

    def default_start(self) -> int:
        return self.base.default_start()


def cayley_coloring(n: int) -> ColoredCubeGraph:
    """Full Q_n where every edge is colored by its coordinate.

    Uses n colors, each class a perfect matching of 2^(n-1) edges, and the
    coloring is proper.  Guarded to n <= MAX_EXPLICIT_DIMENSION; use
    VirtualCayleyCube beyond.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > MAX_EXPLICIT_DIMENSION:
        raise LimitExceeded(f"cayley_coloring materializes 2^{n} vertices; use VirtualCayleyCube")
    edges = []
    for u in range(1 << n):
        for q in range(n):
            v = u ^ (1 << q)
            if u < v:
                edges.append((u, v, q))
    return ColoredCubeGraph(n, edges)


def validate(g) -> VerificationReport:
    """Check the host invariants, reporting the first witness per check."""
    if isinstance(g, VirtualCayleyCube):
        checks = [
            Check("dimension", g.dimension >= 1),
            Check("edge-coordinate", True),
            Check("edge-endpoints", True),
            Check("proper-coloring", True),
        ]
        return VerificationReport(tuple(checks))

    checks: list[Check] = [Check("dimension", g.dimension >= 1)]

    bad = g._bad_edges
    if bad:
        (u, v), c, problem = bad[0]
        checks.append(
            Check(
                "edge-coordinate",
                False,
                f"edge {vertex_str(u, g.dimension)}-{vertex_str(v, g.dimension)}: {problem}",
            )
        )
    else:
        checks.append(Check("edge-coordinate", True))

    missing = None
    for (u, v), _ in g._color.items():
        if not (g.has_vertex(u) and g.has_vertex(v)):
            missing = (u, v)
            break
    checks.append(
        Check(
            "edge-endpoints",
            missing is None,
            "" if missing is None else f"edge {missing} has endpoint outside vertex set",
        )
    )

    improper = g.improper_witness()
    if improper:
        x, y1, y2, c = improper
        w = (
            f"vertex {vertex_str(x, g.dimension)}: edges to "
            f"{vertex_str(y1, g.dimension)} and {vertex_str(y2, g.dimension)} share color {c}"
        )
        checks.append(Check("proper-coloring", False, w))
    else:
        checks.append(Check("proper-coloring", True))

    return VerificationReport(tuple(checks))


def candidate_edges(
    g,
    x: int,
    forbidden_colors: Iterable[int] = (),
    forbidden_coords: Iterable[int] = (),
) -> Sequence[Incidence]:
    """Incident edges at x avoiding the forbidden colors and coordinates.

    Deterministic order: by coordinate (at a fixed vertex the coordinate
    determines the neighbor, so this is also lexicographic-by-neighbor
    within each coordinate).  The result is a sequence: a list on an
    explicit host, and on the implicit cube a lazy :class:`FreeCoordinates`,
    whose length and items cost what the bans cost, not the cube's width.
    """
    return g.admissible(x, frozenset(forbidden_colors), frozenset(forbidden_coords))


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
