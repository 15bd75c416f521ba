"""Finite subgraphs of the hypercube with edge colorings.

Vertices are ints: bit i of a vertex is its i-th coordinate, bit 0 least
significant.  A vertex serializes as an N-character binary string, most
significant bit first.  An edge joins vertices differing in exactly one bit;
the index of that bit is the edge's *coordinate*.  A coloring is *proper*
when no two edges sharing an endpoint carry the same color.  Every host is
proper by construction: :class:`ColoredCubeGraph` refuses an improper
coloring, and the implicit cube colors each edge by its coordinate.

Every host answers one set of queries: :class:`ColoredCubeGraph` is an
explicit host, while :class:`VirtualCayleyCube` is the full cube with
color == coordinate, kept implicit so the ambient dimension can be large.
An explicit host of Q_N stores one flat list of 2^N * N colors, slot
x*N + q holding the color of the edge at x in coordinate q or -1 when that
edge is absent, beside its vertex set; N is at most MAX_EXPLICIT_DIMENSION.
It keeps no records: incident-edge records are built when a query asks for
them.  ``restrict`` produces O(1) filtered views, and a host is its own
view with nothing banned; no host is ever copied.

Each host answers the one candidate query, ``admissible``, which takes the
bans as collections read by membership plus the sorted list of mapped
colors; ``candidate_edges`` passes it the request's and the view's bans
unchanged.  It returns a sequence of incident records: a list on an
explicit host, and on the implicit cube a lazy one that builds only the
records it is asked for.  Where a query must list what the bans hold
beyond the mapped colors, it asks each set for that part (``unlisted``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Collection, Sequence
from heapq import merge
from itertools import chain, compress, repeat
from operator import xor
from typing import Iterable, Iterator

from .errors import (
    DifferingBitCount,
    EmptyGraph,
    FormatError,
    LimitExceeded,
    VertexNotInGraph,
)
from .records import iter_records

Edge = tuple[int, int]
# incident-edge record: (coordinate, neighbor, color)
Incidence = tuple[int, int, int]
# bans of one kind, colors or coordinates: sets read by membership alone
Bans = tuple[Collection[int], ...]

# the widest cube built explicitly (2^16 vertices); VirtualCayleyCube goes beyond
MAX_EXPLICIT_DIMENSION = 16


def explicit_dimension(n: int, name: str) -> int:
    """`n`, checked as the dimension of an explicit host: at least 1
    (ValueError, naming it `name`) and at most MAX_EXPLICIT_DIMENSION
    (LimitExceeded)."""
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")
    if n > MAX_EXPLICIT_DIMENSION:
        raise LimitExceeded(f"an explicit host stores 2^{n} vertices; the limit is 2^{MAX_EXPLICIT_DIMENSION}")
    return n


def unlisted(bans: Collection[int], listed: Sequence[int]) -> Iterable[int]:
    """A part of `bans` holding each element that the sorted list `listed`
    lacks: what the set's `outside(listed)` gives when it has one (a set
    that knows which of its elements `listed` holds), else all of it."""
    outside = getattr(bans, "outside", None)
    return bans if outside is None else outside(listed)


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
    # a character outside {0, 1} survives the strip
    if len(text) != dimension or text.strip("01"):
        raise FormatError(f"bad vertex {text!r} for dimension {dimension}")
    return int(text, 2)


class _Host:
    """The view protocol of every host and view: a host is its own view
    (`base`) with nothing banned, so one `restrict` and one `delta_at_least`
    serve both.  Each subclass defines delta()."""

    __slots__ = ()

    banned_colors: frozenset[int] = frozenset()
    banned_coords: frozenset[int] = frozenset()

    @property
    def base(self):
        return self

    def delta_at_least(self, k: int) -> bool:
        """Whether delta() >= k, without a host scan when a bound settles it.

        Every vertex has at most one edge per coordinate (cube geometry) and,
        since every host is proper by construction, at most one edge per
        color.  So each banned class removes at most one edge at each vertex,
        and delta(view) >= delta(base) - |banned colors| - |banned coords|;
        for a host, which bans nothing, the bound is its own delta.  When
        the bound falls short of k, the exact delta() decides, so the answer
        is always the same as delta() >= k.
        """
        bound = self.base.delta() - len(self.banned_colors) - len(self.banned_coords)
        return bound >= k or self.delta() >= k

    def restrict(self, banned_colors: Iterable[int] = (), banned_coords: Iterable[int] = ()):
        bc, bx = frozenset(banned_colors), frozenset(banned_coords)
        if not bc and not bx:
            return self
        return GraphView(self.base, self.banned_colors | bc, self.banned_coords | bx)


def _clash(x: int, row: Sequence[int], dimension: int) -> str | None:
    """The first two edges of one color in x's row, in coordinate order, as
    text, or None when the row has none."""
    seen: dict[int, int] = {}
    for q, c in enumerate(row):
        if c < 0:
            continue
        if c in seen:
            a, b, z = (vertex_str(w, dimension) for w in (x, x ^ (1 << seen[c]), x ^ (1 << q)))
            return f"vertex {a}: edges to {b} and {z} share color {c}"
        seen[c] = q


def _symmetric(colors: list[int], n: int) -> bool:
    """Whether every slot of the flat color list of Q_n equals its partner:
    slot x*n + q and the slot of x ^ 2^q at q hold the two ends of one edge."""
    for q in range(n):
        step = n << q  # from the slot of x to its partner's, when bit q of x is 0
        # the vertices whose bit q is 0, against their partners: by 2^q
        # strided slices, each r + k*2^(q+1) for one r < 2^q, or by
        # 2^(n-q-1) runs of 2^q vertices, whichever are fewer
        if q < n - q - 1:
            for a in range(q, step, n):
                if colors[a :: 2 * step] != colors[a + step :: 2 * step]:
                    return False
        else:
            for b in range(0, n << n, 2 * step):
                if colors[b + q : b + step : n] != colors[b + step + q : b + 2 * step : n]:
                    return False
    return True


class ColoredCubeGraph(_Host):
    """Explicit edge-colored subgraph of Q_N.  Immutable after construction.

    A host comes from one of two entry points, each ending in one row pass
    over the module's flat color list.  The constructor takes ``edges``, an
    iterable of (u, v, color) triples, read once, so it may be a generator;
    endpoints are added to the vertex set automatically.  ``vertices`` is
    read after the last edge, so a generator of edges may still add to it.
    ``from_slots`` takes the flat color list itself, as the generators
    write it.  Every check raises ValueError, in this order:

    - the constructor, as each edge is read: an endpoint out of range,
      endpoints that differ in other than one bit, or a negative color; a
      repeated edge is not checked further, its color unread; once the
      edges end, the first repeated edge, as a duplicate;
    - ``from_slots``: a list whose length is not 2^N * N, then the first
      slot below -1, then the first edge whose two slots differ;
    - the row pass: a vertex out of range, then an improper coloring,
      naming its first clash in vertex and then coordinate order.

    An error that the edges iterable raises itself (``parse_graph``'s
    numbered format errors) ends the read where it is raised, so it comes
    before the duplicate and the row pass.  N is at most
    MAX_EXPLICIT_DIMENSION (LimitExceeded beyond), checked before anything
    is read.

    The store is the flat color list, each edge held at both ends.  The row
    pass checks properness and finds the minimum degree and the least
    vertex, so delta() and default_start() cost O(1); incident() and
    admissible() build the records they return, admissible() only those
    that survive the bans.
    """

    __slots__ = ("dimension", "_colors", "_vertices", "_delta", "_start")

    def __init__(
        self,
        dimension: int,
        edges: Iterable[tuple[int, int, int]] = (),
        vertices: Iterable[int] = (),
    ):
        self.dimension = n = explicit_dimension(dimension, "dimension")
        top = 1 << n
        colors = [-1] * (top * n)
        repeat = None
        for u, v, c in edges:
            if not (0 <= u < top and 0 <= v < top):
                raise ValueError(f"edge {canonical_edge(u, v)}: endpoint out of range")
            x = u ^ v
            if x == 0 or x & (x - 1):
                raise ValueError(f"edge {canonical_edge(u, v)}: endpoints differ in != 1 bit")
            q = x.bit_length() - 1
            i = u * n + q
            # an edge already stored is well formed, so a repeat is a
            # duplicate whatever its color; it is reported once the edges end
            if colors[i] >= 0:
                if repeat is None:
                    repeat = canonical_edge(u, v)
                continue
            if c < 0:
                raise ValueError(f"edge {canonical_edge(u, v)}: negative color")
            colors[i] = colors[v * n + q] = c
        if repeat is not None:
            raise ValueError(f"duplicate edge {repeat}")
        # what from_slots checks holds here by construction: the list has
        # 2^n * n slots, the loop writes only colors >= 0 into slots of -1,
        # and it writes each at both ends of its edge
        self._row_pass(colors, vertices)

    @classmethod
    def from_slots(cls, dimension: int, colors: Iterable[int], vertices: Iterable[int] = ()) -> ColoredCubeGraph:
        """The host whose flat color list is `colors`, copied: slot x*N + q
        holds the color of the edge at x in coordinate q, or -1 when that
        edge is absent.  Its vertices are those of its edges and of
        `vertices`.  The checks and their order are the class docstring's."""
        n = explicit_dimension(dimension, "dimension")
        colors = list(colors)
        if len(colors) != n << n:
            raise ValueError(f"a slot list of Q_{n} holds {n << n} colors, got {len(colors)}")
        if min(colors) < -1:
            s = next(s for s, c in enumerate(colors) if c < -1)
            raise ValueError(f"vertex {s // n}, coordinate {s % n}: color {colors[s]} is below -1")
        if not _symmetric(colors, n):
            # in slot order an edge's lower end comes first
            u, q = next((x, q) for x in range(1 << n) for q in range(n)
                        if colors[x * n + q] != colors[(x ^ 1 << q) * n + q])
            v = u | 1 << q
            raise ValueError(f"edge {(u, v)}: color {colors[u * n + q]} at {u} but {colors[v * n + q]} at {v}")
        g = cls.__new__(cls)
        g.dimension = n
        g._row_pass(colors, vertices)
        return g

    def _row_pass(self, colors: list[int], vertices: Iterable[int]) -> None:
        """Check the declared vertices and the properness of `colors`, a
        flat color list of the host's dimension whose slots are at least -1
        and equal their partners, then keep it with the vertex set, the
        minimum degree and the least vertex."""
        n = self.dimension
        top = 1 << n
        verts = set(vertices)
        for v in verts:
            if not 0 <= v < top:
                raise ValueError(f"vertex {v} outside [0, 2^{n})")
        # x's row is slots x*n to x*n + n - 1, and absent[x] counts its -1s
        absent = list(map(tuple.count, zip(*[iter(colors)] * n), repeat(-1)))
        # a row with a absent slots has at most n - a distinct colors, plus
        # -1 when a > 0, and has all of them exactly when it is proper; so
        # the rows' distinct values sum to this bound exactly when every
        # row is proper
        if sum(map(len, map(set, zip(*[iter(colors)] * n)))) != top * n - sum(absent) + top - absent.count(0):
            for x, row in enumerate(zip(*[iter(colors)] * n)):
                clash = _clash(x, row, n)
                if clash is not None:
                    raise ValueError(clash)
        # a row with no edge is a vertex only when declared
        verts = frozenset(chain(verts, compress(range(top), map(n.__ne__, absent))))
        self._colors = colors
        self._vertices = verts
        self._delta = n - max(map(absent.__getitem__, verts), default=0)
        self._start = min(verts, default=None)

    @property
    def vertices(self) -> frozenset[int]:
        return self._vertices

    def n_vertices(self) -> int:
        return len(self._vertices)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (u, v, color) in sorted order."""
        n, colors = self.dimension, self._colors
        # for a fixed u < v, v = u + 2^q grows with q
        for u in sorted(self._vertices):
            for q, c in enumerate(colors[u * n : u * n + n]):
                if c >= 0 and not u >> q & 1:
                    yield u, u | (1 << q), c

    def has_vertex(self, v: int) -> bool:
        return v in self._vertices

    def _color_at(self, u: int, v: int) -> int:
        """The color of edge uv, or -1 when uv is not an edge of the host."""
        n, x = self.dimension, u ^ v
        # x < 2^n keeps q inside u's row: x == 2^n would read the next row
        if 0 <= u < 1 << n and 0 < x < 1 << n and not x & (x - 1):
            return self._colors[u * n + x.bit_length() - 1]
        return -1

    def has_edge(self, u: int, v: int) -> bool:
        return self._color_at(u, v) >= 0

    def edge_color(self, u: int, v: int) -> int:
        c = self._color_at(u, v)
        if c < 0:
            raise KeyError(canonical_edge(u, v))
        return c

    def _row(self, x: int) -> list[int]:
        if x not in self._vertices:
            raise VertexNotInGraph(f"vertex {x} not in graph")
        n = self.dimension
        return self._colors[x * n : x * n + n]

    def incident(self, x: int) -> tuple[Incidence, ...]:
        """Incident edges at x as (coordinate, neighbor, color), by coordinate."""
        return tuple([(q, x ^ (1 << q), c) for q, c in enumerate(self._row(x)) if c >= 0])

    def admissible(self, x: int, color_bans: Bans, coord_bans: Bans, mapped: Sequence[int]) -> list[Incidence]:
        """Incident edges at x whose color is neither in `mapped` nor in any
        set of `color_bans`, and whose coordinate is in no set of
        `coord_bans`, by coordinate.  The bans are unioned once, for a row of
        at most 16 slots."""
        colors, coords = set(mapped), set()
        colors.update(*color_bans)
        coords.update(*coord_bans)
        return [
            (q, x ^ (1 << q), c)
            for q, c in enumerate(self._row(x))
            if c >= 0 and c not in colors and q not in coords
        ]

    def degree(self, x: int) -> int:
        return self.dimension - self._row(x).count(-1)

    def delta(self) -> int:
        """Minimum degree over all vertices."""
        if not self._vertices:
            raise EmptyGraph("graph has no vertices")
        return self._delta

    def delta_after_bans(self, banned_colors: frozenset[int], banned_coords: frozenset[int]) -> int:
        if not self._vertices:
            raise EmptyGraph("graph has no vertices")
        n, colors = self.dimension, self._colors
        live = [q for q in range(n) if q not in banned_coords]
        if not live:
            return 0
        # column q lists every vertex's slot q; a slot is lost when it is
        # absent (-1) or banned, and zip reassembles each vertex's losses
        lost = (banned_colors | {-1}).__contains__
        losses = map(sum, zip(*[map(lost, colors[q::n]) for q in live]))
        if len(self._vertices) < 1 << n:
            losses = map(list(losses).__getitem__, self._vertices)
        return len(live) - max(losses)

    def default_start(self) -> int:
        """The least vertex."""
        if self._start is None:
            raise EmptyGraph("graph has no vertices")
        return self._start


class VirtualCayleyCube(_Host):
    """The full cube Q_n with color(e) == coordinate(e), stored implicitly.

    Holds no vertex or edge tables, so n may be large.  Up to
    MAX_EXPLICIT_DIMENSION it also lists its vertices and edges, so that
    format_graph, write_bundle and the oracle take it as they take an
    explicit host; beyond, listing raises LimitExceeded.
    """

    __slots__ = ("dimension", "_top")

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._top = 1 << dimension  # the vertex count, made once

    def _listable(self) -> int:
        n = self.dimension
        if n > MAX_EXPLICIT_DIMENSION:
            raise LimitExceeded(f"listing Q_{n} takes 2^{n} vertices; the limit is 2^{MAX_EXPLICIT_DIMENSION}")
        return n

    @property
    def vertices(self) -> range:
        return range(1 << self._listable())

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (u, v, coordinate) in sorted order, as cayley_coloring's host does."""
        return cube_edges(self._listable())

    def n_vertices(self) -> int:
        return self._top

    def has_vertex(self, v: int) -> bool:
        return 0 <= v < self._top

    def has_edge(self, u: int, v: int) -> bool:
        if not (self.has_vertex(u) and self.has_vertex(v)):
            return False
        x = u ^ v
        return x != 0 and not (x & (x - 1))

    def edge_color(self, u: int, v: int) -> int:
        return edge_coordinate(u, v)

    def incident(self, x: int) -> tuple[Incidence, ...]:
        return tuple(self.admissible(x, (), (), ()))

    def admissible(self, x: int, color_bans: Bans, coord_bans: Bans, mapped: Sequence[int]) -> "FreeCoordinates":
        """As ColoredCubeGraph.admissible.  Colors coincide with coordinates,
        so the answer is the coordinates that no ban names, listed lazily: the
        sorted `mapped` read in place, the sets by membership, nothing unioned."""
        if not self.has_vertex(x):
            raise VertexNotInGraph(f"vertex {x} not in graph")
        return FreeCoordinates(x, self.dimension, mapped, coord_bans + color_bans)

    def degree(self, x: int) -> int:
        if not self.has_vertex(x):
            raise VertexNotInGraph(f"vertex {x} not in graph")
        return self.dimension

    def delta(self) -> int:
        return self.dimension

    def delta_after_bans(self, banned_colors: frozenset[int], banned_coords: frozenset[int]) -> int:
        # colors coincide with coordinates; each vertex loses exactly one
        # edge per banned class that names a real coordinate.  A color set
        # that knows all its elements are such (its `below`, read in place)
        # counts them by its size, and only the coordinates are walked
        m = self.dimension
        below = getattr(banned_colors, "below", None)
        colors = below(m) if below is not None else None
        if colors is None:
            return m - len({c for c in banned_colors | banned_coords if 0 <= c < m})
        return m - len(colors) - len({q for q in banned_coords if 0 <= q < m and q not in colors})

    def default_start(self) -> int:
        return 0


def _holds(sorted_list: Sequence[int], q: int) -> bool:
    i = bisect_left(sorted_list, q)
    return i < len(sorted_list) and sorted_list[i] == q


class FreeCoordinates(Sequence):
    """The records (q, x ^ 2^q, q) for the coordinates q < m outside the
    bans, in coordinate order: the admissible edges at x of the implicit
    cube, built on demand.

    The bans come in two parts.  `banned` is a sorted sequence, read in
    place and never copied, so it must not change while the sequence is in
    use.  `more` holds further sets of bans, read by membership, and by
    ``unlisted`` for the part that `banned` lacks.

    Truth and the first record make no pass over any ban: they cost
    O(log |banned|) for the record and for each coordinate below it that
    only `more` bans.  `len` and any other ``[i]`` first list those
    coordinates, in one pass over the unlisted parts of `more`; then `len`
    costs O(1) and ``[i]`` O(log |banned|) times one plus the listed
    coordinates below the record.
    None of these costs O(m).  Iteration gives the records in order.
    """

    __slots__ = ("_x", "_m", "_banned", "_lo", "_hi", "_more", "_extra", "_q0")

    def __init__(self, x: int, m: int, banned: Sequence[int], more: Bans = ()):
        self._x, self._m, self._banned = x, m, banned
        # the bans that name a coordinate are banned[lo:hi]
        self._lo, self._hi = bisect_left(banned, 0), bisect_left(banned, m)
        self._more = more
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
            s, lo, hi = self._banned, self._lo, self._hi
            # the greedy engine's bans below m are mostly 0 .. k - 1, whose
            # first outside coordinate is k
            q = hi - lo if lo == hi or s[hi - 1] - s[lo] == hi - lo - 1 == s[hi - 1] else self._outside_banned(0)
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
            # a coordinate outside `banned` is in a set exactly when it is in
            # the set's unlisted part; `banned` is tested by bisection, so
            # this costs the unlisted parts, not the bans
            m, banned = self._m, self._banned
            extra: set[int] = set()
            for bans in self._more:
                extra.update(unlisted(bans, banned))
            self._extra = sorted(q for q in extra if 0 <= q < m and not _holds(banned, q)) if extra else []
        return self._extra

    def __len__(self) -> int:
        return self._m - (self._hi - self._lo) - len(self._only_more())

    def __bool__(self) -> bool:
        return self._first() < self._m

    def __getitem__(self, i: int) -> Incidence:
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


class GraphView(_Host):
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

    def has_edge(self, u: int, v: int) -> bool:
        if not self.base.has_edge(u, v):
            return False
        return (self.base.edge_color(u, v) not in self.banned_colors
                and edge_coordinate(u, v) not in self.banned_coords)

    def edge_color(self, u: int, v: int) -> int:
        return self.base.edge_color(u, v)

    def incident(self, x: int) -> tuple[Incidence, ...]:
        return tuple(self.base.admissible(x, (self.banned_colors,), (self.banned_coords,), ()))

    def delta(self) -> int:
        """Exact minimum degree of the view (a scan of an explicit host), cached."""
        if self._delta is None:
            self._delta = self.base.delta_after_bans(self.banned_colors, self.banned_coords)
        return self._delta

    def default_start(self) -> int:
        return self.base.default_start()


def cube_edges(n: int) -> Iterator[tuple[int, int, int]]:
    """An iterator over every edge (u, v, coordinate) of Q_n with u < v, in
    sorted order: the order ``edges()`` gives.  Guarded, when called, to
    1 <= n <= MAX_EXPLICIT_DIMENSION; use VirtualCayleyCube beyond."""
    explicit_dimension(n, "n")
    # for a fixed u, v = u + 2^q grows with q
    bits = [(q, 1 << q) for q in range(n)]
    return ((u, u | b, q) for u in range(1 << n) for q, b in bits if not u & b)


# by n, the edge table of Q_n (see edge_table); built on first use, so
# that importing the package costs nothing
_EDGE_TABLES: dict[int, tuple[array, array, array]] = {}


def edge_table(n: int) -> tuple[array, array, array]:
    """The edges of Q_n in ``cube_edges`` order, as three arrays: each
    edge's coordinate q, and its slots u*n + q and v*n + q in a flat color
    list.  Built once per n and shared, so no caller may change it; it
    takes about 1.0 MB at n = 14 and 4.7 MB at n = 16.  Guarded as
    :func:`cube_edges` is."""
    table = _EDGE_TABLES.get(n)
    if table is None:
        # a slot is below 2^16 * 16 = 2^20, so it fits an array("i")
        coords, low, high = array("B"), array("i"), array("i")
        for u, v, q in cube_edges(n):
            coords.append(q)
            low.append(u * n + q)
            high.append(v * n + q)
        table = _EDGE_TABLES[n] = (coords, low, high)
    return table


def cayley_slots(n: int) -> list[int]:
    """The flat color list of cayley_coloring(n): slot x*n + q holds q.
    Guarded as :func:`cube_edges` is, before the list is built."""
    n = explicit_dimension(n, "n")
    return list(range(n)) * (1 << n)


def cayley_coloring(n: int) -> ColoredCubeGraph:
    """Full Q_n where every edge is colored by its coordinate.

    Uses n colors, each class a perfect matching of 2^(n-1) edges, and the
    coloring is proper.  Guarded as :func:`cube_edges` is.
    """
    return ColoredCubeGraph.from_slots(n, cayley_slots(n))


def candidate_edges(
    g,
    x: int,
    forbidden_colors: Collection[int] = (),
    forbidden_coords: Collection[int] = (),
    mapped: Sequence[int] = (),
) -> Sequence[Incidence]:
    """Incident edges at x avoiding the forbidden colors and coordinates,
    collections read by membership, the view's bans and the colors in
    `mapped`.

    Deterministic order: by coordinate (at a fixed vertex the coordinate
    determines the neighbor, so this is also lexicographic-by-neighbor
    within each coordinate).  The result is a sequence: a list on an
    explicit host, and on the implicit cube a lazy :class:`FreeCoordinates`,
    whose length and items cost what the bans cost, not the cube's width.

    `mapped` lists in increasing order the colors that a rainbow step may
    not take again: those of the edges already mapped.  One route serves
    every host and view: the view's host answers ``admissible`` with the
    request's and the view's bans as they are, each read by membership,
    and `mapped` as it is.
    """
    return g.base.admissible(x, (forbidden_colors, g.banned_colors), (forbidden_coords, g.banned_coords), mapped)


# --- text format ----------------------------------------------------------
#
# one record per line, `#` starts a comment:
#   cube <N>
#   vertex <binary>
#   edge <binary_u> <binary_v> <color>
#
# Coordinates are always recomputed from the endpoint bits, never read.


def format_graph(g: ColoredCubeGraph | VirtualCayleyCube) -> str:
    # the implicit cube, up to Q_16, is written as the explicit host it equals
    n = g.dimension
    # each vertex's text, made once: a vertex of Q_N ends up to N edge lines
    text = {v: vertex_str(v, n) for v in g.vertices}
    lines = [f"cube {n}"]
    # an isolated vertex is one whose row holds no edge
    lines += [f"vertex {text[v]}" for v in sorted(g.vertices) if not g.degree(v)]
    lines += [f"edge {text[u]} {text[v]} {c}" for u, v, c in g.edges()]
    return "\n".join(lines) + "\n"


def parse_graph(text: str, *, strict_vertices: bool = False) -> ColoredCubeGraph:
    """The host a text describes, its records streamed into the constructor.

    Edge lines are checked and turned into (u, v, color) as the constructor
    reads them, a block of about 64 K characters at a time, so only one
    block's lines, or its fields and edges, are ever held in a list.  A
    block of plain edge lines is checked as a whole, each distinct vertex
    text once; a block with anything else in it, or on whose lines the
    edge handler would raise, is read line by line.  Every error is
    reported as if the whole text were read first.
    """
    declared: set[int] = set()
    # each vertex text seen in this parse, checked once: a vertex of Q_N
    # appears on up to N edge lines
    seen: dict[str, int] = {}

    def cube(n_text: str) -> int:
        dimension = int(n_text)
        if dimension < 1:
            raise FormatError("dimension must be >= 1")
        if dimension > MAX_EXPLICIT_DIMENSION:
            raise FormatError(f"dimension must be <= {MAX_EXPLICIT_DIMENSION} for an explicit host")
        return dimension

    def vertex(dimension: int, v_text: str) -> None:
        v = seen.get(v_text)
        if v is None:
            v = seen[v_text] = parse_vertex(v_text, dimension)
        declared.add(v)

    def edge(dimension: int, u_text: str, v_text: str, c_text: str) -> tuple[int, int, int]:
        u = seen.get(u_text)
        if u is None:
            u = seen[u_text] = parse_vertex(u_text, dimension)
        v = seen.get(v_text)
        if v is None:
            v = seen[v_text] = parse_vertex(v_text, dimension)
        c = int(c_text)
        if c < 0:
            raise FormatError("color must be nonnegative")
        x = u ^ v
        if x == 0 or x & (x - 1):
            edge_coordinate(u, v)  # raises, naming the bit count
        if strict_vertices and not (u in declared and v in declared):
            raise FormatError("edge uses undeclared vertex under strict-vertices")
        return u, v, c

    def edges(dimension: int, fields: list[str]) -> Iterator[tuple[int, int, int]] | None:
        # a block of edge lines, given as all its fields, as `edge` reads
        # each line, or None when `edge` would raise on a line of it
        us, vs = fields[1::4], fields[2::4]
        texts = set(us).union(vs)
        try:
            for t in texts.difference(seen):
                seen[t] = parse_vertex(t, dimension)
            cs = list(map(int, fields[3::4]))
        except (FormatError, ValueError):
            return None
        us, vs = list(map(seen.__getitem__, us)), list(map(seen.__getitem__, vs))
        if min(cs) < 0 or not {1 << q for q in range(dimension)}.issuperset(map(xor, us, vs)):
            return None
        if strict_vertices and not declared.issuperset(map(seen.__getitem__, texts)):
            return None
        return zip(us, vs, cs)

    stream = iter_records(
        text, "cube", {"cube": (1, cube), "vertex": (1, vertex), "edge": (3, edge)}, bulk=("edge", edges)
    )
    dimension = next(stream)
    try:
        # the constructor reads `declared` after the last edge line
        return ColoredCubeGraph(dimension, stream, declared)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
