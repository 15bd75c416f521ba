"""Frames that read their sets in place, from the ledger of mapped edges.

`PartialEmbedding` loads this module with the first tree of more than
embed.LISTED edges and gives that tree's frames an `InPlace` bookkeeping
over one `Ledger`; smaller trees list their frames' sets (embed._Listed),
and so does a frame opened here on anything but a span.  A frame here is a
span of the tree's preorder, and every set a step or a view reads
of it is a read-only class set over the ledger: the colors or coordinates
of the mapped edges that a region holds up to a stamp.  Making one costs
O(1) and asking it O(log n), whatever the frame holds, so a frame costs its
children and the edges it maps, not its size.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Sequence, Set
from itertools import accumulate, chain, islice

from .embed import COLOR, _Ledger, _Listed
from .errors import PreconditionViolated
from .hypercube import GraphView, unlisted


class Ledger(_Ledger):
    """The ledger of a tree whose frames read their sets in place: beyond
    the stamps and the edges of each coordinate, each edge's color and
    coordinate by stamp, the edge of each color (a 1-tuple: the map is
    rainbow), the edges' preorder positions in increasing order, and the
    `skew` edges, whose coordinate is not their color."""

    __slots__ = ("pos", "sorted_colors", "colors", "coords", "at_color", "positions", "skew")

    def __init__(self, t, sorted_colors):
        super().__init__()
        self.pos, self.sorted_colors, self.at_color = t.preorder().pos, sorted_colors, {}
        self.colors, self.coords, self.positions, self.skew = [], [], [], []

    def add(self, e, color, coord):
        self.stamp[e] = len(self.stamp)
        self.at_coord.setdefault(coord, []).append(e)
        self.colors.append(color)
        self.coords.append(coord)
        self.at_color[color] = (e,)
        insort(self.positions, self.pos[e])
        if coord != color:
            self.skew.append(e)


class Span(Sequence):
    """A frame's vertices by preorder position: the subroot, then positions
    lo .. hi - 1 less cut_lo .. cut_hi - 1 (a spider leg, or none).  As the
    frame's region, its edges are those positions' vertices; `count` and
    `mapped` read the ledger's sorted positions, so nothing walks the frame."""

    __slots__ = ("_order", "_pos", "_root", "_lo", "_hi", "_cut_lo", "_cut_hi")

    def __init__(self, t, root, lo, hi, cut=None):
        self._order, self._pos, _, _ = t.preorder()
        self._root, self._lo, self._hi = root, lo, hi
        self._cut_lo, self._cut_hi = cut or (hi, hi)

    def __len__(self):
        return 1 + self._hi - self._lo - (self._cut_hi - self._cut_lo)

    def __getitem__(self, i):
        return self._root if i == 0 else tuple(self)[i]

    def __iter__(self):
        order = self._order
        return chain((self._root,), order[self._lo : self._cut_lo], order[self._cut_hi : self._hi])

    def holds(self, e):
        p = self._pos[e]
        return self._lo <= p < self._hi and not self._cut_lo <= p < self._cut_hi

    def _runs(self, ps):
        runs = ps[bisect_left(ps, self._lo) : bisect_left(ps, self._cut_lo)]
        if self._cut_lo < self._cut_hi:
            runs += ps[bisect_left(ps, self._cut_hi) : bisect_left(ps, self._hi)]
        return runs

    def count(self, ledger):
        ps = ledger.positions
        n = bisect_left(ps, self._cut_lo) - bisect_left(ps, self._lo)
        if self._cut_lo < self._cut_hi:
            n += bisect_left(ps, self._hi) - bisect_left(ps, self._cut_hi)
        return n

    def mapped(self, ledger):
        """The frame's mapped edges, in vertex order."""
        return map(self._order.__getitem__, self._runs(ledger.positions))


class Ranked:
    """The edges of a tree frame below the children of its subroot whose rank
    is at least `first`; `starts` lists the children's preorder positions
    in order, and `rank` their ranks (-1 for a leaf)."""

    __slots__ = ("_frame", "_pos", "_starts", "_rank", "_first")

    def __init__(self, frame, pos, starts, rank, first):
        self._frame, self._pos, self._starts, self._rank, self._first = frame, pos, starts, rank, first

    def holds(self, e):
        return self._frame.holds(e) and self._rank[bisect_right(self._starts, self._pos[e]) - 1] >= self._first

    def mapped(self, ledger):
        return filter(self.holds, self._frame.mapped(ledger))


class Classes(Set):
    """A read-only set: the colors (`coords` false) or coordinates of the
    first `until` mapped edges (by default, every edge mapped when it is
    made) that `region` holds (or, not `inside`, does not hold), and
    `extra`.  Its maker counts the classes besides `extra`, `size`, and
    its size never changes, since the set does not.  Membership looks the element up in
    the ledger; iteration lists the region's mapped edges, or every mapped
    edge outside it."""

    __slots__ = ("_ledger", "_stamp", "_at", "_region", "_holds", "_until", "_size", "_extra", "_inside",
                 "_coords")

    def __init__(self, ledger, coords, region, size, until=None, extra=frozenset(), inside=True):
        self._ledger, self._stamp, self._region, self._holds = ledger, ledger.stamp, region, region.holds
        self._at, self._coords = ledger.at_coord if coords else ledger.at_color, coords
        self._until = len(ledger.stamp) if until is None else until
        self._size, self._extra, self._inside = size + len(extra), extra, inside

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def __len__(self):
        return self._size

    def _held(self, e):
        return self._stamp[e] < self._until and self._holds(e) is self._inside

    def __contains__(self, x):
        for e in self._at.get(x, ()):
            if self._stamp[e] < self._until and self._holds(e) is self._inside:
                return True
        return x in self._extra

    def __iter__(self):
        L, stamp, until = self._ledger, self._stamp, self._until
        values = L.coords if self._coords else L.colors
        if self._inside:
            held = [values[s] for s in map(stamp.__getitem__, self._region.mapped(L)) if s < until]
        else:
            holds = self._holds
            held = [values[s] for e, s in islice(stamp.items(), until) if not holds(e)]
        return chain(self._extra, held)

    def outside(self, listed):
        """A part of this set that holds each element the sorted list `listed`
        lacks (see hypercube's `unlisted`).  The embedding's sorted colors
        hold every color of a mapped edge, and so every coordinate of one
        that is not skew, that coordinate being its color."""
        L = self._ledger
        if listed is not L.sorted_colors:
            return self
        if not self._coords or not L.skew:
            return self._extra
        return self._extra.union(L.coords[self._stamp[e]] for e in L.skew if self._held(e))

    def below(self, m):
        """This set when it is a color set with no extra elements and every
        mapped color lies in [0, m) (the sorted colors' ends do): then it
        holds one color per edge it reads, so its size is exact.  Else None."""
        colors = self._ledger.sorted_colors
        if self._coords or self._extra or (colors and not 0 <= colors[0] <= colors[-1] < m):
            return None
        return self

    def __le__(self, other):
        # the same classes of the same region read up to a later stamp: a superset
        if (type(other) is Classes and other._region is self._region and other._coords is self._coords
                and other._inside is self._inside and other._extra == self._extra
                and self._until <= other._until):
            return True
        return super().__le__(other)


class Union(Set):
    """A read-only union whose size is the sum of its parts': exact for
    disjoint parts, as the engine's are, and otherwise more than the union
    holds, which the degree bound, a lower bound, can only weaken."""

    __slots__ = ("_parts", "_size")

    def __init__(self, parts):
        self._parts, self._size = parts, sum(map(len, parts))

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def __len__(self):
        return self._size

    def __contains__(self, x):
        return any(x in part for part in self._parts)

    def __iter__(self):
        return chain(*self._parts)

    def outside(self, listed):
        return frozenset().union(*(unlisted(part, listed) for part in self._parts))


class InPlace:
    """A frame's bookkeeping on a tree of more than embed.LISTED edges: its
    `region`, a Span, whose mapped edges, colors and coordinates it reads
    from the ledger, and the `view` that `lift` made for it (None for the
    whole tree).  It answers what embed._Listed answers, with class sets."""

    __slots__ = ("ledger", "region", "view", "ranked")

    def __init__(self, ledger, region, view):
        self.ledger, self.region, self.view, self.ranked = ledger, region, view, None

    span = Span

    def classes(self, pe, coords, size=None, extra=frozenset()):
        """Counted as one per mapped edge, unless `size` is given, and `extra`:
        exact for colors, and for coordinates whenever the edges, and
        `extra`, repeat none.  While the frame waits on a frame it opened,
        the region holds that frame's edges too."""
        return Classes(self.ledger, coords, self.region, pe._mapped if size is None else size, extra=extra)

    def coords_in(self, pe, region, size):
        return Classes(self.ledger, True, region, size)

    def later(self, pe, cls, sizes, anchored, first, extra=frozenset()):
        """A tree frame's later anchors, read from the ledger by child rank:
        apart in coordinates, so they hold the sum of their `sizes`."""
        t, pos = pe.tree, pe.tree.preorder().pos
        if self.ranked is None:
            # per child its position and rank, and the sizes summed from each rank on
            rank = {c: i for i, c in enumerate([sc.vertex for sc in cls.spiders] + list(cls.rest))}
            children = t.children[pe.root]
            self.ranked = ([pos[c] for c in children], [rank.get(c, -1) for c in children],
                           list(accumulate(reversed(sizes), initial=0))[::-1])
        starts, ranks, later_sizes = self.ranked
        region = Ranked(self.region, pos, starts, ranks, first)
        return Classes(self.ledger, True, region, later_sizes[first], anchored, extra)

    def add(self, *_):
        """Nothing to keep: the ledger holds every mapped edge."""

    adopt = add

    def lift(self, pe, vertices, banned_coords):
        """lift's view of a frame on `vertices` and the frame's bookkeeping,
        from the frame `pe` that opens it, whose view is g.  When `vertices`
        is a span and g is the host H or the view lift made for `pe`, the new
        frame reads its sets in place too, with `inside` edges mapped already;
        otherwise it lists them (embed._Listed.lift).

        Every mapped edge in the span is live in g: it was mapped in a frame
        that g or a view restricting g served, since frames run depth first and
        the span lies in `pe`'s, or, while g is H, by lift's facts (1) and (2).
        And the colors g bans are the colors mapped outside `pe`'s frame before
        it opened, none mapped outside it since; with `pe`'s colors outside the
        span they are the colors mapped outside the span, one per edge, so none
        is a pre-mapped edge's color.  So among the bans only `banned_coords` is
        new to the pre-mapped edges, and only it is checked.  Those colors are
        one class set, counted as the mapped edges less `inside`; the engine's
        coordinate sets are disjoint (the proofs at steps 1 and 7 of _tree_frame),
        so their sizes add (see Union).
        """
        g, L = pe.graph, self.ledger
        if type(vertices) is not Span or not (g is g.base or g is self.view):
            # the colors `pe` has used, listed for a frame that lists its sets
            return _Listed(self.classes(pe, COLOR), set()).lift(pe, vertices, banned_coords)
        inside = vertices.count(L)
        coords = banned_coords if type(banned_coords) is Classes else frozenset(banned_coords)
        if coords:
            for w in vertices.mapped(L):
                if pe.coord_of[w] in coords:
                    raise PreconditionViolated(f"pre-mapped edge {w} was banned from the restricted host")
        if inside == pe._mapped and not coords:
            return g, InPlace(L, vertices, g), inside  # nothing new to ban
        coord_bans = Union((g.banned_coords, coords)) if coords and g.banned_coords else coords or g.banned_coords
        view = GraphView(g.base, Classes(L, False, vertices, len(L.stamp) - inside, inside=False), coord_bans)
        return view, InPlace(L, vertices, view), inside
