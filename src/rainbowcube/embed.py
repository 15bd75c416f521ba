"""Constructive rainbow tree embedding into edge-colored hypercube subgraphs.

Given a host G (a properly edge-colored subgraph of a cube) and a rooted
tree T with e(T) <= delta(G), the engine builds an injective homomorphism
T -> G whose edge colors are pairwise distinct, never touching a designated
blocked vertex next to the root's image.  The strategy:

 1. embed the lower half of T greedily so that colors *and* coordinates are
    pairwise distinct ("doubly distinct") -- always possible because each
    step forbids fewer than delta(G) classes;
 2. extend to the whole tree by a recursion over the root's children,
    choosing every remaining edge to dodge a small, carefully chosen set of
    colors and coordinates.  Walks whose edges use more than half-many
    distinct coordinates cannot close in a cube, and the coordinate
    bookkeeping keeps enough of them distinct that injectivity follows.

Each level of that recursion is a *frame*: a subtree, the legs of a spider
or a single leg, under the tree's own vertex ids, together with a view of
the host that bans what the rest of the tree already uses.  Every frame is
a PartialEmbedding that `lift` opens; it writes into the maps of the whole
tree's one and keeps only its own sets of mapped colors and coordinates,
which its counting bounds are about, in one bookkeeping object that every
stage asks for them: listed (`_Listed`) on a tree of at most LISTED edges,
read in place from a ledger of mapped edges (frames.InPlace, loaded with
the first larger tree) otherwise.  Tree frames are generators that one
loop, `_run`, drives depth first on an explicit stack, so a deep tree needs
no interpreter recursion.  The records a step reads and the listed
bookkeeping are named tuples; PartialEmbedding, made once per frame, is a
`__slots__` class.

Every choice is deterministic (first admissible edge in coordinate order)
unless a seed asks for randomized tie-breaking.  The per-step counting
requirements are checked at runtime and raise PreconditionViolated when
they fail, since a failure means the implementation diverged from the
counting argument, not that the input was bad.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Set
from functools import partial
from itertools import islice
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    DegreeTooSmall,
    DifferingBitCount,
    FormatError,
    NoCandidate,
    PreconditionViolated,
    VertexNotInGraph,
)
from .hypercube import candidate_edges, edge_coordinate, parse_vertex, vertex_str
from .prng import SplitMix64
from .records import read_records
from .tree import (
    RootedTree,
    as_spider,
    build_tree,  # noqa: F401 -- perfbench/test_smoke.py reads embed.build_tree
    classify_children,
    half_floor,
    lower_halves,
)


class ExtensionRequest(NamedTuple):
    """One greedy growth step: map `target` (an unmapped child of `source`)
    across an edge avoiding `x_col` colors and `x_coor` coordinates.

    `witnesses` are already-mapped tree edges at `source` whose images have
    pairwise distinct colors inside x_col and pairwise distinct coordinates
    inside x_coor; each one offsets a forbidden class in the degree count.
    The count reads x_col and x_coor alone, but the step takes no color
    already mapped either, inside x_col or not: the embedding is rainbow.
    A caller passes frozensets and a tuple; the engine passes read-only sets
    (collections.abc.Set) and, at step 4, the one list of earlier root edges
    that the stage appends to after each of its steps, so a request's sizes
    are read when its step runs.  A named tuple, since every step makes one.
    """

    source: int
    target: int
    x_col: Set
    x_coor: Set
    witnesses: Sequence[int] = ()
    label: str = "extend"


class _Staged(ExtensionRequest):
    """A request a stage makes (through `_extend`): its target lies in the
    frame, since every stage takes its targets among its frame's vertices,
    so extend_one does not look it up there; its sets are Sets; and its
    witness list, if a list, is step 4's, which only grows (see
    _check_witnesses)."""

    __slots__ = ()


# trace record: (label, tree edge, graph edge src->dst, |x_col|, |x_coor|, r)
TraceEntry = tuple[str, int, int, int, int, int, int]

# A tree of more than this many edges reads its frames' sets in place from
# the ledger (frames.InPlace); a smaller one lists them (_Listed).  The
# choice is made once per tree, where its PartialEmbedding is made, and each
# frame that `lift` opens keeps its opener's (but see frames.InPlace.lift).
# A listed step copies its frame's sets, which is cheap in C on a small
# frame, while a read in place pays Python calls on every lookup.  The
# summed time of a path, star, comb, 2-leg spider and random tree in
# VirtualCayleyCube(e) is the same both ways at about e = 100 (the comb
# crosses near 50; the path, star and spider between 150 and 400; random
# trees, whose frames are small, not below 800)
LISTED = 96
COLOR, COORD = False, True  # which classes a frame's bookkeeping gives


class _Ledger:
    """Every mapped edge of one embedding, in mapping order (an edge's stamp
    is its index there), with the edges of each coordinate.  A tree whose
    frames read their sets in place keeps more indexes (frames.Ledger)."""

    __slots__ = ("stamp", "at_coord")

    def __init__(self):
        self.stamp, self.at_coord = {}, {}

    def add(self, e, color, coord):
        self.stamp[e] = len(self.stamp)
        self.at_coord.setdefault(coord, []).append(e)


class _Listed(NamedTuple):
    """A frame's bookkeeping on a tree of at most LISTED edges: the colors
    and the coordinates of the edges it has mapped, as sets that grow with
    the frame and that each step copies.  frames.InPlace answers the same
    questions from the ledger; every stage asks a frame's bookkeeping, never
    how it holds its sets.

    `span` gives the vertices of a frame below: its root, then the preorder
    positions lo .. hi - 1 less `cut`."""

    colors: Set
    coords: set[int]

    @staticmethod
    def span(t: RootedTree, root: int, lo: int, hi: int, cut: tuple[int, int] | None = None) -> Sequence[int]:
        order = t.preorder().order
        a, b = cut or (hi, hi)
        return (root, *order[lo:a], *order[b:hi])

    def classes(self, pe, coords: bool, size: int | None = None, extra: frozenset = frozenset()) -> Set:
        """The colors or coordinates the frame has mapped, as they stand, and
        `extra`; `size` is the count a read in place would give them."""
        listed = frozenset(self.coords if coords else self.colors)
        return listed.union(extra) if extra else listed

    def coords_in(self, pe, region: Sequence[int], size: int) -> Set:
        """The coordinates of the mapped edges among a span's, `size` of them."""
        return frozenset(map(pe.coord_of.__getitem__, filter(pe.coord_of.__contains__, islice(region, 1, None))))

    def later(self, pe, cls, sizes: list[int], anchored: int, first: int, extra: frozenset = frozenset()) -> Set:
        """A tree frame's later anchors and `extra`: the anchor sets of the
        children of its subroot from rank `first` on (spiders, then the rest,
        as classified), mapped by step 1 (before stamp `anchored`), read off
        those children's subtrees (`sizes`, theirs by rank, is what a read in
        place counts)."""
        order, pos, end, _ = pe.tree.preorder()
        stamp, coord_of = pe._ledger.stamp, pe.coord_of
        later = ([sc.vertex for sc in cls.spiders] + list(cls.rest))[first:]
        return extra.union(coord_of[e] for c in later for e in order[pos[c] : end[c]]
                           if stamp.get(e, anchored) < anchored)

    def add(self, e: int, color: int, coord: int):
        self.colors.add(color)
        self.coords.add(coord)

    def adopt(self, sub: "_Listed"):
        self.colors.update(sub.colors)
        self.coords.update(sub.coords)

    def lift(self, pe, vertices: Sequence[int], banned_coords: Iterable[int]):
        """lift's view of a frame on any vertex list, from any view of the
        frame `pe` that opens it, and the frame's bookkeeping, which lists
        its sets: the view bans the colors `pe` has used less the frame's
        own, those of its pre-mapped edges, as a listed set, and every
        pre-mapped edge is checked."""
        color_of, coord_of = pe.color_of, pe.coord_of
        premapped = list(filter(coord_of.__contains__, islice(vertices, 1, None)))
        own = {color_of[w] for w in premapped}
        # nothing new to ban leaves the opener's view itself
        view = pe.graph.restrict(self.colors - own, banned_coords)
        banned_colors, banned = view.banned_colors, view.banned_coords
        for w in premapped:
            if color_of[w] in banned_colors or coord_of[w] in banned:
                raise PreconditionViolated(f"pre-mapped edge {w} was banned from the restricted host")
        return view, _Listed(own, {coord_of[w] for w in premapped}), len(premapped)


class PartialEmbedding:
    """Partial map from tree vertices to cube vertices with rainbow
    bookkeeping, seen through one frame.

    Tree edges are named by child endpoint; `color_of`/`coord_of` cover the
    mapped edges, and only `record` (an engine step) and `premap` (a
    caller) write them, so every mapped edge carries its host's own color
    and coordinate.  The maps, the trace, the RNG and the ledger of mapped
    edges belong to the whole tree, and every frame that `lift` opens
    shares them.  Per frame: `graph` is its view of the host, `vertices` its
    vertices, subroot first (all of them in id order for the whole tree),
    and `used_colors`, `_edges` and `used_coords()` the colors, edges and
    coordinates it has mapped, as its bookkeeping holds them: listed
    (`_Listed`) on a tree of at most LISTED edges, else read in place from
    the ledger (frames.InPlace).
    `sorted_colors` lists the colors of every mapped edge in increasing
    order and never gains a duplicate, so the mapped part stays rainbow at
    all times.  A caller gives the tree, the host and optionally the RNG and
    `z_bad`, starts from an empty map, sets the root's image in `image` and
    adds vertices with `premap`; every other attribute is set by the
    initializer for the whole tree and by `lift` for a frame, into fixed
    slots.  Confined to one embedding run.
    """

    __slots__ = ("tree", "graph", "rng", "z_bad", "image", "color_of", "coord_of", "trace", "vertices",
                 "sorted_colors", "is_frame", "_ledger", "_book", "_mapped", "_premapped", "_checked")

    def __init__(self, tree: RootedTree, graph, rng: SplitMix64 | None = None, z_bad: int | None = None):
        self.tree, self.graph, self.rng, self.z_bad = tree, graph, rng, z_bad
        self.image, self.color_of, self.coord_of, self.trace = {}, {}, {}, []
        n = tree.n
        self.vertices, self.sorted_colors, self.is_frame = range(n), [], False
        # the ledger; the frame's bookkeeping, chosen here for the whole tree
        # by its size and by `lift` for each frame; its count of mapped edges:
        # pre-mapped, mapped by its steps and premap, and adopted from the
        # frames it closed; how many were pre-mapped; and what its last
        # stage request's witness check found (see _check_witnesses)
        if n - 1 > LISTED:
            from . import frames  # the in-place machinery, loaded with the first tree that reads in place

            self._ledger = L = frames.Ledger(tree, self.sorted_colors)
            self._book = frames.InPlace(L, frames.Span(tree, 0, 1, n), None)
        else:
            self._ledger, self._book = _Ledger(), _Listed(set(), set())
        self._mapped, self._premapped, self._checked = 0, 0, None

    @property
    def root(self) -> int:
        return self.vertices[0]

    @property
    def used_colors(self) -> Set:
        return self._book.classes(self, COLOR)

    @property
    def _edges(self) -> frozenset[int]:
        # a frame maps no edge outside it: premap refuses one, and the steps
        # map their targets, which every stage takes inside its frame
        return frozenset(filter(self.coord_of.__contains__, islice(self.vertices, 1, None)))

    def used_coords(self) -> frozenset[int]:
        return frozenset(self._book.classes(self, COORD))

    def premap(self, child: int, y: int):
        """Map `child` to `y` by hand, below the root or a vertex mapped
        through its edge: the edge takes the color this frame's host gives
        it and the coordinate its endpoints give it.  Adds no trace entry.
        The root's image is set directly in `image`."""
        if not 0 < child < self.tree.n:
            raise PreconditionViolated(f"premap: vertex {child} is outside [1, {self.tree.n})")
        if child == self.root or child not in self.vertices:
            raise PreconditionViolated(f"premap: vertex {child} is outside the frame")
        if child in self.image:
            raise PreconditionViolated(f"premap: vertex {child} is already mapped")
        p = self.tree.parent[child]
        if p not in (self.coord_of if p else self.image):
            raise PreconditionViolated(f"premap: the parent of vertex {child} is unmapped")
        x = self.image[p]
        if not self.graph.has_edge(x, y):
            raise PreconditionViolated(f"premap: edge {child} maps to a non-edge")
        self.record(child, y, self.graph.edge_color(x, y), edge_coordinate(x, y))

    def record(self, child: int, y: int, color: int, coord: int):
        """Map `child` across the edge (coord, y, color): a candidate of this
        frame's view at its parent's image (from extend_one) or the host's
        own edge there (from premap), its only callers."""
        # checked against every frame's colors, so no color is reused across frames either
        colors = self.sorted_colors
        i = bisect_left(colors, color)
        if i < len(colors) and colors[i] == color:
            raise PreconditionViolated(f"color {color} reused at edge {child}")
        self.image[child] = y
        self.color_of[child] = color
        self.coord_of[child] = coord
        colors.insert(i, color)
        self._ledger.add(child, color, coord)
        self._mapped += 1
        self._book.add(child, color, coord)

    def require_doubly_distinct(self, edges: Iterable[int], context: str):
        # the colors need no check: `record` is the only writer of color_of
        # (premap and extend_one both go through it) and refuses any color
        # already mapped, so any set of mapped edges has distinct colors
        coords = [self.coord_of[e] for e in edges]
        if len(set(coords)) != len(coords):
            raise PreconditionViolated(f"{context}: mapped edges are not doubly distinct")

    def lift(self, vertices: Sequence[int], banned_coords: Iterable[int] = ()) -> "PartialEmbedding":
        """Open a frame on `vertices`, in this frame's view further
        restricted by the colors this frame has used outside `vertices` and
        by `banned_coords`.

        `vertices` lists the frame's subroot first and is parent-closed
        below it.  The frame writes into this embedding's maps, trace and
        ledger.  Its pre-mapped edges, those of `vertices` mapped already,
        must survive in the view; that is checked here because a banned
        pre-mapped edge means a bookkeeping error upstream.

        A mapped edge w is live in a view of the embedding's host H exactly
        when color_of[w] is not a banned color and coord_of[w] not a banned
        coordinate, from three facts.  (1) `record`, from extend_one, takes a
        candidate of a view over H, which is one of H's own incidence records
        (candidate_edges asks H's `admissible`); so H has the edge, with
        color color_of[w] and coordinate coord_of[w].  (2) `premap` reads both
        from H (a view's edge_color is its host's).  (3) A view over H keeps
        exactly the edges of H whose color and coordinate it does not ban
        (GraphView.has_edge), and H is its own view with no bans.  Every frame
        is over H, since `lift` restricts its opener's view, and no mapped
        edge is rewritten, since `record`'s callers refuse a mapped child.
        So the set tests here and in _check_witnesses equal `view.has_edge`.

        The engine opens every frame on a span of its opener's (its
        bookkeeping's `span`), runs it to the end and opens the next: frames
        run depth first.  This frame's bookkeeping makes the view and the new
        frame's: a listed frame lists the new one's sets (`_Listed.lift`); one
        read in place reads the new one's in place too when `vertices` is a
        span and its view is H itself or the view `lift` made for it, and
        lists them otherwise (frames.InPlace.lift).
        """
        view, book, inside = self._book.lift(self, vertices, banned_coords)
        # a frame shares its opener's tree, RNG, maps, trace, sorted colors
        # and ledger; the rest is its own
        sub = object.__new__(PartialEmbedding)
        sub.tree, sub.graph, sub.rng, sub.z_bad = self.tree, view, self.rng, None
        sub.image, sub.color_of, sub.coord_of, sub.trace = self.image, self.color_of, self.coord_of, self.trace
        sub.vertices, sub.sorted_colors, sub.is_frame = vertices, self.sorted_colors, True
        sub._ledger, sub._book, sub._mapped, sub._premapped, sub._checked = self._ledger, book, inside, inside, None
        return sub

    def adopt(self, sub: "PartialEmbedding"):
        """Close a frame opened by `lift`: the edges it mapped count as this
        frame's, and join its listed sets; read in place, the ledger holds
        them.  Nothing is compared: the frame cannot have remapped a vertex,
        since extend_one and premap, the only callers of `record`, refuse a
        mapped child, and `record` refused any color used in any frame."""
        self._mapped += sub._mapped - sub._premapped
        self._book.adopt(sub._book)


Frame = Iterator["Frame"]  # a frame's steps; it yields each frame it opens


def _run(frame: Frame) -> None:
    """Run a frame and, depth first, every frame it opens, on an explicit
    stack: a frame resumes once the frame it yielded has finished."""
    stack = [frame]
    while stack:
        opened = next(stack[-1], None)
        if opened is None:
            stack.pop()
        else:
            stack.append(opened)


def extend_one(pe: PartialEmbedding, req: ExtensionRequest) -> PartialEmbedding:
    """Apply one growth step after checking its counting hypothesis.

    With r valid witnesses the host guarantees an admissible edge whenever
    |x_col| + |x_coor| - r < delta; both that bound and witness validity are
    enforced, and the first admissible edge in coordinate order is taken
    (or a seeded random one when the embedding carries an RNG).  The
    target must lie in the frame, as premap's vertex must.
    """
    t = pe.tree
    v, w = req.source, req.target
    if not 0 < w < t.n:
        raise PreconditionViolated(f"step {req.label}: vertex {w} is outside [1, {t.n})")
    # a stage's request needs no lookup (_Staged), which on a listed frame
    # would walk its vertex tuple at every step; the whole tree holds [1, n)
    if pe.is_frame and type(req) is not _Staged and w not in pe.vertices:
        raise PreconditionViolated(f"step {req.label}: vertex {w} is outside the frame")
    # premap's rule: the source is the root or mapped through its edge, so
    # mapped edges are closed under parents
    if w in pe.image or v not in (pe.coord_of if v else pe.image):
        raise PreconditionViolated(f"step {req.label}: {v}->{w} not a frontier edge")
    if t.parent[w] != v:
        raise PreconditionViolated(f"step {req.label}: {w} is not a child of {v}")

    if req.witnesses:
        _check_witnesses(pe, req)
    ncol, ncoor, r = len(req.x_col), len(req.x_coor), len(req.witnesses)
    if not pe.graph.delta_at_least(ncol + ncoor - r + 1):
        raise PreconditionViolated(
            f"step {req.label}: |x_col|={ncol} + |x_coor|={ncoor} - r={r} >= delta={pe.graph.delta()}"
        )

    # the step bans every mapped color, which changes no step of the engine:
    # there x_col and the view's bans already hold every mapped color.
    # `_extend` makes x_col the frame's `used_colors`, which for the whole
    # tree are all of them; a frame that `lift` opens bans the colors its
    # opener used outside it and starts from the colors mapped inside it, so
    # by induction the two cover every mapped color when a frame opens; a
    # step adds its color to `used_colors`, and `adopt` hands a closed
    # frame's colors to its opener before the opener's next step
    cands = candidate_edges(pe.graph, pe.image[v], req.x_col, req.x_coor, pe.sorted_colors)
    # unseeded, the first candidate; seeded, a uniform one, which needs the count
    n = len(cands) if pe.rng is not None else 1 if cands else 0
    if not n:
        raise NoCandidate(f"step {req.label}: counting bound held but no edge was admissible")
    coord, y, color = cands[0] if pe.rng is None else cands[pe.rng.randrange(n)]
    pe.record(w, y, color, coord)
    pe.trace.append((req.label, w, pe.image[v], y, ncol, ncoor, r))
    return pe


def _check_witnesses(pe: PartialEmbedding, req: ExtensionRequest) -> None:
    """Check each witness of a step with witnesses: mapped, at the source,
    inside the forbidden sets, no color or coordinate repeated, live in the
    frame's view.

    After a stage's request (_Staged) the frame keeps its witness list, the
    count checked, its source, view and forbidden sets, and the colors and
    coordinates seen, so that step 4, whose one list grows by one root edge
    per leaf, checks each witness once.  The next request takes that over
    only if it is a stage's too and carries the same list object, the same
    source and view, and supersets of both forbidden sets; then only the
    witnesses past the count are checked.  Step 4 is the only stage that
    passes a list, and it only appends; hand-built requests are never
    _Staged, so every one of their witnesses is still checked, whatever
    their caller does to a list between steps.  For the engine's requests
    these are O(1) tests: one list object, and one frame's classes up to a
    later stamp.  That decides exactly as checking every witness, since
    each check on an old witness still passes: a mapped edge is never
    unmapped or remapped (`record`'s callers refuse a mapped child), so it
    stays mapped with the same color and coordinate; the source and the
    tree are the same, so it is still incident; its color and coordinate
    lie in the old sets, hence in the new; the list up to it is the same,
    so it repeats nothing before it; and the view is the same object, whose
    bans are fixed.  The loop then reaches the new witnesses with the same
    colors and coordinates seen.  A failing check clears the kept result.
    """
    v, view, witnesses = req.source, pe.graph, req.witnesses
    kept, pe._checked = pe._checked, None
    staged = type(req) is _Staged
    if kept is not None:
        listed, k, source, old_view, old_col, old_coor, seen_colors, seen_coords = kept
        if not (staged and listed is witnesses and source == v and old_view is view
                and old_col <= req.x_col and old_coor <= req.x_coor):
            kept = None
    if kept is None:
        k, seen_colors, seen_coords = 0, set(), set()

    parent, color_of, coord_of = pe.tree.parent, pe.color_of, pe.coord_of
    x_col, x_coor = req.x_col, req.x_coor
    banned_colors, banned_coords = view.banned_colors, view.banned_coords
    for wit in witnesses[k:]:
        if wit not in coord_of:
            raise PreconditionViolated(f"witness edge {wit} is unmapped")
        if wit != v and parent[wit] != v:
            raise PreconditionViolated(f"witness edge {wit} is not incident to {v}")
        c, q = color_of[wit], coord_of[wit]
        if c not in x_col or q not in x_coor:
            raise PreconditionViolated(f"witness edge {wit} lies outside the forbidden sets")
        if c in seen_colors or q in seen_coords:
            raise PreconditionViolated(f"witness edge {wit} repeats a color or coordinate")
        if c in banned_colors or q in banned_coords:
            raise PreconditionViolated(f"witness edge {wit} is not live in the current host")
        seen_colors.add(c)
        seen_coords.add(q)
    if staged:
        pe._checked = (witnesses, len(witnesses), v, view, x_col, x_coor, seen_colors, seen_coords)


def _extend(pe: PartialEmbedding, target: int, x_coor: Set, label: str,
            witnesses: Sequence[int] = ()) -> PartialEmbedding:
    """extend_one from `target`'s parent, dodging `x_coor` and, as every step
    of every stage does, each color the frame has used."""
    return extend_one(pe, _Staged(pe.tree.parent[target], target, pe._book.classes(pe, COLOR), x_coor,
                                  witnesses, label))


def embed_half(
    g,
    t: RootedTree,
    start: int,
    *,
    rng: SplitMix64 | None = None,
) -> PartialEmbedding:
    """Doubly distinct embedding of the lower half of t, rooted at `start`.

    Edges are taken in (level, id) order, so every prefix is connected.
    Needs delta(g) >= e(t): step i forbids 2(i-1) <= e(t) - 2 classes.
    """
    if not g.delta_at_least(t.n_edges()):
        raise DegreeTooSmall(f"host delta={g.delta()} < e(T)={t.n_edges()}")
    if not g.has_vertex(start):
        raise VertexNotInGraph(f"start vertex {start} not in host")
    pe = PartialEmbedding(t, g, rng=rng)
    pe.image[0] = start
    # each step dodges every coordinate mapped before it, so one per edge
    for child in sorted(half_floor(t), key=lambda v: (t.level[v], v)):
        _extend(pe, child, pe._book.classes(pe, COORD), "half")
    return pe


def certify_path_windows(coords: Sequence[int]) -> None:
    """Check the sliding-window mechanism on a completed path's coordinates.

    For every pair k < m of equal parity, the first (m-k)/2 + 1 coordinates
    of the connecting walk must be pairwise distinct; that forces the walk
    open and hence the path injective.  Raises on violation, naming the
    first failing (k, m) in order of k, then m.

    Linear time, from two facts.  (1) For a fixed k the windows for
    m = k+2, k+4, ... are the prefixes of length 2, 3, ... of coords[k:], so
    all of them are distinct exactly when the longest one is; and if the
    first repeat in coords[k:] sits at index j, the first window holding it
    is the one with (m + k) // 2 >= j, that is m = max(2j - k, k + 2).
    (2) The window for (k, m) holds L = (m - k)/2 + 1 distinct coordinates
    of the walk coords[k:m], which has only m - k = 2(L - 1) edges; so more
    than half of the walk's coordinates are distinct, some coordinate
    appears in it exactly once, and its endpoints differ in that bit.  That
    follows from the window check and is not checked again.
    """
    n = len(coords)
    # repeat[k]: least j such that coords[k : j + 1] repeats a coordinate (n if none)
    repeat = [n] * (n + 1)
    next_at: dict[int, int] = {}
    for k in range(n - 1, -1, -1):
        repeat[k] = min(repeat[k + 1], next_at.get(coords[k], n))
        next_at[coords[k]] = k
    for k in range(n - 1):
        top = n - (n - k) % 2  # the largest m of k's parity
        j = repeat[k]
        if top >= k + 2 and j <= (top + k) // 2:
            m = max(2 * j - k, k + 2)
            raise PreconditionViolated(
                f"window [{k}, {m}] repeats a coordinate: {coords[k : (m + k) // 2 + 1]}"
            )


def extend_path(pe: PartialEmbedding) -> PartialEmbedding:
    """Complete a path whose first floor(n/2) + 1 edges are doubly distinct.

    The path is the frame's vertices in order (for the whole tree, the ids
    in order).  Edge i then forbids all previous colors
    plus the coordinates of the trailing window of edges 2i-n-1 .. i-1; that
    is exactly n classes with one witness inside both sets, so a candidate
    always exists, and the window overlap keeps every closing walk open.
    """
    t = pe.tree
    path = tuple(pe.vertices)
    n = len(path) - 1
    if tuple(map(t.parent.__getitem__, path[1:])) != path[:-1]:
        raise PreconditionViolated("extend_path needs a path tree with ids in order")
    if n == 0:
        return pe
    nprime = min(n // 2 + 1, n)
    expected = path[1 : nprime + 1]
    # the frame's mapped edges are these edges exactly when they number nprime and these are mapped
    if pe._mapped != nprime or not all(map(pe.coord_of.__contains__, expected)):
        raise PreconditionViolated(
            f"path domain must be the first {nprime} edges, got {sorted(pe._edges)}"
        )
    pe.require_doubly_distinct(expected, "extend_path input")

    # the window of edge i is edges lo .. i - 1, a run of preorder positions.
    # Its coordinates are distinct, so it holds i - lo of them: of two of
    # its edges a < b, either both are among the first nprime, doubly
    # distinct, or b dodged a, whose index is at least lo > 2b - n - 1
    book, pos = pe._book, t.preorder().pos
    for i in range(nprime + 1, n + 1):
        lo = max(2 * i - n - 1, 1)
        window = book.coords_in(pe, book.span(t, path[0], pos[path[lo]], pos[path[i]]), i - lo)
        _extend(pe, path[i], window, "path", (path[i - 1],))

    # the certificate implies injectivity, which is not checked again: each
    # image is its parent's with the edge's coordinate flipped (`record` and
    # `premap` both store the endpoints' coordinate), so images k < m differ
    # when the walk coords[k:m] is open.  An odd walk cannot close, the cube
    # being bipartite; an even one of length m - k >= 2 has a window of
    # (m - k)/2 + 1 distinct coordinates, more than a walk of that length
    # holds if each appears twice, so one appears in it exactly once and
    # its endpoints differ in that bit.
    certify_path_windows([pe.coord_of[w] for w in path[1:]])
    return pe


def _check_injective(pe: PartialEmbedding, what: str) -> list[int]:
    """The images of a completed frame, checked for a repeat.

    Checked once, by the function that runs the outermost frame: the
    vertices of every frame it opens lie inside it, so a repeat in any of
    them is a repeat here.
    """
    images = [pe.image[w] for w in pe.vertices]
    if len(set(images)) != len(images):
        raise PreconditionViolated(f"{what} embedding not injective")
    return images


def extend_spider(pe: PartialEmbedding) -> PartialEmbedding:
    """Complete a spider from its doubly distinct lower half.

    The partial map must cover the lower half, plus optionally the first
    missing edge of one leg; that leg is treated as leg one and, apart from
    it, every leg must have even length.  That is checked here, once; a tree
    frame passes leg one itself, and holds the rest by the proofs there:

      0. map leg one's first missing edge, dodging every color and
         coordinate used so far;
      1. finish leg one as a path inside the view that bans the colors of
         the other legs' halves, and no coordinate of theirs: the count at
         step 1 of _spider_legs keeps the legs apart;
      2. go on with the remaining legs inside the view that bans leg one's
         colors.

    Openness of the cross-leg walks then gives injectivity.
    """
    t = pe.tree
    if t.children[pe.root]:
        shape = as_spider(t, pe.root)
        if shape is None:
            raise PreconditionViolated("extend_spider needs a spider")
        legs = shape.legs
        # a leg's lower half is its first floor(len/2) edges, its first missing edge the next
        floor = {e for leg in legs for e in leg[1 : (len(leg) + 1) // 2]}
        extra = pe._edges - floor
        if not floor <= pe._edges or len(extra) > 1:
            raise PreconditionViolated("spider domain must be the lower half plus at most one edge")
        pe.require_doubly_distinct(pe._edges, "extend_spider input")
        odd = [leg for leg in legs if (len(leg) - 1) % 2]
        if extra:
            # x is a leg's first missing edge: premap and extend_one refuse an
            # unmapped parent, so x hangs from a mapped vertex, which is the
            # root (and then x's leg has an empty lower half) or the last
            # lower-half vertex of x's leg
            (x,) = extra
            leg1 = next(leg for leg in legs if leg[(len(leg) + 1) // 2] == x)
            if any(leg is not leg1 for leg in odd):
                raise PreconditionViolated("legs other than leg one must have even length")
        elif len(odd) > 1:
            raise PreconditionViolated("more than one odd leg")
        else:
            leg1 = (odd or legs)[0]
        _spider_legs(pe, leg1, [leg for leg in legs if leg is not leg1])
    _check_injective(pe, "spider")
    return pe


def _spider_legs(pe: PartialEmbedding, leg1: tuple[int, ...], rest: Sequence[tuple[int, ...]]) -> None:
    """Steps 0 to 2 of extend_spider, one leg at a time, on a frame whose input
    passes its checks.  Step 2's frame holds the remaining legs, all even and
    mapped on their lower halves alone, so its leg one is the first of them.
    `rest` is in preorder, so the remaining legs are the spider's positions
    from the next leg's on, less leg one when it lies among them."""
    t = pe.tree
    _, pos, end, _ = t.preorder()
    legs = (leg1, *rest)
    root, hi = leg1[0], end[leg1[0]]
    one = (pos[leg1[1]], pos[leg1[1]] + len(leg1) - 1)
    e_total = hi - pos[root] - 1  # the edges of the legs not finished yet
    frames = [pe]
    for i, leg in enumerate(legs):
        pe = frames[-1]
        if not pe.graph.delta_at_least(e_total):
            raise PreconditionViolated(f"delta={pe.graph.delta()} < e(S)={e_total}")

        # step 0: ensure leg one's first missing edge is mapped, backed by an
        # edge at its source: leg one's last mapped edge, or another leg's
        # first.  The frame's mapped edges are the legs' lower halves and
        # perhaps edges of leg one, doubly distinct by extend_spider's checks
        half1 = (len(leg) - 1) // 2
        if leg[half1 + 1] not in pe.coord_of:
            witnesses = (leg[half1],) if half1 else (legs[i + 1][1],) if i + 1 < len(legs) else ()
            _extend(pe, leg[half1 + 1], pe._book.classes(pe, COORD), "spider0", witnesses)

        # step 1: finish leg one as a path in a view that bans the colors this
        # frame has used outside it, the other legs' halves', and no more
        # coordinates than the frame's own view.  Leg one P stays apart from
        # each later leg Q all the same.  P's first h_P = floor(l/2) of its l
        # edges are its lower half, and the other l - h_P <= h_P + 1 its upper
        # edges, the first of them step 0's, whose coordinate c is apart from
        # every lower half's (step 0's x_coor, or the input's double
        # distinctness); Q is even, of h_Q lower-half and h_Q upper edges; the
        # lower halves' coordinates are distinct.  Were the image of P's
        # vertex at depth a >= 1 that of Q's at depth b >= 1, the walk up P
        # from it and down Q would close, and a closed walk in a cube holds
        # each coordinate an even number of times.  So each lower-half edge on
        # it needs an upper edge of its coordinate on it, and c, if on it, a
        # second upper edge of c:
        #   a <= h_P, b <= h_Q: no upper edge for a + b >= 2 lower-half ones;
        #   a <= h_P < b: b - h_Q <= h_Q upper edges for a + h_Q >= 1 + h_Q;
        #   h_P < a: at most h_P + 1 + max(b - h_Q, 0) upper edges for
        #     h_P + min(b, h_Q) + 2, short by one or more as b - h_Q <= h_Q.
        # Within a leg, extend_path's certificate decides, and a leg before P
        # was P to it in an earlier frame
        start = pos[leg[1]]
        sub = pe.lift(pe._book.span(t, root, start, start + len(leg) - 1))
        if not sub.graph.delta_at_least(len(leg) - 1):
            raise PreconditionViolated(f"leg-one view delta={sub.graph.delta()} < leg length {len(leg) - 1}")
        extend_path(sub)
        pe.adopt(sub)
        e_total -= len(leg) - 1

        # step 2: the remaining legs, in a view that also bans the colors this
        # frame has used outside them, leg one's; each frame is adopted once
        # its legs are done
        if i + 1 < len(legs):
            lo = pos[legs[i + 1][1]]
            frames.append(pe.lift(pe._book.span(t, root, lo, hi, one if one[0] > lo else None)))
    for k in range(len(frames) - 1, 0, -1):
        frames[k - 1].adopt(frames[k])


def extend_tree(pe: PartialEmbedding, z_bad: int) -> PartialEmbedding:
    """Extend a doubly distinct lower-half embedding to all of the tree,
    avoiding `z_bad`, path-distinct on the upper-closed half.

    `z_bad` must be a cube neighbor of the root's image whose connecting
    edge is absent from the host, with its coordinate unused so far.  That
    and the domain are checked here, where a caller hands them in; on every
    inner frame they hold by the proof at the branch anchor-set check.  The
    recursion classifies the root's children into leaves u_1..u_l, children
    s_1..s_k carrying even spiders, and the rest t_1..t_m in order of
    increasing deficiency, then grows the embedding in eight stages:

      1. complete, doubly distinctly and dodging z_bad's coordinate, the
         per-child anchor sets: for s_i the root edge plus the spider's
         lower half minus its designated mid-leg edge e_i; for t_j the root
         edge plus the subtree's lower half;
      2. map e_1 dodging all colors/coordinates so far plus z_bad's;
      3. map e_2..e_k dodging all colors plus the anchors' coordinates;
      4. map the root-leaf edges, each witness-backed by the k+i-1 earlier
         root edges;
      5. map the successors f_2..f_k of the mid-leg edges, coordinating
         against the still-anchored spiders;
      6. finish each spider via extend_spider in a color-pruned view;
      7. finish t_1..t_{m-1}: recurse when the subtree halves coincide, map
         the odd leg's middle edge then extend_spider when deficiency is 1,
         else recurse in a color+coordinate-pruned view -- the blocked
         vertex of every recursion is the root's image;
      8. finish t_m by recursion, blocking the root's image.
    """
    t, root = pe.tree, pe.root
    root_img = pe.image[root]
    if t.children[root]:  # else the last check alone refuses z_bad == root_img
        try:
            q = edge_coordinate(root_img, z_bad)
        except DifferingBitCount as exc:
            raise PreconditionViolated("blocked vertex is not a cube neighbor of the root image") from exc
        if pe.graph.has_edge(root_img, z_bad):
            raise PreconditionViolated("blocked vertex is joined to the root image in the host")
        if pe._edges != half_floor(t, root):
            raise PreconditionViolated("extend_tree domain must be exactly the lower half")
        pe.require_doubly_distinct(pe._edges, "extend_tree input")
        if q in pe.used_coords():
            raise PreconditionViolated("blocked coordinate already used by the lower half")
        _run(_tree_frame(pe, z_bad))
    # checked once too: the blocked vertex of every inner frame is the image
    # of its opener's subroot, which lies outside it and inside this frame
    if z_bad in _check_injective(pe, "tree"):
        raise PreconditionViolated("embedding touched the blocked vertex")
    return pe


def _leg_witness(sc) -> int:
    """The leg edge above a spider child's mid-leg edge, or the child's root edge."""
    return sc.leg[sc.half_len - 1] if sc.half_len >= 2 else sc.vertex


def _tree_frame(pe: PartialEmbedding, z_bad: int) -> Frame:
    """extend_tree on the subtree at a frame's subroot, which has a child
    (steps 7 and 8 open none on a leaf).  Every frame it opens is rooted at
    a child, so frames nest no deeper than the tree.

    The frame's lower half is what is mapped in it when it opens (extend_tree
    checks that of the whole tree, and the branch check below proves it of
    each frame that steps 7 and 8 open).  Its anchor sets are sized from the
    tree's halves, and it asks its bookkeeping for its sets, its later
    anchors and its children's spans; read in place, these cost the frame
    its children and the edges it maps, not its size.
    """
    t, g, L, book = pe.tree, pe.graph, pe._ledger, pe._book
    root = pe.root
    order, pos, end, half_level = t.preorder()
    floor_size, bucket = lower_halves(t)
    root_img = pe.image[root]
    e_total = end[root] - pos[root] - 1
    if not g.delta_at_least(e_total):
        raise PreconditionViolated(f"delta={g.delta()} < e(T)={e_total}")
    q = edge_coordinate(root_img, z_bad)
    opened, floor = len(L.stamp), pe._mapped

    cls = classify_children(t, root)
    k, ell, m = len(cls.spiders), len(cls.leaves), len(cls.rest)
    children = t.children[root]
    level = t.level[root] + 1  # the children's

    # the anchor sets, by rank (spiders, then the rest): for s_i the root edge
    # and the spider's lower half less its mid-leg edge, for t_j the root edge
    # and the subtree's lower half.  The lower half of the subtree at a child
    # v holds w exactly when half_level(w) <= level(v), which is how a
    # mid-leg edge is tested
    sizes = [1 + floor_size[sc.vertex] - (half_level[pos[sc.mid_edge]] <= level) for sc in cls.spiders]
    sizes += [1 + floor_size[v] for v in cls.rest]
    # step 1's targets.  Of a non-leaf child's subtree, the anchor set holds
    # what the frame's lower half holds (half_level <= level - 1, the root
    # edge among them) and the positions at half level `level` past the
    # child, less a mid-leg edge; no leaf child's edge is in either.  So the
    # anchor sets are the lower half and these targets, apart
    row = bucket.get(level, ())
    mids = {sc.mid_edge for sc in cls.spiders}
    targets = [w for w in map(order.__getitem__, row[bisect_left(row, pos[root] + 1) : bisect_left(row, end[root])])
               if t.parent[w] != root and w not in mids]

    # the anchor-set checks: raised, not asserted, so that `python -O` keeps them
    for sc, size in zip(cls.spiders, sizes):
        if 2 * size != end[sc.vertex] - pos[sc.vertex] - 1:
            raise PreconditionViolated(f"anchor set of spider child {sc.vertex} is not half its subtree")
    for v, size in zip(cls.rest, sizes[k:]):
        if 2 * size > end[v] - pos[v]:
            raise PreconditionViolated(f"anchor set of child {v} exceeds half its subtree")
    if 2 * sum(sizes) > e_total - k - ell:
        raise PreconditionViolated("anchor sets exceed half of the edges outside leaves and mid-legs")
    if floor + len(targets) != sum(sizes):
        raise PreconditionViolated("anchor sets miss part of the lower half")

    # step 1: finish the anchor sets, doubly distinct, dodging q; ties in
    # level go by id in the whole tree and by preorder position in a frame
    # below it, the order the golden digests pin.  The frame's coordinates
    # are distinct (the lower half's by extend_tree's check or the branch
    # check, each step's by its own x_coor) and q is not among them (by the
    # same checks: q is extend_tree's blocked coordinate or coord_of[root])
    if len(targets) > 1:
        if not pe.is_frame:
            targets.sort()
        targets.sort(key=t.level.__getitem__)
    with_q = frozenset({q})
    for child in targets:
        _extend(pe, child, book.classes(pe, COORD, extra=with_q), "step1")
    anchored = len(L.stamp)

    # step 2: the first spider's mid-leg edge
    if k >= 1:
        sc = cls.spiders[0]
        _extend(pe, sc.mid_edge, book.classes(pe, COORD, extra=with_q), "step2", (_leg_witness(sc),))
    anchored_coords = pe._mapped  # coordinates of anchors + e_1, one per edge

    # step 3: the other spiders' mid-leg edges
    if k > 1:
        anchor_coords = book.classes(pe, COORD)
        for sc in cls.spiders[1:]:
            _extend(pe, sc.mid_edge, anchor_coords, "step3", (_leg_witness(sc),))

    # step 4: the root-leaf edges, witness-backed by earlier root edges.  Step
    # 3's edges dodge anchor_coords but not each other, and each step-4 edge
    # dodges every coordinate before it.  Every step passes the one list,
    # which gains its leaf only once the step has returned
    if ell:
        coords = anchored_coords + len({pe.coord_of[sc.mid_edge] for sc in cls.spiders[1:]})
        witnesses = [sc.vertex for sc in cls.spiders]
        for i, u in enumerate(cls.leaves):
            _extend(pe, u, book.classes(pe, COORD, coords + i), "step4", witnesses)
            witnesses.append(u)

    # the later anchors of steps 5 and 7, read beside a second spider or a
    # second subtree only
    later = partial(book.later, pe, cls, sizes, anchored)

    # step 5: the edges after the mid-leg edges, spiders 2..k; the mid-leg
    # edge dodged every anchor's coordinate in step 3
    for idx, sc in enumerate(cls.spiders[1:], start=1):
        _extend(pe, sc.after_mid_edge, later(idx, frozenset({pe.coord_of[sc.mid_edge]})), "step5",
                (sc.mid_edge,))

    # each branch anchor set is {v} | the lower half of v's subtree, mapped by step 3.
    # So the tree frame that steps 7 and 8 open on v gets what extend_tree
    # checks: its pre-mapped edges are v's lower half (steps 1 to 5 map no
    # other edge below v, and each frame of steps 6 and 7 stays in its own
    # subtree), rainbow (`record`) and, by this check, of coordinates distinct
    # from each other and from coord_of[v]; its blocked vertex root_img is v's
    # image flipped in coord_of[v], across v's edge, whose color `lift` bans.
    # The branch's edges mapped before this frame opened are part of its
    # lower half, distinct by the same check one frame up (or extend_tree's),
    # so only the edges this frame mapped into it are compared, with each
    # other and with those: no other edge of the coordinate in the branch
    # is one of either
    fresh = set(targets) | mids
    starts = [pos[c] for c in children] if fresh else []
    for w in fresh:
        c = children[bisect_right(starts, pos[w]) - 1]
        lo, hi = pos[c], end[c]
        for e in L.at_coord[pe.coord_of[w]]:
            if e != w and lo <= pos[e] < hi and (L.stamp[e] < opened or e in fresh):
                raise PreconditionViolated("branch anchor set repeats a coordinate")

    # steps 6 to 8 open a frame on a child's subtree, whose view `lift` makes
    # ban every color used outside it.  Its degree is not checked here:
    # before it maps an edge, the frame (_tree_frame or _spider_legs)
    # checks delta_at_least(e_total) on that view, and e_total is the
    # subtree's edge count

    # step 6: finish the spiders.  Each frame passes extend_spider's checks: an
    # even spider (classify_children), mapped on its lower half (steps 1 to 3)
    # and, for spiders 2..k, on sc.leg's first missing edge (step 5), all of
    # distinct coordinates by the branch check and step 5's x_coor.  So leg
    # one is sc.leg, which is legs[0]: both follow first children
    for sc in cls.spiders:
        sub = pe.lift(book.span(t, sc.vertex, pos[sc.vertex] + 1, end[sc.vertex]))
        leg1, *rest = as_spider(t, sc.vertex).legs
        _spider_legs(sub, leg1, rest)
        pe.adopt(sub)

    # steps 7 and 8: the remaining subtrees, in deficiency order.  A subtree's
    # upper-closed half exceeds its lower half by the positions at half
    # level level(v) + 1 past v; step 8 takes it as the lower half.  The
    # later anchors that step 7 bans are anchors, of coordinates apart from
    # the frame's pre-mapped ones and live in this frame's view (lift)
    for j, v in enumerate(cls.rest, start=1):
        row = bucket.get(t.level[v] + 1, ())
        middle = row[bisect_left(row, pos[v] + 1) : bisect_left(row, end[v])] if j < m else ()
        later_coords: Set = frozenset()
        lone_odd_leg = bool(middle) and end[v] - pos[v] - 1 - 2 * floor_size[v] == 1
        if lone_odd_leg:
            # map its middle edge first, then spider-extend
            (mid,) = map(order.__getitem__, middle)
            _extend(pe, mid, later(k + j - 1), "step7-mid", (t.parent[mid],))
        elif middle:
            # deficiency >= 2: also shield the later anchors' coordinates
            later_coords = later(k + j, frozenset({pe.coord_of[v]}))
        sub = pe.lift(book.span(t, v, pos[v] + 1, end[v]), later_coords)
        if lone_odd_leg:
            # extend_spider's checks pass: deficiency 1 with a middle edge makes
            # a spider with one odd leg (classify_children), mapped on its lower
            # half and on mid, the odd leg's first missing edge, all of distinct
            # coordinates by the branch check and step7-mid's x_coor.  So leg
            # one is the odd leg
            legs = as_spider(t, v).legs
            leg1 = next(leg for leg in legs if (len(leg) - 1) % 2)
            _spider_legs(sub, leg1, [leg for leg in legs if leg is not leg1])
        else:
            yield _tree_frame(sub, root_img)
        pe.adopt(sub)


def choose_z_bad(g, pe: PartialEmbedding) -> tuple[int, int]:
    """Pick the blocked vertex next to the root's image.

    Lowest coordinate that the lower half left unused and whose flip edge is
    absent from the host; when every such edge is present (e.g. the full
    cube), flip one coordinate past the host's dimension -- the ambient cube
    is as wide as we need it to be.
    """
    root_img = pe.image[0]
    used = pe.used_coords()
    for q in range(g.dimension):
        if q in used:
            continue
        if not g.has_edge(root_img, root_img ^ (1 << q)):
            return q, root_img ^ (1 << q)
    q = g.dimension
    return q, root_img | (1 << q)


def embed_rainbow_tree(
    g,
    t: RootedTree,
    *,
    seed: int | None = None,
    start: int | None = None,
) -> PartialEmbedding:
    """Rainbow embedding of t into g; needs delta(g) >= e(t).

    Embeds the lower half doubly distinctly from `start` (host minimum by
    default), picks a blocked vertex, and extends.  Returns the completed
    embedding with its trace and the blocked vertex used.
    """
    # delta(g) >= e(T) is checked once, by embed_half, ahead of its other
    # checks, so a host too sparse for t raises DegreeTooSmall first
    if start is None:
        start = g.default_start()
    rng = SplitMix64(seed) if seed is not None else None
    pe = embed_half(g, t, start, rng=rng)
    if t.n_edges() == 0:
        return pe
    _, z = choose_z_bad(g, pe)
    extend_tree(pe, z)
    pe.z_bad = z
    return pe


def replay_trace(t: RootedTree, trace: Iterable[TraceEntry], root_image: int) -> dict[int, int]:
    """Rebuild the vertex map from a trace; half+extension traces are complete."""
    image = {0: root_image}
    for _, child, src, dst, _, _, _ in trace:
        if image.get(t.parent[child]) != src:
            raise PreconditionViolated(f"trace entry for edge {child} does not chain")
        image[child] = dst
    return image


# --- text format ---------------------------------------------------------
#
#   embedding <tree_edges> <graph_dim>
#   map <tree_vertex_id> <cube_vertex_binary>
#   edge <tree_u> <tree_v> <color> <coordinate>
#   trace <label> <child> <src_binary> <dst_binary> <ncol> <ncoor> <r>


def format_embedding(pe: PartialEmbedding, *, include_trace: bool = False) -> str:
    t = pe.tree
    dim = pe.graph.dimension
    lines = [f"embedding {t.n_edges()} {dim}"]
    for v in sorted(pe.image):
        lines.append(f"map {v} {vertex_str(pe.image[v], dim)}")
    for child in sorted(pe.coord_of):
        lines.append(
            f"edge {t.parent[child]} {child} {pe.color_of[child]} {pe.coord_of[child]}"
        )
    if include_trace:
        lines += format_trace(pe)
    return "\n".join(lines) + "\n"


def format_trace(pe: PartialEmbedding) -> list[str]:
    """The `trace` lines of an embedding file, one per recorded step."""
    dim = pe.graph.dimension
    return [
        f"trace {label} {child} {vertex_str(src, dim)} {vertex_str(dst, dim)} {ncol} {ncoor} {r}"
        for label, child, src, dst, ncol, ncoor, r in pe.trace
    ]


def parse_embedding(text: str) -> tuple[dict[int, int], int, int]:
    """Read an embedding file; returns (vertex map, tree edge count, dimension).

    Edge and trace lines are informational: colors and coordinates are
    always recomputed from the host, never trusted.
    """
    image: dict[int, int] = {}

    def embedding(edges_text: str, dim_text: str) -> tuple[int, int]:
        return int(edges_text), int(dim_text)

    def map_line(header: tuple[int, int], v_text: str, y_text: str) -> None:
        v = int(v_text)
        if v in image:
            raise FormatError(f"duplicate map for vertex {v}")
        image[v] = parse_vertex(y_text, header[1])

    records = {"embedding": (2, embedding), "map": (2, map_line)}
    n_edges, dim = read_records(text, "embedding", records, skip=("edge", "trace"))
    return image, n_edges, dim
