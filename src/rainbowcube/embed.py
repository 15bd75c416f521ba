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
the host that bans what the rest of the tree already uses.  Every frame
writes into the one PartialEmbedding of the whole tree and keeps only its
own sets of mapped edges, colors and coordinates, which its counting
bounds are about.  Frames are generators that one loop, `_run`, drives depth
first on an explicit stack, so a deep tree needs no interpreter recursion.

Every choice is deterministic (first admissible edge in coordinate order)
unless a seed asks for randomized tie-breaking.  The per-step counting
requirements are checked at runtime and raise PreconditionViolated when
they fail, since a failure means the implementation diverged from the
counting argument, not that the input was bad.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

from .errors import (
    DegreeTooSmall,
    DifferingBitCount,
    FormatError,
    NoCandidate,
    PreconditionViolated,
    VertexNotInGraph,
)
from .hypercube import (
    GraphView,
    candidate_edges,
    edge_coordinate,
    parse_vertex,
    vertex_str,
)
from .prng import SplitMix64
from .records import read_records
from .tree import (
    RootedTree,
    as_spider,
    build_tree,  # noqa: F401 -- perfbench/test_smoke.py reads embed.build_tree
    classify_children,
    half_floor,
    subtree_ceil_edges,
    subtree_floor_edges,
)


def endpoints_must_differ(coords: Sequence[int]) -> bool:
    """True when a walk using these edge coordinates cannot close.

    If more than m/2 distinct coordinates appear among m edges, some
    coordinate appears exactly once, so the endpoints differ in that bit.
    False is inconclusive, not a claim of equality.
    """
    return 2 * len(set(coords)) > len(coords)


@dataclass(frozen=True)
class ExtensionRequest:
    """One greedy growth step: map `target` (an unmapped child of `source`)
    across an edge avoiding `x_col` colors and `x_coor` coordinates.

    `witnesses` are already-mapped tree edges at `source` whose images have
    pairwise distinct colors inside x_col and pairwise distinct coordinates
    inside x_coor; each one offsets a forbidden class in the degree count.
    The count reads x_col and x_coor alone, but the step takes no color
    already mapped either, inside x_col or not: the embedding is rainbow.
    """

    source: int
    target: int
    x_col: frozenset[int]
    x_coor: frozenset[int]
    witnesses: tuple[int, ...] = ()
    label: str = "extend"


# trace record: (label, tree edge, graph edge src->dst, |x_col|, |x_coor|, r)
TraceEntry = tuple[str, int, int, int, int, int, int]

_NOTHING: frozenset[int] = frozenset()


@dataclass
class PartialEmbedding:
    """Partial map from tree vertices to cube vertices with rainbow
    bookkeeping, seen through one frame.

    Tree edges are named by child endpoint; `color_of`/`coord_of` cover the
    mapped edges, and only `record` (an engine step) and `premap` (a
    caller) write them, so every mapped edge carries its host's own color
    and coordinate.  The maps, the trace and the RNG belong to the whole
    tree and every frame that `lift` opens shares them.  Per frame: `graph`
    is its view of the host, `vertices` its vertices, subroot first (all of
    them in id order for the whole tree), `used_colors` the colors of its
    mapped edges, and `_edges`/`_coords` those edges and their coordinates.
    `all_colors`, the colors of every mapped edge, never gains a duplicate,
    so the mapped part stays rainbow at all times, and `sorted_colors`
    lists them in increasing order; both are shared by every frame.  A caller
    starts from an empty map, sets the root's image in `image` and adds
    vertices with `premap`.  Confined to a single embedding run.
    """

    tree: RootedTree
    graph: object
    rng: SplitMix64 | None = None
    z_bad: int | None = None
    # set here for the whole tree and by `lift` for a frame, never by a caller
    image: dict[int, int] = field(init=False, default_factory=dict)
    color_of: dict[int, int] = field(init=False, default_factory=dict)
    coord_of: dict[int, int] = field(init=False, default_factory=dict)
    used_colors: set[int] = field(init=False, default_factory=set)
    trace: list[TraceEntry] = field(init=False, default_factory=list)
    vertices: Sequence[int] = field(init=False)
    all_colors: set[int] = field(init=False)
    sorted_colors: list[int] = field(init=False)
    is_frame: bool = field(init=False, default=False)
    _edges: set[int] = field(init=False, repr=False)
    _coords: set[int] = field(init=False, repr=False)
    # the last witness list this frame checked (see _check_witnesses)
    _checked: tuple | None = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.vertices = range(self.tree.n)
        self.all_colors = self.used_colors
        self.sorted_colors = []
        self._edges, self._coords = set(), set()

    @property
    def root(self) -> int:
        return self.vertices[0]

    def mapped_edges(self) -> set[int]:
        return set(self._edges)

    def used_coords(self) -> frozenset[int]:
        return frozenset(self._coords)

    def coords_of(self, edges: Iterable[int]) -> frozenset[int]:
        return frozenset(self.coord_of[e] for e in edges)

    def premap(self, child: int, y: int):
        """Map `child` to `y` by hand, its parent already mapped: the edge
        takes the color this frame's host gives it and the coordinate its
        endpoints give it.  Adds no trace entry.  The root's image is set
        directly in `image`."""
        if not 0 < child < self.tree.n:
            raise PreconditionViolated(f"premap: vertex {child} is outside [1, {self.tree.n})")
        if child in self.image:
            raise PreconditionViolated(f"premap: vertex {child} is already mapped")
        x = self.image.get(self.tree.parent[child])
        if x is None:
            raise PreconditionViolated(f"premap: the parent of vertex {child} is unmapped")
        if not self.graph.has_edge(x, y):
            raise PreconditionViolated(f"premap: edge {child} maps to a non-edge")
        self.record(child, y, self.graph.edge_color(x, y), edge_coordinate(x, y))

    def record(self, child: int, y: int, color: int, coord: int):
        """Map `child` across the edge (coord, y, color): a candidate of this
        frame's view at its parent's image (from extend_one) or the host's
        own edge there (from premap), its only callers."""
        # checked against every frame's colors, so no color is reused across frames either
        if color in self.all_colors:
            raise PreconditionViolated(f"color {color} reused at edge {child}")
        self.image[child] = y
        self.color_of[child] = color
        self.coord_of[child] = coord
        self.used_colors.add(color)
        self.all_colors.add(color)
        insort(self.sorted_colors, color)
        self._edges.add(child)
        self._coords.add(coord)

    def require_doubly_distinct(self, edges: Iterable[int], context: str):
        edges = list(edges)
        colors = [self.color_of[e] for e in edges]
        coords = [self.coord_of[e] for e in edges]
        if len(set(colors)) != len(colors) or len(set(coords)) != len(coords):
            raise PreconditionViolated(f"{context}: mapped edges are not doubly distinct")

    def lift(self, vertices: Sequence[int], banned_coords: Iterable[int] = ()) -> "PartialEmbedding":
        """Open a frame on `vertices`, in this frame's view further
        restricted by the colors this frame has used outside `vertices` and
        by `banned_coords`.

        `vertices` lists the frame's subroot first and is parent-closed
        below it.  The frame writes into this embedding's maps and trace;
        its own edge, color and coordinate sets start from the edges already
        mapped inside it.  Those pre-mapped edges must survive in the view;
        that is checked here because a banned pre-mapped edge means a
        bookkeeping error upstream.
        """
        color_of, coord_of = self.color_of, self.coord_of
        premapped = list(filter(coord_of.__contains__, islice(vertices, 1, None)))
        own = {color_of[w] for w in premapped}
        # nothing new to ban leaves this frame's view itself
        view = self.graph.restrict(self.used_colors - own, banned_coords)
        banned_colors, banned = _bans(view)
        for w in premapped:
            if color_of[w] in banned_colors or coord_of[w] in banned:
                raise PreconditionViolated(f"pre-mapped edge {w} was banned from the restricted host")
        sub = PartialEmbedding(self.tree, view, self.rng)
        sub.image, sub.color_of, sub.coord_of, sub.trace = self.image, color_of, coord_of, self.trace
        sub.used_colors = own
        sub.vertices, sub.all_colors, sub.is_frame = vertices, self.all_colors, True
        sub.sorted_colors = self.sorted_colors
        sub._edges, sub._coords = set(premapped), {coord_of[w] for w in premapped}
        return sub

    def adopt(self, sub: "PartialEmbedding"):
        """Close a frame opened by `lift`: its edges, colors and coordinates
        join this frame's.

        The frame wrote into the shared maps, so there is nothing to copy
        and nothing to compare.  It cannot have remapped a vertex, since
        extend_one and premap, the only callers of `record`, refuse a child
        that is already mapped; and `record` refused any color used in any
        frame.
        """
        self.used_colors |= sub.used_colors
        self._edges |= sub._edges
        self._coords |= sub._coords


def _bans(view) -> tuple[frozenset[int], frozenset[int]]:
    """The colors and coordinates `view` bans; a host bans none.  Read once
    per step and once per `lift`; the callers test each edge inline.

    A mapped edge w is live in a view of the embedding's host H exactly
    when color_of[w] is not a banned color and coord_of[w] not a banned
    coordinate, from three facts.  (1) `record`, from extend_one, takes a
    candidate of a view over H, which is one of H's own incidence records
    (GraphView.admissible passes them through); so H has the edge, with
    color color_of[w] and coordinate coord_of[w].  (2) `premap` reads both
    from H (a view's edge_color is its host's).  (3) A view over H keeps
    exactly the edges of H whose color and coordinate it does not ban
    (GraphView.has_edge), and H itself bans nothing.  Every frame is over
    H, since `lift` restricts its opener's view, and no mapped edge is
    rewritten, since `record`'s callers refuse a mapped child.  So the two
    set tests equal `view.has_edge`.
    """
    if isinstance(view, GraphView):
        return view.banned_colors, view.banned_coords
    return _NOTHING, _NOTHING


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
    (or a seeded random one when the embedding carries an RNG).
    """
    t = pe.tree
    v, w = req.source, req.target
    if not 0 < w < t.n:
        raise PreconditionViolated(f"step {req.label}: vertex {w} is outside [1, {t.n})")
    if w in pe.image or v not in pe.image:
        raise PreconditionViolated(f"step {req.label}: {v}->{w} not a frontier edge")
    if t.parent[w] != v:
        raise PreconditionViolated(f"step {req.label}: {w} is not a child of {v}")

    if req.witnesses:
        _check_witnesses(pe, req)
    r = len(req.witnesses)
    if not pe.graph.delta_at_least(len(req.x_col) + len(req.x_coor) - r + 1):
        raise PreconditionViolated(
            f"step {req.label}: |x_col|={len(req.x_col)} + |x_coor|={len(req.x_coor)}"
            f" - r={r} >= delta={pe.graph.delta()}"
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
    if not cands:
        raise NoCandidate(f"step {req.label}: counting bound held but no edge was admissible")
    coord, y, color = cands[0] if pe.rng is None else cands[pe.rng.randrange(len(cands))]
    pe.record(w, y, color, coord)
    pe.trace.append((req.label, w, pe.image[v], y, len(req.x_col), len(req.x_coor), r))
    return pe


def _check_witnesses(pe: PartialEmbedding, req: ExtensionRequest) -> None:
    """Check each witness of a step with witnesses: mapped, at the source,
    inside the forbidden sets, no color or coordinate repeated, live in the
    frame's view.

    The frame keeps the last nonempty witness list that passed, with its
    colors and coordinates, so that step 4, whose list grows by one root
    edge per leaf, checks each witness once.  A request takes over that
    result only if it has the same source and view, the old list is a prefix
    of its own, and the old x_col and x_coor are subsets of its own; then
    only the new witnesses are checked.  That decides exactly as checking
    every witness, since each check on an old witness still passes: a mapped
    edge is never unmapped or remapped (`record`'s callers refuse a mapped
    child), so it stays mapped with the same color and coordinate; the
    source and the tree are the same, so it is still incident; its color and
    coordinate lie in the old sets, hence in the new; the list up to it is
    the same, so it repeats nothing before it; and the view is the same
    object, whose bans are fixed.  The loop then reaches the new witnesses
    with the same colors and coordinates seen.  A failing check clears the
    kept result.
    """
    v, view, witnesses = req.source, pe.graph, req.witnesses
    checked, pe._checked = pe._checked, None
    if checked is not None:
        old, old_view, seen_colors, seen_coords = checked
        k = len(old.witnesses)
        if not (old.source == v and old_view is view and witnesses[:k] == old.witnesses
                and old.x_col <= req.x_col and old.x_coor <= req.x_coor):
            checked = None
    if checked is None:
        k, seen_colors, seen_coords = 0, set(), set()

    parent, color_of, coord_of = pe.tree.parent, pe.color_of, pe.coord_of
    x_col, x_coor = req.x_col, req.x_coor
    banned_colors, banned_coords = _bans(view)
    for wit in islice(witnesses, k, None):
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
    pe._checked = (req, view, seen_colors, seen_coords)


def _extend(pe: PartialEmbedding, target: int, x_coor: frozenset[int], label: str,
            witnesses: tuple[int, ...] = ()) -> PartialEmbedding:
    """extend_one from `target`'s parent, dodging `x_coor` and, as every step
    of every stage does, each color the frame has used."""
    request = ExtensionRequest(pe.tree.parent[target], target, frozenset(pe.used_colors), x_coor,
                               witnesses, label)
    return extend_one(pe, request)


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
    for child in sorted(half_floor(t), key=lambda v: (t.level[v], v)):
        _extend(pe, child, pe.used_coords(), "half")
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
    than half of the walk's coordinates are distinct, and
    endpoints_must_differ(coords[k:m]) follows from the window check.  It
    is not checked again.
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
    path = pe.vertices
    n = len(path) - 1
    for i in range(1, n + 1):
        if t.parent[path[i]] != path[i - 1]:
            raise PreconditionViolated("extend_path needs a path tree with ids in order")
    if n == 0:
        return pe
    nprime = min(n // 2 + 1, n)
    expected = set(path[1 : nprime + 1])
    if pe.mapped_edges() != expected:
        raise PreconditionViolated(
            f"path domain must be the first {nprime} edges, got {sorted(pe.mapped_edges())}"
        )
    pe.require_doubly_distinct(expected, "extend_path input")

    for i in range(nprime + 1, n + 1):
        lo = max(2 * i - n - 1, 1)
        _extend(pe, path[i], pe.coords_of(path[lo:i]), "path", (path[i - 1],))

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


def _leg_first_missing(leg: tuple[int, ...]) -> int:
    """First leg edge beyond the lower half: index floor(len)/2 + 1."""
    return leg[(len(leg) - 1) // 2 + 1]


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
    it, every leg must have even length.  The algorithm:

      0. map leg one's first missing edge, dodging every color and
         coordinate used so far;
      1. finish leg one as a path inside the view that bans the colors and
         coordinates of the other legs' halves;
      2. recurse on the remaining legs inside the view that bans leg one's
         colors.

    Openness of the cross-leg walks then gives injectivity.
    """
    _run(_spider_frame(pe))
    _check_injective(pe, "spider")
    return pe


def _spider_frame(pe: PartialEmbedding, legs: Sequence[tuple[int, ...]] | None = None) -> Frame:
    """extend_spider on a frame: the spider below its subroot, or these legs
    of it.  A frame for the remaining legs has fewer legs than its opener."""
    t, g = pe.tree, pe.graph
    if legs is None:
        if not t.children[pe.root]:
            return
        shape = as_spider(t, pe.root)
        if shape is None:
            raise PreconditionViolated("extend_spider needs a spider")
        legs = shape.legs
    e_total = sum(len(leg) - 1 for leg in legs)
    if not g.delta_at_least(e_total):
        raise PreconditionViolated(f"delta={g.delta()} < e(S)={e_total}")

    # the lower half of a spider: the first floor(len/2) edges of every leg
    floor = {leg[i] for leg in legs for i in range(1, (len(leg) - 1) // 2 + 1)}
    mapped = pe.mapped_edges()
    extra = mapped - floor
    if not floor <= mapped or len(extra) > 1:
        raise PreconditionViolated("spider domain must be the lower half plus at most one edge")
    pe.require_doubly_distinct(mapped, "extend_spider input")

    if extra:
        (x,) = extra
        first = [leg for leg in legs if _leg_first_missing(leg) == x]
        if not first:
            raise PreconditionViolated(f"extra edge {x} is not a leg's first missing edge")
        leg1 = first[0]
    else:
        odd = [leg for leg in legs if (len(leg) - 1) % 2]
        if len(odd) > 1:
            raise PreconditionViolated("more than one odd leg")
        leg1 = odd[0] if odd else legs[0]
    rest = [leg for leg in legs if leg is not leg1]
    if any((len(leg) - 1) % 2 for leg in rest):
        raise PreconditionViolated("legs other than leg one must have even length")

    # step 0: ensure leg one's first missing edge is mapped
    e1 = _leg_first_missing(leg1)
    if e1 not in pe.coord_of:
        half1 = (len(leg1) - 1) // 2
        if half1 >= 1:
            witnesses = (leg1[half1],)
        elif rest:
            witnesses = (rest[0][1],)
        else:
            witnesses = ()
        _extend(pe, e1, pe.used_coords(), "spider0", witnesses)

    # step 1: finish leg one as a path, shielded from the other legs' halves,
    # whose colors are the ones this frame has used outside leg one
    rest_half_edges = [leg[i] for leg in rest for i in range(1, (len(leg) - 1) // 2 + 1)]
    sub = pe.lift(leg1, pe.coords_of(rest_half_edges))
    leg1_len = len(leg1) - 1
    if not sub.graph.delta_at_least(leg1_len):
        raise PreconditionViolated(
            f"leg-one view delta={sub.graph.delta()} < leg length {leg1_len}"
        )
    extend_path(sub)
    pe.adopt(sub)

    # step 2: recurse on the remaining legs, shielded from leg one's colors,
    # the ones this frame has used outside them; their frame checks its
    # view's degree against their edge count first
    if rest:
        sub = pe.lift(leg1[:1] + tuple(v for leg in rest for v in leg[1:]))
        yield _spider_frame(sub, rest)
        pe.adopt(sub)


def extend_tree(pe: PartialEmbedding, z_bad: int) -> PartialEmbedding:
    """Extend a doubly distinct lower-half embedding to all of the tree,
    avoiding `z_bad`, path-distinct on the upper-closed half.

    `z_bad` must be a cube neighbor of the root's image whose connecting
    edge is absent from the host, with its coordinate unused so far.  The
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
    _run(_tree_frame(pe, z_bad))
    # checked once too: the blocked vertex of every inner frame is the image
    # of its opener's subroot, which lies outside it and inside this frame
    if z_bad in _check_injective(pe, "tree"):
        raise PreconditionViolated("embedding touched the blocked vertex")
    return pe


def _tree_frame(pe: PartialEmbedding, z_bad: int) -> Frame:
    """extend_tree on the subtree at a frame's subroot.  Every frame it
    opens is rooted at a child, so frames nest no deeper than the tree."""
    t, g = pe.tree, pe.graph
    root = pe.root
    order, pos, end, _ = t.preorder()
    root_img = pe.image[root]
    e_total = end[root] - pos[root] - 1
    if e_total == 0:
        if root_img == z_bad:
            raise PreconditionViolated("root image equals the blocked vertex")
        return

    if not g.delta_at_least(e_total):
        raise PreconditionViolated(f"delta={g.delta()} < e(T)={e_total}")
    try:
        q = edge_coordinate(root_img, z_bad)
    except DifferingBitCount as exc:
        raise PreconditionViolated("blocked vertex is not a cube neighbor of the root image") from exc
    if g.has_edge(root_img, z_bad):
        raise PreconditionViolated("blocked vertex is joined to the root image in the host")
    floor = half_floor(t, root)
    if pe.mapped_edges() != floor:
        raise PreconditionViolated("extend_tree domain must be exactly the lower half")
    pe.require_doubly_distinct(floor, "extend_tree input")
    if q in pe.used_coords():
        raise PreconditionViolated("blocked coordinate already used by the lower half")

    cls = classify_children(t, root)
    k, ell, m = len(cls.spiders), len(cls.leaves), len(cls.rest)

    a_sets = {
        sc.vertex: (frozenset({sc.vertex}) | subtree_floor_edges(t, sc.vertex))
        - {sc.mid_edge}
        for sc in cls.spiders
    }
    b_sets = {v: frozenset({v}) | subtree_floor_edges(t, v) for v in cls.rest}
    ab = set().union(*a_sets.values(), *b_sets.values())

    # the anchor-set checks: raised, not asserted, so that `python -O` keeps them
    for sc in cls.spiders:
        if 2 * len(a_sets[sc.vertex]) != end[sc.vertex] - pos[sc.vertex] - 1:
            raise PreconditionViolated(f"anchor set of spider child {sc.vertex} is not half its subtree")
    for v in cls.rest:
        if 2 * len(b_sets[v]) > end[v] - pos[v]:
            raise PreconditionViolated(f"anchor set of child {v} exceeds half its subtree")
    if 2 * len(ab) > e_total - k - ell:
        raise PreconditionViolated("anchor sets exceed half of the edges outside leaves and mid-legs")
    if not floor <= ab:
        raise PreconditionViolated("anchor sets miss part of the lower half")

    # step 1: finish the anchor sets, doubly distinct, dodging q; ties in
    # level go by id in the whole tree and by preorder position in a frame
    # below it, the order the golden digests pin
    rank = pos if pe.is_frame else range(t.n)
    for child in sorted(ab - floor, key=lambda v: (t.level[v], rank[v])):
        _extend(pe, child, pe.used_coords() | {q}, "step1")

    def leg_witness(sc) -> int:
        # the leg edge above the mid-leg edge, or the root edge of the child
        return sc.leg[sc.half_len - 1] if sc.half_len >= 2 else sc.vertex

    # step 2: the first spider's mid-leg edge
    if k >= 1:
        sc = cls.spiders[0]
        _extend(pe, sc.mid_edge, pe.used_coords() | {q}, "step2", (leg_witness(sc),))
    anchor_coords = pe.used_coords()  # coordinates of anchors + e_1

    # step 3: the other spiders' mid-leg edges
    for sc in cls.spiders[1:]:
        _extend(pe, sc.mid_edge, anchor_coords, "step3", (leg_witness(sc),))

    # step 4: the root-leaf edges, witness-backed by earlier root edges
    witnesses = tuple(sc.vertex for sc in cls.spiders)
    for u in cls.leaves:
        _extend(pe, u, pe.used_coords(), "step4", witnesses)
        witnesses += (u,)

    # step 5: the edges after the mid-leg edges, spiders 2..k
    for idx, sc in enumerate(cls.spiders[1:], start=1):
        later_anchor = {sc.mid_edge}.union(
            *(a_sets[sc2.vertex] for sc2 in cls.spiders[idx:]), *b_sets.values()
        )
        _extend(pe, sc.after_mid_edge, pe.coords_of(later_anchor), "step5", (sc.mid_edge,))

    # each branch anchor set is {v} | the lower half of v's subtree, mapped by step 3
    for branch in chain((a_sets[sc.vertex] | {sc.mid_edge} for sc in cls.spiders), b_sets.values()):
        if len({pe.coord_of[e] for e in branch}) != len(branch):
            raise PreconditionViolated("branch anchor set repeats a coordinate")

    # steps 6 to 8 open a frame on a child's subtree, whose view `lift` makes
    # ban every color used outside it.  Its degree is not checked here:
    # before it maps an edge, the frame (_tree_frame or _spider_frame)
    # checks delta_at_least(e_total) on that view, and e_total is the
    # subtree's edge count

    # step 6: finish the spiders
    for sc in cls.spiders:
        sub = pe.lift(order[pos[sc.vertex] : end[sc.vertex]])
        yield _spider_frame(sub)
        pe.adopt(sub)

    # steps 7 and 8: the remaining subtrees, in deficiency order
    for j, v in enumerate(cls.rest, start=1):
        sub_floor = b_sets[v] - {v}
        sub_ceil = subtree_ceil_edges(t, v) if j < m else sub_floor
        later_coords = ()
        lone_odd_leg = sub_ceil != sub_floor and end[v] - pos[v] - 1 - 2 * len(sub_floor) == 1
        if lone_odd_leg:
            # map its middle edge first, then spider-extend
            (mid,) = sub_ceil - sub_floor
            later_b = set().union(*(b_sets[v2] for v2 in cls.rest[j - 1 :]))
            _extend(pe, mid, pe.coords_of(later_b), "step7-mid", (t.parent[mid],))
        elif sub_ceil != sub_floor:
            # deficiency >= 2: also shield the later anchors' coordinates
            later_coords = pe.coords_of(chain([v], *(b_sets[v2] for v2 in cls.rest[j:])))
        sub = pe.lift(order[pos[v] : end[v]], later_coords)
        yield _spider_frame(sub) if lone_odd_leg else _tree_frame(sub, root_img)
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
