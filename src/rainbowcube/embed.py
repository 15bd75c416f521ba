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

Every choice is deterministic (first admissible edge in coordinate order)
unless a seed asks for randomized tie-breaking.  The per-step counting
requirements are checked at runtime and raise PreconditionViolated when
they fail, since a failure means the implementation diverged from the
counting argument, not that the input was bad.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import (
    DegreeTooSmall,
    DifferingBitCount,
    FormatError,
    NoCandidate,
    PreconditionViolated,
    RecursionDepthExceeded,
    VertexNotInGraph,
)
from .hypercube import candidate_edges, edge_coordinate, parse_vertex, vertex_str
from .prng import SplitMix64
from .records import read_records
from .tree import (
    RootedTree,
    as_spider,
    build_tree,
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
    """

    source: int
    target: int
    x_col: frozenset[int]
    x_coor: frozenset[int]
    witnesses: tuple[int, ...] = ()
    label: str = "extend"


# trace record: (label, tree edge, graph edge src->dst, |x_col|, |x_coor|, r)
TraceEntry = tuple[str, int, int, int, int, int, int]


@dataclass
class PartialEmbedding:
    """Partial map from tree vertices to cube vertices with rainbow bookkeeping.

    Tree edges are named by child endpoint; `color_of`/`coord_of` cover the
    mapped edges.  `used_colors` never gains a duplicate, so the mapped part
    stays rainbow at all times.  Confined to a single embedding run.
    """

    tree: RootedTree
    graph: object
    image: dict[int, int] = field(default_factory=dict)
    color_of: dict[int, int] = field(default_factory=dict)
    coord_of: dict[int, int] = field(default_factory=dict)
    used_colors: set[int] = field(default_factory=set)
    trace: list[TraceEntry] = field(default_factory=list)
    rng: SplitMix64 | None = None
    strict: bool = False
    z_bad: int | None = None

    def mapped_edges(self) -> set[int]:
        return set(self.coord_of)

    def used_coords(self) -> set[int]:
        return set(self.coord_of.values())

    def coords_of(self, edges: Iterable[int]) -> frozenset[int]:
        return frozenset(self.coord_of[e] for e in edges)

    def colors_of(self, edges: Iterable[int]) -> frozenset[int]:
        return frozenset(self.color_of[e] for e in edges)

    def is_total(self) -> bool:
        return len(self.image) == self.tree.n

    def record(self, child: int, y: int, color: int, coord: int, entry: TraceEntry):
        if color in self.used_colors:
            raise PreconditionViolated(f"color {color} reused at edge {child}")
        self.image[child] = y
        self.color_of[child] = color
        self.coord_of[child] = coord
        self.used_colors.add(color)
        self.trace.append(entry)

    def require_doubly_distinct(self, edges: Iterable[int], context: str):
        edges = list(edges)
        colors = [self.color_of[e] for e in edges]
        coords = [self.coord_of[e] for e in edges]
        if len(set(colors)) != len(colors) or len(set(coords)) != len(coords):
            raise PreconditionViolated(f"{context}: mapped edges are not doubly distinct")

    def lift(self, vertices: Sequence[int], view) -> "PartialEmbedding":
        """Restriction to `vertices` (first entry becomes the new root) as a
        fresh embedding over `view`.

        `vertices` must be parent-closed below its first entry.  Pre-mapped
        edge images must survive in the view; that is asserted here because
        a banned pre-mapped edge means a bookkeeping error upstream.
        """
        index = {v: i for i, v in enumerate(vertices)}
        parents = [index[self.tree.parent[w]] for w in vertices[1:]]
        sub = PartialEmbedding(build_tree(parents), view, rng=self.rng, strict=self.strict)
        for i, w in enumerate(vertices):
            if w in self.image:
                sub.image[i] = self.image[w]
        for i, w in enumerate(vertices[1:], start=1):
            if w in self.coord_of:
                if not view.has_edge(self.image[self.tree.parent[w]], self.image[w]):
                    raise PreconditionViolated(
                        f"pre-mapped edge {w} was banned from the restricted host"
                    )
                sub.color_of[i] = self.color_of[w]
                sub.coord_of[i] = self.coord_of[w]
                sub.used_colors.add(self.color_of[w])
        return sub

    def adopt(self, sub: "PartialEmbedding", vertices: Sequence[int]):
        """Merge a completed lift back, translating ids and trace entries."""
        for i, w in enumerate(vertices):
            if w in self.image:
                if self.image[w] != sub.image[i]:
                    raise PreconditionViolated(f"lift remapped vertex {w}")
            else:
                self.image[w] = sub.image[i]
        for i, w in enumerate(vertices[1:], start=1):
            if w in self.coord_of:
                continue
            color = sub.color_of[i]
            if color in self.used_colors:
                raise PreconditionViolated(f"lift reused color {color} at edge {w}")
            self.color_of[w] = color
            self.coord_of[w] = sub.coord_of[i]
            self.used_colors.add(color)
        for label, child, src, dst, ncol, ncoor, r in sub.trace:
            self.trace.append((label, vertices[child], src, dst, ncol, ncoor, r))


def extend_one(pe: PartialEmbedding, req: ExtensionRequest) -> PartialEmbedding:
    """Apply one growth step after checking its counting hypothesis.

    With r valid witnesses the host guarantees an admissible edge whenever
    |x_col| + |x_coor| - r < delta; both that bound and witness validity are
    enforced, and the first admissible edge in coordinate order is taken
    (or a seeded random one when the embedding carries an RNG).
    """
    t = pe.tree
    v, w = req.source, req.target
    if w in pe.image or v not in pe.image:
        raise PreconditionViolated(f"step {req.label}: {v}->{w} not a frontier edge")
    if t.parent[w] != v:
        raise PreconditionViolated(f"step {req.label}: {w} is not a child of {v}")

    seen_colors: set[int] = set()
    seen_coords: set[int] = set()
    for wit in req.witnesses:
        if wit not in pe.coord_of:
            raise PreconditionViolated(f"witness edge {wit} is unmapped")
        if wit != v and t.parent[wit] != v:
            raise PreconditionViolated(f"witness edge {wit} is not incident to {v}")
        c, q = pe.color_of[wit], pe.coord_of[wit]
        if c not in req.x_col or q not in req.x_coor:
            raise PreconditionViolated(f"witness edge {wit} lies outside the forbidden sets")
        if c in seen_colors or q in seen_coords:
            raise PreconditionViolated(f"witness edge {wit} repeats a color or coordinate")
        if not pe.graph.has_edge(pe.image[t.parent[wit]], pe.image[wit]):
            raise PreconditionViolated(f"witness edge {wit} is not live in the current host")
        seen_colors.add(c)
        seen_coords.add(q)

    r = len(req.witnesses)
    if not pe.graph.delta_at_least(len(req.x_col) + len(req.x_coor) - r + 1):
        raise PreconditionViolated(
            f"step {req.label}: |x_col|={len(req.x_col)} + |x_coor|={len(req.x_coor)}"
            f" - r={r} >= delta={pe.graph.delta()}"
        )

    cands = candidate_edges(pe.graph, pe.image[v], req.x_col, req.x_coor)
    if not cands:
        raise NoCandidate(f"step {req.label}: counting bound held but no edge was admissible")
    coord, y, color = cands[0] if pe.rng is None else cands[pe.rng.randrange(len(cands))]
    pe.record(
        w,
        y,
        color,
        coord,
        (req.label, w, pe.image[v], y, len(req.x_col), len(req.x_coor), r),
    )
    return pe


def embed_half(
    g,
    t: RootedTree,
    start: int,
    *,
    rng: SplitMix64 | None = None,
    strict: bool = False,
) -> PartialEmbedding:
    """Doubly distinct embedding of the lower half of t, rooted at `start`.

    Edges are taken in (level, id) order, so every prefix is connected.
    Needs delta(g) >= e(t): step i forbids 2(i-1) <= e(t) - 2 classes.
    """
    if not g.has_vertex(start):
        raise VertexNotInGraph(f"start vertex {start} not in host")
    if not g.delta_at_least(t.n_edges()):
        raise DegreeTooSmall(f"delta={g.delta()} < e(T)={t.n_edges()}")
    pe = PartialEmbedding(t, g, rng=rng, strict=strict)
    pe.image[0] = start
    for child in sorted(half_floor(t), key=lambda v: (t.level[v], v)):
        extend_one(
            pe,
            ExtensionRequest(
                source=t.parent[child],
                target=child,
                x_col=frozenset(pe.used_colors),
                x_coor=frozenset(pe.used_coords()),
                label="half",
            ),
        )
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

    Edge i then forbids all previous colors plus the coordinates of the
    trailing window of edges 2i-n-1 .. i-1; that is exactly n classes with
    one witness inside both sets, so a candidate always exists, and the
    window overlap keeps every closing walk open.
    """
    t = pe.tree
    n = t.n - 1
    for i in range(1, t.n):
        if t.parent[i] != i - 1:
            raise PreconditionViolated("extend_path needs a path tree with ids in order")
    if n == 0:
        return pe
    nprime = min(n // 2 + 1, n)
    expected = set(range(1, nprime + 1))
    if pe.mapped_edges() != expected:
        raise PreconditionViolated(
            f"path domain must be the first {nprime} edges, got {sorted(pe.mapped_edges())}"
        )
    pe.require_doubly_distinct(expected, "extend_path input")

    for i in range(nprime + 1, n + 1):
        lo = max(2 * i - n - 1, 1)
        extend_one(
            pe,
            ExtensionRequest(
                source=i - 1,
                target=i,
                x_col=frozenset(pe.used_colors),
                x_coor=pe.coords_of(range(lo, i)),
                witnesses=(i - 1,),
                label="path",
            ),
        )

    coords = [pe.coord_of[i] for i in range(1, n + 1)]
    certify_path_windows(coords)
    images = [pe.image[i] for i in range(t.n)]
    if len(set(images)) != len(images):
        raise PreconditionViolated("path embedding not injective")
    return pe


def _leg_first_missing(leg: tuple[int, ...]) -> int:
    """First leg edge beyond the lower half: index floor(len)/2 + 1."""
    return leg[(len(leg) - 1) // 2 + 1]


def extend_spider(pe: PartialEmbedding, _fuel: int | None = None) -> PartialEmbedding:
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
    t, g = pe.tree, pe.graph
    if t.n == 1:
        return pe
    shape = as_spider(t)
    if shape is None:
        raise PreconditionViolated("extend_spider needs a spider")
    if _fuel is None:
        _fuel = len(shape.legs)  # recursion drops one leg per level
    elif _fuel <= 0:
        raise RecursionDepthExceeded("spider recursion outlived its leg count")
    e_total = t.n_edges()
    if not g.delta_at_least(e_total):
        raise PreconditionViolated(f"delta={g.delta()} < e(S)={e_total}")

    floor = half_floor(t)
    mapped = pe.mapped_edges()
    extra = mapped - floor
    if not floor <= mapped or len(extra) > 1:
        raise PreconditionViolated("spider domain must be the lower half plus at most one edge")
    pe.require_doubly_distinct(mapped, "extend_spider input")

    legs = list(shape.legs)
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
        extend_one(
            pe,
            ExtensionRequest(
                source=t.parent[e1],
                target=e1,
                x_col=frozenset(pe.used_colors),
                x_coor=frozenset(pe.used_coords()),
                witnesses=witnesses,
                label="spider0",
            ),
        )

    # step 1: finish leg one as a path, shielded from the other legs' halves
    rest_half_edges = [leg[i] for leg in rest for i in range(1, (len(leg) - 1) // 2 + 1)]
    view1 = g.restrict(pe.colors_of(rest_half_edges), pe.coords_of(rest_half_edges))
    leg1_len = len(leg1) - 1
    if not view1.delta_at_least(leg1_len):
        raise PreconditionViolated(
            f"leg-one view delta={view1.delta()} < leg length {leg1_len}"
        )
    sub = pe.lift(leg1, view1)
    extend_path(sub)
    pe.adopt(sub, leg1)

    # step 2: recurse on the remaining legs, shielded from leg one's colors
    if rest:
        view2 = g.restrict(pe.colors_of(leg1[1:]), ())
        e_rest = e_total - leg1_len
        if not view2.delta_at_least(e_rest):
            raise PreconditionViolated(
                f"remaining-legs view delta={view2.delta()} < {e_rest}"
            )
        vertices = (0,) + tuple(v for leg in rest for v in leg[1:])
        sub = pe.lift(vertices, view2)
        extend_spider(sub, _fuel - 1)
        pe.adopt(sub, vertices)

    images = list(pe.image.values())
    if len(set(images)) != len(images):
        raise PreconditionViolated("spider embedding not injective")
    return pe


def extend_tree(pe: PartialEmbedding, z_bad: int, _fuel: int | None = None) -> PartialEmbedding:
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
    t, g = pe.tree, pe.graph
    if _fuel is None:
        _fuel = t.level_max[0]  # recursion strictly lowers the tree height
    elif _fuel <= 0:
        raise RecursionDepthExceeded("tree recursion outlived the tree height")
    root_img = pe.image[0]
    e_total = t.n_edges()
    if e_total == 0:
        if root_img == z_bad:
            raise PreconditionViolated("root image equals the blocked vertex")
        return pe

    if not g.delta_at_least(e_total):
        raise PreconditionViolated(f"delta={g.delta()} < e(T)={e_total}")
    try:
        q = edge_coordinate(root_img, z_bad)
    except DifferingBitCount as exc:
        raise PreconditionViolated("blocked vertex is not a cube neighbor of the root image") from exc
    if g.has_edge(root_img, z_bad):
        raise PreconditionViolated("blocked vertex is joined to the root image in the host")
    floor = half_floor(t)
    if pe.mapped_edges() != set(floor):
        raise PreconditionViolated("extend_tree domain must be exactly the lower half")
    pe.require_doubly_distinct(floor, "extend_tree input")
    if q in pe.used_coords():
        raise PreconditionViolated("blocked coordinate already used by the lower half")

    cls = classify_children(t)
    k, ell, m = len(cls.spiders), len(cls.leaves), len(cls.rest)

    a_sets = {
        sc.vertex: (frozenset({sc.vertex}) | subtree_floor_edges(t, sc.vertex))
        - {sc.mid_edge}
        for sc in cls.spiders
    }
    b_sets = {v: frozenset({v}) | subtree_floor_edges(t, v) for v in cls.rest}
    ab: set[int] = set()
    for edges in a_sets.values():
        ab |= edges
    for edges in b_sets.values():
        ab |= edges

    # strict bookkeeping: raised, not asserted, so that `python -O` keeps it
    if pe.strict:
        for sc in cls.spiders:
            if 2 * len(a_sets[sc.vertex]) != t.subtree_edge_count(sc.vertex):
                raise PreconditionViolated(
                    f"strict: anchor set of spider child {sc.vertex} is not half its subtree"
                )
        for v in cls.rest:
            if 2 * len(b_sets[v]) > 1 + t.subtree_edge_count(v):
                raise PreconditionViolated(
                    f"strict: anchor set of child {v} exceeds half its subtree"
                )
        if 2 * len(ab) > e_total - k - ell:
            raise PreconditionViolated(
                "strict: anchor sets exceed half of the edges outside leaves and mid-legs"
            )
        if not floor <= ab:
            raise PreconditionViolated("strict: anchor sets miss part of the lower half")

    # step 1: finish the anchor sets, doubly distinct, dodging q
    for child in sorted(ab - floor, key=lambda v: (t.level[v], v)):
        extend_one(
            pe,
            ExtensionRequest(
                source=t.parent[child],
                target=child,
                x_col=frozenset(pe.used_colors),
                x_coor=frozenset(pe.used_coords() | {q}),
                label="step1",
            ),
        )

    def leg_witness(sc) -> int:
        # the leg edge above the mid-leg edge, or the root edge of the child
        return sc.leg[sc.half_len - 1] if sc.half_len >= 2 else sc.vertex

    # step 2: the first spider's mid-leg edge
    if k >= 1:
        sc = cls.spiders[0]
        extend_one(
            pe,
            ExtensionRequest(
                source=t.parent[sc.mid_edge],
                target=sc.mid_edge,
                x_col=frozenset(pe.used_colors),
                x_coor=frozenset(pe.used_coords() | {q}),
                witnesses=(leg_witness(sc),),
                label="step2",
            ),
        )
    anchor_coords = frozenset(pe.used_coords())  # coordinates of anchors + e_1

    # step 3: the other spiders' mid-leg edges
    for sc in cls.spiders[1:]:
        extend_one(
            pe,
            ExtensionRequest(
                source=t.parent[sc.mid_edge],
                target=sc.mid_edge,
                x_col=frozenset(pe.used_colors),
                x_coor=anchor_coords,
                witnesses=(leg_witness(sc),),
                label="step3",
            ),
        )

    # step 4: the root-leaf edges, witness-backed by earlier root edges
    done_leaves: list[int] = []
    for u in cls.leaves:
        extend_one(
            pe,
            ExtensionRequest(
                source=0,
                target=u,
                x_col=frozenset(pe.used_colors),
                x_coor=frozenset(pe.used_coords()),
                witnesses=tuple(sc.vertex for sc in cls.spiders) + tuple(done_leaves),
                label="step4",
            ),
        )
        done_leaves.append(u)

    # step 5: the edges after the mid-leg edges, spiders 2..k
    for idx, sc in enumerate(cls.spiders[1:], start=1):
        later_anchor = set()
        for sc2 in cls.spiders[idx:]:
            later_anchor |= a_sets[sc2.vertex]
        for v in cls.rest:
            later_anchor |= b_sets[v]
        later_anchor.add(sc.mid_edge)
        extend_one(
            pe,
            ExtensionRequest(
                source=t.parent[sc.after_mid_edge],
                target=sc.after_mid_edge,
                x_col=frozenset(pe.used_colors),
                x_coor=pe.coords_of(later_anchor),
                witnesses=(sc.mid_edge,),
                label="step5",
            ),
        )

    def pruned_view(sub_vertices: Sequence[int]):
        own = pe.colors_of(c for c in sub_vertices[1:] if c in pe.coord_of)
        return g.restrict(frozenset(pe.used_colors) - own, ())

    # step 6: finish the spiders
    for sc in cls.spiders:
        sub_vertices = t.subtree_preorder(sc.vertex)
        view = pruned_view(sub_vertices)
        e_sub = len(sub_vertices) - 1
        if not view.delta_at_least(e_sub):
            raise PreconditionViolated(
                f"spider view delta={view.delta()} < e(S_i)={e_sub}"
            )
        sub = pe.lift(sub_vertices, view)
        extend_spider(sub)
        pe.adopt(sub, sub_vertices)

    # steps 7 and 8: the remaining subtrees, in deficiency order
    for j, v in enumerate(cls.rest, start=1):
        sub_vertices = t.subtree_preorder(v)
        e_sub = len(sub_vertices) - 1
        sub_floor = b_sets[v] - {v}
        last = j == m

        if not last:
            sub_ceil = subtree_ceil_edges(t, v)
            defic = e_sub - 2 * len(sub_floor)
            if sub_ceil != sub_floor and defic == 1:
                # lone odd leg: map its middle edge first, then spider-extend
                (mid,) = sub_ceil - sub_floor
                later_b = set()
                for v2 in cls.rest[j - 1 :]:
                    later_b |= b_sets[v2]
                parent_edge = t.parent[mid] if t.parent[mid] != v else v
                extend_one(
                    pe,
                    ExtensionRequest(
                        source=t.parent[mid],
                        target=mid,
                        x_col=frozenset(pe.used_colors),
                        x_coor=pe.coords_of(later_b),
                        witnesses=(parent_edge,),
                        label="step7-mid",
                    ),
                )
                view = pruned_view(sub_vertices)
                if not view.delta_at_least(e_sub):
                    raise PreconditionViolated(
                        f"subtree view delta={view.delta()} < e(T_j)={e_sub}"
                    )
                sub = pe.lift(sub_vertices, view)
                extend_spider(sub)
                pe.adopt(sub, sub_vertices)
                continue
            if sub_ceil != sub_floor:
                # deficiency >= 2: also shield the later anchors' coordinates
                later_coords = {pe.coord_of[v]}
                for v2 in cls.rest[j:]:
                    later_coords |= {pe.coord_of[e] for e in b_sets[v2]}
                own = pe.colors_of(c for c in sub_vertices[1:] if c in pe.coord_of)
                view = g.restrict(frozenset(pe.used_colors) - own, later_coords)
            else:
                view = pruned_view(sub_vertices)
        else:
            view = pruned_view(sub_vertices)

        if not view.delta_at_least(e_sub):
            raise PreconditionViolated(f"subtree view delta={view.delta()} < e(T_j)={e_sub}")
        sub = pe.lift(sub_vertices, view)
        extend_tree(sub, root_img, _fuel - 1)
        pe.adopt(sub, sub_vertices)

    images = list(pe.image.values())
    if len(set(images)) != len(images):
        raise PreconditionViolated("tree embedding not injective")
    if z_bad in pe.image.values():
        raise PreconditionViolated("embedding touched the blocked vertex")
    if pe.strict:
        for v in t.children[0]:
            branch = [v] + sorted(subtree_floor_edges(t, v))
            coords = [pe.coord_of[e] for e in branch]
            if len(set(coords)) != len(coords):
                raise PreconditionViolated("strict: branch anchor set repeats a coordinate")
    return pe


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
    strict: bool = False,
) -> PartialEmbedding:
    """Rainbow embedding of t into g; needs delta(g) >= e(t).

    Embeds the lower half doubly distinctly from `start` (host minimum by
    default), picks a blocked vertex, and extends.  Returns the completed
    embedding with its trace and the blocked vertex used.
    """
    e_total = t.n_edges()
    if not g.delta_at_least(e_total):
        raise DegreeTooSmall(f"host delta={g.delta()} < e(T)={e_total}")
    if start is None:
        start = g.default_start()
    # recursion depth is linear in the tree size (one level per height step
    # or per spider leg); deep spines need more interpreter headroom
    needed = 2 * t.n + 200
    if sys.getrecursionlimit() < needed:
        sys.setrecursionlimit(needed)
    rng = SplitMix64(seed) if seed is not None else None
    pe = embed_half(g, t, start, rng=rng, strict=strict)
    if e_total == 0:
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
