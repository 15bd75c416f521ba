import tracemalloc
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rainbowcube import (
    ColoredCubeGraph,
    VirtualCayleyCube,
    cayley_coloring,
    format_graph,
    parse_graph,
)
from rainbowcube.errors import (
    DifferingBitCount,
    EmptyGraph,
    FormatError,
    LimitExceeded,
    VertexNotInGraph,
)
from rainbowcube.gen import greedy_proper, refined_cayley, subgraph_min_degree
from rainbowcube.hypercube import (
    GraphView,
    candidate_edges,
    canonical_edge,
    cube_edges,
    edge_coordinate,
    parse_vertex,
    vertex_str,
)
from rainbowcube import hypercube, records
from rainbowcube.prng import SplitMix64


def bits(s: str) -> int:
    return int(s, 2)


def brute_force_proper(edges) -> bool:
    """No two of the (u, v, color) edges that share an endpoint share a
    color, every pair compared."""
    return all(
        c1 != c2
        for (u1, v1, c1), (u2, v2, c2) in combinations(edges, 2)
        if {u1, v1} & {u2, v2}
    )


class TestEdgeCoordinate:
    def test_low_bit(self):
        assert edge_coordinate(bits("010"), bits("011")) == 0

    def test_high_bit(self):
        assert edge_coordinate(bits("000"), bits("100")) == 2

    def test_two_bits_differ(self):
        with pytest.raises(DifferingBitCount):
            edge_coordinate(bits("010"), bits("001"))

    def test_equal_vertices(self):
        with pytest.raises(DifferingBitCount):
            edge_coordinate(5, 5)


class TestCayleyColoring:
    def test_single_dimension(self):
        g = cayley_coloring(1)
        assert g.n_vertices() == 2
        assert list(g.edges()) == [(0, 1, 0)]

    def test_q3_counts(self):
        g = cayley_coloring(3)
        assert g.n_vertices() == 8
        assert len(list(g.edges())) == 12
        by_color = {}
        for u, v, c in g.edges():
            by_color.setdefault(c, []).append((u, v))
        assert sorted(by_color) == [0, 1, 2]
        for c, cls in by_color.items():
            assert len(cls) == 4
            touched = [x for e in cls for x in e]
            assert len(set(touched)) == len(touched)  # perfect matching

    def test_color_equals_coordinate(self):
        g = cayley_coloring(4)
        for u, v, c in g.edges():
            assert c == edge_coordinate(u, v)

    def test_no_rainbow_4_cycle_in_q3(self):
        # brute force over all 4-vertex cycles
        g = cayley_coloring(3)
        verts = sorted(g.vertices)
        for quad in combinations(verts, 4):
            for a, b, c, d in [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)]:
                ring = [quad[a], quad[b], quad[c], quad[d]]
                pairs = list(zip(ring, ring[1:] + ring[:1]))
                if not all(g.has_edge(u, v) for u, v in pairs):
                    continue
                colors = [g.edge_color(u, v) for u, v in pairs]
                assert len(set(colors)) < 4

    def test_materialization_guard(self):
        with pytest.raises(LimitExceeded):
            cayley_coloring(17)


class TestValidate:
    """The constructor validates every host invariant, properness included."""

    def test_checked_constructor_rejects_bad_edge(self):
        with pytest.raises(ValueError):
            ColoredCubeGraph(2, [(0, 3, 0)])

    def test_improper_coloring_refused(self):
        with pytest.raises(ValueError, match="^vertex 00: edges to 01 and 10 share color 0$"):
            ColoredCubeGraph(2, [(0, 1, 0), (0, 2, 0)])

    def test_first_clash_named(self):
        # clashes at 0010 and at 0001, where color 7 takes coordinates 1 and
        # 3 and color 9 coordinates 0 and 2: the lower vertex is named, with
        # the clash its coordinate order reaches first
        recolor = {(2, 3): 5, (2, 6): 5, (1, 3): 7, (1, 9): 7, (0, 1): 9, (1, 5): 9}
        edges = [(u, v, recolor.get((u, v), 10 + i)) for i, (u, v, _) in enumerate(cube_edges(4))]
        with pytest.raises(ValueError, match="^vertex 0001: edges to 0000 and 0101 share color 9$"):
            ColoredCubeGraph(4, edges)

    @given(st.data())
    def test_accepts_exactly_the_proper_colorings(self, data):
        # every edge of Q_2 or Q_3 absent (-1) or colored 0..3
        n = data.draw(st.sampled_from([2, 3]))
        cube = list(cube_edges(n))
        colors = data.draw(st.lists(st.integers(-1, 3), min_size=len(cube), max_size=len(cube)))
        edges = [(u, v, c) for (u, v, _), c in zip(cube, colors) if c >= 0]
        if brute_force_proper(edges):
            assert list(ColoredCubeGraph(n, edges).edges()) == edges
        else:
            with pytest.raises(ValueError, match=r"^vertex [01]+: edges to [01]+ and [01]+ share color \d$"):
                ColoredCubeGraph(n, edges)


class TestMinDegree:
    def test_cayley_regular(self):
        assert cayley_coloring(4).delta() == 4

    def test_missing_edge(self):
        g3 = cayley_coloring(3)
        edges = [(u, v, c) for u, v, c in g3.edges()][1:]
        g = ColoredCubeGraph(3, edges, vertices=g3.vertices)
        assert g.delta() == 2

    def test_isolated_vertex(self):
        g = ColoredCubeGraph(3, [], vertices=[0])
        assert g.delta() == 0

    def test_empty(self):
        with pytest.raises(EmptyGraph):
            ColoredCubeGraph(3).delta()

    def test_an_empty_host_has_no_start_and_no_view_delta(self):
        g = ColoredCubeGraph(3)
        with pytest.raises(EmptyGraph, match="^graph has no vertices$"):
            g.default_start()
        with pytest.raises(EmptyGraph, match="^graph has no vertices$"):
            g.restrict([0]).delta()

    def test_degree_map(self):
        g = cayley_coloring(2)
        assert {v: g.degree(v) for v in g.vertices} == {0: 2, 1: 2, 2: 2, 3: 2}


class DictHost:
    """The reference model of an explicit host: a dict keyed by edge, every
    query answered from its definition."""

    def __init__(self, dimension, edges, vertices=()):
        self.dimension = dimension
        self.color = {canonical_edge(u, v): c for u, v, c in edges}
        self.vertices = frozenset(vertices).union(*self.color)

    def incident(self, x):
        if x not in self.vertices:
            raise VertexNotInGraph(x)
        return tuple(
            (q, x ^ (1 << q), self.color[canonical_edge(x, x ^ (1 << q))])
            for q in range(self.dimension)
            if canonical_edge(x, x ^ (1 << q)) in self.color
        )

    def degrees(self, colors=(), coords=()):
        return [
            sum(1 for q, _, c in self.incident(x) if c not in colors and q not in coords)
            for x in self.vertices
        ]


def model_hosts():
    """(name, dimension, edges, declared vertices) on Q_1 to Q_6: full
    refined colorings, random subgraphs of them, greedy_proper's first-fit
    colorings, and subgraphs with isolated declared vertices; each edge
    list in a seeded shuffled order, some edges reversed."""
    for n in range(1, 7):
        for seed in range(3):
            rng = SplitMix64(100 * n + seed)
            splits = 1 + rng.randrange(3)
            full = [(u, v, q * splits + rng.randrange(splits)) for u, v, q in cube_edges(n)]
            part = [e for e in full if rng.randrange(4)]
            sparse = [e for e in full if not rng.randrange(3)]
            isolated = {rng.randrange(1 << n) for _ in range(3)}
            for name, edges, declared in [
                ("full", full, ()),
                ("subgraph", part, ()),
                ("greedy", list(greedy_proper(n, seed).edges()), ()),
                ("isolated", sparse, isolated),
            ]:
                edges = [(v, u, c) if rng.randrange(2) else (u, v, c) for u, v, c in edges]
                rng.shuffle(edges)
                yield f"{name}-Q{n}-{seed}", n, edges, declared


MODEL_HOSTS = list(model_hosts())


class TestFlatStoreModel:
    """The flat color store answers every query as the dict reference does."""

    @pytest.mark.parametrize("name,n,edges,declared", MODEL_HOSTS, ids=[h[0] for h in MODEL_HOSTS])
    def test_every_query_matches_the_reference(self, name, n, edges, declared):
        g = ColoredCubeGraph(n, iter(edges), declared)
        ref = DictHost(n, edges, declared)
        top = 1 << n
        assert g.vertices == ref.vertices
        assert g.n_vertices() == len(ref.vertices)
        assert list(g.edges()) == [(u, v, c) for (u, v), c in sorted(ref.color.items())]
        probes = range(-2, top + 2)
        for u in probes:
            assert g.has_vertex(u) == (u in ref.vertices)
            for v in [*probes, u | top, u ^ top, -u - 1]:
                e = canonical_edge(u, v)
                assert g.has_edge(u, v) == (e in ref.color), (u, v)
                if e in ref.color:
                    assert g.edge_color(u, v) == ref.color[e]
                else:
                    with pytest.raises(KeyError):
                        g.edge_color(u, v)
            if u in ref.vertices:
                assert g.incident(u) == ref.incident(u)
                assert g.degree(u) == len(ref.incident(u))
            else:
                for query in (g.incident, g.degree, lambda x: g.admissible(x, (), (), ())):
                    with pytest.raises(VertexNotInGraph):
                        query(u)
        if not ref.vertices:
            with pytest.raises(EmptyGraph):
                g.delta()
            return
        assert g.delta() == min(ref.degrees())
        assert g.default_start() == min(ref.vertices)
        rng = SplitMix64(len(edges))
        for _ in range(10):
            colors, coords = (frozenset(b) for b in random_bans(rng, 2 * n + 2))
            assert g.delta_after_bans(colors, coords) == min(ref.degrees(colors, coords))
            x = sorted(ref.vertices)[rng.randrange(len(ref.vertices))]
            assert g.admissible(x, (colors,), (coords,), ()) == [
                (q, y, c) for q, y, c in ref.incident(x) if c not in colors and q not in coords
            ]

    def test_no_edge_leaves_the_cube(self):
        # x | 2^n differs from x in one bit, coordinate n: slot x*n + n is
        # the first slot of the next vertex's row, never x's own
        g = cayley_coloring(3)
        for x in range(8):
            assert not g.has_edge(x, x | 8)
            assert not g.has_edge(x | 8, x)
            with pytest.raises(KeyError):
                g.edge_color(x, x | 8)

    def test_negative_and_out_of_range_endpoints(self):
        g = cayley_coloring(3)
        # -1 and -2 differ in bit 0 alone, like 0 and 1
        for u, v in [(-1, -2), (-2, -1), (-1, 0), (0, -1), (7, 15), (8, 9), (-8, 0)]:
            assert not g.has_edge(u, v)
            with pytest.raises(KeyError):
                g.edge_color(u, v)
        for u, v in [(-1, 0), (7, 8), (8, 9)]:
            with pytest.raises(ValueError, match="endpoint out of range"):
                ColoredCubeGraph(3, [(u, v, 0)])

    def test_edge_color_on_a_non_edge(self):
        g = ColoredCubeGraph(3, [(0, 1, 5)], vertices=[2])
        with pytest.raises(KeyError):
            g.edge_color(0, 2)  # absent, both ends vertices
        with pytest.raises(KeyError):
            g.edge_color(0, 3)  # two bits apart
        with pytest.raises(KeyError):
            g.edge_color(1, 1)
        assert g.edge_color(1, 0) == 5

    def test_duplicate_and_negative_messages(self):
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            ColoredCubeGraph(2, [(0, 1, 0), (1, 0, 1)])
        # a repeat is a duplicate before its color is read
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            ColoredCubeGraph(2, [(0, 1, 0), (1, 0, -1)])
        with pytest.raises(ValueError, match=r"^edge \(0, 1\): negative color$"):
            ColoredCubeGraph(2, [(1, 0, -1)])

    def test_check_order(self):
        # each edge's own checks as it is read, then the first repeat, then
        # the vertices, read after the edges, then properness
        clash, repeat, bad = (0, 2, 0), (1, 0, 1), (0, 3, 0)
        for edges, vertices, message in [
            ([(0, 1, 0), repeat, bad], [9], r"^edge \(0, 3\): endpoints differ in != 1 bit$"),
            ([(0, 1, 0), repeat, clash, (2, 0, 5)], [9], r"^duplicate edge \(0, 1\)$"),
            ([(0, 1, 0), clash], [9], r"^vertex 9 outside \[0, 2\^2\)$"),
            ([(0, 1, 0), clash], [3], r"^vertex 00: edges to 01 and 10 share color 0$"),
        ]:
            with pytest.raises(ValueError, match=message):
                ColoredCubeGraph(2, iter(edges), iter(vertices))

    def test_vertices_read_after_the_edges(self):
        declared = []

        def edges():
            declared.append(3)
            yield 0, 1, 0

        assert ColoredCubeGraph(2, edges(), declared).vertices == {0, 1, 3}

    def test_isolated_declared_vertices(self):
        g = ColoredCubeGraph(3, [(0, 1, 0)], vertices=[0, 6])
        assert g.vertices == {0, 1, 6}
        assert (g.n_vertices(), len(list(g.edges())), g.delta()) == (3, 1, 0)
        assert g.incident(6) == ()
        assert g.delta_after_bans(frozenset(), frozenset()) == 0

    def test_dimension_guard(self):
        with pytest.raises(LimitExceeded):
            ColoredCubeGraph(17, [(0, 1, 0)])
        with pytest.raises(FormatError, match="dimension must be <= 16"):
            parse_graph("cube 17\nedge 00000000000000000 00000000000000001 0\n")

    @pytest.mark.parametrize("host", [ColoredCubeGraph, VirtualCayleyCube])
    def test_dimension_zero_is_refused(self, host):
        with pytest.raises(ValueError, match="^dimension must be >= 1, got 0$"):
            host(0)


def test_vertex_text_check_decides_as_the_set_test():
    for text in ["01", "10", "0a", "a0", "0 ", " 0", "012", "0b", "0_", "\u0661\u0660", "\uff10\uff11", "1\n"]:
        by_set = len(text) == 2 and not set(text) - {"0", "1"}
        try:
            parse_vertex(text, 2)
            accepted = True
        except FormatError:
            accepted = False
        assert accepted == by_set, text


class TestCandidateEdges:
    def test_no_bans(self):
        g = cayley_coloring(3)
        assert len(candidate_edges(g, 0)) == 3

    def test_color_bans(self):
        g = cayley_coloring(3)
        out = candidate_edges(g, 0, {0, 1}, ())
        assert len(out) == 1
        assert out[0][0] == 2  # coordinate 2

    def test_everything_banned(self):
        g = cayley_coloring(3)
        assert candidate_edges(g, 0, {0}, {1, 2}) == []

    def test_unknown_vertex(self):
        with pytest.raises(VertexNotInGraph):
            candidate_edges(cayley_coloring(2), 9)

    def test_cayley_count_formula(self):
        # in the coordinate coloring, bans remove |union of named classes| edges
        g = cayley_coloring(4)
        rng = SplitMix64(7)
        for _ in range(100):
            x = rng.randrange(16)
            fc = {rng.randrange(6) for _ in range(rng.randrange(4))}
            fx = {rng.randrange(6) for _ in range(rng.randrange(4))}
            named = {c for c in fc | fx if c < 4}
            assert len(candidate_edges(g, x, fc, fx)) == 4 - len(named)

    def test_counting_lower_bound(self):
        # with r incident edges having distinct colors in fc and distinct
        # coordinates in fx, at least deg(x) - |fc| - |fx| + r survive
        for seed in range(40):
            rng = SplitMix64(seed)
            g = subgraph_min_degree(4, 1 + rng.randrange(4), rng.next_u64())
            x = rng.randrange(16)
            incident = g.incident(x)
            if not incident:
                continue
            r = rng.randrange(len(incident) + 1)
            witnesses = list(incident)
            rng.shuffle(witnesses)
            witnesses = witnesses[:r]
            fc = {c for _, _, c in witnesses}
            fx = {q for q, _, _ in witnesses}
            for _ in range(rng.randrange(3)):
                fc.add(rng.randrange(8))
                fx.add(rng.randrange(8))
            got = len(candidate_edges(g, x, fc, fx))
            assert got >= g.degree(x) - len(fc) - len(fx) + r


class TestEdgeFlipInvariant:
    def test_flipping_the_coordinate_crosses_the_edge(self):
        for seed in range(5):
            g = subgraph_min_degree(4, 2, seed)
            assert brute_force_proper(list(g.edges()))
            for u, v, _ in g.edges():
                assert u ^ (1 << edge_coordinate(u, v)) == v


class TestViews:
    def test_restrict_filters(self):
        g = cayley_coloring(3)
        view = g.restrict({0}, {1})
        assert len(view.incident(0)) == 1
        assert view.delta() == 1
        assert not view.has_edge(0, 1)
        assert view.has_edge(0, 4)

    def test_restrict_compose(self):
        g = cayley_coloring(3)
        view = g.restrict({0}).restrict((), {1})
        assert view.banned_colors == frozenset({0})
        assert view.banned_coords == frozenset({1})
        assert view.base is g

    def test_empty_restrict_is_identity(self):
        g = cayley_coloring(3)
        assert g.restrict() is g

    def test_virtual_view_delta(self):
        g = VirtualCayleyCube(50)
        assert g.delta() == 50
        view = g.restrict({1, 2, 99}, {2, 3})
        assert view.delta() == 50 - 3  # classes 1, 2, 3; 99 is out of range


def random_bans(rng, width, most=4):
    return (
        {rng.randrange(width) for _ in range(rng.randrange(most + 1))},
        {rng.randrange(width) for _ in range(rng.randrange(most + 1))},
    )


def random_views(g, seed, count=12):
    """Views of g, and views of those views, with random (some out-of-range) bans."""
    rng = SplitMix64(seed)
    width = g.dimension + 3
    for _ in range(count):
        view = g.restrict(*random_bans(rng, width))
        if view is not g:
            yield view
            yield view.restrict(*random_bans(rng, width, 2))


def host_id(g):
    return f"{type(g).__name__}-{g.dimension}"


PROPER_HOSTS = [
    cayley_coloring(4),
    refined_cayley(5, 3, 2),
    greedy_proper(5, 8),
    subgraph_min_degree(5, 3, 21),
    VirtualCayleyCube(6),
]


class TestDeltaAtLeast:
    @pytest.mark.parametrize("g", PROPER_HOSTS, ids=host_id)
    def test_agrees_with_the_exact_delta(self, g):
        for seed in range(6):
            for view in random_views(g, seed):
                exact = g.delta_after_bans(view.banned_colors, view.banned_coords)
                for k in range(-1, g.delta() + 3):
                    # a fresh view each time, so no cached delta answers
                    fresh = g.restrict(view.banned_colors, view.banned_coords)
                    assert fresh.delta_at_least(k) == (exact >= k)
                assert view.delta() == exact

    def test_hosts_answer_from_their_own_delta(self):
        for g in PROPER_HOSTS:
            for k in range(g.delta() + 2):
                assert g.delta_at_least(k) == (g.delta() >= k)

    def test_bound_settles_without_a_scan(self, monkeypatch):
        g = refined_cayley(5, 3, 2)
        view = g.restrict({0, 1}, {4})

        def no_scan(*args):
            raise AssertionError("the bound should have settled this check")

        monkeypatch.setattr(ColoredCubeGraph, "delta_after_bans", no_scan)
        assert view.delta_at_least(g.delta() - 3)


@pytest.mark.parametrize("g", PROPER_HOSTS, ids=host_id)
def test_a_host_is_its_own_view_with_nothing_banned(g):
    assert g.base is g and g.banned_colors == g.banned_coords == frozenset()
    assert g.restrict() is g and g.restrict((), ()) is g
    bare = GraphView(g, frozenset(), frozenset())
    for k in range(-1, g.delta() + 3):
        assert g.delta_at_least(k) == bare.delta_at_least(k)
    rng = SplitMix64(g.dimension)
    width = g.dimension + 3
    xs = [x for x in range(1 << g.dimension) if g.has_vertex(x)]
    for _ in range(12):
        bc, bx = (frozenset(b) for b in random_bans(rng, width))
        if bc or bx:
            view, direct = g.restrict(bc, bx), GraphView(g, bc, bx)
            assert view.base is g and (view.banned_colors, view.banned_coords) == (bc, bx)
            assert view.delta() == direct.delta()
            for k in range(-1, g.delta() + 3):
                assert view.delta_at_least(k) == direct.delta_at_least(k)
        else:
            view = direct = bare
        for x in xs:
            assert view.incident(x) == direct.incident(x)
            for q in range(g.dimension):
                assert view.has_edge(x, x ^ (1 << q)) == direct.has_edge(x, x ^ (1 << q))
        x = xs[rng.randrange(len(xs))]
        fc, fx = random_bans(rng, width, g.dimension // 2)
        mapped = sorted(random_bans(rng, width, g.dimension // 2)[0])
        assert list(candidate_edges(g, x, fc, fx)) == list(candidate_edges(bare, x, fc, fx))
        assert (list(candidate_edges(g, x, fc, fx, mapped))
                == list(candidate_edges(bare, x, fc, fx, mapped)))


def filtered_incident(g, view, x, fc, fx):
    """candidate_edges by its definition: the host's incident records at x,
    filtered by the view's bans, then by the request's forbidden sets."""
    if isinstance(g, VirtualCayleyCube):
        records = [(q, x ^ (1 << q), q) for q in range(g.dimension)]
    else:
        records = list(g.incident(x))
    live = [(q, y, c) for q, y, c in records
            if c not in view.banned_colors and q not in view.banned_coords]
    return [(q, y, c) for q, y, c in live if c not in fc and q not in fx]


class TestAdmissibleScan:
    @pytest.mark.parametrize("g", [VirtualCayleyCube(9), VirtualCayleyCube(40),
                                   refined_cayley(5, 3, 2)], ids=host_id)
    def test_candidate_edges_on_views_match_the_filter(self, g):
        rng = SplitMix64(g.dimension)
        for view in random_views(g, g.dimension, 20):
            for _ in range(5):
                x = rng.randrange(1 << min(g.dimension, 20))
                fc, fx = random_bans(rng, g.dimension + 3, g.dimension // 2)
                expected = filtered_incident(g, view, x, fc, fx)
                assert list(candidate_edges(view, x, fc, fx)) == expected
                assert list(view.incident(x)) == filtered_incident(g, view, x, (), ())
                # mapped colors are banned on top of every other ban
                mapped, _ = random_bans(rng, g.dimension + 3, g.dimension // 2)
                assert (list(candidate_edges(view, x, fc, fx, sorted(mapped)))
                        == filtered_incident(g, view, x, fc | mapped, fx))

    def test_virtual_scan_builds_no_incident_tuple(self, monkeypatch):
        g = VirtualCayleyCube(30)

        def no_incident(self, x):
            raise AssertionError("candidate_edges should not build the incident tuple")

        monkeypatch.setattr(VirtualCayleyCube, "incident", no_incident)
        got = candidate_edges(g.restrict({3}, {5}), 7, {0, 40}, {1})
        assert [q for q, _, _ in got] == [q for q in range(30) if q not in {0, 1, 3, 5}]

    def test_unknown_vertex_in_a_virtual_view(self):
        # the engine's route passes the mapped colors; a caller's may not
        g = VirtualCayleyCube(3)
        for host in (g, g.restrict({0})):
            for mapped in ((), [1]):
                with pytest.raises(VertexNotInGraph):
                    candidate_edges(host, 8, (), (), mapped)


class TestLazyCandidates:
    """On the implicit cube candidate_edges is a lazy sequence that stands
    for the list of its records."""

    @staticmethod
    def cases(m):
        """(view, x, fc, fx): the cube, its views and views of views, with
        random bans below 0, inside [0, m) and past m."""
        g = VirtualCayleyCube(m)
        rng = SplitMix64(m)
        views = [GraphView(g, frozenset(), frozenset()), *random_views(g, m, 15)]
        for view in views:
            for _ in range(4):
                fc, fx = random_bans(rng, m + 3, m // 2 + 1)
                if rng.randrange(3) == 0:
                    fc.add(-1 - rng.randrange(2))
                yield view, rng.randrange(1 << min(m, 20)), fc, fx

    @pytest.mark.parametrize("m", [1, 2, 9, 40])
    def test_every_operation_agrees_with_the_filter(self, m):
        g = VirtualCayleyCube(m)
        rng = SplitMix64(m + 1)
        for view, x, fc, fx in self.cases(m):
            expected = filtered_incident(g, view, x, fc, fx)
            # the third and fourth read mapped colors from a sorted list, and
            # the other bans by membership alone: colors that x_col and the
            # view ban, as in the engine, and colors some of which nothing
            # else bans, whose records drop out
            mapped, _ = random_bans(rng, m + 3, m // 2 + 1)
            for got, want in (
                (candidate_edges(view, x, fc, fx), expected),
                (candidate_edges(view.base, x, fc | view.banned_colors, fx | view.banned_coords), expected),
                (candidate_edges(view, x, fc, fx, sorted(fc | view.banned_colors)), expected),
                (candidate_edges(view, x, fc, fx, sorted(mapped)),
                 filtered_incident(g, view, x, fc | mapped, fx)),
            ):
                n = len(want)
                assert len(got) == n and bool(got) == bool(want)
                assert [got[i] for i in range(n)] == want
                assert [got[i] for i in range(-n, 0)] == want
                for i in (n, n + 1, -n - 1):
                    with pytest.raises(IndexError):
                        got[i]
                assert list(got) == want

    @pytest.mark.parametrize("m", [9, 40])
    def test_a_seeded_pick_is_the_lists(self, m):
        g = VirtualCayleyCube(m)
        for k, (view, x, fc, fx) in enumerate(self.cases(m)):
            expected = filtered_incident(g, view, x, fc, fx)
            if expected:
                for got in (candidate_edges(view, x, fc, fx),
                            candidate_edges(view, x, fc, fx, sorted(fc | view.banned_colors))):
                    lazy_rng, list_rng = SplitMix64(k), SplitMix64(k)
                    assert got[lazy_rng.randrange(len(got))] == expected[list_rng.randrange(len(expected))]

    def test_a_wide_cube_builds_no_candidate_list(self):
        tracemalloc.start()
        try:
            first = candidate_edges(VirtualCayleyCube(10**6), 0, {0}, {1})[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == (2, 4, 2)
        assert peak < 1 << 20


class TestVirtualCayley:
    def test_counts(self):
        g = VirtualCayleyCube(30)
        assert g.n_vertices() == 1 << 30
        assert g.degree(12345) == 30

    def test_degree_outside_the_cube(self):
        with pytest.raises(VertexNotInGraph, match=f"^vertex {1 << 30} not in graph$"):
            VirtualCayleyCube(30).degree(1 << 30)

    def test_incident_matches_materialized(self):
        big, small = VirtualCayleyCube(3), cayley_coloring(3)
        for x in range(8):
            assert big.incident(x) == small.incident(x)


class TestGraphFormat:
    def test_round_trip(self):
        g = subgraph_min_degree(3, 2, 5)
        again = parse_graph(format_graph(g))
        assert again.dimension == g.dimension
        assert list(again.edges()) == list(g.edges())
        assert again.vertices == g.vertices

    def test_isolated_vertex_round_trip(self):
        g = ColoredCubeGraph(2, [(0, 1, 7)], vertices=[3])
        again = parse_graph(format_graph(g))
        assert again.vertices == {0, 1, 3}

    def test_comments_and_blanks(self):
        g = parse_graph("# a host\ncube 2\n\nedge 00 01 4  # first\n")
        assert list(g.edges()) == [(0, 1, 4)]

    def test_vertices_implied_by_edges(self):
        g = parse_graph("cube 2\nedge 00 01 0\n")
        assert g.vertices == {0, 1}

    def test_strict_vertices(self):
        text = "cube 2\nvertex 00\nedge 00 01 0\n"
        with pytest.raises(FormatError):
            parse_graph(text, strict_vertices=True)
        ok = "cube 2\nvertex 00\nvertex 01\nedge 00 01 0\n"
        assert list(parse_graph(ok, strict_vertices=True).edges()) == [(0, 1, 0)]

    def test_vertex_line_after_the_edges_counts(self):
        g = parse_graph("cube 2\nedge 00 01 0\nvertex 11\n")
        assert g.vertices == {0, 1, 3}
        assert g.delta() == 0

    def test_rejects_malformed(self):
        for text in [
            "edge 00 01 0\n",          # no header
            "cube 0\n",                # bad dimension
            "cube 2\nedge 00 11 0\n",  # two bits differ
            "cube 2\nedge 00 01 -1\n", # negative color
            "cube 2\nedge 0 1 0\n",    # wrong width
            "cube 2\nbogus\n",
        ]:
            with pytest.raises(FormatError):
                parse_graph(text)


def two_phase_parse(text, strict_vertices=False):
    """The reference host parser: every line of ``text.splitlines()`` read
    and every edge kept in a list, then the constructor, so every numbered
    format error comes before any error the constructor finds."""
    dimension, declared, edges = None, set(), []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, *fields = line.split()
        try:
            if kind not in ("cube", "vertex", "edge"):
                raise FormatError(f"unknown record {kind!r}")
            if kind == "cube":
                if dimension is not None:
                    raise FormatError("duplicate cube header")
                if len(fields) != 1:
                    raise FormatError("cube header needs one field")
                n = int(fields[0])
                if n < 1:
                    raise FormatError("dimension must be >= 1")
                if n > 16:
                    raise FormatError("dimension must be <= 16 for an explicit host")
                dimension = n
                continue
            if dimension is None:
                raise FormatError(f"{kind} before cube header")
            if len(fields) != (1 if kind == "vertex" else 3):
                raise FormatError(f"{kind} needs {'one field' if kind == 'vertex' else 'three fields'}")
            if kind == "vertex":
                declared.add(parse_vertex(fields[0], dimension))
                continue
            u, v = parse_vertex(fields[0], dimension), parse_vertex(fields[1], dimension)
            c = int(fields[2])
            if c < 0:
                raise FormatError("color must be nonnegative")
            edge_coordinate(u, v)
            if strict_vertices and not (u in declared and v in declared):
                raise FormatError("edge uses undeclared vertex under strict-vertices")
            edges.append((u, v, c))
        except (FormatError, ValueError, DifferingBitCount) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    if dimension is None:
        raise FormatError("missing cube header")
    try:
        return ColoredCubeGraph(dimension, edges, declared)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def mutated_host_texts(count):
    """(seed, text): small host texts, some declaring every vertex, each
    with one to four seeded mutations: a line duplicated, dropped or swapped,
    a bad or other vertex, a negative or clashing color, an unknown record,
    comments and blank lines, or a vertex line after the edges."""
    for seed in range(count):
        rng = SplitMix64(seed)
        n = 2 + rng.randrange(3)
        g = [
            lambda: refined_cayley(n, seed, 2),
            lambda: greedy_proper(n, seed),
            lambda: subgraph_min_degree(n, n - 1, seed),
        ][seed % 3]()
        lines = format_graph(g).splitlines()
        if rng.randrange(2):
            lines[1:1] = [f"vertex {vertex_str(v, n)}" for v in sorted(g.vertices) if g.degree(v)]
        for _ in range(1 + rng.randrange(4)):
            k = rng.randrange(len(lines))
            kind = rng.randrange(9)
            fields = lines[k].split()
            # a well-formed vertex or edge line, whose fields a mutation may change
            record = len(fields) == {"vertex": 2, "edge": 4}.get(fields[0] if fields else "")
            if kind == 0:
                lines.insert(rng.randrange(len(lines) + 1), lines[k])
            elif kind == 1 and len(lines) > 1:
                del lines[k]
            elif kind == 2:
                j = rng.randrange(len(lines))
                lines[j], lines[k] = lines[k], lines[j]
            elif kind == 3 and record:
                bad = ["0" * (n + 1), "0" * (n - 1) + "2", "1", vertex_str(rng.randrange(1 << n), n)][rng.randrange(4)]
                fields[1 + rng.randrange(len(fields) - 1 if fields[0] == "edge" else 1)] = bad
                lines[k] = " ".join(fields)
            elif kind in (4, 5) and record and fields[0] == "edge":
                # a negative color, or one that may clash at an endpoint
                fields[3] = str(-1 - rng.randrange(3) if kind == 4 else rng.randrange(2 * n))
                lines[k] = " ".join(fields)
            elif kind == 6:
                lines.insert(k, ["bogus", "edges 1", "cube", "vertex"][rng.randrange(4)])
            elif kind == 7:
                lines.insert(k, ["", "# a comment", "   ", "\t# edge 00 01 0"][rng.randrange(4)])
                lines[-1] += "  # trailing"
            else:
                lines.append(f"vertex {vertex_str(rng.randrange(1 << n), n)}")
        yield seed, "\n".join(lines) + "\n"


MUTATED_HOST_TEXTS = list(mutated_host_texts(200))


def parse_outcome(parse, text, strict):
    try:
        g = parse(text, strict_vertices=strict)
    except Exception as exc:  # the outcome compared is the exception
        return type(exc), str(exc)
    return g.dimension, list(g.edges()), g.vertices


@pytest.mark.parametrize("strict", [False, True])
def test_streamed_parse_matches_the_two_phase_reference(strict):
    outcomes = set()
    for seed, text in MUTATED_HOST_TEXTS:
        expected = parse_outcome(two_phase_parse, text, strict)
        assert parse_outcome(parse_graph, text, strict) == expected, (seed, text)
        outcomes.add(expected[1] if expected[0] is FormatError else "host")
    # the corpus reaches hosts, numbered format errors and constructor errors
    assert "host" in outcomes
    assert any(o.startswith("line ") for o in outcomes if o != "host")
    assert any(o.startswith("duplicate edge") for o in outcomes)
    assert any("share color" in o for o in outcomes)


def test_parse_peak_stays_near_the_host_it_keeps():
    text = format_graph(refined_cayley(12, 5, 2))
    tracemalloc.start()
    try:
        g = parse_graph(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(list(g.edges())) == 12 << 11
    assert peak < 3 * kept, (peak, kept)


# --- edge blocks read in bulk ----------------------------------------------
#
# After the header, a block of plain edge lines is checked as a whole; any
# other block, or one that fails a check, is read line by line.  Each case
# below must give what the line-by-line two-phase reference gives.


@pytest.mark.parametrize("block", [1, 7, 40, 200])
@pytest.mark.parametrize("strict", [False, True])
def test_streamed_parse_matches_the_two_phase_reference_in_small_blocks(monkeypatch, block, strict):
    # mutations then land in blocks that come after blocks read in bulk
    monkeypatch.setattr(records, "_BLOCK", block)
    for seed, text in MUTATED_HOST_TEXTS:
        expected = parse_outcome(two_phase_parse, text, strict)
        assert parse_outcome(parse_graph, text, strict) == expected, (block, seed, text)


def test_a_mutation_at_each_block_end_reads_as_the_two_phase_reference():
    text = format_graph(refined_cayley(10, 3, 2))
    assert len(text) > 2 * records._BLOCK
    lines = text.splitlines()
    # the first and last line of each block, numbered from 0 as in `lines`
    ends, first = [], 0
    for b in records._blocks(text):
        count = len(b.splitlines())
        ends += [first, first + count - 1]
        first += count
    # skip the first block, the header line
    for k in ends[2:]:
        _, u, v, c = lines[k].split()
        # the color of another edge at u, and an edge line in another block
        d = next(d for _, x, w, d in map(str.split, lines[1:]) if u in (x, w) and v not in (x, w))
        other = 1 if k > len(lines) // 2 else len(lines) - 1
        for line in [
            lines[k] + "  # a comment",
            f"edge 0b{u[2:]} {v} {c}",
            f"edge {u} {v} -{c}",
            f"edge {u} {v[:-2]}{int(v[-2]) ^ 1}{v[-1]} {c}",  # not one bit
            f"edge {u} {v} {d}",  # a clash at u
            lines[other],  # a duplicate, this line's edge gone
        ]:
            mutated = "\n".join(lines[:k] + [line] + lines[k + 1 :]) + "\n"
            expected = parse_outcome(two_phase_parse, mutated, False)
            assert parse_outcome(parse_graph, mutated, False) == expected, (k, line)


def near_miss_texts():
    """(name, text, strict): a Q_4 host read in blocks of about ten lines,
    each text changed in one way that a bulk read must refuse, or read as
    the line-by-line reader does."""
    lines = format_graph(refined_cayley(4, 1, 2)).splitlines()
    _, u, v, c = lines[10].split()
    # the color of an edge at u in an earlier block
    d = next(d for _, x, w, d in map(str.split, lines[1:4]) if u in (x, w) and v not in (x, w))

    def text(changes=(), end="\n"):
        changed = dict(enumerate(lines)) | dict(changes)
        return end.join(changed.values()) + end

    yield "tabs", text().replace(" ", "\t"), False
    yield "crlf", text(end="\r\n"), False
    # line breaks other than "\n" (blank lines to splitlines, space to
    # split), and a bad line in a later block, whose number counts them
    for brk in "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
        yield f"break {brk!r}", text({12: lines[12] + 2 * brk, 28: "bogus"}), False
    yield "trailing comment", text({10: lines[10] + " # note"}), False
    for color in (f"+{c}", "1_0", "\u0663", "0x3"):
        yield f"color {color!r}", text({10: f"edge {u} {v} {color}"}), False
    yield "0b vertex", text({10: f"edge 0b{u[2:]} {v} {c}"}), False
    yield "wrong width", text({10: f"edge {u}0 {v} {c}"}), False
    # 3 + 5 fields: the field count aligns, and in the second case the
    # first column holds "edge" at every fourth field too
    yield "3 then 5 fields", text({13: lines[13][:-2], 14: lines[14] + " 7"}), False
    yield "3 then 5 fields, edge aligned", text({13: lines[13][:-2], 14: f"{c} {lines[14]}"}), False
    yield "another record name", text({13: "edges" + lines[13][4:]}), False
    # a block that opens with a blank line (line 10's padding moves it past
    # the block before), then two records on one line: its fields and line
    # starts count as in a clean block
    yield "blank, then 8 fields", text({10: lines[10] + " " * 10, 11: "", 12: f"{lines[11]} {lines[12]}"}), False
    yield "duplicate across blocks", text({25: lines[2]}), False
    yield "clash across blocks", text({10: f"edge {u} {v} {d}"}), False
    # vertex 1111 is touched only by the last edge lines
    declared = [f"vertex {vertex_str(x, 4)}" for x in range(15)]
    strict = text({0: "\n".join(lines[:1] + declared)})
    assert strict.index("1111") > strict.index(lines[20])
    yield "undeclared vertex late", strict, True
    yield "every vertex declared", strict.replace("\n", "\nvertex 1111\n", 1), True


@pytest.mark.parametrize("name, text, strict", list(near_miss_texts()))
def test_near_misses_read_as_the_two_phase_reference(monkeypatch, name, text, strict):
    monkeypatch.setattr(records, "_BLOCK", 180)
    blocks = list(records._blocks(text))
    assert len(blocks) >= 4
    if name.startswith("blank"):
        assert blocks[2].startswith("\nedge")
    assert parse_outcome(parse_graph, text, strict) == parse_outcome(two_phase_parse, text, strict)


def test_a_clean_block_is_read_in_bulk(monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    def iter_records(text, header, handlers, skip=(), bulk=None):
        handlers = {k: (count, counted(k, fn)) for k, (count, fn) in handlers.items()}
        return records.iter_records(text, header, handlers, skip, (bulk[0], counted("bulk", bulk[1])))

    monkeypatch.setattr(hypercube, "iter_records", iter_records)
    text = format_graph(refined_cayley(10, 3, 2))
    blocks = list(records._blocks(text))
    assert blocks[0] == "cube 10\n" and len(blocks) >= 3
    parse_graph(text)
    # the header is read alone, then every edge line in bulk, a call a block
    assert calls == {"cube": 1, "bulk": len(blocks) - 1}
    # so is a last line with no line end
    calls.clear()
    parse_graph(text[:-1])
    assert calls == {"cube": 1, "bulk": len(blocks) - 1}
    # a comment on the last line sends its block line by line
    calls.clear()
    text = text[:-1] + "  # the last line\n"
    last = list(records._blocks(text))[-1]
    parse_graph(text)
    assert calls == {"cube": 1, "bulk": len(blocks) - 2, "edge": len(last.splitlines())}


CLEAN_FIELDS = ["edge", "0", "1", "2", "edge", "1", "0", "3"]


@pytest.mark.parametrize(
    "block, fields",
    [
        ("edge 0 1 2\nedge 1 0 3\n", CLEAN_FIELDS),
        ("edge 0 1 2\nedge 1 0 3", CLEAN_FIELDS),
        ("edge\t0 1  2\nedge 1 0 3 \n", CLEAN_FIELDS),
        # 3 then 5 fields, with "edge" at fields 0 and 4 all the same
        ("edge 0 1\nedge edge 0 1 2\n", None),
        ("edge 0 1 2#\nedge 1 0 3\n", None),
        ("edge 0 1 2\n\nedge 1 0 3\n", None),
        ("edge 0 1 2\n edge 1 0 3\n", None),
        ("edge 0 1 2\r\nedge 1 0 3\r\n", None),
        ("edgex 0 1 2\nedge 1 0 3\n", None),
        ("edge 0 1 2 edge\n1 0 3\n", None),
    ],
)
def test_record_fields_takes_only_lines_of_one_whole_record(block, fields):
    assert records._record_fields(block, "edge", 4) == fields
