import tracemalloc
from itertools import combinations

import pytest

from rainbowcube import (
    ColoredCubeGraph,
    GraphView,
    VirtualCayleyCube,
    candidate_edges,
    cayley_coloring,
    edge_coordinate,
    format_graph,
    parse_graph,
    validate,
)
from rainbowcube.errors import (
    DifferingBitCount,
    EmptyGraph,
    FormatError,
    LimitExceeded,
    VertexNotInGraph,
)
from rainbowcube.gen import greedy_proper, refined_cayley, subgraph_min_degree
from rainbowcube.prng import SplitMix64


def bits(s: str) -> int:
    return int(s, 2)


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
        assert g.n_edges() == 12
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
    def test_cayley_passes(self):
        assert validate(cayley_coloring(3)).ok

    def test_virtual_passes(self):
        assert validate(VirtualCayleyCube(40)).ok

    def test_improper_coloring_reported(self):
        g = ColoredCubeGraph(2, [(0, 1, 0), (0, 2, 0)])
        report = validate(g)
        assert not report.ok
        failure = report.first_failure()
        assert failure.name == "proper-coloring"
        assert "00" in failure.witness

    def test_bad_edge_reported(self):
        g = ColoredCubeGraph(2, [(bits("00"), bits("11"), 0)], unchecked=True)
        report = validate(g)
        assert not report.ok
        assert report.first_failure().name == "edge-coordinate"

    def test_checked_constructor_rejects_bad_edge(self):
        with pytest.raises(ValueError):
            ColoredCubeGraph(2, [(0, 3, 0)])


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

    def test_degree_map(self):
        g = cayley_coloring(2)
        assert {v: g.degree(v) for v in g.vertices} == {0: 2, 1: 2, 2: 2, 3: 2}


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
            assert validate(g).ok
            for u, v, _ in g.edges():
                assert u ^ (1 << edge_coordinate(u, v)) == v


class TestViews:
    def test_restrict_filters(self):
        g = cayley_coloring(3)
        view = g.restrict({0}, {1})
        assert view.degree(0) == 1
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
            assert g.is_proper()
            for k in range(g.delta() + 2):
                assert g.delta_at_least(k) == (g.delta() >= k)

    def test_bound_settles_without_a_scan(self, monkeypatch):
        g = refined_cayley(5, 3, 2)
        view = g.restrict({0, 1}, {4})

        def no_scan(*args):
            raise AssertionError("the bound should have settled this check")

        monkeypatch.setattr(ColoredCubeGraph, "delta_after_bans", no_scan)
        assert view.delta_at_least(g.delta() - 3)

    def test_improper_host_takes_the_exact_path(self):
        # vertex 0 has two color-0 edges, so banning color 0 costs it two
        # edges: the bound 4 - 1 = 3 overstates the view's delta of 2
        g = improper_cayley(4, {(0, 2), (13, 15)})
        assert not g.is_proper()
        view = g.restrict({0})
        assert not view.delta_at_least(3)
        assert view.delta_at_least(2)
        assert view.delta() == 2


def improper_cayley(n, shared):
    """The coordinate coloring of Q_n with the edges in `shared` recolored 0."""
    return ColoredCubeGraph(
        n, [(u, v, 0 if (u, v) in shared else q) for u, v, q in cayley_coloring(n).edges()]
    )


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
                assert candidate_edges(view, x, fc, fx) == expected
                assert list(view.incident(x)) == filtered_incident(g, view, x, (), ())

    def test_virtual_scan_builds_no_incident_tuple(self, monkeypatch):
        g = VirtualCayleyCube(30)

        def no_incident(self, x):
            raise AssertionError("candidate_edges should not build the incident tuple")

        monkeypatch.setattr(VirtualCayleyCube, "incident", no_incident)
        got = candidate_edges(g.restrict({3}, {5}), 7, {0, 40}, {1})
        assert [q for q, _, _ in got] == [q for q in range(30) if q not in {0, 1, 3, 5}]

    def test_unknown_vertex_in_a_virtual_view(self):
        with pytest.raises(VertexNotInGraph):
            candidate_edges(VirtualCayleyCube(3).restrict({0}), 8)


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
        for view, x, fc, fx in self.cases(m):
            expected = filtered_incident(g, view, x, fc, fx)
            for got in (candidate_edges(view, x, fc, fx),
                        candidate_edges(view.base, x, fc | view.banned_colors,
                                        fx | view.banned_coords)):
                n = len(expected)
                assert len(got) == n and bool(got) == bool(expected)
                assert [got[i] for i in range(n)] == expected
                assert [got[i] for i in range(-n, 0)] == expected
                for i in (n, n + 1, -n - 1):
                    with pytest.raises(IndexError):
                        got[i]
                assert list(got) == expected and got[1:] == expected[1:]
                assert got == expected and expected == got and got != expected + [None]

    @pytest.mark.parametrize("m", [9, 40])
    def test_a_seeded_pick_is_the_lists(self, m):
        g = VirtualCayleyCube(m)
        for k, (view, x, fc, fx) in enumerate(self.cases(m)):
            expected = filtered_incident(g, view, x, fc, fx)
            if expected:
                got = candidate_edges(view, x, fc, fx)
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
        assert parse_graph(ok, strict_vertices=True).n_edges() == 1

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
