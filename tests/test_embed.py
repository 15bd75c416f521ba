import ast
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rainbowcube
import rainbowcube.embed as embed
import rainbowcube.frames as frames
from rainbowcube import (
    ColoredCubeGraph,
    ExtensionRequest,
    PartialEmbedding,
    VirtualCayleyCube,
    build_tree,
    cayley_coloring,
    embed_rainbow_tree,
    extend_one,
    extend_path,
    extend_spider,
    extend_tree,
    format_embedding,
    oracle_find,
    parse_embedding,
    path_tree,
    verify,
    write_bundle,
)
from rainbowcube.embed import certify_path_windows, choose_z_bad, embed_half, replay_trace
from rainbowcube.errors import (
    DegreeTooSmall,
    NoCandidate,
    PreconditionViolated,
    RainbowCubeError,
    VertexNotInGraph,
)
from rainbowcube.gen import greedy_proper, random_spider, random_tree, refined_cayley, subgraph_min_degree
from rainbowcube.hypercube import GraphView, _Host, candidate_edges, cube_edges, unlisted
from rainbowcube.prng import SplitMix64
from rainbowcube.tree import as_spider, classify_children, enumerate_trees, half_floor, lower_halves

from test_golden import comb, corpus, deep_corpus, skew_corpus, stage_corpus
from test_hypercube import host_id, random_views
from test_sweep import exact_delta_calls, slice_runs
from test_tree import CLASSIFY_49


def premapped(g, t, images):
    """PartialEmbedding with the given vertex->cube assignments installed:
    the root's image directly, every other vertex by `premap`."""
    pe = PartialEmbedding(t, g)
    pe.image[0] = images[0]
    for v in sorted(images, key=t.level.__getitem__)[1:]:
        pe.premap(v, images[v])
    assert pe._edges == set(pe.coord_of)
    return pe


def endpoints_must_differ(coords) -> bool:
    """True when a walk using these edge coordinates cannot close: if more
    than m/2 distinct coordinates appear among m edges, some coordinate
    appears exactly once, so the endpoints differ in that bit.  False is
    inconclusive.  The reference that certify_path_windows is tested against."""
    return 2 * len(set(coords)) > len(coords)


class TestEndpointsMustDiffer:
    def test_examples(self):
        assert endpoints_must_differ([1, 2])
        assert not endpoints_must_differ([1, 1])
        assert endpoints_must_differ([0, 1, 2, 1, 0])

    def test_exhaustive_against_walks(self):
        # positive verdicts are sound: the xor of the flips never vanishes
        for m in range(1, 7):
            for coords in itertools.product(range(3), repeat=m):
                if endpoints_must_differ(coords):
                    acc = 0
                    for q in coords:
                        acc ^= 1 << q
                    assert acc != 0


class CountedReads(dict):
    """A dict that counts its `[]` reads."""

    count = 0

    def __getitem__(self, key):
        self.count += 1
        return super().__getitem__(key)


class TestExtendOne:
    def test_picks_first_coordinate(self):
        g = cayley_coloring(3)
        t = build_tree([0])
        pe = premapped(g, t, {0: 0})
        extend_one(pe, ExtensionRequest(0, 1, frozenset(), frozenset()))
        assert pe.image[1] == 1 and pe.coord_of[1] == 0

    def test_witnesses_tighten_the_count(self):
        # X_col = X_coor = {0, 1} at a Q_3 vertex: both matching incident
        # edges are witnesses, leaving 2+2-2 = 2 < 3, and the coordinate-2
        # edge is the unique survivor
        g = cayley_coloring(3)
        t = build_tree([0, 0, 0])
        pe = premapped(g, t, {0: 0, 1: 1, 2: 2})
        req = ExtensionRequest(
            0, 3, frozenset({0, 1}), frozenset({0, 1}), witnesses=(1, 2)
        )
        extend_one(pe, req)
        assert pe.coord_of[3] == 2 and pe.image[3] == 4

    def test_single_witness_is_refused_at_that_tightness(self):
        # with r=1 the count is 2+2-1 = 3, not below delta=3: refused, since
        # an equality instance can have no admissible edge
        g = cayley_coloring(3)
        t = build_tree([0, 0])
        pe = premapped(g, t, {0: 0, 1: 1})
        req = ExtensionRequest(
            0, 2, frozenset({0, 1}), frozenset({0, 1}), witnesses=(1,)
        )
        with pytest.raises(PreconditionViolated):
            extend_one(pe, req)

    def test_equality_without_witness_has_no_candidate(self):
        # the refusal above is not pedantry: at the same tightness a host can
        # genuinely run dry (colors {0,1}, coordinates {0,2} kill all three
        # edges at a Q_3 vertex)
        g = cayley_coloring(3)
        assert g.degree(0) == 3
        survivors = [
            (q, y, c)
            for q, y, c in g.incident(0)
            if c not in {0, 1} and q not in {0, 2}
        ]
        assert survivors == []

    def test_count_guard_without_witness(self):
        g = cayley_coloring(3)
        t = build_tree([0])
        pe = premapped(g, t, {0: 0})
        with pytest.raises(PreconditionViolated):
            extend_one(pe, ExtensionRequest(0, 1, frozenset({0}), frozenset({1, 2})))

    def test_monotonicity(self):
        g = cayley_coloring(6)
        t = build_tree([0, 1, 2])
        pe = premapped(g, t, {0: 0})
        for child in (1, 2, 3):
            n_colors, n_edges = len(pe.used_colors), len(pe.coord_of)
            extend_one(
                pe,
                ExtensionRequest(
                    child - 1,
                    child,
                    frozenset(pe.used_colors),
                    frozenset(pe.used_coords()),
                ),
            )
            assert len(pe.used_colors) == n_colors + 1
            assert len(pe.coord_of) == n_edges + 1

    def test_rejects_bad_witness(self):
        g = cayley_coloring(3)
        t = build_tree([0, 0])
        pe = premapped(g, t, {0: 0, 1: 1})
        with pytest.raises(PreconditionViolated):
            # witness color not inside x_col
            extend_one(
                pe,
                ExtensionRequest(0, 2, frozenset({5}), frozenset({0}), witnesses=(1,)),
            )

    def test_a_hand_built_request_has_every_witness_checked(self):
        # the first step's witness list is a prefix of the second's and, as
        # lists compare, [0] <= [1, 5]; yet witness 1's color 0 lies outside
        # {1, 5}, so the second step is refused as it is when sent alone
        g = cayley_coloring(5)
        pe = premapped(g, build_tree([0, 0, 0, 0]), {0: 0, 1: 1, 2: 2})
        extend_one(pe, ExtensionRequest(0, 3, [0], [0], (1,), "a"))
        with pytest.raises(PreconditionViolated, match="^witness edge 1 lies outside the forbidden sets$"):
            extend_one(pe, ExtensionRequest(0, 4, [1, 5], [1, 5], (1, 2), "b"))

    def test_a_hand_built_list_sent_again_has_every_witness_checked(self):
        # the same list object, its first witness replaced by an unmapped edge
        # after the first step: only stage requests take over a checked list
        pe = premapped(cayley_coloring(5), build_tree([0, 0, 0, 0]), {0: 0, 1: 1, 2: 2})
        wl = [1]
        extend_one(pe, ExtensionRequest(0, 3, frozenset({0, 1}), frozenset({0, 1}), wl))
        wl[0] = 4
        wl.append(2)
        with pytest.raises(PreconditionViolated, match="^witness edge 4 is unmapped$"):
            extend_one(pe, ExtensionRequest(0, 4, frozenset({0, 1}), frozenset({0, 1}), wl))

    @pytest.mark.parametrize("change, message", [
        ("none", None),
        ("x_col", "witness edge 2 lies outside the forbidden sets"),
        ("x_coor", "witness edge 2 lies outside the forbidden sets"),
        ("view", "witness edge 2 is not live in the current host"),
        ("source", "witness edge 2 is not incident to 1"),
    ])
    def test_a_stage_request_takes_over_a_checked_list_only_where_it_still_holds(self, change, message):
        # two stage requests with one list, grown in between as step 4 grows
        # it; the second changes what the first checked against, so its old
        # witness, edge 2 (color and coordinate 1), is checked again
        g = cayley_coloring(5)
        pe = premapped(g, build_tree([0, 0, 0, 0, 1]), {0: 0, 1: 1, 2: 2})
        wl = [2]
        extend_one(pe, embed._Staged(0, 3, frozenset({0, 1}), frozenset({0, 1}), wl, "step4"))
        wl.append(1)
        source, target, x_col, x_coor = 0, 4, frozenset({0, 1, 2}), frozenset({0, 1, 2})
        if change == "x_col":
            x_col = frozenset({0, 2})
        elif change == "x_coor":
            x_coor = frozenset({0, 2})
        elif change == "view":
            pe.graph = g.restrict({1}, ())
        elif change == "source":
            source, target = 1, 5
        req = embed._Staged(source, target, x_col, x_coor, wl, "step4")
        if message is None:
            assert extend_one(pe, req).trace[-1][-1] == 2
        else:
            with pytest.raises(PreconditionViolated, match=f"^{message}$"):
                extend_one(pe, req)

    @pytest.mark.parametrize("g, edges", [(cayley_coloring(12), 12), (VirtualCayleyCube(40), 40),
                                          (VirtualCayleyCube(200), 200)], ids=["explicit", "listed", "in place"])
    def test_each_star_witness_is_checked_once(self, g, edges):
        # step 4 of a star: leaf i has the i - 1 leaves before it as witnesses,
        # and each is read once, when the step after it is checked
        t = build_tree([0] * edges)
        assert type(PartialEmbedding(t, g)._book).__name__ == ("_Listed" if edges <= embed.LISTED else "InPlace")
        pe = embed_half(g, t, 0)
        pe.color_of = reads = CountedReads(pe.color_of)
        extend_tree(pe, choose_z_bad(g, pe)[1])
        assert [label for label, *_ in pe.trace] == ["step4"] * edges
        assert reads.count == edges - 1

    def test_refuses_a_source_with_no_edge_record(self):
        # vertex 3's image is set by hand, so it has no edge record: a step
        # below it is refused, as premap refuses, and mapped edges stay
        # closed under parents
        g = cayley_coloring(4)
        pe = premapped(g, path_tree(4), {0: 0, 1: 1, 2: 3})
        pe.image[3] = 7
        with pytest.raises(PreconditionViolated, match="^step extend: 3->4 not a frontier edge$"):
            extend_one(pe, ExtensionRequest(3, 4, frozenset(), frozenset()))
        assert sorted(pe.coord_of) == [1, 2]

    @pytest.mark.parametrize("target", [-1, -3, 0, 4, 7])
    def test_refuses_a_target_outside_the_tree(self, target):
        # -1 used to index the parent tuple from its end and map a vertex
        # that is not in the tree; 7 raised a bare IndexError
        pe = premapped(VirtualCayleyCube(4), build_tree([0, 0, 0]), {0: 0})
        message = rf"^step extend: vertex {target} is outside \[1, 4\)$"
        with pytest.raises(PreconditionViolated, match=message):
            extend_one(pe, ExtensionRequest(0, target, frozenset(), frozenset()))
        assert pe.image == {0: 0} and pe.trace == [] and not pe.sorted_colors

    def test_refuses_a_target_that_is_not_a_child_of_the_source(self):
        pe = premapped(VirtualCayleyCube(4), path_tree(2), {0: 0})
        with pytest.raises(PreconditionViolated, match="^step extend: 2 is not a child of 0$"):
            extend_one(pe, ExtensionRequest(0, 2, frozenset(), frozenset()))

    @pytest.mark.parametrize("edges", [10, 200], ids=["listed", "in place"])
    def test_refuses_a_target_outside_the_frame(self, edges):
        # a frame on the subtree at vertex 2 of a path, opened as the engine
        # opens one, as TestPremap::test_refuses_a_vertex_outside_the_frame
        # opens it; the edge above the frame was mapped once, unseen by it
        t, g = path_tree(edges), VirtualCayleyCube(edges)
        _, pos, end, _ = t.preorder()
        pe = PartialEmbedding(t, g)
        pe.image[0] = 0
        sub = pe.lift(pe._book.span(t, 2, pos[2] + 1, end[2]))
        assert type(sub._book).__name__ == ("_Listed" if edges <= embed.LISTED else "InPlace")
        with pytest.raises(PreconditionViolated, match="^step extend: vertex 1 is outside the frame$"):
            extend_one(sub, ExtensionRequest(0, 1, frozenset(), frozenset()))
        assert pe.image == {0: 0} and pe.trace == [] and not pe.sorted_colors
        assert len(sub.used_colors) == len(set(sub.used_colors)) == 0 and sub._edges == set()
        # inside the frame, a hand-built request is a step as before
        pe.premap(1, 0b1)
        pe.premap(2, 0b11)
        sub = pe.lift(pe._book.span(t, 2, pos[2] + 1, end[2]))
        extend_one(sub, ExtensionRequest(2, 3, frozenset(sub.used_colors), frozenset()))
        assert sub._edges == {3} and len(sub.used_colors) == len(set(sub.used_colors)) == 1


class TestEmbedHalf:
    def test_star_maps_only_root(self):
        g = cayley_coloring(4)
        pe = embed_half(g, build_tree([0, 0, 0]), 0)
        assert pe.image == {0: 0}
        assert not pe.coord_of

    def test_path_prefix(self):
        g = cayley_coloring(4)
        pe = embed_half(g, path_tree(4), 0)
        assert pe.image == {0: 0, 1: 1, 2: 3}
        assert sorted(pe.coord_of.values()) == [0, 1]

    def test_degree_guard(self):
        with pytest.raises(DegreeTooSmall):
            embed_half(cayley_coloring(2), path_tree(4), 0)

    def test_start_outside_the_host(self):
        with pytest.raises(VertexNotInGraph, match="^start vertex 8 not in host$"):
            embed_half(cayley_coloring(3), path_tree(2), 8)

    def test_doubly_distinct_over_all_small_trees(self):
        g = cayley_coloring(5)
        for t in enumerate_trees(5):
            pe = embed_half(g, t, 0)
            assert set(pe.coord_of) == set(half_floor(t))
            coords = list(pe.coord_of.values())
            colors = [pe.color_of[e] for e in pe.coord_of]
            assert len(set(coords)) == len(coords)
            assert len(set(colors)) == len(colors)


class TestExtendPath:
    def test_already_complete(self):
        g = cayley_coloring(2)
        t = path_tree(2)
        pe = premapped(g, t, {0: 0, 1: 1, 2: 3})
        before = dict(pe.image)
        extend_path(pe)
        assert pe.image == before

    def test_one_vertex(self):
        pe = embed_half(cayley_coloring(2), path_tree(0), 0)
        assert extend_path(pe) is pe
        assert pe.image == {0: 0} and pe.trace == [] and not pe.coord_of

    def test_four_edges(self):
        g = cayley_coloring(4)
        t = path_tree(4)
        pe = premapped(g, t, {0: 0, 1: 1, 2: 3, 3: 7})
        extend_path(pe)
        assert pe.image[4] == 15
        assert len(set(pe.color_of.values())) == 4
        assert len(set(pe.image.values())) == 5

    def test_three_edges_found_and_oracle_agrees(self):
        g = cayley_coloring(3)
        t = path_tree(3)
        pe = premapped(g, t, {0: 0, 1: 1, 2: 3})
        extend_path(pe)
        assert verify(g, t, pe.image).ok
        assert oracle_find(g, t).found

    def test_rejects_wrong_domain(self):
        g = cayley_coloring(4)
        t = path_tree(4)
        pe = premapped(g, t, {0: 0, 1: 1})  # one edge short of floor(n/2)+1
        with pytest.raises(PreconditionViolated):
            extend_path(pe)

    def test_rejects_a_tree_that_is_not_a_path(self):
        pe = premapped(cayley_coloring(3), build_tree([0, 0]), {0: 0})
        with pytest.raises(PreconditionViolated, match="^extend_path needs a path tree with ids in order$"):
            extend_path(pe)

    def test_window_certificate_rejects_repeats(self):
        certify_path_windows([0, 1, 2, 0])  # fine: repeats are far apart
        with pytest.raises(PreconditionViolated):
            certify_path_windows([0, 1, 0, 2])

    def test_window_certificate_refuses_a_path_that_revisits_a_vertex(self):
        # extend_path leaves injectivity to the certificate: a hand-built
        # path round the rainbow 4-cycle of Q_2 comes back to its start
        g = ColoredCubeGraph(2, [(0, 1, 0), (1, 3, 1), (2, 3, 2), (0, 2, 3)])
        t = path_tree(4)
        pe = premapped(g, t, {0: 0, 1: 1, 2: 3, 3: 2, 4: 0})
        assert pe.image[4] == pe.image[0]
        with pytest.raises(PreconditionViolated, match=r"window \[0, 4\]"):
            certify_path_windows([pe.coord_of[w] for w in range(1, 5)])


def certify_path_windows_reference(coords):
    """The certificate checked pair by pair in O(n^3): every window, every walk."""
    n = len(coords)
    for k in range(n + 1):
        for m in range(k + 2, n + 1, 2):
            window = coords[k : (m + k) // 2 + 1]
            if len(set(window)) != len(window):
                raise PreconditionViolated(f"window [{k}, {m}] repeats a coordinate: {window}")
            if not endpoints_must_differ(coords[k:m]):
                raise PreconditionViolated(f"walk [{k}, {m}] could close: {coords[k:m]}")


def certificate_verdict(check, coords):
    try:
        check(coords)
    except PreconditionViolated as exc:
        return str(exc)
    return None


class TestCertifyPathWindows:
    def test_exhaustive_against_reference(self):
        for n in range(10):
            for coords in itertools.product(range(3), repeat=n):
                coords = list(coords)
                assert certificate_verdict(certify_path_windows, coords) == (
                    certificate_verdict(certify_path_windows_reference, coords)
                ), coords

    def test_random_sequences_against_reference(self):
        rng = SplitMix64(5)
        passed = 0
        for _ in range(400):
            n = rng.randrange(50)
            alphabet = 1 + rng.randrange(3 * n + 1)
            coords = [rng.randrange(alphabet) for _ in range(n)]
            if rng.randrange(2):
                coords = tuple(coords)  # the message shows the window as given
            expected = certificate_verdict(certify_path_windows_reference, coords)
            assert certificate_verdict(certify_path_windows, coords) == expected, coords
            passed += expected is None
        assert 0 < passed < 400


class TestExtendSpider:
    def test_single_leg_delegates_to_path(self):
        g = cayley_coloring(4)
        t = random_spider([4])
        pe = embed_half(g, t, 0)
        extend_spider(pe)
        assert verify(g, t, pe.image).ok

    def test_two_even_legs(self):
        g = cayley_coloring(4)
        t = random_spider([2, 2])
        pe = embed_half(g, t, 0)
        extend_spider(pe)
        report = verify(g, t, pe.image)
        assert report.ok
        assert oracle_find(g, t).found

    def test_one_odd_leg_leads(self):
        g = cayley_coloring(7)
        t = random_spider([3, 2, 2])
        pe = embed_half(g, t, 0)
        extend_spider(pe)
        assert verify(g, t, pe.image).ok

    def test_pre_mapped_middle_edge_fixes_leg_one(self):
        # domain = lower half plus one leg's first missing edge
        g = cayley_coloring(6)
        t = random_spider([2, 4])
        pe = embed_half(g, t, 0)
        mid = 5  # second leg (vertices 3..6) has length 4; edge at depth 3
        assert mid not in pe.coord_of
        extend_one(
            pe,
            ExtensionRequest(
                t.parent[mid],
                mid,
                frozenset(pe.used_colors),
                frozenset(pe.used_coords()),
                witnesses=(t.parent[mid],),
            ),
        )
        extend_spider(pe)
        assert verify(g, t, pe.image).ok

    def test_rejects_two_odd_legs(self):
        g = cayley_coloring(6)
        t = random_spider([3, 3])
        pe = embed_half(g, t, 0)
        with pytest.raises(PreconditionViolated):
            extend_spider(pe)

    def test_rejects_non_spider(self):
        # vertex 1 has two children, so the tree branches below the root
        pe = embed_half(cayley_coloring(6), build_tree([0, 1, 1, 2]), 0)
        with pytest.raises(PreconditionViolated, match="^extend_spider needs a spider$"):
            extend_spider(pe)

    def test_rejects_a_domain_short_of_the_lower_half(self):
        pe = premapped(cayley_coloring(4), random_spider([2, 2]), {0: 0})
        with pytest.raises(PreconditionViolated,
                           match="^spider domain must be the lower half plus at most one edge$"):
            extend_spider(pe)

    def test_rejects_an_odd_leg_beside_leg_one(self):
        # the mapped edge makes its leg leg one, and the other leg is odd
        pe = premapped(cayley_coloring(4), build_tree([0, 0]), {0: 0, 1: 1})
        with pytest.raises(PreconditionViolated, match="^legs other than leg one must have even length$"):
            extend_spider(pe)


def spider_lifts(monkeypatch) -> list:
    """Record each frame `lift` opens, as its vertices and its view."""
    lifted, lift = [], PartialEmbedding.lift

    def spy(self, vertices, banned_coords=()):
        sub = lift(self, vertices, banned_coords)
        lifted.append((tuple(vertices), sub.graph))
        return sub

    monkeypatch.setattr(PartialEmbedding, "lift", spy)
    return lifted


def assert_leg_one_bans_its_openers_coordinates(opener, lifted, legs):
    """A spider's last 2k - 1 frames alternate each leg one, in order, and
    the remaining legs; each leg one's view bans exactly the coordinates of
    its opener's view (`opener` for the first, the frame before it for the
    others), none of the later legs' lower halves being added."""
    spider = lifted[1 - 2 * len(legs) :]
    assert [vertices for vertices, _ in spider[::2]] == list(legs)
    assert [vertices for vertices, _ in spider[1::2]] == [
        legs[0][:1] + tuple(v for leg in legs[i:] for v in leg[1:]) for i in range(1, len(legs))]
    openers = [opener] + [view for _, view in spider[1::2]]
    for (_, view), opened_by in zip(spider[::2], openers, strict=True):
        assert set(view.banned_coords) == set(opened_by.banned_coords)


class TestLegOneShield:
    """Step 1 finishes leg one in a view that bans the other legs' colors
    and no coordinate its opener's view does not, on every level of the
    spider: the count at that step keeps the legs apart."""

    def test_extend_spider(self, monkeypatch):
        g, t = refined_cayley(8, 1, 2), random_spider([4, 2, 2])
        pe = embed_half(g, t, 0)
        lifted = spider_lifts(monkeypatch)
        extend_spider(pe)
        assert verify(g, t, pe.image).ok and len(lifted) == 5
        assert_leg_one_bans_its_openers_coordinates(g, lifted, as_spider(t).legs)

    def test_a_spider_below_the_root(self, monkeypatch):
        # vertex 1 carries a spider with legs of length 2, 4 and 2: an even
        # spider child, finished in step 6
        g, t = refined_cayley(9, 1, 2), build_tree([0, 1, 2, 1, 4, 5, 6, 1, 8])
        lifted = spider_lifts(monkeypatch)
        pe = embed_rainbow_tree(g, t)
        assert verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad).ok
        assert lifted[0][0] == tuple(range(1, 10)) and len(lifted) == 6
        assert_leg_one_bans_its_openers_coordinates(lifted[0][1], lifted, as_spider(t, 1).legs)


def legal_blockers(g, pe, extra_coords=2):
    """All blocked-vertex choices the extension contract allows here."""
    root_img = pe.image[0]
    used = set(pe.coord_of.values())
    out = []
    for q in range(g.dimension + extra_coords):
        if q in used:
            continue
        z = root_img ^ (1 << q)
        if not g.has_edge(root_img, z):
            out.append(z)
    return out


class TestExtendTree:
    def test_star_base_case(self):
        g = cayley_coloring(3)
        t = build_tree([0, 0, 0])
        pe = embed_half(g, t, 0)
        extend_tree(pe, 8)  # blocked vertex one dimension up
        report = verify(g, t, pe.image, require_path_distinct=True, z_bad=8)
        assert report.ok
        assert sorted(pe.image.values()) == [0, 1, 2, 4]

    def test_exhaustive_small_trees_all_blockers(self):
        g = cayley_coloring(4)
        for t in enumerate_trees(4):
            if t.n_edges() == 0:
                continue
            for z in legal_blockers(g, embed_half(g, t, 0)):
                pe = embed_half(g, t, 0)
                extend_tree(pe, z)
                report = verify(g, t, pe.image, require_path_distinct=True, z_bad=z)
                assert report.ok, f"{t}: {report.first_failure()}"

    def test_in_range_blockers_on_subgraph_hosts(self):
        for seed in range(10):
            g = subgraph_min_degree(4, 3, seed)
            for t in enumerate_trees(3):
                if t.n_edges() == 0:
                    continue
                blockers = [z for z in legal_blockers(g, embed_half(g, t, 0), 0)]
                for z in blockers:
                    pe = embed_half(g, t, 0)
                    extend_tree(pe, z)
                    assert verify(g, t, pe.image, require_path_distinct=True, z_bad=z).ok

    def test_classification_example_tree_in_wide_host(self):
        t = build_tree(CLASSIFY_49)
        g = VirtualCayleyCube(t.n_edges())
        pe = embed_rainbow_tree(g, t)
        report = verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad)
        assert report.ok

    def test_rejects_live_blocker(self):
        g = cayley_coloring(3)
        t = path_tree(2)
        pe = embed_half(g, t, 0)
        with pytest.raises(PreconditionViolated, match="^blocked vertex is joined to the root image in the host$"):
            extend_tree(pe, 2)  # 000-010 is an edge of the host

    def test_rejects_used_blocker_coordinate(self):
        # Q_5 without the edge 00000-00010: the path's second edge, in the
        # lower half and away from the root, runs along coordinate 1, whose
        # flip at the root is absent from the host
        g = ColoredCubeGraph(5, [e for e in cayley_coloring(5).edges() if e[:2] != (0, 2)])
        pe = embed_half(g, path_tree(4), 0)
        assert pe.image == {0: 0, 1: 1, 2: 3} and not g.has_edge(0, 2)
        with pytest.raises(PreconditionViolated, match="^blocked coordinate already used by the lower half$"):
            extend_tree(pe, 2)

    def test_rejects_a_blocker_that_is_not_a_cube_neighbor(self):
        pe = embed_half(cayley_coloring(3), path_tree(2), 0)
        with pytest.raises(PreconditionViolated,
                           match="^blocked vertex is not a cube neighbor of the root image$"):
            extend_tree(pe, 0b110)

    def test_rejects_a_domain_other_than_the_lower_half(self):
        pe = premapped(cayley_coloring(3), path_tree(2), {0: 0})
        with pytest.raises(PreconditionViolated, match="^extend_tree domain must be exactly the lower half$"):
            extend_tree(pe, 8)

    @pytest.mark.parametrize("entry, args, more", [
        ("extend_tree", (64,), {}),
        ("extend_spider", (), {}),
        ("extend_path", (), {4: 6}),
    ])
    def test_rejects_input_that_is_not_doubly_distinct(self, entry, args, more):
        # Q_6 colored by coordinate, except that the coordinate-0 edges at
        # vertices with bit 1 set take color 6; the path 0-1-3-2 is rainbow,
        # but its edges 1 and 3 both run along coordinate 0
        g = ColoredCubeGraph(6, [(u, v, 6 if q == 0 and u & 2 else q) for u, v, q in cube_edges(6)])
        pe = premapped(g, path_tree(6), {0: 0, 1: 1, 2: 3, 3: 2, **more})
        with pytest.raises(PreconditionViolated, match=f"^{entry} input: mapped edges are not doubly distinct$"):
            getattr(embed, entry)(pe, *args)

    def test_a_single_vertex_on_the_blocked_vertex(self):
        # nothing to map, so the last check is the one that refuses it
        pe = embed_half(cayley_coloring(3), build_tree([]), 5)
        with pytest.raises(PreconditionViolated, match="^embedding touched the blocked vertex$"):
            extend_tree(pe, 5)


@st.composite
def hosts_and_trees(draw):
    """(host, parents): a host family, its dimension and, where the family
    takes one, its minimum degree, each drawn on its own, then a tree of at
    most delta(host) edges as the parent of each vertex below its own index,
    so that Hypothesis shrinks a failure into a smaller host or tree."""
    family = draw(st.sampled_from(["subgraph_min_degree", "refined_cayley", "greedy_proper",
                                   "VirtualCayleyCube"]))
    n = draw(st.integers(4, 6))
    seed = draw(st.integers(0, 2**32))
    if family == "subgraph_min_degree":
        g = subgraph_min_degree(n, draw(st.integers(1, n)), seed)
    elif family == "refined_cayley":
        g = refined_cayley(n, seed, draw(st.integers(1, 3)))
    elif family == "greedy_proper":
        g = greedy_proper(n, seed)
    else:
        g = VirtualCayleyCube(n)
    edges = draw(st.integers(0, g.delta()))
    return g, [draw(st.integers(0, i)) for i in range(edges)]


class TestEmbedRainbowTree:
    def test_three_edge_path_exact(self):
        g = cayley_coloring(3)
        pe = embed_rainbow_tree(g, path_tree(3))
        assert pe.image == {0: 0, 1: 1, 2: 3, 3: 7}
        assert pe.z_bad == 8

    def test_degree_refusal_matches_oracle(self):
        g = cayley_coloring(3)
        t = path_tree(4)
        with pytest.raises(DegreeTooSmall):
            embed_rainbow_tree(g, t)
        result = oracle_find(g, t)
        assert not result.found and result.exhausted

    def test_single_edge_deterministic_first(self):
        g = cayley_coloring(2)
        pe = embed_rainbow_tree(g, build_tree([0]))
        assert pe.image == {0: 0, 1: 1}

    def test_single_vertex(self):
        g = cayley_coloring(2)
        pe = embed_rainbow_tree(g, build_tree([]))
        assert pe.image == {0: 0}

    def test_custom_start(self):
        g = cayley_coloring(3)
        pe = embed_rainbow_tree(g, path_tree(2), start=5)
        assert pe.image[0] == 5

    def test_deterministic_output(self):
        g = subgraph_min_degree(5, 4, 3)
        t = random_tree(4, 8)
        a = format_embedding(embed_rainbow_tree(g, t), include_trace=True)
        b = format_embedding(embed_rainbow_tree(g, t), include_trace=True)
        assert a == b

    def test_seeded_runs_differ_but_verify(self):
        g = cayley_coloring(5)
        t = random_tree(5, 2)
        images = set()
        for seed in range(6):
            pe = embed_rainbow_tree(g, t, seed=seed)
            assert verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad).ok
            images.add(tuple(sorted(pe.image.items())))
        assert len(images) > 1

    def test_into_a_view(self):
        # a host with one color and one coordinate banned is a host of its
        # own: the engine starts at its default start, and verify asks it
        # for its vertices
        for s in range(30):
            base, rng = refined_cayley(7, s, 2), SplitMix64(s)
            view = base.restrict({base.edge_color(0, 1 << rng.randrange(7))}, {rng.randrange(7)})
            delta = view.delta()
            assert type(view) is GraphView and delta >= 5
            for edges in (delta, delta - 1, delta - 2):
                t = random_tree(edges, rng.next_u64())
                for seed in (None, s):
                    pe = embed_rainbow_tree(view, t, seed=seed)
                    assert verify(view, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad).ok

    @given(case=hosts_and_trees())
    @settings(max_examples=60, deadline=None)
    def test_random_hosts_and_trees(self, case, tmp_path_factory):
        g, parents = case
        t = build_tree(parents)
        pe = None
        try:
            pe = embed_rainbow_tree(g, t)
            report = verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad)
            failure = None if report.ok else report.first_failure()
        except Exception as exc:  # any exception is an engine failure, bundled like the rest
            failure = f"{type(exc).__name__}: {exc}"
        if failure is not None:
            bundle = tmp_path_factory.mktemp("counterexample")
            # the implicit cube is written as the explicit host it equals
            host = cayley_coloring(g.dimension) if isinstance(g, VirtualCayleyCube) else g
            write_bundle(str(bundle), host, t, pe)
            raise AssertionError(f"{failure}; bundle written to {bundle}")


def spider_mix_tree(rng, max_edges=12):
    """Random tree biased toward even-spider children, the shape the
    extension's anchor bookkeeping works hardest on."""
    parents = []

    def add_subtree(parent, budget):
        kind = rng.randrange(3)
        if kind == 0:  # even spider child
            legs = [2 * (1 + rng.randrange(2)) for _ in range(1 + rng.randrange(3))]
            top = len(parents) + 1
            parents.append(parent)
            for length in legs:
                prev = top
                for _ in range(length):
                    if len(parents) >= budget:
                        break
                    parents.append(prev)
                    prev = len(parents)
        elif kind == 1:  # bare leaf
            parents.append(parent)
        else:  # small random blob
            base = len(parents)
            parents.append(parent)
            for _ in range(rng.randrange(4)):
                if len(parents) >= budget:
                    break
                parents.append(base + 1 + rng.randrange(len(parents) - base))

    while len(parents) < max_edges:
        add_subtree(0, max_edges)
    return build_tree(parents[:max_edges])


class TestAdversarialShapes:
    def test_spider_heavy_trees_at_tight_degree(self):
        for seed in range(60):
            rng = SplitMix64(seed * 7 + 1)
            t = spider_mix_tree(rng)
            g = VirtualCayleyCube(t.n_edges())  # delta == e(T) exactly
            pe = embed_rainbow_tree(g, t)
            assert verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad).ok

    def test_nested_multi_odd_leg_chains(self):
        # spines of branch points whose children all have deficiency two,
        # forcing the coordinate-pruned recursion at every level
        for depth in (1, 2, 3, 4):
            parents = []
            attach = 0
            for _ in range(depth):
                parents.append(attach)
                spine = len(parents)
                for _ in range(2):
                    parents.append(spine)
                    parents.append(len(parents))
                    parents.append(len(parents))
                attach = spine
            t = build_tree(parents)
            g = VirtualCayleyCube(t.n_edges())
            pe = embed_rainbow_tree(g, t)
            assert verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad).ok

    def test_disconnected_host(self):
        # two parallel copies of Q_3 inside Q_4; the guarantee never needed
        # connectivity
        edges = []
        for u, v, c in cayley_coloring(3).edges():
            edges.append((u, v, c))
            edges.append((u | 8, v | 8, c))
        g = ColoredCubeGraph(4, edges)
        assert g.delta() == 3
        for t in enumerate_trees(3):
            pe = embed_rainbow_tree(g, t)
            assert verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad).ok


# breaks the anchor bookkeeping (every child's anchor set becomes its whole
# subtree), then embeds
BROKEN_ANCHORS = """
import sys
import rainbowcube.embed as embed
from rainbowcube import VirtualCayleyCube, build_tree
from rainbowcube.errors import PreconditionViolated
from rainbowcube.tree import lower_halves
def whole_subtrees(t):
    floor_size, bucket = lower_halves(t)
    return tuple(len(t.subtree_preorder(v)) - 1 if v else size for v, size in enumerate(floor_size)), bucket
embed.lower_halves = whole_subtrees
try:
    embed.embed_rainbow_tree(VirtualCayleyCube(5), build_tree([0, 1, 1]))
except PreconditionViolated as exc:
    print(sys.flags.optimize, exc)
"""


LIFT = PartialEmbedding.lift


def lift_banning_unused_coordinates(self, vertices, banned_coords=()):
    """`lift` that also bans every coordinate no mapped edge uses, so that
    the frame's view keeps too few edges."""
    unused = set(range(self.graph.dimension)) - set(self.coord_of.values())
    return LIFT(self, vertices, unused.union(banned_coords))


def lift_banning_phantom_colors(self, vertices, banned_coords=()):
    """`lift` whose view also bans colors that no edge carries: each lowers
    the view's degree bound, and none its exact degree."""
    sub = LIFT(self, vertices, banned_coords)
    sub.graph = sub.graph.restrict(range(100, 100 + self.graph.dimension))
    return sub


def classify_with(change):
    """classify_children with `change` applied to its answer."""
    return lambda t, root=0: change(classify_children(t, root))


def halves_with(size):
    """lower_halves with the lower-half size f of each vertex v replaced by size(t, v, f)."""
    def faulty(t):
        floor_size, bucket = lower_halves(t)
        return tuple(size(t, v, f) for v, f in enumerate(floor_size)), bucket

    return faulty


class TestStrictChecks:
    """The counting-bound and anchor-set checks run on every frame, and
    raise; each is caught breaking a fault injected upstream of it."""

    def test_the_package_has_no_assert_statement(self):
        # `python -O` strips assert statements, so no check may be one
        modules = sorted(Path(rainbowcube.__file__).parent.glob("*.py"))
        assert len(modules) > 5
        found = [f"{path.name}:{node.lineno}" for path in modules
                 for node in ast.walk(ast.parse(path.read_text(), str(path)))
                 if isinstance(node, ast.Assert)]
        assert found == []

    @pytest.mark.parametrize("optimize", [0, 1])
    def test_broken_anchor_set_is_caught(self, optimize):
        # under -O every assert statement is stripped; these checks must stay
        src = Path(rainbowcube.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, *["-O"] * optimize, "-c", BROKEN_ANCHORS],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith(f"{optimize} anchor set of child 1"), out.stdout

    def test_branch_that_repeats_a_coordinate_is_caught(self, monkeypatch):
        # candidates that ignore the coordinate bans: on a refined host colors
        # are not coordinates, so the tree stays rainbow while the spider
        # child's anchor set repeats a coordinate
        original = embed.candidate_edges
        monkeypatch.setattr(embed, "candidate_edges",
                            lambda g, x, colors, coords, mapped: original(g, x, colors, (), mapped))
        with pytest.raises(PreconditionViolated, match="^branch anchor set repeats a coordinate$"):
            embed_rainbow_tree(refined_cayley(6, 0, 2), build_tree([0, 0, 2, 3, 4, 5]))

    @pytest.mark.parametrize("where, fault, parents, message", [
        pytest.param("classify_children", classify_with(lambda cls: cls._replace(
            spiders=tuple(sc._replace(mid_edge=sc.after_mid_edge) for sc in cls.spiders))),
            [0, 1, 2], "anchor set of spider child 1 is not half its subtree", id="mid-leg-edge-too-deep"),
        pytest.param("lower_halves", halves_with(lambda t, v, f: len(t.subtree_preorder(v)) - 1 if v else f),
                     [0, 1, 1], "anchor set of child 1 exceeds half its subtree", id="whole-subtrees"),
        pytest.param("classify_children", classify_with(lambda cls: cls._replace(leaves=cls.leaves + cls.rest)),
                     [0, 1], "anchor sets exceed half of the edges outside leaves and mid-legs",
                     id="a-child-also-counted-as-a-leaf"),
        pytest.param("lower_halves", halves_with(lambda t, v, f: 0 if v else f),
                     [0, 1, 2, 3], "anchor sets miss part of the lower half", id="no-lower-halves-below-the-root"),
    ])
    def test_broken_anchor_bookkeeping_is_caught(self, where, fault, parents, message, monkeypatch):
        monkeypatch.setattr(embed, where, fault)
        with pytest.raises(PreconditionViolated, match=f"^{message}$"):
            embed_rainbow_tree(VirtualCayleyCube(6), build_tree(parents))

    @pytest.mark.parametrize("run, message", [
        (lambda g: embed_rainbow_tree(g, build_tree([0, 1, 2])), r"delta=1 < e\(S\)=2"),
        (lambda g: extend_spider(embed_half(g, path_tree(4), 0)), "leg-one view delta=3 < leg length 4"),
        (lambda g: embed_rainbow_tree(g, path_tree(2)), r"delta=0 < e\(T\)=1"),
    ], ids=["spider-frame", "leg-one", "tree-frame"])
    def test_an_overbanning_lift_is_caught_by_the_counting_bounds(self, run, message, monkeypatch):
        monkeypatch.setattr(PartialEmbedding, "lift", lift_banning_unused_coordinates)
        with pytest.raises(PreconditionViolated, match=f"^{message}$"):
            run(VirtualCayleyCube(6))

    def test_the_exact_delta_decides_where_the_bound_falls_short(self, monkeypatch):
        monkeypatch.setattr(PartialEmbedding, "lift", lift_banning_phantom_colors)
        calls = exact_delta_calls(monkeypatch)
        g, t = VirtualCayleyCube(3), build_tree([0, 1, 2])
        pe = embed_rainbow_tree(g, t)
        assert verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad).ok
        assert calls
        # by the bound alone, the spider frame's view, of exact degree 2, is
        # refused for its two edges
        def bound_only(view, k):
            return view.base.delta() - len(view.banned_colors) - len(view.banned_coords) >= k

        monkeypatch.setattr(_Host, "delta_at_least", bound_only)
        with pytest.raises(PreconditionViolated, match=r"^delta=2 < e\(S\)=2$"):
            embed_rainbow_tree(g, t)


class TestTraceAndFormat:
    def test_replay_reproduces_embedding(self):
        g = cayley_coloring(4)
        t = random_tree(4, 17)
        pe = embed_rainbow_tree(g, t)
        assert replay_trace(t, pe.trace, pe.image[0]) == pe.image

    def test_replay_refuses_a_trace_that_does_not_chain(self):
        t = random_tree(4, 17)
        pe = embed_rainbow_tree(cayley_coloring(4), t)
        first = pe.trace[0][1]
        with pytest.raises(PreconditionViolated, match=f"^trace entry for edge {first} does not chain$"):
            replay_trace(t, pe.trace, pe.image[0] ^ 1)

    def test_trace_window_fields(self):
        g = cayley_coloring(4)
        pe = embed_rainbow_tree(g, path_tree(4))
        for label, child, src, dst, ncol, ncoor, r in pe.trace:
            assert label in {"half", "path", "spider0", "step1", "step2", "step3",
                             "step4", "step5", "step7-mid"}
            assert (src ^ dst).bit_count() == 1

    def test_embedding_round_trip(self):
        g = cayley_coloring(3)
        t = path_tree(3)
        pe = embed_rainbow_tree(g, t)
        text = format_embedding(pe, include_trace=True)
        image, n_edges, dim = parse_embedding(text)
        assert image == pe.image and n_edges == 3 and dim == 3

    def test_spider_completion_labels(self):
        g = cayley_coloring(6)
        t = random_spider([2, 2, 2])
        pe = embed_rainbow_tree(g, t)
        labels = {entry[0] for entry in pe.trace}
        assert "half" in labels


# embeds a deep tree under a recursion limit far below its height
LOW_RECURSION_LIMIT = """
import sys
sys.setrecursionlimit(400)
from rainbowcube import VirtualCayleyCube, embed_rainbow_tree, path_tree, verify
g, t = VirtualCayleyCube(1500), path_tree(1500)
pe = embed_rainbow_tree(g, t)
print(verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad).ok,
      sys.getrecursionlimit())
"""


class TestDeepTrees:
    # the extension runs its frames on an explicit stack: a tree as high as
    # the host is wide needs no interpreter recursion and changes no limit
    @pytest.mark.parametrize("tree", [comb(1500), path_tree(1500)], ids=["comb", "path"])
    def test_embeds_without_raising_the_recursion_limit(self, tree):
        g = VirtualCayleyCube(1500)
        limit = sys.getrecursionlimit()
        pe = embed_rainbow_tree(g, tree)
        assert sys.getrecursionlimit() == limit
        assert verify(g, tree, pe.image, require_path_distinct=True, z_bad=pe.z_bad).ok

    def test_embeds_under_a_low_recursion_limit(self):
        src = Path(rainbowcube.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", LOW_RECURSION_LIMIT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["True", "400"]


def mapped_path(g, edges, mapped):
    """The path 0-1-..-edges with its first `mapped` edges mapped greedily from vertex 0."""
    t = path_tree(edges)
    pe = PartialEmbedding(t, g)
    pe.image[0] = 0
    for v in range(1, mapped + 1):
        extend_one(pe, ExtensionRequest(v - 1, v, frozenset(pe.used_colors), frozenset()))
    return pe


class TestFrames:
    """`lift` opens a frame on the shared map and `adopt` closes it."""

    def test_frame_shares_the_map_and_keeps_its_own_sets(self):
        g = cayley_coloring(4)
        pe = mapped_path(g, 3, 2)
        sub = pe.lift((1, 2, 3))
        assert sub.root == 1 and sub._edges == {2} and sub.used_coords() == {1}
        # its view bans the color its opener used outside it
        assert (sub.graph.banned_colors, sub.graph.banned_coords) == ({pe.color_of[1]}, set())
        extend_one(sub, ExtensionRequest(2, 3, frozenset(sub.used_colors), sub.used_coords()))
        assert pe.image[3] == sub.image[3] and pe.trace[-1][1] == 3
        assert sub.used_colors == {1, 2} and pe.sorted_colors == [0, 1, 2]
        pe.adopt(sub)
        assert pe._edges == {1, 2, 3}

    def test_frame_state_is_set_by_lift_alone(self):
        g = cayley_coloring(3)
        # the maps too: a caller fills them through premap alone
        for name in ("image", "color_of", "coord_of", "used_colors", "trace",
                     "vertices", "sorted_colors", "is_frame", "_edges", "_coords"):
            with pytest.raises(TypeError):
                PartialEmbedding(path_tree(2), g, **{name: set()})
        pe = mapped_path(g, 2, 1)
        sub = pe.lift((1, 2))
        assert not pe.is_frame and sub.is_frame and sub.lift((1, 2)).is_frame
        with pytest.raises(TypeError):
            pe.lift((1, 2), (), g)  # the view is the opener's, never the caller's

    def test_a_frame_restricts_its_openers_view(self):
        g = cayley_coloring(3)
        pe = mapped_path(g, 2, 2)
        # nothing used outside the frame and no coordinate: the opener's view itself
        assert pe.lift((0, 1, 2)).graph is g
        frame = pe.lift((1, 2), {2})
        assert frame.graph.base is g
        assert (frame.graph.banned_colors, frame.graph.banned_coords) == ({pe.color_of[1]}, {2})
        assert frame.lift((1, 2)).graph is frame.graph
        pe.graph = g.restrict({5}, {7})
        inner = pe.lift((1, 2), {6})
        assert inner.graph.base is g
        assert (inner.graph.banned_colors, inner.graph.banned_coords) == ({5, pe.color_of[1]}, {6, 7})

    def test_premapped_edge_banned_from_the_view(self):
        g = cayley_coloring(3)
        pe = mapped_path(g, 2, 2)
        pe.graph = g.restrict({pe.color_of[1]}, ())
        with pytest.raises(PreconditionViolated, match="pre-mapped edge 1 was banned"):
            pe.lift((0, 1, 2))
        pe.graph = g
        frame = pe.lift((0, 1, 2), {7})
        # a coordinate the frame bans, and one its opener's view bans
        with pytest.raises(PreconditionViolated, match="pre-mapped edge 2 was banned"):
            frame.lift((1, 2), {pe.coord_of[2]})
        frame.graph = frame.graph.restrict((), {pe.coord_of[2]})
        with pytest.raises(PreconditionViolated, match="pre-mapped edge 2 was banned"):
            frame.lift((1, 2))

    def test_color_reused_across_frames(self):
        # a frame's view bans the colors its opener had used when it opened,
        # but record checks every frame's: the frame on 3-4 opens before the
        # frame on 1-2 maps edge 2, then takes the same color by premap
        g = cayley_coloring(3)
        pe = premapped(g, build_tree([0, 1, 0, 3]), {0: 0, 1: 0b001, 3: 0b010})
        left, right = pe.lift((1, 2)), pe.lift((3, 4))
        extend_one(left, ExtensionRequest(1, 2, frozenset(), frozenset()))
        assert left.color_of[2] == 2 and 2 not in right.graph.banned_colors
        with pytest.raises(PreconditionViolated, match="color 2 reused at edge 4"):
            right.premap(4, 0b110)

    def test_a_frame_cannot_remap_a_vertex(self):
        # adopt no longer compares images: the map is shared, and extend_one
        # refuses a target that is already mapped
        g = cayley_coloring(3)
        pe = mapped_path(g, 2, 2)
        sub = pe.lift((1, 2))
        with pytest.raises(PreconditionViolated, match="not a frontier edge"):
            extend_one(sub, ExtensionRequest(1, 2, frozenset(), frozenset()))

    @pytest.mark.parametrize("back", [1, 2], ids=["blocked vertex", "further up"])
    def test_a_repeat_inside_an_inner_frame_is_caught_once(self, back, monkeypatch):
        # inner frames check neither injectivity nor their blocked vertex;
        # the function running the outermost frame finds the repeat
        t = comb(12)
        g = VirtualCayleyCube(12)
        calls = []
        engine = embed.extend_one

        def counting(pe, req):
            calls.append(req.target)
            return engine(pe, req)

        monkeypatch.setattr(embed, "extend_one", counting)
        embed_rainbow_tree(g, t)
        last = len(calls)

        def colliding(pe, req):
            engine(pe, req)
            calls.append(req.target)
            if len(calls) == 2 * last:  # the last step, inside the frame on vertex 6
                up = req.target
                for _ in range(back + 1):
                    up = t.parent[up]
                pe.image[req.target] = pe.image[up]
            return pe

        monkeypatch.setattr(embed, "extend_one", colliding)
        with pytest.raises(PreconditionViolated, match="tree embedding not injective"):
            embed_rainbow_tree(g, t)


def live_as_witness(g, t, leaf, wit, view) -> bool:
    """Whether extend_one takes `wit` for live in an embedding over `view`:
    the engine's embedding of t with `leaf` unmapped again and its graph
    set to `view`, then a step that maps `leaf` backed by `wit` alone."""
    pe = embed_rainbow_tree(g, t)
    for mapped in (pe.image, pe.color_of, pe.coord_of):
        del mapped[leaf]
    pe.graph = view
    v = t.parent[leaf]
    req = ExtensionRequest(v, leaf, frozenset({pe.color_of[wit]}),
                           frozenset({pe.coord_of[wit]}), (wit,))
    try:
        extend_one(pe, req)
    except RainbowCubeError as exc:
        return "is not live" not in str(exc)
    return True


def lifts(pe, vertices, banned_coords) -> bool:
    """Whether `lift` opens a frame on `vertices` with `banned_coords`."""
    try:
        pe.lift(vertices, banned_coords)
    except PreconditionViolated as exc:
        assert "was banned" in str(exc)
        return False
    return True


LIVENESS_HOSTS = [VirtualCayleyCube(8), cayley_coloring(6), refined_cayley(6, 3, 2),
                  subgraph_min_degree(6, 5, 11)]


class TestLiveness:
    """A mapped edge carries its host's own classes, so a view's bans alone
    decide whether it is live there; the verdict is the view's has_edge."""

    @pytest.mark.parametrize("g", LIVENESS_HOSTS, ids=lambda g: type(g).__name__)
    def test_lift_decides_as_the_view_does(self, g):
        # the opener's graph is any view of the host, and `lift` bans a
        # coordinate on top: a pre-mapped edge survives exactly when that
        # view without the coordinate has it
        for seed in (None, 3):
            t = random_tree(g.delta(), 40 + g.dimension)
            pe = embed_rainbow_tree(g, t, seed=seed)
            assert pe._edges == set(pe.coord_of)
            frame = pe.lift(range(t.n))
            verdicts = set()
            for view in [g, *random_views(g, g.dimension, 10)]:
                pe.graph = frame.graph = view
                for w in t.edge_ids():
                    for banned in ((), {(w + pe.coord_of[w]) % g.dimension}):
                        expected = view.restrict((), banned).has_edge(pe.image[t.parent[w]], pe.image[w])
                        assert lifts(pe, (t.parent[w], w), banned) == expected
                        assert lifts(frame, (t.parent[w], w), banned) == expected
                        verdicts.add(expected)
            assert verdicts == {True, False}

    @pytest.mark.parametrize("g", LIVENESS_HOSTS, ids=lambda g: type(g).__name__)
    def test_witnesses_are_decided_as_the_view_does(self, g):
        t = random_tree(g.delta(), 50 + g.dimension)
        pe = embed_rainbow_tree(g, t)
        assert pe._edges == set(pe.coord_of)
        verdicts = set()
        for view in [g, *random_views(g, g.dimension, 5)]:
            for leaf in (v for v in t.edge_ids() if not t.children[v]):
                v = t.parent[leaf]
                for wit in [v, *t.children[v]]:
                    if wit in (leaf, 0):
                        continue
                    expected = view.has_edge(pe.image[t.parent[wit]], pe.image[wit])
                    assert live_as_witness(g, t, leaf, wit, view) == expected
                    verdicts.add(expected)
        assert verdicts == {True, False}

    def test_an_engine_run_makes_no_lookups_for_witnesses_or_frames(self, monkeypatch):
        callers = []
        for cls in (VirtualCayleyCube, GraphView):
            def counting(self, u, v, original=cls.has_edge):
                callers.append(sys._getframe(1).f_code.co_name)
                return original(self, u, v)

            monkeypatch.setattr(cls, "has_edge", counting)
        g = VirtualCayleyCube(60)
        for t in (build_tree([0] * 60), comb(60), random_spider((20, 20, 20)), random_tree(60, 5)):
            pe = embed_rainbow_tree(g, t)
            assert pe._edges == set(pe.coord_of)
        assert callers and not {"extend_one", "lift"} & set(callers)


class TestPremap:
    """`premap` installs a caller's map with the host's own classes."""

    # colors are coordinates + 1 mod 3, so a color is never its coordinate
    SHIFTED = ColoredCubeGraph(3, [(u, v, (c + 1) % 3) for u, v, c in cayley_coloring(3).edges()])

    def rooted(self, g, parents):
        pe = PartialEmbedding(build_tree(parents), g)
        pe.image[0] = 0b000
        return pe

    def test_stores_the_hosts_class(self):
        pe = self.rooted(self.SHIFTED, [0, 1])
        pe.premap(1, 0b001)
        pe.premap(2, 0b011)
        assert (pe.color_of, pe.coord_of) == ({1: 1, 2: 2}, {1: 0, 2: 1})
        assert pe.image == {0: 0b000, 1: 0b001, 2: 0b011}
        assert pe._edges == {1, 2} and pe.used_coords() == {0, 1}
        assert pe.used_colors == {1, 2} and pe.sorted_colors == [1, 2] and pe.trace == []
        with pytest.raises(TypeError):
            pe.premap(2, 0b011, 0)  # the color is the host's, never the caller's

    @pytest.mark.parametrize("steps, message", [
        ([(1, 0b011)], "edge 1 maps to a non-edge"),
        ([(1, 0b000)], "edge 1 maps to a non-edge"),
        ([(2, 0b010)], "the parent of vertex 2 is unmapped"),
        # a dict is an image written by hand: the parent has no edge record
        ([{1: 0b001}, (2, 0b011)], "the parent of vertex 2 is unmapped"),
        ([(1, 0b001), (1, 0b010)], "vertex 1 is already mapped"),
        ([(1, 0b001), (2, 0b000)], "color 1 reused at edge 2"),
        ([(1, 0b001), (-1, 0b011)], r"vertex -1 is outside \[1, 3\)"),
        ([(3, 0b001)], r"vertex 3 is outside \[1, 3\)"),
    ], ids=["two bits", "loop", "unmapped parent", "parent image by hand", "mapped child",
            "reused color", "negative id", "id past the tree"])
    def test_refuses(self, steps, message):
        pe = self.rooted(self.SHIFTED, [0, 1])
        *before, last = steps
        for step in before:
            if isinstance(step, dict):
                pe.image.update(step)
            else:
                pe.premap(*step)
        state = (dict(pe.image), dict(pe.color_of), set(pe._edges))
        with pytest.raises(PreconditionViolated, match=message):
            pe.premap(*last)
        assert (pe.image, pe.color_of, pe._edges) == state

    @pytest.mark.parametrize("edges", [10, 200], ids=["listed", "in place"])
    def test_refuses_a_vertex_outside_the_frame(self, edges):
        # a frame on the subtree at vertex 2 of a path, opened as the engine
        # opens one: listed or read in place, by the tree's size
        t, g = path_tree(edges), VirtualCayleyCube(edges)
        _, pos, end, _ = t.preorder()
        pe = PartialEmbedding(t, g)
        pe.image[0] = 0
        sub = pe.lift(pe._book.span(t, 2, pos[2] + 1, end[2]))
        assert type(sub._book).__name__ == ("_Listed" if edges <= embed.LISTED else "InPlace")
        # the edge above the frame, and then the edge of its subroot
        for v, y in ((1, 0b1), (2, 0b11)):
            with pytest.raises(PreconditionViolated, match=f"^premap: vertex {v} is outside the frame$"):
                sub.premap(v, y)
            assert len(sub.used_colors) == len(set(sub.used_colors)) == 0 and sub._edges == set()
            pe.premap(v, y)
        sub = pe.lift(pe._book.span(t, 2, pos[2] + 1, end[2]))
        sub.premap(3, 0b111)
        assert sub._edges == {3} and sub.used_colors == {2} and len(sub.used_colors) == 1

    def test_refuses_an_edge_the_view_bans(self):
        # the host is the embedding's graph, here a view without color 1
        pe = self.rooted(self.SHIFTED.restrict({1}, ()), [0])
        with pytest.raises(PreconditionViolated, match="edge 1 maps to a non-edge"):
            pe.premap(1, 0b001)
        pe.premap(1, 0b010)
        assert pe.color_of == {1: 2} and pe.coord_of == {1: 1}


def union_extend_one(pe, req):
    """extend_one as it stood before steps reused checked witnesses and read
    the color index: every witness checked in one loop, and the candidates
    drawn from the union of the bans."""
    t = pe.tree
    v, w = req.source, req.target
    if w in pe.image or v not in pe.image:
        raise PreconditionViolated(f"step {req.label}: {v}->{w} not a frontier edge")
    if t.parent[w] != v:
        raise PreconditionViolated(f"step {req.label}: {w} is not a child of {v}")
    parent, color_of, coord_of = t.parent, pe.color_of, pe.coord_of
    seen_colors, seen_coords = set(), set()
    banned_colors, banned_coords = pe.graph.banned_colors, pe.graph.banned_coords
    for wit in req.witnesses:
        if wit not in coord_of:
            raise PreconditionViolated(f"witness edge {wit} is unmapped")
        if wit != v and parent[wit] != v:
            raise PreconditionViolated(f"witness edge {wit} is not incident to {v}")
        c, q = color_of[wit], coord_of[wit]
        if c not in req.x_col or q not in req.x_coor:
            raise PreconditionViolated(f"witness edge {wit} lies outside the forbidden sets")
        if c in seen_colors or q in seen_coords:
            raise PreconditionViolated(f"witness edge {wit} repeats a color or coordinate")
        if c in banned_colors or q in banned_coords:
            raise PreconditionViolated(f"witness edge {wit} is not live in the current host")
        seen_colors.add(c)
        seen_coords.add(q)
    r = len(req.witnesses)
    if not pe.graph.delta_at_least(len(req.x_col) + len(req.x_coor) - r + 1):
        raise PreconditionViolated(
            f"step {req.label}: |x_col|={len(req.x_col)} + |x_coor|={len(req.x_coor)}"
            f" - r={r} >= delta={pe.graph.delta()}"
        )
    cands = list(candidate_edges(pe.graph, pe.image[v], req.x_col, req.x_coor))
    if not cands:
        raise NoCandidate(f"step {req.label}: counting bound held but no edge was admissible")
    coord, y, color = cands[0] if pe.rng is None else cands[pe.rng.randrange(len(cands))]
    pe.record(w, y, color, coord)
    pe.trace.append((req.label, w, pe.image[v], y, len(req.x_col), len(req.x_coor), r))
    return pe


def outcome(step, pe, req):
    """What one step did: the trace entry it wrote, or its error and message."""
    try:
        step(pe, req)
    except RainbowCubeError as exc:
        return type(exc).__name__, str(exc)
    return pe.trace[-1]


# root edges 1..6 and edges 7, 8 below vertex 1
WITNESS_TREE = build_tree([0, 0, 0, 0, 0, 0, 1, 1])
MUTANTS = ["none", "outside x_col", "repeat", "banned", "view", "source", "shrunk x_coor", "replaced"]


class TestWitnessCache:
    """A step may take over the witnesses its frame checked last; it must
    decide exactly as checking every witness would."""

    @given(st.sampled_from([VirtualCayleyCube(12), refined_cayley(8, 3, 2)]),
           st.lists(st.tuples(st.sampled_from(MUTANTS), st.integers(0, 7)), min_size=1, max_size=9))
    @settings(max_examples=150, deadline=None)
    def test_requests_at_one_source_decide_as_the_full_loop(self, g, steps):
        # two embeddings in lockstep, one stepped by extend_one and one by the
        # reference.  Each drawn step is the next step-4 request at the root
        # (every mapped root edge a witness), mutated; when the mutant fails,
        # the request itself follows, so every mutant meets a frame that has
        # checked the witnesses before it
        engine, reference = (PartialEmbedding(WITNESS_TREE, g) for _ in range(2))
        for pe in (engine, reference):
            pe.image[0] = g.default_start()

        def step(req, view=None):
            results = []
            for pe, extend in ((engine, extend_one), (reference, union_extend_one)):
                host = pe.graph
                pe.graph = view or host
                results.append(outcome(extend, pe, req))
                pe.graph = host
            assert results[0] == results[1], req
            return results[0]

        for kind, pick in steps:
            roots = [u for u in WITNESS_TREE.children[0] if u in engine.image]
            free = [u for u in WITNESS_TREE.children[0] if u not in engine.image]
            if not free:
                break
            plain = ExtensionRequest(0, free[0], frozenset(engine.used_colors), engine.used_coords(),
                                     tuple(roots), "step4")
            source, target, x_col, x_coor, witnesses = 0, free[0], plain.x_col, plain.x_coor, plain.witnesses
            view = None
            if roots:
                wit = roots[pick % len(roots)]
                c, q = engine.color_of[wit], engine.coord_of[wit]
                if kind == "outside x_col":
                    x_col -= {c}
                elif kind == "repeat":
                    witnesses += (wit,)
                elif kind == "banned":
                    view = g.restrict({c}, ())
                elif kind == "view":
                    view = g.restrict({10**6}, ())
                elif kind == "source":
                    below = [u for u in WITNESS_TREE.children[1] if u not in engine.image]
                    if below:
                        source, target = 1, below[0]
                elif kind == "shrunk x_coor":
                    x_coor -= {q}
                elif kind == "replaced":
                    # an edge below vertex 1, unmapped or not at the root, in
                    # place of a witness: the list no longer extends the old one
                    witnesses = tuple(7 if u == wit else u for u in witnesses)
            mutant = ExtensionRequest(source, target, x_col, x_coor, witnesses, "step4")
            if len(step(mutant, view)) == 2:
                step(plain)
        assert engine.image == reference.image and engine.trace == reference.trace

    def test_star_witnesses_are_read_once_each(self):
        # counted, not timed: the mapped edges' colors that a 2,000-leaf star
        # reads while it extends.  Checking every witness at every step read
        # n(n - 1)/2 of them
        class Reads(dict):
            count = 0

            def __getitem__(self, key):
                self.count += 1
                return super().__getitem__(key)

        n = 2000
        g, t = VirtualCayleyCube(n), build_tree([0] * n)
        pe = embed_half(g, t, 0)
        pe.color_of = reads = Reads(pe.color_of)
        extend_tree(pe, choose_z_bad(g, pe)[1])
        assert [label for label, *_ in pe.trace] == ["step4"] * n
        assert reads.count < 2 * n


def union_candidates(g, x, colors, coords):
    """The candidates at x by their definition: the host's edges at x whose
    color and coordinate lie outside the union of every ban, by coordinate."""
    base = g.base
    colors, coords = set(colors) | g.banned_colors, set(coords) | g.banned_coords
    if isinstance(base, VirtualCayleyCube):
        return [(q, x ^ (1 << q), q) for q in sorted(set(range(base.dimension)) - colors - coords)]
    return [(q, y, c) for q, y, c in base.incident(x) if c not in colors and q not in coords]


class TestColorIndex:
    """extend_one bans every mapped color, read from the shared sorted
    `sorted_colors`; on every step of the engine that bans nothing that
    x_col and the view's banned colors do not already ban."""

    @pytest.mark.parametrize("corpus, kinds", [
        ("stages", {"VirtualCayleyCube", "ColoredCubeGraph"}),
        ("deep", {"VirtualCayleyCube"}),
        ("slice", {"ColoredCubeGraph"}),
    ], ids=["stages", "deep", "slice"])
    def test_every_step_gets_the_union_candidates(self, corpus, kinds, monkeypatch):
        original = embed.candidate_edges
        hosts = set()

        def checked(g, x, colors, coords, mapped):
            got = original(g, x, colors, coords, mapped)
            # the lever: the mapped colors are banned already
            assert set(mapped) <= colors | g.banned_colors
            expected = union_candidates(g, x, colors, coords)
            assert len(got) == len(expected) and list(got) == expected
            assert [got[i] for i in range(len(got))] == expected and bool(got) == bool(expected)
            assert list(original(g, x, colors, coords)) == expected
            hosts.add(type(g.base).__name__)
            return got

        monkeypatch.setattr(embed, "candidate_edges", checked)
        if corpus == "slice":
            assert all(why is None for _, why in slice_runs())
        else:
            for _, g, t, seed in {"stages": stage_corpus, "deep": deep_corpus}[corpus]():
                embed_rainbow_tree(g, t, seed=seed)
        assert hosts == kinds

    @pytest.mark.parametrize("g", [VirtualCayleyCube(6), cayley_coloring(6)], ids=host_id)
    def test_a_hand_built_request_takes_no_mapped_color(self, g):
        # x_col names color 5 but not color 0, which edge 1 has: the edge of
        # color 0 is not offered, so the step takes the next one
        pe = premapped(g, build_tree([0, 0]), {0: 0, 1: 0b1})
        extend_one(pe, ExtensionRequest(0, 2, frozenset({5}), frozenset()))
        assert (pe.color_of[2], pe.image[2]) == (1, 0b10)

    def test_index_follows_every_frame(self):
        for g in (VirtualCayleyCube(40), cayley_coloring(8)):
            n = g.delta()
            for t in (build_tree([0] * n), comb(n), random_spider((n // 3, n // 3, n - 2 * (n // 3))),
                      random_tree(n, 9)):
                pe = embed_rainbow_tree(g, t, seed=3)
                assert pe.sorted_colors == sorted(pe.used_colors) == sorted(pe.color_of.values())


LAZY_FRAMES = """
import sys
from rainbowcube import VirtualCayleyCube, embed_rainbow_tree, path_tree
embed_rainbow_tree(VirtualCayleyCube(8), path_tree(8))
print("rainbowcube.frames" in sys.modules)
embed_rainbow_tree(VirtualCayleyCube(200), path_tree(200))
print("rainbowcube.frames" in sys.modules)
"""


def lift_outcome(pe, vertices, banned):
    """What `lift` gives: the new view's bans as sets, with whether it is the
    opener's view itself, or the message it refuses with."""
    try:
        view = pe.lift(vertices, banned).graph
    except PreconditionViolated as exc:
        return str(exc)
    colors, coords = frozenset(view.banned_colors), frozenset(view.banned_coords)
    # the sizes the degree bound reads are the sets' own
    assert (len(view.banned_colors), len(view.banned_coords)) == (len(colors), len(coords))
    return view is pe.graph, colors, coords


class TestViews:
    """Frames and steps read the ledger through views; each decides and
    counts as the listed sets they stand for."""

    @pytest.mark.parametrize("t", [random_tree(100, 61), comb(100), random_spider([2] * 50)],
                             ids=["random", "comb", "spider"])
    def test_the_span_route_decides_as_the_listed_route(self, t):
        # a frame on a subtree of a tree too large to be listed, opened from
        # the whole tree and from a frame on a subtree above it, as a span
        # (read in place) and as the same vertices listed
        g = VirtualCayleyCube(100)
        assert t.n - 1 > embed.LISTED
        verdicts = set()
        for seed in (None, 3):
            order, pos, end, _ = t.preorder()
            pe = embed_rainbow_tree(g, t, seed=seed)
            for v in (v for v in range(t.n) if t.children[v]):
                span = frames.Span(t, v, pos[v] + 1, end[v])
                below = [pe.coord_of[w] for w in span[1:]]
                for banned in ((), below[-1:], below[:1] + [g.dimension + 1], [below[0] + 1]):
                    openers = [pe]
                    if v:
                        u = t.parent[v]
                        openers.append(pe.lift(frames.Span(t, u, pos[u] + 1, end[u])))
                    for opener in openers:
                        outcome = lift_outcome(opener, span, banned)
                        assert outcome == lift_outcome(opener, tuple(span), banned)
                        verdicts.add(isinstance(outcome, str))
        assert verdicts == {True, False}

    def test_engine_requests_are_sized_as_their_elements(self, monkeypatch):
        # every set a step reads has the size the trace records and the
        # counting bound reads, and keeps its elements after the step
        engine = embed.extend_one
        sets = []

        def checked(pe, req):
            views = (req.x_col, req.x_coor, pe.graph.banned_colors, pe.graph.banned_coords)
            before = [frozenset(s) for s in views]
            assert [len(s) for s in views] == [len(s) for s in before]
            assert frozenset(req.x_col) == {pe.color_of[e] for e in pe._edges}
            engine(pe, req)
            assert [frozenset(s) for s in views] == before
            sets.append(len(before[1]))
            return pe

        monkeypatch.setattr(embed, "extend_one", checked)
        # listed on the small trees, read in place on the deep ones
        deep = [case for case in deep_corpus() if case[3] is None]
        for instances in (corpus(), skew_corpus(), deep):
            for _, g, t, seed in instances:
                embed_rainbow_tree(g, t, seed=seed)
        assert len(sets) > 1000

    def test_exact_degrees_count_in_place_bans_as_listed(self, monkeypatch):
        # the implicit cube counts a view's banned colors by their size when
        # they are read in place and all lie below its dimension; every view
        # a step reads has the exact degree its bans listed give, in its own
        # cube and in a narrower one, where some banned colors lie past it
        engine = embed.extend_one
        kinds = set()

        def checked(pe, req):
            g = pe.graph
            for cube in (g.base, VirtualCayleyCube(g.base.dimension - 20)):
                listed = cube.delta_after_bans(frozenset(g.banned_colors), frozenset(g.banned_coords))
                assert cube.delta_after_bans(g.banned_colors, g.banned_coords) == listed
            kinds.add(type(g.banned_colors).__name__)
            return engine(pe, req)

        monkeypatch.setattr(embed, "extend_one", checked)
        for t in (random_tree(100, 5), comb(100), random_spider([2] * 50), random_spider([3, 3, 4, 90])):
            for seed in (None, 3):
                embed_rainbow_tree(VirtualCayleyCube(100), t, seed=seed)
        assert "Classes" in kinds

    def test_what_the_sorted_colors_lack_is_in_the_outside_part(self, monkeypatch):
        # on a refined host a coordinate set holds skew coordinates, which
        # are no edge's color; the part `unlisted` gives a set read in place
        # holds each element the embedding's sorted colors lack
        monkeypatch.setattr(embed, "LISTED", 0)
        skew = set()
        for s in range(6):
            t = random_tree(8, s)
            pe = embed_rainbow_tree(refined_cayley(8, s, 3), t, seed=s if s % 2 else None)
            L, listed = pe._ledger, pe.sorted_colors
            assert type(L) is frames.Ledger and L.sorted_colors is listed and L.skew
            _, pos, end, _ = t.preorder()
            for v in range(t.n):
                region = frames.Span(t, v, pos[v] + 1, end[v])
                for coords, inside, extra in itertools.product((False, True), (True, False),
                                                               (frozenset(), frozenset({listed[0], 9, 40}))):
                    cls = frames.Classes(L, coords, region, 0, extra=extra, inside=inside)
                    part = set(unlisted(cls, listed))
                    assert set(cls) - set(listed) <= part <= set(cls)
                    if coords:
                        skew |= part - extra
        assert skew

    def test_the_in_place_code_loads_with_the_first_large_tree(self):
        # importing frames.py costs every process its compile time and memory,
        # so a process that embeds only small trees never loads it
        src = Path(rainbowcube.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", LAZY_FRAMES], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["False", "True"]

    def test_sequences_read_in_place(self):
        # a spider's legs after its first, less a leg cut out of them
        t = random_spider([2, 3, 1, 2])
        order, pos, end, _ = t.preorder()
        legs = as_spider(t).legs
        cut = (pos[legs[2][1]], end[legs[2][1]])
        span = frames.Span(t, 0, pos[legs[1][1]], end[0], cut)
        listed = (0, *legs[1][1:], *legs[3][1:])
        assert tuple(span) == listed and len(span) == len(listed)
        assert [span[i] for i in range(-len(span), len(span))] == list(listed) * 2
        assert span[1:3] == listed[1:3]
        with pytest.raises(IndexError):
            span[len(span)]
