import hashlib
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
from rainbowcube import (
    ColoredCubeGraph,
    ExtensionRequest,
    GraphView,
    PartialEmbedding,
    VirtualCayleyCube,
    build_tree,
    cayley_coloring,
    certify_path_windows,
    embed_half,
    embed_rainbow_tree,
    endpoints_must_differ,
    enumerate_trees,
    extend_one,
    extend_path,
    extend_spider,
    extend_tree,
    format_embedding,
    half_floor,
    oracle_find,
    parse_embedding,
    path_tree,
    replay_trace,
    verify,
)
from rainbowcube.errors import DegreeTooSmall, PreconditionViolated, RainbowCubeError
from rainbowcube.gen import random_spider, random_tree, refined_cayley, subgraph_min_degree
from rainbowcube.prng import SplitMix64

from test_golden import comb
from test_hypercube import improper_cayley, random_views
from test_tree import CLASSIFY_49


def premapped(g, t, images):
    """PartialEmbedding with the given vertex->cube assignments installed."""
    pe = PartialEmbedding(t, g)
    for v, x in images.items():
        pe.image[v] = x
    for child in t.edge_ids():
        if child in images and t.parent[child] in images:
            u, w = images[t.parent[child]], images[child]
            pe.color_of[child] = g.edge_color(u, w)
            pe.coord_of[child] = (u ^ w).bit_length() - 1
            pe.used_colors.add(pe.color_of[child])
    return pe


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

    def test_window_certificate_rejects_repeats(self):
        certify_path_windows([0, 1, 2, 0])  # fine: repeats are far apart
        with pytest.raises(PreconditionViolated):
            certify_path_windows([0, 1, 0, 2])


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
        g = cayley_coloring(6)
        t = build_tree(CLASSIFY_49[:9])  # a star is fine; use a branching tree
        t = build_tree([0, 1, 1, 2])
        pe = embed_half(g, t, 0)
        with pytest.raises(PreconditionViolated):
            extend_spider(pe)


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
        with pytest.raises(PreconditionViolated):
            extend_tree(pe, 2)  # 000-010 is an edge of the host

    def test_rejects_used_blocker_coordinate(self):
        g = subgraph_min_degree(3, 2, 1)
        t = path_tree(2)
        pe = embed_half(g, t, 0)
        (q,) = pe.coord_of.values()
        z = pe.image[0] ^ (1 << q)
        if not g.has_edge(pe.image[0], z):
            with pytest.raises(PreconditionViolated):
                extend_tree(pe, z)


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

    @given(st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    def test_random_hosts_and_trees(self, seed):
        rng = SplitMix64(seed)
        n = 4 + rng.randrange(3)
        d = 1 + rng.randrange(n)
        g = subgraph_min_degree(n, d, rng.next_u64())
        t = random_tree(rng.randrange(d + 1), rng.next_u64())
        pe = embed_rainbow_tree(g, t)
        assert verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad).ok


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


def improper_outcomes(g):
    """sha256 over the engine's output, or its refusal, for every tree with at
    most 4 edges from four start vertices, unseeded and with three seeds."""
    h = hashlib.sha256()
    for t in enumerate_trees(4):
        for seed in (None, 1, 2, 3):
            for start in sorted(g.vertices)[:4]:
                try:
                    pe = embed_rainbow_tree(g, t, seed=seed, start=start)
                    out = format_embedding(pe, include_trace=True)
                except RainbowCubeError as exc:
                    out = f"{type(exc).__name__}: {exc}\n"
                h.update(out.encode())
    return h.hexdigest()


class TestImproperHost:
    # parse_graph does not check properness, so the engine meets improper
    # hosts; there the degree bound of a view is unsound and must not be used
    SHARED = {(0, 2), (13, 15)}
    # the outcomes of the engine that checked every view degree by a scan
    EXACT = "6611e2adc8116407a857b69cca7ba2d25cb56b0825960b50da3b973959d208a6"

    def test_engine_decides_as_with_exact_checks(self):
        assert improper_outcomes(improper_cayley(4, self.SHARED)) == self.EXACT

    def test_the_bound_alone_would_decide_otherwise(self, monkeypatch):
        monkeypatch.setattr(ColoredCubeGraph, "is_proper", lambda self: True)
        assert improper_outcomes(improper_cayley(4, self.SHARED)) != self.EXACT


# breaks the anchor bookkeeping (every child's anchor set becomes its whole
# subtree), then embeds
BROKEN_ANCHORS = """
import sys
import rainbowcube.embed as embed
from rainbowcube import VirtualCayleyCube, build_tree
from rainbowcube.errors import PreconditionViolated
embed.subtree_floor_edges = lambda t, v: frozenset(t.subtree_preorder(v)[1:])
try:
    embed.embed_rainbow_tree(VirtualCayleyCube(5), build_tree([0, 1, 1]))
except PreconditionViolated as exc:
    print(sys.flags.optimize, exc)
"""


class TestStrictChecks:
    """The anchor-set checks run on every embedding, and raise."""

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
                            lambda g, x, colors, coords: original(g, x, colors, ()))
        with pytest.raises(PreconditionViolated, match="^branch anchor set repeats a coordinate$"):
            embed_rainbow_tree(refined_cayley(6, 0, 2), build_tree([0, 0, 2, 3, 4, 5]))


class TestTraceAndFormat:
    def test_replay_reproduces_embedding(self):
        g = cayley_coloring(4)
        t = random_tree(4, 17)
        pe = embed_rainbow_tree(g, t)
        assert replay_trace(t, pe.trace, pe.image[0]) == pe.image

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
        sub = pe.lift((1, 2, 3), g.restrict({pe.color_of[1]}, ()))
        assert sub.root == 1 and sub.mapped_edges() == {2} and sub.used_coords() == {1}
        extend_one(sub, ExtensionRequest(2, 3, frozenset(sub.used_colors), sub.used_coords()))
        assert pe.image[3] == sub.image[3] and pe.trace[-1][1] == 3
        assert sub.used_colors == {1, 2} and pe.all_colors == {0, 1, 2}
        pe.adopt(sub)
        assert pe.mapped_edges() == {1, 2, 3}

    def test_frame_state_is_set_by_lift_alone(self):
        g = cayley_coloring(3)
        for name in ("vertices", "all_colors", "_edges", "_coords", "_recorded", "_host"):
            with pytest.raises(TypeError):
                PartialEmbedding(path_tree(2), g, **{name: set()})
        pe = mapped_path(g, 2, 1)
        sub = pe.lift((1, 2), g)
        assert not pe.is_frame and sub.is_frame
        assert sub._recorded is pe._recorded and sub._host is pe._host is g

    def test_premapped_edge_banned_from_the_view(self):
        g = cayley_coloring(3)
        pe = mapped_path(g, 2, 2)
        with pytest.raises(PreconditionViolated, match="pre-mapped edge 1 was banned"):
            pe.lift((0, 1, 2), g.restrict({pe.color_of[1]}, ()))
        frame = pe.lift((0, 1, 2), g.restrict((), {7}))
        # a view that narrows the frame's view, and one that does not
        for view in (frame.graph.restrict((), {pe.coord_of[2]}),
                     g.restrict((), {pe.coord_of[2]})):
            with pytest.raises(PreconditionViolated, match="pre-mapped edge 2 was banned"):
                frame.lift((1, 2), view)

    def test_color_reused_across_frames(self):
        # the frame's own colors are fresh, but record checks every frame's:
        # leaving vertex 1 by coordinate 0 goes back over edge 1's color
        g = cayley_coloring(3)
        pe = mapped_path(g, 2, 1)
        sub = pe.lift((1, 2), g)
        assert not sub.used_colors
        with pytest.raises(PreconditionViolated, match="color 0 reused at edge 2"):
            extend_one(sub, ExtensionRequest(1, 2, frozenset(), frozenset()))

    def test_a_frame_cannot_remap_a_vertex(self):
        # adopt no longer compares images: the map is shared, and extend_one
        # refuses a target that is already mapped
        g = cayley_coloring(3)
        pe = mapped_path(g, 2, 2)
        sub = pe.lift((1, 2), g)
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
    """Whether extend_one takes `wit` for live in a frame over `view`: the
    engine's embedding of t with `leaf` unmapped again, then a step that
    maps `leaf` backed by `wit` alone."""
    pe = embed_rainbow_tree(g, t)
    for mapped in (pe.image, pe.color_of, pe.coord_of):
        del mapped[leaf]
    v = t.parent[leaf]
    sub = pe.lift((v, leaf), view)  # `leaf` is unmapped, so lift checks nothing
    req = ExtensionRequest(v, leaf, frozenset({pe.color_of[wit]}),
                           frozenset({pe.coord_of[wit]}), (wit,))
    try:
        extend_one(sub, req)
    except RainbowCubeError as exc:
        return "is not live" not in str(exc)
    return True


def lifts(pe, vertices, view) -> bool:
    """Whether `lift` opens a frame on `vertices` over `view`."""
    try:
        pe.lift(vertices, view)
    except PreconditionViolated as exc:
        assert "was banned" in str(exc)
        return False
    return True


LIVENESS_HOSTS = [VirtualCayleyCube(8), cayley_coloring(6), refined_cayley(6, 3, 2),
                  subgraph_min_degree(6, 5, 11)]


class TestLiveness:
    """Edges the engine mapped are checked in a view by its bans; every other
    edge is looked up.  Either way the verdict is the view's has_edge."""

    @pytest.mark.parametrize("g", LIVENESS_HOSTS, ids=lambda g: type(g).__name__)
    def test_lift_decides_as_the_view_does(self, g):
        for seed in (None, 3):
            t = random_tree(g.delta(), 40 + g.dimension)
            pe = embed_rainbow_tree(g, t, seed=seed)
            assert pe._recorded == set(pe.coord_of)
            frame = pe.lift(range(t.n), g)
            verdicts = set()
            for view in [g, *random_views(g, g.dimension, 10)]:
                for w in t.edge_ids():
                    expected = view.has_edge(pe.image[t.parent[w]], pe.image[w])
                    assert lifts(pe, (t.parent[w], w), view) == expected
                    assert lifts(frame, (t.parent[w], w), view) == expected
                    verdicts.add(expected)
            assert verdicts == {True, False}

    @pytest.mark.parametrize("g", LIVENESS_HOSTS, ids=lambda g: type(g).__name__)
    def test_witnesses_are_decided_as_the_view_does(self, g):
        t = random_tree(g.delta(), 50 + g.dimension)
        pe = embed_rainbow_tree(g, t)
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
            assert pe._recorded == set(pe.coord_of)
        assert callers and not {"extend_one", "lift"} & set(callers)

    def test_edges_recorded_in_a_frame_join_the_shared_set(self):
        g = cayley_coloring(4)
        pe = mapped_path(g, 3, 2)
        sub = pe.lift((2, 3), g.restrict({pe.color_of[1]}, ()))
        extend_one(sub, ExtensionRequest(2, 3, frozenset(pe.all_colors), frozenset()))
        assert pe._recorded == {1, 2, 3}

    @pytest.mark.parametrize("wrong", ["color", "coordinate"])
    def test_a_wrong_recorded_class_is_looked_up_at_every_level(self, wrong):
        # a caller-filled map: the recorded class of edge 1 is wrong, so only
        # a lookup decides, and it decides by the host's own class
        g = cayley_coloring(4)
        t = path_tree(3)
        pe = premapped(g, t, {0: 0b0000, 1: 0b0001, 2: 0b0011})
        assert not pe._recorded
        recorded = pe.color_of if wrong == "color" else pe.coord_of
        true_class, false_class = recorded[1], 3
        recorded[1] = false_class
        ban = (lambda c: g.restrict({c}, ())) if wrong == "color" else (lambda c: g.restrict((), {c}))
        for frame in (pe, pe.lift(range(4), g.restrict({9}, {9})), pe.lift((0, 1, 2, 3), g)):
            assert lifts(frame, (0, 1, 2), ban(false_class))
            assert not lifts(frame, (0, 1, 2), ban(true_class))
            nested = frame.lift((0, 1, 2), g.restrict({8}, ()))
            assert lifts(nested, (0, 1), ban(false_class).restrict({8}, ()))
            assert not lifts(nested, (0, 1), ban(true_class))
        # and as the witness of a step from vertex 1, whose forbidden sets
        # hold the recorded classes of edge 1
        for banned, live in ((false_class, True), (true_class, False)):
            for nested in (False, True):
                pe = premapped(g, t, {0: 0b0000, 1: 0b0001})
                recorded = pe.color_of if wrong == "color" else pe.coord_of
                recorded[1] = false_class
                req = ExtensionRequest(1, 2, frozenset(pe.all_colors) | {pe.color_of[1]},
                                       frozenset({pe.coord_of[1]}), (1,))
                opener = pe.lift((0, 1, 2), g.restrict({9}, ())) if nested else pe
                frame = opener.lift((1, 2), ban(banned))
                if live:
                    extend_one(frame, req)
                    assert pe.image[2] == 0b0011
                else:
                    with pytest.raises(PreconditionViolated, match="witness edge 1 is not live"):
                        extend_one(frame, req)

    def test_a_view_of_another_host_is_looked_up(self):
        # engine-mapped edges, then frames over hosts other than the one they
        # were drawn from: their bans say nothing there, a lookup decides
        g = cayley_coloring(3)
        pe = mapped_path(g, 2, 2)
        a, b = pe.image[0], pe.image[1]
        without = ColoredCubeGraph(3, [(u, v, c) for u, v, c in g.edges() if {u, v} != {a, b}])
        shifted = ColoredCubeGraph(3, [(u, v, (c + 1) % 3) for u, v, c in g.edges()])
        assert not lifts(pe, (0, 1, 2), without)
        assert not lifts(pe, (0, 1, 2), shifted.restrict({shifted.edge_color(a, b)}, ()))
        assert lifts(pe, (0, 1, 2), shifted.restrict({pe.color_of[1]}, ()))
        assert lifts(pe, (0, 1, 2), cayley_coloring(3))
        assert not lifts(pe.lift((0, 1, 2), shifted), (0, 1, 2), without)

    def test_an_edge_drawn_from_another_host_is_looked_up(self):
        # a frame over another host maps edge 2 with that host's color, which
        # the view below bans; in the first host the edge has another color
        g = cayley_coloring(3)
        shifted = ColoredCubeGraph(3, [(u, v, (c + 1) % 3) for u, v, c in g.edges()])
        pe = mapped_path(g, 2, 1)
        frame = pe.lift((1, 2), shifted)
        extend_one(frame, ExtensionRequest(1, 2, frozenset(pe.all_colors), frozenset()))
        pe.adopt(frame)
        drawn = pe.color_of[2]
        assert drawn != g.edge_color(pe.image[1], pe.image[2])
        assert 2 in frame._recorded and 2 not in pe._recorded
        assert lifts(pe, (0, 1, 2), g.restrict({drawn}, ()))
