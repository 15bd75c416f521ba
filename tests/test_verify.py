import itertools

import pytest

from rainbowcube import (
    ColoredCubeGraph,
    VirtualCayleyCube,
    build_tree,
    cayley_coloring,
    cross_check,
    embed_rainbow_tree,
    enumerate_trees,
    format_embedding,
    half_ceil,
    disjoint_images_guaranteed,
    oracle_find,
    oracle_no_rainbow_cycle,
    parse_embedding,
    parse_graph,
    parse_tree,
    path_tree,
    verify,
    write_bundle,
)
from rainbowcube.errors import BudgetExceeded, LimitExceeded
from rainbowcube.gen import random_tree, refined_cayley, subgraph_min_degree
from rainbowcube.prng import SplitMix64


class TestVerify:
    def test_engine_output_passes(self):
        g = cayley_coloring(3)
        t = path_tree(3)
        pe = embed_rainbow_tree(g, t)
        report = verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad)
        assert report.ok
        names = [c.name for c in report.checks]
        assert names == [
            "homomorphism",
            "injective",
            "rainbow",
            "path_distinct_ceil_half",
            "avoids_vertex",
        ]

    def test_collision_reported(self):
        g = cayley_coloring(2)
        t = build_tree([0, 0])  # two leaves
        image = {0: 0, 1: 1, 2: 1}
        report = verify(g, t, image)
        failure = report.first_failure()
        assert failure.name == "injective"
        assert "1" in failure.witness

    def test_duplicate_color_reported(self):
        # a proper host whose path 0-1-3-2 repeats color 5 at its far ends
        g = ColoredCubeGraph(2, [(0, 1, 5), (1, 3, 6), (2, 3, 5)])
        t = path_tree(3)
        report = verify(g, t, {0: 0, 1: 1, 2: 3, 3: 2})
        assert [c.name for c in report.failed()] == ["rainbow"]

    def test_non_edge_reported(self):
        g = cayley_coloring(2)
        report = verify(g, path_tree(1), {0: 0, 1: 3})
        assert report.first_failure().name == "homomorphism"

    def test_partial_map_rejected(self):
        g = cayley_coloring(2)
        report = verify(g, path_tree(2), {0: 0, 1: 1})
        assert report.first_failure().name == "total"

    def test_path_distinct_flag(self):
        # distinct colors but coordinate 0 repeats at edges 1 and 3, both of
        # which lie in the upper-closed half of a length-5 path
        t = path_tree(5)
        image = {0: 0, 1: 1, 2: 3, 3: 2, 4: 6, 5: 14}  # coords 0,1,0,2,3
        g2 = ColoredCubeGraph(
            4, [(0, 1, 10), (1, 3, 11), (2, 3, 12), (2, 6, 13), (6, 14, 14)]
        )
        assert verify(g2, t, image).ok
        rep = verify(g2, t, image, require_path_distinct=True)
        assert not rep.ok
        assert rep.first_failure().name == "path_distinct_ceil_half"

    @pytest.mark.parametrize("g, outside, shown", [
        (ColoredCubeGraph(3, [], vertices=[0]), 7, "111"),
        (VirtualCayleyCube(3), 99, "0b1100011"),
    ], ids=["explicit", "implicit"])
    def test_lone_root_outside_the_host_reported(self, g, outside, shown):
        # a one-vertex tree has no edge that would place its image in the host
        t = build_tree([])
        assert verify(g, t, {0: 0}).ok
        report = verify(g, t, {0: outside})
        assert [c.name for c in report.checks] == ["homomorphism"]
        assert report.first_failure().witness == f"vertex 0 -> non-vertex {shown}"

    def test_blocked_vertex_flag(self):
        g = cayley_coloring(2)
        t = path_tree(1)
        report = verify(g, t, {0: 0, 1: 1}, z_bad=1)
        assert not report.ok
        assert report.first_failure().name == "avoids_vertex"


class TestVerifyPathDistinctRainbowInteraction:
    def test_verify_recomputes_coordinates(self):
        # the embedding file's edge lines are ignored; the bits decide
        g = cayley_coloring(2)
        text = "embedding 1 2\nmap 0 00\nmap 1 01\nedge 0 1 99 99\n"
        image, n_edges, dim = parse_embedding(text)
        assert verify(g, path_tree(1), image).ok


class TestOracle:
    def test_finds_path(self):
        result = oracle_find(cayley_coloring(3), path_tree(3))
        assert result.found and result.exhausted
        assert verify(cayley_coloring(3), path_tree(3), result.image).ok

    def test_exhausts_infeasible_path(self):
        result = oracle_find(cayley_coloring(3), path_tree(4))
        assert not result.found and result.exhausted and result.image is None

    def test_single_edge(self):
        result = oracle_find(cayley_coloring(2), build_tree([0]))
        assert result.found

    def test_budget(self):
        with pytest.raises(BudgetExceeded) as info:
            oracle_find(cayley_coloring(4), path_tree(4), budget=3)
        partial = info.value.partial
        assert not partial.found and not partial.exhausted
        assert partial.nodes_explored >= 3

    def test_completeness_spot_check(self):
        # Q_2 has 2 colors: no rainbow 3-edge path exists; confirm against
        # every one of the 4^4 total maps
        g = cayley_coloring(2)
        t = path_tree(3)
        result = oracle_find(g, t)
        assert not result.found and result.exhausted
        for image in itertools.product(range(4), repeat=4):
            assert not verify(g, t, dict(enumerate(image))).ok


class TestNoRainbowCycle:
    def test_cayley_hosts_have_none(self):
        assert oracle_no_rainbow_cycle(cayley_coloring(3), 8)
        assert oracle_no_rainbow_cycle(cayley_coloring(4), 8)

    def test_rainbow_square_found(self):
        g = ColoredCubeGraph(2, [(0, 1, 0), (0, 2, 1), (1, 3, 2), (2, 3, 3)])
        assert not oracle_no_rainbow_cycle(g, 4)

    def test_refined_coloring_can_have_rainbow_cycles(self):
        # splitting classes can create one; just check the call runs and the
        # answer matches a hand enumeration on a small host
        g = refined_cayley(2, 3, 2)
        colors = {(u, v): c for u, v, c in g.edges()}
        ring = [(0, 1), (1, 3), (2, 3), (0, 2)]
        rainbow = len({colors[e] for e in ring}) == 4
        assert oracle_no_rainbow_cycle(g, 4) == (not rainbow)

    def test_guards(self):
        with pytest.raises(LimitExceeded):
            oracle_no_rainbow_cycle(cayley_coloring(6), 4)
        with pytest.raises(LimitExceeded):
            oracle_no_rainbow_cycle(cayley_coloring(3), 5)


class TestCrossCheck:
    def test_exhaustive_small(self):
        for n in (2, 3):
            hosts = [cayley_coloring(n)] + [refined_cayley(n, s, 2) for s in range(3)]
            for g in hosts:
                for t in enumerate_trees(n):
                    summary = cross_check(g, t)
                    assert summary.ok, summary.mismatches

    def test_random_hosts(self):
        for seed in range(25):
            rng = SplitMix64(seed)
            g = subgraph_min_degree(4, 1 + rng.randrange(4), rng.next_u64())
            t = random_tree(rng.randrange(5), rng.next_u64())
            summary = cross_check(g, t)
            assert summary.ok, summary.mismatches

    def test_tight_degree(self):
        for seed in range(10):
            g = refined_cayley(4, seed, 3)
            t = random_tree(4, seed)  # e(T) == delta exactly
            summary = cross_check(g, t)
            assert summary.ok, summary.mismatches

    def test_refined_colorings_500_trials(self):
        for trial in range(500):
            rng = SplitMix64(trial + 1000)
            g = refined_cayley(4, rng.next_u64(), 1 + rng.randrange(4))
            t = random_tree(rng.randrange(5), rng.next_u64())
            summary = cross_check(g, t)
            assert summary.ok, summary.mismatches

    def test_infeasible_instance_is_not_a_mismatch(self):
        summary = cross_check(cayley_coloring(2), path_tree(5))
        assert summary.ok and not summary.engine_found


class TestDisjointImagesRule:
    @staticmethod
    def _random_instance(rng):
        # build two coordinate-labeled homomorphisms sharing an ambient cube,
        # upper-half edges drawing from disjoint pools so the hypotheses
        # often hold
        t1 = random_tree(rng.randrange(5), rng.next_u64())
        t2 = random_tree(rng.randrange(5), rng.next_u64())
        pool = list(range(24))
        connector = 24
        coords1 = {}
        coords2 = {}
        for t, coords in ((t1, coords1), (t2, coords2)):
            ceil_set = half_ceil(t)
            for child in t.edge_ids():
                if child in ceil_set and rng.randrange(4):
                    q = pool.pop(rng.randrange(len(pool)))
                else:
                    q = rng.randrange(26)
                coords[child] = q
        root1 = rng.randrange(1 << 20)
        image1 = {0: root1}
        for child in sorted(t1.edge_ids(), key=t1.level.__getitem__):
            image1[child] = image1[t1.parent[child]] ^ (1 << coords1[child])
        image2 = {0: root1 ^ (1 << connector)}
        for child in sorted(t2.edge_ids(), key=t2.level.__getitem__):
            image2[child] = image2[t2.parent[child]] ^ (1 << coords2[child])
        return t1, image1, t2, image2

    def test_hypotheses_force_disjoint_images(self):
        rng = SplitMix64(11)
        holds = 0
        for _ in range(4000):
            t1, image1, t2, image2 = self._random_instance(rng)
            if disjoint_images_guaranteed(t1, image1, t2, image2):
                holds += 1
                assert not set(image1.values()) & set(image2.values())
        assert holds > 100  # the generator actually exercises the rule

    def test_non_adjacent_roots_rejected(self):
        t = path_tree(1)
        assert not disjoint_images_guaranteed(t, {0: 0, 1: 1}, t, {0: 0, 1: 2})


class TestVerifierMutations:
    def test_single_vertex_corruptions_are_caught(self):
        # nudging any one vertex of a valid embedding must either trip a
        # check or (rarely) land on another genuinely valid embedding
        for seed in range(40):
            rng = SplitMix64(seed)
            n = 4 + rng.randrange(2)
            g = subgraph_min_degree(n, 1 + rng.randrange(n), rng.next_u64())
            t = random_tree(rng.randrange(g.delta() + 1), rng.next_u64())
            if t.n < 2:
                continue
            pe = embed_rainbow_tree(g, t)
            victim = rng.randrange(t.n)
            others = sorted(v for v in g.vertices if v != pe.image[victim])
            mutated = dict(pe.image)
            mutated[victim] = others[rng.randrange(len(others))]
            report = verify(g, t, mutated, require_path_distinct=True, z_bad=pe.z_bad)
            if report.ok:
                assert verify(g, t, mutated).ok  # still a real rainbow embedding


class TestBundles:
    def test_write_bundle_round_trips(self, tmp_path):
        g = cayley_coloring(3)
        t = path_tree(3)
        pe = embed_rainbow_tree(g, t)
        write_bundle(str(tmp_path / "case"), g, t, pe)
        g2 = parse_graph((tmp_path / "case" / "graph.txt").read_text())
        t2 = parse_tree((tmp_path / "case" / "tree.txt").read_text())
        image, _, _ = parse_embedding((tmp_path / "case" / "embedding.txt").read_text())
        assert list(g2.edges()) == list(g.edges())
        assert t2.parent == t.parent
        assert image == pe.image
        trace = [line for line in format_embedding(pe, include_trace=True).splitlines()
                 if line.startswith("trace ")]
        assert trace
        assert (tmp_path / "case" / "trace.txt").read_text() == "".join(f"{line}\n" for line in trace)
