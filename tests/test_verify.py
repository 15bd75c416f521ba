import importlib
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcube import (
    ColoredCubeGraph,
    VirtualCayleyCube,
    build_tree,
    cayley_coloring,
    cross_check,
    embed_rainbow_tree,
    format_embedding,
    format_graph,
    oracle_find,
    oracle_no_rainbow_cycle,
    parse_embedding,
    parse_graph,
    parse_tree,
    path_tree,
    verify,
    write_bundle,
)
from rainbowcube.cli import main
from rainbowcube.errors import DegreeTooSmall, LimitExceeded
from rainbowcube.gen import greedy_proper, random_spider, random_tree, refined_cayley, subgraph_min_degree
from rainbowcube.hypercube import edge_coordinate
from rainbowcube.prng import SplitMix64
from rainbowcube.report import Check
from rainbowcube.tree import enumerate_trees, half_ceil
from rainbowcube.verify import OracleResult, _path_repeat_witness


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

    def test_a_passing_report_has_no_first_failure(self):
        g, t = cayley_coloring(3), path_tree(3)
        pe = embed_rainbow_tree(g, t)
        report = verify(g, t, pe.image, z_bad=pe.z_bad)
        assert report.ok and report.failed() == () and report.first_failure() is None

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
        result = oracle_find(cayley_coloring(4), path_tree(4), budget=3)
        assert not result.found and not result.exhausted and result.image is None
        assert result.nodes_explored == 5  # the root, three placements, the refused one
        with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
            oracle_find(cayley_coloring(4), path_tree(4), budget=-1)

    def test_fields_can_be_assigned(self):
        # a caller may amend a result in place, as perfbench's sharpness
        # control test does
        result = oracle_find(cayley_coloring(3), path_tree(4))
        result.found, result.image, result.nodes_explored, result.exhausted = True, {}, 0, False
        assert outcome(result) == (True, {}, 0, False)

    def test_a_search_deeper_than_the_stack_is_a_limit(self):
        g = refined_cayley(12, 1, 400)
        message = "^oracle search on 1100 edges is deeper than the interpreter's stack$"
        with pytest.raises(LimitExceeded, match=message):
            oracle_find(g, random_spider((1100,)))

    def test_reads_each_visited_vertex_once(self, monkeypatch):
        # Q_10 colored by coordinate has 10 colors, so no 12-edge path is
        # rainbow; a budgeted search asks the host only at the vertices it
        # places, and at each of them once
        asked = []
        incident = ColoredCubeGraph.incident
        monkeypatch.setattr(ColoredCubeGraph, "incident",
                            lambda self, x: asked.append(x) or incident(self, x))
        result = oracle_find(cayley_coloring(10), path_tree(12), budget=40)
        assert not result.exhausted
        assert 1 < len(asked) == len(set(asked)) <= 41

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

    def test_reads_each_vertex_once(self, monkeypatch):
        asked = []
        incident = ColoredCubeGraph.incident
        monkeypatch.setattr(ColoredCubeGraph, "incident",
                            lambda self, x: asked.append(x) or incident(self, x))
        assert oracle_no_rainbow_cycle(cayley_coloring(4), 8)
        assert sorted(asked) == list(range(16))

    def test_guards(self):
        with pytest.raises(LimitExceeded):
            oracle_no_rainbow_cycle(cayley_coloring(6), 4)
        with pytest.raises(LimitExceeded):
            oracle_no_rainbow_cycle(cayley_coloring(3), 5)


# --- the plain backtrackers ------------------------------------------------
#
# The oracles as they were before their state became bits: sets of used
# vertices and colors, a call for every placement.  They are the reference
# the oracles in the package must match node for node.


class _IncidentMemo(dict):
    """The host's incident records at each vertex, asked of the host once,
    the first time the vertex is looked up.  A search revisits its few
    vertices many times, while an explicit host builds records per call."""

    def __init__(self, g):
        super().__init__()
        self.g = g

    def __missing__(self, x: int):
        records = self[x] = self.g.incident(x)
        return records


def plain_oracle_find(g, t, budget=None) -> OracleResult:
    """The reference for `oracle_find`: the same search order, budget and
    node count, with the state held in sets."""
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    # order[0] is the root 0, the only level-0 vertex, since the key is (level, id)
    order = sorted(range(t.n), key=lambda v: (t.level[v], v))
    nodes = 0
    incident = _IncidentMemo(g)

    image: dict[int, int] = {}
    used_vertices: set[int] = set()
    used_colors: set[int] = set()

    def place(i: int) -> bool | None:
        # True: all placed; False: branch exhausted; None: budget ran out
        nonlocal nodes, budget
        if i == len(order):
            return True
        v = order[i]
        src = image[t.parent[v]]
        for _, y, c in incident[src]:
            if y in used_vertices or c in used_colors:
                continue
            nodes += 1
            if budget is not None:
                if budget == 0:
                    return None
                budget -= 1
            image[v] = y
            used_vertices.add(y)
            used_colors.add(c)
            placed = place(i + 1)
            if placed is not False:
                return placed
            del image[v]
            used_vertices.discard(y)
            used_colors.discard(c)
        return False

    for r in sorted(g.vertices):
        nodes += 1
        image = {0: r}
        used_vertices = {r}
        used_colors = set()
        placed = place(1)
        if placed is None:
            return OracleResult(False, None, nodes, False)
        if placed:
            return OracleResult(True, dict(image), nodes, True)
    return OracleResult(False, None, nodes, True)


def plain_no_rainbow_cycle(g, max_len: int) -> bool:
    """The reference for `oracle_no_rainbow_cycle`, guards left out."""
    verts = sorted(g.vertices)
    incident = _IncidentMemo(g)

    def walk(start: int, here: int, depth: int, on_path: set[int], colors: set[int]) -> bool:
        # canonical traversal: intermediate vertices stay above `start`
        for _, y, c in incident[here]:
            if c in colors:
                continue
            if y == start and depth >= 3:
                return True  # rainbow cycle closed
            if y <= start or y in on_path or depth + 1 >= max_len:
                continue
            on_path.add(y)
            colors.add(c)
            if walk(start, y, depth + 1, on_path, colors):
                return True
            on_path.discard(y)
            colors.discard(c)
        return False

    for s in verts:
        if walk(s, s, 0, {s}, set()):
            return False
    return True


def outcome(result: OracleResult) -> tuple:
    return result.found, result.image, result.nodes_explored, result.exhausted


BUDGETS = (None, 0, 1, 3, 17, 200)


def grid_hosts(n: int) -> list:
    return [
        cayley_coloring(n),
        refined_cayley(n, 11 * n, 2),
        subgraph_min_degree(n, max(1, n - 2), 13 * n),
        greedy_proper(n, 17 * n),
    ]


class TestOracleAgainstPlain:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_same_search_node_for_node(self, n):
        searched = set()
        for h, g in enumerate(grid_hosts(n)):
            for e in range(n + 2):
                t = random_tree(e, 100 * n + 10 * h + e)
                for budget in BUDGETS:
                    want = outcome(plain_oracle_find(g, t, budget))
                    assert outcome(oracle_find(g, t, budget)) == want, (n, h, e, budget)
                    searched.add((want[0], want[3]))
        # the grid holds finds, exhaustions (the sharpness controls: e = n + 1
        # on cayley_coloring(n), every root tried) and budget stops
        assert searched == {(True, True), (False, True), (False, False)}

    def test_colors_far_from_small(self):
        # a color value of 10**12 numbers like any other: the same search
        base = refined_cayley(4, 5, 2)
        g = ColoredCubeGraph(4, [(u, v, 10**12 + c) for u, v, c in base.edges()])
        for e in range(6):
            t = random_tree(e, e)
            for budget in BUDGETS:
                want = outcome(plain_oracle_find(base, t, budget))
                assert outcome(oracle_find(g, t, budget)) == want
                assert outcome(plain_oracle_find(g, t, budget)) == want

    def test_a_wide_host_search_stays_small(self):
        # bits are numbered as the search meets vertices and colors, so a
        # budgeted search in Q_14 holds ints of a few thousand bits at most,
        # never one bit per host vertex
        g = refined_cayley(14, 3, 2)
        t = path_tree(29)  # 28 colors: never rainbow, so the budget runs out
        tracemalloc.start()
        try:
            result = oracle_find(g, t, budget=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert outcome(result) == (False, None, 1002, False)
        assert peak < 1 << 19, peak

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_no_rainbow_cycle_matches_plain(self, n):
        hosts = grid_hosts(n) + [refined_cayley(n, s, 3) for s in range(3)]
        answers = set()
        for g in hosts:
            for max_len in (4, 6, 8):
                want = plain_no_rainbow_cycle(g, max_len)
                assert oracle_no_rainbow_cycle(g, max_len) == want
                answers.add(want)
        if n >= 3:
            assert answers == {True, False}


# the module; `rainbowcube.verify` is the function
VERIFY = importlib.import_module("rainbowcube.verify")


def raising(exc):
    def engine(g, t):
        raise exc
    return engine


def engine_repeating_the_root(g, t):
    """The engine's embedding with vertex 2 moved onto the root's image."""
    pe = embed_rainbow_tree(g, t)
    pe.image[2] = pe.image[0]
    return pe


class TestCrossCheck:
    @pytest.mark.parametrize("name, fault, mismatch", [
        ("embed_rainbow_tree", raising(DegreeTooSmall("delta=1 < e(T)=2")),
         "engine refused although delta >= e(T)"),
        ("embed_rainbow_tree", raising(KeyError(7)), "engine raised KeyError: 7"),
        ("embed_rainbow_tree", engine_repeating_the_root,
         "verify failed: FAIL injective  [vertices 0 and 2 both map to 000]"),
        ("oracle_find", lambda g, t: OracleResult(False, None, 8, True),
         "oracle found no embedding although delta >= e(T)"),
        ("oracle_find", lambda g, t: OracleResult(True, {0: 0, 1: 1, 2: 0}, 3, True),
         "oracle output failed verify: FAIL injective  [vertices 0 and 2 both map to 000]"),
    ], ids=["engine-refuses", "engine-raises", "engine-repeats-an-image", "oracle-finds-nothing",
            "oracle-repeats-an-image"])
    def test_each_fault_is_reported(self, name, fault, mismatch, monkeypatch):
        # what `rainbowcube fuzz` reports when the engine or the oracle is wrong
        monkeypatch.setattr(VERIFY, name, fault)
        summary = cross_check(cayley_coloring(3), path_tree(2))
        assert summary.mismatches == (mismatch,) and not summary.ok

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


def disjoint_images_guaranteed(t1, image1, t2, image2) -> bool:
    """Do two homomorphisms with adjacent root images satisfy the disjointness
    hypotheses?

    (a) each is path-distinct on its upper-closed half, (b) the half images
    use disjoint coordinate sets, (c) the root-root edge's coordinate meets
    neither.  When all hold the image vertex sets cannot intersect.  The
    rule under test here, with the verifier's one-pass path check.
    """
    x = image1[0] ^ image2[0]
    if x == 0 or x & (x - 1):
        return False
    connector = x.bit_length() - 1

    half_coords = []
    for t, image in ((t1, image1), (t2, image2)):
        coords = {c: edge_coordinate(image[t.parent[c]], image[c]) for c in half_ceil(t)}
        if _path_repeat_witness(t, coords):
            return False
        half_coords.append(set(coords.values()))
    first, second = half_coords
    return not first & second and connector not in first | second


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


def _per_leaf_repeat(t, coord):
    """Reference path check: walk the root path of every leaf in id order and
    report the first whose upper-closed-half coordinates repeat."""
    ceil_set = half_ceil(t)
    for leaf in range(1, t.n):
        if t.children[leaf]:
            continue
        path = []
        v = leaf
        while v:
            path.append(v)
            v = t.parent[v]
        coords = [coord[v] for v in reversed(path) if v in ceil_set]
        if len(set(coords)) != len(coords):
            return leaf, coords
    return None


def _reference_disjoint(t1, image1, t2, image2):
    """Reference disjointness rule, with the per-leaf path check."""
    x = image1[0] ^ image2[0]
    if x == 0 or x & (x - 1):
        return False
    half_coords = []
    for t, image in ((t1, image1), (t2, image2)):
        coords = {c: (image[t.parent[c]] ^ image[c]).bit_length() - 1 for c in half_ceil(t)}
        if _per_leaf_repeat(t, coords) is not None:
            return False
        half_coords.append(set(coords.values()))
    if half_coords[0] & half_coords[1]:
        return False
    return x.bit_length() - 1 not in half_coords[0] | half_coords[1]


@st.composite
def labelled_trees(draw):
    """A random tree with ids shuffled, so id order is not preorder, and a
    coordinate per edge from the alphabet 0..3, so root paths often repeat
    one."""
    m = draw(st.integers(0, 11))
    parents = [draw(st.integers(0, i)) for i in range(m)]
    relabel = [0] + draw(st.permutations(range(1, m + 1)))
    new_parents = [0] * m
    for v, p in enumerate(parents, start=1):
        new_parents[relabel[v] - 1] = relabel[p]
    t = build_tree(new_parents)
    coord = {v: draw(st.integers(0, 3)) for v in t.edge_ids()}
    return t, coord


def _image(t, coord, root):
    image = {0: root}
    for v in t.preorder().order[1:]:
        image[v] = image[t.parent[v]] ^ (1 << coord[v])
    return image


class TestPathDistinctAgainstPerLeafWalk:
    """The one-pass path check decides and reports as the per-leaf walk does."""

    @given(labelled_trees())
    @settings(max_examples=400, deadline=None)
    def test_verify_check(self, tree):
        t, coord = tree
        report = verify(VirtualCayleyCube(4), t, _image(t, coord, 0), require_path_distinct=True)
        (check,) = [c for c in report.checks if c.name == "path_distinct_ceil_half"]
        repeat = _per_leaf_repeat(t, coord)
        witness = "" if repeat is None else (
            f"root path to leaf {repeat[0]} repeats a coordinate in {repeat[1]}")
        assert check == Check("path_distinct_ceil_half", repeat is None, witness)

    @given(labelled_trees(), labelled_trees(), st.sampled_from([0, 4]), st.sampled_from([3, 8]))
    @settings(max_examples=400, deadline=None)
    def test_disjointness_rule(self, first, second, shift, connector):
        # the second tree's coordinates shifted clear of the first's, or not,
        # and a connector inside or outside both alphabets
        (t1, coord1), (t2, coord2) = first, second
        image1 = _image(t1, coord1, 0)
        image2 = _image(t2, {v: q + shift for v, q in coord2.items()}, 1 << connector)
        assert disjoint_images_guaranteed(t1, image1, t2, image2) == _reference_disjoint(
            t1, image1, t2, image2)


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

    def test_implicit_cube_bundles_as_the_explicit_host_it_equals(self, tmp_path):
        g, t = VirtualCayleyCube(4), path_tree(2)
        case = tmp_path / "case"
        write_bundle(str(case), g, t, embed_rainbow_tree(g, t))
        assert (case / "graph.txt").read_text() == format_graph(cayley_coloring(4))
        assert main(["verify", *(str(case / name) for name in ("graph.txt", "tree.txt", "embedding.txt"))]) == 0
        # the oracle and the cross-check list its vertices as they list an explicit host's
        assert oracle_find(g, t).found and cross_check(g, t).ok

    def test_implicit_cube_past_q16_is_not_listed(self):
        g = VirtualCayleyCube(17)
        for listing in (format_graph, lambda g: g.vertices, lambda g: g.edges()):
            with pytest.raises(LimitExceeded):
                listing(g)
