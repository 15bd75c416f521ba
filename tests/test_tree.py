import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcube import (
    as_spider,
    build_tree,
    canonical_form,
    classify_children,
    deficiency,
    degree_sum_identity,
    enumerate_trees,
    format_tree,
    half_ceil,
    half_floor,
    iota_injection,
    parse_tree,
    path_tree,
)
from rainbowcube.errors import (
    CycleDetected,
    DisconnectedInput,
    EmptyTree,
    FormatError,
    IndexOutOfRange,
    LimitExceeded,
)
from rainbowcube.gen import random_spider, random_tree

# 14-vertex branching example: a root path splitting into four maximal paths
# of lengths 4, 7, 3, 4
BRANCHING_14 = [0, 1, 2, 3, 2, 5, 6, 2, 1, 9, 10, 7, 12]

# 49-vertex classification example: three root leaves, two even-spider
# children, four children of deficiencies 1, 1, 2, 3
CLASSIFY_49 = [
    0, 0, 0, 0, 0, 0, 0, 0, 0,
    4, 10, 11, 12, 4, 14, 15, 16, 4, 18,
    5, 20, 5, 22, 5, 24,
    6, 6, 27, 6, 29,
    7, 31, 7, 33, 33,
    8, 36, 37, 8, 39, 40,
    9, 42, 9, 44, 44, 45, 45,
]


@st.composite
def parent_lists(draw, max_edges=9):
    m = draw(st.integers(0, max_edges))
    return [draw(st.integers(0, i)) for i in range(m)]


class TestBuildTree:
    def test_single_vertex(self):
        t = build_tree([])
        assert t.n == 1 and t.level[0] == 0 and t.level_max[0] == 0

    def test_path(self):
        t = build_tree([0, 1])
        assert t.level == (0, 1, 2)
        assert t.level_max[0] == 2

    def test_cycle_detected(self):
        with pytest.raises(CycleDetected):
            build_tree([2, 1])  # 1 and 2 point at each other

    def test_self_parent(self):
        with pytest.raises(CycleDetected):
            build_tree([1])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            build_tree([0, 9])

    def test_children_sorted(self):
        t = build_tree([0, 0, 1, 1])
        assert t.children[0] == (1, 2)
        assert t.children[1] == (3, 4)

    def test_levels_regardless_of_order(self):
        # vertex ids need not be topologically ordered
        t = build_tree([2, 0, 0])
        assert t.level == (0, 2, 1, 1)


class TestHalves:
    def test_two_edge_path(self):
        t = build_tree([0, 1])
        assert half_floor(t) == {1}
        assert half_ceil(t) == {1}

    def test_branching_example(self):
        t = build_tree(BRANCHING_14)
        assert len(half_floor(t)) == 4
        assert len(half_ceil(t)) == 5
        assert half_floor(t) == {1, 2, 5, 9}
        assert half_ceil(t) == {1, 2, 5, 6, 9}

    def test_star_floor_empty(self):
        t = build_tree([0] * 5)
        assert half_floor(t) == frozenset()
        assert half_ceil(t) == frozenset({1, 2, 3, 4, 5})

    @given(parent_lists())
    @settings(max_examples=150, deadline=None)
    def test_floor_inside_ceil(self, parents):
        t = build_tree(parents)
        assert half_floor(t) <= half_ceil(t)

    @given(parent_lists())
    @settings(max_examples=150, deadline=None)
    def test_halves_are_downward_closed(self, parents):
        t = build_tree(parents)
        for half in (half_floor(t), half_ceil(t)):
            for v in half:
                assert t.parent[v] == 0 or t.parent[v] in half


class TestDeficiency:
    def test_even_spider(self):
        assert deficiency(random_spider([2, 2, 4])) == 0

    def test_five_leg_spider(self):
        assert deficiency(random_spider([5, 4, 4, 2, 2])) == 1

    def test_single_edge(self):
        assert deficiency(build_tree([0])) == 1

    @given(parent_lists())
    @settings(max_examples=200, deadline=None)
    def test_never_negative(self, parents):
        assert deficiency(build_tree(parents)) >= 0

    @given(parent_lists())
    @settings(max_examples=200, deadline=None)
    def test_zero_forces_even_spider(self, parents):
        t = build_tree(parents)
        if t.n > 1 and deficiency(t) == 0:
            shape = as_spider(t)
            assert shape is not None and shape.odd_legs == 0

    @given(parent_lists())
    @settings(max_examples=200, deadline=None)
    def test_deficiency_one_dichotomy(self, parents):
        t = build_tree(parents)
        if t.n > 1 and deficiency(t) == 1:
            shape = as_spider(t)
            assert half_floor(t) == half_ceil(t) or (
                shape is not None and shape.odd_legs == 1
            )

    def test_spider_deficiency_counts_odd_legs(self):
        for legs in [[1], [2], [3, 3], [1, 2, 3], [5, 4, 4, 2, 2], [7, 1, 1]]:
            t = random_spider(legs)
            assert deficiency(t) == sum(l % 2 for l in legs)


class TestAsSpider:
    def test_path(self):
        shape = as_spider(path_tree(4))
        assert shape.leg_lengths == (4,)
        assert shape.odd_legs == 0

    def test_five_legs(self):
        shape = as_spider(random_spider([5, 4, 4, 2, 2]))
        assert sorted(shape.leg_lengths, reverse=True) == [5, 4, 4, 2, 2]
        assert shape.odd_legs == 1

    def test_branching_example_is_not_a_spider(self):
        assert as_spider(build_tree(BRANCHING_14)) is None

    def test_single_vertex_raises(self):
        with pytest.raises(EmptyTree):
            as_spider(build_tree([]))

    def test_legs_partition_edges(self):
        shape = as_spider(random_spider([3, 2, 5, 1]))
        seen = [v for leg in shape.legs for v in leg[1:]]
        assert len(seen) == len(set(seen)) == 11


class TestClassifyChildren:
    def test_star(self):
        cls = classify_children(build_tree([0, 0, 0]))
        assert len(cls.leaves) == 3 and not cls.spiders and not cls.rest

    def test_one_even_spider_child(self):
        cls = classify_children(build_tree([0, 1, 2]))
        assert not cls.leaves and not cls.rest
        (sc,) = cls.spiders
        assert sc.vertex == 1 and sc.half_len == 1
        assert sc.mid_edge == 2 and sc.after_mid_edge == 3

    def test_classification_example(self):
        t = build_tree(CLASSIFY_49)
        cls = classify_children(t)
        assert cls.leaves == (1, 2, 3)
        assert [sc.vertex for sc in cls.spiders] == [4, 5]
        assert cls.rest == (6, 7, 8, 9)
        s1, s2 = cls.spiders
        assert s1.leg == (4, 10, 11, 12, 13) and s1.half_len == 2
        assert s1.mid_edge == 11 and s1.after_mid_edge == 12
        assert s2.leg == (5, 20, 21) and s2.half_len == 1
        assert s2.mid_edge == 20 and s2.after_mid_edge == 21

    def test_rest_sorted_by_deficiency(self):
        t = build_tree(CLASSIFY_49)
        cls = classify_children(t)
        order = [
            len(t.subtree_preorder(v)) - 1
            - 2
            * sum(
                1
                for w in t.subtree_preorder(v)
                if w != v
                and (t.level[w] - t.level[v]) <= (t.level_max[w] - t.level[v]) // 2
            )
            for v in cls.rest
        ]
        assert order == sorted(order) == [1, 1, 2, 3]

    @given(parent_lists())
    @settings(max_examples=150, deadline=None)
    def test_partitions_children(self, parents):
        t = build_tree(parents)
        if t.n == 1:
            return
        cls = classify_children(t)
        combined = sorted(cls.leaves + tuple(sc.vertex for sc in cls.spiders) + cls.rest)
        assert combined == list(t.children[0])


def walk(t, v):
    """v and its descendants, depth first with children in id order."""
    out, stack = [], [v]
    while stack:
        w = stack.pop()
        out.append(w)
        stack.extend(reversed(t.children[w]))
    return out


class TestSubtrees:
    """Every subtree quantity read off the preorder equals the same quantity
    of the subtree renumbered as a tree of its own (ids by preorder position)."""

    @given(parent_lists(max_edges=12))
    @settings(max_examples=150, deadline=None)
    def test_subtree_equals_its_renumbered_copy(self, parents):
        t = build_tree(parents)
        for v in range(t.n):
            sub = walk(t, v)
            index = {w: i for i, w in enumerate(sub)}
            copy = build_tree([index[t.parent[w]] for w in sub[1:]])
            base = t.level[v]
            floor = {w for w in sub[1:] if t.level[w] - base <= (t.level_max[w] - base) // 2}
            ceil = {w for w in sub[1:] if t.level[w] - base <= -((base - t.level_max[w]) // 2)}
            assert t.subtree_preorder(v) == tuple(sub)
            assert len(t.subtree_preorder(v)) - 1 == copy.n_edges() == len(sub) - 1
            assert half_floor(t, v) == floor and half_ceil(t, v) == ceil
            assert {index[w] for w in floor} == half_floor(copy)
            assert {index[w] for w in ceil} == half_ceil(copy)
            assert deficiency(t, v) == deficiency(copy) == len(sub) - 1 - 2 * len(floor)
            if copy.n == 1:
                continue
            shape, expected = as_spider(t, v), as_spider(copy)
            assert (shape is None) == (expected is None)
            if shape is not None:
                assert [[index[w] for w in leg] for leg in shape.legs] == [
                    list(leg) for leg in expected.legs
                ]
            cls, expected = classify_children(t, v), classify_children(copy)
            defic = [deficiency(t, w) for w in cls.rest]
            assert defic == sorted(defic) and 0 not in defic
            assert [index[w] for w in cls.leaves + cls.rest] == list(expected.leaves + expected.rest)
            assert [[index[w] for w in sc.leg] for sc in cls.spiders] == [
                list(sc.leg) for sc in expected.spiders
            ]


class TestIotaInjection:
    def test_path_reflection(self):
        assert iota_injection(path_tree(4)) == {1: 4, 2: 3}

    def test_star_empty(self):
        assert iota_injection(build_tree([0] * 5)) == {}

    @staticmethod
    def _reverse(t, child):
        # independent reversal: recover depth from the deepest level below
        # the edge and walk the root path back down
        v, w = t.parent[child], child
        l = t.level_max[w]
        d = l - t.level[v]
        path = [w]
        while t.parent[path[0]] is not None:
            path.insert(0, t.parent[path[0]])
        probe = w
        while t.level[probe] < l:
            probe = next(c for c in t.children[probe] if t.level_max[c] == l)
            path.append(probe)
        return path[d]

    @given(parent_lists())
    @settings(max_examples=200, deadline=None)
    def test_injective_into_complement_of_ceil(self, parents):
        t = build_tree(parents)
        iota = iota_injection(t)
        assert set(iota) == half_floor(t)
        assert len(set(iota.values())) == len(iota)
        assert not set(iota.values()) & half_ceil(t)

    @given(parent_lists())
    @settings(max_examples=200, deadline=None)
    def test_reverse_procedure_is_left_inverse(self, parents):
        t = build_tree(parents)
        for e, image in iota_injection(t).items():
            assert self._reverse(t, image) == e

    @given(parent_lists())
    @settings(max_examples=150, deadline=None)
    def test_witnesses_edge_count_inequality(self, parents):
        # e(T) - e(ceil) - |E2| >= e(floor) - |E1|
        t = build_tree(parents)
        e1 = sum(1 for c in t.children[0] if t.children[c])
        e2 = sum(1 for v in range(1, t.n) if not t.children[v] and t.parent[v] != 0)
        lhs = t.n_edges() - len(half_ceil(t)) - e2
        rhs = len(half_floor(t)) - e1
        assert lhs >= rhs

    @given(parent_lists())
    @settings(max_examples=150, deadline=None)
    def test_root_edges_reflect_to_leaf_edges(self, parents):
        # non-leaf root edges land on non-root leaf edges
        t = build_tree(parents)
        e1_set = {c for c in t.children[0] if t.children[c]}
        e2_set = {
            v for v in range(1, t.n) if not t.children[v] and t.parent[v] != 0
        }
        for e, image in iota_injection(t).items():
            if e in e1_set:
                assert image in e2_set


class TestDegreeSumIdentity:
    def test_spiders_balance(self):
        for legs in [[2, 2], [3, 4, 5], [1, 1, 1]]:
            lhs, rhs = degree_sum_identity(random_spider(legs))
            assert rhs == 0
            if min(legs) >= 2:
                assert lhs == 0

    def test_branching_example(self):
        lhs, rhs = degree_sum_identity(build_tree(BRANCHING_14))
        assert lhs == rhs >= 1

    def test_single_edge(self):
        assert degree_sum_identity(build_tree([0])) == (0, 0)

    @given(parent_lists())
    @settings(max_examples=300, deadline=None)
    def test_always_equal(self, parents):
        lhs, rhs = degree_sum_identity(build_tree(parents))
        assert lhs == rhs


def rooted_tree_counts(n_max):
    """Independent count of rooted trees by the Euler-transform recurrence."""
    a = [0, 1]
    for n in range(1, n_max):
        total = 0
        for k in range(1, n + 1):
            c = sum(d * a[d] for d in range(1, k + 1) if k % d == 0)
            total += c * a[n - k + 1]
        a.append(total // n)
    return a[1:]


class TestEnumerateTrees:
    def test_up_to_one_edge(self):
        assert len(list(enumerate_trees(1))) == 2

    def test_counts_match_recurrence(self):
        counts = {}
        for t in enumerate_trees(3):
            counts[t.n_edges()] = counts.get(t.n_edges(), 0) + 1
        assert [counts[i] for i in range(4)] == [1, 1, 2, 4]
        expected = rooted_tree_counts(9)  # 1 1 2 4 9 20 48 115 286
        full = {}
        for t in enumerate_trees(8):
            full[t.n] = full.get(t.n, 0) + 1
        assert [full[i] for i in range(1, 10)] == expected

    def test_all_valid_and_distinct(self):
        forms = set()
        for t in enumerate_trees(5):
            assert t.n_edges() <= 5
            forms.add(canonical_form(t))
        assert len(forms) == 1 + 1 + 2 + 4 + 9 + 20

    def test_guard(self):
        with pytest.raises(LimitExceeded):
            list(enumerate_trees(9))


class TestRandomTrees:
    def test_zero_edges(self):
        assert random_tree(0, 3).n == 1

    def test_valid(self):
        t = random_tree(5, 9)
        assert t.n == 6

    def test_deterministic(self):
        assert random_tree(20, 4).parent == random_tree(20, 4).parent
        assert random_tree(20, 4).parent != random_tree(20, 5).parent


class TestTreeFormat:
    def test_round_trip(self):
        t = random_tree(7, 1)
        again = parse_tree(format_tree(t))
        assert again.parent == t.parent

    def test_single_vertex_round_trip(self):
        assert parse_tree(format_tree(build_tree([]))).n == 1

    def test_rejects_malformed(self):
        with pytest.raises(FormatError):
            parse_tree("parents 0 1\n")
        with pytest.raises(FormatError):
            parse_tree("tree 0\n")
        with pytest.raises(DisconnectedInput):
            parse_tree("tree 3\nparents 0\n")
