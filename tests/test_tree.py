from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowcube import build_tree, format_tree, parse_tree, path_tree
from rainbowcube.errors import (
    CycleDetected,
    DisconnectedInput,
    EmptyTree,
    FormatError,
    IndexOutOfRange,
    LimitExceeded,
    PreconditionViolated,
)
from rainbowcube.gen import random_spider, random_tree
from rainbowcube.prng import SplitMix64
from rainbowcube.tree import (
    Preorder,
    as_spider,
    classify_children,
    deficiency,
    degree_sum_identity,
    enumerate_trees,
    half_ceil,
    half_floor,
    iota_injection,
)

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


# --- the two-walk tree builder ------------------------------------------------
#
# The builder that walked each parent chain with a three-state marker, sorted
# the vertices by level for level_max and walked the tree again for its
# preorder on first use; the reference for TestBuildTreeAgainstPlain.


class PlainTree:
    def __init__(self, parent: tuple, children: tuple, level: tuple, level_max: tuple):
        self.n = len(parent)
        self.parent = parent            # parent[0] is None
        self.children = children        # sorted tuples
        self.level = level
        self.level_max = level_max
        self._preorder = None

    def preorder(self) -> Preorder:
        """The preorder and subtree intervals, computed on first use."""
        if self._preorder is None:
            order = []
            stack = [0]
            while stack:
                w = stack.pop()
                order.append(w)
                stack.extend(reversed(self.children[w]))
            pos = [0] * self.n
            for i, w in enumerate(order):
                pos[w] = i
            size = [1] * self.n
            for w in reversed(order[1:]):
                size[self.parent[w]] += size[w]
            self._preorder = Preorder(
                tuple(order),
                tuple(pos),
                tuple(p + k for p, k in zip(pos, size)),
                tuple(2 * self.level[w] - self.level_max[w] for w in order),
            )
        return self._preorder


def plain_build_tree(parents):
    """Build and validate a rooted tree from the parents of vertices 1..n-1."""
    n = len(parents) + 1
    parent: list = [None] * n
    for i, p in enumerate(parents, start=1):
        if not 0 <= p < n:
            raise IndexOutOfRange(f"parent of vertex {i} is {p}, outside [0, {n})")
        parent[i] = p

    level = [0] * n
    state = [0] * n  # 0 unseen, 1 on stack, 2 resolved
    state[0] = 2
    for v in range(1, n):
        if state[v] == 2:
            continue
        chain = []
        w = v
        while state[w] == 0:
            state[w] = 1
            chain.append(w)
            w = parent[w]
        if state[w] == 1:
            raise CycleDetected(f"parent chain from vertex {v} loops at vertex {w}")
        base = level[w]
        for j, u in enumerate(reversed(chain), start=1):
            level[u] = base + j
            state[u] = 2

    kids: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        kids[parent[v]].append(v)

    level_max = list(level)
    for v in sorted(range(n), key=level.__getitem__, reverse=True):
        p = parent[v]
        if p is not None and level_max[v] > level_max[p]:
            level_max[p] = level_max[v]

    return PlainTree(
        tuple(parent),
        tuple(tuple(sorted(c)) for c in kids),
        tuple(level),
        tuple(level_max),
    )


def built(build, parents):
    """build(parents)'s tables, or the type and message of what it raised."""
    try:
        t = build(parents)
    except (IndexOutOfRange, CycleDetected) as exc:
        return type(exc), str(exc)
    return t.parent, t.children, t.level, t.level_max, t.preorder()


def random_parents(rng: SplitMix64) -> list[int]:
    """The parents of 1 to 11 vertices: some out of range, or all in range
    and most often with a cycle, or a tree's with its ids shuffled."""
    n = 1 + rng.randrange(11)
    kind = rng.randrange(3)
    if kind == 0:
        return [rng.randrange(n + 2) - 1 for _ in range(n - 1)]
    if kind == 1:
        return [rng.randrange(n) for _ in range(n - 1)]
    ids = list(range(1, n))
    rng.shuffle(ids)
    ids.insert(0, 0)  # vertex v of a tree with parents below it is named ids[v]
    parents = [0] * (n - 1)
    for v in range(1, n):
        parents[ids[v] - 1] = ids[rng.randrange(v)]
    return parents


class TestBuildTreeAgainstPlain:
    """build_tree's one walk makes the tables the two-walk builder made, and
    refuses what it refused with the same exception and message."""

    @staticmethod
    def same(parents):
        assert built(build_tree, parents) == built(plain_build_tree, parents), parents

    def test_every_tree_to_8_edges(self):
        for t in enumerate_trees(8):
            self.same(list(t.parent[1:]))

    def test_a_long_path(self):
        self.same(list(range(3000)))

    def test_seeded_parent_arrays(self):
        rng = SplitMix64(27)
        outcomes = set()
        for _ in range(20_000):
            parents = random_parents(rng)
            self.same(parents)
            outcome = built(plain_build_tree, parents)
            outcomes.add(outcome[0] if len(outcome) == 2 else "tree")
        assert outcomes == {IndexOutOfRange, CycleDetected, "tree"}


class TestHalves:
    def test_the_tables_count_and_bucket_every_half(self):
        # each subtree's lower-half size, and its upper-closed half less its
        # lower half read from the half-level buckets, against the sets
        trees = list(enumerate_trees(7)) + [random_tree(300, s) for s in range(6)]
        for t in trees:
            floor_size, bucket = t.halves()
            order, pos, end, _ = t.preorder()
            for v in range(t.n):
                row = bucket.get(t.level[v] + 1, [])
                middle = {order[i] for i in row if pos[v] < i < end[v]}
                assert floor_size[v] == len(half_floor(t, v))
                assert middle == half_ceil(t, v) - half_floor(t, v)

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

    def test_zero_deficiency_is_an_even_spider_at_every_vertex(self):
        # the reference for classify_children, which builds a spider child
        # from zero deficiency alone
        trees = chain(enumerate_trees(8), (random_tree(s % 33, s) for s in range(2000)))
        checked = 0
        for t in trees:
            for v in range(t.n):
                if t.children[v] and deficiency(t, v) == 0:
                    shape = as_spider(t, v)
                    assert shape is not None and shape.odd_legs == 0, (t, v)
                    checked += 1
        assert checked > 1000

    def test_deficiency_one_with_a_middle_edge_is_a_spider_at_every_vertex(self):
        # the reference for _tree_frame's step7-mid, which hands such a
        # subtree to the spider stage with its one odd leg as leg one
        trees = chain(enumerate_trees(8), (random_tree(s % 41, s) for s in range(3000)))
        checked = 0
        for t in trees:
            for v in range(t.n):
                if t.children[v] and deficiency(t, v) == 1 and half_ceil(t, v) != half_floor(t, v):
                    shape = as_spider(t, v)
                    assert shape is not None and shape.odd_legs == 1, (t, v)
                    checked += 1
        assert checked > 10000

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

    def test_a_leaf_has_nothing_to_classify(self):
        with pytest.raises(EmptyTree, match="^no edges to classify$"):
            classify_children(build_tree([0]), 1)

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


# --- iota_injection as it was before it read each image off chains ----------
#
# It walks from every lower-half edge down to that edge's deepest leaf, which
# is quadratic on a path; the reference for TestIotaAgainstPlain.


def _max_level_path(t, w: int) -> list[int]:
    """Path from w to its first maximum-level descendant (children in id order)."""
    path = [w]
    target = t.level_max[w]
    while t.level[path[-1]] < target:
        nxt = next(c for c in t.children[path[-1]] if t.level_max[c] == target)
        path.append(nxt)
    return path


def plain_iota_injection(t) -> dict[int, int]:
    out: dict[int, int] = {}
    ceil_set = half_ceil(t)
    for w in sorted(half_floor(t)):
        d, l = t.level[w], t.level_max[w]
        down = _max_level_path(t, w)  # w = v_d, ..., v_l
        image = down[l - d + 1 - d]   # v_{l-d+1}, indexed relative to v_d
        if image in ceil_set:
            raise PreconditionViolated(f"iota maps edge {w} into the upper half")
        out[w] = image
    if len(set(out.values())) != len(out):
        raise PreconditionViolated("iota is not injective")
    return out


def relabelled(t, seed: int):
    """t with its non-root ids shuffled, so that id order and preorder part."""
    ids = list(range(1, t.n))
    SplitMix64(seed).shuffle(ids)
    new = [0, *ids]
    parents = [0] * (t.n - 1)
    for v in range(1, t.n):
        parents[new[v] - 1] = new[t.parent[v]]
    return build_tree(parents)


class TestIotaAgainstPlain:
    @staticmethod
    def same(t):
        # the same images, inserted in the same order
        assert list(iota_injection(t).items()) == list(plain_iota_injection(t).items()), t

    def test_every_tree_to_8_edges(self):
        for t in enumerate_trees(8):
            self.same(t)
            self.same(relabelled(t, t.n))

    def test_seeded_random_trees(self):
        for seed in range(60):
            t = random_tree(seed % 40 + 1, seed)
            self.same(t)
            self.same(relabelled(t, seed))

    def test_seeded_spiders(self):
        rng = SplitMix64(5)
        for _ in range(40):
            legs = [1 + rng.randrange(30) for _ in range(1 + rng.randrange(6))]
            t = random_spider(legs)
            self.same(t)
            self.same(relabelled(t, len(legs)))
        self.same(path_tree(300))


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


def canonical_form(t, v=0):
    """Canonical form of the subtree at v: the sorted tuple of its children's
    forms, so equal forms mean rooted-isomorphic subtrees.  Computed over
    the subtree's preorder backwards, children's forms before their
    parent's, so a tree of any height takes no interpreter recursion."""
    order, pos, end, _ = t.preorder()
    form = {}
    for w in reversed(order[pos[v] : end[v]]):
        form[w] = tuple(sorted(form[c] for c in t.children[w]))
    return form[v]


class TestCanonicalForm:
    def test_equal_exactly_for_isomorphic_subtrees(self):
        # the same shape with its children in another order
        assert canonical_form(build_tree([0, 1, 0])) == canonical_form(build_tree([0, 0, 2])) == ((), ((),))
        assert canonical_form(build_tree([0, 1, 0])) != canonical_form(build_tree([0, 1, 1]))
        # vertex 2 of BRANCHING_14 tops legs of 2, 5 and 1 edges
        assert canonical_form(build_tree(BRANCHING_14), 2) == canonical_form(build_tree([0, 0, 2, 0, 4, 5, 6, 7]))

    def test_a_path_deeper_than_the_recursion_limit(self):
        form = canonical_form(path_tree(1100))
        for _ in range(1100):
            (form,) = form
        assert form == ()


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
