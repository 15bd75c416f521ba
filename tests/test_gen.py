import hashlib

import pytest

from rainbowcube import cayley_coloring, format_graph
from rainbowcube.gen import (
    generate,
    greedy_proper,
    random_spider,
    random_tree,
    refined_cayley,
    subgraph_min_degree,
)
from rainbowcube.prng import SplitMix64, derive_seed
from rainbowcube.tree import deficiency

from test_hypercube import brute_force_proper


class TestSplitMix64:
    def test_reference_stream(self):
        # published finalizer vectors for seed 1234567
        rng = SplitMix64(1234567)
        assert [rng.next_u64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_seed_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_randrange_bounds(self):
        rng = SplitMix64(9)
        draws = [rng.randrange(7) for _ in range(200)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) > 1

    @pytest.mark.parametrize("n", [0, -3])
    def test_randrange_needs_a_nonempty_range(self, n):
        with pytest.raises(ValueError, match=f"^randrange needs n >= 1, got {n}$"):
            SplitMix64(9).randrange(n)

    def test_shuffle_deterministic(self):
        a, b = list(range(10)), list(range(10))
        SplitMix64(3).shuffle(a)
        SplitMix64(3).shuffle(b)
        assert a == b and a != list(range(10))

    def test_shuffle_is_the_per_draw_loop(self):
        # shuffle writes next_u64 out in its loop; the reference is the loop
        # it replaced, one randrange call per item
        def reference(rng, seq):
            for i in range(len(seq) - 1, 0, -1):
                j = rng.randrange(i + 1)
                seq[i], seq[j] = seq[j], seq[i]

        master = SplitMix64(2024)
        for length in range(101):
            for _ in range(5):  # 505 seeds in all
                seed = master.next_u64()
                fast, slow = SplitMix64(seed), SplitMix64(seed)
                a, b = list(range(length)), list(range(length))
                fast.shuffle(a)
                reference(slow, b)
                assert a == b
                assert fast.next_u64() == slow.next_u64()

    def test_shuffle_state_when_a_swap_fails(self):
        # the state advances before each swap, as one randrange call did
        fast, slow = SplitMix64(5), SplitMix64(5)
        with pytest.raises(TypeError):
            fast.shuffle((1, 2, 3))
        slow.randrange(3)
        assert fast.next_u64() == slow.next_u64()

    def test_derive_seed_is_stream_offset(self):
        rng = SplitMix64(42)
        stream = [rng.next_u64() for _ in range(5)]
        assert [derive_seed(42, i) for i in range(5)] == stream


class TestRefinedCayley:
    def test_splits_one_is_cayley(self):
        assert list(refined_cayley(3, 123, 1).edges()) == list(cayley_coloring(3).edges())

    def test_valid_and_bounded_palette(self):
        g = refined_cayley(3, 7, 2)
        assert brute_force_proper(list(g.edges()))
        n_colors = len({c for _, _, c in g.edges()})
        assert 3 <= n_colors <= 6

    def test_degrees_unchanged(self):
        assert refined_cayley(4, 5, 4).delta() == 4

    def test_deterministic(self):
        a = list(refined_cayley(4, 9, 3).edges())
        assert a == list(refined_cayley(4, 9, 3).edges())
        assert a != list(refined_cayley(4, 10, 3).edges())


class TestGreedyProper:
    def test_valid_and_palette_bound(self):
        for seed in range(10):
            g = greedy_proper(4, seed)
            assert brute_force_proper(list(g.edges()))
            assert all(c < 2 * 4 - 1 for _, _, c in g.edges())

    def test_deterministic(self):
        assert list(greedy_proper(3, 2).edges()) == list(greedy_proper(3, 2).edges())


class TestSubgraphMinDegree:
    def test_degree_floor_holds(self):
        for seed in range(20):
            g = subgraph_min_degree(4, 3, seed)
            assert g.delta() >= 3
            assert brute_force_proper(list(g.edges()))

    def test_full_degree_request(self):
        g = subgraph_min_degree(3, 3, 11)
        assert g.delta() == 3

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            subgraph_min_degree(3, 0, 1)
        with pytest.raises(ValueError):
            subgraph_min_degree(3, 4, 1)

    def test_deterministic_bytes(self):
        a = format_graph(subgraph_min_degree(5, 3, 77))
        b = format_graph(subgraph_min_degree(5, 3, 77))
        assert a == b


class TestRandomTrees:
    def test_spider_examples(self):
        assert deficiency(random_spider([2, 2, 4])) == 0
        t = random_spider([3, 1])
        assert t.n_edges() == 4

    def test_spider_rejects_bad_legs(self):
        with pytest.raises(ValueError):
            random_spider([])
        with pytest.raises(ValueError):
            random_spider([2, 0])

    def test_random_tree_sizes(self):
        assert random_tree(0, 5).n == 1
        assert random_tree(12, 5).n == 13


class TestGenSpec:
    def test_dispatch_matches_direct_call(self):
        g = generate("refined_cayley", 7, {"n": 3, "splits": 2})
        assert list(g.edges()) == list(refined_cayley(3, 7, 2).edges())

    def test_spider_spec(self):
        assert generate("random_spider", 0, {"legs": (2, 3)}).n_edges() == 5

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            generate("mystery", 0, {})

    @pytest.mark.parametrize("kind, params, name", [
        ("cayley", {}, "n"),
        ("refined_cayley", {"splits": 3}, "n"),
        ("subgraph_min_degree", {"n": 4}, "d"),
        ("random_spider", {}, "legs"),
    ])
    def test_a_missing_parameter_is_named(self, kind, params, name):
        with pytest.raises(ValueError, match=f"^generator '{kind}' needs parameter '{name}'$"):
            generate(kind, 0, params)


class TestGeneratorDigest:
    # sha256 over format_graph of the three randomized host generators; any
    # change to their draws, or to the order they draw in, moves it
    DIGEST = "90e8ec349ebbc3f5b6da2ea43cc63a7c7d7dea5c47d6346b23d4741d3be90347"

    def test_hosts_are_byte_identical(self):
        h = hashlib.sha256()
        for n in range(1, 8):
            for seed in range(6):
                h.update(format_graph(refined_cayley(n, seed, 1 + seed % 3)).encode())
                h.update(format_graph(greedy_proper(n, seed)).encode())
                h.update(format_graph(subgraph_min_degree(n, 1 + seed % n, seed)).encode())
        assert h.hexdigest() == self.DIGEST
