import hashlib
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import rainbowcube
import rainbowcube.prng as prng
from rainbowcube import ColoredCubeGraph, cayley_coloring, format_graph
from rainbowcube.gen import (
    KEEP_PERCENT,
    _refined_edges,
    generate,
    greedy_proper,
    random_spider,
    random_tree,
    refined_cayley,
    subgraph_min_degree,
)
from rainbowcube.hypercube import cube_edges
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
        # the state advances before each swap, as one randrange call did,
        # though the draws of a long tuple come a block at a time
        for length in (3, 3 * prng._CHUNK + 5):
            fast, slow = SplitMix64(5), SplitMix64(5)
            with pytest.raises(TypeError):
                fast.shuffle(tuple(range(length)))
            slow.randrange(length)
            assert fast.next_u64() == slow.next_u64()

    # 0 draws, 1, and each side of the first three block boundaries
    DRAW_COUNTS = [0, 1] + [b * prng._CHUNK + e for b in (1, 2, 3) for e in (-1, 0, 1)]
    # the lowest and highest seeds, and a state one gamma below the wrap
    DRAW_SEEDS = [0, 2**64 - 1, 2**64 - prng._GAMMA]

    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    def test_draws_are_next_u64_calls(self, seed):
        for k in self.DRAW_COUNTS:
            fast, slow = SplitMix64(seed), SplitMix64(seed)
            assert list(fast.draws(k)) == [slow.next_u64() for _ in range(k)]
            assert fast._state == slow._state
            assert fast.next_u64() == slow.next_u64()

    def test_draws_read_the_lanes_in_either_byte_order(self, monkeypatch):
        # array('Q') reads native order, so on a machine of the other byte
        # order it reads every 8 bytes of the lanes reversed; the kernel's
        # swap branch must turn them back
        def other_order(code, data=b""):
            lanes = array(code, data)
            lanes.byteswap()
            return lanes

        slow = SplitMix64(7)
        want = [slow.next_u64() for _ in range(prng._CHUNK + 3)]
        monkeypatch.setattr(prng, "array", other_order)
        assert list(SplitMix64(7).draws(len(want))) != want
        monkeypatch.setattr(prng, "_SWAP", not prng._SWAP)
        assert list(SplitMix64(7).draws(len(want))) == want

    def test_importing_the_package_builds_no_lanes(self):
        # the lane constants cost their build on the first draw, not on import
        src = Path(rainbowcube.__file__).resolve().parents[1]
        code = ("import rainbowcube, rainbowcube.prng as p; print(p._LANES is None); "
                "import rainbowcube.gen as g; g.subgraph_min_degree(3, 2, 1); print(p._LANES is None)")
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["True", "False"]

    def test_derive_seed_is_stream_offset(self):
        rng = SplitMix64(42)
        stream = [rng.next_u64() for _ in range(5)]
        assert [derive_seed(42, i) for i in range(5)] == stream


# --- the per-draw generators -------------------------------------------------
#
# The host generators as they were before their draws came from
# SplitMix64.draws: one randrange call per draw and, in subgraph_min_degree,
# dicts by vertex read with pop(0).  Bodies copied verbatim, but for the
# names.  They are the reference the generators must match edge for edge.


def plain_refined_edges(n: int, seed: int, splits: int):
    """An iterator over the edges of refined_cayley(n, seed, splits), in
    sorted order; it draws each subclass as it yields that edge."""
    if splits < 1:
        raise ValueError(f"splits must be >= 1, got {splits}")
    edges = cube_edges(n)
    if splits == 1:
        return edges
    draw = SplitMix64(seed).randrange
    return ((u, v, q * splits + draw(splits)) for u, v, q in edges)


def plain_greedy_proper(n: int, seed: int) -> ColoredCubeGraph:
    rng = SplitMix64(seed)
    kept = [(u, v) for u, v, _ in cube_edges(n) if rng.randrange(100) < KEEP_PERCENT]
    rng.shuffle(kept)
    palette_at: dict[int, set[int]] = {}
    edges = []
    for u, v in kept:
        used = palette_at.setdefault(u, set()) | palette_at.setdefault(v, set())
        c = 0
        while c in used:
            c += 1
        palette_at[u].add(c)
        palette_at[v].add(c)
        edges.append((u, v, c))
    return ColoredCubeGraph(n, edges)


def plain_subgraph_min_degree(n: int, d: int, seed: int) -> ColoredCubeGraph:
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    rng = SplitMix64(seed)
    all_edges = list(plain_refined_edges(n, rng.next_u64(), 1 + rng.randrange(3)))
    rng.shuffle(all_edges)
    n_delete = rng.randrange(len(all_edges) // 2 + 1)
    deleted = all_edges[:n_delete]
    kept = all_edges[n_delete:]

    degree = {v: 0 for v in range(1 << n)}
    for u, v, _ in kept:
        degree[u] += 1
        degree[v] += 1

    removed_at: dict[int, list[tuple[int, int, int]]] = {v: [] for v in range(1 << n)}
    for u, v, c in sorted(deleted):
        removed_at[u].append((u, v, c))
        removed_at[v].append((u, v, c))

    restored: set[tuple[int, int]] = set()
    for x in range(1 << n):
        while degree[x] < d and removed_at[x]:
            u, v, c = removed_at[x].pop(0)
            if (u, v) in restored:
                continue
            restored.add((u, v))
            kept.append((u, v, c))
            degree[u] += 1
            degree[v] += 1
    return ColoredCubeGraph(n, kept)


def same_host(a: ColoredCubeGraph, b: ColoredCubeGraph) -> bool:
    return list(a.edges()) == list(b.edges()) and a.vertices == b.vertices


class TestAgainstPlain:
    SEEDS = range(40)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_subgraph_min_degree(self, n):
        for d in range(1, n + 1):
            for seed in self.SEEDS:
                assert same_host(subgraph_min_degree(n, d, seed), plain_subgraph_min_degree(n, d, seed))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_greedy_proper(self, n):
        for seed in self.SEEDS:
            assert same_host(greedy_proper(n, seed), plain_greedy_proper(n, seed))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_refined_edges(self, n):
        for splits in (1, 2, 3, 7):
            for seed in self.SEEDS:
                assert list(_refined_edges(n, seed, splits)) == list(plain_refined_edges(n, seed, splits))

    def test_refined_edges_across_blocks(self):
        # Q_12 has 96 blocks of draws; the stream crosses each boundary in step
        for seed in (0, 2**64 - 1):
            assert list(_refined_edges(12, seed, 3)) == list(plain_refined_edges(12, seed, 3))


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
