"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

from rainbowcube import (
    build_tree,
    cayley_coloring,
    embed_rainbow_tree,
    format_embedding,
    format_tree,
    oracle_find,
    oracle_no_rainbow_cycle,
    path_tree,
    verify,
)
from rainbowcube.cli import main
from rainbowcube.errors import NoCandidate, PreconditionViolated
from rainbowcube.gen import random_spider, random_tree, refined_cayley, subgraph_min_degree
from rainbowcube.prng import SplitMix64, derive_seed
from rainbowcube.tree import (
    as_spider,
    deficiency,
    degree_sum_identity,
    enumerate_trees,
    half_ceil,
    half_floor,
    iota_injection,
)

from test_tree import BRANCHING_14


def _corpus(n):
    hosts = [cayley_coloring(n)] + [refined_cayley(n, seed, 1 + seed % 4) for seed in range(25)]
    return hosts, list(enumerate_trees(n))


def _report(k, ok, detail):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_exhaustive_theorem_check():
    start = time.monotonic()
    runs = failures = 0
    for n in (2, 3, 4):
        hosts, trees = _corpus(n)
        for g in hosts:
            for t in trees:
                pe = embed_rainbow_tree(g, t)
                report = verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad)
                runs += 1
                if not report.ok:
                    failures += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        failures == 0 and elapsed < 120,
        f"{runs} embed+verify runs, {failures} failures, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_oracle_concordance():
    start = time.monotonic()
    runs = disagreements = 0
    for n in (2, 3, 4):
        hosts, trees = _corpus(n)
        for g in hosts:
            for t in trees:
                if t.n_edges() > 8 or g.n_vertices() > 64:
                    continue
                result = oracle_find(g, t)
                runs += 1
                if not (result.found and result.exhausted):
                    disagreements += 1
    elapsed = time.monotonic() - start
    _report(
        2,
        disagreements == 0 and elapsed < 600,
        f"{runs} oracle runs, {disagreements} disagreements, {elapsed:.1f}s (< 600s)",
    )


def test_criterion_3_tightness_negative_control():
    ok = True
    details = []
    for n in (2, 3):
        result = oracle_find(cayley_coloring(n), path_tree(n + 1))
        ok &= (not result.found) and result.exhausted
        details.append(f"P_{n + 2} in Q_{n}: found={result.found} exhausted={result.exhausted}")
    for n in (3, 4):
        clear = oracle_no_rainbow_cycle(cayley_coloring(n), 8)
        ok &= clear
        details.append(f"no rainbow cycle Q_{n}: {clear}")
    _report(3, ok, "; ".join(details))


def test_criterion_4_structural_identities():
    start = time.monotonic()
    rng = SplitMix64(20240801)
    failures = 0
    for _ in range(10_000):
        t = random_tree(rng.randrange(13), rng.next_u64())
        floor, ceil = half_floor(t), half_ceil(t)
        d = deficiency(t)
        if d < 0:
            failures += 1
        if t.n > 1:
            shape = as_spider(t)
            if d == 0 and not (shape is not None and shape.odd_legs == 0):
                failures += 1
            if d == 1 and not (
                floor == ceil or (shape is not None and shape.odd_legs == 1)
            ):
                failures += 1
        iota = iota_injection(t)
        if set(iota) != floor or len(set(iota.values())) != len(iota):
            failures += 1
        if set(iota.values()) & ceil:
            failures += 1
        lhs, rhs = degree_sum_identity(t)
        if lhs != rhs:
            failures += 1
    elapsed = time.monotonic() - start
    _report(
        4,
        failures == 0 and elapsed < 30,
        f"10000 trees, {failures} failures, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_5_randomized_hosts():
    start = time.monotonic()
    master = 5150
    failures = precondition_violations = 0
    for trial in range(1000):
        rng = SplitMix64(derive_seed(master, trial))
        n = 5 + rng.randrange(2)
        d = 1 + rng.randrange(n)
        g = subgraph_min_degree(n, d, rng.next_u64())
        t = random_tree(rng.randrange(d + 1), rng.next_u64())
        try:
            pe = embed_rainbow_tree(g, t)
        except (PreconditionViolated, NoCandidate):
            precondition_violations += 1
            continue
        report = verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad)
        if not report.ok:
            failures += 1
        if pe.z_bad is not None and pe.z_bad in pe.image.values():
            failures += 1
    elapsed = time.monotonic() - start
    _report(
        5,
        failures == 0 and precondition_violations == 0,
        f"1000 trials, {failures} verify failures, "
        f"{precondition_violations} precondition violations, {elapsed:.1f}s",
    )


def test_criterion_6_determinism():
    def run_corpus():
        blobs = []
        for n in (2, 3, 4):
            hosts, trees = _corpus(n)
            for g in hosts:
                for t in trees:
                    pe = embed_rainbow_tree(g, t)
                    blobs.append(format_embedding(pe, include_trace=True))
        return "".join(blobs)

    first, second = run_corpus(), run_corpus()
    _report(
        6,
        first == second,
        f"two corpus passes produced {'identical' if first == second else 'different'}"
        f" embedding bytes ({len(first)} chars)",
    )


def test_criterion_7_reference_tree_reports(tmp_path, capsys):
    branching = tmp_path / "branching.tree"
    branching.write_text(format_tree(build_tree(BRANCHING_14)))
    spider = tmp_path / "spider.tree"
    spider.write_text(format_tree(random_spider([5, 4, 4, 2, 2])))

    def run(path):
        code = main(["check-tree", str(path)])
        out = capsys.readouterr().out
        return code, dict(line.split("=", 1) for line in out.strip().splitlines())

    code1, values1 = run(branching)
    # the 14-vertex branching example: 4 lower-half edges; the half-tree
    # definition puts 5 edges in the upper-closed half
    ok1 = (
        code1 == 0
        and values1["n_vertices"] == "14"
        and values1["floor_edges"] == "4"
        and values1["ceil_edges"] == "5"
        and values1["internal_ok"] == "1"
    )
    code2, values2 = run(spider)
    ok2 = (
        code2 == 0
        and values2["legs"] == "5"
        and values2["leg_lengths"] == "5,4,4,2,2"
        and values2["odd_legs"] == "1"
        and values2["deficiency"] == "1"
    )
    _report(
        7,
        ok1 and ok2,
        f"branching tree floor={values1['floor_edges']} ceil={values1['ceil_edges']}; "
        f"spider legs={values2['legs']} odd={values2['odd_legs']} "
        f"deficiency={values2['deficiency']}",
    )
