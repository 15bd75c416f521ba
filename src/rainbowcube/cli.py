"""Command-line surface: embed, verify, oracle, fuzz, gen, check-tree.

Exit codes: 0 success / all checks pass; 1 internal engine failure, any
unexpected exception included (a counterexample bundle is dumped when
possible); 2 verification mismatch or fuzz counterexample; 3 unreadable or
unparsable input (an improperly colored host, or an embedding file that
does not fit the tree and host, included), an unwritable --out, or a
generator parameter out of range (`gen`); 4 host minimum degree below the
tree size.  `oracle --budget` that runs out is not an error: it reports
exhausted=False and exits 0.  RAINBOW_SEED overrides --seed everywhere.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import gen as genmod
from .embed import embed_rainbow_tree, format_embedding, parse_embedding
from .errors import BudgetExceeded, DegreeTooSmall, FormatError, LimitExceeded, RainbowCubeError
from .hypercube import MAX_EXPLICIT_DIMENSION, format_graph, parse_graph, parse_vertex
from .prng import derive_seed
from .tree import (
    as_spider,
    classify_children,
    deficiency,
    degree_sum_identity,
    enumerate_trees,
    format_tree,
    half_ceil,
    half_floor,
    iota_injection,
    parse_tree,
)
from .verify import cross_check, oracle_find, verify, write_bundle

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_MISMATCH = 2
EXIT_PARSE = 3
EXIT_DEGREE = 4


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # no abbreviations: an unknown flag such as --strict must not pass for --strict-vertices
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # usage problems are invalid input, not mismatches
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _write(path: str | None, text: str) -> None:
    """Write `text` to the file at `path`, or to stdout when there is none."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def _load_graph(path: str, strict_vertices: bool = False):
    return parse_graph(_read(path), strict_vertices=strict_vertices)


def _load_tree(path: str):
    return parse_tree(_read(path))


def _seed(args) -> int:
    env = os.environ.get("RAINBOW_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise FormatError(f"RAINBOW_SEED must be an integer, got {env!r}") from None


def cmd_embed(args) -> int:
    g = _load_graph(args.graph, args.strict_vertices)
    t = _load_tree(args.tree)
    seed = _seed(args)
    try:
        pe = embed_rainbow_tree(g, t, seed=seed)
    except DegreeTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGREE
    except Exception as exc:
        # a package error is a failed engine assertion; any other exception
        # (KeyError, RecursionError, ...) is an engine bug too: both exit 1
        kind = "" if isinstance(exc, RainbowCubeError) else f"{type(exc).__name__}: "
        print(f"internal error: {kind}{exc}", file=sys.stderr)
        if args.bundle_dir:
            write_bundle(args.bundle_dir, g, t)
            print(f"bundle written to {args.bundle_dir}", file=sys.stderr)
        return EXIT_INTERNAL

    if args.verify:
        report = verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad)
        if not report.ok:
            print(f"internal error: verify failed: {report.first_failure()}", file=sys.stderr)
            if args.bundle_dir:
                write_bundle(args.bundle_dir, g, t, pe)
                print(f"bundle written to {args.bundle_dir}", file=sys.stderr)
            return EXIT_INTERNAL

    _write(args.out, format_embedding(pe, include_trace=args.trace))
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.graph, args.strict_vertices)
    t = _load_tree(args.tree)
    image, n_edges, dim = parse_embedding(_read(args.embedding))
    # the file must describe this tree in this host
    if n_edges != t.n_edges():
        raise FormatError(f"embedding header claims {n_edges} edges, the tree has {t.n_edges()}")
    if dim != g.dimension:
        raise FormatError(f"embedding header claims dimension {dim}, the host has {g.dimension}")
    stray = [v for v in image if not 0 <= v < t.n]
    if stray:
        raise FormatError(f"map names vertex {min(stray)}, which the tree does not have")
    z = parse_vertex(args.z_bad, dim) if args.z_bad else None
    report = verify(g, t, image, require_path_distinct=args.require_path_distinct, z_bad=z)
    print(report)
    return EXIT_OK if report.ok else EXIT_MISMATCH


def cmd_oracle(args) -> int:
    g = _load_graph(args.graph, args.strict_vertices)
    t = _load_tree(args.tree)
    try:
        result = oracle_find(g, t, budget=args.budget)
    except BudgetExceeded as exc:
        result = exc.partial
    print(f"found={result.found} exhausted={result.exhausted} nodes={result.nodes_explored}")
    return EXIT_OK


def _fuzz_trial(params: tuple):
    """One seeded trial; returns (trial, mismatches, host, tree), with host
    and tree None unless the trial is a counterexample, so that a run holds
    (and a worker sends back) only the hosts it bundles."""
    n, master, trial = params
    seed = derive_seed(master, trial)
    rng = genmod.SplitMix64(seed)
    d = 1 + rng.randrange(n)
    g = genmod.subgraph_min_degree(n, d, rng.next_u64())
    t = genmod.random_tree(rng.randrange(d + 1), rng.next_u64())
    run_oracle = t.n_edges() <= 8 and g.n_vertices() <= 64
    summary = cross_check(g, t, run_oracle=run_oracle)
    if not summary.mismatches:
        return trial, (), None, None
    return trial, summary.mismatches, g, t


def cmd_fuzz(args) -> int:
    # the hosts have dimension --n, which cayley_coloring must be able to build
    if not 1 <= args.n <= MAX_EXPLICIT_DIMENSION:
        raise FormatError(f"--n must be in [1, {MAX_EXPLICIT_DIMENSION}], got {args.n}")
    if args.trials < 0:
        raise FormatError(f"--trials must be >= 0, got {args.trials}")
    if args.jobs < 1:
        raise FormatError(f"--jobs must be >= 1, got {args.jobs}")
    master = _seed(args)
    failures = 0

    if args.exhaustive:
        hosts = [genmod.cayley_coloring(args.n)] + [
            genmod.refined_cayley(args.n, s, 1 + s % 4) for s in range(20)
        ]
        trees = list(enumerate_trees(min(args.n, 8)))
        checked = 0
        for g in hosts:
            for t in trees:
                summary = cross_check(g, t, run_oracle=args.oracle)
                checked += 1
                for msg in summary.mismatches:
                    failures += 1
                    print(f"counterexample host/tree {checked}: {msg}")
                    if args.bundle_dir:
                        write_bundle(
                            os.path.join(args.bundle_dir, f"case{checked}"),
                            g,
                            t,
                            summary.embedding,
                        )
        print(f"exhaustive: {checked} instances, {failures} counterexamples")
        return EXIT_MISMATCH if failures else EXIT_OK

    params = [(args.n, master, i) for i in range(args.trials)]
    # a pool starts all its workers at once, so none beyond the trials or the CPUs
    workers = min(args.jobs, args.trials, os.cpu_count() or 1)
    if workers <= 1:
        results = [_fuzz_trial(p) for p in params]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fuzz_trial, params))
    for trial, mismatches, g, t in results:
        for msg in mismatches:
            failures += 1
            print(f"counterexample trial {trial}: {msg}")
            if args.bundle_dir:
                write_bundle(os.path.join(args.bundle_dir, f"trial{trial}"), g, t)
    print(f"fuzz: {args.trials} trials, {failures} counterexamples")
    return EXIT_MISMATCH if failures else EXIT_OK


def cmd_gen(args) -> int:
    params: dict = {}
    if args.kind in ("cayley", "refined_cayley", "greedy_proper", "subgraph_min_degree"):
        if args.n is None:
            raise FormatError("--n required")
        params["n"] = args.n
    if args.kind == "refined_cayley":
        params["splits"] = args.splits
    if args.kind == "subgraph_min_degree":
        if args.min_degree is None:
            raise FormatError("--min-degree required")
        params["d"] = args.min_degree
    if args.kind == "random_tree":
        if args.edges is None:
            raise FormatError("--edges required")
        params["edges"] = args.edges
    if args.kind == "random_spider" and not args.legs:
        raise FormatError("--legs required")

    seed = _seed(args)
    try:
        if args.kind == "random_spider":
            params["legs"] = tuple(int(x) for x in args.legs.split(","))
        artifact = genmod.generate(args.kind, seed, params)
    except (ValueError, LimitExceeded) as exc:
        raise FormatError(str(exc)) from exc
    if args.emit_spec:
        line = [f"gen {args.kind}"]
        for key, value in sorted(params.items()):
            if isinstance(value, tuple):
                value = ",".join(str(x) for x in value)
            line.append(f"{key}={value}")
        print(" ".join(line + [f"seed={seed}"]))
    text = format_tree(artifact) if hasattr(artifact, "parent") else format_graph(artifact)
    _write(args.out, text)
    return EXIT_OK


def cmd_check_tree(args) -> int:
    t = _load_tree(args.tree)
    floor, ceil = half_floor(t), half_ceil(t)
    lines = [
        "format=1",
        f"n_vertices={t.n}",
        f"n_edges={t.n_edges()}",
        f"floor_edges={len(floor)}",
        f"ceil_edges={len(ceil)}",
        f"deficiency={deficiency(t)}",
    ]
    shape = as_spider(t) if t.n > 1 else None
    if shape is None:
        lines.append("is_spider=0")
    else:
        lines.append("is_spider=1")
        lines.append(f"legs={len(shape.legs)}")
        lines.append(f"leg_lengths={','.join(str(x) for x in sorted(shape.leg_lengths, reverse=True))}")
        lines.append(f"odd_legs={shape.odd_legs}")
    if t.n > 1:
        cls = classify_children(t)
        lines.append(f"root_leaves={len(cls.leaves)}")
        lines.append(f"root_even_spiders={len(cls.spiders)}")
        lines.append(f"root_rest={len(cls.rest)}")

    # iota_injection raises when iota is not injective or reaches the upper
    # half, and its domain is the lower half by construction
    iota = iota_injection(t)
    lhs, rhs = degree_sum_identity(t)
    lines.append(f"iota_size={len(iota)}")
    lines.append(f"degree_sum_lhs={lhs}")
    lines.append(f"degree_sum_rhs={rhs}")
    internal_ok = lhs == rhs and deficiency(t) >= 0
    lines.append(f"internal_ok={int(internal_ok)}")
    print("\n".join(lines))
    return EXIT_OK if internal_ok else EXIT_INTERNAL


def build_parser() -> _Parser:
    parser = _Parser(prog="rainbowcube")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="embed a rainbow copy of a tree into a host")
    p.add_argument("graph")
    p.add_argument("--strict-vertices", action="store_true",
                   help="reject edges touching undeclared vertices")
    p.add_argument("tree")
    p.add_argument("--out")
    p.add_argument("--trace", action="store_true", help="append the step trace")
    p.add_argument("--verify", action="store_true", help="re-check the output before exiting")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--bundle-dir", default=None)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("verify", help="certify an embedding file")
    p.add_argument("graph")
    p.add_argument("--strict-vertices", action="store_true",
                   help="reject edges touching undeclared vertices")
    p.add_argument("tree")
    p.add_argument("embedding")
    p.add_argument("--require-path-distinct", action="store_true")
    p.add_argument("--z-bad", default=None, help="blocked vertex as a binary string")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="brute-force existence search")
    p.add_argument("graph")
    p.add_argument("--strict-vertices", action="store_true",
                   help="reject edges touching undeclared vertices")
    p.add_argument("tree")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("fuzz", help="randomized engine-vs-oracle cross-checks")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--oracle", action="store_true", help="run the oracle in exhaustive mode")
    p.add_argument("--exhaustive", action="store_true", help="all trees up to n edges x 21 hosts")
    p.add_argument("--bundle-dir", default=None)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("gen", help="write a seeded host or tree")
    p.add_argument("kind", choices=sorted(genmod.KINDS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--splits", type=int, default=2)
    p.add_argument("--min-degree", "-d", type=int, default=None)
    p.add_argument("--edges", "-m", type=int, default=None)
    p.add_argument("--legs", default=None, help="comma-separated leg lengths")
    p.add_argument("--emit-spec", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check-tree", help="halves, deficiency, spider report")
    p.add_argument("tree")
    p.set_defaults(func=cmd_check_tree)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
