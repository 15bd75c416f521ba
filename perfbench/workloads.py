"""The benchmark's workloads.

A workload turns the benchmark seed into inputs (before any timing), loads
its hosts (the timed set-up), and serves one request at a time.  Every
request ends with its own check; a request whose check fails raises
:class:`RequestFailed`.  Requests reach the package through module
attributes, so the wrappers of ``spans`` see every call.

The requests are one corpus, made of ``blocks`` blocks.  A block is the
workload's mix once; blocks differ in their random trees.  A run serves the
whole corpus in every pass, and its digest covers the corpus.
"""

from __future__ import annotations

import importlib
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

# import_module, because the package rebinds the name `verify` to the function
embed, gen, hypercube, prng, tree, verify = (
    importlib.import_module(f"rainbowcube.{name}")
    for name in ("embed", "gen", "hypercube", "prng", "tree", "verify")
)


# prints the texts of refined-Cayley hosts, given as a JSON list of (n, seed)
HOST_TEXTS = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); "
    "from rainbowcube import gen, hypercube; "
    "print(json.dumps([hypercube.format_graph(gen.refined_cayley(n, s, 2)) "
    "for n, s in json.loads(sys.argv[2])]))"
)


def refined_cayley_texts(specs: list[tuple[int, int]]) -> list[str]:
    """The host texts, built in a child interpreter: the memory that building
    takes never counts towards this process's peak."""
    src = Path(hypercube.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", HOST_TEXTS, str(src), json.dumps(specs)],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout)


class RequestFailed(Exception):
    """A request's output failed its check."""


@dataclass(frozen=True)
class Inputs:
    hosts: dict          # what `load` turns into hosts
    requests: list       # the corpus, one entry per request, `block` at a time


@dataclass(frozen=True)
class TreeRequest:
    host: int                 # key of the host in the loaded host dict
    tree: object              # RootedTree
    seed: int | None          # tie-break seed passed to the engine


def comb(edges: int) -> tree.RootedTree:
    """A spine of ceil(edges/2) edges with a leaf hanging off each spine vertex
    below the root, until `edges` edges are used."""
    spine = (edges + 1) // 2
    parents = list(range(spine)) + list(range(1, edges - spine + 1))
    return tree.build_tree(parents)


def _embedding_text(pe) -> str:
    return embed.format_embedding(pe, include_trace=True)


def _check_embedding(g, t, pe) -> None:
    report = verify.verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad)
    if not report.ok:
        raise RequestFailed(f"verify failed: {report.first_failure()}")


class ImplicitBigTrees:
    """Deep and wide trees in the implicit cube Q_m: engine cost with no host."""

    name = "implicit-big-trees"

    def __init__(self, dims=(200, 400), blocks: int = 6):
        self.dims, self.blocks = dims, blocks

    def inputs(self, seed: int) -> Inputs:
        rng = random.Random(seed)
        fixed = {
            m: (
                tree.path_tree(m),
                comb(m),
                tree.build_tree([0] * m),
                gen.random_spider([m // 2, m - m // 2]),
            )
            for m in self.dims
        }
        requests = []
        for _ in range(self.blocks):
            for m in self.dims:
                shapes = fixed[m] + tuple(
                    gen.random_tree(m, rng.getrandbits(64)) for _ in range(2)
                )
                requests += [TreeRequest(m, t, None) for t in shapes]
        return Inputs({m: m for m in self.dims}, requests)

    def load(self, hosts: dict) -> dict:
        return {m: hypercube.VirtualCayleyCube(m) for m in hosts}

    def run(self, hosts: dict, req: TreeRequest):
        g = hosts[req.host]
        pe = embed.embed_rainbow_tree(g, req.tree, seed=req.seed)
        _check_embedding(g, req.tree, pe)
        return pe

    digest_text = staticmethod(_embedding_text)


class ExplicitWideHosts(ImplicitBigTrees):
    """Small seeded trees in big explicit refined-Cayley hosts: engine cost
    that grows with the host."""

    name = "explicit-wide-hosts"

    def __init__(self, dims=(12, 14), blocks: int = 5):
        super().__init__(dims, blocks)

    def randoms(self, n: int) -> int:
        """Random trees per tree size in Q_n.  The smaller hosts get more, so
        that the median request falls among many of like cost rather than in
        the gap between the costs of the hosts.  The tail falls among the
        random trees in the biggest host, whose cost moves in steps of one
        view degree scan (3 to 9 scans each).  With 5 blocks there are 30 of
        them, and the 11th slowest sits inside one step (6 scans) for most
        seeds rather than on the edge between two."""
        return 2 if n == max(self.dims) else 4

    def inputs(self, seed: int) -> Inputs:
        rng = random.Random(seed)
        specs = [(n, rng.getrandbits(64)) for n in self.dims]
        texts = dict(zip(self.dims, refined_cayley_texts(specs)))
        requests = []
        for _ in range(self.blocks):
            for n in self.dims:
                for edges in (n - 2, n - 1, n):
                    trees = [tree.path_tree(edges)] + [
                        gen.random_tree(edges, rng.getrandbits(64))
                        for _ in range(self.randoms(n))
                    ]
                    requests += [TreeRequest(n, t, rng.getrandbits(64)) for t in trees]
        return Inputs(texts, requests)

    def load(self, hosts: dict) -> dict:
        return {n: hypercube.parse_graph(text) for n, text in hosts.items()}


@dataclass(frozen=True)
class FuzzRequest:
    seed: int
    control: bool   # a sharpness control instead of a fuzz trial


class FuzzCrosscheck:
    """Thousands of tiny `fuzz --n 5` trials against the oracle, every tenth
    one a sharpness control the engine must refuse and the oracle exhaust."""

    name = "fuzz-crosscheck"
    block = 10
    n = 5  # the cube dimension of `fuzz --n 5`

    def __init__(self, blocks: int = 100):
        self.blocks = blocks

    def inputs(self, seed: int) -> Inputs:
        rng = random.Random(seed)
        master = rng.getrandbits(64)
        requests = [
            FuzzRequest(rng.getrandbits(64), True)
            if i % self.block == self.block - 1
            else FuzzRequest(prng.derive_seed(master, i), False)
            for i in range(self.blocks * self.block)
        ]
        return Inputs({}, requests)

    def load(self, hosts: dict) -> dict:
        return hosts

    def run(self, hosts: dict, req: FuzzRequest):
        n = self.n
        if req.control:
            # Q_n colored by coordinate has n colors, so no (n+1)-edge tree is rainbow
            g = gen.cayley_coloring(n)
            t = gen.random_tree(n + 1, req.seed)
            summary = verify.cross_check(g, t, run_oracle=True)
            if summary.engine_found or summary.oracle_found is not False:
                raise RequestFailed("sharpness control: an embedding was reported")
        else:
            # one trial built the way `rainbowcube fuzz` builds it
            rng = prng.SplitMix64(req.seed)
            d = 1 + rng.randrange(n)
            g = gen.subgraph_min_degree(n, d, rng.next_u64())
            t = gen.random_tree(rng.randrange(d + 1), rng.next_u64())
            run_oracle = t.n_edges() <= 8 and g.n_vertices() <= 64
            summary = verify.cross_check(g, t, run_oracle=run_oracle)
            if not summary.engine_found:
                raise RequestFailed("fuzz trial: the engine returned nothing")
        if summary.mismatches:
            raise RequestFailed(f"cross_check: {summary.mismatches[0]}")
        return summary

    @staticmethod
    def digest_text(summary) -> str:
        pe = summary.embedding
        head = _embedding_text(pe) if pe is not None else "refused\n"
        return f"{head}oracle {summary.oracle_found}\n"


WORKLOADS = {w.name: w for w in (ImplicitBigTrees, ExplicitWideHosts, FuzzCrosscheck)}
