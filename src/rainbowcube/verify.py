"""Independent certification of embeddings and a brute-force oracle.

Nothing here trusts engine state: `verify` consumes only the host, the
tree, and a vertex map, recomputing coordinates from the endpoint bits,
and the oracle is a plain backtracking search.  These are the ground truth
the embedding engine is tested against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .embed import embed_rainbow_tree, format_embedding, format_trace
from .errors import BudgetExceeded, DegreeTooSmall, LimitExceeded
from .hypercube import edge_coordinate, format_graph, vertex_str
from .report import Check, VerificationReport
from .tree import RootedTree, format_tree, half_ceil


def verify(
    g,
    t: RootedTree,
    image: dict[int, int],
    *,
    require_path_distinct: bool = False,
    z_bad: int | None = None,
) -> VerificationReport:
    """Certify a total vertex map from scratch.

    Checks: homomorphism (every image a host vertex, every tree edge a host
    edge), injectivity, rainbow; optionally path-distinctness on the
    upper-closed half and avoidance of a vertex.  Witnesses name the
    offending vertices or edges.
    """
    checks: list[Check] = []
    dim = g.dimension

    def vs(v: int) -> str:
        return vertex_str(v, dim) if 0 <= v < (1 << dim) else bin(v)

    total = all(v in image for v in range(t.n))
    if not total:
        missing = next(v for v in range(t.n) if v not in image)
        return VerificationReport((Check("total", False, f"vertex {missing} unmapped"),))

    hom_witness = ""
    coord: dict[int, int] = {}
    color: dict[int, int] = {}
    for child in t.edge_ids():
        u, v = image[t.parent[child]], image[child]
        if not g.has_edge(u, v):
            hom_witness = f"tree edge {t.parent[child]}-{child} -> non-edge {vs(u)}-{vs(v)}"
            break
        coord[child] = edge_coordinate(u, v)
        color[child] = g.edge_color(u, v)
    # a host edge joins host vertices, so only a lone root can sit outside the host
    if not hom_witness and not g.has_vertex(image[0]):
        hom_witness = f"vertex 0 -> non-vertex {vs(image[0])}"
    checks.append(Check("homomorphism", not hom_witness, hom_witness))
    if hom_witness:
        return VerificationReport(tuple(checks))

    inj_witness = ""
    seen: dict[int, int] = {}
    for v in range(t.n):
        if image[v] in seen:
            inj_witness = f"vertices {seen[image[v]]} and {v} both map to {vs(image[v])}"
            break
        seen[image[v]] = v
    checks.append(Check("injective", not inj_witness, inj_witness))

    rainbow_witness = ""
    by_color: dict[int, int] = {}
    for child in sorted(coord):
        c = color[child]
        if c in by_color:
            rainbow_witness = f"edges {by_color[c]} and {child} both have color {c}"
            break
        by_color[c] = child
    checks.append(Check("rainbow", not rainbow_witness, rainbow_witness))

    if require_path_distinct:
        ceil_set = half_ceil(t)
        pd_witness = ""
        for leaf in t.leaves():
            path_edges = [v for v in t.root_path(leaf)[1:] if v in ceil_set]
            coords = [coord[e] for e in path_edges]
            if len(set(coords)) != len(coords):
                pd_witness = f"root path to leaf {leaf} repeats a coordinate in {coords}"
                break
        checks.append(Check("path_distinct_ceil_half", not pd_witness, pd_witness))

    if z_bad is not None:
        hit = [v for v in range(t.n) if image[v] == z_bad]
        checks.append(
            Check(
                "avoids_vertex",
                not hit,
                "" if not hit else f"vertex {hit[0]} maps to the blocked vertex {bin(z_bad)}",
            )
        )

    return VerificationReport(tuple(checks))


def disjoint_images_guaranteed(
    t1: RootedTree,
    image1: dict[int, int],
    t2: RootedTree,
    image2: dict[int, int],
) -> bool:
    """Do two homomorphisms with adjacent root images satisfy the disjointness
    hypotheses?

    (a) each is path-distinct on its upper-closed half, (b) the half images
    use disjoint coordinate sets, (c) the root-root edge's coordinate meets
    neither.  When all hold the image vertex sets cannot intersect.
    """
    x = image1[0] ^ image2[0]
    if x == 0 or x & (x - 1):
        return False
    connector = x.bit_length() - 1

    half_coords = []
    for t, image in ((t1, image1), (t2, image2)):
        ceil_set = half_ceil(t)
        coords = {}
        for child in ceil_set:
            coords[child] = edge_coordinate(image[t.parent[child]], image[child])
        for leaf in t.leaves():
            path = [coords[v] for v in t.root_path(leaf)[1:] if v in ceil_set]
            if len(set(path)) != len(path):
                return False
        half_coords.append(set(coords.values()))
    if half_coords[0] & half_coords[1]:
        return False
    if connector in half_coords[0] | half_coords[1]:
        return False
    return True


@dataclass
class OracleResult:
    """Outcome of the backtracking search.

    `exhausted` means the answer is definitive: either an embedding was
    found, or the whole space was covered without one.  It is False only
    when a budget stopped the search early.
    """

    found: bool
    image: dict[int, int] | None
    nodes_explored: int
    exhausted: bool


def oracle_find(g, t: RootedTree, budget: int | None = None) -> OracleResult:
    """Exhaustive rainbow-embedding search by backtracking over vertex images.

    Tree vertices are placed in (level, id) order; a branch dies when it
    repeats a vertex or a color.  Every host vertex is tried as the root's
    image: plain exhaustion is the ground truth.
    """
    # order[0] is the root 0, the only level-0 vertex, since the key is (level, id)
    order = sorted(range(t.n), key=lambda v: (t.level[v], v))
    nodes = 0
    budget_left = [budget if budget is not None else -1]

    image: dict[int, int] = {}
    used_vertices: set[int] = set()
    used_colors: set[int] = set()

    def place(i: int) -> bool:
        nonlocal nodes
        if i == len(order):
            return True
        v = order[i]
        src = image[t.parent[v]]
        for _, y, c in g.incident(src):
            if y in used_vertices or c in used_colors:
                continue
            nodes += 1
            if budget_left[0] == 0:
                raise BudgetExceeded(
                    "oracle budget exhausted",
                    OracleResult(False, None, nodes, False),
                )
            if budget_left[0] > 0:
                budget_left[0] -= 1
            image[v] = y
            used_vertices.add(y)
            used_colors.add(c)
            if place(i + 1):
                return True
            del image[v]
            used_vertices.discard(y)
            used_colors.discard(c)
        return False

    for r in sorted(g.vertices):
        nodes += 1
        image = {0: r}
        used_vertices = {r}
        used_colors = set()
        if place(1):
            return OracleResult(True, dict(image), nodes, True)
    return OracleResult(False, None, nodes, True)


def oracle_no_rainbow_cycle(g, max_len: int) -> bool:
    """True iff no rainbow cycle of length <= max_len exists, by exhaustive
    enumeration of rainbow paths.

    Any rainbow cycle survives the rainbow pruning, so pruning loses nothing.
    Guards: at most 32 vertices, even max_len (the host is bipartite).
    """
    if g.n_vertices() > 32:
        raise LimitExceeded(f"{g.n_vertices()} vertices > 32")
    if max_len % 2:
        raise LimitExceeded(f"max_len must be even for a bipartite host, got {max_len}")

    verts = sorted(g.vertices)

    def walk(start: int, here: int, depth: int, on_path: set[int], colors: set[int]) -> bool:
        # canonical traversal: intermediate vertices stay above `start`
        for _, y, c in g.incident(here):
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


@dataclass
class CrossCheckSummary:
    engine_found: bool
    oracle_found: bool | None
    mismatches: tuple[str, ...]
    embedding: object = None

    @property
    def ok(self) -> bool:
        return not self.mismatches


def cross_check(g, t: RootedTree, *, run_oracle: bool = True) -> CrossCheckSummary:
    """Pit the engine against the verifier and the oracle on one instance.

    When delta(g) >= e(T): the engine must succeed, its output must pass
    every check, and (if run) the oracle must also find an embedding.
    Failures are returned as mismatch strings for counterexample bundling.
    """
    mismatches: list[str] = []
    expect = g.delta() >= t.n_edges()

    pe = None
    try:
        pe = embed_rainbow_tree(g, t)
    except DegreeTooSmall:
        if expect:
            mismatches.append("engine refused although delta >= e(T)")
    except Exception as exc:  # engine bugs surface as mismatches, not crashes
        mismatches.append(f"engine raised {type(exc).__name__}: {exc}")

    if expect and pe is None and not mismatches:
        mismatches.append("engine returned nothing")
    if pe is not None:
        report = verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad)
        if not report.ok:
            mismatches.append(f"verify failed: {report.first_failure()}")

    oracle_found = None
    if run_oracle:
        result = oracle_find(g, t)
        oracle_found = result.found
        if expect and result.exhausted and not result.found:
            mismatches.append("oracle found no embedding although delta >= e(T)")
        if result.found:
            oracle_report = verify(g, t, result.image)
            if not oracle_report.ok:
                mismatches.append(f"oracle output failed verify: {oracle_report.first_failure()}")

    return CrossCheckSummary(
        engine_found=pe is not None,
        oracle_found=oracle_found,
        mismatches=tuple(mismatches),
        embedding=pe,
    )


def write_bundle(directory: str, g, t: RootedTree, pe=None) -> None:
    """Serialize a counterexample: graph.txt, tree.txt, embedding.txt, trace.txt."""
    os.makedirs(directory, exist_ok=True)
    files = {"graph.txt": format_graph(g), "tree.txt": format_tree(t)}
    if pe is not None:
        files["embedding.txt"] = format_embedding(pe)
        files["trace.txt"] = "".join(line + "\n" for line in format_trace(pe))
    for name, text in files.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write(text)
