"""Independent certification of embeddings and a brute-force oracle.

Nothing here trusts engine state: `verify` consumes only the host, the
tree, and a vertex map, recomputing coordinates from the endpoint bits,
and the oracle is a plain backtracking search over one int of bits, for
the host vertices and colors in use.  These are the ground truth the
embedding engine is tested against.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .embed import embed_rainbow_tree, format_embedding, format_trace
from .errors import DegreeTooSmall, LimitExceeded
from .hypercube import edge_coordinate, format_graph, vertex_str
from .report import Check, VerificationReport
from .tree import RootedTree, format_tree


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
        pd_witness = _path_repeat_witness(t, coord)
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


def _path_repeat_witness(t: RootedTree, coord) -> str:
    """Name the first leaf, in id order, whose root path repeats a coordinate
    on the upper-closed half (`coord` gives each of its edges'); "" if none.

    One preorder pass flags every vertex at or below a repeating edge.  The
    half is closed under taking parents, so an unflagged half edge repeats
    exactly when the last unflagged edge with its coordinate is an ancestor
    (its preorder interval is still open): a later one would lie below it.
    """
    order, pos, end, half_level = t.preorder()
    flagged = [False] * t.n
    open_until: dict[int, int] = {}
    for i in range(1, t.n):
        w = order[i]
        # half_level <= 1: w's edge lies in the upper-closed half of t
        if flagged[t.parent[w]] or half_level[i] > 1:
            flagged[w] = flagged[t.parent[w]]
        elif open_until.get(coord[w], 0) > i:
            flagged[w] = True
        else:
            open_until[coord[w]] = end[w]
    leaf = next((v for v in range(1, t.n) if flagged[v] and not t.children[v]), None)
    if leaf is None:
        return ""
    path = [leaf]
    while t.parent[path[-1]]:
        path.append(t.parent[path[-1]])
    coords = [coord[v] for v in reversed(path) if half_level[pos[v]] <= 1]
    return f"root path to leaf {leaf} repeats a coordinate in {coords}"


class OracleResult:
    """Outcome of the backtracking search.

    `exhausted` means the answer is definitive: either an embedding was
    found, or the whole space was covered without one.  It is False only
    when a budget stopped the search early.  The fields can be assigned.
    """

    __slots__ = ("found", "image", "nodes_explored", "exhausted")

    def __init__(self, found: bool, image: dict[int, int] | None, nodes_explored: int, exhausted: bool):
        self.found, self.image, self.nodes_explored, self.exhausted = found, image, nodes_explored, exhausted


class _Rows(dict):
    """Each vertex x's row (x's bit, its colors' mask, [(neighbor, its bit |
    its color's bit), ...]), asked of the host once; vertices and colors share
    bits numbered as rows meet them, so ints grow with what a search touches."""

    def __init__(self, g):
        self.g, self.vbit, self.cbit = g, {}, {}

    def __missing__(self, x: int):
        vbit, cbit, mask, records = self.vbit, self.cbit, 0, []
        own = vbit.setdefault(x, 1 << (len(vbit) + len(cbit)))
        for _, y, c in self.g.incident(x):
            cb = cbit.setdefault(c, 1 << (len(vbit) + len(cbit)))
            mask |= cb
            records.append((y, cb | vbit.setdefault(y, 1 << (len(vbit) + len(cbit)))))
        row = self[x] = (own, mask, records)
        return row


def oracle_find(g, t: RootedTree, budget: int | None = None) -> OracleResult:
    """Exhaustive rainbow-embedding search by backtracking over vertex images.

    Tree vertices are placed in (level, id) order; a branch dies when it
    repeats a vertex or a color.  Every host vertex is tried as the root's
    image: plain exhaustion is the ground truth.  The state is the image and
    `used`, the bits of the placed vertices and colors; a record's bits are
    its neighbor's and its color's, so `used & bits` tests both.  No call is
    made for a next row with no unused color: that is the next loop's own
    verdict, each record there failing its color test, so the nodes are the
    plain search's.  `budget` caps the non-root placements; a search it
    stops returns exhausted=False, counting the placement it refused.  The
    search recurses once per tree vertex: a search deeper than the
    interpreter's stack raises LimitExceeded, naming the edge count.
    """
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    # order[0] is the root 0, the only level-0 vertex; the sort is stable, so by (level, id)
    order = sorted(range(t.n), key=t.level.__getitem__)
    parent, last, image = t.parent, t.n - 1, {}
    nodes = 0
    rows = _Rows(g)

    def place(i: int, records, used: int, place) -> bool | None:
        # True: all placed; False: branch exhausted; None: budget ran out.  As
        # `place` is passed in, no cycle keeps the closure for the collector
        nonlocal nodes, budget
        v = order[i]
        src = parent[order[i + 1]] if i < last else None
        for y, bits in records:
            if used & bits:
                continue
            nodes += 1
            if budget is not None:
                if budget == 0:
                    return None
                budget -= 1
            image[v] = y
            if i == last:
                return True
            _, mask, nxt = rows[image[src]]
            now = used | bits
            if mask & ~now:
                placed = place(i + 1, nxt, now, place)
                if placed is not False:
                    return placed
        return False

    for r in sorted(g.vertices):
        nodes += 1
        image[0] = r
        placed = True
        if last:
            own, mask, records = rows[r]
            try:
                placed = mask and place(1, records, own, place)  # mask 0: a dead row
            except RecursionError:
                raise LimitExceeded(f"oracle search on {last} edges is deeper than the interpreter's stack") from None
        if placed is None:
            return OracleResult(False, None, nodes, False)
        if placed:
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

    rows = _Rows(g)

    def walk(start: int, here: int, depth: int, used: int) -> bool:
        # canonical traversal: intermediate vertices stay above `start`, so
        # `used` (the path's colors and vertices) needs no bit for `start`
        for y, bits in rows[here][2]:
            if used & bits:
                continue
            if y == start and depth >= 3:
                return True  # rainbow cycle closed
            if y <= start or depth + 1 >= max_len:
                continue
            if walk(start, y, depth + 1, used | bits):
                return True
        return False

    return not any(walk(s, s, 0, 0) for s in sorted(g.vertices))


class CrossCheckSummary(NamedTuple):
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
