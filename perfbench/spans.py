"""Outside-in span tracing for the benchmark.

The package is never edited.  :meth:`Tracer.install` replaces its public
functions and methods with timing wrappers at the places the package looks
them up (every ``rainbowcube`` module attribute bound to the function, or
the class attribute for a method), and :meth:`Tracer.uninstall` puts the
originals back.  Spans are aggregated as they close, with the open-span
stack giving each span its parent: per name the call count, the time of
outermost spans (a recursive call is not counted twice) and the self time
(duration minus the time covered by child spans).  Keeping aggregates
instead of a span log bounds memory on the oracle, which makes tens of
thousands of calls per request.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

# import_module, because the package rebinds the name `verify` to the function
embed, gen, hypercube, tree, verify = (
    importlib.import_module(f"rainbowcube.{name}")
    for name in ("embed", "gen", "hypercube", "tree", "verify")
)

STEP_LABELS = ("half", "step1", "step2", "step3", "step4", "step5", "step7-mid", "spider0", "path")

# the unwrapped view degree, read by the step hook so that reading a cached
# degree does not count as a call
_view_delta = hypercube.GraphView.delta


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._open: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.steps: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self.max_depth = 0
        self.last_candidates = 0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        """`fn` timed as a span called `name`; `hook(args, result)` runs after
        the span closes, and its time is charged to no span."""
        stack, open_names = self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            open_names[name] += 1
            if len(stack) > self.max_depth:
                self.max_depth = len(stack)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                open_names[name] -= 1
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if not open_names[name]:
                    self.total_s[name] += duration
                parent = stack[-1][0] if stack else "request"
                edge = self.edges[parent, name]
                edge[0] += 1
                edge[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if hook is not None:
                hook_start = perf_counter()
                hook(args, result)
                if stack:
                    stack[-1][1] += perf_counter() - hook_start
            return result

        return wrapper

    # --- count hooks ---------------------------------------------------------

    def _count(self, key: str, size):
        def hook(args, result):
            self.counts[key] += size(args, result)

        return hook

    def _candidates(self, args, result):
        self.last_candidates = len(result)

    def _step(self, args, result):
        pe, req = args
        g = pe.graph
        delta = _view_delta(g) if isinstance(g, hypercube.GraphView) else g.delta()
        slack = delta - (len(req.x_col) + len(req.x_coor) - len(req.witnesses)) - 1
        self.steps[req.label].append((slack, self.last_candidates))

    # --- installation --------------------------------------------------------

    def _replace_function(self, fn, wrapper):
        for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "rainbowcube"]:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper_of):
        fn = vars(cls)[attr]
        self._restore.append((cls, attr, fn))
        setattr(cls, attr, wrapper_of(fn))

    def install(self):
        f, m = self._replace_function, self._replace_method
        hc, cube, virtual, view = (
            hypercube,
            hypercube.ColoredCubeGraph,
            hypercube.VirtualCayleyCube,
            hypercube.GraphView,
        )
        records = self._count("hypercube.incident_records", lambda a, r: len(r))

        f(hc.parse_graph, self.wrap("hypercube.parse_graph", hc.parse_graph))
        m(cube, "__init__", lambda fn: self.wrap("hypercube.graph_init", fn))
        # ColoredCubeGraph.incident returns a stored tuple and stays unwrapped:
        # the oracle calls it some 10^4 times per request, and a wrapper there
        # doubled the traced time of fuzz-crosscheck
        m(virtual, "incident", lambda fn: self.wrap("hypercube.incident", fn, records))
        m(view, "incident", lambda fn: self.wrap("hypercube.incident", fn))
        scanned = self._count(
            "hypercube.delta_after_bans_vertices_scanned", lambda a, r: a[0].n_vertices()
        )
        m(cube, "delta_after_bans", lambda fn: self.wrap("hypercube.delta_after_bans", fn, scanned))
        m(virtual, "delta_after_bans", lambda fn: self.wrap("hypercube.delta_after_bans", fn))
        m(view, "delta", lambda fn: self.wrap("hypercube.view_delta", fn))
        f(hc.candidate_edges, self.wrap("hypercube.candidate_edges", hc.candidate_edges, self._candidates))

        for fn in (gen.subgraph_min_degree, gen.refined_cayley, gen.greedy_proper, hc.cayley_coloring):
            f(fn, self.wrap("gen.host", fn))
        for fn in (gen.random_tree, gen.random_spider):
            f(fn, self.wrap("gen.tree", fn))

        f(tree.build_tree, self.wrap("tree.build_tree", tree.build_tree))
        f(tree.classify_children, self.wrap("tree.classify_children", tree.classify_children))
        m(
            tree.RootedTree,
            "subtree_preorder",
            lambda fn: self.wrap(
                "tree.subtree_preorder",
                fn,
                self._count("tree.subtree_preorder_vertices", lambda a, r: len(r)),
            ),
        )

        lifted = self._count("embed.lift_vertices", lambda a, r: len(a[1]))
        m(embed.PartialEmbedding, "lift", lambda fn: self.wrap("embed.lift", fn, lifted))
        m(embed.PartialEmbedding, "adopt", lambda fn: self.wrap("embed.adopt", fn))
        # (k, m) pairs with 0 <= k, k + 2 <= m <= n, m - k even: floor(n^2 / 4)
        windows = self._count("embed.certify_path_windows_windows", lambda a, r: len(a[0]) ** 2 // 4)
        f(
            embed.certify_path_windows,
            self.wrap("embed.certify_path_windows", embed.certify_path_windows, windows),
        )
        for fn in (embed.embed_rainbow_tree, embed.embed_half, embed.extend_tree,
                   embed.extend_spider, embed.extend_path):
            f(fn, self.wrap(f"embed.{fn.__name__}", fn))
        f(embed.extend_one, self.wrap("embed.extend_one", embed.extend_one, self._step))

        f(verify.verify, self.wrap("verify.verify", verify.verify))
        f(verify.cross_check, self.wrap("verify.cross_check", verify.cross_check))
        nodes = self._count("verify.oracle_nodes", lambda a, r: r.nodes_explored)
        f(verify.oracle_find, self.wrap("verify.oracle", verify.oracle_find, nodes))
        return self

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # --- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer values of one traced pass, as {name: (value, unit)}."""
        s, own, calls, counts = self.total_s, self.self_s, self.calls, self.counts
        out = {
            "hypercube.delta_after_bans_s": (s["hypercube.delta_after_bans"], "s"),
            "hypercube.delta_after_bans_calls": (calls["hypercube.delta_after_bans"], "count"),
            "hypercube.delta_after_bans_vertices_scanned": (
                counts["hypercube.delta_after_bans_vertices_scanned"],
                "count",
            ),
            "hypercube.view_delta_calls": (calls["hypercube.view_delta"], "count"),
            "hypercube.incident_s": (s["hypercube.incident"], "s"),
            "hypercube.incident_records": (counts["hypercube.incident_records"], "count"),
            "hypercube.candidate_edges_s": (s["hypercube.candidate_edges"], "s"),
            "hypercube.parse_graph_s": (s["hypercube.parse_graph"], "s"),
            "hypercube.graph_init_s": (s["hypercube.graph_init"], "s"),
            "gen.host_s": (s["gen.host"], "s"),
            "gen.tree_s": (s["gen.tree"], "s"),
            "tree.build_tree_s": (s["tree.build_tree"], "s"),
            "tree.build_tree_calls": (calls["tree.build_tree"], "count"),
            "tree.subtree_preorder_calls": (calls["tree.subtree_preorder"], "count"),
            "tree.subtree_preorder_vertices": (counts["tree.subtree_preorder_vertices"], "count"),
            "tree.classify_children_s": (s["tree.classify_children"], "s"),
            "embed.lift_s": (s["embed.lift"], "s"),
            "embed.adopt_s": (s["embed.adopt"], "s"),
            "embed.lift_vertices": (counts["embed.lift_vertices"], "count"),
            "embed.certify_path_windows_s": (s["embed.certify_path_windows"], "s"),
            "embed.certify_path_windows_windows": (
                counts["embed.certify_path_windows_windows"],
                "count",
            ),
            "embed.embed_half_s": (s["embed.embed_half"], "s"),
            "embed.extend_tree_self_s": (own["embed.extend_tree"], "s"),
            "embed.extend_spider_self_s": (own["embed.extend_spider"], "s"),
            "embed.extend_path_self_s": (own["embed.extend_path"], "s"),
            "embed.extend_one_self_s": (own["embed.extend_one"], "s"),
            "embed.extend_one_calls": (calls["embed.extend_one"], "count"),
            "verify.verify_s": (s["verify.verify"], "s"),
            "verify.cross_check_self_s": (own["verify.cross_check"], "s"),
            "verify.oracle_s": (s["verify.oracle"], "s"),
            "verify.oracle_nodes": (counts["verify.oracle_nodes"], "count"),
            "trace.max_span_depth": (self.max_depth, "count"),
        }
        for label in STEP_LABELS:
            steps = self.steps.get(label, [])
            n = len(steps)
            key = f"embed.step.{label}"
            out[f"{key}.count"] = (n, "count")
            # -1 marks a stage that never ran; a real slack is never negative
            out[f"{key}.slack_min"] = (min((s for s, _ in steps), default=-1), "count")
            out[f"{key}.slack_zero_ratio"] = (
                sum(1 for s, _ in steps if s == 0) / n if n else 0.0,
                "ratio",
            )
            out[f"{key}.single_candidate_ratio"] = (
                sum(1 for _, c in steps if c == 1) / n if n else 0.0,
                "ratio",
            )
        return out

    def call_graph(self) -> dict[str, list]:
        """{"parent>child": [calls, self seconds]} over every span edge."""
        return {f"{p}>{c}": [n, t] for (p, c), (n, t) in sorted(self.edges.items())}

