#!/usr/bin/env python3
"""The ambient dimension costs nothing.

The engine only ever inspects neighborhoods, so the full cube host can stay
implicit: here a random 150-edge tree lands rainbowly in Q_150 (a graph
with 2^150 vertices) in well under a second, and the verifier checks every
promise on the 151 touched vertices.
"""

import time

from rainbowcube import VirtualCayleyCube, embed_rainbow_tree, verify
from rainbowcube.gen import random_tree

EDGES = 150

tree = random_tree(EDGES, seed=41)
host = VirtualCayleyCube(EDGES)
print(f"host: implicit Q_{EDGES} ({host.n_vertices()} vertices)")

start = time.perf_counter()
pe = embed_rainbow_tree(host, tree)
elapsed = time.perf_counter() - start

report = verify(host, tree, pe.image, require_path_distinct=True, z_bad=pe.z_bad)
depth = max(tree.level)
print(f"tree: {EDGES} edges, height {depth}")
print(f"embedded in {elapsed * 1000:.1f} ms with every counting check enabled")
print(f"verifier: {'all checks pass' if report.ok else report.first_failure()}")
print(f"colors used: {len(pe.used_colors)} (all distinct by construction)")
