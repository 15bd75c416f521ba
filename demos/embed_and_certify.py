#!/usr/bin/env python3
"""Walk through one embedding end to end.

Builds a properly edge-colored subgraph of Q_5 with minimum degree 4, draws
a random 4-edge tree, embeds a rainbow copy, and certifies the result with
the independent verifier.
"""

from rainbowcube import embed_rainbow_tree, vertex_str, verify
from rainbowcube.gen import random_tree, subgraph_min_degree

host = subgraph_min_degree(n=5, d=4, seed=2024)
print(f"host: subgraph of Q_5, {len(list(host.edges()))} edges, min degree {host.delta()}")

tree = random_tree(m_edges=4, seed=7)
print(f"tree: parents {list(tree.parent[1:])}")

pe = embed_rainbow_tree(host, tree)
print("\nembedding (tree vertex -> cube vertex):")
for v in sorted(pe.image):
    print(f"  {v} -> {vertex_str(pe.image[v], host.dimension)}")
print(f"edge colors used: {sorted(pe.used_colors)}")
print(f"blocked vertex kept clear: {bin(pe.z_bad)}")

report = verify(host, tree, pe.image, require_path_distinct=True, z_bad=pe.z_bad)
print("\nindependent verification:")
print(report)

print("\nstep trace (step, tree edge, host edge):")
for label, child, src, dst, *_ in pe.trace:
    print(
        f"  {label:<7} edge ->{child}:"
        f" {vertex_str(src, host.dimension)} -> {vertex_str(dst, host.dimension)}"
    )
