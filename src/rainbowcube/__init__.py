"""Rainbow tree embeddings in properly edge-colored hypercube subgraphs.

Any properly edge-colored subgraph G of a cube contains a rainbow copy of
every tree with at most delta(G) edges; this package constructs one,
certifies it independently, and cross-checks against brute force at small
scale.
"""

from . import errors
from .embed import (
    ExtensionRequest,
    PartialEmbedding,
    certify_path_windows,
    embed_half,
    embed_rainbow_tree,
    endpoints_must_differ,
    extend_one,
    extend_path,
    extend_spider,
    extend_tree,
    format_embedding,
    parse_embedding,
    replay_trace,
)
from .gen import (
    generate,
    greedy_proper,
    random_spider,
    random_tree,
    refined_cayley,
    subgraph_min_degree,
)
from .hypercube import (
    ColoredCubeGraph,
    GraphView,
    VirtualCayleyCube,
    candidate_edges,
    cayley_coloring,
    edge_coordinate,
    format_graph,
    parse_graph,
    vertex_str,
)
from .prng import SplitMix64, derive_seed
from .report import Check, VerificationReport
from .tree import (
    ChildClassification,
    RootedTree,
    SpiderChild,
    SpiderShape,
    as_spider,
    build_tree,
    canonical_form,
    classify_children,
    deficiency,
    degree_sum_identity,
    enumerate_trees,
    format_tree,
    half_ceil,
    half_floor,
    iota_injection,
    parse_tree,
    path_tree,
    subtree_ceil_edges,
    subtree_floor_edges,
)
from .verify import (
    CrossCheckSummary,
    OracleResult,
    cross_check,
    disjoint_images_guaranteed,
    oracle_find,
    oracle_no_rainbow_cycle,
    verify,
    write_bundle,
)

__version__ = "0.1.0"
