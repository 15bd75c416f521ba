"""Rainbow tree embeddings in properly edge-colored hypercube subgraphs.

Any properly edge-colored subgraph G of a cube contains a rainbow copy of
every tree with at most delta(G) edges; this package constructs one,
certifies it independently, and cross-checks against brute force at small
scale.

The top level holds what README's library section, the CLI and the demos
use; the rest lives in the submodules (`tree`, `gen`, `hypercube`, `embed`,
`errors`, and the certifier's module `verify`).  The package attribute
`rainbowcube.verify` is the function, not that module, so the module's other
names are reached with `from rainbowcube.verify import ...` until that
module gets a name of its own.
"""

from .embed import (
    ExtensionRequest,
    PartialEmbedding,
    embed_rainbow_tree,
    extend_one,
    extend_path,
    extend_spider,
    extend_tree,
    format_embedding,
    parse_embedding,
)
from .hypercube import (
    ColoredCubeGraph,
    VirtualCayleyCube,
    cayley_coloring,
    format_graph,
    parse_graph,
    vertex_str,
)
from .tree import build_tree, format_tree, parse_tree, path_tree
from .verify import cross_check, oracle_find, oracle_no_rainbow_cycle, verify, write_bundle

__all__ = [
    # hosts
    "ColoredCubeGraph",
    "VirtualCayleyCube",
    "cayley_coloring",
    "format_graph",
    "parse_graph",
    "vertex_str",
    # trees
    "build_tree",
    "format_tree",
    "parse_tree",
    "path_tree",
    # the engine
    "ExtensionRequest",
    "PartialEmbedding",
    "embed_rainbow_tree",
    "extend_one",
    "extend_path",
    "extend_spider",
    "extend_tree",
    "format_embedding",
    "parse_embedding",
    # certification
    "cross_check",
    "oracle_find",
    "oracle_no_rainbow_cycle",
    "verify",
    "write_bundle",
]

__version__ = "0.1.0"
