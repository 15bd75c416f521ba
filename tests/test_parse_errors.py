"""Every way the three text formats reject input: exception type and full message.

The host, tree and embedding readers share one record loop, so these tables
pin what each of them reports, line numbers included.
"""

import pytest

from rainbowcube.embed import parse_embedding
from rainbowcube.errors import CycleDetected, DisconnectedInput, FormatError, IndexOutOfRange
from rainbowcube.hypercube import parse_graph
from rainbowcube.tree import parse_tree

INT_X = "invalid literal for int() with base 10: 'x'"

GRAPH_CASES = [
    ("", "missing cube header"),
    ("# only a comment\n\n", "missing cube header"),
    ("vertex 00\n", "line 1: vertex before cube header"),
    ("edge 00 01 0\n", "line 1: edge before cube header"),
    ("foo 1\ncube 2\n", "line 1: unknown record 'foo'"),
    ("cube 2\ncube 2\n", "line 2: duplicate cube header"),
    ("cube 2\ncube\n", "line 2: duplicate cube header"),
    ("cube\n", "line 1: cube header needs one field"),
    ("cube 2 3\n", "line 1: cube header needs one field"),
    ("cube x\n", f"line 1: {INT_X}"),
    ("cube 0\n", "line 1: dimension must be >= 1"),
    ("cube -1\n", "line 1: dimension must be >= 1"),
    ("cube 2\nvertex\n", "line 2: vertex needs one field"),
    ("cube 2\nvertex 00 01\n", "line 2: vertex needs one field"),
    ("cube 2\nvertex 012\n", "line 2: bad vertex '012' for dimension 2"),
    ("cube 2\nvertex 0a\n", "line 2: bad vertex '0a' for dimension 2"),
    ("cube 2\nedge 00 01\n", "line 2: edge needs three fields"),
    ("cube 2\nedge 00 01 0 1\n", "line 2: edge needs three fields"),
    ("cube 2\nedge 00 01 -1\n", "line 2: color must be nonnegative"),
    ("cube 2\nedge 00 11 -1\n", "line 2: color must be nonnegative"),
    ("cube 2\nedge 00 01 x\n", f"line 2: {INT_X}"),
    ("cube 2\nedge 0 11 x\n", "line 2: bad vertex '0' for dimension 2"),
    ("cube 2\nedge 00 11 0\n", "line 2: vertices 0 and 3 differ in 2 bits, expected exactly 1"),
    ("cube 2\nedge 00 00 0\n", "line 2: vertices 0 and 0 differ in 0 bits, expected exactly 1"),
    ("cube 2\nfoo 1\n", "line 2: unknown record 'foo'"),
    ("# c\n\ncube 2 # x\nbogus\n", "line 4: unknown record 'bogus'"),
    # found when the host is built, after the last line: no line number
    ("cube 2\nedge 00 01 0\nedge 01 00 1\n", "duplicate edge (0, 1)"),
    ("cube 2\nedge 00 01 0\nedge 00 10 0\n", "vertex 00: edges to 01 and 10 share color 0"),
]

STRICT_GRAPH_CASES = [
    ("cube 2\nvertex 00\nedge 00 01 0\n",
     "line 3: edge uses undeclared vertex under strict-vertices"),
    ("cube 2\nedge 00 11 0\n", "line 2: vertices 0 and 3 differ in 2 bits, expected exactly 1"),
]

TREE_CASES = [
    ("", FormatError, "missing tree header"),
    ("parents 0\n", FormatError, "line 1: parents before tree header"),
    ("parents\n", FormatError, "line 1: parents before tree header"),
    ("foo\ntree 2\n", FormatError, "line 1: unknown record 'foo'"),
    ("tree 2\ntree 2\n", FormatError, "line 2: duplicate tree header"),
    ("tree\n", FormatError, "line 1: tree header needs one field"),
    ("tree 1 2\n", FormatError, "line 1: tree header needs one field"),
    ("tree 0\n", FormatError, "line 1: vertex count must be >= 1"),
    ("tree x\n", FormatError, f"line 1: {INT_X}"),
    ("tree 2\nparents 0\nparents 0\n", FormatError, "line 3: duplicate parents line"),
    ("tree 2\nparents x\n", FormatError, f"line 2: {INT_X}"),
    ("tree 2\nfoo\n", FormatError, "line 2: unknown record 'foo'"),
    ("tree 3\n", DisconnectedInput, "tree 3 needs 2 parents, got 0"),
    ("tree 3\nparents 0\n", DisconnectedInput, "tree 3 needs 2 parents, got 1"),
    ("tree 2\nparents 0 0\n", DisconnectedInput, "tree 2 needs 1 parents, got 2"),
    ("tree 3\nparents 0 5\n", IndexOutOfRange, "parent of vertex 2 is 5, outside [0, 3)"),
    ("tree 3\nparents 0 -1\n", IndexOutOfRange, "parent of vertex 2 is -1, outside [0, 3)"),
    ("tree 3\nparents 2 1\n", CycleDetected, "parent chain from vertex 1 loops at vertex 1"),
]

EMBEDDING_CASES = [
    ("", "missing embedding header"),
    ("map 0 000\n", "line 1: map before embedding header"),
    ("foo\n", "line 1: unknown record 'foo'"),
    ("embedding 1\n", "line 1: embedding header needs two fields"),
    ("embedding 1 2 3\n", "line 1: embedding header needs two fields"),
    ("embedding 1 2\nembedding 1 2\n", "line 2: duplicate embedding header"),
    ("embedding x 2\n", f"line 1: {INT_X}"),
    ("embedding 1 2\nmap 0\n", "line 2: map needs two fields"),
    ("embedding 1 2\nmap 0 00 1\n", "line 2: map needs two fields"),
    ("embedding 1 2\nmap 0 00\nmap 0 01\n", "line 3: duplicate map for vertex 0"),
    ("embedding 1 2\nmap 0 0\n", "line 2: bad vertex '0' for dimension 2"),
    ("embedding 1 2\nmap x 00\n", f"line 2: {INT_X}"),
    ("embedding 1 2\nfoo\n", "line 2: unknown record 'foo'"),
    ("edge 0 1 0 0\nembedding 1 2\nfoo\n", "line 3: unknown record 'foo'"),
]


@pytest.mark.parametrize("text, message", GRAPH_CASES)
def test_graph_errors(text, message):
    with pytest.raises(FormatError) as info:
        parse_graph(text)
    assert type(info.value) is FormatError and str(info.value) == message


@pytest.mark.parametrize("text, message", STRICT_GRAPH_CASES)
def test_strict_vertices_errors(text, message):
    with pytest.raises(FormatError) as info:
        parse_graph(text, strict_vertices=True)
    assert type(info.value) is FormatError and str(info.value) == message


def test_strict_vertices_accepts_declared_endpoints():
    g = parse_graph("cube 2\nvertex 00\nvertex 01\nedge 00 01 0\n", strict_vertices=True)
    assert list(g.edges()) == [(0, 1, 0)]


@pytest.mark.parametrize("text, kind, message", TREE_CASES)
def test_tree_errors(text, kind, message):
    with pytest.raises(kind) as info:
        parse_tree(text)
    assert type(info.value) is kind and str(info.value) == message


def test_tree_header_alone_is_one_vertex():
    assert parse_tree("tree 1\n").n == 1
    assert parse_tree("tree 1\nparents\n").n == 1


@pytest.mark.parametrize("text, message", EMBEDDING_CASES)
def test_embedding_errors(text, message):
    with pytest.raises(FormatError) as info:
        parse_embedding(text)
    assert type(info.value) is FormatError and str(info.value) == message


def test_embedding_skips_edge_and_trace_lines_anywhere():
    text = (
        "edge 0 1 0 0\n"
        "trace x\n"
        "embedding 1 2  # header after informational lines\n"
        "trace half 1 00 01 0 0 0 extra fields\n"
        "map 0 00\n"
        "edge\n"
        "map 1 01\n"
    )
    assert parse_embedding(text) == ({0: 0, 1: 1}, 1, 2)
