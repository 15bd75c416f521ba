"""Every guard of the engine has a witness: each `raise` in `embed.py`,
`frames.py`, `tree.py`, `hypercube.py` and `prng.py` is either reached by a
named test or backed by a named proof.

A raise is named by its function and its exception, with the message's
fixed text and `{}` for each value formatted into it; `#2` marks a second
raise of that name in one function.  `WITNESSES` maps each name to one of
two things:

- the test that reaches it, as ``file::Class::test``, with a hand-built
  input, a fault injected upstream (``test_embed.py::TestStrictChecks``) or
  a mutant (``test_mutants.py``);
- ``proof: <name>``, for a raise that no input reaches but that stays as a
  live check; the module names the proof in a comment beside it.

A raise missing from the table fails, and so does an entry with no raise
behind it, a test that does not exist or a proof that the module does not
name.  Which test reaches which raise was read off a line-traced run of the
suite; this file only reads source, so it costs what parsing does.
`tools/linecov.py` makes such a run and prints every statement of the
package that no test executes, so a raise it lists has no test that
reaches it.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

import rainbowcube

PACKAGE = Path(rainbowcube.__file__).parent
TESTS = Path(__file__).parent


def _message(exc: ast.Call) -> str:
    """The exception and its message's fixed text, `{}` for each value."""
    arg = exc.args[0] if exc.args else ast.Constant("")
    if isinstance(arg, ast.JoinedStr):
        text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in arg.values)
    else:
        text = arg.value if isinstance(arg, ast.Constant) else "{}"
    return f"{ast.unparse(exc.func)}({text})"


def guards(module: str) -> dict[str, int]:
    """Each raise of the module, by name, with its line."""
    found: dict[str, int] = {}

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise):
                name = f"{'.'.join(scope)}: {_message(child.exc)}"
                repeat = sum(n == name or n.startswith(name + " #") for n in found)
                found[f"{name} #{repeat + 1}" if repeat else name] = child.lineno
            visit(child, scope)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), ())
    return found


WITNESSES = {
    "embed": {
        "PartialEmbedding.premap: PreconditionViolated(premap: vertex {} is outside [1, {}))":
            "test_embed.py::TestPremap::test_refuses",
        "PartialEmbedding.premap: PreconditionViolated(premap: vertex {} is outside the frame)":
            "test_embed.py::TestPremap::test_refuses_a_vertex_outside_the_frame",
        "PartialEmbedding.premap: PreconditionViolated(premap: vertex {} is already mapped)":
            "test_embed.py::TestPremap::test_refuses",
        "PartialEmbedding.premap: PreconditionViolated(premap: the parent of vertex {} is unmapped)":
            "test_embed.py::TestPremap::test_refuses",
        "PartialEmbedding.premap: PreconditionViolated(premap: edge {} maps to a non-edge)":
            "test_embed.py::TestPremap::test_refuses_an_edge_the_view_bans",
        "PartialEmbedding.record: PreconditionViolated(color {} reused at edge {})":
            "test_embed.py::TestFrames::test_color_reused_across_frames",
        "PartialEmbedding.require_doubly_distinct: PreconditionViolated({}: mapped edges are not doubly distinct)":
            "test_embed.py::TestExtendTree::test_rejects_input_that_is_not_doubly_distinct",
        "_Listed.lift: PreconditionViolated(pre-mapped edge {} was banned from the restricted host)":
            "test_mutants.py::test_the_stage_corpus_catches_the_mutant",
        "extend_one: PreconditionViolated(step {}: vertex {} is outside [1, {}))":
            "test_embed.py::TestExtendOne::test_refuses_a_target_outside_the_tree",
        "extend_one: PreconditionViolated(step {}: vertex {} is outside the frame)":
            "test_embed.py::TestExtendOne::test_refuses_a_target_outside_the_frame",
        "extend_one: PreconditionViolated(step {}: {}->{} not a frontier edge)":
            "test_embed.py::TestFrames::test_a_frame_cannot_remap_a_vertex",
        "extend_one: PreconditionViolated(step {}: {} is not a child of {})":
            "test_embed.py::TestExtendOne::test_refuses_a_target_that_is_not_a_child_of_the_source",
        "extend_one: PreconditionViolated(step {}: |x_col|={} + |x_coor|={} - r={} >= delta={})":
            "test_mutants.py::test_the_stage_corpus_catches_the_mutant",
        "extend_one: NoCandidate(step {}: counting bound held but no edge was admissible)":
            "test_embed.py::TestLiveness::test_witnesses_are_decided_as_the_view_does",
        "_check_witnesses: PreconditionViolated(witness edge {} is unmapped)":
            "test_embed.py::TestWitnessCache::test_requests_at_one_source_decide_as_the_full_loop",
        "_check_witnesses: PreconditionViolated(witness edge {} is not incident to {})":
            "test_embed.py::TestWitnessCache::test_requests_at_one_source_decide_as_the_full_loop",
        "_check_witnesses: PreconditionViolated(witness edge {} lies outside the forbidden sets)":
            "test_embed.py::TestExtendOne::test_rejects_bad_witness",
        "_check_witnesses: PreconditionViolated(witness edge {} repeats a color or coordinate)":
            "test_embed.py::TestWitnessCache::test_requests_at_one_source_decide_as_the_full_loop",
        "_check_witnesses: PreconditionViolated(witness edge {} is not live in the current host)":
            "test_embed.py::TestLiveness::test_witnesses_are_decided_as_the_view_does",
        "embed_half: DegreeTooSmall(host delta={} < e(T)={})":
            "test_embed.py::TestEmbedHalf::test_degree_guard",
        "embed_half: VertexNotInGraph(start vertex {} not in host)":
            "test_embed.py::TestEmbedHalf::test_start_outside_the_host",
        "certify_path_windows: PreconditionViolated(window [{}, {}] repeats a coordinate: {})":
            "test_embed.py::TestExtendPath::test_window_certificate_rejects_repeats",
        "extend_path: PreconditionViolated(extend_path needs a path tree with ids in order)":
            "test_embed.py::TestExtendPath::test_rejects_a_tree_that_is_not_a_path",
        "extend_path: PreconditionViolated(path domain must be the first {} edges, got {})":
            "test_embed.py::TestExtendPath::test_rejects_wrong_domain",
        "_check_injective: PreconditionViolated({} embedding not injective)":
            "test_embed.py::TestFrames::test_a_repeat_inside_an_inner_frame_is_caught_once",
        "extend_spider: PreconditionViolated(extend_spider needs a spider)":
            "test_embed.py::TestExtendSpider::test_rejects_non_spider",
        "_spider_legs: PreconditionViolated(delta={} < e(S)={})":
            "test_embed.py::TestStrictChecks::test_an_overbanning_lift_is_caught_by_the_counting_bounds",
        "extend_spider: PreconditionViolated(spider domain must be the lower half plus at most one edge)":
            "test_embed.py::TestExtendSpider::test_rejects_a_domain_short_of_the_lower_half",
        "extend_spider: PreconditionViolated(more than one odd leg)":
            "test_embed.py::TestExtendSpider::test_rejects_two_odd_legs",
        "extend_spider: PreconditionViolated(legs other than leg one must have even length)":
            "test_embed.py::TestExtendSpider::test_rejects_an_odd_leg_beside_leg_one",
        "_spider_legs: PreconditionViolated(leg-one view delta={} < leg length {})":
            "test_embed.py::TestStrictChecks::test_an_overbanning_lift_is_caught_by_the_counting_bounds",
        "extend_tree: PreconditionViolated(blocked vertex is not a cube neighbor of the root image)":
            "test_embed.py::TestExtendTree::test_rejects_a_blocker_that_is_not_a_cube_neighbor",
        "extend_tree: PreconditionViolated(blocked vertex is joined to the root image in the host)":
            "test_embed.py::TestExtendTree::test_rejects_live_blocker",
        "extend_tree: PreconditionViolated(extend_tree domain must be exactly the lower half)":
            "test_embed.py::TestExtendTree::test_rejects_a_domain_other_than_the_lower_half",
        "extend_tree: PreconditionViolated(blocked coordinate already used by the lower half)":
            "test_embed.py::TestExtendTree::test_rejects_used_blocker_coordinate",
        "extend_tree: PreconditionViolated(embedding touched the blocked vertex)":
            "test_embed.py::TestExtendTree::test_a_single_vertex_on_the_blocked_vertex",
        "_tree_frame: PreconditionViolated(delta={} < e(T)={})":
            "test_embed.py::TestStrictChecks::test_an_overbanning_lift_is_caught_by_the_counting_bounds",
        "_tree_frame: PreconditionViolated(anchor set of spider child {} is not half its subtree)":
            "test_embed.py::TestStrictChecks::test_broken_anchor_bookkeeping_is_caught",
        "_tree_frame: PreconditionViolated(anchor set of child {} exceeds half its subtree)":
            "test_embed.py::TestStrictChecks::test_broken_anchor_bookkeeping_is_caught",
        "_tree_frame: PreconditionViolated(anchor sets exceed half of the edges outside leaves and mid-legs)":
            "test_embed.py::TestStrictChecks::test_broken_anchor_bookkeeping_is_caught",
        "_tree_frame: PreconditionViolated(anchor sets miss part of the lower half)":
            "test_embed.py::TestStrictChecks::test_broken_anchor_bookkeeping_is_caught",
        "_tree_frame: PreconditionViolated(branch anchor set repeats a coordinate)":
            "test_embed.py::TestStrictChecks::test_branch_that_repeats_a_coordinate_is_caught",
        "replay_trace: PreconditionViolated(trace entry for edge {} does not chain)":
            "test_embed.py::TestTraceAndFormat::test_replay_refuses_a_trace_that_does_not_chain",
        "parse_embedding.map_line: FormatError(duplicate map for vertex {})":
            "test_parse_errors.py::test_embedding_errors",
    },
    "frames": {
        "InPlace.lift: PreconditionViolated(pre-mapped edge {} was banned from the restricted host)":
            "test_embed.py::TestViews::test_the_span_route_decides_as_the_listed_route",
    },
    "tree": {
        "build_tree: IndexOutOfRange(parent of vertex {} is {}, outside [0, {}))":
            "test_tree.py::TestBuildTree::test_index_out_of_range",
        "build_tree: CycleDetected(parent chain from vertex {} loops at vertex {})":
            "test_tree.py::TestBuildTree::test_cycle_detected",
        "as_spider: EmptyTree(single-vertex tree has no legs)":
            "test_tree.py::TestAsSpider::test_single_vertex_raises",
        "classify_children: EmptyTree(no edges to classify)":
            "test_tree.py::TestClassifyChildren::test_a_leaf_has_nothing_to_classify",
        "iota_injection: PreconditionViolated(iota maps edge {} into the upper half)":
            "proof: the iota lemma",
        "iota_injection: PreconditionViolated(iota is not injective)":
            "proof: the iota lemma",
        "enumerate_trees: LimitExceeded(enumerate_trees guard is 8 edges, got {})":
            "test_tree.py::TestEnumerateTrees::test_guard",
        "parse_tree.tree: FormatError(vertex count must be >= 1)":
            "test_tree.py::TestTreeFormat::test_rejects_malformed",
        "parse_tree.parents_line: FormatError(duplicate parents line)":
            "test_parse_errors.py::test_tree_errors",
        "parse_tree: DisconnectedInput(tree {} needs {} parents, got {})":
            "test_tree.py::TestTreeFormat::test_rejects_malformed",
    },
    "hypercube": {
        "edge_coordinate: DifferingBitCount(vertices {} and {} differ in {} bits, expected exactly 1)":
            "test_hypercube.py::TestEdgeCoordinate::test_two_bits_differ",
        "parse_vertex: FormatError(bad vertex {} for dimension {})":
            "test_hypercube.py::TestGraphFormat::test_rejects_malformed",
        "explicit_dimension: ValueError({} must be >= 1, got {})":
            "test_hypercube.py::TestFlatStoreModel::test_dimension_zero_is_refused",
        "explicit_dimension: LimitExceeded(an explicit host stores 2^{} vertices; the limit is 2^{})":
            "test_hypercube.py::TestFlatStoreModel::test_dimension_guard",
        "ColoredCubeGraph.__init__: ValueError(edge {}: endpoint out of range)":
            "test_hypercube.py::TestFlatStoreModel::test_negative_and_out_of_range_endpoints",
        "ColoredCubeGraph.__init__: ValueError(edge {}: endpoints differ in != 1 bit)":
            "test_hypercube.py::TestValidate::test_checked_constructor_rejects_bad_edge",
        "ColoredCubeGraph.__init__: ValueError(edge {}: negative color)":
            "test_hypercube.py::TestFlatStoreModel::test_duplicate_and_negative_messages",
        "ColoredCubeGraph.__init__: ValueError(duplicate edge {})":
            "test_hypercube.py::TestFlatStoreModel::test_duplicate_and_negative_messages",
        "ColoredCubeGraph.from_slots: ValueError(a slot list of Q_{} holds {} colors, got {})":
            "test_hypercube.py::TestFromSlots::test_a_corrupted_list_is_refused",
        "ColoredCubeGraph.from_slots: ValueError(vertex {}, coordinate {}: color {} is below -1)":
            "test_hypercube.py::TestFromSlots::test_a_corrupted_list_is_refused",
        "ColoredCubeGraph.from_slots: ValueError(edge {}: color {} at {} but {} at {})":
            "test_hypercube.py::TestFromSlots::test_every_lone_slot_change_is_caught",
        "ColoredCubeGraph._row_pass: ValueError(vertex {} outside [0, 2^{}))":
            "test_hypercube.py::TestFlatStoreModel::test_check_order",
        "ColoredCubeGraph._row_pass: ValueError({})":
            "test_hypercube.py::TestValidate::test_first_clash_named",
        "ColoredCubeGraph.edge_color: KeyError({})":
            "test_hypercube.py::TestFlatStoreModel::test_edge_color_on_a_non_edge",
        "ColoredCubeGraph._row: VertexNotInGraph(vertex {} not in graph)":
            "test_hypercube.py::TestCandidateEdges::test_unknown_vertex",
        "ColoredCubeGraph.delta: EmptyGraph(graph has no vertices)":
            "test_hypercube.py::TestMinDegree::test_empty",
        "ColoredCubeGraph.delta_after_bans: EmptyGraph(graph has no vertices)":
            "test_hypercube.py::TestMinDegree::test_an_empty_host_has_no_start_and_no_view_delta",
        "ColoredCubeGraph.default_start: EmptyGraph(graph has no vertices)":
            "test_hypercube.py::TestMinDegree::test_an_empty_host_has_no_start_and_no_view_delta",
        "VirtualCayleyCube.__init__: ValueError(dimension must be >= 1, got {})":
            "test_hypercube.py::TestFlatStoreModel::test_dimension_zero_is_refused",
        "VirtualCayleyCube._listable: LimitExceeded(listing Q_{} takes 2^{} vertices; the limit is 2^{})":
            "test_verify.py::TestBundles::test_implicit_cube_past_q16_is_not_listed",
        "VirtualCayleyCube.admissible: VertexNotInGraph(vertex {} not in graph)":
            "test_hypercube.py::TestAdmissibleScan::test_unknown_vertex_in_a_virtual_view",
        "VirtualCayleyCube.degree: VertexNotInGraph(vertex {} not in graph)":
            "test_hypercube.py::TestVirtualCayley::test_degree_outside_the_cube",
        "FreeCoordinates.__getitem__: IndexError(candidate index out of range)":
            "test_hypercube.py::TestLazyCandidates::test_every_operation_agrees_with_the_filter",
        "FreeCoordinates.__getitem__: IndexError(candidate index out of range) #2":
            "test_hypercube.py::TestLazyCandidates::test_every_operation_agrees_with_the_filter",
        "parse_graph.cube: FormatError(dimension must be >= 1)":
            "test_hypercube.py::TestGraphFormat::test_rejects_malformed",
        "parse_graph.cube: FormatError(dimension must be <= {} for an explicit host)":
            "test_hypercube.py::TestFlatStoreModel::test_dimension_guard",
        "parse_graph.edge: FormatError(color must be nonnegative)":
            "test_hypercube.py::TestGraphFormat::test_rejects_malformed",
        "parse_graph.edge: FormatError(edge uses undeclared vertex under strict-vertices)":
            "test_hypercube.py::TestGraphFormat::test_strict_vertices",
        "parse_graph: FormatError({})":
            "test_parse_errors.py::test_graph_errors",
    },
    "prng": {
        "SplitMix64.randrange: ValueError(randrange needs n >= 1, got {})":
            "test_gen.py::TestSplitMix64::test_randrange_needs_a_nonempty_range",
    },
}


@lru_cache(maxsize=None)
def _tests_in(file: str) -> set[str]:
    """`Class::test` and `test` names defined in a test file."""
    names = set()
    for node in ast.parse((TESTS / file).read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{f.name}" for f in node.body if isinstance(f, ast.FunctionDef))
    return names


@pytest.mark.parametrize("module", sorted(WITNESSES))
def test_every_raise_has_a_witness(module):
    table, found = WITNESSES[module], guards(module)
    assert sorted(set(found) - set(table)) == [], "raises with no witness"
    assert sorted(set(table) - set(found)) == [], "witnesses with no raise behind them"


@pytest.mark.parametrize("module", sorted(WITNESSES))
def test_every_witness_exists(module):
    source = (PACKAGE / f"{module}.py").read_text()
    for guard, witness in WITNESSES[module].items():
        if witness.startswith("proof: "):
            assert witness[len("proof: "):] in source, (guard, witness)
        else:
            file, _, test = witness.partition("::")
            assert test in _tests_in(file), (guard, witness)
