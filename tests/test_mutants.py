"""The mutation matrix: each mutant weakens one forbidden set or witness
list of the engine, and the stage corpus must catch it.

A mutant is run over ``test_golden.stage_corpus()`` until the first case
that raises a package error or fails ``verify`` with path-distinctness and
the blocked vertex.  The test pins that case and the detector that caught
it.  A mutant that survives the whole corpus points to a gap in the corpus,
never to a check that could be removed.

Two more detectors run every admissible branch from vertex 0 (see
``test_sweep.branches``): the stage slice of ``TestStageSlice``, in Tier-1,
pins each mutant's first failing branch or its survival; and the 6-edge
sweep on a host with δ < n, behind the ``sweep`` marker, runs the mutants
that the slice misses.
"""

import re
from itertools import islice

import pytest

import rainbowcube.embed as embed
from rainbowcube import build_tree, cayley_coloring, embed_rainbow_tree, verify
from rainbowcube.errors import PreconditionViolated, RainbowCubeError
from rainbowcube.gen import subgraph_min_degree

from test_golden import stage_corpus
from test_sweep import STAGE_TREES, branches, rooted_trees

EXTEND = embed._extend
LIFT = embed.PartialEmbedding.lift


def mutate_step(stage, change):
    """`_extend` with `change(pe, target, x_coor, witnesses)` rewriting the
    forbidden coordinates and witnesses of every step labelled `stage`."""

    def _extend(pe, target, x_coor, label, witnesses=()):
        if label == stage:
            x_coor, witnesses = change(pe, target, x_coor, witnesses)
        return EXTEND(pe, target, x_coor, label, witnesses)

    return _extend


def without_q(pe, target, x_coor, witnesses):
    # the step dodges the frame's coordinates plus q, which they never hold
    return pe.used_coords(), witnesses


def window_one_edge_short(pe, target, x_coor, witnesses):
    # extend_path's window for edge i is path[lo:i]; the mutant starts it at lo + 1
    path = pe.vertices
    i = path.index(target)
    lo = max(2 * i - len(path), 1)
    return frozenset(pe.coord_of[e] for e in path[lo + 1 : i]), witnesses


def lift_bans_own_colors(self, vertices, banned_coords=()):
    """`lift` banning every color its opener used, the frame's own too: the
    opener's view, banning the frame's own colors, goes through the real
    `lift`, which bans the rest."""
    own = {self.color_of[w] for w in islice(vertices, 1, None) if w in self.color_of}
    opener = self.graph
    self.graph = opener.restrict(own)
    try:
        return LIFT(self, vertices, banned_coords)
    finally:
        self.graph = opener


def first_catch():
    """(case index, detector, message) of the first stage-corpus case that a
    package error or verify refuses, or None when every case passes."""
    for k, (_, g, t, seed) in enumerate(stage_corpus()):
        try:
            pe = embed_rainbow_tree(g, t, seed=seed)
        except RainbowCubeError as exc:
            return k, type(exc), str(exc)
        report = verify(g, t, pe.image, require_path_distinct=True, z_bad=pe.z_bad)
        if not report.ok:
            return k, "verify", report.first_failure()
    return None


STEP = (embed, "_extend")
FRAME = (embed.PartialEmbedding, "lift")


# each mutant's first catch: (case, detector, message) on the stage corpus,
# and (branch, failure) on TestStageSlice's branches, None where it survives
# them (on the full cube z_bad's coordinate q is 6, past the dimension, so no
# step there can take it)
MUTANTS = [
    pytest.param(STEP, mutate_step("step1", without_q),
                 (2012, PreconditionViolated, r"tree embedding not injective"), None,
                 id="step1-without-q"),
    pytest.param(STEP, mutate_step("path", window_one_edge_short),
                 (72, PreconditionViolated, r"witness edge 4 lies outside the forbidden sets"),
                 (0, r"PreconditionViolated: witness edge 5 lies outside the forbidden sets"),
                 id="path-window-one-edge-short"),
    pytest.param(STEP, mutate_step("step2", without_q),
                 (1976, PreconditionViolated, r"tree embedding not injective"), None,
                 id="step2-without-q"),
    # step 4's counting check
    pytest.param(STEP, mutate_step("step4", lambda pe, t, x, w: (x, w[:-1])),
                 (400, PreconditionViolated, r"step step4: \|x_col\|=7 \+ \|x_coor\|=7 - r=6 >= delta=8"),
                 (0, r"PreconditionViolated: step step4: \|x_col\|=3 \+ \|x_coor\|=3 - r=0 >= delta=6"),
                 id="step4-last-witness-dropped"),
    pytest.param(STEP, mutate_step("step5", lambda pe, t, x, w: (frozenset(), w)),
                 (146, PreconditionViolated, r"witness edge 5 lies outside the forbidden sets"),
                 (720, r"PreconditionViolated: witness edge 5 lies outside the forbidden sets"),
                 id="step5-empty-x_coor"),
    # leg one's step 0 dodging nothing: extend_path, which leg one goes
    # through with its input checks, finds the leg's first edges repeating a
    # coordinate
    pytest.param(STEP, mutate_step("spider0", lambda pe, t, x, w: (frozenset(), ())),
                 (2153, PreconditionViolated, r"extend_path input: mapped edges are not doubly distinct"),
                 None, id="spider0-dodges-nothing"),
    # lift's liveness check on the frame's pre-mapped edges
    pytest.param(FRAME, lift_bans_own_colors,
                 (14, PreconditionViolated, r"pre-mapped edge 2 was banned from the restricted host"),
                 (0, r"PreconditionViolated: pre-mapped edge 3 was banned from the restricted host"),
                 id="lift-bans-own-colors"),
]


@pytest.mark.parametrize("where, mutant, corpus, stage_slice", MUTANTS)
def test_the_stage_corpus_catches_the_mutant(where, mutant, corpus, stage_slice, monkeypatch):
    monkeypatch.setattr(*where, mutant)
    caught = first_catch()
    assert caught is not None, "the mutant survived the stage corpus"
    case, detector, message = corpus
    assert caught[0] == case and caught[1] is detector and re.fullmatch(message, caught[2]), caught


def first_branch_catch(g, trees):
    """(branch index, failure) of the first failing branch from vertex 0 of
    the trees on host g, in order, or None when every branch verifies."""
    runs = (why for t in trees for why in branches(g, t, 0))
    return next(((k, why) for k, why in enumerate(runs) if why is not None), None)


@pytest.mark.parametrize("where, mutant, corpus, stage_slice", MUTANTS)
def test_the_stage_slice_catches_the_mutant_or_it_survives(where, mutant, corpus, stage_slice, monkeypatch):
    monkeypatch.setattr(*where, mutant)
    caught = first_branch_catch(cayley_coloring(6), [build_tree(parents) for parents in STAGE_TREES])
    if stage_slice is None:
        assert caught is None, caught
    else:
        assert caught[0] == stage_slice[0] and re.fullmatch(stage_slice[1], caught[1]), caught


# the slice's survivors survive the 6-edge sweep on subgraph_min_degree(7, 6, 0)
# too, all 186,742 of its branches, though there z_bad's coordinate q is a
# real one
@pytest.mark.sweep
@pytest.mark.parametrize("where, mutant, corpus, stage_slice", [m for m in MUTANTS if m.values[3] is None])
def test_the_six_edge_sweep_misses_the_slice_survivors(where, mutant, corpus, stage_slice, monkeypatch):
    monkeypatch.setattr(*where, mutant)
    assert first_branch_catch(subgraph_min_degree(7, 6, 0), rooted_trees(6)) is None
