"""The solver against `reference_driver.reference_run`, a reading of the
iteration that carries no state between iterations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_separator
from minorsep.graph import build_graph
from minorsep.separator import balanced_separator
from test_separator import FROZEN_PATHS, near_connected_graphs, sparse_graphs

from helpers import deep_anchor, np_edges
from reference_driver import outcome_body, reference_run


@st.composite
def dense_graphs(draw):
    """Random graphs of up to 40 vertices, of a drawn edge density: dense
    ones end in witnesses or in centred iterations that retire branches."""
    n = draw(st.integers(3, 40))
    p = draw(st.sampled_from([0.08, 0.15, 0.3, 0.5, 0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < p, 1)
    return build_graph(n, np.argwhere(upper))


@st.composite
def anchored_graphs(draw):
    """`deep_anchor` blobs of up to 40 vertices with random chords in the
    blob, where vertex 0 hangs off a tail deep enough for steps 3 and 4."""
    leaves = draw(st.integers(2, 30))
    g = deep_anchor(leaves, draw(st.integers(1, 38 - leaves)))
    blob = st.integers(1, leaves + 1)
    chords = draw(st.lists(st.tuples(blob, blob).filter(lambda e: e[0] != e[1]),
                           max_size=leaves))
    return build_graph(g.n, np_edges(g) + chords)


@settings(max_examples=300)
@given(st.one_of(dense_graphs(), anchored_graphs(), near_connected_graphs(max_n=40),
                 sparse_graphs(max_n=40)),
       st.integers(3, 9), st.integers(1, 3), st.integers(0, 3))
def test_solver_matches_the_reference_driver(g, h, ell, seed):
    out = balanced_separator(g, h, ell=ell, seed=seed, debug=True)
    assert outcome_body(out) == reference_run(g, h, ell=ell, seed=seed)


@pytest.mark.parametrize("name,run", [p[:2] for p in FROZEN_PATHS],
                         ids=[p[0] for p in FROZEN_PATHS])
def test_frozen_paths_match_the_reference_driver(monkeypatch, name, run):
    # each entry is a call of `balanced_separator`; the wrapper records its
    # arguments so the reference runs the same input
    calls = []

    def recorded(g, h, ell=None, seed=0):
        calls.append((g, h, ell, seed))
        return balanced_separator(g, h, ell=ell, seed=seed)

    monkeypatch.setattr(test_separator, "balanced_separator", recorded)
    out = run()
    (g, h, ell, seed), = calls
    assert outcome_body(out) == reference_run(g, h, ell=ell, seed=seed)
