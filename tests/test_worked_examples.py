"""Regression tests for worked example pairs and their known facts."""

import numpy as np

from doublemarkov import Graph, ci, complete_graph
from doublemarkov.geometry import (
    dimension_bound,
    find_model_point,
    local_tangent_dimension,
)
from doublemarkov.matrices import is_pd, membership_residual


def test_ci_vs_correlation_model_relation():
    # two copies of the square 12-13-24-34 induce exactly the four statements
    g = Graph.from_edges(4, [(1, 2), (1, 3), (2, 4), (3, 4)])
    r = ci.double_markov_relation(g, g)
    assert set(r.statements()) == {
        ci.make_statement(1, 4), ci.make_statement(1, 4, {2, 3}),
        ci.make_statement(2, 3), ci.make_statement(2, 3, {1, 4})}


def test_almost_complete_pair_singular_at_identity():
    # G = H = K_4 minus the edge 12: dimension 4 < 5, identity is singular
    g = Graph.from_edges(4, [e for e in complete_graph(4).edges if e != (1, 2)])
    assert dimension_bound(g, g)[1] == 5
    assert local_tangent_dimension(np.eye(4), g, g) == 5
    rng = np.random.default_rng(8)
    generic_dims = []
    for _ in range(20):
        s13, s14, s23, s24 = rng.uniform(-0.3, 0.3, size=4)
        denom = s13 * s24 + s14 * s23
        if abs(denom) < 1e-2:
            continue
        s34 = (s13 * s23 + s14 * s24) / denom
        a = np.array([[1, 0, s13, s14], [0, 1, s23, s24],
                      [s13, s23, 1, s34], [s14, s24, s34, 1]])
        if not is_pd(a):
            continue
        assert np.abs(membership_residual(a, g, g)).max() <= 1e-12
        generic_dims.append(local_tangent_dimension(a, g, g))
    assert generic_dims and set(generic_dims) == {4}


def test_union_complete_pair_leaves_common_graph():
    # G,H with complete union: the model satisfies s12 = s13 s23 + s14 s24,
    # so entries outside the common graph need not vanish
    g = Graph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    h = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)])
    rng = np.random.default_rng(9)
    hit_nonzero = False
    for _ in range(10):
        s13, s14, s23, s24 = rng.uniform(-0.4, 0.4, size=4)
        s12 = s13 * s23 + s14 * s24
        a = np.array([[1, s12, s13, s14], [s12, 1, s23, s24],
                      [s13, s23, 1, 0], [s14, s24, 0, 1]])
        if not is_pd(a):
            continue
        assert np.abs(membership_residual(a, g, h)).max() <= 1e-9
        hit_nonzero |= abs(s12) > 1e-3
    assert hit_nonzero


def test_semidefinite_five_point_configuration():
    # disjoint-edge pair whose semidefinite slice has five isolated points;
    # the four non-identity points satisfy the defining equations but are
    # only semidefinite, and the definite model collapses to the identity
    g = Graph.from_edges(4, [(1, 3), (2, 4)])
    h = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    for s in (1.0, -1.0):
        a = np.array([[1, s, 0, 0], [s, 1, 0, 0],
                      [0, 0, 1, -s], [0, 0, -s, 1]])
        assert not is_pd(a)
        assert min(np.linalg.eigvalsh(a)) >= -1e-12
        for i, j in h.non_edges():
            assert a[i - 1, j - 1] == 0
        for k, l in g.non_edges():
            rows = [v for v in range(4) if v != k - 1]
            cols = [v for v in range(4) if v != l - 1]
            assert abs(np.linalg.det(a[np.ix_(rows, cols)])) <= 1e-12
    res = find_model_point(g, h, seed=0)
    assert res.converged and np.abs(res.matrix - np.eye(4)).max() <= 1e-6


def test_self_dual_nonsmooth_minors_are_markov():
    # all proper minors of the almost-complete self-dual pair are Markov
    # relations or duals of such (smooth models either way)
    for n in (4, 5):
        g = Graph.from_edges(n, [e for e in complete_graph(n).edges if e != (1, 2)])
        r = ci.double_markov_relation(g, g)
        assert ci.recognize_markov(r) is None  # the pair itself is not
        for k in range(1, n + 1):
            for minor in (ci.marginal(r, k), ci.conditional(r, k)):
                assert (ci.recognize_markov(minor) is not None
                        or ci.recognize_markov(ci.dual(minor)) is not None)


def test_incomplete_pair_completion_is_common_graph():
    # the closure of the two-squares pair equals the relation of (J, J) with
    # J the common graph, and that relation is self-dual
    g = Graph.from_edges(4, [(1, 2), (1, 4), (2, 3), (3, 4)])
    h = Graph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)])
    from doublemarkov.graphs import edge_intersection
    j = edge_intersection(g, h)
    closed = ci.closure(ci.double_markov_relation(g, h), ci.HORN_RULES)
    assert closed == ci.double_markov_relation(j, j)
    rj = ci.relation_of_graph(j)
    assert ci.dual(rj) == rj
