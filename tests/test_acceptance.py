"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import functools
import itertools
import time

import numpy as np
import pytest

from doublemarkov import Graph, ci, classify, graphs, matrices
from doublemarkov.classify import classify_small_intersection, sample_from_family
from doublemarkov.geometry import (
    dimension_bound,
    find_model_point,
    is_transverse_at,
    stacked_jacobian,
)
from doublemarkov.graphs import (
    connected_components,
    edge_intersection,
    graph_from_edge_mask,
    pairs_lex,
)
from doublemarkov.ideal import (
    SparsePolynomial,
    minimal_primes,
    path_expansion,
    sci_monomial_generators,
    symbolic_apm,
    symbolic_principal_minor,
)
from doublemarkov.matrices import is_pd, membership_residual, relation_of_matrix

from conftest import unrestricted_point

STAR4 = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
PATH4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])


def report(num, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:2d} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {num:2d} PASS: {description}")

        return wrapper

    return deco


@report(1, "enumeration counts 4 / 55 / 2644 for n = 3, 4, 5")
def test_criterion_1_enumeration():
    t0 = time.time()
    assert classify.enumerate_inequivalent(3, connected_only=True).count == 4
    assert classify.enumerate_inequivalent(4, connected_only=True).count == 55
    assert classify.enumerate_inequivalent(5, connected_only=True).count == 2644
    assert time.time() - t0 < 1800


@report(2, "6x6 principally regular counterexample: minors, det -4374/55, not PD")
def test_criterion_2_counterexample():
    x14 = np.sqrt(981.0 / 1210.0)
    a = np.array([
        [10, 1, 1, x14, 11 * x14, 0],
        [1, 10, 1, 0, 0, 0],
        [1, 1, 10, -x14, 0, -11 * x14],
        [x14, 0, -x14, 10, 1, 1],
        [11 * x14, 0, 0, 1, 10, 1],
        [0, 0, -11 * x14, 1, 1, 10],
    ])
    for k, l in [(1, 4), (1, 5), (3, 4), (3, 6)]:
        rows = [v for v in range(6) if v != k - 1]
        cols = [v for v in range(6) if v != l - 1]
        assert abs(np.linalg.det(a[np.ix_(rows, cols)])) <= 1e-7
    minors = [np.linalg.det(a[np.ix_(S, S)])
              for r in range(1, 6) for S in itertools.combinations(range(6), r)]
    assert len(minors) == 62
    assert min(abs(m) for m in minors) > 1e-7
    assert abs(np.linalg.det(a) - (-4374.0 / 55.0)) <= 1e-7
    assert not is_pd(a)


@report(3, "path expansion: exact for all H with n <= 5, numeric 1e-10 on 1000 draws")
def test_criterion_3_path_expansion():
    for n in (2, 3, 4, 5):
        verts = set(range(1, n + 1))
        for h in graphs.all_graphs(n):
            minors = {}
            for k, l in pairs_lex(n):
                lhs = symbolic_apm(h, k, l)
                if (k + l) % 2:
                    lhs = -lhs
                rhs = SparsePolynomial.zero()
                for term in path_expansion(h, k, l):
                    keep = frozenset(verts - set(term.path))
                    if keep not in minors:
                        minors[keep] = symbolic_principal_minor(h, keep)
                    rhs = rhs + term.sign * SparsePolynomial.monomial(term.monomial) \
                        * minors[keep]
                assert lhs == rhs
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        edges = [e for e in pairs_lex(n) if rng.random() < 0.6]
        h = Graph.from_edges(n, edges)
        k, l = (int(v) for v in rng.choice(np.arange(1, n + 1), size=2, replace=False))
        a = np.eye(n)
        for i, j in h.edges:
            a[i - 1, j - 1] = a[j - 1, i - 1] = rng.uniform(-1, 1)
        rows = [v for v in range(n) if v != k - 1]
        cols = [v for v in range(n) if v != l - 1]
        lhs = (-1) ** (k + l) * np.linalg.det(a[np.ix_(rows, cols)])
        rhs = 0.0
        for term in path_expansion(h, k, l):
            keep = [v - 1 for v in range(1, n + 1) if v not in term.path]
            prod = float(np.prod([a[i - 1, j - 1] for i, j in term.monomial]))
            rhs += term.sign * prod * np.linalg.det(a[np.ix_(keep, keep)])
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def _random_forest(n, rng):
    tree = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
    return Graph.from_edges(n, [e for e in tree if rng.random() < 0.85])


@report(4, "monomial ideal: star/path generators; 200 (G, forest) prime patterns")
def test_criterion_4_monomial_ideal():
    gens = sci_monomial_generators(STAR4, PATH4)
    assert gens.generator_strings() == ["s_13", "s_14", "s_23", "s_24", "s_34"]
    rng = np.random.default_rng(77)
    pairs_checked = 0
    patterns_checked = 0
    while pairs_checked < 200:
        n = int(rng.integers(3, 7))
        g = Graph.from_edges(n, [e for e in pairs_lex(n) if rng.random() < 0.55])
        h = _random_forest(n, rng)
        idl = sci_monomial_generators(g, h)
        pairs_checked += 1
        for prime in minimal_primes(idl):
            a = np.eye(n)
            for i, j in pairs_lex(n):
                if (i, j) not in prime:
                    a[i - 1, j - 1] = a[j - 1, i - 1] = rng.uniform(-0.4, 0.4)
            if is_pd(a):
                assert np.abs(membership_residual(a, g, h)).max() <= 1e-9
                patterns_checked += 1
    assert patterns_checked >= 200


def _converged_points():
    """Shared sample set for criteria 5 and 7: (g, h, unrestricted, blockwise).

    The unrestricted point comes from the Gauss-Newton kernel on the whole
    pair.  find_model_point searches block by block, so its points satisfy
    criterion 5 by construction and cannot test it.
    """
    rng = np.random.default_rng(4242)

    def sample(g, h, seed):
        return g, h, unrestricted_point(g, h, seed), find_model_point(g, h, seed=seed)

    disconnected = []
    while len(disconnected) < 100:
        n = int(rng.integers(3, 7))
        g = Graph.from_edges(n, [e for e in pairs_lex(n) if rng.random() < 0.5])
        h = Graph.from_edges(n, [e for e in pairs_lex(n) if rng.random() < 0.5])
        shared = edge_intersection(g, h)
        if len(connected_components(shared)) < 2:
            continue
        disconnected.append(sample(g, h, len(disconnected)))
    disjoint = []
    while len(disjoint) < 50:
        n = int(rng.integers(3, 7))
        g = Graph.from_edges(n, [e for e in pairs_lex(n) if rng.random() < 0.4])
        h = Graph.from_edges(n, [e for e in pairs_lex(n)
                                 if rng.random() < 0.4 and not g.has_edge(*e)])
        assert edge_intersection(g, h).num_edges == 0
        disjoint.append(sample(g, h, 1000 + len(disjoint)))
    return disconnected, disjoint


@pytest.fixture(scope="module")
def model_points():
    return _converged_points()


@report(5, "decomposition: off-block <= 1e-6 on 100 pairs; disjoint pairs hit 1_n")
def test_criterion_5_decomposition(model_points):
    disconnected, disjoint = model_points
    converged = 0
    for g, h, res, _ in disconnected:
        if not res.converged:
            continue
        converged += 1
        blocks = connected_components(edge_intersection(g, h))
        for i, j in pairs_lex(g.n):
            if not any(i in b and j in b for b in blocks):
                assert abs(res.matrix[i - 1, j - 1]) <= 1e-6
    assert converged >= 60  # enough converged samples for the claim to bite
    for g, h, res, _ in disjoint:
        assert res.converged
        assert np.abs(res.matrix - np.eye(g.n)).max() <= 1e-6


@report(6, "transversality at 1_n iff G union H complete, all pairs n = 3, 4")
def test_criterion_6_transversality():
    for n in (3, 4):
        eye = np.eye(n)
        total = n * (n - 1) // 2
        for gm in range(1 << total):
            g = graph_from_edge_mask(n, gm)
            for hm in range(1 << total):
                h = graph_from_edge_mask(n, hm)
                want = (gm | hm) == (1 << total) - 1
                for rank_tol in (1e-6, 1e-8, 1e-10):
                    assert is_transverse_at(eye, g, h, rank_tol=rank_tol) == want


@report(7, "stacked Jacobian rank: exact at 1_n for n <= 4, lower bound at points")
def test_criterion_7_rank_bound(model_points):
    for n in (2, 3, 4):
        eye = np.eye(n)
        total = n * (n - 1) // 2
        for gm in range(1 << total):
            g = graph_from_edge_mask(n, gm)
            for hm in range(1 << total):
                h = graph_from_edge_mask(n, hm)
                jac = stacked_jacobian(eye, g, h)
                want = total - edge_intersection(g, h).num_edges
                for rank_tol in (1e-6, 1e-8, 1e-10):
                    assert jac.rank(rank_tol) == want
    disconnected, disjoint = model_points
    for g, h, *points in disconnected + disjoint:
        for res in points:
            if not res.converged:
                continue
            jac = stacked_jacobian(res.matrix, g, h)
            bound = g.n * (g.n - 1) // 2 - edge_intersection(g, h).num_edges
            assert jac.rank() >= bound


@report(8, "CI calculus laws: exhaustive n <= 4, randomized n = 5, matrix sums")
def test_criterion_8_ci_laws():
    rel_cache = {}

    def rel(n, mask):
        if (n, mask) not in rel_cache:
            rel_cache[n, mask] = ci.relation_of_graph(graph_from_edge_mask(n, mask))
        return rel_cache[n, mask]

    for n in (3, 4):
        total = n * (n - 1) // 2
        for gm in range(1 << total):
            for hm in range(1 << total):
                r = rel(n, gm) | ci.dual(rel(n, hm))
                assert ci.dual(ci.dual(r)) == r
                assert ci.dual(r) == rel(n, hm) | ci.dual(rel(n, gm))
                g = graph_from_edge_mask(n, gm)
                h = graph_from_edge_mask(n, hm)
                for k in range(1, n + 1):
                    assert ci.marginal(ci.dual(r), k) == ci.dual(ci.conditional(r, k))
                    assert ci.marginal(r, k) == ci.double_markov_relation(
                        graphs.conditional_minor(g, k), graphs.marginal_minor(h, k))
                    assert ci.conditional(r, k) == ci.double_markov_relation(
                        graphs.marginal_minor(g, k), graphs.conditional_minor(h, k))
    rng = np.random.default_rng(99)
    for _ in range(100):
        gm = int(rng.integers(0, 1 << 10))
        hm = int(rng.integers(0, 1 << 10))
        g = graph_from_edge_mask(5, gm)
        h = graph_from_edge_mask(5, hm)
        r = ci.double_markov_relation(g, h)
        assert ci.dual(ci.dual(r)) == r
        assert ci.dual(r) == ci.double_markov_relation(h, g)
        k = int(rng.integers(1, 6))
        assert ci.marginal(ci.dual(r), k) == ci.dual(ci.conditional(r, k))
        assert ci.marginal(r, k) == ci.double_markov_relation(
            graphs.conditional_minor(g, k), graphs.marginal_minor(h, k))
    # random bitset relations, not just graph-induced ones
    for _ in range(100):
        r = ci.Relation(5, int(rng.integers(0, 1 << 63)))
        assert ci.dual(ci.dual(r)) == r
        k = int(rng.integers(1, 6))
        assert ci.marginal(ci.dual(r), k) == ci.dual(ci.conditional(r, k))
    # direct sums of matrices against direct sums of relations
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 400:
        attempts += 1
        na, nb = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        ga = graph_from_edge_mask(na, int(rng.integers(0, 1 << (na * (na - 1) // 2))))
        gb = graph_from_edge_mask(nb, int(rng.integers(0, 1 << (nb * (nb - 1) // 2))))
        a = _graphical(ga, rng)
        b = _graphical(gb, rng)
        if not (_stable(a) and _stable(b)):
            continue
        s = matrices.direct_sum_matrix(a, b)
        assert relation_of_matrix(s) == ci.direct_sum_relations(
            relation_of_matrix(a), relation_of_matrix(b))
        checked += 1
    assert checked >= 100


def _graphical(g, rng, weight=0.3):
    n = g.n
    k = np.eye(n) * (1.0 + weight * n)
    for i, j in g.edges:
        v = weight * (0.5 + rng.random())
        k[i - 1, j - 1] = k[j - 1, i - 1] = v
    inv = np.linalg.inv(k)
    return (inv + inv.T) / 2


def _stable(a, tol=1e-8):
    return (relation_of_matrix(a, tol) == relation_of_matrix(a, tol / 10)
            == relation_of_matrix(a, tol * 10))


@report(9, "closure regressions: semigraphoid blowup, rule 17, weak transitivity")
def test_criterion_9_closure_regressions():
    vnr = ci.double_markov_relation(
        Graph.from_edges(4, [(1, 2), (2, 3)]), Graph.from_edges(4, [(1, 3)]))
    assert ci.closure(vnr, ["semigraphoid"]) == ci.full_relation(4)
    inc = ci.double_markov_relation(
        Graph.from_edges(4, [(1, 2), (1, 4), (2, 3), (3, 4)]),
        Graph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)]))
    closed = ci.closure(inc, ci.HORN_RULES)
    assert closed.has(1, 3)
    ns = ci.double_markov_relation(
        Graph.from_edges(4, [(1, 3), (2, 3)]), Graph.from_edges(4, [(1, 3), (2, 3)]))
    hits = [v for v in ci.check_axioms(ns)
            if v.rule == "weak-transitivity"
            and set(v.premises) == {ci.make_statement(1, 2),
                                    ci.make_statement(1, 2, {3})}
            and set(v.missing) == {ci.make_statement(1, 3), ci.make_statement(2, 3)}]
    assert hits


CASE_PAIRS = [
    ("trivial", Graph.from_edges(3, [(1, 2)]), Graph.from_edges(3, [(2, 3)])),
    ("single-edge", STAR4, PATH4),
    ("two-edge-case-1",
     Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)]), Graph.from_edges(3, [(1, 2), (2, 3)])),
    ("two-edge-case-2",
     Graph.from_edges(3, [(1, 2), (2, 3)]), Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])),
    ("two-edge-case-3",
     Graph.from_edges(3, [(1, 2), (2, 3)]), Graph.from_edges(3, [(1, 2), (2, 3)])),
    ("three-edge-clique",
     Graph.from_edges(4, [(1, 2), (1, 3), (2, 3)]),
     Graph.from_edges(4, [(1, 2), (1, 3), (2, 3)])),
]
_BASE = [(1, 2), (2, 3), (3, 4)]
_CHORD_CASES = {
    "three-edge-path-1": ([(1, 3), (1, 4), (2, 4)], []),
    "three-edge-path-2": ([(1, 4), (2, 4)], []),
    "three-edge-path-3": ([(1, 3), (2, 4)], []),
    "three-edge-path-4": ([(2, 4)], []),
    "three-edge-path-5": ([(1, 4)], []),
    "three-edge-path-6": ([], []),
    "three-edge-path-7": ([(1, 4), (2, 4)], [(1, 3)]),
    "three-edge-path-8": ([(2, 4)], [(1, 3)]),
    "three-edge-path-9": ([(1, 4)], [(1, 3)]),
    "three-edge-path-10": ([(1, 3), (2, 4)], [(1, 4)]),
    "three-edge-path-11": ([(2, 4)], [(1, 4)]),
}
for _case, (_gx, _hx) in _CHORD_CASES.items():
    CASE_PAIRS.append((_case, Graph.from_edges(4, _BASE + _gx),
                       Graph.from_edges(4, _BASE + _hx)))

EXPECTED_DIMENSION = {
    "trivial": 0, "single-edge": 1,
    "two-edge-case-1": 2, "two-edge-case-2": 2, "two-edge-case-3": 1,
    "three-edge-clique": 3,
    "three-edge-path-1": 3, "three-edge-path-2": 2, "three-edge-path-3": 2,
    "three-edge-path-4": 2, "three-edge-path-5": 2, "three-edge-path-6": 2,
    "three-edge-path-7": 3, "three-edge-path-8": 3, "three-edge-path-9": 2,
    "three-edge-path-10": 3, "three-edge-path-11": 2,
}


@report(10, "classification families: PD + residual 1e-9 on 100 draws per case")
def test_criterion_10_classification_families():
    rng = np.random.default_rng(555)
    seen = set()
    for case, g, h in CASE_PAIRS:
        desc = classify_small_intersection(g, h)
        assert desc.case == case
        seen.add(case)
        assert desc.dimension == EXPECTED_DIMENSION[case]
        assert desc.dimension <= dimension_bound(g, h)[1]
        assert desc.connected
        for draw in range(100):
            fam = draw % len(desc.families)
            a = sample_from_family(desc, rng=rng, family=fam)
            assert is_pd(a)
            res = membership_residual(a, g, h)
            assert res.size == 0 or np.abs(res).max() <= 1e-9
    # the one-edge case attains the maximal dimension 1 reported by the bound
    assert dimension_bound(STAR4, PATH4)[1] == 1 == EXPECTED_DIMENSION["single-edge"]
    assert len(seen) == 17
