import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from doublemarkov import Graph, complete_graph, empty_graph
from doublemarkov.errors import UniquePathRequired
from doublemarkov.graphs import all_graphs, pairs_lex
from doublemarkov.ideal import (
    MonomialIdeal,
    SparsePolynomial,
    inverse_graphical_recognition,
    minimal_primes,
    path_expansion,
    sci_monomial_generators,
    symbolic_apm,
    symbolic_principal_minor,
    unique_path_hypothesis,
)
from doublemarkov.matrices import membership_residual, is_pd

from conftest import oracle_all_paths, random_graph

STAR4 = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
PATH4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
P3 = Graph.from_edges(3, [(1, 2), (2, 3)])
C4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])


def poly_paths_identity(h, k, l):
    """The two sides of the path expansion of the (k, l) submaximal minor."""
    lhs = symbolic_apm(h, k, l)
    if (k + l) % 2:
        lhs = -lhs
    rhs = SparsePolynomial.zero()
    verts = set(range(1, h.n + 1))
    for term in path_expansion(h, k, l):
        minor = symbolic_principal_minor(h, verts - set(term.path))
        rhs = rhs + term.sign * SparsePolynomial.monomial(term.monomial) * minor
    return lhs, rhs


def test_sparse_polynomial_arithmetic():
    x = SparsePolynomial.variable(1, 2)
    y = SparsePolynomial.variable(2, 3)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert p.evaluate({(1, 2): 0.5, (2, 3): 0.25}) == pytest.approx(0.1875)
    assert SparsePolynomial.constant(Fraction(1, 3)) * 3 == SparsePolynomial.constant(1)
    assert repr(p) == "1*s12*s12 + -1*s23*s23" and repr(p - p) == "0"
    assert repr(SparsePolynomial.constant(2) + x * y) == "2*1 + 1*s12*s23"
    assert hash(p) == hash(x * x - y * y) and len({p, x * x - y * y, x}) == 2


def test_unique_path_hypothesis():
    rng = np.random.default_rng(3)
    forest = Graph.from_edges(6, [(1, 2), (2, 3), (4, 5)])
    for _ in range(5):
        assert unique_path_hypothesis(random_graph(6, rng), forest)
    g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])  # 1-3 is a non-edge
    assert not unique_path_hypothesis(g, C4)
    assert unique_path_hypothesis(complete_graph(4), C4)  # vacuous: no non-edges
    assert unique_path_hypothesis(complete_graph(5), complete_graph(5))


def test_unique_path_hypothesis_matches_path_oracle():
    for n in range(1, 5):
        for g, h in itertools.combinations_with_replacement(all_graphs(n), 2):
            for a, b in ((g, h), (h, g)):
                expected = all(len(oracle_all_paths(b.edges, k, l)) <= 1
                               for k, l in a.non_edges())
                assert unique_path_hypothesis(a, b) == expected, (a, b)


def test_unique_path_hypothesis_stops_at_the_second_path():
    g, h = empty_graph(16), complete_graph(16)  # about e * 14! paths between any two vertices
    start = time.perf_counter()
    assert not unique_path_hypothesis(g, h)
    assert time.perf_counter() - start < 0.1


def test_path_expansion_examples():
    terms = path_expansion(P3, 1, 3)
    assert len(terms) == 1
    assert terms[0].path == (1, 2, 3) and terms[0].sign == 1
    assert terms[0].monomial == ((1, 2), (2, 3))
    assert path_expansion(empty_graph(3), 1, 2) == []
    terms = path_expansion(C4, 1, 3)
    assert [t.path for t in terms] == [(1, 2, 3), (1, 4, 3)]
    assert all(t.sign == 1 for t in terms)


def test_symbolic_apm_examples():
    assert symbolic_apm(P3, 1, 3) == SparsePolynomial.monomial([(1, 2), (2, 3)])
    got = symbolic_apm(complete_graph(3), 1, 2)
    want = SparsePolynomial.variable(1, 2) - SparsePolynomial.monomial([(1, 3), (2, 3)])
    assert got == want
    assert symbolic_apm(empty_graph(4), 1, 3).is_zero()


def test_sparse_polynomial_constructor_sums_keys_that_sort_alike():
    x12, x23 = (1, 2), (2, 3)
    assert SparsePolynomial({(x12, x23): 1, (x23, x12): -1}).is_zero()
    twice = SparsePolynomial({(x12, x23): 1, (x23, x12): 1})
    assert twice == 2 * SparsePolynomial.monomial([x12, x23])


def test_symbolic_minors_refuse_vertices_outside_h():
    with pytest.raises(ValueError, match="out of range"):
        symbolic_principal_minor(complete_graph(4), [9])
    with pytest.raises(ValueError, match="out of range"):
        symbolic_apm(complete_graph(4), 1, 5)
    with pytest.raises(ValueError, match="n <= 7"):
        symbolic_principal_minor(complete_graph(8), [9])


def _sympy_minor(sympy, h, rows, cols) -> dict:
    """The term dict of det of the symbolic h-patterned matrix on rows x cols, by sympy."""
    edges = list(h.edges)
    symbols = [sympy.Symbol(f"s{i}_{j}") for i, j in edges]
    var = dict(zip(edges, symbols))
    m = sympy.Matrix([[1 if r == c else var.get((min(r, c), max(r, c)), 0) for c in cols]
                      for r in rows])
    poly = sympy.Poly(m.det(method="berkowitz"), *(symbols or [sympy.Symbol("x")]))
    return {tuple(e for e, k in zip(edges, exps) for _ in range(k)): Fraction(int(c.p), int(c.q))
            for exps, c in poly.terms() if c}


def _assert_minors_match_sympy(sympy, h, apms=None, principal=True):
    verts = range(1, h.n + 1)
    for k, l in apms or itertools.permutations(verts, 2):
        rows, cols = [v for v in verts if v != k], [v for v in verts if v != l]
        assert symbolic_apm(h, k, l).terms == _sympy_minor(sympy, h, rows, cols), (h, k, l)
    for r in range(1, h.n + 1) if principal else ():
        for keep in itertools.combinations(verts, r):
            got = symbolic_principal_minor(h, keep).terms
            assert got == _sympy_minor(sympy, h, keep, keep), (h, keep)


def test_symbolic_minors_match_sympy_small(sympy):
    for n in (1, 2, 3, 4):
        for h in all_graphs(n):
            _assert_minors_match_sympy(sympy, h)


def test_symbolic_minors_match_sympy_seeded(sympy):
    rng = np.random.default_rng(67)
    for n, p in ((5, 0.5), (5, 0.8), (6, 0.4)):
        _assert_minors_match_sympy(sympy, random_graph(n, rng, p))


@pytest.mark.parametrize("n", [6, 7])
def test_symbolic_apm_of_a_complete_graph_matches_sympy(sympy, n):
    _assert_minors_match_sympy(sympy, complete_graph(n), apms=[(2, n)], principal=False)


def test_submaximal_minors_of_k7_are_fast():
    h = complete_graph(7)
    start = time.perf_counter()
    minors = [symbolic_apm(h, k, l) for k, l in itertools.permutations(range(1, 8), 2)]
    assert time.perf_counter() - start < 1.5
    assert len(minors) == 42 and all(len(m.terms) > 1 for m in minors)


def test_path_expansion_identity_exact_small():
    for n in (2, 3, 4):
        for h in all_graphs(n):
            for k, l in pairs_lex(n):
                lhs, rhs = poly_paths_identity(h, k, l)
                assert lhs == rhs


def test_path_expansion_identity_exact_sampled_n6():
    rng = np.random.default_rng(11)
    for _ in range(25):
        h = random_graph(6, rng, p=0.45)
        k, l = (int(v) for v in rng.choice(np.arange(1, 7), size=2, replace=False))
        lhs, rhs = poly_paths_identity(h, k, l)
        assert lhs == rhs


def test_path_expansion_identity_numeric():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        h = random_graph(n, rng)
        k, l = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        k, l = int(k), int(l)
        a = np.eye(n)
        for i, j in h.edges:
            v = rng.uniform(-1, 1)
            a[i - 1, j - 1] = a[j - 1, i - 1] = v
        rows = [v for v in range(n) if v != k - 1]
        cols = [v for v in range(n) if v != l - 1]
        lhs = (-1) ** (k + l) * np.linalg.det(a[np.ix_(rows, cols)])
        rhs = 0.0
        for term in path_expansion(h, k, l):
            keep = [v - 1 for v in range(1, n + 1) if v not in term.path]
            prod = np.prod([a[i - 1, j - 1] for i, j in term.monomial])
            rhs += term.sign * prod * np.linalg.det(a[np.ix_(keep, keep)])
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_sci_generators_star_path():
    gens = sci_monomial_generators(STAR4, PATH4)
    assert gens.generator_strings() == ["s_13", "s_14", "s_23", "s_24", "s_34"]


def test_sci_generators_disjoint_forest():
    g = Graph.from_edges(4, [(1, 3), (2, 4)])
    h = PATH4
    gens = sci_monomial_generators(g, h)
    # every variable on and off the forest dies: the model is the identity
    assert gens.generator_strings() == ["s_12", "s_13", "s_14", "s_23", "s_24", "s_34"]


def test_sci_generators_complete_g():
    h = PATH4
    gens = sci_monomial_generators(complete_graph(4), h)
    assert gens.generator_strings() == ["s_13", "s_14", "s_24"]


def test_sci_generators_refuses_non_unique_paths():
    g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(UniquePathRequired):
        sci_monomial_generators(g, C4)


def test_generators_are_minimal_and_squarefree():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        g = random_graph(n, rng)
        tree_edges = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
        h = Graph.from_edges(n, [e for e in tree_edges if rng.random() < 0.8])
        gens = sci_monomial_generators(g, h).sorted_generators()
        for a, b in itertools.combinations(gens, 2):
            assert not set(a) <= set(b) and not set(b) <= set(a)


def test_minimal_primes_cover_and_membership():
    gens = sci_monomial_generators(STAR4, PATH4)
    primes = minimal_primes(gens)
    assert primes == [frozenset({(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)})]
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(3, 6))
        g = random_graph(n, rng)
        tree_edges = [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
        h = Graph.from_edges(n, [e for e in tree_edges if rng.random() < 0.8])
        ideal = sci_monomial_generators(g, h)
        for prime in minimal_primes(ideal):
            for gen in ideal.generators:
                assert gen & prime
            a = np.eye(n)
            for i, j in pairs_lex(n):
                if (i, j) not in prime:
                    v = rng.uniform(-0.4, 0.4)
                    a[i - 1, j - 1] = a[j - 1, i - 1] = v
            if is_pd(a):
                assert np.abs(membership_residual(a, g, h)).max() <= 1e-9


def test_inverse_graphical_recognition():
    # two-edge case (1): the third pair is an edge of G only
    g = Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    h = Graph.from_edges(3, [(1, 2), (2, 3)])
    assert inverse_graphical_recognition(g, h) == complete_graph(3)
    # case (3): the third pair is missing from both; two components, no certificate
    g3 = Graph.from_edges(3, [(1, 2), (2, 3)])
    assert inverse_graphical_recognition(g3, g3) is None
    assert inverse_graphical_recognition(complete_graph(4), complete_graph(4)) == \
        complete_graph(4)
    with pytest.raises(UniquePathRequired):
        inverse_graphical_recognition(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)]), C4)


def oracle_recognition(g, h):
    """Recognition as a path loop: None once an h-path between a non-edge
    pair of g runs on edges of g only, else g plus the shared non-edges."""
    g_non = set(g.non_edges())
    for k, l in g.non_edges():
        for path in oracle_all_paths(h.edges, k, l):
            if not {tuple(sorted(e)) for e in zip(path, path[1:])} & g_non:
                return None
    return Graph.from_edges(g.n, list(g.edges) + [e for e in g.non_edges()
                                                  if not h.has_edge(*e)])


def test_recognition_matches_the_path_loop():
    # primeness read off the minimal generators agrees with the path criterion
    for n in (1, 2, 3, 4):
        for g in all_graphs(n):
            for h in all_graphs(n):
                if unique_path_hypothesis(g, h):
                    assert inverse_graphical_recognition(g, h) == oracle_recognition(g, h)
                else:
                    with pytest.raises(UniquePathRequired):
                        inverse_graphical_recognition(g, h)


def test_recognized_inverse_graphical_model_is_correct():
    # when recognition succeeds, points found on M(G, H) satisfy the covariance
    # zero pattern of the common-edge graph
    from doublemarkov.geometry import find_model_point
    from doublemarkov.graphs import edge_intersection
    g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 3), (1, 4), (2, 4)])
    h = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    gp = inverse_graphical_recognition(g, h)
    assert gp == complete_graph(4)
    res = find_model_point(g, h, seed=3)
    assert res.converged
    shared = edge_intersection(g, h)
    for i, j in shared.non_edges():
        assert abs(res.matrix[i - 1, j - 1]) <= 1e-8


def test_monomial_ideal_minimalization():
    ideal = MonomialIdeal.from_generators(4, [
        [(1, 2)], [(1, 2), (2, 3)], [(2, 3), (3, 4)]])
    assert ideal.sorted_generators() == [((1, 2),), ((2, 3), (3, 4))]
