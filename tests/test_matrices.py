import itertools
from fractions import Fraction

import numpy as np
import pytest

from doublemarkov import Graph, complete_graph, empty_graph
from doublemarkov.ci import (Relation, all_statements, dual, full_relation, marginal,
                             permute_relation)
from doublemarkov.errors import NotPositiveDefinite
from doublemarkov.matrices import (
    almost_principal_minor,
    as_sym,
    conditional_matrix,
    det,
    direct_sum_matrix,
    format_matrix,
    hadamard,
    inverse,
    is_member,
    is_pd,
    marginal_matrix,
    membership_residual,
    parse_matrix,
    rational_matrix,
    relation_of_matrix,
    to_correlation,
)
from doublemarkov.ci import check_axioms, direct_sum_relations, relation_of_graph
from doublemarkov.graphs import connected_components, graph_from_edge_mask

from conftest import graphical_pd, random_graph, random_pd


def counterexample_matrix():
    """6x6 principally regular matrix violating the block decomposition."""
    x14 = np.sqrt(981.0 / 1210.0)
    x15, x34, x36 = 11 * x14, -x14, -11 * x14
    return np.array([
        [10, 1, 1, x14, x15, 0],
        [1, 10, 1, 0, 0, 0],
        [1, 1, 10, x34, 0, x36],
        [x14, 0, x34, 10, 1, 1],
        [x15, 0, 0, 1, 10, 1],
        [0, 0, x36, 1, 1, 10],
    ])


def test_is_pd_examples():
    assert is_pd(np.eye(4))
    assert not is_pd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not is_pd(counterexample_matrix())


def test_is_pd_exact():
    assert is_pd(rational_matrix([[2, 1], [1, 2]]))
    assert not is_pd(rational_matrix([["1", "2"], ["2", "1"]]))
    assert is_pd(rational_matrix([["1", "1/2"], ["1/2", "1"]]))


def test_apm_examples():
    rng = np.random.default_rng(1)
    a = random_pd(4, rng)
    assert almost_principal_minor(a, 1, 2) == pytest.approx(a[0, 1])
    s = np.array([[1, 0.5, 0], [0.5, 1, 0.5], [0, 0.5, 1]])
    # rows (1, 2), cols (3, 2): det [[s13, s12], [s23, s22]] = -ab at a=b=0.5
    assert almost_principal_minor(s, 1, 3, {2}) == pytest.approx(-0.25)
    for i, j in [(1, 2), (1, 4), (2, 3)]:
        assert almost_principal_minor(np.eye(4), i, j, {5 - i}
                                      if 5 - i not in (i, j) else set()) == 0
    # the statement check of ci: distinct vertices in 1..n, a repeated one included
    for i, j, K in [(1, 1, ()), (1, 2, [1]), (1, 2, [3, 3]), (1, 4, ()), (0, 2, ())]:
        with pytest.raises(ValueError, match=r"does not fit ground set 1\.\.3"):
            almost_principal_minor(s, i, j, K)


def test_apm_exact_matches_float():
    rng = np.random.default_rng(5)
    for _ in range(10):
        q = [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
              for _ in range(4)] for _ in range(4)]
        for i in range(4):
            q[i][i] = Fraction(10)
            for j in range(i):
                q[i][j] = q[j][i]
        m = rational_matrix(q)
        f = np.array([[float(x) for x in row] for row in q])
        for (i, j) in [(1, 2), (2, 4)]:
            for K in [set(), {3}]:
                K = K - {i, j}
                exact = almost_principal_minor(m, i, j, K)
                assert float(exact) == pytest.approx(
                    almost_principal_minor(f, i, j, K), abs=1e-10)


def test_relation_of_matrix_examples():
    assert relation_of_matrix(np.eye(3)) == full_relation(3)
    s = np.array([[1, 0.5, 0], [0.5, 1, 0], [0, 0, 1]])
    want = Relation.from_statements(3, [(1, 3), (1, 3, {2}), (2, 3), (2, 3, {1})])
    assert relation_of_matrix(s) == want
    # exact mode agrees
    se = rational_matrix([["1", "1/2", "0"], ["1/2", "1", "0"], ["0", "0", "1"]])
    assert relation_of_matrix(se) == want


def test_relation_of_matrix_rejects_non_pd():
    with pytest.raises(NotPositiveDefinite):
        relation_of_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_relation_of_matrix_refuses_17_vertices_before_any_table(monkeypatch):
    from doublemarkov import ci, matrices

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(ci, "_statement_entries", no_table)
    monkeypatch.setattr(matrices, "_minor_sweep", no_table)
    for a in (np.eye(17), rational_matrix(np.eye(17, dtype=int).tolist())):
        with pytest.raises(ValueError, match=r"vertex count must be in 1\.\.16"):
            relation_of_matrix(a)


@pytest.mark.parametrize("rows", [
    [["0", "0"], ["0", "1"]],                                   # zero first leading minor
    [["2", "1", "1"], ["1", "2", "1"], ["1", "1", "-1"]],       # negative last leading minor
    [["1", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]],        # singular PSD, minor 2 is 0
    [["1", "0", "1/2"], ["0", "1", "0"], ["1/2", "0", "1/4"]],  # singular PSD, det is 0
])
def test_exact_relation_of_matrix_rejects_non_pd(rows):
    # the sweep reads Sylvester's criterion off its leading minors and must
    # refuse before it divides by a zero minor
    a = rational_matrix(rows)
    assert not is_pd(a)
    with pytest.raises(NotPositiveDefinite, match="matrix is not positive definite"):
        relation_of_matrix(a)


def test_det_of_a_float_stack_is_elementwise():
    rng = np.random.default_rng(61)
    for m in range(6):
        stack = rng.normal(size=(7, m, m))
        got = det(stack)
        assert got.shape == (7,)
        assert np.array_equal(got, [det(x) for x in stack])
    assert det(np.zeros((0, 3, 3))).shape == (0,)
    with pytest.raises(ValueError, match="stack"):
        det(np.array([[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]], dtype=object))


def test_relation_scale_invariance():
    rng = np.random.default_rng(9)
    g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    a = graphical_pd(g, rng)
    d = np.diag(rng.uniform(0.2, 5.0, size=4))
    assert relation_of_matrix(a) == relation_of_matrix(d @ a @ d)


def test_inverse():
    assert np.allclose(inverse(np.eye(3)), np.eye(3))
    assert np.allclose(inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))
    inv = inverse(rational_matrix([[2, 1], [1, 2]]))
    assert inv[0, 0] == Fraction(2, 3) and inv[0, 1] == Fraction(-1, 3)
    with pytest.raises(NotPositiveDefinite):
        inverse(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_inverse_relation_is_dual():
    rng = np.random.default_rng(13)
    checked = 0
    for n in (3, 4, 5):
        for _ in range(8):
            a = graphical_pd(random_graph(n, rng), rng)
            if _stable(a) and _stable(inverse(a)):
                assert relation_of_matrix(inverse(a)) == dual(relation_of_matrix(a))
                checked += 1
    assert checked >= 10


def _stable(a, tol=1e-8):
    return (relation_of_matrix(a, tol) == relation_of_matrix(a, tol / 10)
            == relation_of_matrix(a, tol * 10))


def test_matrix_relations_are_gaussoids():
    rng = np.random.default_rng(15)
    checked = 0
    for n in (3, 4, 5):
        for _ in range(10):
            a = graphical_pd(random_graph(n, rng), rng)
            if _stable(a):
                assert check_axioms(relation_of_matrix(a)) == []
                checked += 1
    assert checked >= 20


def test_markovian_lemma_maximal_statements_suffice():
    # if the maximal separation statements hold, all separation statements do
    rng = np.random.default_rng(19)
    for n in (3, 4, 5):
        for _ in range(10):
            g = random_graph(n, rng)
            a = graphical_pd(g, rng)  # zeros in the inverse exactly off g
            r = relation_of_matrix(a)
            rest = set(range(1, n + 1))
            for i, j in g.non_edges():
                assert r.has(i, j, rest - {i, j})
            assert relation_of_graph(g).issubset(r)


def test_to_correlation():
    d, r = to_correlation(np.eye(3))
    assert np.allclose(d, 1) and np.allclose(r, np.eye(3))
    d, r = to_correlation(np.array([[4.0, 2.0], [2.0, 9.0]]))
    assert np.allclose(d, [2, 3])
    assert np.allclose(r, [[1, 1 / 3], [1 / 3, 1]])
    with pytest.raises(NotPositiveDefinite):
        to_correlation(np.array([[0.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="needs float input"):
        to_correlation(rational_matrix([[4, 2], [2, 9]]))


def test_to_correlation_properties():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = random_pd(4, rng)
        d, r = to_correlation(a)
        assert np.abs(np.diag(r) - 1).max() == 0
        off = r[~np.eye(4, dtype=bool)]
        assert (np.abs(off) < 1).all()
        assert np.abs(np.diag(d) @ r @ np.diag(d) - a).max() <= 1e-12 * np.abs(a).max()
        d2, r2 = to_correlation(r)
        assert np.allclose(r2, r) and np.allclose(d2, 1)


def test_schur_complements():
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            assert np.allclose(conditional_matrix(np.eye(n), k), np.eye(n - 1))
    r = 0.6
    assert np.allclose(conditional_matrix(np.array([[1, r], [r, 1]]), 2),
                       [[1 - r * r]])
    m = rational_matrix([[2, 1], [1, 2]])
    assert conditional_matrix(m, 2)[0, 0] == Fraction(3, 2)


def test_marginal_conditional_relation_lemma():
    rng = np.random.default_rng(25)
    for n in (3, 4):
        for _ in range(10):
            a = graphical_pd(random_graph(n, rng), rng)
            if not _stable(a):
                continue
            r = relation_of_matrix(a)
            for k in range(1, n + 1):
                ma = marginal_matrix(a, k)
                if _stable(ma):
                    assert relation_of_matrix(ma) == marginal(r, k)


def test_hadamard_and_direct_sum():
    rng = np.random.default_rng(27)
    a = random_pd(3, rng)
    assert np.array_equal(hadamard(a, np.ones((3, 3))), a)
    assert np.array_equal(direct_sum_matrix(np.eye(2), np.eye(3)), np.eye(5))
    exact = direct_sum_matrix(rational_matrix([[1]]), rational_matrix([["1", "1/2"], ["1/2", "1"]]))
    assert exact.dtype == object and exact.tolist() == [
        [1, 0, 0], [0, 1, Fraction(1, 2)], [0, Fraction(1, 2), 1]]
    with pytest.raises(ValueError):
        hadamard(a, np.eye(4))
    # Hadamard of PD and PSD with positive diagonal stays PD
    for _ in range(20):
        p = random_pd(4, rng)
        v = rng.normal(size=(4, 2))
        psd = v @ v.T + np.diag(rng.uniform(0.5, 2.0, size=4))
        assert is_pd(hadamard(p, psd))


def test_direct_sum_relation_lemma():
    rng = np.random.default_rng(29)
    for _ in range(10):
        a = graphical_pd(random_graph(3, rng), rng)
        b = graphical_pd(random_graph(2, rng), rng)
        if _stable(a) and _stable(b):
            assert relation_of_matrix(direct_sum_matrix(a, b)) == \
                direct_sum_relations(relation_of_matrix(a), relation_of_matrix(b))


def test_membership_residual():
    g = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    h = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    assert np.abs(membership_residual(np.eye(4), g, h)).max() == 0
    sol = np.eye(4)
    sol[0, 1] = sol[1, 0] = 0.5
    assert np.abs(membership_residual(sol, g, h)).max() <= 1e-15
    assert is_member(sol, g, h)
    bad = sol.copy()
    bad[2, 3] = bad[3, 2] = 0.25  # edge 3-4 is in H, so plant one off H instead
    bad[1, 3] = bad[3, 1] = 0.125
    res = membership_residual(bad, g, h)
    assert 0.125 in np.abs(np.round(res, 12)).tolist()
    assert not is_member(bad, g, h)


def test_membership_verdict_does_not_depend_on_the_scale():
    # G complete, H the path 1-2-3: the (1, 3) entry is the only residual
    g, h = complete_graph(3), Graph.from_edges(3, [(1, 2), (2, 3)])
    for entry, member in ((5e-9, True), (2e-8, False)):
        a = np.eye(3)
        a[0, 2] = a[2, 0] = entry
        d = np.diag([1e3, 1.0, 1e-3])
        scaled = [s * a for s in (1e-3, 1.0, 1e3)] + [d @ a @ d]
        assert [is_member(b, g, h) for b in scaled] == [member] * 4


def test_membership_exact():
    g = Graph.from_edges(2, [(1, 2)])
    m = rational_matrix([["1", "1/2"], ["1/2", "1"]])
    assert is_member(m, g, g)
    res = membership_residual(m, complete_graph(2), empty_graph(2))
    assert res.tolist() == [Fraction(1, 2)]


def test_counterexample_against_block_theorem():
    # principally regular, all four designated submaximal minors vanish,
    # determinant -4374/55 < 0: not a model member because not PD
    a = counterexample_matrix()
    for k, l in [(1, 4), (1, 5), (3, 4), (3, 6)]:
        rows = [v for v in range(6) if v != k - 1]
        cols = [v for v in range(6) if v != l - 1]
        assert abs(np.linalg.det(a[np.ix_(rows, cols)])) <= 1e-7
    assert np.linalg.det(a) == pytest.approx(-4374 / 55, abs=1e-7)
    for r in range(1, 6):
        for S in itertools.combinations(range(6), r):
            assert abs(np.linalg.det(a[np.ix_(S, S)])) > 1e-6
    assert not is_pd(a)


def test_matrix_io_roundtrip():
    rng = np.random.default_rng(31)
    a = random_pd(3, rng)
    b = parse_matrix(format_matrix(a))
    assert np.array_equal(a, b)
    m = rational_matrix([["1", "1/3"], ["1/3", "1"]])
    m2 = parse_matrix(format_matrix(m))
    assert m2[0, 1] == Fraction(1, 3)
    with pytest.raises(ValueError):
        parse_matrix("2\n1 0\n0\n")
    with pytest.raises(ValueError):
        parse_matrix("")


def test_as_sym_rejects_asymmetric():
    with pytest.raises(ValueError):
        as_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))


@pytest.mark.parametrize("scale", [1e-14, 1.0, 1e6])
def test_as_sym_judges_asymmetry_relative_to_the_entries(scale):
    # a relative asymmetry of 3e-4 is real at every scale; rounding-level is averaged away
    a = np.array([[1, .5, 0], [.5003, 1, .2], [0, .2, 1]])
    with pytest.raises(ValueError, match="must be symmetric"):
        as_sym(scale * a)
    a[1, 0] = .5 * (1 + 1e-15)
    b = as_sym(scale * a)
    assert np.array_equal(b, b.T) and np.allclose(b, scale * a, rtol=1e-14, atol=0)


# -- oracles for the Schur-complement sweep and the single-factor checks -------

def _relation_by_minors(a, tol=1e-8):
    """relation_of_matrix by definition: one almost-principal minor per statement."""
    a = as_sym(a)
    n = a.shape[0]
    exact = a.dtype == object
    diag = None if exact else np.diag(a)
    bits = 0
    for idx, s in enumerate(all_statements(n)):
        d = almost_principal_minor(a, s.i, s.j, s.K)
        if exact:
            hit = d == 0
        else:
            rows = [s.i - 1] + [v - 1 for v in sorted(s.K)]
            cols = [s.j - 1] + [v - 1 for v in sorted(s.K)]
            hit = abs(d) <= tol * float(np.sqrt(np.prod(diag[rows]) * np.prod(diag[cols])))
        bits |= int(hit) << idx
    return Relation(n, bits)


def test_sweep_matches_minors_on_all_graphical_matrices_up_to_4():
    rng = np.random.default_rng(45)
    for n in (2, 3, 4):
        for mask in range(1 << n * (n - 1) // 2):
            a = graphical_pd(graph_from_edge_mask(n, mask), rng)
            assert relation_of_matrix(a) == _relation_by_minors(a)


def test_sweep_matches_minors_on_seeded_matrices_up_to_7():
    rng = np.random.default_rng(47)
    for n in range(2, 8):
        for _ in range(6):
            for a in (graphical_pd(random_graph(n, rng), rng), random_pd(n, rng)):
                assert relation_of_matrix(a) == _relation_by_minors(a)


def test_sweep_matches_minors_under_rescaling():
    rng = np.random.default_rng(49)
    for n in range(2, 8):
        for _ in range(4):
            a = graphical_pd(random_graph(n, rng), rng)
            d = np.diag(10.0 ** rng.uniform(-3, 3, size=n))
            scaled = d @ a @ d
            assert relation_of_matrix(scaled) == _relation_by_minors(scaled) \
                == relation_of_matrix(a)


def test_sweep_matches_minors_at_every_threshold():
    # thresholds between consecutive normalized minors check their magnitudes
    rng = np.random.default_rng(57)
    for n in (3, 5, 6):
        a = random_pd(n, rng, spread=2.0)
        d = np.sqrt(np.diag(a))
        normalized = [
            abs(almost_principal_minor(a, s.i, s.j, s.K))
            / (d[s.i - 1] * d[s.j - 1] * np.prod(d[[v - 1 for v in s.K]]) ** 2)
            for s in all_statements(n)]
        ordered = sorted(normalized)
        cuts = [np.sqrt(lo * hi) for lo, hi in zip(ordered, ordered[1:])
                if hi > lo * (1 + 1e-6)]
        assert len(cuts) > len(ordered) // 2
        for tol in cuts:
            want = sum(1 << idx for idx, v in enumerate(normalized) if v <= tol)
            assert relation_of_matrix(a, tol) == Relation(n, want)


def _graph_pattern_rational(g, rng):
    """Exact inverse of an integer diagonally dominant matrix patterned on g."""
    k = [[0] * g.n for _ in range(g.n)]
    for i, j in g.edges:
        k[i - 1][j - 1] = k[j - 1][i - 1] = int(rng.integers(1, 5)) * int(rng.choice([-1, 1]))
    for i in range(g.n):
        k[i][i] = sum(abs(x) for x in k[i]) + int(rng.integers(1, 4))
    return inverse(rational_matrix(k))


def test_sweep_matches_minors_exact_up_to_5():
    rng = np.random.default_rng(51)
    for n in range(2, 6):
        for _ in range(4):
            g = random_graph(n, rng)
            a = _graph_pattern_rational(g, rng)
            assert relation_of_matrix(a) == _relation_by_minors(a) == relation_of_graph(g)
    # integer entries in an object array are exact too
    ints = np.array([[2, 1, 0], [1, 2, 0], [0, 0, 1]], dtype=object)
    assert relation_of_matrix(ints) == _relation_by_minors(ints)


def _as_fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def test_exact_is_pd_matches_sylvester_minors(sympy):
    rng = np.random.default_rng(53)
    seen = set()
    for _ in range(60):
        n = int(rng.integers(1, 5))
        q = [[Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3))) for _ in range(n)]
             for _ in range(n)]
        for i in range(n):
            q[i][i] = Fraction(int(rng.integers(-1, 5)))
            for j in range(i):
                q[i][j] = q[j][i]
        m = rational_matrix(q)
        sylvester = all(sympy.Matrix(q)[: k + 1, : k + 1].det() > 0 for k in range(n))
        assert is_pd(m) == sylvester
        seen.add(sylvester)
    assert seen == {True, False}


def _random_rational(rng, rows, cols):
    return [[Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4))) for _ in range(cols)]
            for _ in range(rows)]


def test_exact_det_matches_sympy_on_non_symmetric_matrices(sympy):
    rng = np.random.default_rng(59)
    cases = [[[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]]
    for _ in range(150):
        n = int(rng.integers(1, 6))
        q = _random_rational(rng, n, n)
        if n > 1 and rng.random() < 0.3:
            # a row that combines two others makes the matrix singular
            q[-1] = [2 * x - y for x, y in zip(q[0], q[1])]
        if rng.random() < 0.3:
            q[0][0] = Fraction(0)  # forces a row swap at the first step
        cases.append(q)
    singular = 0
    for q in cases:
        got = det(np.array(q, dtype=object))
        assert isinstance(got, Fraction)
        assert got == _as_fraction(sympy.Matrix(q).det())
        singular += got == 0
    assert det(np.array(cases[0], dtype=object)) == -1
    assert singular > 10


def test_exact_inverse_matches_sympy_on_pd_matrices(sympy):
    rng = np.random.default_rng(61)
    for n in range(1, 7):
        for _ in range(8):
            b = sympy.Matrix(_random_rational(rng, n, n))
            q = b.T * b + sympy.eye(n) * sympy.Rational(int(rng.integers(1, 4)), 5)
            a = rational_matrix([[_as_fraction(x) for x in q.row(i)] for i in range(n)])
            want = q.inv()
            got = inverse(a)
            assert got.dtype == object
            assert all(got[i, j] == _as_fraction(want[i, j])
                       for i in range(n) for j in range(n))


@pytest.mark.parametrize("entry", [0.5, None])
def test_exact_one_by_one_entries_are_type_checked(entry):
    a = np.array([[entry]], dtype=object)
    with pytest.raises(ValueError, match="Fraction or int"):
        as_sym(a)
    with pytest.raises(ValueError, match="Fraction or int"):
        is_pd(a)


def test_float_inverse_agrees_with_is_pd():
    rng = np.random.default_rng(55)
    for n in (1, 3, 6):
        a = random_pd(n, rng)
        assert np.allclose(inverse(a) @ a, np.eye(n))
        assert np.array_equal(inverse(a), inverse(a).T)
    # PD in exact arithmetic, but below the pivot threshold in float mode
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    assert not is_pd(near)
    with pytest.raises(NotPositiveDefinite):
        inverse(near)


def test_float_pd_verdicts_do_not_depend_on_the_scale():
    a = np.array([[1, .5, 0], [.5, 1, 0], [0, 0, 1]])
    want = relation_of_matrix(a)
    for e in range(-14, 13):
        assert is_pd(10.0 ** e * a)
        assert relation_of_matrix(10.0 ** e * a) == want


@pytest.mark.parametrize("text", [
    "2\n1 0\n0 1\n1 1\n",         # a row too many
    "1\n1\n\n# trailing note\n",  # non-blank text after row n
])
def test_parse_matrix_rejects_trailing_lines(text):
    with pytest.raises(ValueError, match="expected"):
        parse_matrix(text)
    assert parse_matrix("2\n1 0\n0 1\n\n   \n").shape == (2, 2)


@pytest.mark.parametrize("tol", [-1.0, -1e-300, float("nan"), float("inf")])
def test_bad_tolerances_are_refused(tol):
    g = Graph.from_edges(3, [(1, 2)])
    h = Graph.from_edges(3, [(2, 3)])
    with pytest.raises(ValueError, match="tolerance"):
        relation_of_matrix(np.eye(3), tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        is_member(np.eye(3), g, h, tol=tol)
    with pytest.raises(ValueError, match="tolerance"):
        is_member(rational_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), g, h, tol=tol)
    assert is_member(np.eye(3), g, h, tol=0.0)
    not_pd = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="tolerance"):  # before the positive definiteness test
        is_member(not_pd, g, h, tol=tol)
    with pytest.raises(NotPositiveDefinite):
        is_member(not_pd, g, h)
    assert relation_of_matrix(np.eye(3), tol=0.0) == relation_of_graph(empty_graph(3))


@pytest.mark.parametrize("head", ["3 foo", "3 3", "3.0", "three"])
def test_parse_matrix_size_line_is_one_integer(head):
    with pytest.raises(ValueError, match="line 1: expected the matrix size"):
        parse_matrix(head + "\n1 0 0\n0 1 0\n0 0 1\n")


@pytest.mark.parametrize("text, msg", [
    ("\n\n2 x\n1 0\n0 1\n", "line 3: expected the matrix size, got '2 x'"),
    ("2\n\n1 0\n\n\n0 1 0\n", "line 6: expected 2 entries, found 3"),
    ("2\n1 0\n \n0 x\n", "line 4: bad matrix entry: could not convert string to float: 'x'"),
    ("2\n\n1 1/0\n1/0 1\n", "line 3: bad matrix entry: Fraction(1, 0)"),
    ("2\n1 0\n\n\n0 1e5000/1\n", "line 5: bad matrix entry: Invalid literal for Fraction: "
                                   "'1e5000/1'"),
    ("2\n\t\n1 0\n0 1\n1 1\n", "expected 2 matrix rows, found 3"),
    ("2\n\n1/1 0\n\n0 1e5000\n", "line 5: bad matrix entry: the exponent of '1e5000' exceeds 4300"),
])
def test_parse_matrix_refusals_name_the_line_in_the_file(text, msg):
    with pytest.raises(ValueError) as exc:
        parse_matrix(text)
    assert str(exc.value) == msg


def test_rational_matrix_takes_one_conversion_per_entry():
    with pytest.raises(ValueError, match="exponent of '1e5000' exceeds 4300"):
        rational_matrix([["1e5000"]])  # unguarded, Fraction builds a 5001-digit integer
    m = rational_matrix([[1, "1/2"], [Fraction(1, 2), "1e2"]])
    assert m.dtype == object and m.tolist() == [[1, Fraction(1, 2)], [Fraction(1, 2), 100]]
    assert all(type(x) is Fraction for x in m.flat)
    with pytest.raises(ValueError, match="unequal lengths"):
        rational_matrix([[1, 0], [0]])
    assert rational_matrix([]).shape == (0, 0)


def _relabel_matrix(a, perm):
    """b with b[perm[v] - 1, perm[w] - 1] = a[v - 1, w - 1]."""
    p = np.subtract(perm, 1)
    b = np.empty_like(a)
    b[np.ix_(p, p)] = a
    return b


def _relabel_graph(g, perm):
    return Graph.from_edges(g.n, [(perm[i - 1], perm[j - 1]) for i, j in g.edges])


@pytest.mark.parametrize("exact", [False, True])
def test_matrix_verdicts_do_not_depend_on_the_labels_or_the_scale(exact):
    """relation_of_matrix, is_pd and is_member of a relabelled D a D are those of a, relabelled."""
    rng = np.random.default_rng(63)
    for n in (3, 4, 5) if exact else (3, 4, 5, 6, 7):
        for _ in range(3):
            g = random_graph(n, rng)
            a = _graph_pattern_rational(g, rng) if exact else graphical_pd(g, rng)
            # a is in the model of (g, h) and, for any edge e of g, not in that of (g - e, h)
            h = Graph.from_edges(n, [p for block in connected_components(g)
                                     for p in itertools.combinations(block, 2)])
            pairs = [(g, h, True)] + [(Graph.from_edges(n, set(g.edges) - {e}), h, False)
                                      for e in g.edges[:1]]
            perm = tuple(int(v) + 1 for v in rng.permutation(n))
            d = ([Fraction(int(x), 7) for x in rng.integers(1, 50, size=n)] if exact
                 else 10.0 ** rng.uniform(-3, 3, size=n))
            moved = _relabel_matrix(np.outer(d, d) * a, perm)
            assert moved.dtype == a.dtype
            assert relation_of_matrix(moved) == permute_relation(relation_of_matrix(a), perm)
            not_pd = a.copy()
            not_pd[0, 1] = not_pd[1, 0] = a[0, 0] + a[1, 1]
            for b, pd in ((a, True), (not_pd, False)):
                assert is_pd(b) == pd
                assert is_pd(_relabel_matrix(np.outer(d, d) * b, perm)) == pd
            for gg, hh, member in pairs:
                assert is_member(a, gg, hh) == member
                assert is_member(moved, _relabel_graph(gg, perm), _relabel_graph(hh, perm)) \
                    == member
