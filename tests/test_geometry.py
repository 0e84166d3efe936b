import contextlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from doublemarkov import Graph, complete_graph, empty_graph
from doublemarkov import geometry, matrices
from doublemarkov.errors import NotPositiveDefinite
from doublemarkov.geometry import (
    ConnectednessCertificate,
    connectedness_certificate,
    decompose,
    dimension_bound,
    find_hub,
    find_model_point,
    hadamard_shrink,
    is_transverse_at,
    local_tangent_dimension,
    numerical_rank,
    span_dimension,
    stacked_jacobian,
    tangent_basis_concentration,
)
from doublemarkov.classify import enumerate_inequivalent
from doublemarkov.graphs import all_graphs, edge_intersection, edge_union
from doublemarkov.ideal import unique_path_hypothesis
from doublemarkov.matrices import inverse, is_pd, membership_residual

from conftest import corpus_pairs, oracle_all_paths, random_graph, random_pd, unrestricted_point

STAR4 = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
PATH4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])


def test_tangent_basis_at_identity():
    g = Graph.from_edges(3, [(1, 2)])
    tb = tangent_basis_concentration(np.eye(3), g)
    mats = dict(zip(tb.tags, tb.generators))
    e12 = np.zeros((3, 3))
    e12[0, 1] = e12[1, 0] = 1
    assert np.array_equal(mats[("edge", (1, 2))], e12)
    d1 = np.zeros((3, 3))
    d1[0, 0] = 2
    assert np.array_equal(mats[("diag", 1)], d1)


def test_tangent_basis_matches_finite_differences():
    rng = np.random.default_rng(3)
    p = random_pd(4, rng)
    pinv = inverse(p)
    tb = tangent_basis_concentration(pinv, complete_graph(4))
    mats = dict(zip(tb.tags, tb.generators))
    t = 1e-5
    for (i, j) in [(1, 2), (2, 4)]:
        e = np.zeros((4, 4))
        e[i - 1, j - 1] = e[j - 1, i - 1] = 1
        d_fd = (inverse(p + t * e) - inverse(p - t * e)) / (2 * t)
        assert np.abs(d_fd + mats[("edge", (i, j))]).max() <= 1e-6 * np.abs(d_fd).max() + 1e-8


def test_tangent_span_dimension():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        g = random_graph(n, rng)
        p = random_pd(n, rng)
        tb = tangent_basis_concentration(p, g)
        assert span_dimension(tb) == g.num_edges + n


def test_tangent_basis_requires_pd():
    with pytest.raises(NotPositiveDefinite):
        tangent_basis_concentration(np.array([[1.0, 2.0], [2.0, 1.0]]), complete_graph(2))


def test_transverse_at_identity_iff_union_complete_n3():
    for g in all_graphs(3):
        for h in all_graphs(3):
            want = edge_union(g, h).num_edges == 3
            assert is_transverse_at(np.eye(3), g, h) == want


def test_exact_and_float_identity_points_agree_n_le_3():
    for n in (1, 2, 3):
        exact = matrices.rational_matrix(np.eye(n, dtype=int).tolist())
        for g in all_graphs(n):
            assert (span_dimension(tangent_basis_concentration(exact, g))
                    == span_dimension(tangent_basis_concentration(np.eye(n), g)))
            for h in all_graphs(n):
                assert is_transverse_at(exact, g, h) == is_transverse_at(np.eye(n), g, h)


def test_transverse_examples():
    # self-dual non-smooth family: K_N minus one edge, G = H
    for n in (3, 4, 5):
        g = Graph.from_edges(n, [e for e in complete_graph(n).edges if e != (1, 2)])
        assert not is_transverse_at(np.eye(n), g, g)
        assert is_transverse_at(np.eye(n), complete_graph(n), complete_graph(n))


def test_transverse_requires_model_point():
    a = np.eye(3)
    a[0, 1] = a[1, 0] = 0.5
    with pytest.raises(ValueError):
        is_transverse_at(a, complete_graph(3), empty_graph(3))


def test_stacked_jacobian_rank_at_identity():
    rng = np.random.default_rng(7)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        g, h = random_graph(n, rng), random_graph(n, rng)
        jac = stacked_jacobian(np.eye(n), g, h)
        shared = edge_intersection(g, h).num_edges
        assert jac.rank() == n * (n - 1) // 2 - shared
    kn = complete_graph(4)
    assert stacked_jacobian(np.eye(4), kn, kn).rows.shape[0] == 0
    assert stacked_jacobian(np.eye(4), kn, kn).rank() == 0


def test_minor_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    n = 5
    g = random_graph(n, rng)
    h = random_graph(n, rng)
    a = random_pd(n, rng)
    jac = stacked_jacobian(a, g, h)
    t = 1e-6
    for row, (kind, (k, l)) in zip(jac.rows, jac.row_labels):
        if kind != "minor":
            continue
        rows = [v for v in range(n) if v != k - 1]
        cols = [v for v in range(n) if v != l - 1]
        for m, (s, tcol) in enumerate(jac.col_positions):
            e = np.zeros((n, n))
            e[s - 1, tcol - 1] = e[tcol - 1, s - 1] = 1.0
            fplus = np.linalg.det((a + t * e)[np.ix_(rows, cols)])
            fminus = np.linalg.det((a - t * e)[np.ix_(rows, cols)])
            fd = (fplus - fminus) / (2 * t)
            assert abs(fd - row[m]) <= 1e-5 * max(1.0, abs(fd))


def test_dimension_bound():
    assert dimension_bound(STAR4, PATH4) == (5, 1)
    assert dimension_bound(complete_graph(4), complete_graph(4)) == (10, 6)
    g = Graph.from_edges(4, [(1, 2)])
    h = Graph.from_edges(4, [(3, 4)])
    assert dimension_bound(g, h) == (4, 0)


def test_decompose():
    dec = decompose(STAR4, PATH4)
    assert dec.blocks == ((1, 2), (3,), (4,))
    assert dec.pairs[0][0].edges == ((1, 2),)
    g = Graph.from_edges(4, [(1, 2)])
    h = Graph.from_edges(4, [(3, 4)])
    assert decompose(g, h).blocks == ((1,), (2,), (3,), (4,))
    g2 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert decompose(g2, g2).blocks == ((1, 2, 3, 4),)


def test_certificate_forest_unique_path():
    rng = np.random.default_rng(11)
    forest = Graph.from_edges(6, [(1, 2), (2, 3), (4, 5)])
    for _ in range(5):
        g = random_graph(6, rng)
        cert = connectedness_certificate(g, forest)
        assert cert.kind in ("UniquePath", "UniquePathSwapped")
        assert cert.check(g, forest)


def test_unique_path_certificate_is_the_hypothesis():
    # the report reads ideal.unique_path off this certificate kind
    for n in (1, 2, 3, 4):
        for g in all_graphs(n):
            for h in all_graphs(n):
                kind = connectedness_certificate(g, h).kind
                assert (kind == "UniquePath") == unique_path_hypothesis(g, h)


def test_certificate_star_hub():
    star = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    g = Graph.from_edges(5, [(2, 3), (3, 4)])
    # every leaf-to-leaf path in a star passes the center, so 1 is a hub,
    # but a star is also a forest and UniquePath has precedence
    assert find_hub(g, star) == 1
    assert ConnectednessCertificate("Hub", 1).check(g, star)
    assert connectedness_certificate(g, star).kind == "UniquePath"


def test_certificate_hub_fires_when_paths_not_unique():
    # doubled star: center 1 plus a 2-3 edge, non-edge pair (2,3) in g bypasses
    # nothing; pick g so its non-edges avoid h-adjacent pairs
    h = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3)])
    g = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)])
    # g non-edges: (2,5),(3,5),(4,5); h-paths 2-5: 2-1-5 and 2-3-1-5 both via 1
    cert = connectedness_certificate(g, h)
    assert cert.kind == "Hub" and cert.witness == 1
    assert cert.check(g, h)


def test_certificate_small_intersection():
    g = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3)])
    h = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (2, 4), (2, 5)])
    assert edge_intersection(g, h).num_edges == 3
    cert = connectedness_certificate(g, h)
    assert cert.kind == "SmallIntersection"
    assert cert.check(g, h)


def test_certificate_unknown():
    g = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3)])
    h = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 4)])
    cert = connectedness_certificate(g, h)
    assert cert.kind == "Unknown"


def test_every_issued_certificate_passes_its_own_check():
    # the search and check() run the same predicates
    for n in (1, 2, 3, 4):
        for g in all_graphs(n):
            for h in all_graphs(n):
                assert connectedness_certificate(g, h).check(g, h)


def oracle_is_hub(g, h, i):
    """i lies on every h-path between every non-edge pair of g that avoids i."""
    return all(i in path for k, l in g.non_edges() if i not in (k, l)
               for path in oracle_all_paths(h.edges, k, l))


def test_check_verdicts_of_every_kind():
    k4, c4 = complete_graph(4), Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    # C4's non-edges have two K4-paths; K4 has no non-edges
    assert ConnectednessCertificate("UniquePathSwapped").check(c4, k4)
    assert not ConnectednessCertificate("UniquePathSwapped").check(k4, c4)
    assert not ConnectednessCertificate("UniquePath").check(c4, k4)
    h = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3)])
    g = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)])
    assert ConnectednessCertificate("HubSwapped", 1).check(h, g)
    assert not ConnectednessCertificate("HubSwapped", 2).check(h, g)
    assert not ConnectednessCertificate("HubSwapped", None).check(h, g)
    # a Hub without its witness vertex certifies nothing, even where a hub exists
    assert find_hub(g, h) == 1 and not ConnectednessCertificate("Hub").check(g, h)
    for kind in ("Unknown", "Bogus", "hub", ""):
        for pair in ((g, h), (h, g), (c4, k4)):
            assert ConnectednessCertificate(kind).check(*pair) == (kind == "Unknown")
    for n in (3, 4):
        for a in all_graphs(n):
            for b in all_graphs(n):
                assert ConnectednessCertificate("UniquePathSwapped").check(a, b) == \
                    unique_path_hypothesis(b, a)
                for w in range(1, n + 1):
                    assert ConnectednessCertificate("HubSwapped", w).check(a, b) == \
                        oracle_is_hub(b, a, w)


def test_hadamard_shrink():
    rng = np.random.default_rng(13)
    a = random_pd(4, rng)
    assert np.array_equal(hadamard_shrink(a, 2, 1.0), a)
    z = hadamard_shrink(a, 2, 0.0)
    assert z[1, 0] == 0 and z[1, 2] == 0 and z[1, 1] == a[1, 1]
    with pytest.raises(ValueError):
        hadamard_shrink(a, 2, 1.5)
    for _ in range(25):
        p = random_pd(int(rng.integers(2, 6)), rng)
        eps = float(rng.uniform(0, 1))
        i = int(rng.integers(1, p.shape[0] + 1))
        assert is_pd(hadamard_shrink(p, i, eps))


@pytest.mark.parametrize("eps", [0, 0.5, 0.1, Fraction(1, 3), 1])
def test_hadamard_shrink_keeps_an_exact_matrix_exact(eps):
    a = matrices.rational_matrix([[2, "1/2", 1], ["1/2", 3, "1/3"], [1, "1/3", 4]])
    z = hadamard_shrink(a, 2, eps)
    assert z.dtype == object and all(type(x) is Fraction for x in z.flat)
    e = Fraction(eps)
    assert z.tolist() == [[2, e / 2, 1], [e / 2, 3, e / 3], [1, e / 3, 4]]
    assert is_pd(z) and matrices.det(z) > 0


def test_hadamard_shrink_stays_in_model_for_hub():
    # hub pair from above: shrinking the hub keeps residuals tiny
    h = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3)])
    g = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)])
    res = find_model_point(g, h, seed=5)
    assert res.converged
    for eps in np.linspace(0, 1, 11):
        shr = hadamard_shrink(res.matrix, 1, float(eps))
        assert np.abs(membership_residual(shr, g, h)).max() <= 1e-8


def test_find_model_point_trivial_cases():
    kn = complete_graph(5)
    res = find_model_point(kn, kn, seed=2)
    assert res.converged and res.restarts_used == 1 and is_pd(res.matrix)
    g = Graph.from_edges(4, [(1, 3), (2, 4)])
    h = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    res = find_model_point(g, h, seed=0)
    assert res.converged
    assert np.abs(res.matrix - np.eye(4)).max() <= 1e-6


def test_find_model_point_star_path():
    res = find_model_point(STAR4, PATH4, seed=1)
    assert res.converged and is_pd(res.matrix)
    for i, j in [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
        assert abs(res.matrix[i - 1, j - 1]) <= 1e-6
    assert np.abs(membership_residual(res.matrix, STAR4, PATH4)).max() <= 1e-10


def test_find_model_point_deterministic():
    a = find_model_point(STAR4, PATH4, seed=7)
    b = find_model_point(STAR4, PATH4, seed=7)
    assert np.array_equal(a.matrix, b.matrix) and a.residual == b.residual


@pytest.mark.parametrize("g, h", [
    (STAR4, PATH4),
    (Graph.from_edges(4, [(1, 3), (2, 4)]), PATH4),   # no common edge: nothing is searched
])
def test_find_model_point_rejects_negative_seed(g, h):
    with pytest.raises(ValueError, match="seed"):
        find_model_point(g, h, seed=-1)


def _blockwise_invariant_pairs():
    for n in (2, 3, 4):
        for g in all_graphs(n):
            for h in all_graphs(n):
                yield g, h
    # two triangles of h over two paths of g: two blocks that both iterate
    yield (Graph.from_edges(6, [(1, 2), (2, 3), (4, 5), (5, 6)]),
           Graph.from_edges(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]))
    rng = np.random.default_rng(29)
    for n in (5, 6, 7):
        for _ in range(25):
            yield random_graph(n, rng), random_graph(n, rng)


def test_find_model_point_block_by_block():
    converged = unrestricted_converged = 0
    for seed, (g, h) in enumerate(_blockwise_invariant_pairs()):
        res = find_model_point(g, h, seed=seed % 5)
        on_blocks = np.zeros((g.n, g.n), dtype=bool)
        parts = []
        dec = decompose(g, h)
        for block, (bg, bh) in zip(dec.blocks, dec.pairs):
            if len(block) == 1:
                continue
            idx = np.ix_(np.subtract(block, 1), np.subtract(block, 1))
            on_blocks[idx] = True
            part = unrestricted_point(bg, bh, seed % 5)
            assert np.array_equal(res.matrix[idx], part.matrix)
            parts.append(part)
        assert np.all(res.matrix[~on_blocks & ~np.eye(g.n, dtype=bool)] == 0.0)
        assert np.all(np.diag(res.matrix) == 1.0)
        assert res.residual == max((p.residual for p in parts), default=0.0)
        assert res.converged == all(p.converged for p in parts)
        assert res.restarts_used == max((p.restarts_used for p in parts), default=1)
        assert res.iterations == sum(p.iterations for p in parts)
        if res.converged:
            converged += 1
            assert is_pd(res.matrix)
            r = membership_residual(res.matrix, g, h)
            assert r.size == 0 or np.abs(r).max() <= 1e-9
            assert local_tangent_dimension(res.matrix, g, h) <= dimension_bound(g, h)[1]
        unrestricted_converged += unrestricted_point(g, h, seed % 5).converged
    assert converged >= unrestricted_converged


def test_local_tangent_dimension():
    kn = complete_graph(4)
    assert local_tangent_dimension(np.eye(4), kn, kn) == 6
    # non-smooth example: kernel dimension 2 exceeds the model dimension 1
    g = Graph.from_edges(4, [(1, 3), (2, 3)])
    assert local_tangent_dimension(np.eye(4), g, g) == 2
    # union-complete pairs: kernel equals the shared edge count at identity
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        g = random_graph(n, rng)
        h = Graph.from_edges(n, list(set(complete_graph(n).edges) - set(g.edges))
                             + [e for e in g.edges if rng.random() < 0.4])
        assert edge_union(g, h).num_edges == n * (n - 1) // 2
        shared = edge_intersection(g, h).num_edges
        assert local_tangent_dimension(np.eye(n), g, h) == shared


def test_local_tangent_dimension_requires_model_point():
    a = np.eye(4)
    a[0, 1] = a[1, 0] = 0.5
    with pytest.raises(ValueError):
        local_tangent_dimension(a, complete_graph(4), empty_graph(4))


def _converged_points():
    """Converged points of find_model_point on the n <= 4 orbits and on seeded random pairs, n = 5..7."""
    rng = np.random.default_rng(41)
    pairs = [(g, h) for n in (3, 4)
             for _, g, h in enumerate_inequivalent(n, connected_only=False).representatives]
    pairs += [(random_graph(n, rng), random_graph(n, rng)) for n in (5, 6, 7) for _ in range(30)]
    found = [(g, h, find_model_point(g, h, seed=int(rng.integers(100)))) for g, h in pairs]
    return [(g, h, res.matrix) for g, h, res in found if res.converged]


def test_converged_points_are_accepted_by_every_model_check():
    points = _converged_points()
    assert len(points) >= 170  # of 180 pairs
    for g, h, a in points:
        assert is_pd(a) and matrices.is_member(a, g, h)
        local_tangent_dimension(a, g, h)
        is_transverse_at(a, g, h)


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("n", range(4, 8))
def test_search_points_pass_the_definiteness_rule_of_every_verdict(n, seed):
    """The search judges its candidates by is_pd's rule, so no verdict refuses its point."""
    rng = np.random.default_rng(10 * n + seed)
    pairs = [(random_graph(n, rng), random_graph(n, rng)) for _ in range(12)]
    with mock.patch.object(matrices, "_pd_factor", wraps=matrices._pd_factor) as rule:
        found = [(g, h, find_model_point(g, h, seed=seed)) for g, h in pairs]
    assert rule.called
    points = [(g, h, res.matrix) for g, h, res in found if res.converged]
    assert len(points) >= 10
    for g, h, a in points:
        assert is_pd(a)
        local_tangent_dimension(a, g, h)
        is_transverse_at(a, g, h)


def test_both_tangent_verdicts_refuse_a_point_off_the_model_by_the_membership_rule():
    g = Graph.from_edges(3, [(1, 2), (2, 3)])
    k3 = complete_graph(3)
    near = 0.25 + 2e-7  # the inverse's (1, 3) entry is about 3.6e-7, past DEFAULT_TOL
    a = np.array([[1, 0.5, near], [0.5, 1, 0.5], [near, 0.5, 1]])
    assert 1e-8 < np.abs(membership_residual(a, g, k3)).max() <= 1e-6
    assert not matrices.is_member(a, g, k3)
    for verdict in (local_tangent_dimension, is_transverse_at):
        with pytest.raises(ValueError, match="not on the model"):
            verdict(a, g, k3)
    on = a.copy()
    on[0, 2] = on[2, 0] = 0.25
    assert matrices.is_member(on, g, k3)
    assert (local_tangent_dimension(on, g, k3), is_transverse_at(on, g, k3)) == (2, True)


@pytest.fixture(scope="module")
def found_points():
    """Converged model points of the n = 4 orbits and of random pairs with n = 4..7."""
    rng = np.random.default_rng(31)
    pairs = [(g, h) for _, g, h in enumerate_inequivalent(4).representatives]
    pairs += [(random_graph(n, rng), random_graph(n, rng)) for n in (4, 5, 6, 7) for _ in range(10)]
    found = [(g, h, find_model_point(g, h, seed=3)) for g, h in pairs]
    return [(g, h, res.matrix) for g, h, res in found if res.converged]


def _relabel(g, perm):
    """g with 0-based vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[i - 1] + 1, perm[j - 1] + 1) for i, j in g.edges])


def _assert_rank_cut_invariant(points, rng):
    """Both tangent verdicts keep their answer under a -> D a D and under a relabelling."""
    for g, h, a in points:
        want = local_tangent_dimension(a, g, h), is_transverse_at(a, g, h)
        for _ in range(3):
            d = 10.0 ** rng.uniform(-3, 3, size=g.n)  # diagonal entries in 1e-3..1e3
            scaled = a * np.outer(d, d)
            assert (local_tangent_dimension(scaled, g, h), is_transverse_at(scaled, g, h)) == want
        perm = rng.permutation(g.n)
        moved = np.empty_like(a)
        moved[np.ix_(perm, perm)] = a
        pg, ph = _relabel(g, perm), _relabel(h, perm)
        assert (local_tangent_dimension(moved, pg, ph), is_transverse_at(moved, pg, ph)) == want


def test_tangent_verdicts_invariant_under_rescaling_and_relabelling(found_points):
    assert len(found_points) >= 90
    _assert_rank_cut_invariant(found_points, np.random.default_rng(33))


@pytest.fixture(scope="module")
def corpus_points():
    """Converged model points of the first 150 analyze corpus pairs of seeds 1 and 3, n = 4..7."""
    found = [(g, h, find_model_point(g, h, seed=k))
             for seed in (1, 3) for g, h, k in corpus_pairs(seed, 150)]
    return [(g, h, res.matrix) for g, h, res in found if res.converged]


def test_tangent_rows_read_off_the_inverse_are_the_cofactor_rows(corpus_points):
    assert len(corpus_points) >= 290
    for g, h, a in corpus_points:
        jac = geometry._tangent_jacobian(a, g, h)
        want = stacked_jacobian(matrices.to_correlation(a)[1], g, h)
        assert (jac.row_labels, jac.col_positions) == (want.row_labels, want.col_positions)
        scale = np.abs(want.rows).max(initial=1.0)
        assert np.abs(jac.rows - want.rows).max(initial=0.0) <= 1e-12 * scale
        assert jac.rank() == want.rank()


def test_rank_cut_invariant_under_rescaling_and_relabelling_on_corpus_points(corpus_points):
    _assert_rank_cut_invariant(corpus_points, np.random.default_rng(37))


@pytest.mark.parametrize("verdict", [local_tangent_dimension, is_transverse_at])
def test_a_tangent_verdict_scales_and_inverts_its_point_once(verdict):
    """The rows are read off the R and R^-1 that accepted the point, not a second copy.

    The kernels behind to_correlation and inverse are counted: the verdict checks its
    point once, so it calls no public matrix function on it after that."""
    g, h = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)]), complete_graph(4)
    a = np.diag([4.0, 1.0, 9.0, 0.25]) @ inverse(
        np.array([[2.0, 0.5, 0, 0], [0.5, 2, 0.5, 0], [0, 0.5, 2, 0.5], [0, 0, 0.5, 2]])
    ) @ np.diag([4.0, 1.0, 9.0, 0.25])
    with contextlib.ExitStack() as stack:
        calls = [stack.enter_context(mock.patch.object(matrices, f, wraps=getattr(matrices, f)))
                 for f in ("_correlation", "_inverse", "det")]
        verdict(a, g, h)
    assert [c.call_count for c in calls] == [1, 1, 1]


def test_transverse_iff_tangent_dimension_is_the_edge_excess(found_points):
    for g, h, a in found_points:
        excess = g.num_edges + h.num_edges - g.n * (g.n - 1) // 2
        assert is_transverse_at(a, g, h) == (local_tangent_dimension(a, g, h) == excess)


def test_covariance_kernel_is_tangent_dimension_plus_n(found_points):
    # the loop form over the positions s <= t is the Jacobian in covariance coordinates
    for g, h, a in found_points:
        cov = _loop_jacobian_rows(a, g, h, diagonal=True)
        assert cov.shape[1] - numerical_rank(cov) == local_tangent_dimension(a, g, h) + g.n


def test_numerical_rank_threshold():
    m = np.diag([1.0, 1e-3, 1e-12])
    assert numerical_rank(m) == 2
    assert numerical_rank(m, rank_tol=1e-15) == 3
    assert numerical_rank(np.zeros((2, 2))) == 0


# -- loop forms of the array kernels, kept as references ------------------------

def _loop_positions(n, diagonal):
    return [(s, t) for s in range(1, n + 1) for t in range(s + (not diagonal), n + 1)]


def _loop_vech(a, positions):
    return np.array([a[s - 1, t - 1] for s, t in positions])


def _loop_adjugate(a):
    m = a.shape[0]
    if m == 1:
        return np.array([[1.0]])
    cof = np.empty((m, m))
    idx = list(range(m))
    for r in range(m):
        rows = idx[:r] + idx[r + 1:]
        sub = a[rows]
        for c in range(m):
            cols = idx[:c] + idx[c + 1:]
            cof[r, c] = (-1) ** (r + c) * float(np.linalg.det(sub[:, cols]))
    return cof.T


def _loop_minor_gradient(a, k, l, positions):
    n = a.shape[0]
    rows = [v for v in range(n) if v != k - 1]
    cols = [v for v in range(n) if v != l - 1]
    cof = _loop_adjugate(a[np.ix_(rows, cols)]).T
    rpos = {v: t for t, v in enumerate(rows)}
    cpos = {v: t for t, v in enumerate(cols)}
    grad = np.zeros(len(positions))
    for m, (s, t) in enumerate(positions):
        s0, t0 = s - 1, t - 1
        val = 0.0
        if s0 in rpos and t0 in cpos:
            val += cof[rpos[s0], cpos[t0]]
        if s != t and t0 in rpos and s0 in cpos:
            val += cof[rpos[t0], cpos[s0]]
        grad[m] = val
    return grad


def _loop_jacobian_rows(a, g, h, diagonal=False):
    """The pseudo-Jacobian by loops; with diagonal, over the covariance positions s <= t."""
    positions = _loop_positions(g.n, diagonal)
    pos_index = {p: m for m, p in enumerate(positions)}
    rows = [_loop_minor_gradient(a, k, l, positions) for k, l in g.non_edges()]
    for i, j in h.non_edges():
        row = np.zeros(len(positions))
        row[pos_index[(i, j)]] = 1.0
        rows.append(row)
    return np.stack(rows) if rows else np.zeros((0, len(positions)))


def _loop_build_corr(n, free, x):
    a = np.eye(n)
    for val, (i, j) in zip(x, free):
        a[i - 1, j - 1] = val
        a[j - 1, i - 1] = val
    return a


def _loop_point_jacobian(inv, free, targets):
    jac = np.empty((len(targets), len(free)))
    for m, (s, t) in enumerate(free):
        s0, t0 = s - 1, t - 1
        for q, (k, l) in enumerate(targets):
            jac[q, m] = -(inv[k, s0] * inv[t0, l] + inv[k, t0] * inv[s0, l])
    return jac


def _seeded_pairs(n, rng):
    """Random pairs plus the extremes: complete G (no minor rows or targets), empty H."""
    pairs = [(random_graph(n, rng), random_graph(n, rng)) for _ in range(4)]
    pairs.append((complete_graph(n), random_graph(n, rng)))
    pairs.append((random_graph(n, rng), empty_graph(n)))
    return pairs


@pytest.mark.parametrize("n", range(2, 8))
def test_point_kernels_match_loop_forms(n):
    rng = np.random.default_rng(100 + n)
    for g, h in _seeded_pairs(n, rng):
        free = list(h.edges)
        targets = [(k - 1, l - 1) for k, l in g.non_edges()]
        fi, fj = geometry._index_pairs(free)
        tk, tl = geometry._index_pairs(g.non_edges())
        x = rng.uniform(-0.3 / n, 0.3 / n, size=len(free))
        a = geometry._build_corr(n, fi, fj, x)
        assert np.array_equal(a, _loop_build_corr(n, free, x))
        inv = matrices.chol_inverse(matrices._pd_factor(a))
        assert np.array_equal(inv[tk, tl], np.array([inv[k, l] for k, l in targets]))
        jac = -geometry._inversion_differential(inv, tk[:, None], tl[:, None], fi, fj)
        assert jac.shape == (len(targets), len(free))
        assert np.array_equal(jac, _loop_point_jacobian(inv, free, targets))


def test_chol_inverse_matches_triangular_solve():
    rng = np.random.default_rng(21)
    for n in range(1, 9):
        for _ in range(20):
            L = np.linalg.cholesky(random_pd(n, rng))
            want = np.linalg.solve(L, np.eye(n))
            assert np.array_equal(matrices.chol_inverse(L), want.T @ want)


@pytest.mark.parametrize("n", range(2, 8))
def test_stacked_jacobian_matches_loop_form(n):
    rng = np.random.default_rng(200 + n)
    b = rng.normal(size=(n, n - 1))
    points = [random_pd(n, rng), np.eye(n), b @ b.T]     # the last one is singular
    for g, h in _seeded_pairs(n, rng):
        for a in points:
            jac = stacked_jacobian(a, g, h)
            assert jac.col_positions == tuple(_loop_positions(n, diagonal=False))
            assert np.array_equal(jac.rows, _loop_jacobian_rows(a, g, h))


def test_tangent_generators_and_vech_match_loop_forms():
    rng = np.random.default_rng(23)
    for n in range(2, 8):
        g = random_graph(n, rng)
        p = random_pd(n, rng)
        tb = tangent_basis_concentration(p, g)
        cols = [p[:, i] for i in range(n)]
        want = [2 * np.outer(c, c) for c in cols]
        want += [np.outer(cols[i - 1], cols[j - 1]) + np.outer(cols[j - 1], cols[i - 1])
                 for i, j in g.edges]
        assert len(tb.generators) == len(want)
        assert all(np.array_equal(got, w) for got, w in zip(tb.generators, want))
        positions = _loop_positions(n, diagonal=True)
        assert np.array_equal(geometry._basis_matrix(tb.generators, n),
                              np.stack([_loop_vech(m, positions) for m in want]))
    assert geometry._basis_matrix((), 3).shape == (0, 6)
