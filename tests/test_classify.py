import itertools
import math

import numpy as np
import pytest

from doublemarkov import Graph, ci, complete_graph
from doublemarkov.classify import (
    classify_small_intersection,
    enumerate_inequivalent,
    sample_from_family,
)
from doublemarkov import classify as classify_mod
from doublemarkov.errors import BudgetExceeded
from doublemarkov.geometry import dimension_bound
from doublemarkov.graphs import (
    connected_graph_masks,
    edge_intersection,
    edge_mask,
    graph_from_edge_mask,
    induced_subgraph,
    is_connected,
)
from doublemarkov.matrices import is_pd, membership_residual

STAR4 = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
PATH4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])


def residual_ok(a, g, h, tol=1e-9):
    return np.abs(membership_residual(a, g, h)).max() <= tol


def test_single_edge_case():
    desc = classify_small_intersection(STAR4, PATH4)
    assert desc.case == "single-edge"
    assert desc.support == (1, 2)
    assert desc.dimension == 1 == dimension_bound(STAR4, PATH4)[1]
    assert desc.blocks == ((1, 2), (3,), (4,))
    a = sample_from_family(desc, {"a": 0.0})
    assert np.array_equal(a, np.eye(4))
    a = sample_from_family(desc, {"a": 0.6})
    assert a[0, 1] == 0.6 and residual_ok(a, STAR4, PATH4)
    with pytest.raises(ValueError, match="need explicit params or an rng"):
        sample_from_family(desc)


def test_trivial_case():
    g = Graph.from_edges(3, [(1, 2)])
    h = Graph.from_edges(3, [(2, 3)])
    desc = classify_small_intersection(g, h)
    assert desc.case == "trivial" and desc.dimension == 0
    assert np.array_equal(sample_from_family(desc, {}), np.eye(3))


def test_two_edge_cases():
    base = [(1, 2), (2, 3)]
    # (1) third pair in G only: inverse graphical, s13 = 0
    g = Graph.from_edges(3, base + [(1, 3)])
    h = Graph.from_edges(3, base)
    d1 = classify_small_intersection(g, h)
    assert d1.case == "two-edge-case-1" and d1.dimension == 2
    a = sample_from_family(d1, {"a": 0.5, "b": 0.5})
    assert a[0, 2] == 0 and residual_ok(a, g, h)
    # (2) third pair in H only: graphical, s13 = s12 * s23
    d2 = classify_small_intersection(h, g)
    assert d2.case == "two-edge-case-2" and d2.dimension == 2
    a = sample_from_family(d2, {"a": 0.5, "b": 0.4})
    assert a[0, 2] == pytest.approx(0.2) and residual_ok(a, h, g)
    # (3) third pair in neither: two segments
    d3 = classify_small_intersection(h, h)
    assert d3.case == "two-edge-case-3"
    assert d3.component_count == 2 and d3.dimension == 1
    a = sample_from_family(d3, {"a": 0.7}, family=0)
    b = sample_from_family(d3, {"a": 0.7}, family=1)
    assert a[0, 1] == 0.7 and b[1, 2] == 0.7
    assert residual_ok(a, h, h) and residual_ok(b, h, h)


def test_two_edge_relabelled_support():
    g = Graph.from_edges(5, [(2, 5), (3, 5), (2, 3)])
    h = Graph.from_edges(5, [(2, 5), (3, 5)])
    desc = classify_small_intersection(g, h)
    assert desc.case == "two-edge-case-1"
    assert desc.support == (2, 5, 3)
    rng = np.random.default_rng(0)
    a = sample_from_family(desc, rng=rng)
    assert is_pd(a) and residual_ok(a, g, h)
    assert a[1, 2] == 0  # pair (2, 3) is the missing covariance entry


def test_three_edge_clique():
    tri = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3)])
    desc = classify_small_intersection(tri, tri)
    assert desc.case == "three-edge-clique" and desc.dimension == 3
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = sample_from_family(desc, rng=rng)
        assert is_pd(a) and residual_ok(a, tri, tri)


def test_three_edge_case7_example():
    g = Graph.from_edges(4, [e for e in complete_graph(4).edges if e != (1, 3)])
    h = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 3)])
    desc = classify_small_intersection(g, h)
    assert desc.case == "three-edge-path-7" and not desc.swapped
    a = sample_from_family(desc, {"a": 0.5, "b": 0.4, "c": 0.3})
    assert a[0, 2] == pytest.approx(0.2)
    assert np.abs(membership_residual(a, g, h)).max() <= 1e-12


def test_three_edge_case10_example():
    g = Graph.from_edges(4, [e for e in complete_graph(4).edges if e != (1, 4)])
    h = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    desc = classify_small_intersection(g, h)
    assert desc.case == "three-edge-path-10"
    a = sample_from_family(desc, {"a": 0.5, "b": 0.0, "c": 0.4})
    assert a[0, 3] == 0  # numerator vanishes with the middle correlation
    b = sample_from_family(desc, {"a": 0.5, "b": 0.3, "c": 0.4})
    assert b[0, 3] == pytest.approx(-0.5 * 0.3 * 0.4 / (1 - 0.09))
    assert residual_ok(b, g, h)


def test_three_edge_swapped_case():
    # G carries only the path, H has an extra chord: needs the G/H swap
    g = PATH4
    h = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 3)])
    desc = classify_small_intersection(g, h)
    assert desc.swapped
    rng = np.random.default_rng(2)
    for fam in range(len(desc.families)):
        a = sample_from_family(desc, rng=rng, family=fam)
        assert is_pd(a) and residual_ok(a, g, h)


def test_three_edge_star_rejected():
    with pytest.raises(ValueError, match="star"):
        classify_small_intersection(STAR4, STAR4)


def test_disconnected_intersection_rejected():
    g = Graph.from_edges(5, [(1, 2), (3, 4)])
    with pytest.raises(ValueError, match="decompose"):
        classify_small_intersection(g, g)


def test_all_path_configurations_classify_and_sample():
    # every distribution of the chords 13, 14, 24 between G-only, H-only and
    # neither must land in some case, and its families must hit the model
    base = [(1, 2), (2, 3), (3, 4)]
    chords = [(1, 3), (1, 4), (2, 4)]
    rng = np.random.default_rng(3)
    seen = set()
    for assignment in itertools.product((0, 1, 2), repeat=3):
        ge = base + [c for c, a in zip(chords, assignment) if a == 0]
        he = base + [c for c, a in zip(chords, assignment) if a == 1]
        g = Graph.from_edges(4, ge)
        h = Graph.from_edges(4, he)
        desc = classify_small_intersection(g, h)
        seen.add(desc.case)
        for fam in range(len(desc.families)):
            a = sample_from_family(desc, rng=rng, family=fam)
            assert is_pd(a)
            assert residual_ok(a, g, h)
    assert seen == {f"three-edge-path-{k}" for k in range(1, 12)}


def test_sample_rejects_out_of_domain():
    desc = classify_small_intersection(STAR4, PATH4)
    with pytest.raises(ValueError):
        sample_from_family(desc, {"a": 1.5})


def test_enumerate_small_counts():
    res3 = enumerate_inequivalent(3)
    assert res3.count == 4
    assert len(res3.representatives) == 4
    for _, g, h in res3.representatives:
        assert len(g.edges) >= 2 and len(h.edges) >= 2  # connected on 3 vertices
    res4 = enumerate_inequivalent(4)
    assert res4.count == 55


def test_enumerate_representatives_realize_their_canonical_form():
    """Each key is its pair's canonical form: the code G << C(n,2) | H as big-endian bytes,
    the least over every relabelling of the pair in both orders (brute force)."""
    for n, connected_only in itertools.product((3, 4), (True, False)):
        npairs = n * (n - 1) // 2
        reps = enumerate_inequivalent(n, connected_only).representatives
        assert [key for key, _, _ in reps] == sorted(key for key, _, _ in reps)
        for key, g, h in reps:
            code = edge_mask(g) << npairs | edge_mask(h)
            assert key == code.to_bytes((2 * npairs + 7) // 8, "big")
            codes = set()
            for perm in itertools.permutations(range(1, n + 1)):
                pg, ph = (edge_mask(Graph.from_edges(n, [(perm[i - 1], perm[j - 1])
                                                         for i, j in x.edges]))
                          for x in (g, h))
                codes |= {pg << npairs | ph, ph << npairs | pg}
            assert int.from_bytes(key, "big") == min(codes)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_enumerate_connected_representatives_have_distinct_relations(n):
    # the relation pass that connected enumeration no longer takes would have merged these
    reps = enumerate_inequivalent(n).representatives
    forms = {ci.canonical_form(ci.double_markov_relation(g, h)) for _, g, h in reps}
    assert len(forms) == len(reps)


def test_connected_pair_is_read_off_the_row_ends_of_its_relation():
    """For connected G and H, (ij|N \\ ij) holds iff ij is not an edge of G and (ij|) iff ij
    is not an edge of H: the last and the first column of the pair rows."""
    n = 4
    full = (1 << n * (n - 1) // 2) - 1
    for gm, hm in itertools.product(connected_graph_masks(n), repeat=2):
        rows = ci._pair_rows(ci.double_markov_relation(graph_from_edge_mask(n, gm),
                                                       graph_from_edge_mask(n, hm)))
        held = [sum(1 << r for r, b in enumerate(col.tolist()) if b)
                for col in (rows[:, -1], rows[:, 0])]
        assert held == [full ^ gm, full ^ hm]


def test_enumerate_all_pairs_counts_relations_not_pairs():
    # without connectivity, distinct pairs can share a relation (an edgeless
    # graph separates everything); counts must match the brute force over
    # relation canonical forms
    from doublemarkov import ci
    from doublemarkov.graphs import graph_from_edge_mask
    canons = set()
    for gm in range(8):
        for hm in range(8):
            g = graph_from_edge_mask(3, gm)
            h = graph_from_edge_mask(3, hm)
            canons.add(ci.canonical_form(ci.double_markov_relation(g, h)))
    assert len(canons) == 7
    assert enumerate_inequivalent(3, connected_only=False).count == 7
    assert enumerate_inequivalent(4, connected_only=False).count == 83


def test_enumerate_rejects_bad_n():
    with pytest.raises(ValueError):
        enumerate_inequivalent(2)
    with pytest.raises(ValueError):
        enumerate_inequivalent(7)


@pytest.mark.parametrize("connected_only", [False])
def test_enumerate_6_exceeds_its_budget_before_any_table(monkeypatch, connected_only):
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(classify_mod.graphs, "connected_graph_masks", no_table)
    monkeypatch.setattr(classify_mod.ci, "_perm_index_maps", no_table)
    with pytest.raises(BudgetExceeded, match="802,788 orbits"):
        enumerate_inequivalent(6, connected_only)


@pytest.fixture
def networkx():
    """The independent connectivity oracle: networkx is a test-only dependency."""
    return pytest.importorskip("networkx")


def _cycle_type(s):
    """The sorted cycle lengths of the permutation s of range(len(s))."""
    lengths, seen = [], set()
    for v in range(len(s)):
        if v not in seen:
            lengths.append(0)
            while v not in seen:
                seen.add(v)
                v = s[v]
                lengths[-1] += 1
    return tuple(sorted(lengths))


def burnside_orbits(networkx, n, connected_only):
    """Pairs of (connected) labelled graphs modulo relabelling and G/H swap:
    (1 / (2 n!)) * sum over sigma of fix(sigma)^2 + fix(sigma^2), where fix counts the
    graphs that sigma maps to themselves.  Both terms depend only on the cycle type of
    sigma, so the sum takes one sigma per cycle type, times the size of its class."""
    pairs = list(itertools.combinations(range(n), 2))
    masks = []
    for mask in range(1 << len(pairs)):
        g = networkx.Graph(p for r, p in enumerate(pairs) if mask >> r & 1)
        g.add_nodes_from(range(n))
        if not connected_only or networkx.is_connected(g):
            masks.append(mask)
    masks = np.array(masks)

    def fix(s):
        image = sum((masks >> r & 1) << pairs.index(tuple(sorted((s[i], s[j]))))
                    for r, (i, j) in enumerate(pairs))
        return int(np.count_nonzero(image == masks))

    classes = {}
    for s in itertools.permutations(range(n)):
        classes.setdefault(_cycle_type(s), [s, 0])[1] += 1
    total = sum(size * (fix(s) ** 2 + fix(tuple(s[s[v]] for v in range(n))))
                for s, size in classes.values())
    assert total % (2 * math.factorial(n)) == 0
    return total // (2 * math.factorial(n))


def enumerate_counting_canonical_forms(monkeypatch, n, connected_only):
    """enumerate_inequivalent's count and the number of canonical forms it took."""
    calls = []
    canonical_form = classify_mod.ci.canonical_form
    monkeypatch.setattr(classify_mod.ci, "canonical_form",
                        lambda *a, **kw: calls.append(a) or canonical_form(*a, **kw))
    return enumerate_inequivalent(n, connected_only).count, len(calls)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_enumerate_count_matches_burnside(networkx, monkeypatch, n):
    # one representative per orbit, and no canonical form: a connected pair's
    # relation determines the pair
    orbits = burnside_orbits(networkx, n, connected_only=True)
    assert enumerate_counting_canonical_forms(monkeypatch, n, True) == (orbits, 0)


@pytest.mark.parametrize("n, orbits, count", [(3, 13, 7), (4, 154, 83)])
def test_enumerate_all_pairs_takes_one_canonical_form_per_orbit(networkx, monkeypatch,
                                                               n, orbits, count):
    # without connectivity, pairs in different orbits can share a relation
    assert burnside_orbits(networkx, n, connected_only=False) == orbits
    assert enumerate_counting_canonical_forms(monkeypatch, n, False) == (count, orbits)


def test_enumerate_stable_under_iteration_order(monkeypatch):
    orig = connected_graph_masks(4)
    shuffled = list(orig)
    np.random.default_rng(5).shuffle(shuffled)
    baseline = enumerate_inequivalent(4)
    monkeypatch.setattr(classify_mod.graphs, "connected_graph_masks",
                        lambda n: tuple(shuffled))
    redone = enumerate_inequivalent(4)
    assert redone.count == baseline.count
    assert [(r[1], r[2]) for r in redone.representatives] == \
        [(r[1], r[2]) for r in baseline.representatives]


def test_path_supports_are_paths_under_any_labelling():
    # every labelling of a 2- or 3-edge shared path on 4 vertices, with every
    # chord placement: the support walks the path and each family hits the model
    rng = np.random.default_rng(4)
    seen = set()
    for gm in range(64):
        g = graph_from_edge_mask(4, gm)
        for hm in range(64):
            h = graph_from_edge_mask(4, hm)
            shared = edge_intersection(g, h)
            support = {v for e in shared.edges for v in e}
            if not (shared.num_edges in (2, 3) and len(support) == shared.num_edges + 1
                    and is_connected(induced_subgraph(shared, support))
                    and all(len(shared.neighbors(v)) <= 2 for v in support)):
                continue
            desc = classify_small_intersection(g, h)
            assert sorted(desc.support) == sorted(support)
            assert all(shared.has_edge(a, b) for a, b in zip(desc.support, desc.support[1:]))
            seen.add(desc.case)
            for fam in range(len(desc.families)):
                a = sample_from_family(desc, rng=rng, family=fam)
                assert is_pd(a) and residual_ok(a, g, h)
    assert seen == {f"two-edge-case-{k}" for k in range(1, 4)} | {
        f"three-edge-path-{k}" for k in range(1, 12)}
