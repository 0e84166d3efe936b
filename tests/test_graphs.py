import itertools
import types

import numpy as np
import pytest

from doublemarkov import ci, classify, geometry, ideal
from doublemarkov import graphs as graphs_mod
from doublemarkov import (
    Graph,
    all_paths,
    complement,
    complete_graph,
    conditional_minor,
    connected_components,
    direct_sum,
    edge_intersection,
    edge_union,
    empty_graph,
    marginal_minor,
    separates,
)
from doublemarkov.errors import PathCapExceeded
from doublemarkov.graphs import (
    all_graphs,
    edge_mask,
    format_pair_file,
    graph_from_edge_mask,
    induced_subgraph,
    pair_rank,
    pairs_lex,
    parse_pair_file,
)

from conftest import oracle_separates, random_graph

P3 = Graph.from_edges(3, [(1, 2), (2, 3)])
STAR4 = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
PATH4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])


def test_construction_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 2)])
    with pytest.raises(ValueError):
        Graph.from_edges(17, [])
    with pytest.raises(ValueError, match="vertex count"):
        Graph.from_edges(10**12, [])  # refused before the masks are allocated
    g = Graph.from_edges(3, [(2, 1), (1, 2)])
    assert g.edges == ((1, 2),)


@pytest.mark.parametrize("n, adj", [
    (0, ()), (17, (0,) * 17), (3, (0, 0)), (3, (0, 0, 0, 0)),
    (3, (0b1000, 0, 0)), (3, (-1, 0, 0)), (3, (0b001, 0, 0)), (3, (0b010, 0, 0)),
])
def test_direct_construction_refuses_what_from_edges_cannot_build(n, adj):
    with pytest.raises(ValueError):
        Graph(n, adj)


def test_direct_construction_takes_a_simple_graph():
    assert Graph(3, (0b010, 0b101, 0b010)) == Graph.from_edges(3, [(1, 2), (2, 3)])


def test_from_edges_converts_integer_vertices_and_refuses_others():
    g = Graph.from_edges(4, [(np.int64(1), np.int64(3))])
    assert g == Graph.from_edges(4, [(1, 3)])
    assert all(type(m) is int for m in g.adj)
    with pytest.raises(ValueError, match=r"vertex 2\.0 is not an integer"):
        Graph.from_edges(4, [(2.0, 3)])
    with pytest.raises(ValueError, match=r"vertex 5 out of range 1\.\.4"):
        Graph.from_edges(4, [(np.int64(5), 1)])


@pytest.mark.parametrize("pair_function", [
    ci.double_markov_relation, classify.classify_small_intersection,
    geometry.find_model_point, ideal.unique_path_hypothesis,
])
def test_pair_functions_refuse_different_vertex_sets(pair_function):
    with pytest.raises(ValueError, match="graphs live on different vertex sets"):
        pair_function(complete_graph(3), complete_graph(4))


def test_separates_examples():
    assert separates(P3, 1, 3, {2}) is True
    assert separates(complete_graph(3), 1, 2, {3}) is False
    assert separates(STAR4, 2, 3, {1}) is True
    assert separates(STAR4, 2, 3, set()) is False


def test_separates_argument_errors():
    with pytest.raises(ValueError):
        separates(P3, 1, 1, set())
    with pytest.raises(ValueError):
        separates(P3, 1, 3, {1})
    with pytest.raises(ValueError):
        separates(P3, 1, 3, {9})


def test_separates_against_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(3, 7))
        g = random_graph(n, rng)
        i, j = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        rest = [v for v in range(1, n + 1) if v not in (i, j)]
        K = [v for v in rest if rng.random() < 0.4]
        assert separates(g, int(i), int(j), K) == oracle_separates(
            g.edges, int(i), int(j), K)


def test_separation_upward_stable_and_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(3, 7))
        g = random_graph(n, rng)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            rest = [v for v in range(1, n + 1) if v not in (i, j)]
            K = [v for v in rest if rng.random() < 0.3]
            s = separates(g, i, j, K)
            assert s == separates(g, j, i, K)
            if s:
                for m in rest:
                    assert separates(g, i, j, set(K) | {m})


def test_minor_examples():
    assert marginal_minor(complete_graph(3), 3).edges == ((1, 2),)
    assert marginal_minor(P3, 2).edges == ()
    assert marginal_minor(STAR4, 1).edges == ()
    # neighbors {1, 3} cliqued; vertex 3 relabels to 2 after deletion
    assert conditional_minor(P3, 2).edges == ((1, 2),)
    # smooth-non-minor pair: neighbors of 4 in {14, 23, 34} become a clique
    g = Graph.from_edges(4, [(1, 4), (2, 3), (3, 4)])
    assert conditional_minor(g, 4).edges == ((1, 3), (2, 3))
    for n in (3, 4, 5):
        for k in range(1, n + 1):
            assert conditional_minor(complete_graph(n), k).edges == \
                complete_graph(n - 1).edges


def test_minors_agree_on_isolated_vertex():
    g = Graph.from_edges(4, [(1, 2), (2, 3)])
    assert marginal_minor(g, 4) == conditional_minor(g, 4)


def test_minors_match_their_definitions():
    for n in (2, 3, 4, 5):
        for g in all_graphs(n):
            for k in range(1, n + 1):
                label = {v: v - (v > k) for v in range(1, n + 1)}
                kept = {(label[i], label[j]) for i, j in g.edges if k not in (i, j)}
                joined = {(label[i], label[j])
                          for i, j in itertools.combinations(sorted(g.neighbors(k)), 2)}
                assert set(marginal_minor(g, k).edges) == kept
                assert set(conditional_minor(g, k).edges) == kept | joined


def test_relabeling_is_decrement():
    g = Graph.from_edges(4, [(1, 2), (2, 4), (3, 4)])
    assert marginal_minor(g, 2).edges == ((2, 3),)  # 3-4 becomes 2-3


def test_direct_sum():
    k2 = complete_graph(2)
    assert direct_sum(k2, k2).edges == ((1, 2), (3, 4))
    assert direct_sum(empty_graph(2), empty_graph(3)).edges == ()
    s = direct_sum(P3, empty_graph(1))
    assert s.n == 4 and s.edges == ((1, 2), (2, 3))
    with pytest.raises(ValueError):
        direct_sum(complete_graph(10), complete_graph(10))


def test_connected_components():
    g = Graph.from_edges(4, [(1, 2), (3, 4)])
    assert connected_components(g) == ((1, 2), (3, 4))
    assert connected_components(complete_graph(4)) == ((1, 2, 3, 4),)
    assert connected_components(empty_graph(3)) == ((1,), (2,), (3,))


def test_components_of_direct_sum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(int(rng.integers(2, 5)), rng)
        h = random_graph(int(rng.integers(2, 5)), rng)
        shifted = tuple(tuple(v + g.n for v in b) for b in connected_components(h))
        assert connected_components(direct_sum(g, h)) == tuple(
            sorted(connected_components(g) + shifted))


def test_all_paths():
    assert all_paths(P3, 1, 3) == [(1, 2, 3)]
    c4 = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert all_paths(c4, 1, 3) == [(1, 2, 3), (1, 4, 3)]
    assert all_paths(empty_graph(3), 1, 2) == []


def test_all_paths_properties():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = random_graph(n, rng)
        k, l = rng.choice(np.arange(1, n + 1), size=2, replace=False)
        fwd = all_paths(g, int(k), int(l))
        assert fwd == sorted(fwd)
        for p in fwd:
            assert len(set(p)) == len(p)
        back = all_paths(g, int(l), int(k))
        assert sorted(tuple(reversed(p)) for p in fwd) == back


def test_all_paths_cap():
    k6 = complete_graph(6)
    with pytest.raises(PathCapExceeded):
        all_paths(k6, 1, 2, cap=3)


def test_edge_intersection_union():
    g = Graph.from_edges(3, [(1, 2), (1, 3)])
    h = Graph.from_edges(3, [(1, 3), (2, 3)])
    assert edge_intersection(g, h).edges == ((1, 3),)
    assert edge_union(g, complement(g)).edges == complete_graph(3).edges
    assert edge_intersection(STAR4, PATH4).edges == ((1, 2),)
    with pytest.raises(ValueError):
        edge_intersection(g, STAR4)


def test_induced_subgraph():
    g = Graph.from_edges(5, [(1, 2), (2, 4), (4, 5)])
    assert induced_subgraph(g, [2, 4, 5]).edges == ((1, 2), (2, 3))


def _edge_list_induced_subgraph(g, vertices):
    """The induced subgraph built edge by edge through Graph.from_edges, the oracle."""
    vs = sorted(vertices)
    return Graph.from_edges(len(vs), [(a + 1, b + 1)
                                      for a, b in itertools.combinations(range(len(vs)), 2)
                                      if g.has_edge(vs[a], vs[b])])


def test_mask_builders_match_the_edge_list_construction():
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for mask in range(1 << len(pairs)):
            g = graph_from_edge_mask(n, mask)
            assert g == Graph.from_edges(n, [p for r, p in enumerate(pairs) if mask >> r & 1])
            for size in range(1, n + 1):
                for vertices in itertools.combinations(range(1, n + 1), size):
                    assert induced_subgraph(g, vertices) == _edge_list_induced_subgraph(g, vertices)
                    assert induced_subgraph(g, vertices[::-1]) == induced_subgraph(g, vertices)
            with pytest.raises(ValueError, match=r"vertex count must be in 1\.\.16, got 0"):
                induced_subgraph(g, [])


def test_pair_rank_roundtrip():
    for n in (2, 4, 7):
        for r, (i, j) in enumerate(pairs_lex(n)):
            assert pair_rank(n, i, j) == r
            assert pair_rank(n, j, i) == r


@pytest.mark.parametrize("n", [-1, 17, 2000])
def test_pairs_lex_refuses_sizes_out_of_range_before_building(monkeypatch, n):
    def no_table(*args):
        raise AssertionError("a pair table was built")

    cached = pairs_lex.cache_info().currsize
    monkeypatch.setattr(graphs_mod, "itertools", types.SimpleNamespace(combinations=no_table))
    with pytest.raises(ValueError, match=r"vertex count must be in 0\.\.16"):
        pairs_lex(n)
    assert pairs_lex.cache_info().currsize == cached


def test_edge_mask_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        g = random_graph(n, rng)
        assert graph_from_edge_mask(n, edge_mask(g)) == g
    # every labelled graph with n <= 6: the edge lists agree with has_edge
    for n in range(1, 7):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for mask in range(1 << len(pairs)):
            g = graph_from_edge_mask(n, mask)
            assert g.edges == tuple(p for p in pairs if g.has_edge(*p))
            assert g.non_edges() == tuple(p for p in pairs if not g.has_edge(*p))
            assert edge_mask(g) == mask == sum(1 << pair_rank(n, *p) for p in g.edges)
    for n, mask in ((3, 1 << 5), (3, 8), (3, -1), (1, 1), (0, 0), (17, 0)):
        with pytest.raises(ValueError, match=r"need n in 1\.\.16 and mask in 0\.\.2\^"):
            graph_from_edge_mask(n, mask)


def test_pair_file_roundtrip():
    text = format_pair_file(STAR4, PATH4)
    g, h = parse_pair_file(text)
    assert g == STAR4 and h == PATH4
    g2, h2 = parse_pair_file("n 3\nG\nH 1-2\n")
    assert g2.edges == () and h2.edges == ((1, 2),)
    assert repr(STAR4) == "Graph(n=4, edges=[1-2 1-3 1-4])" and repr(g2) == "Graph(n=3, edges=[])"


@pytest.mark.parametrize("bad,msg", [
    ("n 4\nG 1-1\nH\n", "1-1"),
    ("n 4\nG 1-9\nH\n", "1-9"),
    ("n 4\nG 1_2\nH\n", "1_2"),
    ("m 4\nG\nH\n", "n <count>"),
    ("n 4\nG 1-2\n", "three"),
    ("n 4\nG 1-2\nH\nH 1-3\n", "found 4"),  # trailing lines after H
])
def test_pair_file_errors(bad, msg):
    with pytest.raises(ValueError, match=msg.replace("(", "[(]")):
        parse_pair_file(bad)


@pytest.mark.parametrize("text, msg", [
    ("\n\nn x\nG\nH\n", "line 3: vertex count 'x' is not an integer"),
    ("\n \nn 17\nG\nH\n", "line 3: vertex count must be in 1..16, got 17"),
    ("n 30\nG\nH\n", "line 1: vertex count must be in 1..16, got 30"),
    ("n 0\nG\nH\n", "line 1: vertex count must be in 1..16, got 0"),
    ("\n\nn 4\n\nG 1-5\nH\n", "line 5: malformed edge token '1-5'"),
    ("n 4\n\t\nH 1-2\n\nG\n", "line 3: expected it to start with 'G'"),
    ("n 4\nG 1-2\n\n\n\nH 2-3 3-3\n", "line 6: malformed edge token '3-3'"),
    ("n 2\nG 1-2\nH 1-2\nH\n",
     "line 4: pair file needs exactly three non-blank lines (n, G, H), found 4"),
    ("n 2\n\nG\n\nH\n\n\nG 1-2\nH\n",
     "line 8: pair file needs exactly three non-blank lines (n, G, H), found 5"),
    ("n 4\nG 1-2\n\n \n", "line 4: pair file needs exactly three non-blank lines (n, G, H), found 2"),
    ("n 4", "line 1: pair file needs exactly three non-blank lines (n, G, H), found 1"),
    ("", "empty pair file"),
    ("\n \t\n", "empty pair file"),
])
def test_pair_file_refusals_name_the_line_in_the_file(text, msg):
    with pytest.raises(ValueError) as exc:
        parse_pair_file(text)
    assert str(exc.value) == msg
