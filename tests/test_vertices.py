"""One vertex rule for every layer.

Every public function that takes a vertex or a vertex set refuses a value that
is not a vertex of its ground set with ValueError: 0, n + 1, a float, a string,
None, and a vertex given twice where distinct vertices are asked for.  A numpy
integer or a bool is read as the int it equals.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublemarkov import ci, geometry, graphs, ideal, matrices
from doublemarkov.ci import Relation, Statement
from doublemarkov.graphs import Graph

N = 4
H = Graph.from_edges(N, [(1, 2), (2, 3), (3, 4), (1, 3)])
R = ci.relation_of_graph(H)
A = np.array([[4.0, 1.0, 0.5, 0.2], [1.0, 3.0, 0.4, 0.1],
              [0.5, 0.4, 2.0, 0.3], [0.2, 0.1, 0.3, 5.0]])

# name: (ground set size, call on the vertex slots, valid slot values, whether the
# slots must be distinct); a slot inside a vertex set sits next to another one
CALLS = {
    "Graph.from_edges": (N, lambda i, j: Graph.from_edges(N, [(i, j)]), (1, 3), True),
    "Graph.has_edge": (N, H.has_edge, (1, 2), False),
    "Graph.neighbors": (N, H.neighbors, (1,), True),
    "separates": (N, lambda i, j, k, m: graphs.separates(H, i, j, [k, m]), (1, 4, 2, 3), True),
    "marginal_minor": (N, lambda k: graphs.marginal_minor(H, k), (1,), True),
    "conditional_minor": (N, lambda k: graphs.conditional_minor(H, k), (1,), True),
    "induced_subgraph": (N, lambda u, v: graphs.induced_subgraph(H, [u, v]), (1, 3), True),
    "all_paths": (N, lambda k, l: graphs.all_paths(H, k, l), (1, 4), True),
    "pair_rank": (N, lambda i, j: graphs.pair_rank(N, i, j), (1, 3), True),
    "make_statement": (ci.MAX_VERTICES, lambda i, j, k, m: ci.make_statement(i, j, [k, m]),
                       (1, 2, 3, 4), True),
    "statement_index": (N, lambda i, j, k: ci.statement_index(N, Statement(i, j, frozenset([k]))),
                        (1, 2, 3), True),
    "Relation.has": (N, lambda i, j, k, m: R.has(i, j, [k, m]), (1, 4, 2, 3), True),
    "Relation.from_statements": (
        N, lambda i, j, k, m: Relation.from_statements(N, [(i, j, (k, m))]), (1, 4, 2, 3), True),
    "marginal": (N, lambda k: ci.marginal(R, k), (1,), True),
    "conditional": (N, lambda k: ci.conditional(R, k), (1,), True),
    "permute_relation": (N, lambda *p: ci.permute_relation(R, p), (2, 1, 4, 3), True),
    "almost_principal_minor": (
        N, lambda i, j, k, m: matrices.almost_principal_minor(A, i, j, [k, m]), (1, 4, 2, 3), True),
    "marginal_matrix": (N, lambda k: matrices.marginal_matrix(A, k), (1,), True),
    "conditional_matrix": (N, lambda k: matrices.conditional_matrix(A, k), (1,), True),
    "hadamard_shrink": (N, lambda i: geometry.hadamard_shrink(A, i, 0.5), (1,), True),
    "symbolic_apm": (N, lambda k, l: ideal.symbolic_apm(H, k, l), (1, 3), True),
    "symbolic_principal_minor": (N, lambda u, v: ideal.symbolic_principal_minor(H, [u, v]),
                                 (1, 3), True),
}
NOT_VERTICES = (0, "n + 1", 1.5, 1.0, "2", None, "a repeat")
REFUSAL = r"^vertex |^vertices |does not fit ground set|is not a permutation"


@pytest.mark.parametrize("name", sorted(CALLS))
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_every_layer_refuses_the_same_non_vertices(name, data):
    """One slot gets a non-vertex; a repeat copies another slot, where slots are distinct."""
    n, call, valid, distinct = CALLS[name]
    slot = data.draw(st.integers(0, len(valid) - 1), label="slot")
    repeats = distinct and len(valid) > 1
    bad = data.draw(st.sampled_from(NOT_VERTICES[:None if repeats else -1]), label="value")
    args = list(valid)
    if bad == "a repeat":
        args[slot] = data.draw(st.sampled_from([v for s, v in enumerate(valid) if s != slot]),
                               label="repeated vertex")
    else:
        args[slot] = n + 1 if bad == "n + 1" else bad
    with pytest.raises(ValueError, match=REFUSAL):  # a TypeError or an answer fails
        call(*args)


def _same(x, y) -> bool:
    """Equal values of the same type and repr; arrays equal entry by entry and dtype."""
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and np.array_equal(x, y)
    return type(x) is type(y) and x == y and repr(x) == repr(y)


@pytest.mark.parametrize("name", sorted(CALLS))
@given(data=st.data())
@settings(max_examples=20, deadline=None, derandomize=True)
def test_numpy_integers_and_bools_are_the_ints_they_equal(name, data):
    _, call, valid, _ = CALLS[name]
    slot = data.draw(st.integers(0, len(valid) - 1), label="slot")
    kinds = [np.int64, np.int32, np.uint8] + ([bool] if valid[slot] == 1 else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    args = list(valid)
    args[slot] = kind(valid[slot])
    assert _same(call(*args), call(*valid))


def test_a_bool_vertex_prints_as_its_int():
    assert repr(ci.make_statement(True, 2)) == "(1 2 |)"
    assert repr(ci.make_statement(2, np.int64(1), [np.uint8(3)])) == "(1 2 | 3)"


@given(token=st.sampled_from(["0-2", "2-5", "1.5-2", "None-2", "x-2", "2-2", "1-2-3", "2"]))
@settings(deadline=None, derandomize=True)
def test_the_pair_parser_refuses_the_same_non_vertices(token):
    with pytest.raises(ValueError, match=re.escape(f"line 2: malformed edge token '{token}'")):
        graphs.parse_pair_file(f"n 4\nG 1-3 {token}\nH 1-2\n")


def test_has_edge_answers_false_for_a_vertex_and_itself():
    assert not any(H.has_edge(v, v) for v in range(1, N + 1))
    assert not H.has_edge(np.int64(1), True)


# name: (minor, the same one-vertex object in its layer)
LAST_VERTEX = {
    "marginal_minor": (graphs.marginal_minor, graphs.empty_graph(1)),
    "conditional_minor": (graphs.conditional_minor, graphs.empty_graph(1)),
    "marginal": (ci.marginal, ci.full_relation(1)),
    "conditional": (ci.conditional, ci.full_relation(1)),
    "marginal_matrix": (matrices.marginal_matrix, np.eye(1)),
    "conditional_matrix": (matrices.conditional_matrix, np.eye(1)),
    "marginal_matrix exact": (matrices.marginal_matrix, matrices.rational_matrix([[2]])),
    "conditional_matrix exact": (matrices.conditional_matrix, matrices.rational_matrix([[2]])),
}


@pytest.mark.parametrize("name", sorted(LAST_VERTEX))
def test_every_layer_refuses_to_delete_the_last_vertex(name):
    minor, one = LAST_VERTEX[name]
    with pytest.raises(ValueError, match="^cannot delete the last vertex$"):
        minor(one, 1)
    with pytest.raises(ValueError, match=r"^vertex 2 out of range 1\.\.1$"):
        minor(one, 2)
