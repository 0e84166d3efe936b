import functools
import itertools
import json
import os
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublemarkov import Graph, complete_graph, empty_graph
from doublemarkov import ci, cli
from doublemarkov.ci import (
    Relation,
    canonical_form,
    check_axioms,
    closure,
    conditional,
    direct_sum_relations,
    double_markov_relation,
    dual,
    full_relation,
    is_upward_stable,
    make_statement,
    marginal,
    num_statements,
    parse_relation,
    permute_relation,
    recognize_markov,
    relation_of_graph,
    relation_to_text,
    statement_at,
    statement_index,
)
from doublemarkov.graphs import (
    conditional_minor,
    direct_sum,
    graph_from_edge_mask,
    marginal_minor,
    pairs_lex,
    parse_pair_file,
    separates,
)

from conftest import oracle_all_paths, oracle_separates, random_graph

P3 = Graph.from_edges(3, [(1, 2), (2, 3)])

# paper example pairs
VNR_G = Graph.from_edges(4, [(1, 2), (2, 3)])          # very-not-realizable
VNR_H = Graph.from_edges(4, [(1, 3)])
NS_G = Graph.from_edges(4, [(1, 3), (2, 3)])           # non-smooth, G = H
INC_G = Graph.from_edges(4, [(1, 2), (1, 4), (2, 3), (3, 4)])  # incomplete, 4-cycles
INC_H = Graph.from_edges(4, [(1, 3), (1, 4), (2, 3), (2, 4)])


def relations_strategy(n=4, max_size=10):
    m = num_statements(n)
    return st.lists(st.integers(0, m - 1), max_size=max_size).map(
        lambda idxs: Relation(n, sum({1 << s for s in idxs})))


def test_statement_normalization():
    s = make_statement(3, 1, {2})
    assert (s.i, s.j, s.K) == (1, 3, frozenset({2}))
    with pytest.raises(ValueError):
        make_statement(1, 1)
    with pytest.raises(ValueError):
        make_statement(1, 2, {1})


def test_statements_have_no_order():
    # an order by K's set inclusion would leave (1 2 | 3) and (1 2 | 4) incomparable,
    # and sorted() would return them in input order
    a, b = make_statement(1, 2, {3}), make_statement(1, 2, {4})
    for x, y in [(a, b), (b, a), (a, a)]:
        with pytest.raises(TypeError):
            x < y
        with pytest.raises(TypeError):
            x >= y
    with pytest.raises(TypeError):
        sorted([b, a])
    assert a == make_statement(2, 1, [3]) and a != b
    assert hash(a) == hash(make_statement(2, 1, [3])) and len({a, b, a}) == 2


def test_statement_index_roundtrip():
    for n in (2, 3, 5):
        for idx in range(num_statements(n)):
            assert statement_index(n, statement_at(n, idx)) == idx
    for n, idx, msg in ((3, -1, "0 <= index < 6"), (3, 6, "0 <= index < 6"),
                        (2, 5, "0 <= index < 1"), (1, 0, "0 <= index < 0"),
                        (0, 0, r"1\.\.16"), (17, 0, r"1\.\.16")):
        with pytest.raises(ValueError, match=msg):
            statement_at(n, idx)


def test_statement_index_follows_the_frozen_formula():
    # index(i, j, K) = pair_rank(i, j) * 2^(n-2) + sum of 2^t over the t-th
    # vertex other than i and j lying in K
    for n in (2, 3, 4, 6):
        expected = []
        for i, j in pairs_lex(n):
            rest = [v for v in range(1, n + 1) if v not in (i, j)]
            for kbits in range(1 << (n - 2)):
                expected.append(make_statement(
                    i, j, [rest[t] for t in range(n - 2) if kbits >> t & 1]))
        assert ci.all_statements(n) == tuple(expected)
        assert [statement_index(n, s) for s in expected] == list(range(len(expected)))
        assert [statement_at(n, t) for t in range(len(expected))] == expected


def test_statement_texts_are_the_reprs_in_index_order():
    for n in range(2, 8):
        assert ci._statement_texts(n) == tuple(map(repr, ci.all_statements(n)))


@pytest.mark.parametrize("n", [0, 17])
def test_statement_tables_refuse_sizes_out_of_range_before_building(monkeypatch, n):
    def no_table(*args):
        raise AssertionError("a statement table was built")

    monkeypatch.setattr(ci, "_statement_entries", no_table)
    for build in (ci.all_statements, lambda n: ci.statement_at(n, 0),
                  lambda n: Relation.from_statements(n, [])):
        with pytest.raises(ValueError, match=r"vertex count must be in 1\.\.16"):
            build(n)
    with pytest.raises(ValueError, match=r"vertex count must be in 1\.\.16"):
        ci.relation_of_graph(Graph(n, (0,) * n))  # the graph refuses before relation_of_graph runs


def test_scalar_index_of_stays_a_python_int():
    for a, b in ((0, 3), (3, 0)):
        idx = ci._index_of(5, a, b, 0b00110)
        assert type(idx) is int
        assert idx == statement_index(5, make_statement(1, 4, [2, 3]))


@pytest.mark.parametrize("i, j, K", [
    (1, 1, ()), (1, 2, (2,)), (1, 2, (1, 3)), (0, 2, ()), (1, 5, ()), (1, 2, (5,)), (1, 2, (0,)),
])
def test_statement_index_refuses_statements_off_the_ground_set(i, j, K):
    stmt = ci.Statement(i, j, frozenset(K))
    with pytest.raises(ValueError, match=r"does not fit ground set 1\.\.4"):
        statement_index(4, stmt)
    with pytest.raises(ValueError, match="does not fit"):
        Relation.from_statements(4, [stmt])
    with pytest.raises(ValueError, match="does not fit"):
        Relation.from_statements(4, [(i, j, K)])
    with pytest.raises(ValueError, match="does not fit"):
        full_relation(4).has(i, j, K)


def test_a_repeated_conditioning_vertex_is_refused():
    r = full_relation(4)
    assert r.has(1, 2, [3]) and r.has(2, 1, (3,)) and (make_statement(1, 2, [3]) in r)
    for check in (lambda: r.has(1, 2, [3, 3]),
                  lambda: Relation.from_statements(4, [(1, 2, (3, 3))])):
        with pytest.raises(ValueError, match=r"statement \(1 2 \| 3 3\) does not fit"):
            check()
    with pytest.raises(ValueError, match=r"statement \(1 2 \| 3 4 4\) does not fit"):
        r.has(1, 2, iter([4, 3, 4]))  # a one-pass K is read once


@pytest.mark.parametrize("i, j, K, text", [
    (1, 2, [3, 3], r"\(1 2 \| 3 3\)"), (0, 1, (), r"\(0 1 \|\)"), (1, 20, (), r"\(1 20 \|\)")])
def test_make_statement_refuses_what_the_relation_parser_refuses(i, j, K, text):
    with pytest.raises(ValueError, match=rf"statement {text} does not fit ground set 1\.\.16"):
        make_statement(i, j, K)
    line = f"({i} {j} |{''.join(f' {k}' for k in K)})"
    with pytest.raises(ValueError, match=rf"line 2: statement {text} does not fit"):
        parse_relation(f"n 16\n{line}\n")


def test_make_statement_reads_its_conditioning_set_once():
    assert make_statement(2, 1, iter([4, 3])) == ci.Statement(1, 2, frozenset({3, 4}))
    assert make_statement(16, 15, range(1, 14)).K == frozenset(range(1, 14))


def test_full_relation_counts():
    assert len(full_relation(3)) == 6
    assert len(full_relation(4)) == 24
    assert full_relation(2).statements() == (make_statement(1, 2),)
    assert repr(full_relation(2)) == "Relation(n=2, {(1 2 |)})"
    assert repr(full_relation(4)) == (
        "Relation(n=4, {(1 2 |), (1 2 | 3), (1 2 | 4), (1 2 | 3 4), (1 3 |), (1 3 | 2), "
        "(1 3 | 4), (1 3 | 2 4), ... 24 total})")
    with pytest.raises(ValueError, match="outside the statement range"):
        Relation(3, 1 << 6)


def test_relation_set_operations():
    full, sep = full_relation(3), relation_of_graph(P3)
    assert full & sep == sep and (full - sep) | sep == full
    assert (full - sep).statements() == tuple(s for s in full.statements() if s not in sep)
    assert sep - full == Relation(3, 0)
    for op in (lambda a, b: a | b, lambda a, b: a & b, lambda a, b: a - b):
        with pytest.raises(ValueError, match="different ground sets"):
            op(full, full_relation(4))


def test_relation_of_graph_examples():
    assert relation_of_graph(P3).statements() == (make_statement(1, 3, {2}),)
    for n in (2, 3, 4):
        assert len(relation_of_graph(complete_graph(n))) == 0
    assert relation_of_graph(empty_graph(3)) == full_relation(3)


def test_relation_of_graph_against_separation_oracle():
    for n in range(1, 6):  # every graph, the one- and two-vertex ones included
        statements = [statement_at(n, idx) for idx in range(num_statements(n))]
        for mask in range(1 << len(pairs_lex(n))):
            g = graph_from_edge_mask(n, mask)
            held = ci._to_bool_array(relation_of_graph(g)).tolist()
            assert held == [oracle_separates(g.edges, s.i, s.j, s.K) for s in statements]


def test_relation_of_graph_against_separates_up_to_n12():
    rng = np.random.default_rng(59)
    for n in range(6, 13):
        path_graph = Graph.from_edges(n, [(v, v + 1) for v in range(1, n)])
        for g in (path_graph, random_graph(n, rng, 0.2), random_graph(n, rng, 0.4)):
            held = ci._to_bool_array(relation_of_graph(g)).tolist()
            assert held == [separates(g, s.i, s.j, s.K) for s in ci.all_statements(n)]


def test_relation_of_graph_against_separation_oracle_large():
    rng = np.random.default_rng(61)
    for n in (6, 7, 8):
        path_graph = Graph.from_edges(n, [(v, v + 1) for v in range(1, n)])
        for g in (path_graph, random_graph(n, rng, 0.25), random_graph(n, rng, 0.5)):
            paths = {(i, j): oracle_all_paths(g.edges, i, j) for i, j in pairs_lex(n)}
            want = Relation.from_statements(n, [
                s for s in ci.all_statements(n)
                if all(set(path[1:-1]) & s.K for path in paths[s.i, s.j])])
            assert relation_of_graph(g) == want


def test_dual_examples():
    r = Relation.from_statements(3, [(1, 3, {2})])
    assert dual(r).statements() == (make_statement(1, 3),)
    assert dual(full_relation(4)) == full_relation(4)


@given(relations_strategy())
def test_dual_involution(r):
    assert dual(dual(r)) == r


def test_marginal_conditional_examples():
    for n in (3, 4, 5):
        for k in range(1, n + 1):
            assert marginal(full_relation(n), k) == full_relation(n - 1)
            assert conditional(Relation(n, 0), k) == Relation(n - 1, 0)
    # smooth-non-minor: marginalizing vertex 4 lands on the non-smooth pair
    g = Graph.from_edges(4, [(1, 4), (2, 3), (3, 4)])
    h = Graph.from_edges(4, [(1, 3), (2, 3)])
    got = marginal(double_markov_relation(g, h), 4)
    want = double_markov_relation(
        Graph.from_edges(3, [(1, 3), (2, 3)]), Graph.from_edges(3, [(1, 3), (2, 3)]))
    assert got == want


@given(relations_strategy(), st.integers(1, 4))
def test_marg_dual_exchange(r, k):
    assert marginal(dual(r), k) == dual(conditional(r, k))


def test_direct_sum_relations():
    r1 = Relation(1, 0)
    assert direct_sum_relations(r1, r1).statements() == (make_statement(1, 2),)
    assert direct_sum_relations(full_relation(2), full_relation(3)) == full_relation(5)


def test_direct_sum_matches_graph_side():
    rng = np.random.default_rng(23)
    for _ in range(15):
        g = random_graph(int(rng.integers(2, 4)), rng)
        h = random_graph(int(rng.integers(2, 4)), rng)
        lhs = direct_sum_relations(relation_of_graph(g), relation_of_graph(h))
        assert lhs == relation_of_graph(direct_sum(g, h))


def test_direct_sum_commutes_with_dual_and_minors():
    rng = np.random.default_rng(53)
    for _ in range(15):
        n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        r = Relation(n, int(rng.integers(0, 1 << num_statements(n))))
        r2 = Relation(m, int(rng.integers(0, 1 << num_statements(m))))
        s = direct_sum_relations(r, r2)
        assert dual(s) == direct_sum_relations(dual(r), dual(r2))
        k = int(rng.integers(1, n + 1))
        assert marginal(s, k) == direct_sum_relations(marginal(r, k), r2)
        assert conditional(s, k) == direct_sum_relations(conditional(r, k), r2)
        k2 = int(rng.integers(1, m + 1))
        assert marginal(s, n + k2) == direct_sum_relations(r, marginal(r2, k2))
        assert conditional(s, n + k2) == direct_sum_relations(r, conditional(r2, k2))


def test_double_markov_examples():
    # non-smooth pair: everything except the two shared-edge pair blocks
    r = double_markov_relation(NS_G, NS_G)
    missing = {s for s in full_relation(4).statements() if (s.i, s.j) in [(1, 3), (2, 3)]}
    assert set(r.statements()) == set(full_relation(4).statements()) - missing
    # incomplete pair: exactly the four antecedents of the inference rule
    r = double_markov_relation(INC_G, INC_H)
    assert set(r.statements()) == {
        make_statement(1, 3, {2, 4}), make_statement(2, 4, {1, 3}),
        make_statement(1, 2), make_statement(3, 4)}
    for n in (3, 4):
        assert len(double_markov_relation(complete_graph(n), complete_graph(n))) == 0


def test_double_markov_dual_swap():
    rng = np.random.default_rng(29)
    for n in (3, 4):
        for _ in range(10):
            g, h = random_graph(n, rng), random_graph(n, rng)
            assert dual(double_markov_relation(g, h)) == double_markov_relation(h, g)


def test_minor_exchange_identities_exhaustive_n3():
    for gm in range(8):
        for hm in range(8):
            g = graph_from_edge_mask(3, gm)
            h = graph_from_edge_mask(3, hm)
            r = double_markov_relation(g, h)
            for k in (1, 2, 3):
                assert marginal(r, k) == double_markov_relation(
                    conditional_minor(g, k), marginal_minor(h, k))
                assert conditional(r, k) == double_markov_relation(
                    marginal_minor(g, k), conditional_minor(h, k))


def test_check_axioms_very_not_realizable():
    r = double_markov_relation(VNR_G, VNR_H)
    hits = [v for v in check_axioms(r)
            if v.rule == "semigraphoid"
            and make_statement(1, 2) in v.premises
            and make_statement(1, 3, {2}) in v.premises
            and make_statement(1, 3) in v.missing]
    assert hits


def test_check_axioms_weak_transitivity_nonsmooth():
    r = double_markov_relation(NS_G, NS_G)
    hits = [v for v in check_axioms(r)
            if v.rule == "weak-transitivity"
            and set(v.premises) == {make_statement(1, 2), make_statement(1, 2, {3})}
            and set(v.missing) == {make_statement(1, 3), make_statement(2, 3)}]
    assert hits
    assert repr(hits[0]) == "[weak-transitivity] (1 2 |) & (1 2 | 3) without (1 3 |) | (2 3 |)"
    a, b = make_statement(1, 2), make_statement(1, 3)
    horn = ci.AxiomViolation("composition", (a, b), (make_statement(1, 2, [3]),
                                                      make_statement(1, 3, [2])))
    assert repr(horn) == "[composition] (1 2 |) & (1 3 |) without (1 2 | 3) & (1 3 | 2)"


def test_check_axioms_full_relation_clean():
    for n in (3, 4, 5):
        assert check_axioms(full_relation(n)) == []


RULE_ORDER = ("semigraphoid", "intersection", "composition", "weak-transitivity")


def _double_markov_relations(n):
    """Every distinct <G,H> on n vertices."""
    graph_rels = [relation_of_graph(graph_from_edge_mask(n, mask))
                  for mask in range(1 << len(pairs_lex(n)))]
    dual_bits = {dual(r).bits for r in graph_rels}
    return [Relation(n, bits) for bits in sorted({r.bits | d for r in graph_rels
                                                  for d in dual_bits})]


@pytest.fixture(scope="module")
def relations_to_check():
    """Every double Markov relation for n <= 4, then seeded random ones for n = 5..7."""
    rels = [r for n in (2, 3, 4) for r in _double_markov_relations(n)]
    rng = np.random.default_rng(43)
    for n in (5, 6, 7):
        m = num_statements(n)
        for density in (0.05, 0.3, 0.7, 0.95):
            hits = rng.random(m) < density
            rels.append(Relation(n, sum(1 << int(t) for t in np.flatnonzero(hits))))
        for _ in range(3):
            rels.append(double_markov_relation(random_graph(n, rng), random_graph(n, rng)))
    return rels


def _oracle_instances(n):
    """The rules as written, over ordered triples (i, j, k) and contexts K avoiding them:

        semigraphoid       (ij|K) & (ik|jK)  =>  (ik|K) & (ij|kK)
        intersection       (ij|kK) & (ik|jK) =>  (ij|K) & (ik|K)
        composition        (ij|K) & (ik|K)   =>  (ij|kK) & (ik|jK)
        weak-transitivity  (ij|K) & (ij|kK)  =>  (ik|K) or (jk|K)

    Returns the statements involved and one row (rule, premises, conclusions,
    premise positions, conclusion positions) into that list per instance, an
    instance being a rule with its premise set and its conclusion set.
    """
    rows = {}
    for i, j, k in itertools.permutations(range(1, n + 1), 3):
        rest = [v for v in range(1, n + 1) if v not in (i, j, k)]
        for size in range(len(rest) + 1):
            for K in map(frozenset, itertools.combinations(rest, size)):
                s = make_statement
                ij, ik, jk = s(i, j, K), s(i, k, K), s(j, k, K)
                ij_k, ik_j = s(i, j, K | {k}), s(i, k, K | {j})
                for row in [("semigraphoid", (ij, ik_j), (ik, ij_k)),
                            ("intersection", (ij_k, ik_j), (ij, ik)),
                            ("composition", (ij, ik), (ij_k, ik_j)),
                            ("weak-transitivity", (ij, ij_k), (ik, jk))]:
                    rows.setdefault((row[0], frozenset(row[1]), frozenset(row[2])), row)
    stmts = list({st: None for _, prem, concl in rows.values() for st in prem + concl})
    pos = {st: t for t, st in enumerate(stmts)}
    return stmts, [(rule, prem, concl, [pos[st] for st in prem], [pos[st] for st in concl])
                   for rule, prem, concl in rows.values()]


def _oracle_violations(r, instances):
    stmts, rows = instances
    held = [r.has(st.i, st.j, st.K) for st in stmts]
    out = []
    for rule, prem, concl, (p0, p1), (c0, c1) in rows:
        done = held[c0] or held[c1] if rule == "weak-transitivity" else held[c0] and held[c1]
        if held[p0] and held[p1] and not done:
            out.append((rule, prem, tuple(st for st, c in zip(concl, (c0, c1)) if not held[c])))
    return out


def _comparable(violations):
    """Violations as a sorted list of (rule, premise set, missing set): an instance
    listed twice, in any order of its statements, shows up twice."""
    def key(stmts):
        return tuple(sorted((st.i, st.j, tuple(sorted(st.K))) for st in stmts))
    return sorted((rule, key(prem), key(missing)) for rule, prem, missing in violations)


def test_check_axioms_matches_rules_as_written(relations_to_check):
    instances = {}
    for r in relations_to_check:
        if r.n not in instances:
            instances[r.n] = _oracle_instances(r.n)
        got = [(v.rule, v.premises, v.missing) for v in check_axioms(r)]
        assert _comparable(got) == _comparable(_oracle_violations(r, instances[r.n]))


def test_is_gaussoid_agrees_with_check_axioms(relations_to_check):
    verdicts = {ci.is_gaussoid(r) for r in relations_to_check if r.n >= 4}
    assert verdicts == {True, False}
    for r in relations_to_check:
        assert ci.is_gaussoid(r) == (check_axioms(r) == [])


def _check_violation_order(r, violations):
    """Rule order, then ascending premise indices, then conclusion indices, each tuple
    ascending, and no instance twice: within one rule the premises name the instance."""
    keys = [(RULE_ORDER.index(v.rule), [statement_index(r.n, st) for st in v.premises],
             [statement_index(r.n, st) for st in v.missing]) for v in violations]
    assert keys == sorted(keys)
    assert all(p == sorted(p) and m == sorted(m) for _, p, m in keys)
    assert len({(rule, tuple(p)) for rule, p, _ in keys}) == len(keys)


def test_check_axioms_order_on_star_path():
    data = os.path.join(os.path.dirname(__file__), "data")
    g, h = parse_pair_file(Path(data, "star_path.pair").read_text())
    r = double_markov_relation(g, h)
    violations = check_axioms(r)
    assert len(violations) > 1
    _check_violation_order(r, violations)
    golden = json.loads(Path(data, "star_path_report.json").read_text())
    assert [{"rule": v.rule, "premises": list(map(repr, v.premises)),
             "missing": list(map(repr, v.missing))}
            for v in violations] == golden["ci"]["violations"]


def test_check_axioms_order_on_every_checked_relation(relations_to_check):
    for r in relations_to_check:
        _check_violation_order(r, check_axioms(r))


def _statement_views(stmts):
    """Everything a Statement's cached text must leave unchanged."""
    return ([hash(st) for st in stmts], [a == b for a in stmts for b in stmts],
            [pickle.loads(pickle.dumps(st)) for st in stmts])


def test_statement_text_is_computed_once_and_changes_nothing_else():
    def fresh():
        ci.all_statements.cache_clear()
        return [make_statement(3, 1, {2}), make_statement(2, 4)] + list(ci.all_statements(4))

    cold, warm = fresh(), fresh()
    texts = [repr(st) for st in warm]
    assert _statement_views(cold) == _statement_views(warm)
    assert [repr(st) for st in cold] == texts
    assert [repr(st) for st in _statement_views(cold)[2]] == texts
    assert [repr(st) for st in _statement_views(warm)[2]] == texts
    assert _statement_views(cold) == _statement_views(warm)
    assert texts[:3] == ["(1 3 | 2)", "(2 4 |)", "(1 2 |)"]
    wide = ci.Statement(3, 16, frozenset({10, 1, 2, 15}))
    assert repr(wide) == "(3 16 | 1 2 10 15)" and repr(wide) is repr(wide)


def test_graph_relations_are_upward_stable_gaussoids():
    # the fact that lets recognize_markov decide by comparing <G> with r alone
    for n in (1, 2, 3, 4, 5):
        for mask in range(1 << len(pairs_lex(n))):
            r = relation_of_graph(graph_from_edge_mask(n, mask))
            assert is_upward_stable(r)
            assert check_axioms(r) == []
    rng = np.random.default_rng(31)
    for n in (5, 6):
        for _ in range(25):
            r = relation_of_graph(random_graph(n, rng))
            assert is_upward_stable(r)
            assert check_axioms(r) == []


def test_closure_very_not_realizable_is_full():
    r = double_markov_relation(VNR_G, VNR_H)
    assert closure(r, ["semigraphoid"]) == full_relation(4)


def test_closure_incomplete_rule17():
    r = double_markov_relation(INC_G, INC_H)
    closed = closure(r, ci.HORN_RULES)
    assert closed.has(1, 3)
    assert "rule17" in ci._rules_fired(r, closed, ci.HORN_RULES)
    # regression: the closure reaches the known completion exactly
    completion = Relation.from_statements(4, [
        s for s in full_relation(4).statements() if (s.i, s.j) not in [(1, 4), (2, 3)]])
    assert closed == completion


def test_closure_without_rule17_misses_consequence():
    r = double_markov_relation(INC_G, INC_H)
    closed = closure(r, ["semigraphoid", "intersection", "composition"])
    assert not closed.has(1, 3)


@given(relations_strategy(), st.sampled_from([
    ("semigraphoid",), ("semigraphoid", "intersection"),
    ("semigraphoid", "intersection", "composition", "rule17")]))
@settings(deadline=None)
def test_closure_is_extensive_monotone_idempotent(r, rules):
    c = closure(r, rules)
    assert r.issubset(c)
    assert closure(c, rules) == c
    bigger = Relation(r.n, r.bits | c.bits)
    assert c.issubset(closure(bigger, rules))


def _index(n, i, j, K=()):
    return statement_index(n, make_statement(i, j, K))


def _reference_axiom_instances(n):
    """Per rule, the set of its instances built one statement at a time, each instance
    a (premise index set, conclusion index set)."""
    rules = {"semigraphoid": set(), "intersection": set(), "composition": set(),
             "weak-transitivity": set()}
    verts = range(1, n + 1)
    for i, j, k in itertools.permutations(verts, 3):
        rest = [v for v in verts if v not in (i, j, k)]
        for kb in range(1 << len(rest)):
            K = frozenset(rest[t] for t in range(len(rest)) if kb >> t & 1)
            jK, kK = K | {j}, K | {k}
            rules["semigraphoid"].add((
                frozenset({_index(n, i, j, K), _index(n, i, k, jK)}),
                frozenset({_index(n, i, k, K), _index(n, i, j, kK)})))
            rules["intersection"].add((
                frozenset({_index(n, i, j, kK), _index(n, i, k, jK)}),
                frozenset({_index(n, i, j, K), _index(n, i, k, K)})))
            rules["composition"].add((
                frozenset({_index(n, i, j, K), _index(n, i, k, K)}),
                frozenset({_index(n, i, j, kK), _index(n, i, k, jK)})))
            rules["weak-transitivity"].add((
                frozenset({_index(n, i, j, K), _index(n, i, j, kK)}),
                frozenset({_index(n, i, k, K), _index(n, j, k, K)})))
    return rules


def _reference_rule17_instances(n):
    out = set()
    for a, b, c, d in itertools.permutations(range(1, n + 1), 4):
        prem = (_index(n, a, b), _index(n, c, d),
                _index(n, a, c, (b, d)), _index(n, b, d, (a, c)))
        out.add((frozenset(prem), frozenset({_index(n, a, c)})))
    return out


def _instances(table, premises):
    """The columns of a table with one instance per column, the first ``premises`` rows
    its premises and the rest its conclusions, as (premise set, conclusion set)."""
    return [(frozenset(col[:premises]), frozenset(col[premises:])) for col in table.T.tolist()]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_instance_tables_match_per_statement_builders(n):
    for table, premises, reference in [
            (ci._weak_transitivity_table(n), 2, _reference_axiom_instances(n)["weak-transitivity"]),
            (ci._rule17_table(n), 4, _reference_rule17_instances(n))]:
        got = _instances(table, premises)
        assert len(got) == len(reference) and set(got) == reference


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_instance_tables_have_one_row_per_instance(n):
    """Semigraphoid has one instance per ordered triple and context, two per square (its
    rows); intersection, composition (one column of a square each) and weak transitivity
    are symmetric in two vertices, so each has half as many.  Rule 17 has one instance per
    ordered quadruple and its swap (a b)(c d)."""
    triples = n * (n - 1) * (n - 2) * (1 << (n - 3))
    assert ci._quadruple_table(n).shape == (2, 2, triples // 2)
    assert ci._weak_transitivity_table(n).shape == (4, triples // 2)
    assert ci._rule17_table(n).shape == (5, n * (n - 1) * (n - 2) * (n - 3) // 2)
    for table, premises in [(ci._weak_transitivity_table(n), 2), (ci._rule17_table(n), 4)]:
        keys = _instances(table, premises)
        assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("n", range(3, 11))
def test_triple_tables_match_index_of_per_entry(n):
    """The square and weak-transitivity tables, formed from each triple's pair ranks and the
    context rank, equal _index_of on every entry: the triples in permutation order, each with
    its contexts K avoiding it in ascending order."""
    def entries(a, b):
        """i, j, k and K per triple t with t[a] < t[b] and context K avoiding t."""
        t = ci._ordered_tuples(n, 3)
        t = t[:, t[a] < t[b]]
        K = np.arange(1 << n)
        rows, cols = np.nonzero(K & ((1 << t[0]) | (1 << t[1]) | (1 << t[2]))[:, None] == 0)
        return (*t[:, rows], K[cols])

    i, j, k, K = entries(1, 2)
    square = [ci._index_of(n, i, j, K), ci._index_of(n, i, k, K | 1 << j),
              ci._index_of(n, i, k, K), ci._index_of(n, i, j, K | 1 << k)]
    assert np.array_equal(ci._quadruple_table(n), np.reshape(square, (2, 2, -1)))
    i, j, k, K = entries(0, 1)
    weak = [ci._index_of(n, i, j, K), ci._index_of(n, i, j, K | 1 << k),
            ci._index_of(n, i, k, K), ci._index_of(n, j, k, K)]
    assert np.array_equal(ci._weak_transitivity_table(n), weak)


@functools.lru_cache(maxsize=None)
def _reference_horn_tables(n):
    """Per Horn rule, in HORN_RULES order: its instance rows from the per-statement builders."""
    if n < 3:
        return {}
    axioms = _reference_axiom_instances(n)
    return {rule: _reference_rule17_instances(n) if rule == "rule17" else axioms[rule]
            for rule in ci.HORN_RULES}


def _closure_by_full_passes(r, rules):
    """Closure by definition: full passes over every instance until nothing changes."""
    tables = _reference_horn_tables(r.n)
    masks = [(sum(1 << p for p in prem), sum(1 << c for c in concl))
             for rule in rules for prem, concl in tables.get(rule, ())]
    bits = r.bits
    changed = True
    while changed:
        changed = False
        for pmask, cmask in masks:
            if bits & pmask == pmask and bits & cmask != cmask:
                bits |= cmask
                changed = True
    return Relation(r.n, bits)


def _rules_fired_by_instances(r, closed, rules):
    """The "rules fired" definition, one instance at a time: some instance has all its
    premises in the closure and some conclusion outside r."""
    def fires(prem, concl):
        return all(closed.bits >> p & 1 for p in prem) and any(not r.bits >> c & 1 for c in concl)
    return [rule for rule, rows in _reference_horn_tables(r.n).items()
            if rule in rules and any(fires(*row) for row in rows)]


ALL_RULE_SETS = [rules for k in range(1, len(ci.HORN_RULES) + 1)
                 for rules in itertools.combinations(ci.HORN_RULES, k)]


@st.composite
def sparse_relations(draw, sizes=(3, 4, 5, 6)):
    n = draw(st.sampled_from(sizes))
    m = num_statements(n)
    idxs = draw(st.lists(st.integers(0, m - 1), max_size=m // 4))
    return Relation(n, sum({1 << s for s in idxs}))


def _check_closure_report(r, rules):
    """closure and the "rules fired" line against their oracles, in both rule orders."""
    expected = _closure_by_full_passes(r, rules)
    fired = _rules_fired_by_instances(r, expected, rules)
    for order in (rules, rules[::-1]):
        assert closure(r, order) == expected
        assert ci._rules_fired(r, expected, order) == fired


@pytest.mark.parametrize("rules", ALL_RULE_SETS, ids=",".join)
@given(r=sparse_relations())
@settings(deadline=None, max_examples=40)
def test_closure_report_matches_full_passes(rules, r):
    _check_closure_report(r, rules)


def test_closure_report_matches_full_passes_on_paper_examples():
    for g, h in [(VNR_G, VNR_H), (INC_G, INC_H), (NS_G, NS_G)]:
        r = double_markov_relation(g, h)
        for rules in ALL_RULE_SETS:
            _check_closure_report(r, rules)


@given(r=sparse_relations(), rules=st.sampled_from(ALL_RULE_SETS), data=st.data())
@settings(deadline=None, max_examples=60)
def test_rules_fired_ignores_rule_order_and_vertex_labels(r, rules, data):
    fired = ci._rules_fired(r, closure(r, rules), rules)
    assert ci._rules_fired(r, closure(r, rules[::-1]), rules[::-1]) == fired
    perm = data.draw(st.permutations(range(1, r.n + 1)))
    moved = permute_relation(r, perm)
    assert closure(moved, rules) == permute_relation(closure(r, rules), perm)
    assert ci._rules_fired(moved, closure(moved, rules), rules) == fired


@pytest.mark.parametrize("n", [7, 8])
def test_closure_matches_full_passes_on_subsets_of_separation_relations(n):
    """Inputs built like the benchmark's: a 30% subset of <G> for a random G."""
    rng = np.random.default_rng(20210 + n)
    for _ in range(3):
        held = ci._to_bool_array(relation_of_graph(random_graph(n, rng)))
        r = ci._from_bool_array(n, held & (rng.random(held.size) < 0.3))
        for rules in [("semigraphoid", "intersection", "composition"), ci.HORN_RULES,
                      ("composition", "semigraphoid")]:
            closed = closure(r, rules)
            assert closed == _closure_by_full_passes(r, rules)
            assert len(closed) > len(r)


def test_repeated_rule_names_count_once():
    r = double_markov_relation(INC_G, INC_H)
    twice = ("semigraphoid", "composition", "semigraphoid")
    closed = closure(r, twice)
    assert closed == closure(r, twice[:2]) == _closure_by_full_passes(r, twice[:2])
    fired = ci._rules_fired(r, closed, twice)
    assert fired == ci._rules_fired(r, closed, twice[:2])
    assert fired == _rules_fired_by_instances(r, closed, twice[:2])


RULE_TABLES = (ci._quadruple_table, ci._weak_transitivity_table, ci._rule17_table)


def _clear_rule_tables():
    for table in RULE_TABLES:
        table.cache_clear()


def test_unknown_rule_names_are_refused_before_any_table():
    r = double_markov_relation(INC_G, INC_H)
    _clear_rule_tables()
    for rules in [("semigraphoid", "weak-transitivity"), ("rule17", "Composition"), "rule17"]:
        with pytest.raises(ValueError, match="unknown Horn rule"):
            closure(r, rules)
        with pytest.raises(ValueError, match="unknown Horn rule"):
            ci._rules_fired(r, r, rules)
    for table in RULE_TABLES:
        assert table.cache_info().currsize == 0


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_quadruple_squares_carry_each_horn_instance_once(n):
    """A square's premise line and its parallel line, over all squares and the lines of
    each rule, are that rule's instances, each once."""
    square = ci._quadruple_table(n)
    assert square.shape == (2, 2, n * (n - 1) * (n - 2) // 2 * (1 << (n - 3)))
    reference = _reference_horn_tables(n)
    for rule, lines in ci._SQUARE_LINES.items():
        rows = [(tuple(sorted(p)), tuple(sorted(c)))
                for axis, x in lines
                for p, c in zip(np.take(square, x, axis).T.tolist(),
                                np.take(square, 1 - x, axis).T.tolist())]
        assert len(rows) == len(set(rows)) == len(reference[rule])
        assert {(frozenset(p), frozenset(c)) for p, c in rows} == reference[rule]


def _table_owners_relations():
    relations = [double_markov_relation(g, h) for g, h in [(VNR_G, VNR_H), (INC_G, INC_H)]]
    rng = np.random.default_rng(6)
    held = ci._to_bool_array(relation_of_graph(random_graph(6, rng)))
    return relations + [ci._from_bool_array(6, held & (rng.random(held.size) < 0.3))]


def test_closure_and_rules_fired_build_no_gaussoid_table():
    """closure and the rules-fired line read the quadruple and rule-17 tables only: they
    build no weak-transitivity table."""
    relations = _table_owners_relations()
    _clear_rule_tables()
    for r in relations:
        for rules in ALL_RULE_SETS:
            ci._rules_fired(r, closure(r, rules), rules)
    assert ci._weak_transitivity_table.cache_info().currsize == 0
    assert ci._quadruple_table.cache_info().currsize == ci._rule17_table.cache_info().currsize == 2


def test_gaussoid_check_and_report_build_no_rule17_table():
    """check_axioms, is_gaussoid and the report read the quadruple and weak-transitivity
    tables only: they build no rule-17 table."""
    relations = _table_owners_relations()
    _clear_rule_tables()
    for r in relations:
        assert ci.is_gaussoid(r) == (check_axioms(r) == [])
    cli.build_report(VNR_G, VNR_H)
    assert ci._rule17_table.cache_info().currsize == 0
    assert (ci._quadruple_table.cache_info().currsize
            == ci._weak_transitivity_table.cache_info().currsize == 2)


def test_closure_fixpoint_on_full():
    assert closure(full_relation(4), ci.HORN_RULES) == full_relation(4)
    # below n = 3 no rule has an instance
    for r in (full_relation(1), full_relation(2), Relation(2, 0)):
        assert closure(r, ci.HORN_RULES) == r and ci._rules_fired(r, r, ci.HORN_RULES) == []
        assert check_axioms(r) == [] and ci.is_gaussoid(r)


def test_recognize_markov():
    r = Relation.from_statements(3, [(1, 3, {2})])
    assert recognize_markov(r) == P3
    for n in (3, 4):
        assert recognize_markov(full_relation(n)) == empty_graph(n)
    assert recognize_markov(double_markov_relation(INC_G, INC_H)) is None
    # upward-stable but not a separation relation: reconstruction must fail
    not_markov = Relation.from_statements(3, [(1, 2), (1, 2, {3})])
    assert recognize_markov(not_markov) is None


def test_recognize_markov_roundtrip():
    rng = np.random.default_rng(37)
    for _ in range(20):
        g = random_graph(int(rng.integers(2, 6)), rng)
        assert recognize_markov(relation_of_graph(g)) == g


# -- the row-layout transforms against the statement-by-statement gathers they replaced

def _dual_by_gather(r):
    n = r.n
    masks, i0, j0 = ci._statement_entries(n)
    return ci._from_bool_array(
        n, ci._to_bool_array(r)[ci._index_of(n, i0, j0, ~masks & ((1 << n) - 1))])


def _upward_stable_by_gather(r):
    n = r.n
    held = ci._to_bool_array(r)
    masks, i0, j0 = ci._statement_entries(n)
    for k in range(n):
        grow = held & (masks >> k & 1 == 0) & (i0 != k) & (j0 != k)
        if not held[ci._index_of(n, i0[grow], j0[grow], masks[grow] | 1 << k)].all():
            return False
    return True


def _direct_sum_by_gather(r, r2):
    n, m = r.n, r2.n
    masks, i0, j0 = ci._statement_entries(n + m)
    hits = (i0 < n) & (j0 >= n)
    first, second = j0 < n, i0 >= n
    hits[first] = ci._to_bool_array(r)[
        ci._index_of(n, i0[first], j0[first], masks[first] & ((1 << n) - 1))]
    hits[second] = ci._to_bool_array(r2)[
        ci._index_of(m, i0[second] - n, j0[second] - n, masks[second] >> n)]
    return ci._from_bool_array(n + m, hits)


def _recognize_markov_with_prechecks(r):
    if not _upward_stable_by_gather(r) or not ci.is_gaussoid(r):
        return None
    everything = frozenset(range(1, r.n + 1))
    g = Graph.from_edges(r.n, [(i, j) for i, j in pairs_lex(r.n)
                               if not r.has(i, j, everything - {i, j})])
    return g if relation_of_graph(g) == r else None


def _random_relation(n, density, rng):
    return ci._from_bool_array(n, rng.random(num_statements(n)) < density)


@functools.cache
def _layout_inputs():
    """Every relation with n <= 3, seeded ones with n = 4..8 at three densities, and
    every graphical and double Markov relation with n = 4."""
    rels = {Relation(n, bits) for n in (1, 2, 3) for bits in range(1 << num_statements(n))}
    rng = np.random.default_rng(41)
    rels |= {_random_relation(n, density, rng)
             for n in range(4, 9) for density in (0.1, 0.5, 0.9) for _ in range(4)}
    gs = [graph_from_edge_mask(4, mask) for mask in range(1 << 6)]
    rels |= {relation_of_graph(g) for g in gs}
    rels |= {double_markov_relation(g, h) for g in gs for h in gs}
    return sorted(rels, key=lambda r: (r.n, r.bits))


def test_dual_reverses_rows_like_the_gather():
    for r in _layout_inputs():
        assert dual(r) == _dual_by_gather(r)


def test_upward_stability_reads_rows_like_the_gather():
    verdicts = [is_upward_stable(r) for r in _layout_inputs()]
    assert verdicts == [_upward_stable_by_gather(r) for r in _layout_inputs()]
    assert any(verdicts) and not all(verdicts)


def test_recognize_markov_needs_no_prechecks():
    graphs_found = [recognize_markov(r) for r in _layout_inputs()]
    assert graphs_found == [_recognize_markov_with_prechecks(r) for r in _layout_inputs()]
    assert sum(g is not None for g in graphs_found) >= 64 + 8 + 2 + 1  # every graph, n <= 4


def test_direct_sum_tiles_rows_like_the_gather():
    rng = np.random.default_rng(43)
    for r in _layout_inputs():
        if r.n > 3:
            continue
        for m in (1, 2, 3, 4):  # one-vertex blocks on either side, r.n = 1 among them
            r2 = _random_relation(m, 0.5, rng)
            assert direct_sum_relations(r, r2) == _direct_sum_by_gather(r, r2)
            assert direct_sum_relations(r2, r) == _direct_sum_by_gather(r2, r)


def test_canonical_form_invariance():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(3, 6))
        bits = int(rng.integers(0, 1 << 20)) % (1 << num_statements(n))
        r = Relation(n, bits)
        perm = tuple(int(v) for v in rng.permutation(np.arange(1, n + 1)))
        assert canonical_form(r) == canonical_form(permute_relation(r, perm))
        assert canonical_form(r) == canonical_form(dual(r))


def _reference_permute(n, stmt, perm):
    return _index(n, perm[stmt.i - 1], perm[stmt.j - 1], [perm[v - 1] for v in stmt.K])


@functools.lru_cache(maxsize=None)
def _reference_relabellings(n):
    """Row p < n!: the index of each statement's image under the p-th permutation of 1..n in
    lexicographic order; row n! + p: the same for the statement's dual (ij|N \\ ijK).
    Built one statement at a time."""
    stmts, ground = ci.all_statements(n), frozenset(range(1, n + 1))
    perms = list(itertools.permutations(range(1, n + 1)))
    images = np.array([[_reference_permute(n, s, perm) for s in stmts] for perm in perms],
                      dtype=np.intp).reshape(len(perms), len(stmts))
    duals = [_index(n, s.i, s.j, ground - s.K - {s.i, s.j}) for s in stmts]
    return np.concatenate([images, images[:, duals]])


def _relabelled_views(r):
    """Row v: the membership of every statement in the v-th relabelling of r or of its dual."""
    table = _reference_relabellings(r.n)
    held = [statement_index(r.n, s) for s in r.statements()]
    views = np.zeros((len(table), num_statements(r.n)), dtype=bool)
    views[np.arange(len(table))[:, None], table[:, held]] = True
    return views


def _packed(views):
    """Each row as a bitset, statement t at bit 7 - t % 8 of byte t // 8."""
    return [row.tobytes() for row in np.packbits(views, axis=1)]


def _oracle_canonical_form(r):
    """The least packed relabelling of r and of its dual: the full scan."""
    return min(_packed(_relabelled_views(r)))


def _oracle_row_end_form(r):
    """The least packed relabelling of r and of its dual among those whose row ends have the
    least pair code G* << C(n,2) | H*: ij is an edge of G* iff (ij|N \\ ij) is absent, and of
    H* iff (ij|) is absent, read off each relabelling."""
    pairs = pairs_lex(r.n)
    ground = set(range(1, r.n + 1))
    last, first = zip(*[(_index(r.n, i, j, ground - {i, j}), _index(r.n, i, j))
                        for i, j in pairs]) if pairs else ((), ())
    views = _relabelled_views(r)
    weights = 1 << np.arange(len(pairs))
    codes = (~views[:, list(last)]) @ weights << len(pairs) | (~views[:, list(first)]) @ weights
    return min(_packed(views[codes == codes.min()]))


def test_canonical_form_matches_the_definition():
    cases = [Relation(n, bits) for n in (1, 2, 3) for bits in range(1 << num_statements(n))]
    rng = np.random.default_rng(71)
    for n in (4, 5) * 4:
        m = num_statements(n)
        density = rng.uniform(0.1, 0.9)
        cases.append(Relation(n, sum(1 << t for t in range(m) if rng.random() < density)))
    # the empty and complete relations tie the two views on every relabelling
    cases += [Relation(n, bits) for n in (4, 5, 6) for bits in (0, (1 << num_statements(n)) - 1)]
    for r in cases:
        assert canonical_form(r) == _oracle_row_end_form(r)
    for n in (5, 6, 7):  # every relabelling and dual of those is itself
        m = num_statements(n)
        assert canonical_form(Relation(n, 0)) == bytes(-(-m // 8))
        assert canonical_form(Relation(n, (1 << m) - 1)) == np.packbits(np.ones(m, bool)).tobytes()


def _classes(forms):
    """The partition of range(len(forms)) into runs of equal forms."""
    by_form = {}
    for k, form in enumerate(forms):
        by_form.setdefault(form, []).append(k)
    return sorted(by_form.values())


def _with_relabellings_and_duals(rels, rng):
    out = []
    for r in rels:
        perm = tuple(int(v) for v in rng.permutation(np.arange(1, r.n + 1)))
        out += [r, permute_relation(r, perm), dual(r), dual(permute_relation(r, perm))]
    return out


def test_canonical_form_has_the_classes_of_the_full_scan():
    """Equal forms exactly when the full-scan forms are equal, and each form is a packed
    relabelling of r or of dual(r): on every double Markov relation at n <= 4, seeded
    samples at n = 5 and 6, and random relations with relabellings and duals at n <= 6."""
    rng = np.random.default_rng(73)
    groups = []
    for n in (1, 2, 3, 4):
        masks = range(1 << n * (n - 1) // 2)
        groups.append(list({double_markov_relation(graph_from_edge_mask(n, gm),
                                                   graph_from_edge_mask(n, hm))
                            for gm in masks for hm in masks}))
    for n, count in ((5, 200), (6, 30)):
        masks = rng.integers(0, 1 << n * (n - 1) // 2, size=(count, 2)).tolist()
        groups.append(_with_relabellings_and_duals(
            [double_markov_relation(graph_from_edge_mask(n, gm), graph_from_edge_mask(n, hm))
             for gm, hm in masks], rng))
    for n in (2, 3, 4, 5, 6):
        groups.append(_with_relabellings_and_duals([_random_relation(n, rng.uniform(0.1, 0.9), rng)
                                                    for _ in range(10)], rng))
    for rels in groups:
        forms = [canonical_form(r) for r in rels]
        assert _classes(forms) == _classes(map(_oracle_canonical_form, rels))
        for r, form in zip(rels, forms):
            assert form in _packed(_relabelled_views(r))


def test_canonical_form_classes_at_7_vertices():
    """At n = 7 the full scan's per-statement table would have 5040 x 672 entries, so the
    classes are certified instead: relabelling and dual keep the number of statements, so
    relations of distinct sizes are inequivalent, and each relation with its relabelling and
    its duals is one class."""
    rng = np.random.default_rng(79)
    rels = []
    while len(rels) < 6:
        r = _random_relation(7, rng.uniform(0.1, 0.9), rng)
        if all(len(r) != len(x) for x in rels):
            rels.append(r)
    forms = [canonical_form(r) for r in _with_relabellings_and_duals(rels, rng)]
    assert _classes(forms) == [[4 * k, 4 * k + 1, 4 * k + 2, 4 * k + 3] for k in range(6)]
    assert all(len(form) == -(-num_statements(7) // 8) for form in forms)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_pair_images_match_per_statement_builder(n):
    """Row p: the pair rank of the image of each pair under permutation p, which is the
    index of the image of (ij|) under the per-statement builder, shifted right by n - 2."""
    perms, images = ci._pair_images(n)
    heads = [make_statement(i, j) for i, j in pairs_lex(n)]
    everyone = list(itertools.permutations(range(1, n + 1)))
    assert (perms + 1).tolist() == [list(p) for p in everyone]
    assert images.tolist() == [[_reference_permute(n, s, perm) >> (n - 2) for s in heads]
                               for perm in everyone]


def test_permute_relation_matches_per_statement_builder():
    rng = np.random.default_rng(67)
    for n in (2, 3, 4, 5, 6, 7):
        for _ in range(5):
            r = Relation(n, int.from_bytes(rng.bytes(num_statements(n) // 8 + 1), "little")
                         % (1 << num_statements(n)))
            perm = tuple(int(v) for v in rng.permutation(np.arange(1, n + 1)))
            want = sum(1 << _reference_permute(n, s, perm) for s in r.statements())
            assert permute_relation(r, perm) == Relation(n, want)
    with pytest.raises(ValueError, match="not a permutation"):
        permute_relation(full_relation(3), (1, 1, 2))


def test_canonical_form_size_limit():
    with pytest.raises(ValueError):
        canonical_form(Relation(8, 0))


def test_serialization_roundtrip():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        bits = int(rng.integers(0, 1 << 20)) % (1 << num_statements(n))
        r = Relation(n, bits)
        assert parse_relation(relation_to_text(r, "hex")) == r
        assert parse_relation(relation_to_text(r, "list")) == r
    with pytest.raises(ValueError, match="unknown serialization form 'csv'"):
        relation_to_text(full_relation(3), "csv")


def test_parse_relation_errors():
    with pytest.raises(ValueError):
        parse_relation("")
    with pytest.raises(ValueError, match="line 2"):
        parse_relation("n 4\n(1 1 |)\n")


@pytest.mark.parametrize("text, msg", [
    ("\n\nn x\n(1 2 |)\n", "line 3: vertex count 'x' is not an integer"),
    ("n 4\n\n\n(1 2 | x)\n", "line 4: malformed statement '(1 2 | x)'"),
    ("n 4\n(1 3 | 2)\n\n[1 2]\n", "line 4: expected '(i j | k ...)', got '[1 2]'"),
    ("n 4\n(1 3 | 2)\n\n(1 2 | 9)\n", "line 4: statement (1 2 | 9) does not fit ground set 1..4"),
    ("n 4\n \n(1 2 | 3 3)\n", "line 3: statement (1 2 | 3 3) does not fit ground set 1..4"),
    ("n 4\n\n(2 2 |)\n", "line 3: statement (2 2 |) does not fit ground set 1..4"),
    ("n 4\n\n\t\nhex ff\n", "line 4: 24 statements need 3 hex bytes, got 1"),
    ("n 3\n\nhex fc 00\n", "line 3: expected 'hex <digits>', got 'hex fc 00'"),
    ("n 3\nhex fc\n\n(1 2 |)\n", "line 4: unexpected text after the hex line: '(1 2 |)'"),
])
def test_parse_relation_refusals_name_the_line_in_the_file(text, msg):
    with pytest.raises(ValueError) as exc:
        parse_relation(text)
    assert str(exc.value) == msg


@pytest.mark.parametrize("text,msg", [
    ("n 4\nhex ff\n", "need 3 hex bytes, got 1"),         # 8 bits for 24 statements
    ("n 4\nhex ffffffff\n", "need 3 hex bytes, got 4"),
    ("n 3\nhex 01\n", "padding bits"),                     # bit 7 of 6 statements
    ("n 3\nhex fc\n(1 2 |)\n", "after the hex line"),
    ("n 3\nhex zz\n", "malformed hex"),
    ("n 3\nhex fc 00\n", "expected 'hex <digits>'"),
])
def test_parse_relation_rejects_malformed_hex(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_relation(text)


def test_parse_relation_refuses_a_large_n_before_building_bits():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="vertex count"):
            parse_relation("n 30\n(1 3 | 2)\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # unchecked, 1 << index would build a 2^28-bit int first


def test_parse_relation_hex_uses_every_bit():
    assert parse_relation("n 3\nhex fc\n") == full_relation(3)
    assert parse_relation("n 4\nhex 000001\n") == Relation(4, 1 << 23)
    assert parse_relation("n 1\nhex\n") == Relation(1, 0)


def test_maximal_statements_mark_non_edges():
    # for connected G, H the pair is recoverable from the relation
    from doublemarkov.graphs import connected_graph_masks
    for n in (3, 4):
        rest_all = set(range(1, n + 1))
        for gm in connected_graph_masks(n):
            for hm in connected_graph_masks(n):
                g = graph_from_edge_mask(n, gm)
                h = graph_from_edge_mask(n, hm)
                r = double_markov_relation(g, h)
                g_edges = tuple(
                    (i, j) for i, j in pairs_lex(n)
                    if not r.has(i, j, rest_all - {i, j}))
                h_edges = tuple((i, j) for i, j in pairs_lex(n) if not r.has(i, j))
                assert g_edges == g.edges and h_edges == h.edges
