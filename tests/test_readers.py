"""The relation, pair and matrix readers against the per-item path they replace.

Each reader looks the canonical spelling of a line up in a small per-n table and
sends every other line through the checked per-statement, per-edge or per-entry
path.  Here each reader must give what a test-local reference built only on that
path gives, answer or refusal text, on canonical and other spellings, and the
canonical output of each writer must never reach the per-item path.
"""

import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doublemarkov import ci, graphs, matrices
from doublemarkov.ci import Relation
from doublemarkov.graphs import Graph

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


def outcome(read, text):
    """What a reader does with text: ("ok", answer) or ("refused", message)."""
    try:
        return "ok", read(text)
    except ValueError as e:
        return "refused", str(e)


def reference_relation(text):
    """_parse_statement and Relation.from_statements, one line at a time."""
    head, *body = graphs._numbered_lines(text, "relation")
    n = graphs._parse_n_line(*head)
    statements = []
    for no, line in body:
        try:
            statements.append(ci._parse_statement(line))
            Relation.from_statements(n, statements[-1:])
        except ValueError as e:
            raise ValueError(f"line {no}: {e}") from None
    return Relation.from_statements(n, statements)


def reference_pair(text):
    """Graph.from_edges over each edge line, one token at a time."""
    head, *body = graphs._numbered_lines(text, "pair")
    n = graphs._parse_n_line(*head)
    out = []
    for no, line in body:
        edges = []
        for tok in line.split()[1:]:
            try:
                edges.append(tuple(map(int, tok.split("-"))))
                Graph.from_edges(n, edges[-1:])
            except ValueError:
                raise ValueError(f"line {no}: malformed edge token {tok!r}") from None
        out.append(Graph.from_edges(n, edges))
    return tuple(out)


def reference_matrix(text):
    """float or _exact_entry on every entry, one row at a time after its length check."""
    (_, head), *body = graphs._numbered_lines(text, "matrix")
    n = int(head)
    entry = matrices._exact_entry if "/" in text else float
    vals = []
    for no, line in body:
        row = line.split()
        if len(row) != n:
            raise ValueError(f"line {no}: expected {n} entries, found {len(row)}")
        try:
            vals.append([entry(tok) for tok in row])
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"line {no}: bad matrix entry: {e}") from None
    return matrices.as_sym(np.array(vals))


BLANKS = st.sampled_from([" ", " ", " ", "  ", "\t", " \t "])
AROUND_BAR = st.sampled_from(["", " ", " ", "  ", "\t"])


def vertex_text(draw, v):
    """v in its canonical spelling most of the time, else with a sign or leading zeros."""
    return draw(st.sampled_from([str(v)] * 4 + [f"+{v}", f"0{v}", f"00{v}"]))


@st.composite
def statement_line(draw, n):
    """(i j | K) on 1..n, canonical or respelt (i > j, K unsorted, extra blanks and tabs,
    '+3', '03'); about one in ten may repeat a vertex or name one outside 1..n, and about
    one in five is cut short or runs on."""
    if n >= 2 and draw(st.integers(0, 9)):
        i, j, *K = draw(st.permutations(range(1, n + 1)))[:draw(st.integers(2, n))]
    else:
        i, j, *K = draw(st.lists(st.integers(0, n + 1), min_size=2, max_size=n + 1))
    if draw(st.booleans()):
        line = f"({min(i, j)} {max(i, j)} |{''.join(f' {k}' for k in sorted(K))})"
    else:
        ks = "".join(draw(BLANKS) + vertex_text(draw, k) for k in K)
        line = (f"({draw(AROUND_BAR)}{vertex_text(draw, i)}{draw(BLANKS)}"
                f"{vertex_text(draw, j)}{draw(AROUND_BAR)}|{ks}{draw(AROUND_BAR)})")
    if not draw(st.integers(0, 4)):
        line = draw(st.sampled_from([line[:-1], line + ")", line + " 1", line.replace("|", ""),
                                     line.replace("|", "||"), line[1:]]))
    return line


@st.composite
def relation_texts(draw):
    n = draw(st.integers(1, 8))
    return "\n".join([f"n {n}", *draw(st.lists(statement_line(n), max_size=12))]) + "\n"


@SETTINGS
@given(text=relation_texts())
@example(text="n 4\n(1 2 | 3 4\n")
@example(text="n 4\n(1 2 |\n(1 3 | 2))\n")
@example(text="n 4\n(1 2 | 3 4) 1\n")
def test_parse_relation_equals_the_per_statement_path(text):
    assert outcome(ci.parse_relation, text) == outcome(reference_relation, text)


@st.composite
def edge_token(draw, n):
    """'i-j' on 1..n, canonical or as '2-1', '+1-2', '01-3'; about one in fifteen is not
    an edge of 1..n."""
    if n < 2 or not draw(st.integers(0, 14)):
        return draw(st.sampled_from(["1-1", f"1-{n + 1}", f"0-{n}", "1-2-3", "1", "a-b"]))
    i, j = draw(st.permutations(range(1, n + 1)))[:2]
    return f"{vertex_text(draw, i)}-{vertex_text(draw, j)}"


@st.composite
def pair_texts(draw):
    n = draw(st.integers(1, 8))
    lines = [" ".join([tag, *draw(st.lists(edge_token(n), max_size=n * (n - 1) // 2 + 1))])
             for tag in "GH"]
    return "\n".join([f"n {n}", *lines]) + "\n"


@SETTINGS
@given(text=pair_texts())
@example(text="n 3\nG 1-2 2-1 1-2\nH 1-3 3-3\n")
def test_parse_pair_file_equals_the_per_edge_path(text):
    assert outcome(graphs.parse_pair_file, text) == outcome(reference_pair, text)


EXACT_TOKENS = st.one_of(
    st.builds("{}/{}".format, st.integers(-10**20, 10**20), st.integers(1, 10**6)),
    st.builds(str, st.integers(-10**6, 10**6)),
    st.sampled_from(["+3/4", "03/8", "-0/5", "7/1", "0.25", "-1.5e-3", "2E+2", "1/0", "1/x",
                     "3/-4", "1e5000", "x"]))
FLOAT_TOKENS = st.one_of(
    st.builds(repr, st.floats(-1e6, 1e6, allow_nan=False)),
    st.builds(str, st.integers(-10**6, 10**6)),
    st.sampled_from(["1e-3", "-2.5E+2", "+4", "1_000", "0x1p3", "inf", "one"]))


@st.composite
def matrix_texts(draw):
    """A symmetric n x n token matrix, n = 1..6, in an exact file (p/q, -p/q, ints,
    decimals, exponents) or a float file; about one in ten has a row too long."""
    n = draw(st.integers(1, 6))
    exact = draw(st.booleans())
    cells = [[""] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            cells[i][j] = cells[j][i] = draw(EXACT_TOKENS if exact else FLOAT_TOKENS)
    if exact and not any("/" in tok for row in cells for tok in row):
        cells[0][0] = "1/1"
    if not draw(st.integers(0, 9)):
        cells[draw(st.integers(0, n - 1))].append("1")
    return "\n".join([str(n), *map(" ".join, cells)]) + "\n"


def _exactly(result):
    """A reader's outcome with a float array as its bytes and an exact one as its entries
    and their types."""
    status, a = result
    if status == "refused":
        return result
    if a.dtype == object:
        return status, a.shape, a.tolist(), {type(x) for x in a.flat}
    return status, a.dtype.str, a.shape, a.tobytes()


@SETTINGS
@given(text=matrix_texts())
@example(text="2\n1 2/3\n2/3 4 5\n")
@example(text="2\n1/2 x\n0 1 2\n")
@example(text="2\n1/3 -0/7\n-0/7 " + "9" * 4400 + "/1\n")
def test_parse_matrix_equals_the_per_entry_path(text):
    assert _exactly(outcome(matrices.parse_matrix, text)) == \
        _exactly(outcome(reference_matrix, text))


@pytest.mark.parametrize("n", range(2, 9))
def test_canonical_text_never_reaches_the_per_item_path(n):
    rng = np.random.default_rng(n)
    g, h = (Graph.from_edges(n, [e for e in graphs.pairs_lex(n) if rng.random() < 0.5])
            for _ in "GH")
    m = ci.num_statements(n)
    r = Relation(n, int.from_bytes(rng.bytes(m // 8 + 1), "little") & ((1 << m) - 1))
    q = [[Fraction(int(rng.integers(-99, 100)), int(rng.integers(1, 99))) for _ in range(n)]
         for _ in range(n)]
    a = matrices.rational_matrix([[q[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
    texts = ci.relation_to_text(r, "list"), graphs.format_pair_file(g, h), matrices.format_matrix(a)
    graphs._edge_tokens(n)  # the table is built through _edge_ends, once per n
    with mock.patch.object(ci, "_parse_statement", wraps=ci._parse_statement) as statement, \
            mock.patch.object(ci, "_checked_index", wraps=ci._checked_index) as index, \
            mock.patch.object(Graph, "from_edges", wraps=Graph.from_edges) as from_edges, \
            mock.patch.object(graphs, "_edge_ends", wraps=graphs._edge_ends) as edge, \
            mock.patch.object(matrices, "_exact_entry", wraps=matrices._exact_entry) as entry:
        got = (ci.parse_relation(texts[0]), graphs.parse_pair_file(texts[1]),
               matrices.parse_matrix(texts[2]))
    assert [spy.call_count for spy in (statement, index, from_edges, edge, entry)] == [0] * 5
    assert got[:2] == (r, (g, h))
    assert got[2].dtype == object and got[2].tolist() == a.tolist()


@pytest.mark.parametrize("n", range(2, 9))
def test_scalar_index_of_a_statement_line_is_index_of(n):
    """Every statement, its pair written either way round, reads as the index _index_of
    gives, on the table path alone."""
    masks, i0, j0 = (col.tolist() for col in ci._statement_entries(n))
    with mock.patch.object(ci, "_checked_index", wraps=ci._checked_index) as index:
        for mask, i, j in zip(masks, i0, j0):
            ks = "".join(f" {v + 1}" for v in range(n) if mask >> v & 1)
            for a, b in ((i, j), (j, i)):
                got = ci.parse_relation(f"n {n}\n({a + 1} {b + 1} |{ks})\n")
                assert got.bits == 1 << int(ci._index_of(n, a, b, mask))
    assert index.call_count == 0


def test_relation_tables_stay_quadratic_in_n():
    ci._statement_tokens.cache_clear()
    tracemalloc.start()
    try:
        r = ci.parse_relation("n 16\n(1 2 | 3 4)\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r == Relation.from_statements(16, [(1, 2, (3, 4))])
    assert peak < 1 << 20  # a table per subset of 1..16 would take megabytes
