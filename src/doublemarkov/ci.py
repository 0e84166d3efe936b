"""Conditional independence statements and relations.

A statement (ij|K) pairs two distinct vertices i < j with a conditioning
set K disjoint from them.  A relation on ground set 1..n is a set of such
statements, stored as a bitset of width C(n,2) * 2^(n-2).

Frozen statement index (file format compatibility depends on it):

    index(i, j, K) = pair_rank(i, j) * 2^(n-2) + subset_rank(K)

where pair_rank is the lexicographic rank of {i, j} among all pairs and
subset_rank encodes K inside the increasing enumeration m_0 < m_1 < ... of
the vertices other than i and j as sum of 2^t over m_t in K.  So each pair
owns one row of 2^(n-2) subset ranks, and a relation is a C(n,2) x 2^(n-2)
bool array in pairs_lex order (_pair_rows).  Transforms that only move K
read the rows: the rank of N \\ ijK is the complement of that of K, so dual
reverses every row, and the last column holds the maximal statements.  The
table _statement_entries (index -> K bitmask, i - 1, j - 1) and its
vectorized inverse _index_of are the only other encoding of the index; the
separation relations, minors, rule tables and permutation maps are gathers
over them, and _deposit alone turns a subset rank into a context.  The squares
of _quadruple_table carry every semigraphoid, intersection and composition
instance for the closure and the gaussoid check alike; weak transitivity and
rule 17 have one table each.

The hex serialization packs bit s of the relation into bit 7 - (s mod 8) of
byte s // 8, so the hex digit stream reads left to right in statement
order.  Canonical forms compare these byte strings, which is the same as
comparing the bitsets lexicographically statement 0 first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .graphs import (MAX_VERTICES, Graph, _bits, _check_vertex_count, _deleted_vertex,
                     _numbered_lines, _parse_n_line, _same_ground_set, _vertices, pairs_lex)

HORN_RULES = ("semigraphoid", "intersection", "composition", "rule17")


@dataclass(frozen=True)
class Statement:
    """CI statement (ij|K) with 1-based i < j and K a frozenset disjoint from ij."""

    i: int
    j: int
    K: frozenset[int]

    def __repr__(self):
        return self._text

    @cached_property
    def _text(self) -> str:
        return f"({self.i} {self.j} |{''.join(f' {k}' for k in sorted(self.K))})"


def make_statement(i: int, j: int, K=()) -> Statement:
    """(ij|K), i and j in either order; i, j and K as written must be distinct in 1..16."""
    (i, j, *K), _ = _vertices(MAX_VERTICES, (i, j, *K), statement=True)
    return Statement(min(i, j), max(i, j), frozenset(K))


def num_statements(n: int) -> int:
    if n < 2:
        return 0
    return n * (n - 1) // 2 * (1 << (n - 2))


@lru_cache(maxsize=None)
def _statement_entries(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per statement index (ij|K): the bitmask of K over 0-based vertices, i-1 and j-1.

    Bit t of the index's subset rank is the t-th vertex other than i and j,
    so the mask is the rank with zero bits inserted at i-1 and j-1.
    """
    pairs = np.array(pairs_lex(n), dtype=np.intp).reshape(-1, 2) - 1
    i0, j0 = pairs[:, :1], pairs[:, 1:]
    masks = _deposit(np.arange(1 << max(n - 2, 0), dtype=np.intp)[None, :], i0, j0)
    return _read_only(masks.ravel(), np.broadcast_to(i0, masks.shape).ravel(),
                      np.broadcast_to(j0, masks.shape).ravel())


def _deposit(rank, *holes):
    """rank with a zero bit inserted at each position of ``holes``, taken in ascending order,
    so that the bits of rank fill the other positions in turn (ints or broadcasting arrays)."""
    for hole in holes:
        rank = rank & ((1 << hole) - 1) | rank >> hole << (hole + 1)
    return rank


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Freeze arrays that a cache hands to every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _index_of(n: int, a, b, kmask):
    """Index of (ab|K), vectorized: the inverse of _statement_entries.

    a and b are distinct 0-based vertices in either order and kmask is the
    bitmask of K; the bits of a and b are squeezed out of it to give the
    subset rank.  Plain arithmetic keeps a scalar call in Python ints.
    """
    lo = a + (b - a) * (b < a)
    hi = a + b - lo
    pair = lo * (2 * n - lo - 1) // 2 + hi - lo - 1
    rank = (kmask & ((1 << lo) - 1)
            | (kmask >> (lo + 1) & ((1 << (hi - lo - 1)) - 1)) << lo
            | kmask >> (hi + 1) << (hi - 1))
    return pair << max(n - 2, 0) | rank


def _statement(kmask: int, i0: int, j0: int) -> Statement:
    return Statement(i0 + 1, j0 + 1, frozenset(v + 1 for v in _bits(kmask)))


def _checked_index(n: int, i: int, j: int, K=()) -> int:
    """Index of (ij|K) after the ground-set check; _index_of drops i and j from the mask."""
    ints, mask = _vertices(n, (i, j, *K), statement=True)
    return int(_index_of(n, ints[0] - 1, ints[1] - 1, mask))


def statement_index(n: int, stmt: Statement) -> int:
    return _checked_index(n, stmt.i, stmt.j, stmt.K)


def statement_at(n: int, index: int) -> Statement:
    _check_vertex_count(n)
    if not 0 <= index < num_statements(n):
        raise ValueError(f"need 0 <= index < {num_statements(n)} for n = {n}, got {index}")
    return _statement(*(int(col[index]) for col in _statement_entries(n)))


@lru_cache(maxsize=8)
def all_statements(n: int) -> tuple[Statement, ...]:
    _check_vertex_count(n)
    return tuple(map(_statement, *(col.tolist() for col in _statement_entries(n))))


@lru_cache(maxsize=8)
def _statement_texts(n: int) -> tuple[str, ...]:
    """The repr of every statement in index order, with no Statement built."""
    contexts = ["".join(f" {v + 1}" for v in _bits(m)) for m in range(1 << n)]
    return tuple(f"({i + 1} {j + 1} |{contexts[m]})"
                 for m, i, j in zip(*(col.tolist() for col in _statement_entries(n))))


@dataclass(frozen=True)
class Relation:
    """Set of CI statements on ground set 1..n, as a bitset in the frozen order."""

    n: int
    bits: int

    def __post_init__(self):
        _check_vertex_count(self.n)
        if self.bits < 0 or self.bits >> num_statements(self.n):
            raise ValueError("bitset has bits outside the statement range")

    @staticmethod
    def from_statements(n: int, statements) -> "Relation":
        _check_vertex_count(n)  # before 1 << index allocates 2^(n-2)-bit ints
        bits = 0
        for s in statements:
            bits |= 1 << (statement_index(n, s) if isinstance(s, Statement)
                          else _checked_index(n, *s))
        return Relation(n, bits)

    def statements(self) -> tuple[Statement, ...]:
        held = np.flatnonzero(_to_bool_array(self))
        return tuple(map(_statement, *(col[held].tolist() for col in _statement_entries(self.n))))

    def has(self, i: int, j: int, K=()) -> bool:
        return bool(self.bits >> _checked_index(self.n, i, j, K) & 1)

    def __contains__(self, stmt: Statement) -> bool:
        return bool(self.bits >> statement_index(self.n, stmt) & 1)

    def __len__(self):
        return self.bits.bit_count()

    def _binop(self, other: "Relation", op) -> "Relation":
        if self.n != other.n:
            raise ValueError("relations live on different ground sets")
        return Relation(self.n, op(self.bits, other.bits))

    def __or__(self, other):
        return self._binop(other, lambda a, b: a | b)

    def __and__(self, other):
        return self._binop(other, lambda a, b: a & b)

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a & ~b)

    def issubset(self, other: "Relation") -> bool:
        return self.n == other.n and self.bits & ~other.bits == 0

    def __repr__(self):
        shown = ", ".join(map(repr, self.statements()[:8]))
        more = "" if len(self) <= 8 else f", ... {len(self)} total"
        return f"Relation(n={self.n}, {{{shown}{more}}})"


def full_relation(n: int) -> Relation:
    _check_vertex_count(n)  # before 1 << num_statements(n) allocates
    return Relation(n, (1 << num_statements(n)) - 1)


def _to_bool_array(r: Relation) -> np.ndarray:
    """Membership of every statement, in index order."""
    m = num_statements(r.n)
    raw = np.frombuffer(r.bits.to_bytes(-(-m // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=m, bitorder="little").view(bool)


def _from_bool_array(n: int, hits: np.ndarray) -> Relation:
    packed = np.packbits(hits, bitorder="little").tobytes()
    return Relation(n, int.from_bytes(packed, "little"))


def relation_of_graph(g: Graph) -> Relation:
    """Separation relation <G>: all (ij|K) with K separating i and j in g.

    conn[u][v] is a 2^n-bit int whose bit K says that u and v are joined in g
    minus the vertices of bitmask K.  An edge uv starts as the K that avoid u
    and v; one Floyd-Warshall pass then lets each vertex w join u to v for
    the K that join u to w and w to v, which avoid w.  conn stays symmetric.
    """
    n = g.n
    full = (1 << (1 << n)) - 1
    avoid = [full // ((1 << (1 << v)) + 1) for v in range(n)]  # bit K set when v is not in K
    conn = [[avoid[u] & avoid[v] if m >> v & 1 else 0 for v in range(n)]
            for u, m in enumerate(g.adj)]
    for w, cw in enumerate(conn):
        via = [(v, c) for v, c in enumerate(cw) if c and v != w]
        for a, (u, cuw) in enumerate(via):
            cu = conn[u]
            for v, cwv in via[a + 1:]:
                cu[v] = conn[v][u] = cu[v] | cuw & cwv
    nbytes = -(-(1 << n) // 8)
    raw = b"".join(conn[i - 1][j - 1].to_bytes(nbytes, "little") for i, j in pairs_lex(n))
    joined = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    masks = _statement_entries(n)[0].reshape(-1, 1 << max(n - 2, 0))
    return _from_bool_array(n, ~np.take_along_axis(joined.reshape(-1, 8 * nbytes).view(bool),
                                                   masks, 1).ravel())


def _pair_rows(r: Relation) -> np.ndarray:
    """Membership as one row of 2^(n-2) subset ranks per pair, rows in pairs_lex order."""
    return _to_bool_array(r).reshape(-1, 1 << max(r.n - 2, 0))


def dual(r: Relation) -> Relation:
    """Complement every conditioning set: (ij|K) -> (ij|N \\ ijK), a reversal of every row."""
    return _from_bool_array(r.n, _pair_rows(r)[:, ::-1])


def _minor(r: Relation, k: int, given: bool) -> Relation:
    """(ij|K) on 1..n-1 such that r holds it with labels from k up shifted
    back up by one, and with k added to K when ``given``."""
    k0 = _deleted_vertex(r.n, k) - 1
    masks, i0, j0 = _statement_entries(r.n - 1)
    lifted = _deposit(masks, k0) | given << k0
    up = [v + (v >= k0) for v in (i0, j0)]
    return _from_bool_array(r.n - 1, _to_bool_array(r)[_index_of(r.n, *up, lifted)])


def marginal(r: Relation, k: int) -> Relation:
    """Keep statements avoiding k entirely; result lives on 1..n-1."""
    return _minor(r, k, given=False)


def conditional(r: Relation, k: int) -> Relation:
    """Keep (ij|K) with (ij|kK) in r; result lives on 1..n-1."""
    return _minor(r, k, given=True)


def direct_sum_relations(r: Relation, r2: Relation) -> Relation:
    """Direct sum on the concatenated ground set; second block offset by r.n.

    Cross pairs hold in any context, a pair inside one block iff its block holds it;
    the other block's vertices are the high rank bits of a first-block pair, the low
    ones of a second-block pair.
    """
    n, m = r.n, r2.n
    _check_vertex_count(n + m)
    i0, j0 = np.array(pairs_lex(n + m)).reshape(-1, 2).T
    rows = np.ones((len(i0), 1 << (n + m - 2)), dtype=bool)
    # a one-vertex block has no rows; reshape gives its empty array the full width
    rows[j0 <= n] = np.tile(_pair_rows(r), 1 << m).reshape(-1, rows.shape[1])
    rows[i0 > n] = np.repeat(_pair_rows(r2), 1 << n, axis=1).reshape(-1, rows.shape[1])
    return _from_bool_array(n + m, rows)


def double_markov_relation(g: Graph, h: Graph) -> Relation:
    """<G,H> = <G> union dual(<H>)."""
    _same_ground_set(g, h)
    return relation_of_graph(g) | dual(relation_of_graph(h))


# -- gaussoid axioms ----------------------------------------------------------

@dataclass(frozen=True)
class AxiomViolation:
    """One violated axiom instance: premises hold, required conclusions do not.

    For weak transitivity ``missing`` holds both disjuncts of the conclusion;
    for the Horn rules it holds the absent conjuncts.
    """

    rule: str
    premises: tuple[Statement, ...]
    missing: tuple[Statement, ...]

    def __repr__(self):
        texts = map(repr, self.premises), map(repr, self.missing)
        return f"[{self.rule}] {_violation_text(self.rule, *texts)}"


def _violation_text(rule: str, premises, missing) -> str:
    """'<premises> without <missing>', weak transitivity's disjuncts joined by ' | '."""
    glue = " | " if rule == "weak-transitivity" else " & "
    return f"{' & '.join(premises)} without {glue.join(missing)}"


def _ordered_tuples(n: int, k: int) -> np.ndarray:
    """All ordered k-tuples of distinct 0-based vertices, one per column."""
    return np.array(list(itertools.permutations(range(n), k)), dtype=np.intp).reshape(-1, k).T


def _triple_statements(n: int, ordered, lines) -> np.ndarray:
    """Per (a, b, held) of ``lines`` and per context K, ascending, of each triple t of distinct
    0-based vertices with t[ordered[0]] < t[ordered[1]]: the index of (t_a t_b | K), with t_c
    in K when ``held``.  Its subset rank is K's rank with held inserted at t_c's place."""
    triples = _ordered_tuples(n, 3)
    triples = triples[:, triples[ordered[0]] < triples[ordered[1]]]
    rank = np.arange(1 << max(n - 3, 0), dtype=np.intp)
    out = np.empty((len(lines), triples.shape[1], len(rank)), dtype=np.intp)
    for row, (a, b, held) in zip(out, lines):
        ta, tb, tc = triples[[a, b, 3 - a - b], :, None]
        p = tc - (ta < tc) - (tb < tc)
        row[:] = _index_of(n, ta, tb, 0) | _deposit(rank, p) | held << p
    return _read_only(out.reshape(len(lines), -1))[0]


@lru_cache(maxsize=8)
def _quadruple_table(n: int) -> np.ndarray:
    """Per triple (i, j, k) with j < k and context K avoiding it, the statement indices of
    its square [[A, B], [C, D]] = [[(ij|K), (ik|jK)], [(ik|K), (ij|kK)]], shape (2, 2, rows).

    The premises of every semigraphoid, intersection and composition instance on these four
    statements are one line of the square and its conclusions the parallel line
    (_SQUARE_LINES):

        semigraphoid   A & B => C & D,  and C & D => A & B (the triple (i, k, j))
        intersection   B & D => A & C
        composition    A & C => B & D

    so a square and a line name exactly one instance: the closure and the gaussoid check
    (_violation_masks) read no other table of these three rules.
    """
    corners = ((0, 1, 0), (0, 2, 1), (0, 2, 0), (0, 1, 1))  # A, B, C, D for the triple (i, j, k)
    return _triple_statements(n, (1, 2), corners).reshape(2, 2, -1)


# The premise lines of each rule on the square: (0, x) is its row x, (1, y) its column y.
_SQUARE_LINES = {"semigraphoid": ((0, 0), (0, 1)), "intersection": ((1, 1),),
                 "composition": ((1, 0),)}
# Per line (axis, x), flat as 2 * axis + x: the number of the rule whose premises it holds,
# and the corners of the flat square [A, B, C, D] on it and on its parallel line.
_CORNERS = np.arange(4).reshape(2, 2)
_LINE_RULES = np.array([no for line in np.ndindex(2, 2)
                        for no, lines in enumerate(_SQUARE_LINES.values()) if line in lines])
_LINE_CORNERS = np.array([(_CORNERS, _CORNERS.T)[a][[x, 1 - x]] for a, x in np.ndindex(2, 2)])


def _lines_held(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per square of ``h`` (the held flags of a quadruple table): whether both statements
    of row x hold, at [0][x], and of column y, at [1][y]."""
    return h[:, 0] & h[:, 1], h[0] & h[1]


@lru_cache(maxsize=8)
def _weak_transitivity_table(n: int) -> np.ndarray:
    """(ij|K) & (ij|kK) => (ik|K) or (jk|K) per triple with i < j (the rule is symmetric in i, j)
    and context K, one instance per column: premises in rows 0, 1, disjuncts in rows 2, 3.
    (jk|K) is on no square of _quadruple_table, so weak transitivity has a table of its own."""
    return _triple_statements(n, (0, 1), ((0, 1, 0), (0, 1, 1), (0, 2, 0), (1, 2, 0)))


@lru_cache(maxsize=8)
def _rule17_table(n: int) -> np.ndarray:
    """(ab|) & (cd|) & (ac|bd) & (bd|ac) => (ac|) over all vertex quadruples, one instance per
    column: the four premises in rows 0 to 3, the conclusion in row 4.  The contexts are exactly
    the printed patterns on the quadruple; vertices outside {a, b, c, d} never enter a context
    (literal embedding).  Swapping a with c and b with d gives the same instance, so a < c."""
    quads = _ordered_tuples(n, 4)
    a, b, c, d = quads[:, quads[0] < quads[2]]
    bit = [1 << v for v in (a, b, c, d)]
    return _read_only(np.stack([_index_of(n, a, b, 0), _index_of(n, c, d, 0),
                                _index_of(n, a, c, bit[1] | bit[3]),
                                _index_of(n, b, d, bit[0] | bit[2]), _index_of(n, a, c, 0)]))[0]


def _violation_masks(r: Relation):
    """The held flags of r; per line (axis, x) of each square, whether it holds and its parallel
    line does not; per weak transitivity instance, whether its premises hold and no disjunct."""
    held = _to_bool_array(r)
    lines = np.array(_lines_held(held[_quadruple_table(r.n)]))
    h = held[_weak_transitivity_table(r.n)]
    return held, lines & ~lines[:, ::-1], h[0] & h[1] & ~(h[2] | h[3])


def _violation_rows(r: Relation) -> list[tuple[str, list, list]]:
    """Per gaussoid rule, in rule order: the rule, and the premise and missing conclusion indices
    of each violated instance, ascending within each; the instances ascend by their premises,
    which name an instance within one rule.  The order of check_axioms and of the report."""
    held, broken, weak = _violation_masks(r)
    line, s = np.nonzero(broken.reshape(4, -1))
    rows = np.concatenate([
        _quadruple_table(r.n).reshape(4, -1)[_LINE_CORNERS[line], s[:, None, None]],
        _weak_transitivity_table(r.n)[:, weak].T.reshape(-1, 2, 2)])  # premises, conclusions
    rows.sort(axis=2)
    rule = np.concatenate([_LINE_RULES[line], np.full(len(rows) - len(line), len(_SQUARE_LINES))])
    m = num_statements(r.n)
    rows = rows[np.argsort((rule * m + rows[:, 0, 0]) * m + rows[:, 0, 1])]
    ends = np.bincount(rule, minlength=4).cumsum().tolist()
    # held conclusions become -1; a violated weak transitivity holds neither disjunct
    prems, missing = rows[:, 0].tolist(), np.where(held[rows[:, 1]], -1, rows[:, 1]).tolist()
    return [(name, prems[a:b], [[c for c in cs if c >= 0] for cs in missing[a:b]])
            for name, a, b in zip((*_SQUARE_LINES, "weak-transitivity"), [0, *ends], ends)]


def check_axioms(r: Relation) -> list[AxiomViolation]:
    """Violated instances of the four gaussoid axioms, each once; empty iff r is a gaussoid.

    The axioms, over triples (i, j, k) of distinct vertices and contexts K avoiding them:

        semigraphoid       (ij|K) & (ik|jK)  =>  (ik|K) & (ij|kK)
        intersection       (ij|kK) & (ik|jK) =>  (ij|K) & (ik|K)
        composition        (ij|K) & (ik|K)   =>  (ij|kK) & (ik|jK)
        weak-transitivity  (ij|K) & (ij|kK)  =>  (ik|K) or (jk|K)

    Rule order (as listed), then ascending premise, then conclusion indices (_violation_rows).
    Both tuples ascend by statement index; weak transitivity misses both disjuncts.
    """
    at = all_statements(r.n).__getitem__
    return [AxiomViolation(rule, tuple(map(at, ps)), tuple(map(at, ms)))
            for rule, prems, missing in _violation_rows(r) for ps, ms in zip(prems, missing)]


def is_gaussoid(r: Relation) -> bool:
    _, broken, weak = _violation_masks(r)
    return not (broken.any() or weak.any())


def _horn_rules(rules) -> tuple[str, ...]:
    """The distinct rules of ``rules`` in HORN_RULES order; an unknown name raises ValueError."""
    rules = tuple(rules)
    for rule in rules:
        if rule not in HORN_RULES:
            raise ValueError(f"unknown Horn rule {rule!r}; valid: {HORN_RULES}")
    return tuple(rule for rule in HORN_RULES if rule in rules)


def closure(r: Relation, rules=("semigraphoid",)) -> Relation:
    """Least superset of r closed under the selected Horn rules.

    Valid rule names: semigraphoid, intersection, composition, rule17.
    Weak transitivity has a disjunctive conclusion, so it is never part of
    the closure; it is only reported by check_axioms.

    The first three rules read one quadruple table (_quadruple_table): one
    square of statements (ij|K), (ik|jK), (ik|K), (ij|kK) per triple
    (i, {j < k}) and context K, which carries every instance of the three
    rules on them.  Each pass makes one gather of the four statements,
    takes the firing mask of the selected rules by boolean algebra on the
    lines of the squares, and sets only the concluded statements that are
    not yet held; rule 17 runs on its own table in the same pass.  The
    first pass that adds nothing ends the loop.  The least fixpoint does
    not depend on the order of the instances; the tests check it against
    full passes over every instance in turn (_closure_by_full_passes).
    """
    rules = _horn_rules(rules)
    selected = {line for rule in rules for line in _SQUARE_LINES.get(rule, ())}
    unselected = {(0, 0), (0, 1), (1, 0), (1, 1)} - selected
    square = _quadruple_table(r.n) if selected else None
    rule17 = _rule17_table(r.n) if "rule17" in rules else None
    held = _to_bool_array(r)
    while True:
        added = []
        if square is not None:
            h = held[square]
            lines = _lines_held(h)
            for axis, x in unselected:
                lines[axis][x] = False
            # a statement follows from the other row or the other column of its square
            fire = (lines[0][::-1, None] | lines[1][None, ::-1]) > h
            added.append(square.ravel()[fire.ravel()])  # a flat mask indexes faster
        if rule17 is not None:
            h = held[rule17]
            added.append(rule17[4][np.logical_and.reduce(h[:4]) > h[4]])
        if not any(map(len, added)):
            return _from_bool_array(r.n, held)
        for new in added:
            held[new] = True


def _rules_fired(r: Relation, closed: Relation, rules) -> list[str]:
    """The selected rules, in HORN_RULES order, with an instance whose premises
    all hold in ``closed`` and which concludes a statement outside ``r``.

    This depends on r, its closure and the set of rules only, not on their order.
    """
    rules = _horn_rules(rules)
    given, held = _to_bool_array(r), _to_bool_array(closed)
    fired = set()
    if set(rules) & _SQUARE_LINES.keys():
        square = _quadruple_table(r.n)
        # a premise line held in the closure whose parallel line is not all in r
        fires = (np.array(_lines_held(held[square]))
                 & ~np.array(_lines_held(given[square]))[:, ::-1]).any(axis=-1)
        fired |= {rule for rule in rules if any(fires[x] for x in _SQUARE_LINES.get(rule, ()))}
    if "rule17" in rules:
        table = _rule17_table(r.n)
        if (np.logical_and.reduce(held[table[:4]]) & ~given[table[4]]).any():
            fired.add("rule17")
    return [rule for rule in rules if rule in fired]


def is_upward_stable(r: Relation) -> bool:
    """(ij|L) implies (ij|kL) for every k outside ijL: adding m_t to L sets rank bit t, so in
    each run of 2^(t+1) ranks, all in one row, the half with bit t clear implies the other."""
    rows = _pair_rows(r)
    for t in range(r.n - 2):
        halves = rows.reshape(-1, 2, 1 << t)
        if (halves[:, 0] & ~halves[:, 1]).any():
            return False
    return True


def recognize_markov(r: Relation):
    """The graph G with <G> = r, else None.

    ij is an edge iff the maximal statement (ij|N \\ ij), last in its row, is absent.
    Every separation relation is an upward-stable gaussoid, so comparing <G> with r decides.
    """
    held = _pair_rows(r)[:, -1]
    g = Graph.from_edges(r.n, [p for p, h in zip(pairs_lex(r.n), held) if not h])
    return g if relation_of_graph(g) == r else None


# -- canonical forms ----------------------------------------------------------

def _permuted_indices(n: int, perms) -> np.ndarray:
    """Row p, column s: the index of statement s relabelled by perms[p] (0-based images)."""
    masks, i0, j0 = _statement_entries(n)
    perms = np.asarray(perms, dtype=np.int32).reshape(-1, n)
    moved = np.zeros((len(perms), len(masks)), dtype=np.int32)
    for v in range(n):
        moved |= (masks.astype(np.int32) >> v & 1) << perms[:, v, None]
    return _index_of(n, perms[:, i0], perms[:, j0], moved)


@lru_cache(maxsize=4)
def _perm_index_maps(n: int) -> np.ndarray:
    """Row p: statement index s maps to row-p permutation of statement s."""
    perms = list(itertools.permutations(range(n)))
    # 720 permutations per block keep the temporaries small at n = 7
    return _read_only(np.concatenate([_permuted_indices(n, perms[b:b + 720])
                                      for b in range(0, len(perms), 720)]))[0]


def permute_relation(r: Relation, perm) -> Relation:
    """Relabel vertices: v -> perm[v-1] (1-based image tuple)."""
    try:
        perm, _ = _vertices(r.n, perm)
        if len(perm) != r.n:  # n distinct vertices of 1..n are all of them
            raise ValueError
    except ValueError:
        raise ValueError(f"{tuple(perm)} is not a permutation of 1..{r.n}") from None
    hits = np.zeros(num_statements(r.n), dtype=bool)
    hits[_permuted_indices(r.n, np.subtract(perm, 1))[0]] = _to_bool_array(r)
    return _from_bool_array(r.n, hits)


def canonical_form(r: Relation) -> bytes:
    """Lexicographically least packed bitset over all vertex permutations of r and its dual.

    Equal byte strings mean equivalence modulo isomorphy and duality.
    Supported for n <= 7 (factorial scan).  Row p of the gather is the
    relation relabelled by the inverse of permutation p; the permutations are
    closed under inversion, so the rows are all relabellings.
    """
    if r.n > 7:
        raise ValueError("canonical forms use a factorial scan; n <= 7 only")
    if r.n < 2:
        return b""  # no statements, and the byte rows below would be empty
    arrs = np.stack([_to_bool_array(r), _to_bool_array(dual(r))])
    packed = np.packbits(arrs[:, _perm_index_maps(r.n)].reshape(-1, arrs.shape[1]), axis=1)
    w, raw = packed.shape[1], packed.tobytes()
    return min(raw[i:i + w] for i in range(0, len(raw), w))


# -- serialization ------------------------------------------------------------

def relation_to_hex(r: Relation) -> str:
    return np.packbits(_to_bool_array(r)).tobytes().hex()


def relation_to_text(r: Relation, form: str = "list") -> str:
    """Serialize; ``form`` is "hex" (frozen bit order) or "list" (one per line)."""
    if form == "hex":
        return f"n {r.n}\nhex {relation_to_hex(r)}\n"
    if form == "list":
        lines = [f"n {r.n}"]
        lines += [repr(s) for s in r.statements()]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown serialization form {form!r}")


def parse_relation(text: str) -> Relation:
    """Parse either serialization form produced by relation_to_text."""
    lines = _numbered_lines(text, "relation")
    n = _parse_n_line(*lines[0])
    if len(lines) > 1 and lines[1][1].startswith("hex"):
        return _parse_hex(n, lines[1:])
    heads, vertex_bits = _statement_tokens(n)
    bits, no_bit = 0, itertools.repeat(0)  # a part not in the tables adds no bit
    for no, line in lines[1:]:
        head, _, tail = line.partition("|")
        mask, base, low, mid, high = heads.get(head, (0, 0, 0, 0, 0))
        mask += sum(map(vertex_bits.get, ks := tail[:-1].split(), no_bit))
        if tail[-1:] == ")" and mask.bit_count() == len(ks) + 2:
            bits |= 1 << (base | mask & low | (mask & mid) >> 1 | (mask & high) >> 2)
            continue
        try:  # any other spelling, and every refusal
            bits |= 1 << _checked_index(n, *_parse_statement(line))
        except ValueError as e:
            raise ValueError(f"line {no}: {e}") from None
    return Relation(n, bits)


@lru_cache(maxsize=None)
def _statement_tokens(n: int) -> tuple[dict[str, tuple[int, ...]], dict[str, int]]:
    """Each vertex 'k' to its bit, and each head '(i j ' (i != j) to the mask of i and j, the
    index of (ij|) and the masks of the vertices below, between and above i and j, whose bits
    move down by 0, 1 and 2 places in the subset rank of K (the scalar form of _index_of).
    All through the vertex check: a line's bits add up to one per vertex iff all hit and differ."""
    heads = {}
    for pair in itertools.permutations(range(1, n + 1), 2):
        (i, j), mask = _vertices(n, pair)
        lo, hi = sorted((i - 1, j - 1))
        heads[f"({i} {j} "] = (mask, _index_of(n, lo, hi, 0), (1 << lo) - 1,
                               (1 << hi) - (2 << lo), (1 << n) - (2 << hi))
    return heads, {str(k): mask for (k,), mask in (_vertices(n, (v,)) for v in range(1, n + 1))}


def _parse_hex(n: int, lines: list[tuple[int, str]]) -> Relation:
    """The 'hex <digits>' line: exactly ceil(m / 8) bytes for m statements, zero padding."""
    if len(lines) > 1:
        raise ValueError("line {}: unexpected text after the hex line: {!r}".format(*lines[1]))
    no, line = lines[0]
    toks = line.split()
    if toks[0] != "hex" or len(toks) > 2:
        raise ValueError(f"line {no}: expected 'hex <digits>', got {line!r}")
    try:
        raw = bytes.fromhex(toks[1] if len(toks) == 2 else "")
    except ValueError:
        raise ValueError(f"line {no}: malformed hex digits {line!r}") from None
    m = num_statements(n)
    if len(raw) != -(-m // 8):
        raise ValueError(f"line {no}: {m} statements need {-(-m // 8)} hex bytes, got {len(raw)}")
    arr = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if arr[m:].any():
        raise ValueError(f"line {no}: padding bits beyond statement {m - 1} are set")
    return _from_bool_array(n, arr[:m])


def _parse_statement(line: str) -> tuple[int, int, tuple[int, ...]]:
    """(i, j, K) of the statement '(i j | k ...)', with K as written."""
    if not (line.startswith("(") and line.endswith(")")):
        raise ValueError(f"expected '(i j | k ...)', got {line!r}")
    left, _, right = line[1:-1].partition("|")
    try:
        i, j = map(int, left.split())
        return i, j, tuple(map(int, right.split()))
    except ValueError:
        raise ValueError(f"malformed statement {line!r}") from None
