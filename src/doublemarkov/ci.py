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
over them.

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

from .graphs import (MAX_VERTICES, Graph, _bits, _check_vertex_count, _numbered_lines,
                     _parse_n_line, _same_ground_set, _vertices, pairs_lex)

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
    rank = np.arange(1 << max(n - 2, 0), dtype=np.intp)[None, :]
    masks = (rank & ((1 << i0) - 1)
             | (rank >> i0 & ((1 << (j0 - i0 - 1)) - 1)) << (i0 + 1)
             | (rank >> (j0 - 1)) << (j0 + 1))
    return _read_only(masks.ravel(), np.broadcast_to(i0, masks.shape).ravel(),
                      np.broadcast_to(j0, masks.shape).ravel())


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
    (k,), _ = _vertices(r.n, (k,))
    k0 = k - 1
    masks, i0, j0 = _statement_entries(r.n - 1)
    lifted = masks & ((1 << k0) - 1) | masks >> k0 << (k0 + 1) | given << k0
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


def _instance_table(prem: np.ndarray, concl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows with each half sorted, rows lexicographic; halves contiguous."""
    rows = np.column_stack([np.sort(prem, axis=1), np.sort(concl, axis=1)])
    rows = rows[np.lexsort(rows.T[::-1])]
    return _read_only(*map(np.ascontiguousarray, np.hsplit(rows, [prem.shape[1]])))


def _ordered_tuples(n: int, k: int) -> np.ndarray:
    """All ordered k-tuples of distinct 0-based vertices, one per column."""
    return np.array(list(itertools.permutations(range(n), k)), dtype=np.intp).reshape(-1, k).T


@lru_cache(maxsize=8)
def _axiom_instances(n: int):
    """Per rule: (premise indices, conclusion indices), two columns each, one row per instance.

    Instantiated over ordered triples (i, j, k) and contexts K avoiding them:

        semigraphoid       (ij|K) & (ik|jK)  =>  (ik|K) & (ij|kK)
        intersection       (ij|kK) & (ik|jK) =>  (ij|K) & (ik|K)
        composition        (ij|K) & (ik|K)   =>  (ij|kK) & (ik|jK)
        weak-transitivity  (ij|K) & (ij|kK)  =>  (ik|K) or (jk|K)

    Intersection and composition are symmetric in j, k and weak transitivity in i, j, so
    their tables take only the triples with j < k, or i < j: each table has one row per
    instance, in the instance order of check_axioms and the closure.
    """
    i, j, k = (col[:, None] for col in _ordered_tuples(n, 3))
    K = np.arange(1 << n)[None, :]
    keep = (K >> i | K >> j | K >> k) & 1 == 0
    i, j, k, K = (np.broadcast_to(x, keep.shape)[keep] for x in (i, j, k, K))
    jK, kK = K | 1 << j, K | 1 << k
    ij, ik, jk = _index_of(n, i, j, K), _index_of(n, i, k, K), _index_of(n, j, k, K)
    ij_k, ik_j = _index_of(n, i, j, kK), _index_of(n, i, k, jK)
    pairs = {
        "semigraphoid": (slice(None), (ij, ik_j), (ik, ij_k)),
        "intersection": (j < k, (ij_k, ik_j), (ij, ik)),
        "composition": (j < k, (ij, ik), (ij_k, ik_j)),
        "weak-transitivity": (i < j, (ij, ij_k), (ik, jk)),
    }
    return {rule: _instance_table(*(np.column_stack([x[rows] for x in half])
                                    for half in (prem, concl)))
            for rule, (rows, prem, concl) in pairs.items()}


@lru_cache(maxsize=8)
def _rule17_instances(n: int):
    """(ab|) & (cd|) & (ac|bd) & (bd|ac) => (ac|) over all vertex quadruples.

    The conditioning sets are exactly the printed patterns on the quadruple;
    vertices outside {a, b, c, d} never enter a context (literal embedding).
    Swapping a with c and b with d gives the same instance, so a < c.
    """
    quads = _ordered_tuples(n, 4)
    a, b, c, d = quads[:, quads[0] < quads[2]]
    bit = [1 << v for v in (a, b, c, d)]
    prem = np.column_stack([_index_of(n, a, b, 0), _index_of(n, c, d, 0),
                            _index_of(n, a, c, bit[1] | bit[3]),
                            _index_of(n, b, d, bit[0] | bit[2])])
    return _instance_table(prem, _index_of(n, a, c, 0)[:, None])


def _violation_masks(r: Relation):
    """Per gaussoid rule, lazily: its instance table, which conclusions r holds, violated rows."""
    held = _to_bool_array(r)
    for rule, (prem, concl) in _axiom_instances(r.n).items():
        p, c = held[prem], held[concl]
        done = c[:, 0] | c[:, 1] if rule == "weak-transitivity" else c[:, 0] & c[:, 1]
        yield rule, prem, concl, c, p[:, 0] & p[:, 1] & ~done


def _violation_rows(r: Relation):
    """Per rule, lazily: the rule, the premise and the missing conclusion indices of each
    violated instance.  The order of check_axioms and of the report: rule order, then
    instance-table row order; within a row the indices ascend."""
    for rule, prem, concl, held, bad in _violation_masks(r):
        # held conclusions become -1; a violated weak transitivity holds neither disjunct
        missing = np.where(held[bad], -1, concl[bad]).tolist()
        yield rule, prem[bad].tolist(), [[s for s in ms if s >= 0] for ms in missing]


def check_axioms(r: Relation) -> list[AxiomViolation]:
    """Violated instances of the four gaussoid axioms, each once; empty iff r is a gaussoid.

    Rule order (semigraphoid, intersection, composition, weak-transitivity), then
    instance-table row order (by premise, then conclusion indices) as in _violation_rows.
    Both tuples ascend by statement index; weak transitivity misses both disjuncts.
    """
    at = all_statements(r.n).__getitem__
    return [AxiomViolation(rule, tuple(map(at, ps)), tuple(map(at, ms)))
            for rule, prems, missing in _violation_rows(r) for ps, ms in zip(prems, missing)]


def is_gaussoid(r: Relation) -> bool:
    return not any(bad.any() for *_, bad in _violation_masks(r))


def _horn_tables(n: int, rules: tuple[str, ...]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The instance table (premises, conclusions) of each distinct rule in ``rules``, by name.

    Unknown rule names raise ValueError; below n = 3 every table is empty.
    """
    for rule in rules:
        if rule not in HORN_RULES:
            raise ValueError(f"unknown Horn rule {rule!r}; valid: {HORN_RULES}")
    return {rule: _rule17_instances(n) if rule == "rule17" else _axiom_instances(n)[rule]
            for rule in rules}


def _all_held(held: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Per row of the index table ``cols``: whether ``held`` holds every statement of the row."""
    p = held[cols]
    out = p[:, 0]
    for col in p.T[1:]:
        out = out & col
    return out


def closure(r: Relation, rules=("semigraphoid",)) -> Relation:
    """Least superset of r closed under the selected Horn rules.

    Valid rule names: semigraphoid, intersection, composition, rule17.
    Weak transitivity has a disjunctive conclusion, so it is never part of
    the closure; it is only reported by check_axioms.

    The fixpoint is taken by array passes: each pass gathers the premises of
    every row of one rule's instance table, and the rows whose premises all
    hold set their conclusions.  Passes repeat over the rules until the
    number of held statements stops growing.  The least fixpoint does not
    depend on the order of the passes; the tests check it against full
    passes over every instance in turn (_closure_by_full_passes).
    """
    tables = _horn_tables(r.n, tuple(rules)).values()
    held = _to_bool_array(r)
    count = None
    while count != np.count_nonzero(held):
        count = np.count_nonzero(held)
        for prem, concl in tables:
            held[concl[_all_held(held, prem)]] = True
    return _from_bool_array(r.n, held)


def _rules_fired(r: Relation, closed: Relation, rules) -> list[str]:
    """The selected rules, in HORN_RULES order, with an instance whose premises
    all hold in ``closed`` and which concludes a statement outside ``r``.

    This depends on r, its closure and the set of rules only, not on their order.
    """
    tables = _horn_tables(r.n, tuple(rules))
    given, held = _to_bool_array(r), _to_bool_array(closed)
    return [rule for rule in HORN_RULES if rule in tables
            and (_all_held(held, tables[rule][0]) & ~_all_held(given, tables[rule][1])).any()]


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


def canonical_form(r: Relation, modulo_duality: bool = True) -> bytes:
    """Lexicographically least packed bitset over all vertex permutations.

    With modulo_duality the dual relation's permutations compete as well, so
    equal byte strings mean equivalence modulo isomorphy and duality.
    Supported for n <= 7 (factorial scan).  Row p of the gather is the
    relation relabelled by the inverse of permutation p; the permutations are
    closed under inversion, so the rows are all relabellings.
    """
    if r.n > 7:
        raise ValueError("canonical forms use a factorial scan; n <= 7 only")
    if r.n < 2:
        return b""  # no statements, and the byte rows below would be empty
    arrs = np.stack([_to_bool_array(x) for x in ([r, dual(r)] if modulo_duality else [r])])
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
    lines = _numbered_lines(text)
    if not lines:
        raise ValueError("empty relation file")
    n = _parse_n_line(*lines[0])
    if len(lines) > 1 and lines[1][1].startswith("hex"):
        return _parse_hex(n, lines[1:])
    bits = 0
    for no, line in lines[1:]:
        try:
            bits |= 1 << _checked_index(n, *_parse_statement(line))
        except ValueError as e:
            raise ValueError(f"line {no}: {e}") from None
    return Relation(n, bits)


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
