"""Conditional independence statements and relations.

A statement (ij|K) pairs two distinct vertices i < j with a conditioning
set K disjoint from them.  A relation on ground set 1..n is a set of such
statements, stored as a bitset of width C(n,2) * 2^(n-2).

Frozen statement index (file format compatibility depends on it):

    index(i, j, K) = pair_rank(i, j) * 2^(n-2) + subset_rank(K)

where pair_rank is the lexicographic rank of {i, j} among all pairs and
subset_rank encodes K inside the increasing enumeration m_0 < m_1 < ... of
the vertices other than i and j as sum of 2^t over m_t in K.

The hex serialization packs bit s of the relation into bit 7 - (s mod 8) of
byte s // 8, so the hex digit stream reads left to right in statement
order.  Canonical forms compare these byte strings, which is the same as
comparing the bitsets lexicographically statement 0 first.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import graphs
from .graphs import Graph, pair_rank, pairs_lex

MAX_GROUND_SET = 16
HORN_RULES = ("semigraphoid", "intersection", "composition", "rule17")


@dataclass(frozen=True, order=True)
class Statement:
    """CI statement (ij|K) with 1-based i < j and K a frozenset disjoint from ij."""

    i: int
    j: int
    K: frozenset[int]

    def __repr__(self):
        ks = " ".join(str(k) for k in sorted(self.K))
        return f"({self.i} {self.j} |{' ' + ks if ks else ''})"


def make_statement(i: int, j: int, K=()) -> Statement:
    if i == j:
        raise ValueError("statement needs two distinct vertices")
    if i > j:
        i, j = j, i
    K = frozenset(K)
    if i in K or j in K:
        raise ValueError(f"conditioning set {sorted(K)} overlaps {{{i}, {j}}}")
    return Statement(i, j, K)


def num_statements(n: int) -> int:
    if n < 2:
        return 0
    return n * (n - 1) // 2 * (1 << (n - 2))


@lru_cache(maxsize=None)
def _rest(n: int, i: int, j: int) -> tuple[int, ...]:
    return tuple(v for v in range(1, n + 1) if v != i and v != j)


def statement_index(n: int, stmt: Statement) -> int:
    rest = _rest(n, stmt.i, stmt.j)
    kbits = 0
    for t, m in enumerate(rest):
        if m in stmt.K:
            kbits |= 1 << t
    if len(stmt.K) != kbits.bit_count():
        raise ValueError(f"statement {stmt} does not fit ground set 1..{n}")
    return pair_rank(n, stmt.i, stmt.j) * (1 << (n - 2)) + kbits


def statement_at(n: int, index: int) -> Statement:
    block = 1 << (n - 2)
    i, j = pairs_lex(n)[index // block]
    kbits = index % block
    rest = _rest(n, i, j)
    return Statement(i, j, frozenset(rest[t] for t in range(len(rest)) if kbits >> t & 1))


@lru_cache(maxsize=8)
def all_statements(n: int) -> tuple[Statement, ...]:
    return tuple(statement_at(n, s) for s in range(num_statements(n)))


@dataclass(frozen=True)
class Relation:
    """Set of CI statements on ground set 1..n, as a bitset in the frozen order."""

    n: int
    bits: int

    def __post_init__(self):
        if not 1 <= self.n <= MAX_GROUND_SET:
            raise ValueError(f"ground set size must be in 1..{MAX_GROUND_SET}")
        if self.bits < 0 or self.bits >> num_statements(self.n):
            raise ValueError("bitset has bits outside the statement range")

    @staticmethod
    def from_statements(n: int, statements) -> "Relation":
        bits = 0
        for s in statements:
            if not isinstance(s, Statement):
                s = make_statement(*s)
            bits |= 1 << statement_index(n, s)
        return Relation(n, bits)

    def statements(self) -> tuple[Statement, ...]:
        return tuple(statement_at(self.n, s) for s in _bit_positions(self.bits))

    def has(self, i: int, j: int, K=()) -> bool:
        return bool(self.bits >> statement_index(self.n, make_statement(i, j, K)) & 1)

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


def _bit_positions(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def empty_relation(n: int) -> Relation:
    return Relation(n, 0)


def full_relation(n: int) -> Relation:
    if not 2 <= n <= MAX_GROUND_SET:
        raise ValueError(f"ground set size must be in 2..{MAX_GROUND_SET}")
    return Relation(n, (1 << num_statements(n)) - 1)


def relation_of_graph(g: Graph) -> Relation:
    """Separation relation <G>: all (ij|K) with K separating i and j in g."""
    n = g.n
    bits = 0
    for i, j in pairs_lex(n):
        rest = _rest(n, i, j)
        base = pair_rank(n, i, j) * (1 << max(n - 2, 0))
        for kbits in range(1 << len(rest)):
            K = [rest[t] for t in range(len(rest)) if kbits >> t & 1]
            if graphs.separates(g, i, j, K):
                bits |= 1 << (base + kbits)
    return Relation(n, bits)


def dual(r: Relation) -> Relation:
    """Complement every conditioning set: (ij|K) -> (ij|N \\ ijK)."""
    n = r.n
    if n < 2:
        return r
    block = 1 << (n - 2)
    full = block - 1
    bits = 0
    for s in _bit_positions(r.bits):
        base = s - s % block
        bits |= 1 << (base + (full ^ s % block))
    return Relation(n, bits)


def _relabel_down(v: int, k: int) -> int:
    return v - 1 if v > k else v


def marginal(r: Relation, k: int) -> Relation:
    """Keep statements avoiding k entirely; result lives on 1..n-1."""
    graphs._check_vertex(r.n, k)
    out = []
    for s in r.statements():
        if k == s.i or k == s.j or k in s.K:
            continue
        out.append(Statement(
            _relabel_down(s.i, k), _relabel_down(s.j, k),
            frozenset(_relabel_down(v, k) for v in s.K)))
    return Relation.from_statements(r.n - 1, out)


def conditional(r: Relation, k: int) -> Relation:
    """Keep (ij|K) with (ij|kK) in r; result lives on 1..n-1."""
    graphs._check_vertex(r.n, k)
    out = []
    for s in r.statements():
        if k == s.i or k == s.j or k not in s.K:
            continue
        out.append(Statement(
            _relabel_down(s.i, k), _relabel_down(s.j, k),
            frozenset(_relabel_down(v, k) for v in s.K - {k})))
    return Relation.from_statements(r.n - 1, out)


def direct_sum_relations(r: Relation, r2: Relation) -> Relation:
    """Direct sum on the concatenated ground set; second block offset by r.n."""
    n, m = r.n, r2.n
    if n + m > MAX_GROUND_SET:
        raise ValueError(f"combined ground set {n + m} exceeds {MAX_GROUND_SET}")
    N = range(1, n + 1)
    M = range(n + 1, n + m + 1)
    out = []
    # cross pairs, any context
    for i in N:
        for j in M:
            rest = _rest(n + m, i, j)
            for kbits in range(1 << len(rest)):
                out.append(Statement(i, j, frozenset(
                    rest[t] for t in range(len(rest)) if kbits >> t & 1)))
    # lifted statements with arbitrary context from the other block
    for s in r.statements():
        for lbits in range(1 << m):
            L = frozenset(n + t + 1 for t in range(m) if lbits >> t & 1)
            out.append(Statement(s.i, s.j, s.K | L))
    for s in r2.statements():
        i, j = s.i + n, s.j + n
        K = frozenset(v + n for v in s.K)
        for lbits in range(1 << n):
            L = frozenset(t + 1 for t in range(n) if lbits >> t & 1)
            out.append(Statement(i, j, K | L))
    return Relation.from_statements(n + m, out)


def double_markov_relation(g: Graph, h: Graph) -> Relation:
    """<G,H> = <G> union dual(<H>)."""
    if g.n != h.n:
        raise ValueError("graphs live on different vertex sets")
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
        prem = " & ".join(map(repr, self.premises))
        glue = " | " if self.rule == "weak-transitivity" else " & "
        return f"[{self.rule}] {prem} without {glue.join(map(repr, self.missing))}"


def _idx(n, i, j, K) -> int:
    return statement_index(n, make_statement(i, j, K))


@lru_cache(maxsize=8)
def _axiom_instances(n: int):
    """Per rule: tuples (premise index tuple, conclusion index tuple), deduplicated.

    Instantiated over ordered triples (i, j, k) and contexts K avoiding them:

        semigraphoid       (ij|K) & (ik|jK)  =>  (ik|K) & (ij|kK)
        intersection       (ij|kK) & (ik|jK) =>  (ij|K) & (ik|K)
        composition        (ij|K) & (ik|K)   =>  (ij|kK) & (ik|jK)
        weak-transitivity  (ij|K) & (ij|kK)  =>  (ik|K) or (jk|K)
    """
    rules = {"semigraphoid": set(), "intersection": set(), "composition": set(),
             "weak-transitivity": set()}
    verts = range(1, n + 1)
    for i, j, k in itertools.permutations(verts, 3):
        rest = [v for v in verts if v not in (i, j, k)]
        for kb in range(1 << len(rest)):
            K = frozenset(rest[t] for t in range(len(rest)) if kb >> t & 1)
            jK, kK = K | {j}, K | {k}
            rules["semigraphoid"].add((
                (_idx(n, i, j, K), _idx(n, i, k, jK)),
                (_idx(n, i, k, K), _idx(n, i, j, kK))))
            rules["intersection"].add((
                (_idx(n, i, j, kK), _idx(n, i, k, jK)),
                (_idx(n, i, j, K), _idx(n, i, k, K))))
            rules["composition"].add((
                (_idx(n, i, j, K), _idx(n, i, k, K)),
                (_idx(n, i, j, kK), _idx(n, i, k, jK))))
            rules["weak-transitivity"].add((
                (_idx(n, i, j, K), _idx(n, i, j, kK)),
                (_idx(n, i, k, K), _idx(n, j, k, K))))
    return {name: tuple(sorted(inst)) for name, inst in rules.items()}


@lru_cache(maxsize=8)
def _rule17_instances(n: int):
    """(ab|) & (cd|) & (ac|bd) & (bd|ac) => (ac|) over all vertex quadruples.

    The conditioning sets are exactly the printed patterns on the quadruple;
    vertices outside {a, b, c, d} never enter a context (literal embedding).
    """
    out = set()
    for a, b, c, d in itertools.permutations(range(1, n + 1), 4):
        prem = (_idx(n, a, b, ()), _idx(n, c, d, ()),
                _idx(n, a, c, (b, d)), _idx(n, b, d, (a, c)))
        out.add((tuple(sorted(prem)), (_idx(n, a, c, ()),)))
    return tuple(sorted(out))


def check_axioms(r: Relation) -> list[AxiomViolation]:
    """Violated instances of the four gaussoid axioms; empty iff r is a gaussoid."""
    n = r.n
    if n < 3:
        return []
    bits = r.bits
    violations = []
    for rule, instances in _axiom_instances(n).items():
        disjunctive = rule == "weak-transitivity"
        for prem, concl in instances:
            if all(bits >> p & 1 for p in prem):
                absent = [c for c in concl if not bits >> c & 1]
                bad = len(absent) == len(concl) if disjunctive else bool(absent)
                if bad:
                    report = concl if disjunctive else tuple(absent)
                    violations.append(AxiomViolation(
                        rule,
                        tuple(statement_at(n, p) for p in prem),
                        tuple(statement_at(n, c) for c in report)))
    return violations


def is_gaussoid(r: Relation) -> bool:
    return not check_axioms(r)


def closure(r: Relation, rules=("semigraphoid",)) -> Relation:
    """Least superset of r closed under the selected Horn rules.

    Valid rule names: semigraphoid, intersection, composition, rule17.
    Weak transitivity has a disjunctive conclusion, so it is never part of
    the closure; it is only reported by check_axioms.
    """
    closed, _ = closure_report(r, rules)
    return closed


@lru_cache(maxsize=None)
def _premise_index(n: int, rules: tuple[str, ...]):
    """Rule instances of ``rules`` in id order, who uses each statement, premise counts.

    Instance id t is the position of (rule, premises, conclusions) in the
    concatenation of each rule's sorted instance tuple, in the order of
    ``rules``; users[s] holds the ids of the instances with premise s, and
    byte t of the counts is the number of distinct premises of instance t.
    """
    instances = []
    for rule in rules:
        if rule == "rule17":
            instances += [(rule, *inst) for inst in (_rule17_instances(n) if n >= 4 else ())]
        else:
            instances += [(rule, *inst) for inst in _axiom_instances(n)[rule]]
    users = [[] for _ in range(num_statements(n))]
    counts = bytearray(len(instances))
    for t, (_, prem, _) in enumerate(instances):
        for p in set(prem):
            users[p].append(t)
            counts[t] += 1
    return tuple(instances), tuple(map(tuple, users)), bytes(counts)


def closure_report(r: Relation, rules=("semigraphoid",)):
    """Closure plus a dict counting how many statements each rule added.

    The closure is the fixpoint of full passes over all rule instances in id
    order (see _premise_index), where an instance whose premises hold adds
    its missing conclusions.  Rather than scanning every instance, the passes
    are replayed from the premise index: an instance is queued once, when
    its last premise is present, into the current pass if its id is larger
    than that of the instance that added the premise (or the premise was in
    r), else into the next pass.  Instances fire in the same order as in full
    passes, so ``fired`` counts are those of full passes.
    """
    rules = tuple(rules)
    for rule in rules:
        if rule not in HORN_RULES:
            raise ValueError(f"unknown Horn rule {rule!r}; valid: {HORN_RULES}")
    n = r.n
    fired = {rule: 0 for rule in rules}
    if n < 3:
        return r, fired
    instances, users, counts = _premise_index(n, rules)
    missing = bytearray(counts)  # premises of each instance not yet present
    have = bytearray(num_statements(n))
    current = []
    for s in _bit_positions(r.bits):
        have[s] = 1
        for t in users[s]:
            missing[t] -= 1
            if not missing[t]:
                current.append(t)
    heapq.heapify(current)
    bits = r.bits
    while current:
        later = []
        while current:
            t = heapq.heappop(current)
            rule, _, concl = instances[t]
            for c in concl:
                if have[c]:
                    continue
                have[c] = 1
                bits |= 1 << c
                fired[rule] += 1
                for u in users[c]:
                    missing[u] -= 1
                    if not missing[u]:
                        if u > t:
                            heapq.heappush(current, u)
                        else:
                            later.append(u)
        heapq.heapify(later)
        current = later
    return Relation(n, bits), fired


def is_upward_stable(r: Relation) -> bool:
    """(ij|L) implies (ij|kL) for every k outside ijL."""
    n = r.n
    for s in r.statements():
        for k in range(1, n + 1):
            if k in (s.i, s.j) or k in s.K:
                continue
            if not r.has(s.i, s.j, s.K | {k}):
                return False
    return True


def recognize_markov(r: Relation):
    """The graph G with <G> = r if r is an upward-stable gaussoid, else None.

    Edges are read off the maximal statements: ij is an edge iff
    (ij|N \\ ij) is absent.  The reconstruction is verified before returning.
    """
    if not is_upward_stable(r) or check_axioms(r):
        return None
    n = r.n
    edges = []
    for i, j in pairs_lex(n):
        if not r.has(i, j, frozenset(_rest(n, i, j))):
            edges.append((i, j))
    g = Graph.from_edges(n, edges)
    return g if relation_of_graph(g) == r else None


# -- canonical forms ----------------------------------------------------------

@lru_cache(maxsize=4)
def _perm_index_maps(n: int) -> np.ndarray:
    """Row p: statement index s maps to row-p permutation of statement s."""
    perms = list(itertools.permutations(range(1, n + 1)))
    stmts = all_statements(n)
    maps = np.empty((len(perms), len(stmts)), dtype=np.int32)
    for p, perm in enumerate(perms):
        for s, st in enumerate(stmts):
            img = make_statement(perm[st.i - 1], perm[st.j - 1],
                                 frozenset(perm[v - 1] for v in st.K))
            maps[p, s] = statement_index(n, img)
    return maps


def _to_bool_array(r: Relation) -> np.ndarray:
    m = num_statements(r.n)
    arr = np.zeros(m, dtype=bool)
    for s in _bit_positions(r.bits):
        arr[s] = True
    return arr


def permute_relation(r: Relation, perm) -> Relation:
    """Relabel vertices: v -> perm[v-1] (1-based image tuple)."""
    out = 0
    for s in r.statements():
        img = make_statement(perm[s.i - 1], perm[s.j - 1],
                             frozenset(perm[v - 1] for v in s.K))
        out |= 1 << statement_index(r.n, img)
    return Relation(r.n, out)


def _packed_min_over_perms(arr: np.ndarray, maps: np.ndarray) -> bytes:
    best = None
    scratch = np.empty_like(arr)
    for row in maps:
        scratch[row] = arr
        cand = np.packbits(scratch).tobytes()
        if best is None or cand < best:
            best = cand
    return best


def canonical_form(r: Relation, modulo_duality: bool = True) -> bytes:
    """Lexicographically least packed bitset over all vertex permutations.

    With modulo_duality the dual relation's permutations compete as well, so
    equal byte strings mean equivalence modulo isomorphy and duality.
    Supported for n <= 7 (factorial scan).
    """
    if r.n > 7:
        raise ValueError("canonical forms use a factorial scan; n <= 7 only")
    maps = _perm_index_maps(r.n)
    best = _packed_min_over_perms(_to_bool_array(r), maps)
    if modulo_duality:
        cand = _packed_min_over_perms(_to_bool_array(dual(r)), maps)
        if cand < best:
            best = cand
    return best


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
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty relation file")
    toks = lines[0].split()
    if len(toks) != 2 or toks[0] != "n":
        raise ValueError(f"line 1: expected 'n <count>', got {lines[0]!r}")
    n = int(toks[1])
    if len(lines) > 1 and lines[1].startswith("hex"):
        return _parse_hex(n, lines[1:])
    stmts = [_parse_statement_line(ln, no + 2) for no, ln in enumerate(lines[1:])]
    return Relation.from_statements(n, stmts)


def _parse_hex(n: int, lines: list[str]) -> Relation:
    """The 'hex <digits>' line: exactly ceil(m / 8) bytes for m statements, zero padding."""
    if len(lines) > 1:
        raise ValueError(f"line 3: unexpected text after the hex line: {lines[1]!r}")
    toks = lines[0].split()
    if toks[0] != "hex" or len(toks) > 2:
        raise ValueError(f"line 2: expected 'hex <digits>', got {lines[0]!r}")
    try:
        raw = bytes.fromhex(toks[1] if len(toks) == 2 else "")
    except ValueError:
        raise ValueError(f"line 2: malformed hex digits {lines[0]!r}") from None
    m = num_statements(n)
    if len(raw) != -(-m // 8):
        raise ValueError(f"line 2: {m} statements need {-(-m // 8)} hex bytes, got {len(raw)}")
    arr = np.unpackbits(np.frombuffer(raw, dtype=np.uint8))
    if arr[m:].any():
        raise ValueError(f"line 2: padding bits beyond statement {m - 1} are set")
    return Relation(n, int.from_bytes(np.packbits(arr[:m], bitorder="little").tobytes(), "little"))


def _parse_statement_line(line: str, line_no: int) -> Statement:
    body = line.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ValueError(f"line {line_no}: expected '(i j | k ...)', got {line!r}")
    try:
        left, _, right = body[1:-1].partition("|")
        i, j = map(int, left.split())
        K = tuple(map(int, right.split()))
        return make_statement(i, j, K)
    except ValueError:
        raise ValueError(f"line {line_no}: malformed statement {line!r}") from None
