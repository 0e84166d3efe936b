"""Symbolic layer: path expansions of minors and monomial model ideals.

Under the unique-path hypothesis (every non-edge of G joined by at most one
path in H) the vanishing ideal of the correlation model is generated by
square-free monomials: one variable per non-edge of H, one path monomial
per H-path whose endpoint pair is a non-edge of G.

The exact oracle expands submaximal minors of the generic unit-diagonal
symmetric matrix patterned on H by cofactors over rational coefficients;
it is the single source of truth for signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import graphs
from .errors import PathCapExceeded, UniquePathRequired
from .graphs import Graph

Edge = tuple[int, int]


def _edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


class SparsePolynomial:
    """Polynomial in edge variables with Fraction coefficients.

    Monomials are sorted tuples of edges, repeated per exponent; the zero
    polynomial has no terms.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    self.terms[tuple(sorted(mono))] = coeff

    @staticmethod
    def zero() -> "SparsePolynomial":
        return SparsePolynomial()

    @staticmethod
    def constant(c) -> "SparsePolynomial":
        return SparsePolynomial({(): Fraction(c)})

    @staticmethod
    def variable(i: int, j: int) -> "SparsePolynomial":
        return SparsePolynomial({(_edge(i, j),): Fraction(1)})

    @staticmethod
    def monomial(edges) -> "SparsePolynomial":
        return SparsePolynomial({tuple(sorted(_edge(*e) for e in edges)): Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        res = SparsePolynomial()
        res.terms = out
        return res

    def __neg__(self):
        res = SparsePolynomial()
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        res = SparsePolynomial()
        res.terms = out
        return res

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, SparsePolynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, values: dict) -> float:
        """Numeric value given a {(i, j): float} assignment for the variables."""
        total = 0.0
        for mono, c in self.terms.items():
            v = float(c)
            for e in mono:
                v *= values[e]
            total += v
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0])):
            var = "*".join(f"s{i}{j}" for i, j in mono) or "1"
            bits.append(f"{c}*{var}")
        return " + ".join(bits)


def _symbolic_entry(h: Graph, a: int, b: int) -> SparsePolynomial:
    if a == b:
        return SparsePolynomial.constant(1)
    if h.has_edge(a, b):
        return SparsePolynomial.variable(a, b)
    return SparsePolynomial.zero()


def _sym_det(rows: list[int], cols: list[int], entry) -> SparsePolynomial:
    """Cofactor expansion along the row with fewest structural nonzeros."""
    m = len(rows)
    if m == 0:
        return SparsePolynomial.constant(1)
    if m == 1:
        return entry(rows[0], cols[0])
    grid = [[entry(r, c) for c in cols] for r in rows]
    counts = [sum(not e.is_zero() for e in row) for row in grid]
    r = counts.index(min(counts))
    if counts[r] == 0:
        return SparsePolynomial.zero()
    total = SparsePolynomial.zero()
    sub_rows = rows[:r] + rows[r + 1 :]
    for c, e in enumerate(grid[r]):
        if e.is_zero():
            continue
        sub_cols = cols[:c] + cols[c + 1 :]
        minor = _sym_det(sub_rows, sub_cols, entry)
        term = e * minor
        if (r + c) % 2:
            term = -term
        total = total + term
    return total


def symbolic_apm(h: Graph, k: int, l: int) -> SparsePolynomial:
    """Exact det of the generic H-patterned matrix with row k, column l removed.

    Unit diagonal, zero entries off the edges of h, variable s_ij on edges.
    """
    if h.n > 7:
        raise ValueError("symbolic expansion supported for n <= 7")
    graphs._check_vertex(h.n, k)
    graphs._check_vertex(h.n, l)
    if k == l:
        raise ValueError("needs two distinct vertices")
    verts = list(range(1, h.n + 1))
    rows = [v for v in verts if v != k]
    cols = [v for v in verts if v != l]
    return _sym_det(rows, cols, lambda a, b: _symbolic_entry(h, a, b))


def symbolic_principal_minor(h: Graph, keep) -> SparsePolynomial:
    """Exact det of the H-patterned matrix restricted to the kept vertices."""
    if h.n > 7:
        raise ValueError("symbolic expansion supported for n <= 7")
    vs = sorted(keep)
    return _sym_det(vs, vs, lambda a, b: _symbolic_entry(h, a, b))


@dataclass(frozen=True)
class PathTerm:
    """One simple path with its sign (-1)^(|V(p)| - 1) and edge monomial."""

    path: tuple[int, ...]
    sign: int
    monomial: tuple[Edge, ...]


def path_expansion(h: Graph, k: int, l: int) -> list[PathTerm]:
    """Terms of the path expansion of the (k, l) submaximal minor.

    Summing sign * s_p * det(principal minor on the path complement) over
    these terms gives (-1)^(k+l) det(Sigma_{N\\k, N\\l}); an empty list
    means that minor vanishes identically.
    """
    return [PathTerm(path, (-1) ** (len(path) - 1), _path_edges(path))
            for path in graphs.all_paths(h, k, l)]


def _path_edges(path) -> tuple[Edge, ...]:
    """The sorted edges of a path given as its vertex sequence."""
    return tuple(sorted(_edge(a, b) for a, b in zip(path, path[1:])))


def _unique_paths(g: Graph, h: Graph) -> list[tuple[int, ...]] | None:
    """The h-path of every non-edge of g that has one, or None if one has two."""
    graphs._same_ground_set(g, h)
    try:
        return [p for k, l in g.non_edges() for p in graphs.all_paths(h, k, l, cap=1)]
    except PathCapExceeded:
        return None


def unique_path_hypothesis(g: Graph, h: Graph) -> bool:
    """At most one h-path between the endpoints of every non-edge of g."""
    return _unique_paths(g, h) is not None


def _minimal_sets(sets) -> list[frozenset]:
    """The inclusion-minimal sets among sets, by size and then sorted members."""
    minimal = []
    for s in sorted(set(sets), key=lambda s: (len(s), sorted(s))):
        if not any(m <= s for m in minimal):
            minimal.append(s)
    return minimal


@dataclass(frozen=True)
class MonomialIdeal:
    """Square-free monomial ideal in edge variables, minimal generators only."""

    n: int
    generators: frozenset[frozenset[Edge]]

    @staticmethod
    def from_generators(n: int, gens) -> "MonomialIdeal":
        return MonomialIdeal(n, frozenset(_minimal_sets(frozenset(_edge(*e) for e in g)
                                                         for g in gens)))

    def sorted_generators(self) -> list[tuple[Edge, ...]]:
        return sorted((tuple(sorted(g)) for g in self.generators), key=lambda t: (len(t), t))

    def generator_strings(self) -> list[str]:
        fmt = "s_{}_{}" if self.n > 9 else "s_{}{}"
        return [
            "*".join(fmt.format(i, j) for i, j in g) for g in self.sorted_generators()
        ]


def sci_monomial_generators(g: Graph, h: Graph) -> MonomialIdeal:
    """Minimal monomial generators of the correlation model's vanishing ideal.

    Requires the unique-path hypothesis; otherwise the ideal need not be
    monomial and the input is refused.
    """
    paths = _unique_paths(g, h)
    if paths is None:
        raise UniquePathRequired("some non-edge of G has several connecting paths in H")
    return MonomialIdeal.from_generators(
        g.n, [[e] for e in h.non_edges()] + [_path_edges(p) for p in paths])


def minimal_primes(ideal: MonomialIdeal) -> list[frozenset[Edge]]:
    """Minimal vertex covers of the generators: one variable set per prime.

    Setting the variables of one cover to zero (and the rest free) gives a
    coordinate subspace on which every generator vanishes.
    """
    gens = sorted(ideal.generators, key=len)
    covers: list[frozenset] = []

    def rec(remaining, chosen):
        if not remaining:
            covers.append(frozenset(chosen))
            return
        gen = remaining[0]
        for var in sorted(gen):
            rec([g for g in remaining[1:] if var not in g], chosen | {var})

    rec(gens, frozenset())
    return _minimal_sets(covers)


def inverse_graphical_recognition(g: Graph, h: Graph):
    """The augmented graph G' certifying that the model is inverse graphical.

    Under the unique-path hypothesis the ideal is prime iff every minimal
    generator is one variable, that is iff every h-path between a non-edge
    pair of g uses an edge outside g; then the model equals the inverse
    graphical model of the common-edge graph and G' is g plus all shared
    non-edges.  Returns None when the criterion fails.
    """
    if any(len(gen) > 1 for gen in sci_monomial_generators(g, h).generators):
        return None
    return Graph.from_edges(g.n, list(g.edges) + [e for e in g.non_edges() if not h.has_edge(*e)])
