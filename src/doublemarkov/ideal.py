"""Symbolic layer: path expansions of minors and monomial model ideals.

Under the unique-path hypothesis (every non-edge of G joined by at most one
path in H) the vanishing ideal of the correlation model is generated by
square-free monomials: one variable per non-edge of H, one path monomial
per H-path whose endpoint pair is a non-edge of G.

The exact oracle expands minors of the generic unit-diagonal symmetric
matrix patterned on H by the Leibniz formula over the pattern's nonzero
entries, with rational coefficients; it is the single source of truth for
signs.
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
        self.terms = self._summed((m, Fraction(c)) for m, c in (terms or {}).items()).terms

    @classmethod
    def _summed(cls, pairs) -> "SparsePolynomial":
        """The sum of (monomial, coefficient) pairs: monomials sorted, zero sums dropped."""
        out = {}
        for mono, c in pairs:
            mono = tuple(sorted(mono))
            out[mono] = out.get(mono, 0) + c
        res = cls.__new__(cls)
        res.terms = {m: Fraction(c) for m, c in out.items() if c}
        return res

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
        return self._summed([*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return self._summed((m, -c) for m, c in self.terms.items())

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = SparsePolynomial.constant(other)
        return self._summed((m1 + m2, c1 * c2) for m1, c1 in self.terms.items()
                            for m2, c2 in other.terms.items())

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


def _check_symbolic(h: Graph, vertices) -> list[int]:
    """The distinct vertices as ints, after refusing h past 7 vertices or a vertex outside h."""
    if h.n > 7:
        raise ValueError("symbolic expansion supported for n <= 7")
    return graphs._vertices(h.n, vertices)[0]


def _patterned_det(h: Graph, rows: list[int], cols: list[int]) -> SparsePolynomial:
    """Leibniz expansion of the unit-diagonal h-patterned matrix on rows x cols.

    The walk emits one signed term per bijection rows -> cols through nonzero
    entries, the diagonal (1) or an edge of h (s_ij): taking the p-th remaining
    column (from 0) flips the sign when p is odd.  The terms are summed once.
    """
    entry = {(r, c): () if r == c else (_edge(r, c),)
             for r in rows for c in cols if r == c or h.has_edge(r, c)}
    terms = []

    def walk(i, free, mono, sign):
        if i == len(rows):
            terms.append((mono, sign))
            return
        for p, c in enumerate(free):
            e = entry.get((rows[i], c))
            if e is not None:
                walk(i + 1, free[:p] + free[p + 1:], mono + e, -sign if p % 2 else sign)

    walk(0, tuple(cols), (), 1)
    return SparsePolynomial._summed(terms)


def symbolic_apm(h: Graph, k: int, l: int) -> SparsePolynomial:
    """Exact det of the generic H-patterned matrix with row k, column l removed.

    Unit diagonal, zero entries off the edges of h, variable s_ij on edges.
    """
    k, l = _check_symbolic(h, (k, l))
    verts = range(1, h.n + 1)
    return _patterned_det(h, [v for v in verts if v != k], [v for v in verts if v != l])


def symbolic_principal_minor(h: Graph, keep) -> SparsePolynomial:
    """Exact det of the H-patterned matrix restricted to the kept vertices."""
    vs = sorted(_check_symbolic(h, keep))
    return _patterned_det(h, vs, vs)


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
