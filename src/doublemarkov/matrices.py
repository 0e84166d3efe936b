"""Dense symmetric matrix layer: definiteness, minors, CI extraction.

Matrices are plain numpy arrays.  Float arrays go through LAPACK.  Arrays of
dtype object holding ``fractions.Fraction`` or int entries are exact: they
are scaled by the least common denominator of their entries to Python ints
(_integer_form), and det, is_pd and inverse all read their answers off one
fraction-free integer elimination (_eliminate), while relation_of_matrix
reads every statement's minor off one Schur-complement sweep of the same
integer form (_minor_sweep), which computes only the minors that the
statements and the sweep itself read, so paper examples are checked without
rounding.

Frozen minor convention: the almost-principal minor for (ij|K) is the
determinant of the submatrix with row set iK and column set jK, the
distinguished index first and K ascending after it.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import NotPositiveDefinite
from .graphs import (Graph, _check_vertex_count, _deleted_vertex, _line_past, _numbered_lines,
                     _vertices)
from . import ci

DEFAULT_TOL = 1e-8
# Fraction expands a decimal exponent into an integer of that many digits; past
# Python's default limit on the digits of an int read from text, refuse it.
MAX_EXPONENT = 4300
PIVOT_TOL = 1e-12
# The most entries one step of _minor_sweep updates: its gathers and temporaries then stay in
# cache, which at n = 16 halves the time of a sweep.
_STEP_ENTRIES = 1 << 15
_RATIO = re.compile(r"([-+]?[0-9]+)(?:/([0-9]+))?").fullmatch


def is_exact(a: np.ndarray) -> bool:
    return np.asarray(a).dtype == object


def as_sym(a, name: str = "matrix") -> np.ndarray:
    """Validate a square symmetric matrix and hand it back as an ndarray."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not len(a):
        raise ValueError(f"{name} has no rows")
    if is_exact(a):
        if not all(a[i, j] == a[j, i] for i in range(a.shape[0]) for j in range(i)):
            raise ValueError(f"{name} must be symmetric")
        if not all(isinstance(x, (Fraction, int)) for x in a.flat):
            raise ValueError(f"exact {name} entries must be Fraction or int")
    else:
        a = a.astype(float)
        if not np.isfinite(a).all():
            raise ValueError(f"{name} has non-finite entries")
        asym = np.abs(a - a.T).max()
        if asym > 0:
            # canonicalize away rounding-level asymmetry, reject real asymmetry
            if asym > 1e-12 * np.abs(a).max():
                raise ValueError(f"{name} must be symmetric")
            a = (a + a.T) / 2
    return a


def rational_matrix(rows) -> np.ndarray:
    """Object array of Fractions from nested ints/Fractions/strings like '3/7'."""
    data = [[_exact_entry(x) for x in row] for row in rows]
    n = len(data)
    if any(len(row) != n for row in data):
        raise ValueError("matrix rows have unequal lengths")
    return as_sym(np.array(data, dtype=object).reshape(n, n))


def _exact_entry(x) -> Fraction:
    """x as a Fraction, refusing a string whose decimal exponent exceeds MAX_EXPONENT."""
    if isinstance(x, str):
        exponent = x.lower().partition("e")[2].lstrip("+-").replace("_", "")
        if exponent.isdecimal() and int(exponent) > MAX_EXPONENT:
            raise ValueError(f"the exponent of {x[:24]!r} exceeds {MAX_EXPONENT}")
    return Fraction(x)


def _integer_form(a: np.ndarray) -> tuple[list[list[int]], int]:
    """Rows of a times the least common denominator of its entries, as ints, and that LCD.

    int and Fraction entries, all that as_sym lets through, are read as they
    are; any other entry goes through Fraction.
    """
    entries = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in a.flat]
    lcd = math.lcm(*(x.denominator for x in entries))
    ints = [x.numerator * (lcd // x.denominator) for x in entries]
    n = a.shape[0]
    return [ints[i * n:(i + 1) * n] for i in range(n)], lcd


def _eliminate(rows: list[list[int]], augment: bool):
    """Fraction-free (Bareiss) elimination of an integer matrix A: (pivots, swaps, rows).

    Each step takes the first row with a nonzero entry in the pivot column
    and updates row i to (p_k * row_i - row_i[k] * row_k) // p_{k-1}; every
    division is exact, so the pass never leaves the integers.  pivots starts
    with p_0 = 1 and, when swaps is 0, its k-th entry is the k-th leading
    principal minor of A.  The last pivot is det(A) times (-1)^swaps, or 0
    where A is singular (the pass stops there).  With augment the pass runs
    Gauss-Jordan on [A | I], clearing above the pivots too, and the right
    block of the returned rows ends as that last pivot times the inverse of A.
    Only entries right of the pivot column are kept up to date.
    """
    n = len(rows)
    m = [row + [int(i == j) for j in range(n)] if augment else list(row)
         for i, row in enumerate(rows)]
    pivots, swaps = [1], 0
    for k in range(n):
        p = next((r for r in range(k, n) if m[r][k]), None)
        if p is None:
            pivots.append(0)
            break
        if p != k:
            m[k], m[p] = m[p], m[k]
            swaps += 1
        top, piv, prev = m[k], m[k][k], pivots[-1]
        for i in range(n) if augment else range(k + 1, n):
            if i != k:
                row, f = m[i], m[i][k]
                row[k + 1:] = [(piv * x - f * y) // prev
                               for x, y in zip(row[k + 1:], top[k + 1:])]
        pivots.append(piv)
    return pivots, swaps, m


def det(a: np.ndarray):
    """Determinant of a square matrix, exact for exact input.

    A float stack of shape (k, m, m) gives the array of its k determinants
    from one batched LAPACK call, bitwise equal to k single calls; an empty
    stack gives an empty array and a (k, 0, 0) stack k ones.  Exact stacks
    are refused.
    """
    a = np.asarray(a)
    if a.ndim == 3:
        if is_exact(a):
            raise ValueError("exact det takes one matrix, not a stack")
        return np.linalg.det(a)
    if is_exact(a):
        rows, lcd = _integer_form(a)
        pivots, swaps, _ = _eliminate(rows, augment=False)
        return Fraction((-1) ** swaps * pivots[-1], lcd ** len(rows))
    return float(np.linalg.det(a))


def chol_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of L L^T through the inverse of its lower triangular factor L."""
    inv_l = np.linalg.inv(L)
    return inv_l.T @ inv_l


def _pd_factor(a: np.ndarray):
    """Cholesky factor L of float a if every L_ii^2 exceeds PIVOT_TOL * a_ii, else None.

    The one float definiteness rule, behind is_pd, inverse and the model-point search; both
    sides scale alike under a -> D a D, so the verdict does not depend on the scale."""
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    return L if (L.diagonal() ** 2 > PIVOT_TOL * a.diagonal()).all() else None


def is_pd(a) -> bool:
    """Positive definiteness; Cholesky pivots by _pd_factor (exact: Sylvester's criterion)."""
    return _is_pd(as_sym(a))


def _is_pd(a: np.ndarray) -> bool:
    if is_exact(a):
        pivots, swaps, _ = _eliminate(_integer_form(a)[0], augment=False)
        return swaps == 0 and min(pivots) > 0
    return _pd_factor(a) is not None


def _require_pd(a: np.ndarray):
    if not _is_pd(a):
        raise NotPositiveDefinite("matrix is not positive definite")


def inverse(a) -> np.ndarray:
    """Inverse of a positive definite matrix; float mode goes via one Cholesky.

    Exact mode reads the definiteness verdict and the entries off one
    augmented elimination of the integer form.
    """
    return _inverse(as_sym(a))


def _inverse(a: np.ndarray) -> np.ndarray:
    if is_exact(a):
        rows, lcd = _integer_form(a)
        pivots, swaps, m = _eliminate(rows, augment=True)
        if not swaps and min(pivots) > 0:
            n, d = len(rows), pivots[-1]
            return np.array([Fraction(x * lcd, d) for row in m for x in row[n:]],
                            dtype=object).reshape(n, n)
    elif (L := _pd_factor(a)) is not None:
        inv = chol_inverse(L)
        return (inv + inv.T) / 2
    raise NotPositiveDefinite("matrix is not positive definite")


def almost_principal_minor(a, i: int, j: int, K=()):
    """det of the (ij|K) minor: rows [i] + sorted K, columns [j] + sorted K."""
    a = as_sym(a)
    (i, j, *K), _ = _vertices(a.shape[0], (i, j, *K), statement=True)
    ks = sorted(K)
    return det(a[np.ix_(np.subtract([i, *ks], 1), np.subtract([j, *ks], 1))])


def _minor_sweep(a: np.ndarray) -> np.ndarray:
    """The almost-principal minors M_K[i, j] = det(a[iK, jK]) for i <= j outside K, packed.

    The sets K run in bitmask order over 0-based vertices, and the minors of
    one set row by row; _sweep_plan(n) holds this layout, n(n + 3) 2^(n-3)
    entries in all.  With S_K the Schur complement of a_KK, M_K = det(a_KK)
    S_K, so pivoting S on a vertex k outside K (the rank-1 update
    S - S[:, k] S[k, :] / S[k, k]) reads, by Sylvester's identity,

        M_{K+k} = (M_K[k, k] M_K - M_K[:, k] M_K[k, :]) / det(a_KK),

    with det(a_{K+k, K+k}) = M_K[k, k].  The sets with largest vertex k are
    batched updates of the sets [0, 2^k) before them, for k = 0..n-1, each
    reading only the entries (i, j), (i, k), (k, j) and (k, k) of a parent
    (M_K is symmetric, so (i, k) is read as (k, i) where i > k).  On a matrix
    of Python ints (dtype object) every division is exact and done as floor
    division, so exact mode never leaves the integers.

    Exact mode also checks Sylvester's criterion on the way: each step reads
    the (k, k) entry of its last parent P, det(a_{P+k, P+k}), and raises
    NotPositiveDefinite unless it is > 0.  For the last step of k that is the
    leading minor det(a[:k+1, :k+1]), so every later divisor, a principal
    minor of a positive definite leading block, is nonzero; a positive
    definite matrix has no principal minor <= 0, so nothing more is refused.
    """
    exact = a.dtype == object
    divide = np.floor_divide if exact else np.true_divide
    upper, steps, _ = _sweep_plan(a.shape[0])
    M = np.empty(steps[-1][0].stop + 1, dtype=a.dtype)  # the last slot: det(a_KK) = 1, K empty
    M[:len(upper[0])] = a[upper]
    M[-1] = 1
    for block, reads, pivots, counts in steps:
        if exact and M[pivots[0, -1]] <= 0:
            raise NotPositiveDefinite("matrix is not positive definite")
        par, (piv, dets) = M[reads], M[pivots].repeat(counts, 1)
        ij, ik = par[0], par[1]
        ik *= par[2]  # in place: at n = 16 fresh temporaries cost more than the update
        np.multiply(piv, ij, out=ij)
        ij -= ik
        divide(ij, dets, out=M[block])
    return M[:-1]


@lru_cache(maxsize=None)
def _sweep_plan(n: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple, np.ndarray]:
    """Where _minor_sweep on n vertices keeps and reads its minors: (upper, steps, statements).

    upper indexes the matrix entries i <= j row by row, the block of K empty.
    A step updates a run of consecutive parents P < 2^k of one vertex k, with
    at most _STEP_ENTRIES entries, and the steps of k tile the block of the
    sets [2^k, 2^(k+1)).  It is (block, reads, pivots, counts): the slice it
    writes; per entry, the positions of (i, j), (i, k) and (k, j) in P; per
    parent, the positions of its (k, k) entry and of det(a_PP) (the (k', k')
    entry of P's own parent, k' the largest vertex of P, or for P empty the
    slot past the last entry); and per new set, its entry count.  statements
    holds the position of each statement's minor, in the order of
    ci._statement_entries.
    """
    sets = np.arange(1 << n, dtype=np.intp)
    size = np.bitwise_count(sets).astype(np.intp)
    outside = n - size
    start = np.zeros(len(sets) + 1, dtype=np.intp)  # start[K]: the position of K's block
    np.cumsum(outside * (outside + 1) // 2, out=start[1:])

    def offset(m, a, b):
        """Offset of the entry at ranks a <= b in a block of m vertices outside K."""
        return a * (2 * m - a - 1) // 2 + b

    # A parent with m vertices outside it and k at rank c among them has a new set whose
    # entries are its pairs of ranks without c.  Row (m, c) of table holds, in the new set's
    # order, their offsets of (i, j), (i, k) and (k, j) in the parent.
    a, b = np.triu_indices(n - 1)
    width = len(a)  # the most entries a new set has
    m, c = np.arange(n + 1)[:, None, None], np.arange(n)[:, None]
    i, j = a + (a >= c), b + (b >= c)
    every = np.stack([offset(m, i, j), offset(m, np.minimum(i, c), np.maximum(i, c)),
                      offset(m, np.minimum(j, c), np.maximum(j, c))])
    table = np.zeros_like(every)
    for t in range(2, n + 1):  # for m = t the new set's pairs are those below t - 1
        table[:, t, :, :t * (t - 1) // 2] = every[:, t][..., b < t - 1]
    steps, divisors = [], [start[-1:]]
    for k in range(n):
        par = sets[:1 << k]
        bounds = start[1 << k:(2 << k) + 1].tolist()  # the new sets' blocks, one after another
        counts = np.diff(bounds)
        r = k - size[par]  # the rank of k outside P
        row = (outside[par] * n + r) * width  # P's row (m, c) of table
        entry = np.arange(bounds[0], bounds[-1]) + np.repeat(row - bounds[:-1], counts)
        reads = table.reshape(3, -1)[:, entry] + np.repeat(start[par], counts)
        pivots = np.stack([start[par] + offset(outside[par], r, r), np.concatenate(divisors)])
        divisors.append(pivots[0])
        ci._read_only(reads, pivots, counts)
        cuts = [*range(0, 1 << k, _STEP_ENTRIES // max(width, 1)), 1 << k]
        for p, q in zip(cuts, cuts[1:]):
            lo, hi = bounds[p], bounds[q]
            steps.append((slice(lo, hi), reads[:, lo - bounds[0]:hi - bounds[0]], pivots[:, p:q],
                          counts[p:q]))
    K, i, j = ci._statement_entries(n)
    a, b = (v - np.bitwise_count(K & ((1 << v) - 1)) for v in (i, j))  # ranks outside K
    (statements,) = ci._read_only(start[K] + offset(outside[K], a, b))
    return ci._read_only(*np.triu_indices(n)), tuple(steps), statements


def relation_of_matrix(a, tol: float = DEFAULT_TOL) -> ci.Relation:
    """CI relation <a>: statements whose almost-principal minor vanishes.

    All minors come from one sweep over the conditioning sets K
    (_minor_sweep), not from one determinant per statement.  Float entries
    use |minor| <= tol * sqrt(prod of diagonal entries over the minor's rows
    and columns), which is invariant under diagonal rescaling D a D and,
    unlike a column-norm scale, does not degenerate on 1x1 minors (where the
    only column is the tested entry itself); the sweep runs on the
    correlation matrix, where that scale is 1 and the test reads
    |det(R_KK) (S_K)_ij| <= tol for the Schur complement S_K of R_KK.  Exact
    entries use minor == 0, swept on the matrix times the least common
    denominator of its entries, which scales every minor by a power of it;
    that sweep also decides definiteness (Sylvester's criterion), where
    float entries go through the Cholesky test of is_pd.
    """
    _check_tol(tol)
    a = as_sym(a)
    n = a.shape[0]
    _check_vertex_count(n)  # before the sweep plan and the statement table it reads
    statements = _sweep_plan(n)[2]
    if is_exact(a):
        ints = np.array(_integer_form(a)[0], dtype=object).reshape(n, n)
        hits = _minor_sweep(ints)[statements] == 0
    else:
        _require_pd(a)
        hits = np.abs(_minor_sweep(_correlation(a)[1])[statements]) <= tol
    return ci._from_bool_array(n, hits)


def to_correlation(a) -> tuple[np.ndarray, np.ndarray]:
    """Split a = D R D with D = diag(sqrt of a's diagonal) and unit-diagonal R."""
    return _correlation(as_sym(a))


def _correlation(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if is_exact(a):
        raise ValueError("to_correlation needs float input; square roots are irrational")
    dvec = np.diag(a)
    if (dvec <= 0).any():
        raise NotPositiveDefinite("diagonal must be strictly positive")
    d = np.sqrt(dvec)
    r = a / np.outer(d, d)
    np.fill_diagonal(r, 1.0)
    return d, (r + r.T) / 2


def marginal_matrix(a, k: int) -> np.ndarray:
    """Principal submatrix dropping row and column k."""
    a = as_sym(a)
    k = _deleted_vertex(a.shape[0], k)
    _require_pd(a)
    keep = [v for v in range(a.shape[0]) if v != k - 1]
    return a[np.ix_(keep, keep)]


def conditional_matrix(a, k: int) -> np.ndarray:
    """Schur complement of the k-th diagonal entry."""
    a = as_sym(a)
    k = _deleted_vertex(a.shape[0], k)
    _require_pd(a)
    k0 = k - 1
    keep = [v for v in range(a.shape[0]) if v != k0]
    col = a[keep, k0]
    if is_exact(a):
        inv = 1 / Fraction(a[k0, k0])
        out = a[np.ix_(keep, keep)] - inv * np.outer(col, col)
    else:
        out = a[np.ix_(keep, keep)] - np.outer(col, col) / a[k0, k0]
        out = (out + out.T) / 2
    return out


def hadamard(a, w) -> np.ndarray:
    a = as_sym(a)
    w = as_sym(w, "weight matrix")
    _check_same_arithmetic(a, w)
    if a.shape != w.shape:
        raise ValueError("size mismatch in Hadamard product")
    return a * w


def _check_same_arithmetic(a: np.ndarray, b: np.ndarray):
    if is_exact(a) != is_exact(b):
        raise ValueError("cannot mix exact and float blocks")


def direct_sum_matrix(a, b) -> np.ndarray:
    a = as_sym(a)
    b = as_sym(b, "second matrix")
    _check_same_arithmetic(a, b)
    n, m = a.shape[0], b.shape[0]
    if is_exact(a):
        out = np.full((n + m, n + m), Fraction(0), dtype=object)
    else:
        out = np.zeros((n + m, n + m))
    out[:n, :n] = a
    out[n:, n:] = b
    return out


def membership_residual(a, g: Graph, h: Graph) -> np.ndarray:
    """Concatenated (a^-1)_ij over non-edges of g, then a_kl over non-edges of h.

    Pairs run in lexicographic order.  a belongs to the model of (g, h)
    numerically iff the max-norm of this vector is below tolerance.
    """
    a = as_sym(a)
    _check_size(a, g, h)
    return _residual(a, _inverse(a), g, h)


def _residual(a: np.ndarray, inv: np.ndarray, g: Graph, h: Graph) -> np.ndarray:
    out = [inv[i - 1, j - 1] for i, j in g.non_edges()]
    out += [a[k - 1, l - 1] for k, l in h.non_edges()]
    return np.array(out, dtype=object if is_exact(a) else float)


def _check_size(a: np.ndarray, *gs: Graph):
    """Refuse a square matrix a unless every graph in gs has a vertex per row of a."""
    if any(g.n != len(a) for g in gs):
        sizes = " and ".join(str(g.n) for g in gs)
        raise ValueError(f"matrix and graphs must share the ground set (a {len(a)} x {len(a)} "
                         f"matrix, graphs on {sizes} vertices)")


def is_member(a, g: Graph, h: Graph, tol: float = DEFAULT_TOL) -> bool:
    _check_tol(tol)  # before the matrix, so a bad tol is refused whatever a is
    return _membership(as_sym(a), g, h, tol)[1]


def _membership(a: np.ndarray, g: Graph, h: Graph, tol: float):
    """(residual, verdict, judged matrix m, m^-1) of a checked a and tol: exact a is m, every
    residual 0; float a is judged at its correlation matrix m, every residual <= tol, so
    a -> D a D keeps the verdict.  The sizes are checked before the definiteness of a is."""
    _check_size(a, g, h)
    m = a if is_exact(a) else _correlation(a)[1]
    inv = _inverse(m)
    res = _residual(m, inv, g, h)
    member = not any(res) if is_exact(m) else bool(np.abs(res).max(initial=0.0) <= tol)
    return res, member, m, inv


def _check_tol(tol: float):
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")


# -- plain text I/O -----------------------------------------------------------

def parse_matrix(text: str) -> np.ndarray:
    """Parse 'n' then n rows of n numbers; any 'p/q' token switches to exact mode."""
    lines = _numbered_lines(text, "matrix")
    no, head = lines[0]
    try:
        (n,) = map(int, head.split())
    except ValueError:
        raise ValueError(f"line {no}: expected the matrix size, got {head!r}") from None
    try:
        _check_vertex_count(n)
    except ValueError as err:
        raise ValueError(f"line {no}: {err}") from None
    if len(lines) != n + 1:
        raise ValueError(f"line {_line_past(lines, n + 1, text)}: expected {n} matrix rows, "
                         f"found {len(lines) - 1}")
    entry, vals = _exact_token if "/" in text else float, []  # the size line has no '/'
    for no, line in lines[1:]:
        row = line.split()
        if len(row) != n:
            raise ValueError(f"line {no}: expected {n} entries, found {len(row)}")
        try:
            vals += map(entry, row)
        except (ValueError, ZeroDivisionError) as e:  # ZeroDivisionError: a 'p/0' entry
            raise ValueError(f"line {no}: bad matrix entry: {e}") from None
    return as_sym(np.array(vals).reshape(n, n))  # Fractions give dtype object


def _exact_token(tok: str) -> Fraction:
    """An ASCII integer or 'p/q' token read by int; any other goes through _exact_entry."""
    m = _RATIO(tok)
    return Fraction(int(m[1]), int(m[2] or 1)) if m else _exact_entry(tok)


def format_matrix(a) -> str:
    a = as_sym(a)
    n = a.shape[0]
    if is_exact(a):
        body = "\n".join(" ".join(str(Fraction(x)) for x in row) for row in a)
    else:
        body = "\n".join(" ".join(repr(float(x)) for x in row) for row in a)
    return f"{n}\n{body}\n"
