"""Dense symmetric matrix layer: definiteness, minors, CI extraction.

Matrices are plain numpy arrays.  Float arrays go through LAPACK.  Arrays of
dtype object holding ``fractions.Fraction`` or int entries are exact: they
are scaled by the least common denominator of their entries to Python ints
(_integer_form), and det, is_pd and inverse all read their answers off one
fraction-free integer elimination (_eliminate), while relation_of_matrix
sweeps the same integer form, so paper examples are checked without
rounding.

Frozen minor convention: the almost-principal minor for (ij|K) is the
determinant of the submatrix with row set iK and column set jK, the
distinguished index first and K ascending after it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import NotPositiveDefinite
from .graphs import Graph, _check_vertex_count, _numbered_lines
from . import ci

DEFAULT_TOL = 1e-8
# Fraction expands a decimal exponent into an integer of that many digits; past
# Python's default limit on the digits of an int read from text, refuse it.
MAX_EXPONENT = 4300
PIVOT_TOL = 1e-12


def is_exact(a: np.ndarray) -> bool:
    return np.asarray(a).dtype == object


def as_sym(a, name: str = "matrix") -> np.ndarray:
    """Validate a square symmetric matrix and hand it back as an ndarray."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
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
    """Rows of a times the least common denominator of its entries, as ints, and that LCD."""
    entries = [Fraction(x) for x in a.flat]
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


def cholesky_or_none(a: np.ndarray):
    """Lower Cholesky factor of a float matrix, None where LAPACK refuses it."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


def chol_inverse(L: np.ndarray) -> np.ndarray:
    """Inverse of L L^T through the inverse of its lower triangular factor L."""
    inv_l = np.linalg.inv(L)
    return inv_l.T @ inv_l


def _pd_factor(a: np.ndarray):
    """Cholesky factor of float a if every pivot clears the is_pd threshold, else None."""
    L = cholesky_or_none(a)
    return L if L is not None and (np.diag(L) ** 2 > PIVOT_TOL * np.diag(a)).all() else None


def is_pd(a) -> bool:
    """Positive definiteness; Cholesky pivots (exact: Sylvester's criterion).

    Float mode requires every squared Cholesky pivot L_ii^2 to exceed
    PIVOT_TOL * a_ii, so barely singular matrices are rejected; both sides
    scale alike under a -> D a D, so the verdict does not depend on the scale.
    """
    a = as_sym(a)
    if is_exact(a):
        pivots, swaps, _ = _eliminate(_integer_form(a)[0], augment=False)
        return swaps == 0 and min(pivots) > 0
    return _pd_factor(a) is not None


def _require_pd(a):
    if not is_pd(a):
        raise NotPositiveDefinite("matrix is not positive definite")


def inverse(a) -> np.ndarray:
    """Inverse of a positive definite matrix; float mode goes via one Cholesky.

    Exact mode reads the definiteness verdict and the entries off one
    augmented elimination of the integer form.
    """
    a = as_sym(a)
    if is_exact(a):
        rows, lcd = _integer_form(a)
        pivots, swaps, m = _eliminate(rows, augment=True)
        if swaps or min(pivots) <= 0:
            raise NotPositiveDefinite("matrix is not positive definite")
        n, d = len(rows), pivots[-1]
        return np.array([Fraction(x * lcd, d) for row in m for x in row[n:]],
                        dtype=object).reshape(n, n)
    L = _pd_factor(a)
    if L is None:
        raise NotPositiveDefinite("matrix is not positive definite")
    inv = chol_inverse(L)
    return (inv + inv.T) / 2


def almost_principal_minor(a, i: int, j: int, K=()):
    """det of the (ij|K) minor: rows [i] + sorted K, columns [j] + sorted K."""
    a = as_sym(a)
    ks = sorted(K)
    ci._vertex_mask(a.shape[0], i, j, ks)
    return det(a[np.ix_(np.subtract([i, *ks], 1), np.subtract([j, *ks], 1))])


def _minor_sweep(a: np.ndarray) -> np.ndarray:
    """Every almost-principal minor M_K[i, j] = det(a[iK, jK]), one array per set K.

    Entry m of the result belongs to the set K whose bitmask over 0-based
    vertices is m; entries with i or j in K are zero.  With S_K the Schur
    complement of a_KK, M_K = det(a_KK) S_K, so pivoting S on a vertex k
    outside K (the rank-1 update S - S[:, k] S[k, :] / S[k, k]) reads, by
    Sylvester's identity,

        M_{K+k} = (M_K[k, k] M_K - M_K[:, k] M_K[k, :]) / det(a_KK),

    with det(a_{K+k, K+k}) = M_K[k, k].  The sets with largest vertex k are
    one batched update of the sets [0, 2^k) before them, for k = 0..n-1.
    On a matrix of Python ints (dtype object) every division is exact and
    done as floor division, so exact mode never leaves the integers.  Memory
    is 2^n n^2 entries.

    Exact mode also checks Sylvester's criterion on the way: step k reads
    the leading minor det(a[:k+1, :k+1]) as its last pivot and raises
    NotPositiveDefinite unless it is > 0, so every later divisor, a
    principal minor of a positive definite leading block, is nonzero.
    """
    n = a.shape[0]
    exact = a.dtype == object
    divide = np.floor_divide if exact else np.true_divide
    M = np.empty((1 << n, n, n), dtype=a.dtype)
    dets = np.empty(1 << n, dtype=a.dtype)
    M[0] = a
    dets[0] = 1
    for k in range(n):
        half = 1 << k
        par, out = M[:half], M[half:2 * half]
        piv = par[:, k, k]
        if exact and piv[-1] <= 0:
            raise NotPositiveDefinite("matrix is not positive definite")
        np.multiply(par[:, :, k, None], par[:, None, k, :], out=out)
        np.subtract(piv[:, None, None] * par, out, out=out)
        divide(out, dets[:half, None, None], out=out)
        dets[half:2 * half] = piv
    return M


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
    _check_vertex_count(n)  # before the statement table and the 2^n n^2 sweep
    masks, rows, cols = ci._statement_entries(n)
    if is_exact(a):
        ints = np.array(_integer_form(a)[0], dtype=object).reshape(n, n)
        hits = _minor_sweep(ints)[masks, rows, cols] == 0
    else:
        _require_pd(a)
        minors = _minor_sweep(to_correlation(a)[1])[masks, rows, cols]
        hits = np.abs(minors) <= tol
    return ci._from_bool_array(n, hits)


def to_correlation(a) -> tuple[np.ndarray, np.ndarray]:
    """Split a = D R D with D = diag(sqrt of a's diagonal) and unit-diagonal R."""
    a = as_sym(a)
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
    _require_pd(a)
    keep = [v for v in range(a.shape[0]) if v != k - 1]
    return a[np.ix_(keep, keep)]


def conditional_matrix(a, k: int) -> np.ndarray:
    """Schur complement of the k-th diagonal entry."""
    a = as_sym(a)
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
    if a.shape != w.shape:
        raise ValueError("size mismatch in Hadamard product")
    return a * w


def direct_sum_matrix(a, b) -> np.ndarray:
    a = as_sym(a)
    b = as_sym(b, "second matrix")
    if is_exact(a) != is_exact(b):
        raise ValueError("cannot mix exact and float blocks")
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
    if g.n != h.n or g.n != a.shape[0]:
        raise ValueError("matrix and graphs must share the ground set")
    inv = inverse(a)
    out = [inv[i - 1, j - 1] for i, j in g.non_edges()]
    out += [a[k - 1, l - 1] for k, l in h.non_edges()]
    dtype = object if is_exact(a) else float
    return np.array(out, dtype=dtype)


def is_member(a, g: Graph, h: Graph, tol: float = DEFAULT_TOL) -> bool:
    return _membership(a, g, h, tol)[1]


def _membership(a, g: Graph, h: Graph, tol: float) -> tuple[np.ndarray, bool]:
    """The residual the verdict judges, and the verdict: exact a as it is, every residual 0;
    float a at its correlation matrix, every residual <= tol, so a -> D a D keeps the verdict."""
    _check_tol(tol)  # before any residual, so a bad tol is refused whatever a is
    a = as_sym(a)
    res = membership_residual(a if is_exact(a) else to_correlation(a)[1], g, h)
    if res.dtype == object:
        return res, not any(res)
    return res, bool(np.abs(res).max(initial=0.0) <= tol)


def _check_tol(tol: float):
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")


# -- plain text I/O -----------------------------------------------------------

def parse_matrix(text: str) -> np.ndarray:
    """Parse 'n' then n rows of n numbers; any 'p/q' token switches to exact mode."""
    lines = _numbered_lines(text)
    if not lines:
        raise ValueError("empty matrix file")
    no, head = lines[0]
    try:
        (n,) = map(int, head.split())
    except ValueError:
        raise ValueError(f"line {no}: expected the matrix size, got {head!r}") from None
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
    entry = _exact_entry if "/" in text else float  # the size line, an int, has no '/'
    vals = []
    for no, line in lines[1:]:
        row = line.split()
        if len(row) != n:
            raise ValueError(f"line {no}: expected {n} entries, found {len(row)}")
        try:
            vals.append([entry(tok) for tok in row])
        except (ValueError, ZeroDivisionError) as e:  # ZeroDivisionError: a 'p/0' entry
            raise ValueError(f"line {no}: bad matrix entry: {e}") from None
    return as_sym(np.array(vals))  # Fractions give dtype object


def format_matrix(a) -> str:
    a = as_sym(a)
    n = a.shape[0]
    if is_exact(a):
        body = "\n".join(" ".join(str(Fraction(x)) for x in row) for row in a)
    else:
        body = "\n".join(" ".join(repr(float(x)) for x in row) for row in a)
    return f"{n}\n{body}\n"
