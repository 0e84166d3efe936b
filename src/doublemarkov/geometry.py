"""Model geometry: tangent spaces, pseudo-Jacobians, decomposition, points.

The model of a graph pair (G, H) consists of positive definite matrices
whose inverse vanishes off G and which themselves vanish off H.  This
module works numerically: spans and kernels are measured by singular
values, with rank tolerance relative to the largest singular value.

The pseudo-Jacobian's columns are the off-diagonal positions (s, t), s < t,
in the pair order of graphs.pairs_lex.  The model is closed under diagonal
rescaling a -> D a D, so both tangent verdicts read it at the point's
correlation matrix, where they cannot depend on the scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import graphs, ideal, matrices
from .graphs import Graph

RANK_TOL = 1e-8


def numerical_rank(a: np.ndarray, rank_tol: float = RANK_TOL) -> int:
    s = np.linalg.svd(np.asarray(a, dtype=float), compute_uv=False)  # Fraction input too
    return int((s > rank_tol * s.max(initial=0.0)).sum())


@dataclass(frozen=True)
class TangentBasis:
    """Tangent generators at a base point, tagged ("edge", (i, j)) or ("diag", i)."""

    point: np.ndarray
    tags: tuple
    generators: tuple


def tangent_basis_concentration(p, g: Graph) -> TangentBasis:
    """Generators P^i P_j + P^j P_i for edges ij of g plus all diagonal pairs.

    These span the tangent space of the concentration-constrained model at
    the positive definite point p (image of the coordinate directions under
    the differential of matrix inversion, _inversion_differential).  A
    diagonal generator 2 P^i P_i is the same sum with j = i.
    """
    p = matrices.as_sym(p)
    matrices._check_size(p, g)
    matrices._require_pd(p)
    tags = [("diag", i) for i in range(1, g.n + 1)] + [("edge", e) for e in g.edges]
    ii, jj = _index_pairs([(i, i) for i in range(1, g.n + 1)] + list(g.edges))[:, :, None, None]
    k, l = np.ogrid[:g.n, :g.n]
    return TangentBasis(p, tuple(tags), tuple(_inversion_differential(p, k, l, ii, jj)))


def _inversion_differential(p, k, l, s, t):
    """(P E^st P)_kl = -d(X^-1)_kl / d x_st at X^-1 = P, E^st = E_st + E_ts; indices broadcast."""
    return p[k, s] * p[t, l] + p[k, t] * p[s, l]


def _index_pairs(pairs) -> np.ndarray:
    """(2, len(pairs)) array of the 0-based rows and columns of 1-based pairs (i, j)."""
    return (np.array(pairs, dtype=np.intp).reshape(-1, 2) - 1).T


def _basis_matrix(mats, n: int) -> np.ndarray:
    """Rows vech(m) of the symmetric matrices m, over the positions s <= t."""
    s, t = np.triu_indices(n)
    return np.reshape(mats, (-1, n, n))[:, s, t]


def span_dimension(basis: TangentBasis, rank_tol: float = RANK_TOL) -> int:
    return numerical_rank(_basis_matrix(basis.generators, basis.point.shape[0]), rank_tol)


def is_transverse_at(p, g: Graph, h: Graph, rank_tol: float = RANK_TOL) -> bool:
    """Whether the two tangent spaces at the model point p sum to the whole symmetric space.

    They do exactly when the defining equations' gradients are independent,
    that is when the pseudo-Jacobian at the correlation matrix of p has full
    row rank, #non-edges(G) + #non-edges(H).  The diagonal columns are not
    needed: the rescaling directions of p lie in both tangent spaces.  Like
    local_tangent_dimension, it accepts p exactly when matrices.is_member does
    at DEFAULT_TOL (1e-8), and raises ValueError otherwise.
    """
    jac = _tangent_jacobian(p, g, h)
    return jac.rank(rank_tol) == len(jac.rows)


@dataclass(frozen=True)
class PseudoJacobian:
    """Stacked gradients, minor rows (non-edges of G) then entry rows, on pairs_lex columns."""

    rows: np.ndarray
    row_labels: tuple
    col_positions: tuple

    def rank(self, rank_tol: float = RANK_TOL) -> int:
        return numerical_rank(self.rows, rank_tol)


def stacked_jacobian(a, g: Graph, h: Graph) -> PseudoJacobian:
    """Jacobian of the defining equations at any symmetric matrix a.

    Rows: gradients of det(a_{N\\k, N\\l}) for non-edges kl of g (cofactor
    formula), then gradients of the entries a_ij for non-edges ij of h.

    The gradient of the minor at position (s, t) is its cofactor at (s, t)
    plus its cofactor at (t, s); a cofactor of the minor is a signed
    determinant of a with rows {k, r} and columns {l, c} removed.  All of
    them, for every non-edge of g, are one stack through one matrices.det
    call, so they work at singular points too.
    """
    a = matrices.as_sym(a).astype(float)
    matrices._check_size(a, g, h)
    return _stack(g, h, lambda k, l, s, t: _minor_gradients(a, k, l, s, t))


def _tangent_jacobian(a, g: Graph, h: Graph) -> PseudoJacobian:
    """stacked_jacobian at the correlation matrix R of the model point a, read off P = R^-1.

    The minor without row k and column l is (-1)^(k+l) det R P_lk, so its gradient at (s, t)
    is (-1)^(k+l) det R (2 P_lk P_st - P_ks P_tl - P_kt P_sl): at nonsingular R, the
    cofactor rows at the same scale.  R and P come from matrices._membership at DEFAULT_TOL."""
    _, member, r, p = matrices._membership(matrices.as_sym(a).astype(float), g, h,
                                           matrices.DEFAULT_TOL)
    if not member:
        raise ValueError("point is not on the model; residual too large")
    scale = matrices.det(r)
    return _stack(g, h, lambda k, l, s, t: np.where((k + l) % 2, -scale, scale) * (
        2 * p[l, k] * p[s, t] - _inversion_differential(p, k, l, s, t)))


def _stack(g: Graph, h: Graph, minor_rows) -> PseudoJacobian:
    """The pseudo-Jacobian whose minor rows are minor_rows(k, l, s, t), as in _minor_gradients."""
    n = g.n
    positions = graphs.pairs_lex(n)
    s, t = _index_pairs(positions)
    column = np.full((n, n), -1)
    column[s, t] = np.arange(len(s))
    minor_pairs, entry_pairs = g.non_edges(), h.non_edges()
    rows = np.zeros((len(minor_pairs) + len(entry_pairs), len(s)))
    if minor_pairs:
        k, l = _index_pairs(minor_pairs)[:, :, None]
        rows[:len(k)] = minor_rows(k, l, s, t)
    i, j = _index_pairs(entry_pairs)
    rows[len(minor_pairs) + np.arange(len(i)), column[i, j]] = 1.0
    labels = [("minor", e) for e in minor_pairs] + [("entry", e) for e in entry_pairs]
    return PseudoJacobian(rows, tuple(labels), positions)


def _minor_gradients(a: np.ndarray, k, l, s, t) -> np.ndarray:
    """Rows of d det(a without row k, column l) / d sigma_st, one per (k, l).

    k and l are (N, 1) arrays of 0-based removed rows and columns, s and t
    the 0-based positions, s < t.  Row r of the (n-1)-square minor is row
    r + (r >= k) of a; a cofactor removes one more row and column.
    """
    n = a.shape[0]
    m = n - 1
    others = np.array([[v for v in range(m) if v != r] for r in range(m)], dtype=np.intp)
    rows = (np.arange(m) + (np.arange(m) >= k))[:, others]   # (N, m, m - 1)
    cols = (np.arange(m) + (np.arange(m) >= l))[:, others]
    stack = a[rows[:, :, None, :, None], cols[:, None, :, None, :]]
    stack = stack.reshape(len(k) * m * m, m - 1, m - 1)
    sign = np.where(np.add.outer(np.arange(m), np.arange(m)) % 2, -1.0, 1.0)
    cof = (sign * matrices.det(stack).reshape(-1, m, m)).reshape(len(k), m * m)

    def term(u, v, present):
        # cofactor at minor row/column of the a-indices u, v (0 where removed)
        at = np.where(present, (u - (u > k)) * m + v - (v > l), 0)
        return np.where(present, np.take_along_axis(cof, at, 1), 0.0)

    # summed from 0.0 in the order of the cofactor expansion, signed zeros included
    return 0.0 + term(s, t, (s != k) & (t != l)) + term(t, s, (t != k) & (s != l))


def local_tangent_dimension(a, g: Graph, h: Graph, rank_tol: float = RANK_TOL) -> int:
    """dim ker of the pseudo-Jacobian at the correlation matrix R of a model point a.

    It upper-bounds the local dimension of the correlation model at R.  The
    covariance model is closed under a -> D a D for positive diagonal D, so
    its tangent dimension at a is this value plus n.  Like is_transverse_at,
    it accepts a exactly when matrices.is_member does at DEFAULT_TOL (1e-8),
    and raises ValueError otherwise.
    """
    jac = _tangent_jacobian(a, g, h)
    return len(jac.col_positions) - jac.rank(rank_tol)


def dimension_bound(g: Graph, h: Graph) -> tuple[int, int]:
    """(model bound, correlation bound) = (|E_G cap E_H| + n, |E_G cap E_H|)."""
    shared = graphs.edge_intersection(g, h).num_edges
    return shared + g.n, shared


@dataclass(frozen=True)
class DecompositionResult:
    """Blocks of the common-edge graph, with the restricted pair per block."""

    blocks: tuple[tuple[int, ...], ...]
    pairs: tuple[tuple[Graph, Graph], ...]


def decompose(g: Graph, h: Graph) -> DecompositionResult:
    """Model matrices are block-diagonal along components of the common edges."""
    shared = graphs.edge_intersection(g, h)
    blocks = graphs.connected_components(shared)
    pairs = tuple((graphs.induced_subgraph(g, b), graphs.induced_subgraph(h, b)) if len(b) > 1
                  else _POINT_PAIR for b in blocks)
    return DecompositionResult(blocks, pairs)


_POINT_PAIR = (Graph(1, (0,)),) * 2  # the pair a singleton block induces


# -- connectedness certificates ----------------------------------------------

def _unique_path(g: Graph, h: Graph, witness: int | None) -> bool:
    return ideal.unique_path_hypothesis(g, h)


def _hub(g: Graph, h: Graph, witness: int | None) -> bool:
    """Whether vertex witness lies on every h-path between every non-edge pair of g.

    ValueError refuses a witness outside 1..n on every pair, complete g included.  From each
    other vertex k with a g-non-neighbour above it, one reachability pass in h without the
    witness must reach no such non-neighbour but the witness."""
    if witness is None:
        return False
    graphs._same_ground_set(g, h)
    _, hub = graphs._vertices(g.n, (witness,))
    rest = (1 << g.n) - 1 & ~hub
    for k in graphs._bits(rest):
        later = rest & ~g.adj[k] & -2 << k  # the g-non-neighbours of k above it
        if later and graphs._reachable(h, k, hub) & later:
            return False
    return True


# Each kind in search order: its predicate and whether it runs on (H, G).
_KINDS = {
    "UniquePath": (_unique_path, False),
    "UniquePathSwapped": (_unique_path, True),
    "Hub": (_hub, False),
    "HubSwapped": (_hub, True),
    "SmallIntersection": (lambda g, h, _: graphs.edge_intersection(g, h).num_edges <= 3, False),
}


@dataclass(frozen=True)
class ConnectednessCertificate:
    kind: str
    witness: int | None = None

    def check(self, g: Graph, h: Graph) -> bool:
        """Re-verify this certificate against the pair it was issued for."""
        if self.kind not in _KINDS:
            return self.kind == "Unknown"
        test, swapped = _KINDS[self.kind]
        return test(*((h, g) if swapped else (g, h)), self.witness)


def find_hub(g: Graph, h: Graph) -> int | None:
    """Smallest vertex lying on every h-path between every non-edge pair of g."""
    return next((i for i in range(1, g.n + 1) if _hub(g, h, i)), None)


def connectedness_certificate(g: Graph, h: Graph) -> ConnectednessCertificate:
    """First certificate of model connectedness in the fixed search order.

    Order: UniquePath, its G/H swap, Hub, its swap (hubs from vertex 1 up),
    SmallIntersection, each by the predicate check() runs.  Unknown means no
    certificate was found, not that the model is disconnected.
    """
    for kind, (test, swapped) in _KINDS.items():
        for witness in range(1, g.n + 1) if test is _hub else (None,):
            if test(*((h, g) if swapped else (g, h)), witness):
                return ConnectednessCertificate(kind, witness)
    return ConnectednessCertificate("Unknown")


def hadamard_shrink(a, i: int, eps: float) -> np.ndarray:
    """Scale row and column i off-diagonally by eps; eps=1 is the identity map.

    Stays positive definite for eps in [0, 1] (Hadamard product with a
    positive semi-definite all-ones-plus-rank-one pattern).  An exact a
    gets exact weights, Fraction(eps), so the result stays exact.
    """
    a = matrices.as_sym(a)
    matrices._require_pd(a)
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    n = a.shape[0]
    (i,), _ = graphs._vertices(n, (i,))
    one, eps = (Fraction(1), Fraction(eps)) if matrices.is_exact(a) else (1.0, eps)
    w = np.full((n, n), one, dtype=a.dtype)
    w[i - 1, :] = eps
    w[:, i - 1] = eps
    w[i - 1, i - 1] = one
    return a * w


# -- numerical model point search ----------------------------------------------

RESIDUAL_TOL = 1e-10  # a block converges once its largest |residual| is this small
MAX_ITER = 5000  # Gauss-Newton steps per restart
RESTARTS = 20  # start points per block
INIT_SCALE = 0.3  # start entries are uniform in [-INIT_SCALE / n, INIT_SCALE / n]
ENTRY_CAP = 0.95  # every iterate keeps |entries| < ENTRY_CAP


@dataclass
class FindPointResult:
    """Outcome of find_model_point; matrix is the best iterate found."""

    matrix: np.ndarray
    residual: float
    converged: bool
    seed: int
    restarts_used: int
    iterations: int = 0


def _build_corr(n: int, fi: np.ndarray, fj: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Unit-diagonal matrix with x at the 0-based free positions (fi, fj) and (fj, fi)."""
    a = np.eye(n)
    a[fi, fj] = x
    a[fj, fi] = x
    return a


def find_model_point(g: Graph, h: Graph, seed: int = 0) -> FindPointResult:
    """Search the correlation model of (g, h) block by block.

    Model matrices vanish between blocks of decompose(g, h): _search_point runs
    on the induced pair of each block of two or more vertices, all with restart
    stream (seed, r), and fills that block of the identity.  residual is the
    largest block residual, converged means every block converged, iterations
    is their sum, and restarts_used the largest block count (1 if none ran).
    """
    graphs._same_ground_set(g, h)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    dec = decompose(g, h)
    a, found = np.eye(g.n), []
    for block, (bg, bh) in zip(dec.blocks, dec.pairs):
        if len(block) > 1:
            found.append(_search_point(bg, bh, seed))
            a[np.ix_(np.subtract(block, 1), np.subtract(block, 1))] = found[-1].matrix
    return FindPointResult(
        a, max((r.residual for r in found), default=0.0), all(r.converged for r in found),
        seed, max((r.restarts_used for r in found), default=1), sum(r.iterations for r in found))


def _search_point(g: Graph, h: Graph, seed: int) -> FindPointResult:
    """Search the correlation model of one pair (g, h) by damped Gauss-Newton.

    Free coordinates are the off-diagonal entries on edges of h (non-edges
    of h are pinned to zero), so the residuals are the inverse entries on
    non-edges of g.  Residual gradients use the inversion differential
    d(X^-1) = -X^-1 E X^-1; steps are backtracked and rejected whenever
    matrices._pd_factor refuses them, so every iterate passes is_pd.  Iterates
    are also confined to |entries| < ENTRY_CAP: the defining equations have
    spurious zeros on the elliptope boundary (the identity is always an
    interior member, so nothing is lost).  Restart r draws its start from
    random.Random(f"{seed}:{r}"); the first to reach RESIDUAL_TOL wins, else
    the lowest residual.
    """
    n = g.n
    fi, fj = _index_pairs(h.edges)
    tk, tl = _index_pairs(g.non_edges())

    def evaluate(x):
        """(matrix, inverse, residuals) at the free entries x, or None where is_pd refuses it."""
        a = _build_corr(n, fi, fj, x)
        chol = matrices._pd_factor(a)
        if chol is None:
            return None
        inv = matrices.chol_inverse(chol)
        return a, inv, inv[tk, tl]

    best = None
    for restart in range(RESTARTS):
        rng = random.Random(f"{seed}:{restart}")
        x = np.array([rng.uniform(-INIT_SCALE / n, INIT_SCALE / n) for _ in fi])
        # off-diagonal row sums <= (n - 1) INIT_SCALE / n < 1: the start is strictly diagonally
        # dominant, hence positive definite, so evaluate succeeds and restart 0 sets best
        a, inv, r = evaluate(x)
        iters = stall = 0
        best_rmax = np.inf
        while iters < MAX_ITER:
            rmax = np.abs(r).max(initial=0.0)
            if rmax <= RESIDUAL_TOL:
                break
            if rmax <= 0.9 * best_rmax:
                best_rmax = rmax
                stall = 0
            else:
                stall += 1
                if stall >= 30:  # crawling along the feasible-box boundary
                    break
            jac = -_inversion_differential(inv, tk[:, None], tl[:, None], fi, fj)
            # rcond cut kills near-null step components that would otherwise
            # drift the iterate toward the cone boundary
            d, *_ = np.linalg.lstsq(jac, -r, rcond=1e-8)
            dmax = np.abs(d).max()
            if dmax > 0.5:
                d *= 0.5 / dmax
            slope = (jac.T @ r) @ d
            if slope >= 0:  # the step is no descent direction
                break
            iters += 1
            fval = 0.5 * (r @ r)
            alpha = 1.0
            while alpha > 1e-14:
                xn = x + alpha * d
                trial = None if np.abs(xn).max() >= ENTRY_CAP else evaluate(xn)
                if trial is not None and 0.5 * (trial[2] @ trial[2]) <= fval + 1e-4 * alpha * slope:
                    break
                alpha *= 0.5
            else:
                break  # no trial step decreases the residual enough
            x, (a, inv, r) = xn, trial
        rmax = float(np.abs(r).max(initial=0.0))
        result = FindPointResult(a, rmax, rmax <= RESIDUAL_TOL, seed, restart + 1, iters)
        if best is None or result.residual < best.residual:
            best = result
        if result.converged:
            break
    return best
