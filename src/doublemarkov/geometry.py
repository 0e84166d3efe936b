"""Model geometry: tangent spaces, pseudo-Jacobians, decomposition, points.

The model of a graph pair (G, H) consists of positive definite matrices
whose inverse vanishes off G and which themselves vanish off H.  This
module works numerically: spans and kernels are measured by singular
values, with rank tolerance relative to the largest singular value.

Column order for Jacobians is the lexicographic order of positions (s, t),
s <= t; correlation mode drops the diagonal columns, leaving exactly the
pair-rank order used everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import graphs, ideal, matrices
from .errors import NotPositiveDefinite
from .graphs import Graph

RANK_TOL = 1e-8


def _sym_positions(n: int, correlation_mode: bool) -> list[tuple[int, int]]:
    return [(s, t) for s in range(1, n + 1) for t in range(s + correlation_mode, n + 1)]


def _vech(a: np.ndarray, positions) -> np.ndarray:
    return np.array([a[s - 1, t - 1] for s, t in positions])


def numerical_rank(a: np.ndarray, rank_tol: float = RANK_TOL) -> int:
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] == 0:
        return 0
    return int((s > rank_tol * s[0]).sum())


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
    the differential of matrix inversion).
    """
    p = matrices.as_sym(p)
    if not matrices.is_pd(p):
        raise NotPositiveDefinite("tangent basis needs a positive definite point")
    if p.shape[0] != g.n:
        raise ValueError("matrix size does not match the graph")
    tags, gens = [], []
    for i in range(1, g.n + 1):
        col = p[:, i - 1]
        tags.append(("diag", i))
        gens.append(2 * np.outer(col, col))
    for i, j in g.edges:
        ci_, cj = p[:, i - 1], p[:, j - 1]
        tags.append(("edge", (i, j)))
        gens.append(np.outer(ci_, cj) + np.outer(cj, ci_))
    return TangentBasis(p, tuple(tags), tuple(gens))


def _basis_matrix(mats, n: int) -> np.ndarray:
    positions = _sym_positions(n, correlation_mode=False)
    if not mats:
        return np.zeros((0, len(positions)))
    return np.stack([_vech(m, positions) for m in mats])


def span_dimension(basis: TangentBasis, rank_tol: float = RANK_TOL) -> int:
    return numerical_rank(_basis_matrix(basis.generators, basis.point.shape[0]), rank_tol)


def _e_sym(n: int, i: int, j: int) -> np.ndarray:
    out = np.zeros((n, n))
    out[i - 1, j - 1] += 1.0
    out[j - 1, i - 1] += 1.0
    return out


def is_transverse_at(p, g: Graph, h: Graph, rank_tol: float = RANK_TOL,
                     membership_tol: float = 1e-8) -> bool:
    """Whether the two tangent spaces at p sum to the whole symmetric space.

    p must lie on the model (membership residual below membership_tol).
    """
    p = matrices.as_sym(p)
    if g.n != h.n:
        raise ValueError("graphs live on different vertex sets")
    res = matrices.membership_residual(p, g, h)
    if res.size and np.abs(res.astype(float)).max() > membership_tol:
        raise ValueError("point is not on the model; residual too large")
    n = g.n
    conc = tangent_basis_concentration(p, g).generators
    cov = [_e_sym(n, i, i) for i in range(1, n + 1)]
    cov += [_e_sym(n, i, j) for i, j in h.edges]
    stack = _basis_matrix(list(conc) + cov, n)
    return numerical_rank(stack, rank_tol) == n * (n + 1) // 2


@dataclass(frozen=True)
class PseudoJacobian:
    """Stacked gradients: submaximal-minor rows (non-edges of G) then entry rows."""

    rows: np.ndarray
    row_labels: tuple
    col_positions: tuple
    correlation_mode: bool

    def rank(self, rank_tol: float = RANK_TOL) -> int:
        return numerical_rank(self.rows, rank_tol)


def _adjugate(a: np.ndarray) -> np.ndarray:
    """Adjugate via cofactors; works at singular points where inv() would not."""
    m = a.shape[0]
    if m == 0:
        return np.zeros((0, 0))
    if m == 1:
        return np.array([[1.0]])
    cof = np.empty((m, m))
    idx = list(range(m))
    for r in range(m):
        rows = idx[:r] + idx[r + 1 :]
        sub = a[rows]
        for c in range(m):
            cols = idx[:c] + idx[c + 1 :]
            cof[r, c] = (-1) ** (r + c) * matrices.det(sub[:, cols])
    return cof.T


def _minor_gradient(a: np.ndarray, k: int, l: int, positions) -> np.ndarray:
    """Gradient of det(a with row k and column l deleted) in the sigma coordinates."""
    n = a.shape[0]
    rows = [v for v in range(n) if v != k - 1]
    cols = [v for v in range(n) if v != l - 1]
    adj = _adjugate(a[np.ix_(rows, cols)])
    cof = adj.T
    rpos = {v: t for t, v in enumerate(rows)}
    cpos = {v: t for t, v in enumerate(cols)}
    grad = np.zeros(len(positions))
    for m, (s, t) in enumerate(positions):
        s0, t0 = s - 1, t - 1
        val = 0.0
        if s0 in rpos and t0 in cpos:
            val += cof[rpos[s0], cpos[t0]]
        if s != t and t0 in rpos and s0 in cpos:
            val += cof[rpos[t0], cpos[s0]]
        grad[m] = val
    return grad


def stacked_jacobian(a, g: Graph, h: Graph, correlation_mode: bool = False) -> PseudoJacobian:
    """Jacobian of the defining equations at any symmetric matrix a.

    Rows: gradients of det(a_{N\\k, N\\l}) for non-edges kl of g (cofactor
    formula), then gradients of the entries a_ij for non-edges ij of h.
    """
    a = matrices.as_sym(a).astype(float)
    if g.n != h.n or g.n != a.shape[0]:
        raise ValueError("matrix and graphs must share the ground set")
    positions = tuple(_sym_positions(g.n, correlation_mode))
    pos_index = {p: m for m, p in enumerate(positions)}
    rows, labels = [], []
    for k, l in g.non_edges():
        rows.append(_minor_gradient(a, k, l, positions))
        labels.append(("minor", (k, l)))
    for i, j in h.non_edges():
        row = np.zeros(len(positions))
        if (i, j) in pos_index:
            row[pos_index[(i, j)]] = 1.0
        rows.append(row)
        labels.append(("entry", (i, j)))
    mat = np.stack(rows) if rows else np.zeros((0, len(positions)))
    return PseudoJacobian(mat, tuple(labels), positions, correlation_mode)


def local_tangent_dimension(a, g: Graph, h: Graph, correlation_mode: bool = False,
                            rank_tol: float = RANK_TOL, membership_tol: float = 1e-6) -> int:
    """dim ker of the stacked Jacobian; upper-bounds the local model dimension."""
    a = matrices.as_sym(a)
    res = matrices.membership_residual(a, g, h)
    if res.size and np.abs(res.astype(float)).max() > membership_tol:
        raise ValueError("point is not on the model; residual too large")
    jac = stacked_jacobian(a, g, h, correlation_mode)
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
    pairs = tuple(
        (graphs.induced_subgraph(g, b), graphs.induced_subgraph(h, b)) for b in blocks
    )
    return DecompositionResult(blocks, pairs)


# -- connectedness certificates ----------------------------------------------

CERTIFICATE_KINDS = (
    "UniquePath", "UniquePathSwapped", "Hub", "HubSwapped", "SmallIntersection",
    "Unknown",
)


@dataclass(frozen=True)
class ConnectednessCertificate:
    kind: str
    witness: int | None = None

    def check(self, g: Graph, h: Graph) -> bool:
        """Re-verify this certificate against the pair it was issued for."""
        if self.kind == "UniquePath":
            return ideal.unique_path_hypothesis(g, h)
        if self.kind == "UniquePathSwapped":
            return ideal.unique_path_hypothesis(h, g)
        if self.kind == "Hub":
            return _is_hub(g, h, self.witness)
        if self.kind == "HubSwapped":
            return _is_hub(h, g, self.witness)
        if self.kind == "SmallIntersection":
            return graphs.edge_intersection(g, h).num_edges <= 3
        return self.kind == "Unknown"


def _is_hub(g: Graph, h: Graph, i: int | None) -> bool:
    if i is None:
        return False
    for k, l in g.non_edges():
        if i in (k, l):
            continue
        if not graphs.separates(h, k, l, {i}):
            return False
    return True


def find_hub(g: Graph, h: Graph) -> int | None:
    """Smallest vertex lying on every h-path between every non-edge pair of g."""
    for i in range(1, g.n + 1):
        if _is_hub(g, h, i):
            return i
    return None


def connectedness_certificate(g: Graph, h: Graph) -> ConnectednessCertificate:
    """First certificate of model connectedness in the fixed search order.

    Order: UniquePath, its G/H swap, Hub, its swap, SmallIntersection.
    Unknown means no certificate was found, not that the model is
    disconnected.
    """
    if g.n != h.n:
        raise ValueError("graphs live on different vertex sets")
    if ideal.unique_path_hypothesis(g, h):
        return ConnectednessCertificate("UniquePath")
    if ideal.unique_path_hypothesis(h, g):
        return ConnectednessCertificate("UniquePathSwapped")
    hub = find_hub(g, h)
    if hub is not None:
        return ConnectednessCertificate("Hub", hub)
    hub = find_hub(h, g)
    if hub is not None:
        return ConnectednessCertificate("HubSwapped", hub)
    if graphs.edge_intersection(g, h).num_edges <= 3:
        return ConnectednessCertificate("SmallIntersection")
    return ConnectednessCertificate("Unknown")


def hadamard_shrink(a, i: int, eps: float) -> np.ndarray:
    """Scale row and column i off-diagonally by eps; eps=1 is the identity map.

    Stays positive definite for eps in [0, 1] (Hadamard product with a
    positive semi-definite all-ones-plus-rank-one pattern).
    """
    a = matrices.as_sym(a)
    if not matrices.is_pd(a):
        raise NotPositiveDefinite("hadamard_shrink needs a positive definite input")
    if not 0 <= eps <= 1:
        raise ValueError("eps must lie in [0, 1]")
    n = a.shape[0]
    graphs._check_vertex(n, i)
    w = np.ones((n, n))
    w[i - 1, :] = eps
    w[:, i - 1] = eps
    w[i - 1, i - 1] = 1.0
    return a * w


# -- numerical model point search ----------------------------------------------

@dataclass
class FindPointResult:
    """Outcome of find_model_point; matrix is the best iterate found."""

    matrix: np.ndarray
    residual: float
    converged: bool
    seed: int
    restarts_used: int
    iterations: int = field(default=0)


def _build_corr(n: int, free: list[tuple[int, int]], x: np.ndarray) -> np.ndarray:
    a = np.eye(n)
    for val, (i, j) in zip(x, free):
        a[i - 1, j - 1] = val
        a[j - 1, i - 1] = val
    return a


def find_model_point(g: Graph, h: Graph, seed: int = 0, residual_tol: float = 1e-10,
                     max_iter: int = 5000, restarts: int = 20,
                     init_scale: float = 0.3, entry_cap: float = 0.95) -> FindPointResult:
    """Search the correlation model of (g, h) by damped Gauss-Newton.

    Free coordinates are the off-diagonal entries on edges of h (non-edges
    of h are pinned to zero), so the residuals are the inverse entries on
    non-edges of g.  Residual gradients use the inversion differential
    d(X^-1) = -X^-1 E X^-1; steps are backtracked and rejected whenever
    Cholesky fails, which keeps all iterates positive definite.  Iterates
    are also confined to |entries| < entry_cap: the defining equations have
    spurious zeros on the elliptope boundary (the identity is always an
    interior member, so nothing is lost).  Restart r draws its start from a
    generator seeded with (seed, r); the first restart reaching
    residual_tol wins, otherwise the lowest residual.
    """
    if g.n != h.n:
        raise ValueError("graphs live on different vertex sets")
    n = g.n
    free = list(h.edges)
    targets = [(k - 1, l - 1) for k, l in g.non_edges()]
    best = None

    def residuals(inv):
        return np.array([inv[k, l] for k, l in targets])

    for restart in range(restarts):
        rng = np.random.default_rng([seed, restart])
        x = rng.uniform(-init_scale / n, init_scale / n, size=len(free))
        a = _build_corr(n, free, x)
        L = matrices.cholesky_or_none(a)
        if L is None:
            continue
        inv = matrices.chol_inverse(L)
        r = residuals(inv)
        iters = 0
        stall = 0
        best_rmax = np.inf
        while iters < max_iter:
            rmax = np.abs(r).max() if r.size else 0.0
            if rmax <= residual_tol:
                break
            if rmax <= 0.9 * best_rmax:
                best_rmax = rmax
                stall = 0
            else:
                stall += 1
                if stall >= 30:  # crawling along the feasible-box boundary
                    break
            jac = _point_jacobian(inv, free, targets)
            # rcond cut kills near-null step components that would otherwise
            # drift the iterate toward the cone boundary
            d, *_ = np.linalg.lstsq(jac, -r, rcond=1e-8)
            dmax = np.abs(d).max() if d.size else 0.0
            if dmax > 0.5:
                d *= 0.5 / dmax
            grad = jac.T @ r
            slope = grad @ d
            if slope >= 0:
                d = -grad
                slope = grad @ d
                if slope >= 0:
                    break
            fval = 0.5 * (r @ r)
            alpha, accepted = 1.0, False
            while alpha > 1e-14:
                xn = x + alpha * d
                if xn.size and np.abs(xn).max() >= entry_cap:
                    alpha *= 0.5
                    continue
                an = _build_corr(n, free, xn)
                Ln = matrices.cholesky_or_none(an)
                if Ln is not None:
                    invn = matrices.chol_inverse(Ln)
                    rn = residuals(invn)
                    if 0.5 * (rn @ rn) <= fval + 1e-4 * alpha * slope:
                        x, a, inv, r = xn, an, invn, rn
                        accepted = True
                        break
                alpha *= 0.5
            iters += 1
            if not accepted:
                break
        rmax = float(np.abs(r).max()) if r.size else 0.0
        result = FindPointResult(a, rmax, rmax <= residual_tol, seed, restart + 1, iters)
        if best is None or result.residual < best.residual:
            best = result
        if result.converged:
            break
    if best is None:
        best = FindPointResult(np.eye(n), np.inf, False, seed, restarts)
    return best


def _point_jacobian(inv, free, targets):
    """d(inv)_kl / d sigma_st = -(inv E^st inv)_kl, rows over targets."""
    jac = np.empty((len(targets), len(free)))
    for m, (s, t) in enumerate(free):
        s0, t0 = s - 1, t - 1
        for q, (k, l) in enumerate(targets):
            jac[q, m] = -(inv[k, s0] * inv[t0, l] + inv[k, t0] * inv[s0, l])
    return jac
