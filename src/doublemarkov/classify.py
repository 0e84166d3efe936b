"""Exact model descriptions for small common-edge sets, and enumeration.

When G and H share at most three edges forming a connected subgraph, the
correlation model is one of finitely many explicitly parametrized shapes
(up to relabeling and swapping the two graphs, which inverts the model).
This module matches a pair against those shapes and can instantiate the
families numerically.

Shared edges that form a path (one, two or three edges) are looked up in one
path-case table, keyed by the support size and the chords of H and non-edges
of G on the support.  Three-edge paths are normalized so the covariance-side
graph has at least as many missing support edges as the concentration side,
and the path may be reversed; both transforms are recorded so samples map
back to the caller's labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import ci, graphs, matrices
from .errors import BudgetExceeded
from .graphs import Graph

MAX_TRIES = 1000  # rejection draws per sample_from_family call


@dataclass(frozen=True)
class Family:
    """One parametrized component: entry expressions over named parameters.

    Entries are expressions in the support-local labels 1..|support|;
    unlisted off-diagonal entries are zero, the diagonal is one.  ``domain``
    is an inequality expression in the parameters; positive definiteness is
    always required on top of it.
    """

    name: str
    params: tuple[str, ...]
    entries: dict[tuple[int, int], str]
    domain: str | None = None

    def instantiate(self, values: dict[str, float], size: int) -> np.ndarray:
        env = {"abs": abs, **values}
        a = np.eye(size)
        for (i, j), expr in self.entries.items():
            v = float(eval(expr, {"__builtins__": {}}, env))
            a[i - 1, j - 1] = v
            a[j - 1, i - 1] = v
        return a

    def admits(self, values: dict[str, float], size: int) -> bool:
        if self.domain is not None:
            env = {"abs": abs, **values}
            if not eval(self.domain, {"__builtins__": {}}, env):
                return False
        return matrices.is_pd(self.instantiate(values, size))


@dataclass(frozen=True)
class ModelDescription:
    """Matched classification case for a pair of graphs.

    ``support`` lists the original vertices carrying the shared edges, in
    normalized order; ``swapped`` records that the families describe the
    model of (H, G), i.e. the inverse of the requested one.  The families
    live on the support block; all other coordinates are pinned to the
    identity by the block-decomposition property.
    """

    case: str
    n: int
    support: tuple[int, ...]
    swapped: bool
    blocks: tuple[tuple[int, ...], ...]
    families: tuple[Family, ...]
    component_count: int
    dimension: int
    connected: bool = True


def _fam(name, params, entries, domain=None):
    return Family(name, tuple(params), dict(entries), domain)


_PD12_X_PD34 = _fam("pd12-x-pd34", ["a", "b"], {(1, 2): "a", (3, 4): "b"},
                    "abs(a) < 1 and abs(b) < 1")
_SEG23_34 = _fam("inv-graphical-23-34", ["a", "b"], {(2, 3): "a", (3, 4): "b"},
                 "a**2 + b**2 < 1")
_SEG12_23 = _fam("inv-graphical-12-23", ["a", "b"], {(1, 2): "a", (2, 3): "b"},
                 "a**2 + b**2 < 1")
_PD23 = _fam("pd23", ["a"], {(2, 3): "a"}, "abs(a) < 1")
_CHAIN_13 = _fam("chain-13", ["a", "b", "c"],
                 {(1, 2): "a", (2, 3): "b", (3, 4): "c", (1, 3): "a*b"},
                 "abs(a) < 1 and b**2 + c**2 < 1")

# Path cases on support (1, ..., k) with shared edges {12, 23, ...}; keyed by
# (k, extra edges of H inside the support, missing edges of G inside the
# support) and giving (case, component count, dimension, families).  Families
# are the explicit parametrizations of each shape.
_PATH_CASES = {
    (2, frozenset(), frozenset()): ("single-edge", 1, 1, [
        _fam("pd-block", ["a"], {(1, 2): "a"}, "abs(a) < 1"),
    ]),
    # the chord 13 lies in G only, in H only, or in neither
    (3, frozenset(), frozenset()): ("two-edge-case-1", 1, 2, [
        _fam("inv-graphical-path-2", ["a", "b"],
             {(1, 2): "a", (2, 3): "b"}, "a**2 + b**2 < 1"),
    ]),
    (3, frozenset({(1, 3)}), frozenset({(1, 3)})): ("two-edge-case-2", 1, 2, [
        _fam("graphical-path-2", ["a", "b"],
             {(1, 2): "a", (2, 3): "b", (1, 3): "a*b"},
             "abs(a) < 1 and abs(b) < 1"),
    ]),
    (3, frozenset(), frozenset({(1, 3)})): ("two-edge-case-3", 2, 1, [
        _fam("segment-12", ["a"], {(1, 2): "a"}, "abs(a) < 1"),
        _fam("segment-23", ["a"], {(2, 3): "a"}, "abs(a) < 1"),
    ]),
    (4, frozenset(), frozenset()): ("three-edge-path-1", 1, 3, [
        _fam("inv-graphical-path", ["a", "b", "c"],
             {(1, 2): "a", (2, 3): "b", (3, 4): "c"}),
    ]),
    (4, frozenset(), frozenset({(1, 3)})): ("three-edge-path-2", 2, 2, [
        _PD12_X_PD34, _SEG23_34,
    ]),
    (4, frozenset(), frozenset({(1, 4)})): ("three-edge-path-3", 3, 2, [
        _PD12_X_PD34, _SEG12_23, _SEG23_34,
    ]),
    # with both 13 and 14 missing from G the constraints are s12*s23 = 0 and
    # s12*s23*s34 = 0, so the second is redundant and the model matches the
    # 13-only case, not the 14-only one
    (4, frozenset(), frozenset({(1, 3), (1, 4)})): ("three-edge-path-4", 2, 2, [
        _PD12_X_PD34, _SEG23_34,
    ]),
    (4, frozenset(), frozenset({(1, 3), (2, 4)})): ("three-edge-path-5", 2, 2, [
        _PD12_X_PD34, _PD23,
    ]),
    (4, frozenset(), frozenset({(1, 3), (1, 4), (2, 4)})): ("three-edge-path-6", 2, 2, [
        _PD12_X_PD34, _PD23,
    ]),
    (4, frozenset({(1, 3)}), frozenset({(1, 3)})): ("three-edge-path-7", 1, 3, [
        _CHAIN_13,
    ]),
    (4, frozenset({(1, 3)}), frozenset({(1, 3), (1, 4)})): ("three-edge-path-8", 1, 3, [
        _CHAIN_13,
    ]),
    (4, frozenset({(1, 3)}), frozenset({(1, 3), (2, 4)})): ("three-edge-path-9", 2, 2, [
        _PD12_X_PD34,
        _fam("chain-13-flat", ["a", "b"],
             {(1, 2): "a", (2, 3): "b", (1, 3): "a*b"},
             "abs(a) < 1 and abs(b) < 1"),
    ]),
    (4, frozenset({(1, 4)}), frozenset({(1, 4)})): ("three-edge-path-10", 1, 3, [
        _fam("chain-14", ["a", "b", "c"],
             {(1, 2): "a", (2, 3): "b", (3, 4): "c",
              (1, 4): "-a*b*c/(1 - b**2)"},
             "a**2 + b**2 < 1 and b**2 + c**2 < 1"),
    ]),
    (4, frozenset({(1, 4)}), frozenset({(1, 3), (1, 4)})): ("three-edge-path-11", 2, 2, [
        _PD12_X_PD34, _SEG23_34,
    ]),
}


def _support_edges(g: Graph, support: tuple[int, ...]) -> frozenset:
    """Edges of g inside the support, in the support-local labels 1..|support|."""
    return frozenset((i, j) for i, j in graphs.pairs_lex(len(support))
                     if g.has_edge(support[i - 1], support[j - 1]))


def classify_small_intersection(g: Graph, h: Graph) -> ModelDescription:
    """Match (g, h) against the classified shapes for at most 3 shared edges.

    Requires the shared edges to form a connected subgraph on their support
    (run decompose first otherwise).  The three-edge star is not among the
    classified shapes and is rejected.
    """
    graphs._same_ground_set(g, h)
    n = g.n
    shared = graphs.edge_intersection(g, h)
    m = shared.num_edges
    if m > 3:
        raise ValueError(f"classification needs at most 3 shared edges, got {m}")
    blocks = graphs.connected_components(shared)
    comps = [b for b in blocks if len(b) > 1]
    if len(comps) > 1:
        raise ValueError("shared edges are disconnected; apply decompose first")

    if m == 0:
        return ModelDescription(
            "trivial", n, (), False, blocks,
            (_fam("identity-only", [], {}),), 1, 0)
    if m == 3 and len(comps[0]) == 3:
        return ModelDescription(
            "three-edge-clique", n, comps[0], False, blocks,
            (_fam("pd-block-3", ["a", "b", "c"],
                  {(1, 2): "a", (1, 3): "b", (2, 3): "c"}),), 1, 3)
    ends = [v + 1 for v, nbrs in enumerate(shared.adj) if nbrs.bit_count() == 1]
    if len(ends) != 2:
        raise ValueError(
            "three shared edges form a star, which is outside the classified cases")
    return _classify_path(g, h, n, graphs.all_paths(shared, *ends)[0], blocks)


def _classify_path(g, h, n, order, blocks):
    size = len(order)
    base = frozenset((t, t + 1) for t in range(1, size))
    pairs = frozenset(graphs.pairs_lex(size))
    for swapped, reverse in itertools.product((False, True), (False, True)):
        gg, hh = (h, g) if swapped else (g, h)
        support = tuple(reversed(order)) if reverse else order
        key = (size, _support_edges(hh, support) - base, pairs - _support_edges(gg, support))
        if key in _PATH_CASES:
            case, comps, dim, fams = _PATH_CASES[key]
            return ModelDescription(case, n, support, swapped, blocks,
                                    tuple(fams), comps, dim)
    raise ValueError("unreachable: the path cases cover all configurations")


def sample_from_family(desc: ModelDescription, params=None, rng=None,
                       family: int = 0) -> np.ndarray:
    """Concrete correlation matrix from one family, in the caller's labels.

    ``params`` maps parameter names to values; with a generator instead,
    admissible values are drawn by rejection.  For a swapped description
    the instantiated block is inverted and renormalized, which maps the
    model of (H, G) back onto the model of (G, H).
    """
    fam = desc.families[family]
    size = len(desc.support) if desc.support else 1
    if params is None:
        if rng is None:
            raise ValueError("need explicit params or an rng to draw them")
        for _ in range(MAX_TRIES):
            cand = {p: rng.uniform(-0.95, 0.95) for p in fam.params}
            if fam.admits(cand, size):
                params = cand
                break
        else:
            raise RuntimeError(f"no admissible draw for {fam.name} in {MAX_TRIES} tries")
    else:
        params = dict(params)
        if not fam.admits(params, size):
            raise ValueError(f"parameters outside the domain of {fam.name}")
    block = fam.instantiate(params, size)
    if desc.swapped:
        _, block = matrices.to_correlation(matrices.inverse(block))
    out = np.eye(desc.n)
    for a, va in enumerate(desc.support):
        for b, vb in enumerate(desc.support):
            out[va - 1, vb - 1] = block[a, b]
    return out


# -- enumeration of inequivalent CI structures --------------------------------

@dataclass(frozen=True)
class EnumerationResult:
    n: int
    connected_only: bool
    count: int
    representatives: tuple  # (pair code as big-endian bytes, Graph, Graph), sorted by code


def _pair_orbits(n: int, masks: np.ndarray):
    """Each pair (c, h) of indices into the sorted edge ``masks`` whose code c << C(n,2) | h
    is the least of its orbit under relabelling and swap, in code order.

    Row p of ``moved`` is the masks relabelled by permutation p, as indices (int16 at n = 6):
    edge bit r goes to the pair rank of the image of (ij|), the statement of pair r.  A least
    pair (c, h) has c a class, a least relabelling, and h of class >= c; the pairs of its
    orbit that start with c are (c, a(h)) for a in Aut(c), the rows that fix c, and when h
    has class c also (c, q(c)) for the q with q(h) = c, Aut(c) after ``first[h]``.
    """
    targets = (ci._perm_index_maps(n)[:, ::1 << (n - 2)] >> (n - 2)).astype(np.int16)
    moved = np.zeros((len(targets), len(masks)), dtype=np.int16)
    for r in range(targets.shape[1]):
        moved |= (masks >> r & 1) << targets[:, r, None]
    index = np.zeros(1 << targets.shape[1], dtype=np.int16)
    index[masks] = np.arange(len(masks))
    moved = index[moved]
    cls, first, every = moved.min(axis=0), moved.argmin(axis=0), np.arange(len(masks))
    for c in np.flatnonzero(cls == every).tolist():
        least = moved[moved[:, c] == c].min(axis=0)
        h = np.flatnonzero((cls >= c) & (least == every))
        yield from ((c, x) for x in h[(cls[h] > c) | (h <= least[moved[first[h], c]])].tolist())


def enumerate_inequivalent(n: int, connected_only: bool = True) -> EnumerationResult:
    """Count double Markov CI structures modulo isomorphy and duality.

    Duality maps the relation of (G, H) to that of (H, G), so each orbit of (connected) pairs
    under relabelling and swap is kept as its least pair code G << C(n,2) | H (_pair_orbits).
    A connected pair is read off its relation: (ij|N \\ ij) holds iff ij is not an edge of G,
    and (ij|) iff ij is not an edge of H.  Over all pairs the least per canonical form is kept.
    """
    if not 3 <= n <= 6:
        raise ValueError("enumeration supported for 3 <= n <= 6")
    if n == 6 and not connected_only:
        raise BudgetExceeded("enumerate over all pairs is limited to n <= 5: at n = 6 its "
                             "802,788 orbits take a canonical form each, over half an hour")
    npairs = len(graphs.pairs_lex(n))
    masks = np.sort(np.array(graphs.connected_graph_masks(n) if connected_only
                             else range(1 << npairs), dtype=np.int16))
    graph = [graphs.graph_from_edge_mask(n, m) for m in masks.tolist()]
    reps = {}  # in code order, so each relation keeps its least pair
    for g, h in _pair_orbits(n, masks):
        code = (int(masks[g]) << npairs | int(masks[h])).to_bytes((2 * npairs + 7) // 8, "big")
        key = code if connected_only else ci.canonical_form(
            ci.double_markov_relation(graph[g], graph[h]))
        reps.setdefault(key, (code, graph[g], graph[h]))
    return EnumerationResult(n, connected_only, len(reps), tuple(reps.values()))
