"""Seeded input files for the benchmark workloads.

Generation uses only the standard library (``random.Random`` and exact
``Fraction`` arithmetic), never doublemarkov itself, so one seed yields
byte-identical inputs for every version of the program under test.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

# Enough distinct pairs that a run at today's speed never repeats one, so
# the corpus mean, not a few unlucky pairs, sets the per-run cost.
ANALYZE_PAIRS = 3000
ANALYZE_SIZES = (4, 5, 6, 7)
EDGE_PROB = 0.5
# Edge counts are drawn in blocks of STRATA graphs per size, one from each
# STRATA-th of the binomial distribution, so every stretch of a run meets
# nearly the same mix of sparse and dense graphs whatever the seed.
STRATA = 20

MATRIX_FILES = 400
FLOAT_SIZES = (5, 6, 7, 8)
EXACT_SIZES = (4, 5, 6)
SUBSET_PROB = 0.3
MATRIX_FILE_KEYS = ("matrix", "member", "nonmember", "relation")

ENUMERATE_N = 5

# Warm-up inputs come from a fixed seed, so set-up work is the same in
# every run whatever --seed is.
WARMUP_SEED = 20210701


def _pairs(n):
    return list(itertools.combinations(range(1, n + 1), 2))


def random_graph(rng: random.Random, n: int, p: float = EDGE_PROB):
    return [e for e in _pairs(n) if rng.random() < p]


def binomial_quantile(m: int, p: float, u: float) -> int:
    """The smallest k with P(Binomial(m, p) <= k) >= u."""
    cdf = 0.0
    for k in range(m + 1):
        cdf += math.comb(m, k) * p**k * (1 - p) ** (m - k)
        if cdf >= u:
            return k
    return m


def stratified_edge_counts(rng: random.Random, n: int, count: int, p: float = EDGE_PROB):
    """Edge counts of ``count`` graphs drawn from G(n, p), stratified in blocks.

    Each block of STRATA consecutive counts takes one uniform draw from each
    STRATA-th of [0, 1), in random order, through the binomial quantile, so
    every count is still Binomial(C(n, 2), p) while a block's mean barely
    varies.
    """
    m = n * (n - 1) // 2
    out = []
    while len(out) < count:
        strata = list(range(STRATA))
        rng.shuffle(strata)
        out += [binomial_quantile(m, p, (s + rng.random()) / STRATA) for s in strata]
    return out[:count]


def graph_with_edges(rng: random.Random, n: int, k: int):
    """A uniformly random graph on n vertices with k edges, edges sorted."""
    return sorted(rng.sample(_pairs(n), k))


def pair_text(n: int, g_edges, h_edges) -> str:
    def line(edges):
        return " ".join(f"{i}-{j}" for i, j in edges)
    return f"n {n}\nG {line(g_edges)}\nH {line(h_edges)}\n"


def components(n: int, edges, removed=frozenset()):
    """Component label per vertex of the graph with ``removed`` deleted (-1 there)."""
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    label = {v: -1 for v in range(1, n + 1)}
    count = 0
    for s in range(1, n + 1):
        if s in removed or label[s] >= 0:
            continue
        label[s] = count
        todo = [s]
        while todo:
            v = todo.pop()
            for w in adj[v]:
                if w not in removed and label[w] < 0:
                    label[w] = count
                    todo.append(w)
        count += 1
    return label


def separation_statements(n: int, edges):
    """Every (i, j, K) with K separating i and j in the graph, in sorted order."""
    out = []
    verts = range(1, n + 1)
    for r in range(n - 1):
        for K in itertools.combinations(verts, r):
            label = components(n, edges, frozenset(K))
            out += [(i, j, K) for i, j in _pairs(n)
                    if i not in K and j not in K and label[i] != label[j]]
    return sorted(out)


def statement_text(i: int, j: int, K) -> str:
    ks = " ".join(map(str, K))
    return f"({i} {j} |{' ' + ks if ks else ''})"


def _inverse(k):
    """Exact inverse of a nonsingular integer matrix as Fractions.

    Fraction-free Gauss-Jordan (Bareiss): every division is exact, entries
    stay integers, and the left block ends as det(k) times the identity.
    """
    n = len(k)
    m = [list(row) + [int(r == c) for c in range(n)] for r, row in enumerate(k)]
    prev = 1
    for c in range(n):
        piv = next(r for r in range(c, n) if m[r][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        for r in range(n):
            if r != c:
                f, p = m[r][c], m[c][c]
                m[r] = [(p * x - f * y) // prev for x, y in zip(m[r], m[c])]
        prev = m[c][c]
    return [[Fraction(x, m[r][r]) for x in m[r][n:]] for r in range(n)]


def graphical_matrix(rng: random.Random, n: int, edges):
    """Sigma = K^-1 with K positive definite and supported on the edges.

    K/1000 is an integer matrix, diagonally dominant, with off-diagonal
    entries of either sign, so it is positive definite and, for generic
    entries, Sigma realizes the separation statements of the graph and
    nothing more.  Returns Sigma as Fractions and the edge of largest |K_ij|
    (None for an empty graph).
    """
    k = [[0] * n for _ in range(n)]
    for i, j in edges:
        k[i - 1][j - 1] = k[j - 1][i - 1] = rng.randint(200, 999) * rng.choice((-1, 1))
    for i in range(n):
        k[i][i] = sum(abs(x) for x in k[i]) + rng.randint(100, 999)
    strongest = max(edges, key=lambda e: abs(k[e[0] - 1][e[1] - 1]), default=None)
    return [[1000 * x for x in row] for row in _inverse(k)], strongest


def matrix_text(sigma, exact: bool) -> str:
    n = len(sigma)
    if exact:
        rows = [" ".join(f"{x.numerator}/{x.denominator}" for x in row) for row in sigma]
    else:
        rows = [" ".join(repr(float(x)) for x in row) for row in sigma]
    return f"{n}\n" + "\n".join(rows) + "\n"


def analyze_corpus(seed: int, count: int = ANALYZE_PAIRS):
    """(pair file text, --seed value) per op; sizes cycle so every run mixes them.

    G and H are drawn from G(n, 1/2) with stratified edge counts, G and H
    from separate streams.
    """
    rng = random.Random(f"analyze:{seed}")
    per_size = -(-count // len(ANALYZE_SIZES))
    edge_counts = {(n, side): iter(stratified_edge_counts(rng, n, per_size))
                   for n in ANALYZE_SIZES for side in "GH"}
    out = []
    for t in range(count):
        n = ANALYZE_SIZES[t % len(ANALYZE_SIZES)]
        g, h = (graph_with_edges(rng, n, next(edge_counts[n, side])) for side in "GH")
        out.append((pair_text(n, g, h), rng.randrange(10**6)))
    return out


def matrix_case(rng: random.Random, n: int, exact: bool):
    """Texts of the files one matrix_ci op reads."""
    g = random_graph(rng, n)
    if not g:
        g = [rng.choice(_pairs(n))]  # the non-member pair needs an edge of G to drop
    sigma, strongest = graphical_matrix(rng, n, g)
    label = components(n, g)
    h = [(i, j) for i, j in _pairs(n) if label[i] == label[j]]
    g_minus = [e for e in g if e != strongest]
    sep = separation_statements(n, g)
    subset = [s for s in sep if rng.random() < SUBSET_PROB]
    relation = f"n {n}\n" + "".join(statement_text(*s) + "\n" for s in subset)
    return {
        "matrix": matrix_text(sigma, exact),
        "member": pair_text(n, g, h),
        "nonmember": pair_text(n, g_minus, h),
        "relation": relation,
    }


def matrix_corpus(seed: int, count: int = MATRIX_FILES):
    """Every fourth file is exact; float and exact sizes cycle through their ranges."""
    rng = random.Random(f"matrix_ci:{seed}")
    out = []
    for t in range(count):
        exact = t % 4 == 3
        if exact:
            n = EXACT_SIZES[(t // 4) % len(EXACT_SIZES)]
        else:
            n = FLOAT_SIZES[(t - t // 4) % len(FLOAT_SIZES)]
        out.append(matrix_case(rng, n, exact))
    return out


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def write_inputs(workload: str, seed: int, dest: Path) -> dict:
    """Write the input files of one run under dest and return its manifest.

    The manifest lists, in op order, the files each op reads, then the
    warm-up ops (one per input size) that set-up runs before timing.
    """
    dest.mkdir(parents=True, exist_ok=True)
    if workload == "analyze":
        def entries(corpus, tag):
            return [{"pair": _write(dest / f"{tag}{t}.pair", text), "k": k}
                    for t, (text, k) in enumerate(corpus)]
        ops = entries(analyze_corpus(seed), "p")
        warmup = entries(analyze_corpus(WARMUP_SEED, len(ANALYZE_SIZES)), "w")
    elif workload == "matrix_ci":
        def entries(corpus, tag):
            return [{key: _write(dest / f"{tag}{t}.{key}", case[key])
                     for key in MATRIX_FILE_KEYS}
                    for t, case in enumerate(corpus)]
        ops = entries(matrix_corpus(seed), "m")
        warm = random.Random(f"matrix_ci:{WARMUP_SEED}")
        warmup = entries([matrix_case(warm, n, False) for n in FLOAT_SIZES]
                         + [matrix_case(warm, n, True) for n in EXACT_SIZES], "w")
    elif workload == "enumerate":
        # The paper's n = 5 count has no random input.
        ops = warmup = [{"n": ENUMERATE_N}]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "ops": ops, "warmup": warmup}
    _write(dest / "manifest.json", json.dumps(manifest, indent=1))
    return manifest
