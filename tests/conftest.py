import importlib.util
from pathlib import Path

import numpy as np
import pytest

from doublemarkov import Graph, geometry, graphs

BENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"


@pytest.fixture
def sympy():
    """The independent exact oracle: sympy is a test-only dependency."""
    return pytest.importorskip("sympy")


def random_graph(n, rng, p=0.5):
    edges = [e for e in graphs.pairs_lex(n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_pd(n, rng, spread=1.0):
    """Generic positive definite matrix with comfortable eigenvalue margin."""
    b = rng.normal(size=(n, n)) * spread
    return b @ b.T + n * np.eye(n)


def graphical_pd(g, rng, weight=0.25):
    """Inverse of a diagonally dominant matrix patterned on g.

    The result has (inverse) zeros exactly off g, so it realizes the
    separation statements of g; generically it realizes nothing more.
    """
    n = g.n
    k = np.eye(n) * (1.0 + weight * n)
    for i, j in g.edges:
        v = weight * (0.5 + rng.random())
        k[i - 1, j - 1] = v
        k[j - 1, i - 1] = v
    inv = np.linalg.inv(k)
    return (inv + inv.T) / 2


# independent path/separation oracle, adjacency dicts instead of bitmasks

def oracle_all_paths(edge_list, k, l):
    adj = {}
    for a, b in edge_list:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    paths = []

    def walk(v, seen):
        if v == l:
            paths.append(tuple(seen))
            return
        for w in sorted(adj.get(v, ())):
            if w not in seen:
                walk(w, seen + [w])

    walk(k, [k])
    return paths


def oracle_separates(edge_list, i, j, K):
    return all(set(p[1:-1]) & set(K) for p in oracle_all_paths(edge_list, i, j))


def unrestricted_point(g, h, seed):
    """The Gauss-Newton kernel of find_model_point on the whole pair, blocks ignored.

    Its points are not block-diagonal by construction, so they are the
    oracle for the decomposition claim.
    """
    return geometry._search_point(g, h, seed)


def corpus_pairs(seed, count):
    """(G, H, seed) of the first count pairs of the benchmark's analyze corpus for seed.

    The generator uses only the standard library, so it is loaded from its file.
    """
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return [(*graphs.parse_pair_file(text), k) for text, k in inputs.analyze_corpus(seed)[:count]]
