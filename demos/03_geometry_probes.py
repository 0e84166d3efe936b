"""Geometry probes: transversality, tangent ranks, and connectedness evidence.

The closing section samples random pairs and probes two open conjectures
(connectedness; smoothness at maximal dimension) empirically:
certificates cover most pairs, and at sampled points the tangent dimension
matches the shared-edge bound whenever the certificate machinery says the
model should be as large as possible.  Nothing here is a proof.
"""

import numpy as np

import doublemarkov as dm
from doublemarkov.graphs import all_graphs, edge_intersection, edge_union, pairs_lex

# transversality at the identity happens exactly for complete unions (n = 3)
hits = misses = 0
for g in all_graphs(3):
    for h in all_graphs(3):
        t = dm.is_transverse_at(np.eye(3), g, h)
        complete = edge_union(g, h).num_edges == 3
        assert t == complete
        hits += t
        misses += not t
print("n=3 pairs transverse at identity:", hits, "of", hits + misses)

# the 6x6 principally regular counterexample: the block theorem needs
# positive definiteness, not just nonvanishing principal minors
x14 = np.sqrt(981.0 / 1210.0)
cex = np.array([
    [10, 1, 1, x14, 11 * x14, 0],
    [1, 10, 1, 0, 0, 0],
    [1, 1, 10, -x14, 0, -11 * x14],
    [x14, 0, -x14, 10, 1, 1],
    [11 * x14, 0, 0, 1, 10, 1],
    [0, 0, -11 * x14, 1, 1, 10]])
print("\ncounterexample determinant:", np.linalg.det(cex), "(-4374/55 =", -4374 / 55, ")")
print("positive definite:", dm.is_pd(cex))

# hub shrinkage: scaling the hub row/column walks inside the model
h = dm.Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3)])
g = dm.Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4)])
cert = dm.connectedness_certificate(g, h)
print("\ncertificate for the hub pair:", cert)
point = dm.find_model_point(g, h, seed=1)
worst = 0.0
for eps in np.linspace(1, 0, 11):
    shrunk = dm.hadamard_shrink(point.matrix, cert.witness, float(eps))
    worst = max(worst, float(np.abs(dm.membership_residual(shrunk, g, h)).max()))
print("worst residual along the shrink path:", worst)

# conjecture probes on random pairs (n = 5)
rng = np.random.default_rng(0)
kinds = {}
dim_agree = dim_total = 0
for _ in range(200):
    g = dm.Graph.from_edges(5, [e for e in pairs_lex(5) if rng.random() < 0.5])
    h = dm.Graph.from_edges(5, [e for e in pairs_lex(5) if rng.random() < 0.5])
    kind = dm.connectedness_certificate(g, h).kind
    kinds[kind] = kinds.get(kind, 0) + 1
    if edge_union(g, h).num_edges == 10:  # smooth by the transversality theorem
        res = dm.find_model_point(g, h, seed=3)
        if res.converged:
            dim_total += 1
            d = dm.local_tangent_dimension(res.matrix, g, h)
            dim_agree += d == edge_intersection(g, h).num_edges
print("\ncertificate coverage over 200 random pairs:", dict(sorted(kinds.items())))
print("complete-union pairs where tangent dim equals the bound:",
      f"{dim_agree}/{dim_total}")
print("(evidence, not proof, for the open conjectures)")
