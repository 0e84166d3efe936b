"""Classify every small-intersection shape and count CI structures.

All three-edge-path configurations are dispatched to their case, a member
of each family is sampled and verified, and the inequivalent CI structures
of connected pairs are counted for n = 3, 4 and 5 (2644 at n = 5).  Each
representative is keyed by its least pair code G << C(n,2) | H over the orbit.
"""

import itertools

import numpy as np

import doublemarkov as dm

base = [(1, 2), (2, 3), (3, 4)]
chords = [(1, 3), (1, 4), (2, 4)]
rng = np.random.default_rng(42)

print("three shared path edges, all chord configurations:")
for assignment in itertools.product((0, 1, 2), repeat=3):
    ge = base + [c for c, a in zip(chords, assignment) if a == 0]
    he = base + [c for c, a in zip(chords, assignment) if a == 1]
    g = dm.Graph.from_edges(4, ge)
    h = dm.Graph.from_edges(4, he)
    desc = dm.classify_small_intersection(g, h)
    sample = dm.sample_from_family(desc, rng=rng)
    resid = np.abs(dm.membership_residual(sample, g, h)).max()
    tag = " swapped" if desc.swapped else ""
    print(f"  chords G:{[c for c,a in zip(chords,assignment) if a==0]}"
          f" H:{[c for c,a in zip(chords,assignment) if a==1]}"
          f" -> {desc.case}{tag}, dim {desc.dimension},"
          f" {desc.component_count} component(s), residual {resid:.1e}")

print("\ninequivalent CI structures of connected pairs (modulo isomorphy and duality):")
for n in (3, 4):
    res = dm.enumerate_inequivalent(n, connected_only=True)
    print(f"  n={n}: {res.count}")
    if n == 3:
        for key, g, h in res.representatives:
            print(f"    {key.hex()}  G={g.edges}  H={h.edges}")
print("  n=5:", dm.enumerate_inequivalent(5, connected_only=True).count)
