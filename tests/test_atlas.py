"""Exhaustive counts over the orbit representatives of connected pairs, n = 4 and 5.

The representatives are those of enumerate_inequivalent(n): 55 pairs at
n = 4 and 2644 at n = 5.  A change that raises a count updates the number
asserted here and records the before and after.
"""

from collections import Counter

import pytest

from doublemarkov import classify, geometry, graphs, ideal

KINDS = {
    4: {"UniquePath": 12, "UniquePathSwapped": 25, "Hub": 14, "HubSwapped": 2,
        "SmallIntersection": 1, "Unknown": 1},
    5: {"UniquePath": 103, "UniquePathSwapped": 721, "Hub": 199, "HubSwapped": 596,
        "SmallIntersection": 580, "Unknown": 445},
}
DESCRIBED = {4: 46, 5: 1670}


def _block_described(g, h) -> bool:
    """Unique-path hypothesis on (g, h) or (h, g), or at most 3 shared edges that classify takes."""
    if ideal.unique_path_hypothesis(g, h) or ideal.unique_path_hypothesis(h, g):
        return True
    if graphs.edge_intersection(g, h).num_edges > 3:
        return False
    try:
        classify.classify_small_intersection(g, h)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("n", [4, 5])
def test_atlas_counts(n):
    reps = [(g, h) for _, g, h in classify.enumerate_inequivalent(n).representatives]
    kinds = Counter(geometry.connectedness_certificate(g, h).kind for g, h in reps)
    assert kinds == KINDS[n]
    described = sum(all(_block_described(bg, bh) for bg, bh in geometry.decompose(g, h).pairs)
                    for g, h in reps)
    assert (described, len(reps)) == (DESCRIBED[n], sum(KINDS[n].values()))
