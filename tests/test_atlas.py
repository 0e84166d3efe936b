"""Exhaustive counts over the orbit representatives of connected pairs, n = 4 and 5.

The representatives are those of enumerate_inequivalent(n): 55 pairs at
n = 4 and 2644 at n = 5.  A change that raises a count updates the number
asserted here and records the before and after.

docs/atlas.md is generated from the same walk; a test fails when it is
stale, and ``python tests/test_atlas.py`` rewrites it.
"""

import functools
import os
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
ATLAS = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "atlas.md")


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


@functools.cache
def _walk(n):
    """Per orbit representative: (canonical key, G, H, certificate kind, every block described)."""
    return [(key, g, h, geometry.connectedness_certificate(g, h).kind,
             all(_block_described(bg, bh) for bg, bh in geometry.decompose(g, h).pairs))
            for key, g, h in classify.enumerate_inequivalent(n).representatives]


@pytest.mark.parametrize("n", [4, 5])
def test_atlas_counts(n):
    orbits = _walk(n)
    assert Counter(kind for *_, kind, _ in orbits) == KINDS[n]
    described = sum(full for *_, full in orbits)
    assert (described, len(orbits)) == (DESCRIBED[n], sum(KINDS[n].values()))


def atlas_text() -> str:
    """docs/atlas.md: counts by certificate kind and description at n = 4 and 5, then
    the n = 4 orbits with no certificate or with a block that has no description."""
    out = ["# Atlas of connected pairs, n = 4 and 5", "",
           "Generated by `python tests/test_atlas.py` from the orbit representatives of",
           "`enumerate_inequivalent(n)`; `tests/test_atlas.py` fails when this file is stale.",
           "", "\"Described\" means every block of `decompose` has an exact description: the",
           "unique-path hypothesis on (G, H) or on (H, G), or at most three shared edges",
           "that `classify_small_intersection` takes."]
    for n in (4, 5):
        counts = Counter((kind, full) for *_, kind, full in _walk(n))
        out += ["", f"## Certificate kinds, n = {n}", "",
                "| certificate | described | not described | total |", "|---|---|---|---|"]
        for kind in [*KINDS[n], "total"]:
            yes, no = (sum(c for (k, f), c in counts.items() if f == full and kind in (k, "total"))
                       for full in (True, False))
            out.append(f"| {kind} | {yes} | {no} | {yes + no} |")
    out += ["", "## Orbits at n = 4 with no certificate or no full description", "",
            "| canonical hex | G | H | certificate | described |", "|---|---|---|---|---|"]
    out += [f"| `{key.hex()}` | {graphs._edge_text(g)} | {graphs._edge_text(h)} | {kind} "
            f"| {'yes' if full else 'no'} |"
            for key, g, h, kind, full in _walk(4) if kind == "Unknown" or not full]
    return "\n".join(out) + "\n"


def test_atlas_document_is_current():
    with open(ATLAS) as fh:
        assert fh.read() == atlas_text(), "docs/atlas.md is stale: run python tests/test_atlas.py"


if __name__ == "__main__":
    with open(ATLAS, "w") as fh:
        fh.write(atlas_text())
