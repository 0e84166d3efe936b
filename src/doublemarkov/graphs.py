"""Simple undirected graphs on vertex sets {1, ..., n} with n <= 16.

Vertices are 1-based in every public signature; internally adjacency is a
tuple of 0-based neighbor bitmasks, so graphs are hashable, immutable and
cheap to copy.  After deleting a vertex k, the surviving vertices are
relabelled by decrementing every label greater than k.

All functions here are pure; ``Graph`` values never mutate.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from .errors import PathCapExceeded

MAX_VERTICES = 16
DEFAULT_PATH_CAP = 10**6
# per n, the sums of 1 << (k * s) over k < n for the strides s = n, n + 1, n + 2
_GRID_MASKS = {n: tuple(((1 << n * s) - 1) // ((1 << s) - 1) for s in (n, n + 1, n + 2))
               for n in range(1, MAX_VERTICES + 1)}


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; ``adj[v]`` is the neighbor bitmask of 0-based v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        """Refuse a size outside 1..MAX_VERTICES and masks that are not a simple graph's."""
        n, adj = self.n, self.adj
        _check_vertex_count(n)
        # O(n) integer operations on an n x (n + 1) bit grid whose row v is mask v:
        # m * rep is n copies of m at stride n, and & diag keeps bit w of copy w, in
        # row w, so shifted by v it is column v; loops marks the positions (v, v).
        rep, diag, loops = _GRID_MASKS[n]
        rows = cols = 0
        for v, m in enumerate(adj):
            rows |= m << v * (n + 1)
            cols |= (m * rep & diag) << v
        if len(adj) != n or min(adj) < 0 or max(adj) >> n or rows & loops or rows != cols:
            raise ValueError(f"neighbor masks {adj} are not those of a simple graph on 1..{n}")

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build a graph on vertices 1..n from an iterable of 1-based pairs."""
        _check_vertex_count(n)  # before [0] * n allocates
        adj = [0] * n
        for e in edges:
            (i, j), _ = _vertices(n, e)  # a self-loop repeats its vertex
            adj[i - 1] |= 1 << (j - 1)
            adj[j - 1] |= 1 << (i - 1)
        return Graph(n, tuple(adj))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted tuple of 1-based edge pairs (i, j) with i < j."""
        return tuple(p for p in pairs_lex(self.n) if self.adj[p[0] - 1] >> (p[1] - 1) & 1)

    def has_edge(self, i: int, j: int) -> bool:
        """Whether ij is an edge; False for i == j, as a simple graph has no loops."""
        (i,), _ = _vertices(self.n, (i,))
        (j,), _ = _vertices(self.n, (j,))
        return i != j and bool(self.adj[i - 1] >> (j - 1) & 1)

    def neighbors(self, i: int) -> frozenset[int]:
        (i,), _ = _vertices(self.n, (i,))
        return frozenset(v + 1 for v in _bits(self.adj[i - 1]))

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def non_edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted 1-based pairs (i, j), i < j, that are not edges."""
        return tuple(p for p in pairs_lex(self.n) if not self.adj[p[0] - 1] >> (p[1] - 1) & 1)

    def __repr__(self):
        return f"Graph(n={self.n}, edges=[{_edge_text(self)}])"


def complete_graph(n: int) -> Graph:
    return complement(empty_graph(n))


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full & ~m) & ~(1 << v) for v, m in enumerate(g.adj)))


def _check_vertex_count(n: int):
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")


def _vertices(n: int, values, statement: bool = False) -> tuple[list[int], int]:
    """The values as Python ints and their bitmask over 0-based vertices: the one vertex check.

    Every value goes through operator.index, so a numpy integer or a bool is the int it
    equals; ValueError refuses a non-integer, a value outside 1..n and a repeated vertex.
    With ``statement`` the values are (i, j, *K), and a vertex outside 1..n or a repeated
    one is refused as ``statement (i j | K) does not fit ground set 1..n``."""
    ints, mask = [], 0
    for v in values:
        try:
            v = operator.index(v)
        except TypeError:
            raise ValueError(f"vertex {v!r} is not an integer") from None
        ints.append(v)
        mask |= 1 << (v - 1) if 1 <= v <= n else 0
    if mask.bit_count() != len(ints):  # a vertex outside 1..n or a repeat sets no new bit
        if statement:
            i, j, *K = ints
            raise ValueError(f"statement ({i} {j} |{''.join(f' {k}' for k in sorted(K))})"
                             f" does not fit ground set 1..{n}")
        outside = [v for v in ints if not 1 <= v <= n]
        raise ValueError(f"vertex {outside[0]} out of range 1..{n}" if outside
                         else f"vertices {tuple(ints)} are not distinct")
    return ints, mask


def _deleted_vertex(n: int, k) -> int:
    """Vertex k of 1..n as an int, for a minor that deletes it: refused where n is 1."""
    (k,), _ = _vertices(n, (k,))
    if n == 1:
        raise ValueError("cannot delete the last vertex")
    return k


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reachable(g: Graph, start0: int, blocked_mask: int) -> int:
    """Bitmask of vertices reachable from 0-based start avoiding blocked ones."""
    seen = 1 << start0
    frontier = seen
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= g.adj[v]
        nxt &= ~blocked_mask & ~seen
        seen |= nxt
        frontier = nxt
    return seen


def separates(g: Graph, i: int, j: int, K) -> bool:
    """True iff every path from i to j in g meets the vertex set K."""
    (i, j, *_), mask = _vertices(g.n, (i, j, *K))
    blocked = mask ^ (1 << (i - 1)) ^ (1 << (j - 1))  # the bits of K
    return not _reachable(g, i - 1, blocked) >> (j - 1) & 1


def marginal_minor(g: Graph, k: int) -> Graph:
    """Delete vertex k and all incident edges; labels above k decrement."""
    k = _deleted_vertex(g.n, k)
    return induced_subgraph(g, [v for v in range(1, g.n + 1) if v != k])


def conditional_minor(g: Graph, k: int) -> Graph:
    """Delete vertex k after joining its neighbors into a clique."""
    k = _deleted_vertex(g.n, k)
    nbrs = g.adj[k - 1]
    joined = tuple(m | nbrs & ~(1 << v) if nbrs >> v & 1 else m for v, m in enumerate(g.adj))
    return marginal_minor(Graph(g.n, joined), k)


def direct_sum(g: Graph, g2: Graph) -> Graph:
    """Disjoint union; the second block's labels are offset by g.n."""
    return Graph(g.n + g2.n, (*g.adj, *(m << g.n for m in g2.adj)))


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Induced subgraph on the given distinct 1-based vertices, relabelled 1..|V| by rank."""
    _, mask = _vertices(g.n, vertices)
    vs = list(_bits(mask))
    return Graph(len(vs), tuple(sum(1 << b for b, w in enumerate(vs) if g.adj[v] >> w & 1)
                                for v in vs))


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Partition of 1..n into maximal connected sets, blocks sorted by least element."""
    remaining = (1 << g.n) - 1
    blocks = []
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = _reachable(g, start, blocked_mask=0) & remaining
        blocks.append(tuple(v + 1 for v in _bits(comp)))
        remaining &= ~comp
    return tuple(sorted(blocks))


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def all_paths(g: Graph, k: int, l: int, cap: int = DEFAULT_PATH_CAP):
    """All simple paths from k to l as 1-based vertex tuples, lexicographic order.

    Raises PathCapExceeded once more than ``cap`` paths are found, which is
    distinguishable from the empty result for disconnected endpoints.
    """
    (k, l), _ = _vertices(g.n, (k, l))
    paths = []
    target = l - 1
    stack = [k - 1]
    visited = 1 << (k - 1)

    def dfs():
        nonlocal visited
        v = stack[-1]
        if v == target:
            if len(paths) >= cap:
                raise PathCapExceeded(cap)
            paths.append(tuple(u + 1 for u in stack))
            return
        for w in _bits(g.adj[v]):
            if not visited >> w & 1:
                visited |= 1 << w
                stack.append(w)
                dfs()
                stack.pop()
                visited &= ~(1 << w)

    dfs()
    return paths


def _same_ground_set(g: Graph, h: Graph):
    if g.n != h.n:
        raise ValueError(f"graphs live on different vertex sets ({g.n} vs {h.n})")


def edge_intersection(g: Graph, h: Graph) -> Graph:
    _same_ground_set(g, h)
    return Graph(g.n, tuple(a & b for a, b in zip(g.adj, h.adj)))


def edge_union(g: Graph, h: Graph) -> Graph:
    _same_ground_set(g, h)
    return Graph(g.n, tuple(a | b for a, b in zip(g.adj, h.adj)))


# -- edge <-> rank bookkeeping shared with the CI and matrix layers ----------

@lru_cache(maxsize=None)
def pairs_lex(n: int) -> tuple[tuple[int, int], ...]:
    """All 1-based pairs (i, j), i < j, in lexicographic order (n <= MAX_VERTICES)."""
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")
    return tuple(itertools.combinations(range(1, n + 1), 2))


def pair_rank(n: int, i: int, j: int) -> int:
    """Rank of the unordered pair {i, j} in the lexicographic pair order."""
    (i, j), _ = _vertices(n, (i, j))
    i, j = min(i, j), max(i, j)
    return (2 * n - i) * (i - 1) // 2 + (j - i - 1)


def edge_mask(g: Graph) -> int:
    """Edge set as a C(n,2)-bit mask, bit = lexicographic pair rank."""
    return sum(1 << r for r, (i, j) in enumerate(pairs_lex(g.n)) if g.adj[i - 1] >> (j - 1) & 1)


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    """Inverse of edge_mask; the mask must have at most C(n,2) bits."""
    npairs = n * (n - 1) // 2
    if not (1 <= n <= MAX_VERTICES and 0 <= mask < 1 << npairs):
        raise ValueError(f"need n in 1..{MAX_VERTICES} and mask in 0..2^{npairs} - 1, "
                         f"got n = {n}, mask = {mask}")
    ps, adj = pairs_lex(n), [0] * n
    for r in _bits(mask):
        i, j = ps[r]
        adj[i - 1] |= 1 << (j - 1)
        adj[j - 1] |= 1 << (i - 1)
    return Graph(n, tuple(adj))


# -- graph pair text format ---------------------------------------------------

def parse_pair_file(text: str) -> tuple[Graph, Graph]:
    """Parse the three-line pair format: ``n <count>``, ``G <i>-<j> ...``, ``H ...``."""
    lines = _numbered_lines(text, "pair")
    if len(lines) != 3:
        raise ValueError(f"line {_line_past(lines, 3, text)}: pair file needs exactly three "
                         f"non-blank lines (n, G, H), found {len(lines)}")
    n = _parse_n_line(*lines[0])
    return tuple(_parse_edge_line(no, line, tag, n) for (no, line), tag in zip(lines[1:], "GH"))


def _numbered_lines(text: str, kind: str) -> list[tuple[int, str]]:
    """(line number in the file, stripped text) per non-blank line of a ``kind`` file."""
    lines = [(no, s) for no, line in enumerate(text.splitlines(), start=1) if (s := line.strip())]
    if not lines:
        raise ValueError(f"empty {kind} file")
    return lines


def _line_past(lines: list[tuple[int, str]], count: int, text: str) -> int:
    """The line a file of ``count`` non-blank lines is refused at: the first non-blank line
    past them, or else, when too few, the file's last line."""
    return lines[count][0] if len(lines) > count else len(text.splitlines())


def _parse_n_line(no: int, line: str) -> int:
    toks = line.split()
    if len(toks) != 2 or toks[0] != "n":
        raise ValueError(f"line {no}: expected 'n <count>', got {line!r}")
    try:
        n = int(toks[1])
    except ValueError:
        raise ValueError(f"line {no}: vertex count {toks[1]!r} is not an integer") from None
    try:
        _check_vertex_count(n)
    except ValueError as err:
        raise ValueError(f"line {no}: {err}") from None
    return n


def _parse_edge_line(no: int, line: str, tag: str, n: int) -> Graph:
    toks = line.split()
    if toks[0] != tag:
        raise ValueError(f"line {no}: expected it to start with {tag!r}")
    ends, adj = _edge_tokens(n), [0] * n
    for tok in toks[1:]:
        i, j = ends.get(tok) or _edge_ends(n, tok, no)  # any other spelling, and every refusal
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def _edge_ends(n: int, tok: str, no: int) -> tuple[int, int]:
    """The 0-based ends of the edge token 'i-j' on 1..n, or a refusal naming line no."""
    try:
        (i, j), _ = _vertices(n, map(int, tok.split("-")))  # a self-loop repeats its vertex
    except ValueError:  # from int, from the vertex check, or a token without two ends
        raise ValueError(f"line {no}: malformed edge token {tok!r}") from None
    return i - 1, j - 1


@lru_cache(maxsize=None)
def _edge_tokens(n: int) -> dict[str, tuple[int, int]]:
    """_edge_ends of each canonical edge token 'i-j', i != j in 1..n."""
    toks = (f"{i}-{j}" for i, j in itertools.permutations(range(1, n + 1), 2))
    return {tok: _edge_ends(n, tok, 0) for tok in toks}


def format_pair_file(g: Graph, h: Graph) -> str:
    _same_ground_set(g, h)
    return f"n {g.n}\nG {_edge_text(g)}\nH {_edge_text(h)}\n"


def _edge_text(g: Graph) -> str:
    """The edges as space-separated ``i-j`` tokens, the pair file's edge syntax."""
    return " ".join(f"{i}-{j}" for i, j in g.edges)


@lru_cache(maxsize=8)
def connected_graph_masks(n: int) -> tuple[int, ...]:
    """Edge masks of all connected labeled graphs on n vertices (n <= 6)."""
    if not 1 <= n <= 6:
        raise ValueError("connected graph enumeration is supported for n <= 6")
    out = []
    for mask in range(1 << len(pairs_lex(n))):
        if is_connected(graph_from_edge_mask(n, mask)):
            out.append(mask)
    return tuple(out)


def all_graphs(n: int):
    """Iterate over every labeled graph on n vertices (n <= 6)."""
    if n > 6:
        raise ValueError("exhaustive graph iteration is supported for n <= 6")
    for mask in range(1 << len(pairs_lex(n))):
        yield graph_from_edge_mask(n, mask)

