"""Undirected weighted communication graphs.

Parsing, connectivity, unweighted BFS distances, the even/odd distance
partition with its cross/intra edge split and minimum cross-edge weight,
and the graph Laplacian.  Agents are 0-based internally; the edge-list text
format is 1-based.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque, namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .records import Record
from .scalars import Scalar, distinct, format_scalar, parse_scalar


class GraphFormatError(ValueError):
    """Malformed edge-list document."""


class NotConnectedError(ValueError):
    """Operation requires a connected graph."""


class WeightedGraph(Record, namedtuple("WeightedGraph", "n adjacency")):
    """Symmetric positive-weight adjacency lists with no self-loops.

    `adjacency[i]` lists agent i's (neighbor, weight) pairs sorted by
    neighbor index; it is stored as a tuple of tuples.  Validation costs
    O(n + |E|); no n×n structure is built.
    """

    __slots__ = ()

    def __new__(
        cls, n: int, adjacency: Iterable[Iterable[tuple[int, Scalar]]]
    ) -> "WeightedGraph":
        if n < 1:
            raise GraphFormatError("graph needs at least one agent")
        adjacency = tuple(map(tuple, adjacency))
        if len(adjacency) != n:
            raise GraphFormatError(f"adjacency has {len(adjacency)} rows for {n} agents")
        # row j of `lower` collects the entries (i, w) of rows i < j that name
        # j, in increasing i: the transpose of the upper half, with no sort
        lower: list[list[tuple[int, Scalar]]] = [[] for _ in range(n)]
        # ids of the weight objects found positive: a parsed graph shares one
        # object per distinct weight text, so each is compared with 0 once
        positive: set[int] = set()
        for i, nbrs in enumerate(adjacency):
            prev = -1
            for entry in nbrs:
                if type(entry) is not tuple or len(entry) != 2 or type(entry[0]) is not int:
                    raise GraphFormatError(
                        f"agent {i + 1}: entry {entry!r} is not a (neighbor, weight) pair"
                    )
                j, w = entry
                if not 0 <= j < n:
                    raise GraphFormatError(f"agent {i + 1}: neighbor {j + 1} out of range 1..{n}")
                if j <= prev:
                    raise GraphFormatError(
                        f"agent {i + 1}: neighbors not strictly increasing at {j + 1}"
                    )
                if j == i:
                    raise GraphFormatError(f"self-loop on agent {i + 1}")
                if j > i:
                    # the symmetry check below makes each lower entry equal to
                    # an upper one, so checking the upper half suffices
                    if id(w) not in positive:
                        if not w > 0:
                            raise GraphFormatError(
                                f"edge weight on ({i + 1}, {j + 1}) is negative or zero"
                            )
                        positive.add(id(w))
                    lower[j].append((i, w))
                prev = j
        # symmetric iff every row's entries below the diagonal are that transpose
        for i, nbrs in enumerate(adjacency):
            if list(nbrs[: bisect_left(nbrs, (i,))]) != lower[i]:
                raise GraphFormatError(f"adjacency not symmetric at agent {i + 1}")
        return super().__new__(cls, n, adjacency)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, Scalar]]) -> "WeightedGraph":
        """The graph on agents 0..n-1 with each (i, j, w) an undirected edge."""
        rows: list[list[tuple[int, Scalar]]] = [[] for _ in range(n)]
        for i, j, w in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise GraphFormatError(f"edge ({i + 1}, {j + 1}) outside agents 1..{n}")
            rows[i].append((j, w))
            rows[j].append((i, w))
        for row in rows:
            row.sort()  # by neighbor; a repeated neighbor fails validation
        return cls(n, tuple(map(tuple, rows)))

    def weight(self, i: int, j: int) -> Scalar:
        """The weight of edge (i, j), or 0 when i and j are not neighbors."""
        nbrs = self.adjacency[i]
        k = bisect_left(nbrs, (j,))
        if k < len(nbrs) and nbrs[k][0] == j:
            return nbrs[k][1]
        return Fraction(0)

    def neighbors(self, i: int) -> list[int]:
        return [j for j, _ in self.adjacency[i]]

    def edges(self) -> list[tuple[int, int, Scalar]]:
        """Edges as (i, j, weight) with i < j, sorted."""
        return [
            (i, j, w) for i, nbrs in enumerate(self.adjacency) for j, w in nbrs if j > i
        ]


class Partition(
    Record,
    namedtuple("Partition", "root dist s_even s_odd cross_edges intra_edges a_bar"),
):
    """Even/odd BFS-distance split from the root, with cross-edge data.

    `dist` is the tuple of distances from `root`, and `s_even`, `s_odd` the
    frozensets of agents at even and odd distance.  `cross_edges` are
    (even endpoint, odd endpoint, weight) triples, `intra_edges` (i, j,
    weight) triples within a class, and `a_bar` the least cross-edge weight.
    """

    __slots__ = ()


def parse_graph(text: str, mode: str = "exact") -> WeightedGraph:
    """Parse an edge-list document.

    Lines are "i j w" with 1-based agent indices and positive weight; an
    optional first line "n <count>" declares the agent count.  Blank lines
    and lines starting with '#' are ignored.
    """
    declared_n: int | None = None
    edges: dict[tuple[int, int], Scalar] = {}
    # graphs repeat a few weight texts, so each distinct text is parsed once
    values: dict[str, Scalar] = {}
    max_seen = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if declared_n is not None or edges:
                raise GraphFormatError(f"line {lineno}: stray agent-count line")
            # str.isdigit admits digits such as "²" that int() rejects
            if len(parts) != 2 or not parts[1].encode().isdigit() or int(parts[1]) < 1:
                raise GraphFormatError(f"line {lineno}: bad agent count")
            declared_n = int(parts[1])
            continue
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'i j w'")
        # ASCII digits only, as for the agent count: int() reads any Unicode digit
        a, b = parts[0], parts[1]
        if not (a.isascii() and b.isascii() and a.isdigit() and b.isdigit()):
            raise GraphFormatError(f"line {lineno}: bad agent index")
        i, j = int(a), int(b)
        if i < 1 or j < 1:
            raise GraphFormatError(f"line {lineno}: agent indices are 1-based")
        if i == j:
            raise GraphFormatError(f"line {lineno}: self-loop on agent {i}")
        w = values.get(parts[2])
        if w is None:
            try:
                w = parse_scalar(parts[2], mode)
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: bad weight: {exc}") from exc
            if w <= 0:
                raise GraphFormatError(f"line {lineno}: nonpositive weight")
            values[parts[2]] = w
        key = (min(i, j) - 1, max(i, j) - 1)
        if key in edges and edges[key] != w:
            raise GraphFormatError(f"line {lineno}: conflicting duplicate edge")
        edges[key] = w
        max_seen = max(max_seen, i, j)
    n = declared_n if declared_n is not None else max_seen
    if n < 1:
        raise GraphFormatError("empty graph document")
    if max_seen > n:
        raise GraphFormatError(f"agent {max_seen} exceeds declared count {n}")
    return WeightedGraph.from_edges(n, [(i, j, w) for (i, j), w in edges.items()])


def serialize_graph(g: WeightedGraph) -> str:
    """Deterministic inverse of parse_graph on the edge multiset."""
    lines = [f"n {g.n}"]
    for i, j, w in g.edges():
        lines.append(f"{i + 1} {j + 1} {format_scalar(w)}")
    return "\n".join(lines) + "\n"


def is_connected(g: WeightedGraph) -> bool:
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in g.neighbors(i):
            if j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == g.n


def bfs_distances(g: WeightedGraph, root: int) -> tuple[int, ...]:
    """Minimum edge count from root to every agent (unweighted)."""
    dist = [-1] * g.n
    dist[root] = 0
    queue = deque([root])
    while queue:
        i = queue.popleft()
        for j in g.neighbors(i):
            if dist[j] < 0:
                dist[j] = dist[i] + 1
                queue.append(j)
    if any(d < 0 for d in dist):
        bad = dist.index(-1)
        raise NotConnectedError(f"agent {bad + 1} unreachable from agent {root + 1}")
    return tuple(dist)


def make_partition(g: WeightedGraph, root: int = 0) -> Partition:
    dist = bfs_distances(g, root)
    s_even = frozenset(i for i in range(g.n) if dist[i] % 2 == 0)
    s_odd = frozenset(i for i in range(g.n) if dist[i] % 2 == 1)
    cross: list[tuple[int, int, Scalar]] = []
    intra: list[tuple[int, int, Scalar]] = []
    for i, j, w in g.edges():
        if (i in s_even) == (j in s_even):
            intra.append((i, j, w))
        elif i in s_even:
            cross.append((i, j, w))
        else:
            cross.append((j, i, w))
    if not cross:
        # only possible for the single-agent graph; there is no orbit to build
        raise NotConnectedError("graph has no cross edges (need at least 2 agents)")
    # the first least of the distinct weight objects is the first least weight
    a_bar = min(distinct(w for _, _, w in cross))
    return Partition(root, dist, s_even, s_odd, tuple(cross), tuple(intra), a_bar)


def laplacian(g: WeightedGraph) -> list[list[Scalar]]:
    """L = D - A; rows sum to zero exactly in exact mode."""
    zero = Fraction(0)  # a non-edge, as `weight` returns it
    lap = [[zero] * g.n for _ in range(g.n)]
    for i, nbrs in enumerate(g.adjacency):
        degree = zero
        for j, w in nbrs:
            lap[i][j] = -w
            degree = degree + w
        lap[i][i] = degree
    return lap
