"""Undirected weighted communication graphs.

Parsing, connectivity, unweighted BFS distances, the even/odd distance
partition with its cross/intra edge split and minimum cross-edge weight,
and the graph Laplacian.  Agents are 0-based internally; the edge-list text
format is 1-based.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import Scalar, format_scalar, parse_scalar


class GraphFormatError(ValueError):
    """Malformed edge-list document."""


class NotConnectedError(ValueError):
    """Operation requires a connected graph."""


@dataclass(frozen=True)
class WeightedGraph:
    """Symmetric nonnegative adjacency with zero diagonal.

    `adjacency[i]` lists agent i's (neighbor, weight) pairs with positive
    weight in index order; it is built once, while the matrix is validated.
    """

    n: int
    weights: tuple[tuple[Scalar, ...], ...]
    adjacency: tuple[tuple[tuple[int, Scalar], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphFormatError("graph needs at least one agent")
        w = self.weights
        if len(w) != self.n or any(len(r) != self.n for r in w):
            raise GraphFormatError("weight matrix shape mismatch")
        adjacency = []
        for i, row in enumerate(w):
            if row[i] != 0:
                raise GraphFormatError(f"self-loop on agent {i + 1}")
            nbrs = []
            for j, wij in enumerate(row):
                if wij:
                    if wij < 0:
                        raise GraphFormatError("negative edge weight")
                    if wij != w[j][i]:
                        raise GraphFormatError("adjacency not symmetric")
                    nbrs.append((j, wij))
                elif w[j][i]:
                    raise GraphFormatError("adjacency not symmetric")
            adjacency.append(tuple(nbrs))
        object.__setattr__(self, "adjacency", tuple(adjacency))

    @classmethod
    def from_edges(cls, n: int, edges: list[tuple[int, int, Scalar]]) -> "WeightedGraph":
        w: list[list[Scalar]] = [[Fraction(0)] * n for _ in range(n)]
        for i, j, weight in edges:
            w[i][j] = weight
            w[j][i] = weight
        return cls(n, tuple(tuple(row) for row in w))

    def neighbors(self, i: int) -> list[int]:
        return [j for j, _ in self.adjacency[i]]

    def edges(self) -> list[tuple[int, int, Scalar]]:
        """Edges as (i, j, weight) with i < j, sorted."""
        return [
            (i, j, w) for i, nbrs in enumerate(self.adjacency) for j, w in nbrs if j > i
        ]


@dataclass(frozen=True)
class Partition:
    """Even/odd BFS-distance split from the root, with cross-edge data."""

    root: int
    dist: tuple[int, ...]
    s_even: frozenset[int]
    s_odd: frozenset[int]
    #: (even endpoint, odd endpoint, weight)
    cross_edges: tuple[tuple[int, int, Scalar], ...]
    intra_edges: tuple[tuple[int, int, Scalar], ...]
    a_bar: Scalar


def parse_graph(text: str, mode: str = "exact") -> WeightedGraph:
    """Parse an edge-list document.

    Lines are "i j w" with 1-based agent indices and positive weight; an
    optional first line "n <count>" declares the agent count.  Blank lines
    and lines starting with '#' are ignored.
    """
    declared_n: int | None = None
    edges: dict[tuple[int, int], Scalar] = {}
    max_seen = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if declared_n is not None or edges:
                raise GraphFormatError(f"line {lineno}: stray agent-count line")
            if len(parts) != 2 or not parts[1].isdigit() or int(parts[1]) < 1:
                raise GraphFormatError(f"line {lineno}: bad agent count")
            declared_n = int(parts[1])
            continue
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'i j w'")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: bad agent index") from exc
        if i < 1 or j < 1:
            raise GraphFormatError(f"line {lineno}: agent indices are 1-based")
        if i == j:
            raise GraphFormatError(f"line {lineno}: self-loop on agent {i}")
        try:
            w = parse_scalar(parts[2], mode)
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: bad weight: {exc}") from exc
        if w <= 0:
            raise GraphFormatError(f"line {lineno}: nonpositive weight")
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
    a_bar = min(w for _, _, w in cross)
    return Partition(root, dist, s_even, s_odd, tuple(cross), tuple(intra), a_bar)


def laplacian(g: WeightedGraph) -> list[list[Scalar]]:
    """L = D - A; rows sum to zero exactly in exact mode."""
    zero = g.weights[0][0] * 0  # same numeric type as the weights
    lap = [[zero] * g.n for _ in range(g.n)]
    for i in range(g.n):
        degree = zero
        for j in range(g.n):
            if j != i:
                lap[i][j] = -g.weights[i][j]
                degree = degree + g.weights[i][j]
        lap[i][i] = degree
    return lap
