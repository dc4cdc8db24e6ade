"""Undirected weighted communication graphs.

Parsing, unweighted BFS distances, which also decide connectivity, the
even/odd distance classes, and the partition that adds their cross/intra
edge split and minimum cross-edge weight.  Agents are 0-based internally;
the edge-list text format is 1-based.

A weight's sign and the least of several weights are decided on integers
when the weights are rational (`_positive`, `_least`), and floats compare
as they are.
"""

from __future__ import annotations

import gc
import math
import re
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable
from itertools import compress, islice
from operator import lt, not_

from .records import Record
from .scalars import Scalar, distinct, is_exact, over_digit_limit, parse_scalar

#: a document in the writer's form, as a program writes one (the benchmark's
#: graphs are): the agent count, then one `i j w` line per edge, whose
#: indices are ASCII digits from 1 with no leading zero, with one blank
#: between fields and "\n" after each line.
#: `re` compiles it on first use, so importing the module does not.
_WRITER_FORM = r"n [1-9][0-9]*\n(?:[1-9][0-9]* [1-9][0-9]* \S+\n)*"


def _positive(w: Scalar) -> bool:
    """w > 0, on a rational's numerator (its denominator is positive)."""
    return w.numerator > 0 if is_exact(w) else w > 0


def _least(weights: Iterable[Scalar]) -> Scalar:
    """The first least of `weights`.  Rationals are ranked by their
    numerators over the common denominator, and a float among them sends
    every compare through `min`."""
    ws = list(weights)
    if not all(map(is_exact, ws)):
        return min(ws)
    common = math.lcm(*(w.denominator for w in ws))
    return min(ws, key=lambda w: w.numerator * (common // w.denominator))


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
                    if not w > 0:
                        raise GraphFormatError(
                            f"edge weight on ({i + 1}, {j + 1}) is negative or zero"
                        )
                    lower[j].append((i, w))
                prev = j
        # symmetric iff every row's entries below the diagonal are that transpose
        for i, nbrs in enumerate(adjacency):
            if list(nbrs[: bisect_left(nbrs, (i,))]) != lower[i]:
                raise GraphFormatError(f"adjacency not symmetric at agent {i + 1}")
        return super().__new__(cls, n, adjacency)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, Scalar]]) -> "WeightedGraph":
        """The graph on agents 0..n-1 with each (i, j, w) an undirected edge,
        checked by `__new__`."""
        rows: list[list[tuple[int, Scalar]]] = [[] for _ in range(n)]
        for i, j, w in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise GraphFormatError(f"edge ({i + 1}, {j + 1}) outside agents 1..{n}")
            rows[i].append((j, w))
            rows[j].append((i, w))
        return cls(n, map(sorted, rows))


class DistanceClasses(Record, namedtuple("DistanceClasses", "root dist s_even s_odd")):
    """Even/odd BFS-distance split from the root.

    `dist` is the tuple of distances from `root`, and `s_even`, `s_odd` the
    frozensets of agents at even and odd distance.  They are all that
    simulating and verifying a plan read: the plan's root and the class of
    each agent.
    """

    __slots__ = ()


class Partition(
    Record,
    namedtuple("Partition", "root dist s_even s_odd cross_edges intra_edges a_bar"),
):
    """The `DistanceClasses` fields, with cross-edge data for synthesis.

    `cross_edges` are (even endpoint, odd endpoint, weight) triples,
    `intra_edges` (i, j, weight) triples within a class, and `a_bar` the
    least cross-edge weight.
    """

    __slots__ = ()


def parse_graph(text: str, mode: str = "exact") -> WeightedGraph:
    """Parse an edge-list document.

    Lines are "i j w" with 1-based agent indices and positive weight; an
    optional first line "n <count>" declares the agent count.  Blank lines
    and lines starting with '#' are ignored.  A fault is reported at the
    first line that has one.  A document in the writer's form is read by
    `_read_writer_form`; any other, and any with a fault, by `_parse_graph`.
    """
    # the tokens, edges and adjacency rows are many small containers that
    # form no cycle, so the cyclic collector, run as they are allocated, would
    # only walk them again and again; it is paused and left as it was found
    enabled = gc.isenabled()
    gc.disable()
    try:
        g = _read_writer_form(text, mode)
        return _parse_graph(text, mode) if g is None else g
    finally:
        if enabled:
            gc.enable()


def _read_writer_form(text: str, mode: str) -> WeightedGraph | None:
    """The graph of a document in `_WRITER_FORM` that passes every check, else None.

    One match gates the whole text, one `split` cuts it into tokens, and the
    index and weight columns are slices of them.  The index texts are looked
    up in one table of the texts of 1..n, which also bounds them by n, and
    each distinct weight text is parsed once and must be positive.  Edges in the writer's
    order (i < j, sorted) hold no repeat and give each row in order; edges
    in any other order must hold no self-loop or repeat in either direction,
    and each row is sorted.  The rows are then built with no further check.
    """
    if re.fullmatch(_WRITER_FORM, text) is None:
        return None
    tokens = text.split()
    try:
        n = int(tokens[1])
    except ValueError:  # more digits than int() reads
        return None
    # the table stops at n or at the token count, whichever is less: a count
    # far past the edges leaves isolated agents and builds no large table
    size = min(n, len(tokens))
    agents = dict(zip(map(str, range(1, size + 1)), range(size)))
    try:
        I = list(map(agents.__getitem__, tokens[2::3]))
        J = list(map(agents.__getitem__, tokens[3::3]))
    except KeyError:  # an index past the table
        return None
    W = tokens[4::3]
    del tokens, agents
    values: dict[str, Scalar] = dict.fromkeys(W)
    for weight in values:
        try:
            value = parse_scalar(weight, mode)
        except ValueError:
            return None
        if not _positive(value):
            return None
        values[weight] = value
    pairs = list(zip(I, J))
    ordered = all(map(lt, I, J)) and all(map(lt, pairs, islice(pairs, 1, None)))
    if not ordered:
        # a self-loop (i, i) is its own reverse
        seen = set(pairs)
        if len(seen) < len(pairs) or not seen.isdisjoint(zip(J, I)):
            return None
    del pairs
    rows: list[list[tuple[int, Scalar]]] = [[] for _ in range(n)]
    # in the writer's order, a row's entries i < r come from edges before its
    # entries j > r, each in increasing order
    for i, j, w in zip(I, J, map(values.__getitem__, W)):
        rows[i].append((j, w))
        rows[j].append((i, w))
    adjacency = tuple(map(tuple, rows) if ordered else (tuple(sorted(row)) for row in rows))
    return tuple.__new__(WeightedGraph, (n, adjacency))


def _parse_graph(text: str, mode: str) -> WeightedGraph:
    """The graph of any document, one line at a time.

    Each line's checks run in turn (agent-count line, three fields, ASCII
    indices, digit limit, 1-based, self-loop, weight, conflicting duplicate),
    and the first fault raises with its line number.  Each distinct index
    text and weight text is read once, through `agents` and `values`; an
    edge given again must have an equal weight, and keeps the object of its
    last line.
    """
    declared_n: int | None = None
    agents: dict[str, int] = {}
    values: dict[str, Scalar] = {}
    edges: dict[tuple[int, int], Scalar] = {}
    try:
        for lineno, line in enumerate(text.splitlines(), start=1):
            parts = line.split()
            if not parts or parts[0][0] == "#":
                continue
            if parts[0] == "n":
                if declared_n is not None or edges:
                    raise GraphFormatError("stray agent-count line")
                # str.isdigit admits digits such as "²" that int() rejects
                if len(parts) != 2 or not parts[1].encode().isdigit():
                    raise GraphFormatError("bad agent count")
                try:
                    declared_n = int(parts[1])
                except ValueError:  # more digits than int() reads
                    raise GraphFormatError(over_digit_limit("agent count")) from None
                if declared_n < 1:
                    raise GraphFormatError("bad agent count")
                continue
            if len(parts) != 3:
                raise GraphFormatError("expected 'i j w'")
            a, b, weight = parts
            if a not in agents or b not in agents:
                # ASCII digits only, as for the agent count: int() reads any
                # Unicode digit; both are tested before either is read
                if not ((a + b).isascii() and (a + b).isdigit()):
                    raise GraphFormatError("bad agent index")
                try:
                    for index in (a, b):
                        if index not in agents:
                            agents[index] = int(index) - 1
                except ValueError:  # more digits than int() reads
                    raise GraphFormatError(over_digit_limit("agent index")) from None
            i, j = agents[a], agents[b]
            if i < 0 or j < 0:
                raise GraphFormatError("agent indices are 1-based")
            if i == j:
                raise GraphFormatError(f"self-loop on agent {i + 1}")
            w = values.get(weight)
            if w is None:
                try:
                    w = parse_scalar(weight, mode)
                except ValueError as exc:
                    raise GraphFormatError(f"bad weight: {exc}") from None
                if not _positive(w):
                    raise GraphFormatError("nonpositive weight")
                values[weight] = w
            key = (i, j) if i < j else (j, i)
            first = edges.setdefault(key, w)
            if first is not w:
                if first != w:
                    raise GraphFormatError("conflicting duplicate edge")
                edges[key] = w
    except GraphFormatError as exc:
        raise GraphFormatError(f"line {lineno}: {exc}") from None
    # every index text read belongs to an edge, since a fault raises
    max_seen = max(agents.values(), default=-1) + 1
    n = declared_n if declared_n is not None else max_seen
    if n < 1:
        raise GraphFormatError("empty graph document")
    if max_seen > n:
        raise GraphFormatError(f"agent {max_seen} exceeds declared count {n}")
    rows: list[list[tuple[int, Scalar]]] = [[] for _ in range(n)]
    for (i, j), w in edges.items():
        rows[i].append((j, w))
        rows[j].append((i, w))
    # symmetric, sorted, with no repeat or self-loop, and every weight positive
    return tuple.__new__(WeightedGraph, (n, tuple(tuple(sorted(row)) for row in rows)))


def bfs_distances(g: WeightedGraph, root: int) -> tuple[int, ...]:
    """Minimum edge count from root to every agent (unweighted)."""
    dist = [-1] * g.n
    dist[root] = 0
    adjacency = g.adjacency
    order = [root]
    for i in order:  # the agents in the order they are reached
        d = dist[i] + 1
        for j, _ in adjacency[i]:
            if dist[j] < 0:
                dist[j] = d
                order.append(j)
    if len(order) < g.n:
        bad = dist.index(-1)
        raise NotConnectedError(f"agent {bad + 1} unreachable from agent {root + 1}")
    return tuple(dist)


def distance_classes(g: WeightedGraph, root: int = 0) -> DistanceClasses:
    """The even/odd classes of BFS distance from `root`.

    A graph that is not connected, and the one-agent graph, which has no
    cross edge and so no orbit, raise `NotConnectedError`.
    """
    dist = bfs_distances(g, root)
    if g.n < 2:
        # a connected graph of two or more agents has a cross edge: its BFS
        # tree joins each agent to one a step nearer the root
        raise NotConnectedError("graph has no cross edges (need at least 2 agents)")
    odd = [d & 1 for d in dist]
    s_even = frozenset(compress(range(g.n), map(not_, odd)))
    s_odd = frozenset(compress(range(g.n), odd))
    return DistanceClasses(root, dist, s_even, s_odd)


def make_partition(g: WeightedGraph, root: int = 0) -> Partition:
    """The `distance_classes` of `g`, with its edges split into cross and
    intra edges and `a_bar`, the first least cross weight object."""
    classes = distance_classes(g, root)
    odd = [d & 1 for d in classes.dist]
    cross: list[tuple[int, int, Scalar]] = []
    intra: list[tuple[int, int, Scalar]] = []
    for i, row in enumerate(g.adjacency):
        for j, w in row:
            if j > i:  # each edge once, by (i, j)
                # a cross edge runs from its even end to its odd one
                edge = (j, i, w) if odd[i] > odd[j] else (i, j, w)
                (intra if odd[i] == odd[j] else cross).append(edge)
    # the first least of the distinct weight objects is the first least weight
    a_bar = _least(distinct(w for _, _, w in cross))
    return Partition(*classes, tuple(cross), tuple(intra), a_bar)
