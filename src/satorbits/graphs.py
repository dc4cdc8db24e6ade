"""Undirected weighted communication graphs.

Parsing, connectivity, unweighted BFS distances, the even/odd distance
classes, the partition that adds their cross/intra edge split and minimum
cross-edge weight, and the graph Laplacian.  Agents are 0-based internally;
the edge-list text format is 1-based.

A weight's sign and the least of several weights are decided on integers
when the weights are rational (`_positive`, `_least`), and floats compare
as they are.
"""

from __future__ import annotations

import gc
import math
import re
import sys
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import compress, islice
from operator import eq, itemgetter, lt, not_

from .records import Record
from .scalars import Scalar, distinct, format_scalar, is_exact, over_digit_limit, parse_scalar

#: a document as `serialize_graph` writes it: the agent count, then one
#: `i j w` line per edge, whose indices are ASCII digits from 1 with no
#: leading zero, with one blank between fields and "\n" after each line.
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
        """The graph on agents 0..n-1 with each (i, j, w) an undirected edge.

        The rows are built symmetric and sorted, so only the range, repeated
        neighbors (a repeated edge or a self-loop) and the sign of each weight
        object are checked; `__new__` validates in full only to name a fault.
        """
        edges = list(edges)
        g = cls._of_positive_edges(n, edges)
        if all(map(_positive, distinct(map(itemgetter(2), edges)))):
            return g
        return cls(n, g.adjacency)

    @classmethod
    def _of_positive_edges(cls, n: int, edges: list[tuple[int, int, Scalar]]) -> "WeightedGraph":
        """`from_edges` without the sign test, for edges whose weights are
        positive, as `parse_graph` has tested each of them."""
        rows: list[list[tuple[int, Scalar]]] = [[] for _ in range(n)]
        for i, j, w in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise GraphFormatError(f"edge ({i + 1}, {j + 1}) outside agents 1..{n}")
            rows[i].append((j, w))
            rows[j].append((i, w))
        adjacency = tuple(tuple(sorted(row)) for row in rows)
        repeated = sum(map(len, map(dict, adjacency))) < 2 * len(edges)
        if n < 1 or repeated:
            return cls(n, adjacency)
        return tuple.__new__(cls, (n, adjacency))

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
    and lines starting with '#' are ignored.  Each check runs once over a
    whole column, and a fault is reported at the first line that has one.
    A document in the writer's form is read by `_read_writer_form`; any
    other, and any with a fault, by `_parse_graph`.
    """
    # the columns and adjacency rows are many small containers that form no
    # cycle, so the cyclic collector, run as they are allocated, would only
    # walk them again and again; it is paused and left as it was found
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
    rows = list(map(str.split, text.splitlines()))
    linenos: Sequence[int] = range(1, len(rows) + 1)
    if "#" in text or not all(rows):
        linenos = [no for no, parts in zip(linenos, rows) if parts and parts[0][0] != "#"]
        rows = [rows[no - 1] for no in linenos]
    declared_n: int | None = None
    if rows and rows[0][0] == "n":
        # str.isdigit admits digits such as "²" that int() rejects
        count = rows[0][1] if len(rows[0]) == 2 and rows[0][1].encode().isdigit() else "0"
        try:
            declared_n = int(count)
        except ValueError:  # more digits than int() reads
            fault = over_digit_limit("agent count")
            raise GraphFormatError(f"line {linenos[0]}: {fault}") from None
        if declared_n < 1:
            raise GraphFormatError(f"line {linenos[0]}: bad agent count")
        rows, linenos = rows[1:], linenos[1:]
    # each check reads rows[:k], the rows that pass every check before it, and
    # cuts k to its first fault: so the fault last found is the first line's
    k, fault = len(rows), ""

    def cut(flags: Iterable[object], message: Callable[[int], str]) -> None:
        nonlocal k, fault
        r = next(compress(range(k), flags), k)
        if r < k:
            k, fault = r, message(r)

    if set(map(len, rows)) - {3} or "n" in map(itemgetter(0), rows):
        cut(
            (parts[0] == "n" or len(parts) != 3 for parts in rows),
            lambda r: "stray agent-count line" if rows[r][0] == "n" else "expected 'i j w'",
        )
    I, J, W = map(list, zip(*rows[:k])) if k else ([], [], [])
    # ASCII digits only, as for the agent count: int() reads any Unicode digit
    digits = "".join(I) + "".join(J)
    if not (digits.isascii() and digits.isdigit()):
        cut((not (i + j).isascii() or not (i + j).isdigit() for i, j in zip(I, J)),
            lambda r: "bad agent index")
        del I[k:], J[k:]
    try:  # each index text is read once, as its 0-based agent
        agents = {index: int(index) - 1 for index in {*I, *J}}
    except ValueError:  # an index with more digits than int() reads
        limit = sys.get_int_max_str_digits()
        cut((max(len(i), len(j)) > limit for i, j in zip(I, J)),
            lambda r: over_digit_limit("agent index"))
        del I[k:], J[k:]
        agents = {index: int(index) - 1 for index in {*I, *J}}
    I, J = list(map(agents.__getitem__, I)), list(map(agents.__getitem__, J))
    if -1 in agents.values():
        cut((i < 0 or j < 0 for i, j in zip(I, J)), lambda r: "agent indices are 1-based")
    cut(map(eq, I, J), lambda r: f"self-loop on agent {I[r] + 1}")
    # each distinct weight text is parsed once, and its rows share the value
    values: dict[str, Scalar] = dict.fromkeys(W[:k])
    faults: dict[str, str] = {}
    for weight in values:
        try:
            values[weight] = parse_scalar(weight, mode)
            faults[weight] = "" if _positive(values[weight]) else "nonpositive weight"
        except ValueError as exc:
            faults[weight] = f"bad weight: {exc}"
    cut(map(faults.get, W), lambda r: faults[W[r]])
    del I[k:], J[k:]
    edges: Iterable[tuple[int, int, Scalar]] = zip(I, J, map(values.get, W))
    pairs = set(zip(I, J))
    if len(pairs) < k or not pairs.isdisjoint(zip(J, I)):
        # an edge given more than once keeps its last weight, which must equal its first
        keys, ws = list(zip(map(min, I, J), map(max, I, J))), list(map(values.get, W[:k]))
        first: dict[tuple[int, int], Scalar] = {}
        cut((first.setdefault(key, w) != w for key, w in zip(keys, ws)),
            lambda r: "conflicting duplicate edge")
        edges = [(i, j, w) for (i, j), w in dict(zip(keys, ws)).items()]
    if fault:
        raise GraphFormatError(f"line {linenos[k]}: {fault}")
    max_seen = max(I + J, default=-1) + 1
    n = declared_n if declared_n is not None else max_seen
    if n < 1:
        raise GraphFormatError("empty graph document")
    if max_seen > n:
        raise GraphFormatError(f"agent {max_seen} exceeds declared count {n}")
    # every weight passed the test above
    return WeightedGraph._of_positive_edges(n, list(edges))


def serialize_graph(g: WeightedGraph) -> str:
    """Deterministic inverse of parse_graph on the edge multiset."""
    lines = [f"n {g.n}"]
    for i, j, w in g.edges():
        lines.append(f"{i + 1} {j + 1} {format_scalar(w)}")
    return "\n".join(lines) + "\n"


def is_connected(g: WeightedGraph) -> bool:
    try:
        bfs_distances(g, 0)
    except NotConnectedError:
        return False
    return True


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
            if j > i:  # each edge once, in the order of edges()
                # a cross edge runs from its even end to its odd one
                edge = (j, i, w) if odd[i] > odd[j] else (i, j, w)
                (intra if odd[i] == odd[j] else cross).append(edge)
    # the first least of the distinct weight objects is the first least weight
    a_bar = _least(distinct(w for _, _, w in cross))
    return Partition(*classes, tuple(cross), tuple(intra), a_bar)


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
