from __future__ import annotations

import operator
import random
import re
import sys
import time
from fractions import Fraction

import pytest

from satorbits import (
    bfs_distances,
    fixture_path,
    is_connected,
    laplacian,
    make_partition,
    parse_graph,
    serialize_graph,
)
from satorbits import graphs
from satorbits.graphs import GraphFormatError, NotConnectedError, Partition, WeightedGraph
from satorbits.scalars import Scalar, parse_scalar

from reference import parse_graph_lines


def brute_force_distance(g: WeightedGraph, root: int) -> list[int]:
    """Oracle: minimum edge count over all simple paths, by DFS enumeration."""
    best = [None] * g.n
    best[root] = 0

    def walk(node: int, visited: set[int], length: int) -> None:
        for j in g.neighbors(node):
            if j in visited:
                continue
            if best[j] is None or length + 1 < best[j]:
                best[j] = length + 1
            walk(j, visited | {j}, length + 1)

    walk(root, {root}, 0)
    return best


def exact_weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(2, 30), 10)


def float_weight(rng: random.Random) -> float:
    return rng.uniform(0.5, 3.0)


def random_connected_edges(
    rng: random.Random, n: int, weight=exact_weight
) -> list[tuple[int, int, Scalar]]:
    """A random spanning tree plus each other pair with probability 0.3."""
    edges = []
    nodes = list(range(n))
    rng.shuffle(nodes)
    for k in range(1, n):
        partner = rng.choice(nodes[:k])
        edges.append((nodes[k], partner, weight(rng)))
    present = {(min(i, j), max(i, j)) for i, j, _ in edges}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in present and rng.random() < 0.3:
                edges.append((i, j, weight(rng)))
    return edges


def random_connected_graph(rng: random.Random, n: int) -> WeightedGraph:
    return WeightedGraph.from_edges(n, random_connected_edges(rng, n))


def refuse_fraction_compares(monkeypatch) -> None:
    """Make every order compare of two `Fraction`s fail the test."""

    def refuse(a, b):
        raise AssertionError(f"compared {a!r} with {b!r} as Fractions")

    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, refuse)


def dense_matrix(n: int, edges) -> list[list[Scalar]]:
    """Reference n×n weight matrix, zero-filled with Fraction(0)."""
    w: list[list[Scalar]] = [[Fraction(0)] * n for _ in range(n)]
    for i, j, weight in edges:
        w[i][j] = w[j][i] = weight
    return w


def dense_laplacian(w: list[list[Scalar]]) -> list[list[Scalar]]:
    """Reference L = D - A, summed over the full row in index order."""
    n = len(w)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        degree = Fraction(0)
        for j in range(n):
            if j != i:
                lap[i][j] = -w[i][j]
                degree = degree + w[i][j]
        lap[i][i] = degree
    return lap


class TestParse:
    def test_single_edge(self):
        g = parse_graph("n 2\n1 2 1.5")
        assert g.n == 2
        assert g.weight(0, 1) == g.weight(1, 0) == Fraction("1.5")

    def test_reference_graph_weights(self, graph7):
        expected = {
            (0, 1): "1.5",
            (0, 2): "0.6",
            (0, 3): "1.2",
            (1, 2): "1.0",
            (1, 4): "2.3",
            (2, 5): "0.5",
            (2, 6): "3.4",
        }
        assert {(i, j): w for i, j, w in graph7.edges()} == {
            k: Fraction(v) for k, v in expected.items()
        }

    def test_fixture_weights_invert_interval_formula(self, graph7, gains_di):
        # Oracle: the interval lower bound L satisfies 1/a = alpha*L - (beta-alpha)(m-2);
        # inverting the reference bounds must recover the fixture weights.
        reference_lower = {
            (0, 1): "2.1167",
            (0, 2): "4.6167",
            (0, 3): "2.5333",
            (4, 1): "1.5370",
            (5, 2): "5.4500",
            (6, 2): "1.1853",
        }
        m = 11
        for (i, j), lower in reference_lower.items():
            inv = gains_di.alpha * Fraction(lower) - (
                gains_di.beta - gains_di.alpha
            ) * (m - 2)
            recovered = 1 / inv
            assert abs(recovered - graph7.weight(i, j)) < Fraction("0.001")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_graph("1 1 2.0")

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError):
            parse_graph("1 2")
        # an agent count after an edge
        with pytest.raises(GraphFormatError, match="^line 2: stray agent-count line$"):
            parse_graph("1 2 1\nn 2")

    # "²" and "٣" pass str.isdigit, and int() rejects the first and reads the second
    @pytest.mark.parametrize("count", ["²", "٣", "0", "-2", "3 4", ""])
    def test_bad_agent_count(self, count):
        with pytest.raises(GraphFormatError, match="^line 2: bad agent count$"):
            parse_graph(f"# header\nn {count}\n1 2 1.0")

    # "٣" passes str.isdigit and int() reads it as 3; only ASCII digits are
    # indices, and both are tested before either is read, so an index past
    # the digit limit before a "٣" is a bad index too
    @pytest.mark.parametrize(
        "line",
        [
            "٣ 1 1.0", "1 ٣ 1.0", "² 1 1.0", "-1 2 1.0", "+1 2 1.0",
            pytest.param(f"{'1' * 5000} ٣ 1.0", id="past-the-digit-limit-then-arabic-three"),
        ],
    )  # fmt: skip
    def test_bad_agent_index(self, line):
        with pytest.raises(GraphFormatError, match="^line 2: bad agent index$"):
            parse_graph(f"n 3\n{line}\n2 3 1")

    def test_agent_count_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(
            GraphFormatError, match=f"^line 2: agent count has more than {limit} digits, "
        ):
            parse_graph(f"# header\nn {'1' * (limit + 1)}\n1 2 1.0")

    def test_agent_index_past_the_digit_limit(self):
        # reported at its line, before a bad index and a self-loop after it
        limit = sys.get_int_max_str_digits()
        with pytest.raises(
            GraphFormatError, match=f"^line 3: agent index has more than {limit} digits, "
        ):
            parse_graph(f"n 2\n1 2 1\n2 {'0' * limit}1 1\n٣ 1 1.0\n2 2 1")

    def test_nonpositive_weight(self):
        with pytest.raises(GraphFormatError, match="nonpositive"):
            parse_graph("1 2 0")

    def test_conflicting_duplicate(self):
        with pytest.raises(GraphFormatError, match="conflicting"):
            parse_graph("1 2 1.0\n2 1 2.0")

    def test_consistent_duplicate_allowed(self):
        g = parse_graph("1 2 1.0\n2 1 1.0")
        assert g.weight(0, 1) == 1
        # the repeat keeps its own weight object, the one edge (2, 3) shares
        g = parse_graph("1 2 1\n2 1 1.0\n2 3 1.0")
        assert g.weight(0, 1) is g.weight(1, 0) is g.weight(1, 2)

    def test_unmentioned_agents_are_isolated(self):
        g = parse_graph("n 4\n1 2 1.0")
        assert g.neighbors(2) == [] and g.neighbors(3) == []
        assert not is_connected(g)

    def test_serialize_round_trip(self, graph7):
        assert parse_graph(serialize_graph(graph7)) == graph7

    def test_serialize_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 8))
            text = serialize_graph(g)
            assert parse_graph(text) == g
            # twins off the writer's form: CRLF, tabs, and no count line
            # (the graph is connected, so its last agent is on an edge)
            for twin in text.replace("\n", "\r\n"), text.replace(" ", "\t"), text.split("\n", 1)[1]:
                assert parse_graph(twin) == g, twin


# texts a document draws its tokens from: valid ones more often than not
COUNTS = ["3", "4", "6", "1", "0", "-2", "²", "٣", "x", "3 4", ""]
INDICES = ["1", "2", "3", "4", "5", "6", "01", "0", "٣", "²", "-1", "+1", "x"]
WEIGHTS = ["1", "1.0", "0.5", "2/3", "3", "12.25", "0", "-1", "-0.5", "x", "1/0", "1e400", "٣"]
BLANKS = ["", " ", "\t", "  \t "]


def random_graph_document(rng: random.Random) -> str:
    """A short edge-list document, valid or with faults anywhere in it."""
    n = rng.randint(1, 6)
    lines = []
    if rng.random() < 0.7:
        lines.append(f"n {rng.choice(COUNTS) if rng.random() < 0.2 else n}")
    for _ in range(rng.randint(0, 12)):
        roll = rng.random()
        if roll < 0.08:
            lines.append(rng.choice(["# comment", "  # 1 2 3", "#", ""]))
        elif roll < 0.12:
            lines.append(f"n {rng.choice(COUNTS)}")  # repeated or late
        elif roll < 0.16:
            lines.append(" ".join(rng.choice(INDICES) for _ in range(rng.choice([1, 2, 4]))))
        elif roll < 0.24 and lines:
            # a duplicate of an earlier line, reversed, with the same or another weight
            parts = rng.choice(lines).split()
            if len(parts) == 3:
                weight = parts[2] if rng.random() < 0.5 else rng.choice(WEIGHTS[:6])
                lines.append(f"{parts[1]} {parts[0]} {weight}")
        else:
            bad = rng.random() < 0.15
            i, j = (rng.randint(1, n + (rng.random() < 0.1)) for _ in range(2))
            a = rng.choice(INDICES) if bad and rng.random() < 0.5 else str(i)
            b = str(j) if i != j or rng.random() < 0.3 else str(i % n + 1)
            weight = rng.choice(WEIGHTS if bad else WEIGHTS[:6])
            blanks = [rng.choice(BLANKS) for _ in range(4)]
            lines.append(f"{blanks[0]}{a} {blanks[1]}{b}\t{blanks[2]}{weight}{blanks[3]}")
    return "\n".join(lines) + rng.choice(["", "\n", "\r\n"])


GRAPH_FAULTS = [
    "stray agent-count line",
    "bad agent count",
    "expected 'i j w'",
    "bad agent index",
    "1-based",
    "self-loop",
    "bad weight",
    "nonpositive weight",
    "conflicting duplicate edge",
    "empty graph document",
    "exceeds declared count",
]


def weight_objects(g: WeightedGraph) -> list[int]:
    """Each adjacency entry's weight as the index of its object's first appearance."""
    first: dict[int, int] = {}
    entries = [w for row in g.adjacency for _, w in row]
    return [first.setdefault(id(w), len(first)) for w in entries]


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_parse_graph_matches_the_line_reader(mode):
    """Differential: random valid and faulty documents give the line-by-line
    reader's graph, weight objects and types, or its error message."""
    rng = random.Random(f"graph-reader-{mode}")
    outcomes = set()
    for _ in range(1500):
        text = random_graph_document(rng)
        try:
            expected = parse_graph_lines(text, mode)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as got:
                parse_graph(text, mode)
            assert str(got.value) == str(exc), text
            outcomes.update(kind for kind in GRAPH_FAULTS if kind in str(exc))
            continue
        g = parse_graph(text, mode)
        assert g == expected, text
        assert [type(w) for row in g.adjacency for _, w in row] == [
            type(w) for row in expected.adjacency for _, w in row
        ]
        assert weight_objects(g) == weight_objects(expected), text
        outcomes.add("ok")
    assert outcomes == {"ok", *GRAPH_FAULTS}


class TestWeightedGraph:
    def test_adjacency_lists_positive_weights(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 9)
            edges = random_connected_edges(rng, n)
            g = WeightedGraph.from_edges(n, edges)
            w = dense_matrix(n, edges)
            assert g.adjacency == tuple(
                tuple((j, wij) for j, wij in enumerate(row) if wij > 0) for row in w
            )
            assert g.edges() == [
                (i, j, w[i][j]) for i in range(n) for j in range(i + 1, n) if w[i][j] > 0
            ]

    @pytest.mark.parametrize(
        "weights,message",
        [
            # rows of (neighbor, weight) pairs, 0-based
            ((((1, 1),), ()), "not symmetric"),
            (((), ((0, 1),)), "not symmetric"),
            ((((1, -1),), ((0, -1),)), "negative"),
            ((((0, 1),), ()), "self-loop"),
            ((((1, 1),), ((0, 2),)), "not symmetric"),
            # a missing reverse entry on a 3-agent graph
            ((((1, 1), (2, 1)), ((0, 1),), ()), "not symmetric"),
            ((((1, 0),), ((0, 0),)), "zero"),
            ((((2, 1),), ((0, 1),)), "out of range"),
            ((((-1, 1),), ((0, 1),)), "out of range"),
            ((((2, 1), (1, 1)), ((0, 1),), ((0, 1),)), "strictly increasing"),
            ((((1, 1), (1, 1)), ((0, 1),)), "strictly increasing"),
            ((((1,),), ((0, 1),)), "pair"),
            ((((1.0, 1),), ((0, 1),)), "pair"),
        ],
    )
    def test_validation(self, weights, message):
        adjacency = tuple(
            tuple(entry if len(entry) != 2 else (entry[0], Fraction(entry[1])) for entry in row)
            for row in weights
        )
        with pytest.raises(GraphFormatError, match=message):
            WeightedGraph(len(adjacency), adjacency)

    def test_row_count_must_match_n(self):
        with pytest.raises(GraphFormatError, match="3 rows for 2 agents"):
            WeightedGraph(2, (((1, Fraction(1)),), ((0, Fraction(1)),), ()))
        with pytest.raises(GraphFormatError, match="at least one agent"):
            WeightedGraph(0, ())

    def test_from_edges_rejects_bad_edges(self):
        with pytest.raises(GraphFormatError, match="outside agents"):
            WeightedGraph.from_edges(2, [(0, 2, Fraction(1))])
        with pytest.raises(GraphFormatError, match="strictly increasing"):
            WeightedGraph.from_edges(2, [(0, 1, Fraction(1)), (1, 0, Fraction(1))])
        with pytest.raises(GraphFormatError, match="self-loop"):
            WeightedGraph.from_edges(2, [(1, 1, Fraction(1))])
        nonpositive = r"^edge weight on \(1, 2\) is negative or zero$"
        with pytest.raises(GraphFormatError, match=nonpositive):
            WeightedGraph.from_edges(3, [(1, 2, Fraction(1)), (1, 0, Fraction(0))])
        with pytest.raises(GraphFormatError, match="at least one agent"):
            WeightedGraph.from_edges(0, [])

    def test_from_edges_equals_the_validated_rows(self):
        """`from_edges` skips the validation of `__new__`, and builds what it accepts."""
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 9)
            edges = random_connected_edges(rng, n, rng.choice([exact_weight, float_weight]))
            rng.shuffle(edges)
            g = WeightedGraph.from_edges(n, iter(edges))
            rows: list[list[tuple[int, Scalar]]] = [[] for _ in range(n)]
            for i, j, w in edges:
                rows[i].append((j, w))
                rows[j].append((i, w))
            expected = WeightedGraph(n, [sorted(row) for row in rows])
            assert g == expected and type(g.adjacency) is tuple
            assert all(type(row) is tuple for row in g.adjacency)

    def test_parser_tests_each_weight_once(self, monkeypatch):
        """Both readers, the writer's form and a document with a comment line,
        parse each distinct weight text once and decide its sign on its
        numerator, with no `Fraction` compare."""
        expected = WeightedGraph(4, [[(1, 0.5), (3, 2)], [(0, 0.5), (2, 1.5)], [(1, 1.5), (3, 0.5)], [(0, 2), (2, 0.5)]])
        parsed = []
        parse_scalar = graphs.parse_scalar

        def counting(text, mode="exact"):
            parsed.append(text)
            return parse_scalar(text, mode)

        monkeypatch.setattr(graphs, "parse_scalar", counting)
        refuse_fraction_compares(monkeypatch)
        text = "n 4\n1 2 0.5\n2 3 3/2\n3 4 0.5\n1 4 2\n"
        for document in (text, "# four agents\n" + text):
            parsed.clear()
            assert parse_graph(document) == expected
            assert parsed == ["0.5", "3/2", "2"]

    def test_rows_become_tuples(self):
        g = WeightedGraph(2, [[(1, Fraction(1))], [(0, Fraction(1))]])
        assert g == WeightedGraph.from_edges(2, [(1, 0, Fraction(1))])
        assert g.adjacency == (((1, 1),), ((0, 1),))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_sparse_matches_dense_reference(self, mode):
        rng = random.Random(41 if mode == "exact" else 43)
        weight = exact_weight if mode == "exact" else float_weight
        lines = fixture_path("graph7.txt").read_text().split("\n")[1:]
        fixture = [
            (int(i) - 1, int(j) - 1, parse_scalar(w, mode))
            for i, j, w in (line.split() for line in lines if line)
        ]
        cases = [(7, fixture)]
        for n in rng.choices(range(2, 13), k=50):
            cases.append((n, random_connected_edges(rng, n, weight)))
        for n, edges in cases:
            g = WeightedGraph.from_edges(n, edges)
            w = dense_matrix(n, edges)
            assert g.edges() == [
                (i, j, w[i][j]) for i in range(n) for j in range(i + 1, n) if w[i][j] != 0
            ]
            for i in range(n):
                assert g.neighbors(i) == [j for j in range(n) if w[i][j] != 0]
                for j in range(n):
                    assert g.weight(i, j) == w[i][j]
                    assert type(g.weight(i, j)) is type(w[i][j])
            lap, ref = laplacian(g), dense_laplacian(w)
            assert lap == ref
            assert [list(map(type, row)) for row in lap] == [list(map(type, row)) for row in ref]
            text = serialize_graph(g)
            assert parse_graph(text, mode) == g
            assert serialize_graph(parse_graph(text, mode)) == text

    def test_scale_n20000_path(self):
        # a dense n×n design would need 4·10^8 cells here
        n = 20000
        start = time.perf_counter()
        g = WeightedGraph.from_edges(n, [(i, i + 1, Fraction(1)) for i in range(n - 1)])
        p = make_partition(g, 0)
        elapsed = time.perf_counter() - start
        assert p.dist[-1] == n - 1
        assert len(p.cross_edges) == n - 1 and p.intra_edges == ()
        assert len(p.s_even) == n // 2 and p.a_bar == 1
        assert elapsed < 1.0


class TestConnectivity:
    def test_reference_graph_connected(self, graph7):
        assert is_connected(graph7)

    def test_disconnected_pair(self):
        assert not is_connected(parse_graph("n 2\n# no edges"))

    def test_single_node(self):
        assert is_connected(parse_graph("n 1"))


class TestBfs:
    def test_reference_graph(self, graph7):
        assert bfs_distances(graph7, 0) == (0, 1, 1, 1, 2, 2, 2)

    def test_chain(self):
        g = parse_graph("1 2 1\n2 3 1")
        assert bfs_distances(g, 0) == (0, 1, 2)

    def test_root_distance_zero(self, graph7):
        for root in range(graph7.n):
            assert bfs_distances(graph7, root)[root] == 0

    def test_unreachable_raises(self):
        with pytest.raises(NotConnectedError):
            bfs_distances(parse_graph("n 3\n1 2 1"), 0)

    def test_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(2, 8))
            root = rng.randrange(g.n)
            assert list(bfs_distances(g, root)) == brute_force_distance(g, root)


class TestPartition:
    def test_reference_graph(self, partition7):
        assert sorted(partition7.s_even) == [0, 4, 5, 6]
        assert sorted(partition7.s_odd) == [1, 2, 3]
        assert partition7.a_bar == Fraction("0.5")
        assert [(i, j) for i, j, _ in partition7.intra_edges] == [(1, 2)]

    def test_triangle(self):
        g = parse_graph("1 2 1\n2 3 1\n1 3 1")
        p = make_partition(g, 0)
        assert sorted(p.s_even) == [0]
        assert sorted(p.s_odd) == [1, 2]
        assert [(i, j) for i, j, _ in p.intra_edges] == [(1, 2)]
        assert p.a_bar == 1

    def test_star(self):
        g = parse_graph("1 2 1\n1 3 2\n1 4 3")
        p = make_partition(g, 0)
        assert sorted(p.s_odd) == [1, 2, 3]
        assert p.intra_edges == ()
        assert p.a_bar == 1

    def test_invariants_random(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 9))
            root = rng.randrange(g.n)
            p = make_partition(g, root)
            assert p.s_even | p.s_odd == set(range(g.n))
            assert not (p.s_even & p.s_odd)
            for i in range(g.n):
                assert (i in p.s_even) == (p.dist[i] % 2 == 0)
            touched = set()
            for i, j, _ in g.edges():
                assert abs(p.dist[i] - p.dist[j]) <= 1
            for i, j, _ in p.intra_edges:
                assert p.dist[i] == p.dist[j]
            for i, j, _ in p.cross_edges:
                assert i in p.s_even and j in p.s_odd
                touched |= {i, j}
            assert touched == set(range(g.n))
            assert p.a_bar == min(w for _, _, w in p.cross_edges) > 0


def reference_partition(g: WeightedGraph, root: int) -> Partition:
    """The partition through `edges()` and set lookups, as the oracle for
    `make_partition`'s walk over the rows."""
    dist = bfs_distances(g, root)
    s_even = frozenset(i for i in range(g.n) if dist[i] % 2 == 0)
    s_odd = frozenset(i for i in range(g.n) if dist[i] % 2 == 1)
    cross, intra = [], []
    for i, j, w in g.edges():
        if (i in s_even) == (j in s_even):
            intra.append((i, j, w))
        else:
            cross.append((i, j, w) if i in s_even else (j, i, w))
    a_bar = min(w for _, _, w in cross)
    return Partition(root, dist, s_even, s_odd, tuple(cross), tuple(intra), a_bar)


def test_partition_matches_the_edge_list_reference():
    """Same classes, edge order, orientation and the first least a_bar object,
    on graphs whose equal weights are distinct objects."""
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(2, 12)
        edges = random_connected_edges(rng, n, lambda rng: Fraction(rng.randint(1, 3), 2))
        g = WeightedGraph.from_edges(n, edges)
        root = rng.randrange(n)
        p, ref = make_partition(g, root), reference_partition(g, root)
        assert p == ref
        assert p.a_bar is ref.a_bar
        weights = [w for *_, w in p.cross_edges + p.intra_edges]
        assert all(map(operator.is_, weights, [w for *_, w in ref.cross_edges + ref.intra_edges]))


def test_partition_decides_a_bar_on_integers(monkeypatch):
    """The first least cross weight object, found with no `Fraction` compare;
    float weights compare as floats."""
    rng = random.Random(31)
    cases = []
    for k in range(40):
        n = rng.randint(2, 12)
        weight = (lambda rng: Fraction(rng.randint(1, 9), rng.choice([2, 3, 10]))) if k % 4 else float_weight
        g = WeightedGraph.from_edges(n, random_connected_edges(rng, n, weight))
        root = rng.randrange(n)
        cases.append((g, root, reference_partition(g, root)))
    refuse_fraction_compares(monkeypatch)
    for g, root, ref in cases:
        p = make_partition(g, root)
        assert p == ref and p.a_bar is ref.a_bar


class TestLaplacian:
    def test_single_edge(self):
        g = parse_graph("1 2 1.5")
        w = Fraction("1.5")
        assert laplacian(g) == [[w, -w], [-w, w]]

    def test_empty_graph(self):
        g = parse_graph("n 3")
        assert laplacian(g) == [[0] * 3 for _ in range(3)]

    def test_reference_graph_row6(self, graph7):
        lap = laplacian(graph7)
        assert lap[5][5] == Fraction("0.5")
        assert lap[5][2] == Fraction("-0.5")
        assert all(lap[5][j] == 0 for j in (0, 1, 3, 4, 6))

    def test_rows_annihilate_ones(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 8))
            lap = laplacian(g)
            for row in lap:
                assert sum(row) == 0
            for i in range(g.n):
                for j in range(g.n):
                    assert lap[i][j] == lap[j][i]


@pytest.mark.parametrize("edges", ["", "1 2 1\n"], ids=["no-edges", "one-edge"])
def test_writer_form_count_past_the_digit_limit_is_read_by_lines(edges):
    """A count past the digit limit in the writer's form is left by the bulk
    reader to the line reader, which names the limit at line 1."""
    limit = sys.get_int_max_str_digits()
    text = f"n {'1' * (limit + 1)}\n{edges}"
    assert re.fullmatch(graphs._WRITER_FORM, text)
    assert graphs._read_writer_form(text, "exact") is None
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert str(exc.value) == (
        f"line 1: agent count has more than {limit} digits, "
        "beyond Python's limit on converting text to an integer"
    )
