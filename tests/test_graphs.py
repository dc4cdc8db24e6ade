from __future__ import annotations

import random
from fractions import Fraction

import pytest

from satorbits import (
    bfs_distances,
    is_connected,
    laplacian,
    make_partition,
    parse_graph,
    serialize_graph,
)
from satorbits.graphs import GraphFormatError, NotConnectedError, WeightedGraph


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


def random_connected_graph(rng: random.Random, n: int) -> WeightedGraph:
    edges = []
    nodes = list(range(n))
    rng.shuffle(nodes)
    for k in range(1, n):
        partner = rng.choice(nodes[:k])
        edges.append((nodes[k], partner, Fraction(rng.randint(2, 30), 10)))
    present = {(min(i, j), max(i, j)) for i, j, _ in edges}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in present and rng.random() < 0.3:
                edges.append((i, j, Fraction(rng.randint(2, 30), 10)))
    return WeightedGraph.from_edges(n, edges)


class TestParse:
    def test_single_edge(self):
        g = parse_graph("n 2\n1 2 1.5")
        assert g.n == 2
        assert g.weights[0][1] == g.weights[1][0] == Fraction("1.5")

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
            assert abs(recovered - graph7.weights[i][j]) < Fraction("0.001")

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_graph("1 1 2.0")

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError):
            parse_graph("1 2")

    def test_nonpositive_weight(self):
        with pytest.raises(GraphFormatError, match="nonpositive"):
            parse_graph("1 2 0")

    def test_conflicting_duplicate(self):
        with pytest.raises(GraphFormatError, match="conflicting"):
            parse_graph("1 2 1.0\n2 1 2.0")

    def test_consistent_duplicate_allowed(self):
        g = parse_graph("1 2 1.0\n2 1 1.0")
        assert g.weights[0][1] == 1

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
            assert parse_graph(serialize_graph(g)) == g


class TestWeightedGraph:
    def test_adjacency_lists_positive_weights(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(1, 9))
            assert g.adjacency == tuple(
                tuple((j, w) for j, w in enumerate(row) if w > 0) for row in g.weights
            )
            assert g.edges() == [
                (i, j, g.weights[i][j])
                for i in range(g.n)
                for j in range(i + 1, g.n)
                if g.weights[i][j] > 0
            ]

    @pytest.mark.parametrize(
        "weights,message",
        [
            (((0, 1), (0, 0)), "not symmetric"),
            (((0, 0), (1, 0)), "not symmetric"),
            (((0, -1), (-1, 0)), "negative"),
            (((1, 0), (0, 0)), "self-loop"),
            (((0, 1), (2, 0)), "not symmetric"),
        ],
    )
    def test_validation(self, weights, message):
        w = tuple(tuple(Fraction(c) for c in row) for row in weights)
        with pytest.raises(GraphFormatError, match=message):
            WeightedGraph(2, w)


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
