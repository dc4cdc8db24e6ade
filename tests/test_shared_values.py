"""Passes done once per distinct weight, state or class object.

A parsed graph shares one weight object per distinct text, and a synthesized
plan one start state per class.  The per-edge and per-agent passes compute
once per distinct object, keyed by identity, so a graph whose every edge has
its own weight object (no sharing) must give the same results.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import pytest

import satorbits.cli as cli
from satorbits import (
    AgentState,
    GainParams,
    NsModel,
    Trajectory,
    closed_form_di,
    fixture_path,
    key_inequalities_ns,
    make_partition,
    oracle_check_di,
    parse_graph,
    position_constraints,
    simulate,
    synthesize_di,
    synthesize_ns,
    verification_report,
)
from satorbits.cli import EXIT_VERIFY, interval_table, main, plan_to_text
from satorbits.dynamics import Lattice, LatticeColumn
from satorbits.graphs import GraphFormatError, WeightedGraph
from satorbits.scalars import per_object

GRAPH = str(fixture_path("graph7.txt"))
DI_CFG = str(fixture_path("di.cfg"))

GAINS_DI = GainParams(Fraction("0.4"), Fraction("0.42"))
GAINS_NS = GainParams(Fraction("-0.5"), Fraction(2))
NS = NsModel(Fraction("0.5"))


def ring_text(n: int) -> str:
    """A ring plus chords at +2 and +7 with 26 weight texts 0.5..3.0."""
    lines = [f"n {n}"]
    for i in range(n):
        for k in (1, 2, 7):
            lines.append(f"{i + 1} {(i + k) % n + 1} {0.5 + (i * k % 26) / 10:.1f}")
    return "\n".join(lines) + "\n"


def unshared(g: WeightedGraph) -> WeightedGraph:
    """The same graph with a new weight object on every edge."""
    return WeightedGraph.from_edges(g.n, [(i, j, Fraction(w)) for i, j, w in g.edges()])


def distinct_weights(g: WeightedGraph) -> int:
    return len({id(w) for _, _, w in g.edges()})


def test_per_object_calls_once_per_object_in_first_order():
    a, b = Fraction(1, 3), Fraction(1, 3)  # equal values, two objects
    calls = []

    def fn(value):
        calls.append(value)
        return 2 * value

    assert per_object(fn, [a, b, a, a, b]) == [2 * a] * 5
    assert [id(v) for v in calls] == [id(a), id(b)]


@pytest.mark.parametrize(
    "text,texts",
    # the fixture's 7 edges have 7 weight texts; the ring's 180 edges have 26
    [(fixture_path("graph7.txt").read_text(), 7), (ring_text(60), 26)],
)
def test_shared_and_unshared_weights_give_the_same_results(text, texts):
    shared = parse_graph(text)
    fresh = unshared(shared)
    assert shared.edges() == fresh.edges()
    assert distinct_weights(shared) == texts
    assert distinct_weights(fresh) == len(fresh.edges())

    def outputs(g: WeightedGraph) -> dict:
        p = make_partition(g, 0)
        di = synthesize_di(g, GAINS_DI, base=Fraction(21), anchor=0)
        ns = synthesize_ns(g, NS, GAINS_NS)
        lattice = Lattice(g, GAINS_DI, None)
        reports = [
            verification_report(g, plan, simulate(g, plan.gains, plan.init, 2 * plan.period, model))
            for plan, model in ((di, None), (ns, NS))
        ]
        return {
            "a_bar": p.a_bar,
            "positions": position_constraints(g, p, GAINS_DI, di.half_period),
            "keys": key_inequalities_ns(g, p, NS, GAINS_NS),
            "W": lattice.W,
            "degrees": lattice.degrees,
            "plans": [plan_to_text(di), plan_to_text(ns)],
            "table": interval_table(g, di),
            "reports": reports,
        }

    got, want = outputs(shared), outputs(fresh)
    assert got == want
    assert all(report["ok"] for report in got["reports"])


def test_bounds_and_states_are_formatted_once_per_object(monkeypatch):
    g = parse_graph(ring_text(60))
    plan = synthesize_di(g, GAINS_DI)
    formatted = []
    format_scalar = cli.format_scalar

    def counting(value):
        formatted.append(value)
        return format_scalar(value)

    monkeypatch.setattr(cli, "format_scalar", counting)
    interval_table(g, plan)
    # a lower and an upper bound per distinct cross-edge weight, no more
    cross = {id(w) for _, _, w in plan.partition.cross_edges}
    assert len(formatted) == 2 * len(cross) < len(plan.partition.cross_edges)
    formatted.clear()
    plan_to_text(plan)
    # alpha and beta, then x and v of the two class states
    assert len(formatted) == 2 + 2 * 2


@pytest.mark.parametrize("zero", [Fraction(0), Fraction(-1), 0.0])
def test_nonpositive_weight_shared_by_edges_is_rejected_at_its_first(zero):
    one = Fraction(1)
    # the first in validation order, agent by agent, is (3, 4)
    edges = [(0, 1, one), (1, 2, one), (2, 3, zero), (3, 4, zero), (2, 4, zero)]
    with pytest.raises(GraphFormatError, match=r"on \(3, 4\) is negative or zero"):
        WeightedGraph.from_edges(5, edges)


ONE = Fraction(1)


@pytest.mark.parametrize(
    "edges,first",
    [
        ([(0, 1, ONE), (1, 2, ONE), (2, 3, Fraction(0)), (3, 4, ONE)], "(3, 4)"),
        # the nonpositive weight follows a positive one in the same row
        ([(0, 1, ONE), (0, 2, Fraction(-2)), (1, 2, ONE)], "(1, 3)"),
    ],
)
def test_positive_shared_weight_does_not_pass_a_later_nonpositive_one(edges, first):
    with pytest.raises(GraphFormatError, match=re.escape(f"on {first} is negative or zero")):
        WeightedGraph.from_edges(5, edges)


class TestOracleKeepsTheClass:
    """An odd agent given the start state objects of an even agent is checked
    against the odd closed form from that state, not the even agent's form."""

    @staticmethod
    def swapped_plan():
        g = parse_graph(fixture_path("graph7.txt").read_text())
        plan = synthesize_di(g, GAINS_DI, base=Fraction(21), anchor=0)
        odd = min(plan.partition.s_odd)
        init = list(plan.init)
        init[odd] = init[0]  # agent 1, the root, is even
        return plan._replace(init=tuple(init)), odd

    @staticmethod
    def rows(plan, odd: int, odd_follows: str) -> list[tuple[AgentState, ...]]:
        """Closed-form rows of `plan`, each agent by its class but agent `odd`,
        which follows the class `odd_follows`."""
        m = plan.half_period
        cls = ["even" if i in plan.partition.s_even else "odd" for i in range(len(plan.init))]
        cls[odd] = odd_follows
        return [
            tuple(closed_form_di(s.x, s.v, c, m, k) for s, c in zip(plan.init, cls))
            for k in range(2 * m + 1)
        ]

    @pytest.mark.parametrize("path", ["lattice", "tuple"])
    @pytest.mark.parametrize("odd_follows,ok", [("even", False), ("odd", True)])
    def test_closed_form(self, path, odd_follows, ok):
        plan, odd = self.swapped_plan()
        rows = self.rows(plan, odd, odd_follows)
        if path == "lattice":
            states = LatticeColumn([Lattice.encode(row) for row in rows], Lattice.decode)
        else:
            states = tuple(rows)
        t = Trajectory("di", None, states, (), ())
        assert oracle_check_di(t, plan) is ok

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_hand_edited_plan_fails_closed_form(self, mode, tmp_path, capsys):
        plan_file = tmp_path / "plan.txt"
        common = [GRAPH, "--config", DI_CFG, "--mode", mode]
        main(["synthesize", *common, "-o", str(plan_file)])
        lines = plan_file.read_text().splitlines()
        state = lines[6].partition(":")[2]  # agent 1, even
        odd = next(k for k, line in enumerate(lines) if line.endswith("v=5.5"))
        lines[odd] = lines[odd].partition(":")[0] + ":" + state
        plan_file.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", *common, "--plan", str(plan_file)]) == EXIT_VERIFY
        report = json.loads(capsys.readouterr().out)
        assert report["closed_form"] is False
