"""The graph and plan readers against their line-by-line oracles.

`parse_graph` and `plan_from_text` read a text in the writer's form in whole
columns and hand every other text to their per-line readers.  On texts the
writers wrote, and on the same texts perturbed off that form, both must give
what `reference.parse_graph_lines` and `reference.plan_from_lines` give: an
equal graph or plan whose values are objects shared alike, or the same error.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satorbits import cli, graphs
from satorbits.dynamics import AgentState, GainParams, NsModel
from satorbits.graphs import GraphFormatError, WeightedGraph, make_partition
from satorbits.synthesis import OrbitPlan

from reference import parse_graph_lines, plan_from_lines, serialize_graph

#: weight and start-value texts; equal values under other spellings are
#: parsed to distinct objects
WEIGHTS = ["1", "0.5", "2/3", "3", "12.25", "0.1", "1.0"]
VALUES = ["0", "21", "-5.5", "1/3", "-7/12", "0.125", "-1", "1"]
MODES = st.sampled_from(["exact", "float"])


def digit_limit_index() -> str:
    return "1" * (sys.get_int_max_str_digits() + 1)


def shared_alike(values: list) -> list[int]:
    """Each value as the index of its object's first appearance."""
    first: dict[int, int] = {}
    return [first.setdefault(id(v), len(first)) for v in values]


@st.composite
def written_graphs(draw) -> str:
    """`serialize_graph` of a connected graph whose weights share a few texts."""
    n = draw(st.integers(2, 7))
    values = {text: Fraction(text) for text in WEIGHTS}
    edges = {}
    for k in range(1, n):
        edges[k, draw(st.integers(0, k - 1))] = draw(st.sampled_from(WEIGHTS))
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6)):
        if i != j and (i, j) not in edges and (j, i) not in edges:
            edges[i, j] = draw(st.sampled_from(WEIGHTS))
    return serialize_graph(
        WeightedGraph.from_edges(n, [(i, j, values[w]) for (i, j), w in edges.items()])
    )


def _edge_line(draw, lines: list[str]) -> int:
    """The position of an edge line, the first line being the count."""
    return draw(st.integers(1, len(lines) - 1))


def _edit_index(draw, lines: list[str], edit) -> None:
    k = _edge_line(draw, lines)
    fields = lines[k].split(" ")
    f = draw(st.integers(0, 1))
    fields[f] = edit(fields[f])
    lines[k] = " ".join(fields)


def perturb_graph(draw, text: str, kind: str) -> str:
    lines = text.splitlines()
    if kind == "blank":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    elif kind == "comment":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["# c", "  #x 1 2"])))
    elif kind in ("tab", "doubled"):
        k = _edge_line(draw, lines)
        at = draw(st.integers(0, 1))
        parts = lines[k].split(" ")
        blank = "\t" if kind == "tab" else "  "
        lines[k] = blank.join([" ".join(parts[: at + 1]), " ".join(parts[at + 1 :])])
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif kind == "plus":
        _edit_index(draw, lines, lambda i: "+" + i)
    elif kind == "leading-zero":
        _edit_index(draw, lines, lambda i: "0" + i)
    elif kind == "digit-limit":
        _edit_index(draw, lines, lambda i: digit_limit_index())
    elif kind == "duplicate-edge":
        i, j, w = lines[_edge_line(draw, lines)].split(" ")
        if draw(st.booleans()):
            i, j = j, i
        if draw(st.booleans()):
            w = draw(st.sampled_from(WEIGHTS))
        lines.insert(draw(st.integers(1, len(lines))), f"{i} {j} {w}")
    elif kind == "reversed-edge":
        k = _edge_line(draw, lines)
        i, j, w = lines[k].split(" ")
        lines[k] = f"{j} {i} {w}"
    elif kind == "shuffled":
        lines[1:] = draw(st.permutations(lines[1:]))
    elif kind == "self-loop":
        k = _edge_line(draw, lines)
        i, _, w = lines[k].split(" ")
        lines[k] = f"{i} {i} {w}"
    elif kind == "bad-weight":
        k = _edge_line(draw, lines)
        i, j, _ = lines[k].split(" ")
        lines[k] = f"{i} {j} {draw(st.sampled_from(['0', '-1', '1/0', 'x', '1e400']))}"
    elif kind == "no-count":
        del lines[0]
    elif kind == "count":
        n = int(lines[0].split()[1])
        lines[0] = f"n {draw(st.sampled_from([n - 1, n + 1, 0]))}"
    elif kind == "no-final-newline":
        return "\n".join(lines)
    return "\n".join(lines) + "\n"


#: in the order they are applied: the edits of one edge line, which find it
#: as written, before those that move lines or blanks
GRAPH_PERTURBATIONS = [
    "plus", "leading-zero", "digit-limit", "duplicate-edge", "reversed-edge", "self-loop",
    "bad-weight", "tab", "doubled", "count", "shuffled", "no-count", "blank", "comment",
    "crlf", "no-final-newline",
]  # fmt: skip


def graph_outcome(read, text: str, mode: str):
    try:
        g = read(text, mode)
    except GraphFormatError as exc:
        return "error", str(exc)
    weights = [w for row in g.adjacency for _, w in row]
    return g, list(map(type, weights)), shared_alike(weights)


@settings(max_examples=60, deadline=None)
@given(st.data(), MODES)
def test_written_graph_reads_as_the_line_reader(data, mode):
    text = data.draw(written_graphs())
    expected = graph_outcome(parse_graph_lines, text, mode)
    assert graph_outcome(graphs.parse_graph, text, mode) == expected
    # the text as written takes the bulk reader
    assert graph_outcome(lambda t, m: graphs._read_writer_form(t, m), text, mode) == expected


@settings(max_examples=80, deadline=None)
@given(st.data(), MODES, st.lists(st.sampled_from(GRAPH_PERTURBATIONS), min_size=1, max_size=2))
def test_perturbed_graph_reads_as_the_line_reader(data, mode, kinds):
    text = data.draw(written_graphs())
    for kind in sorted(kinds, key=GRAPH_PERTURBATIONS.index):
        text = perturb_graph(data.draw, text, kind)
    assert graph_outcome(graphs.parse_graph, text, mode) == graph_outcome(
        parse_graph_lines, text, mode
    )


@st.composite
def written_plans(draw) -> tuple[str, WeightedGraph]:
    """`plan_to_text` of a plan on a written graph whose start states share a
    few value texts, and a few states."""
    g = graphs.parse_graph(draw(written_graphs()))
    values = [Fraction(text) for text in draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=3))]
    states = [
        AgentState(draw(st.sampled_from(values)), draw(st.sampled_from(values)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    init = tuple(draw(st.sampled_from(states)) for _ in range(g.n))
    ns = draw(st.sampled_from([None, NsModel(Fraction(1, 2))]))
    m = 2 if ns else draw(st.integers(3, 30))
    root = draw(st.integers(0, g.n - 1))
    plan = OrbitPlan(ns, GainParams(Fraction("0.4"), Fraction("0.42")), make_partition(g, root), m, init)
    return cli.plan_to_text(plan), g


def _agent_line(draw, lines: list[str]) -> int:
    first = next(k for k, line in enumerate(lines) if line.startswith("agent "))
    return draw(st.integers(first, len(lines) - 1))


def perturb_plan(draw, text: str, kind: str) -> str:
    lines = text.splitlines()
    if kind == "blank":
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    elif kind == "comment":
        lines.insert(draw(st.integers(0, len(lines))), "# a comment")
    elif kind == "tab":
        k = _agent_line(draw, lines)
        lines[k] = lines[k].replace(": x=", ":\tx=")
    elif kind == "respaced":
        k = _agent_line(draw, lines)
        lines[k] = lines[k].replace(": x=", " :  x=").replace(", v=", ",  v=")
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif kind == "plus":
        k = _agent_line(draw, lines)
        lines[k] = lines[k].replace("agent ", "agent +")
    elif kind == "leading-zero":
        k = _agent_line(draw, lines)
        lines[k] = lines[k].replace("agent ", "agent 0")
    elif kind == "digit-limit":
        k = _agent_line(draw, lines)
        lines[k] = f"agent {digit_limit_index()}:" + lines[k].partition(":")[2]
    elif kind == "duplicate-agent":
        lines.insert(draw(st.integers(0, len(lines))), lines[_agent_line(draw, lines)])
    elif kind == "missing-agent":
        del lines[_agent_line(draw, lines)]
    elif kind == "extra-agent":
        n = sum(line.startswith("agent ") for line in lines)
        lines.append(f"agent {n + 1}: x=0, v=0")
    elif kind == "shuffled-agents":
        first = next(k for k, line in enumerate(lines) if line.startswith("agent "))
        lines[first:] = draw(st.permutations(lines[first:]))
    elif kind == "key-after-agents":
        k = draw(st.integers(0, 5))
        lines.append(lines.pop(k))
    elif kind == "missing-key":
        del lines[draw(st.integers(0, 4))]
    elif kind == "respelled-value":
        # a blank after "=" reads the same value, but under another text pair
        k = _agent_line(draw, lines)
        lines[k] = lines[k].replace("x=", "x= ")
    elif kind == "bad-value":
        k = _agent_line(draw, lines)
        lines[k] = lines[k].partition(", v=")[0] + f", v={draw(st.sampled_from(['1/0', 'x', '1e400']))}"
    elif kind == "extra-field":
        k = _agent_line(draw, lines)
        lines[k] += ", w=3"
    elif kind == "root":
        k = next(k for k, line in enumerate(lines) if line.startswith("root="))
        lines[k] = f"root={draw(st.sampled_from(['0', '9', '+1']))}"
    elif kind == "no-final-newline":
        return "\n".join(lines)
    return "\n".join(lines) + "\n"


#: in the order they are applied, as `GRAPH_PERTURBATIONS`
PLAN_PERTURBATIONS = [
    "tab", "respaced", "plus", "leading-zero", "digit-limit", "respelled-value", "bad-value",
    "extra-field", "root", "duplicate-agent", "missing-agent", "extra-agent", "missing-key",
    "key-after-agents", "shuffled-agents", "blank", "comment", "crlf", "no-final-newline",
]  # fmt: skip


def plan_outcome(read, text: str, g: WeightedGraph, mode: str):
    try:
        plan = read(text, g, mode)
    except cli.CliError as exc:
        return "error", str(exc), exc.code
    values = [v for s in plan.init for v in s]
    return plan, list(map(type, values)), shared_alike(values), shared_alike(plan.init)


@settings(max_examples=60, deadline=None)
@given(written_plans(), MODES)
def test_written_plan_reads_as_the_line_reader(written, mode):
    text, g = written
    expected = plan_outcome(plan_from_lines, text, g, mode)
    assert plan_outcome(cli.plan_from_text, text, g, mode) == expected
    # the agent lines as written are read as one block
    assert cli._agent_block(text, g.n, lambda x, v: (x, v))[0] is not None


@settings(max_examples=80, deadline=None)
@given(st.data(), MODES, st.lists(st.sampled_from(PLAN_PERTURBATIONS), min_size=1, max_size=2))
def test_perturbed_plan_reads_as_the_line_reader(data, mode, kinds):
    text, g = data.draw(written_plans())
    for kind in sorted(kinds, key=PLAN_PERTURBATIONS.index):
        text = perturb_plan(data.draw, text, kind)
    assert plan_outcome(cli.plan_from_text, text, g, mode) == plan_outcome(
        plan_from_lines, text, g, mode
    )


@pytest.mark.parametrize("tail", ["model=di", "# a comment", "agent 3: x=0, v=0", "m=4"])
def test_unended_line_after_the_agent_block(tail):
    """A line after the agent lines with no "\\n" after it is no agent line of
    the block: the plan is read line by line."""
    g = graphs.parse_graph("n 2\n1 2 1\n")
    head = "" if tail == "model=di" else "model=di\n"
    text = head + "alpha=0.4\nbeta=0.42\nroot=1\nm=3\nT=6\nagent 1: x=0, v=0\nagent 2: x=0, v=0\n" + tail
    assert cli._agent_block(text, g.n, lambda x, v: (x, v)) == (None, 0)
    assert plan_outcome(cli.plan_from_text, text, g, "exact") == plan_outcome(
        plan_from_lines, text, g, "exact"
    )
