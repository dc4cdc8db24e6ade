"""Lattice-backed trajectories against their tuple copies.

`simulate` and the CSV reader return `LatticeColumn`s, and each check has
one body on them; `reference` holds the per-agent scalar bodies, which take
the tuple copy of the same trajectory.  Both must give the same results and
raise the same errors.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import satorbits.dynamics as dynamics
from satorbits import (
    AgentState,
    GainParams,
    NsModel,
    fixture_path,
    make_partition,
    parse_graph,
    simulate,
    synthesize_di,
    synthesize_ns,
)
from satorbits.cli import (
    EXIT_OK,
    _csv_pieces,
    _trajectory_consistent,
    main,
    plan_from_text,
    trajectory_from_csv,
    trajectory_to_csv,
)
from satorbits.dynamics import (
    DecimalLattice,
    FloatLattice,
    Lattice,
    LatticeColumn,
    SimulationOverflowError,
    Trajectory,
    ratios,
)
from satorbits.synthesis import OrbitPlan, PatternSpec
from satorbits.verify import (
    backward_states,
    check_pattern,
    check_periodicity,
    minimal_period,
    oracle_check_di,
)
from reference import control_inputs, integer_kind, lattice_copy, rollout, tuple_copy
from satorbits.graphs import WeightedGraph
from satorbits.scalars import is_exact
from test_graphs import float_weight, random_connected_edges, random_connected_graph

GRAPH = str(fixture_path("graph7.txt"))
DI_CFG = str(fixture_path("di.cfg"))

#: sha256 of `trajectory_to_csv` on the 7-agent fixture, taken from the
#: Fraction-column writer: di on its orbit (44 steps), ns on its orbit
#: (8 steps), and di from the halved orbit state (250 steps)
CSV_SHA256 = {
    "di": "43ba1b9b8b45d36d3ffd2918359251039b15ae2617a0507cd5fd6b6b9b866b9c",
    "ns": "21693bb2dff5ae350b2446e1683af8d4d6a61c53d81ef97311d2c7add201dc2e",
    "halved": "2d8f04c27b11155239b029ffc50da4a827ba7c132dd9421c592848ed9fbabc31",
    # the synthesized di orbit (44 steps), whose second half mirrors its first
    "mirrored": "0fe1e8e2b8d4b410ce5c863996a8688ede0a9df8a28b6dd3c20ed8c8ddc9df2b",
}


def random_cases():
    """The 60 random loops of `TestLatticeKernel.test_random_graphs`, same draws.

    Yields (graph, gains, init, ns, T) with T the period that test inverts.
    """
    rng = random.Random(20140207)
    models = [None, NsModel(Fraction(1, 3)), NsModel(Fraction("-0.4")), NsModel(Fraction(-5, 7))]
    for trial in range(60):
        g = random_connected_graph(rng, rng.randint(2, 9))
        gains = GainParams(
            Fraction(rng.randint(-30, 30), rng.choice([1, 7, 30, 70])),
            Fraction(rng.randint(-30, 30), rng.choice([2, 9, 50])),
        )
        init = [
            AgentState(
                Fraction(rng.randint(-12, 12), rng.randint(1, 12)),
                Fraction(rng.randint(-12, 12), rng.randint(1, 12)),
            )
            for _ in range(g.n)
        ]
        yield g, gains, init, models[trial % len(models)], rng.randint(1, 12)


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # both paths must fail alike
        return type(exc).__name__, str(exc)


#: the one-body checks and writer of `satorbits`, named as in `reference`
LIBRARY = SimpleNamespace(
    check_periodicity=check_periodicity,
    backward_states=backward_states,
    check_pattern=check_pattern,
    oracle_check_di=oracle_check_di,
    minimal_period=minimal_period,
    trajectory_to_csv=trajectory_to_csv,
    trajectory_consistent=lambda t, g, gains: _trajectory_consistent(
        t, simulate(g, gains, t.states[0], t.steps, ns=t.ns)
    ),
)


def all_checks(checks, t, g, gains, plan, T, ns):
    """Every check of `checks` (`LIBRARY` or `reference`), plus the backward
    check they share on an exact run (the library's is exact-only), the CSV
    writer and the CSV consistency check."""
    exact = all(is_exact(c) for s in t.states[0] for c in s)
    return {
        "periodicity": outcome(checks.check_periodicity, t, T, graph=g, gains=gains),
        "backward": outcome(checks.backward_states, t, g, gains, T) if exact else None,
        "pattern": outcome(checks.check_pattern, t, plan.partition, plan.pattern),
        "oracle": outcome(checks.oracle_check_di, t, plan),
        "minimal_period": outcome(
            checks.minimal_period, g, gains, t.states[0], t.steps, ns=ns, rollout=t
        ),
        "minimal_period_T": outcome(
            checks.minimal_period, g, gains, t.states[0], T, ns=ns, rollout=t
        ),
        "csv": outcome(checks.trajectory_to_csv, t),
        "consistent": outcome(checks.trajectory_consistent, t, g, gains),
    }


def assert_paths_agree(t, g, gains, plan, T, ns):
    """Each one-body check on t gives what its `reference` body gives on t's tuple copy."""
    assert all(isinstance(c, LatticeColumn) for c in (t.states, t.raw_u, t.sat_u))
    assert all_checks(LIBRARY, t, g, gains, plan, T, ns) == all_checks(
        reference, tuple_copy(t), g, gains, plan, T, ns
    )


def edited(t, column, k, edit):
    """A tuple copy of t whose row k of `column` is replaced by edit(row)."""
    copy = tuple_copy(t)
    rows = list(getattr(copy, column))
    rows[k] = tuple(edit(list(rows[k])))
    return copy._replace(**{column: tuple(rows)})


def at(i, change):
    """A row edit that applies `change` to entry i."""

    def edit(row):
        row[i] = change(row[i])
        return row

    return edit


def one_value_edits(t, T, rng, delta=Fraction(1, 3)):
    """(column, step, row edit) for each way the checks must notice a change,
    a value moved by `delta` among them."""
    k, k_in = rng.randrange(min(T, t.steps) + 1), rng.randrange(min(T, t.steps))
    i = rng.randrange(t.n)
    return [
        ("states", k, at(i, lambda s: AgentState(s.x + delta, s.v))),
        ("states", k, at(i, lambda s: AgentState(s.x, s.v + delta))),
        # the same numerators over twice the denominator
        ("states", T, lambda row: [AgentState(s.x / 2, s.v / 2) for s in row]),
        ("raw_u", k_in, at(i, lambda u: u + delta)),
        # exactly on the pattern's bound, which u >= 1 / u <= -1 admits
        ("raw_u", k_in, at(i, lambda u: 1 if u > 0 else -1)),
        ("sat_u", k_in, at(i, lambda u: u + delta)),
    ]


def assert_edits_agree(t, g, gains, plan, T, ns, rng):
    """Each edit, rebuilt as lattice columns, agrees with its tuple form, both
    alone and as the one column replaced in the run t itself, whose other
    columns keep the lattice it stepped on.  The replaced column is rebuilt
    in the run's own kind: a run of terminating decimals, whose kind holds
    no third, takes edits of its own for it, by an eighth."""
    edits = one_value_edits(t, T, rng)
    for column, k, edit in edits:
        bad = edited(t, column, k, edit)
        lattice = lattice_copy(bad)
        assert tuple_copy(lattice) == bad
        assert_paths_agree(lattice, g, gains, plan, T, ns)
    if t.states.kind is DecimalLattice:
        edits = one_value_edits(t, T, rng, Fraction(1, 8))
    for column, k, edit in edits:
        bad = edited(t, column, k, edit)
        own = t._replace(**{column: getattr(lattice_copy(bad, t.states.kind), column)})
        assert tuple_copy(own) == bad
        assert_paths_agree(own, g, gains, plan, T, ns)


def plan_for(g, gains, t, half_period):
    return OrbitPlan(
        ns=t.ns,
        gains=gains,
        partition=make_partition(g, 0),
        half_period=half_period,
        init=tuple(t.states[0]),
    )


def test_random_loops_agree():
    rng = random.Random(4)
    for g, gains, init, ns, T in random_cases():
        t = simulate(g, gains, init, 12, ns=ns)
        plan = plan_for(g, gains, t, 6)
        assert_paths_agree(t, g, gains, plan, T, ns)
        assert_edits_agree(t, g, gains, plan, T, ns, rng)


@pytest.fixture(scope="module")
def fixture_runs(graph7, gains_di, gains_ns, ns_model, reference_init_di):
    """(trajectory, plan, ns) for the di.cfg orbit from the paper's positions,
    its halving, the synthesized di orbit and the ns orbit, all on the integer
    `Lattice`; and the first two as `simulate` steps them, on the
    `DecimalLattice` ("-decimal"), as no first step of theirs is a class step."""
    mirrored = synthesize_di(graph7, gains_di)
    di = mirrored._replace(init=reference_init_di)
    ns = synthesize_ns(graph7, ns_model, gains_ns)
    halved = di._replace(init=tuple(AgentState(s.x / 2, s.v / 2) for s in di.init))
    with integer_kind():
        runs = {
            "di": (simulate(graph7, gains_di, di.init, 44), di, None),
            "ns": (simulate(graph7, gains_ns, ns.init, 8, ns=ns_model), ns, ns_model),
            "halved": (simulate(graph7, gains_di, halved.init, 250), halved, None),
            "mirrored": (simulate(graph7, gains_di, mirrored.init, 44), mirrored, None),
        }
    runs["di-decimal"] = (simulate(graph7, gains_di, di.init, 44), di, None)
    runs["halved-decimal"] = (simulate(graph7, gains_di, halved.init, 250), halved, None)
    assert all(
        (t.states.kind is DecimalLattice) == name.endswith("-decimal")
        for name, (t, _, _) in runs.items()
    )
    return runs


#: how a test runs `simulate` on each exact kind: a run of terminating
#: decimals steps on the integer `Lattice` within the first, and as it
#: would within the second
KINDS = (integer_kind, contextlib.nullcontext)


@pytest.mark.parametrize(
    "name", ["di", "ns", "halved", "mirrored", "di-decimal", "halved-decimal"]
)
def test_fixture_runs_agree(name, fixture_runs, graph7):
    t, plan, ns = fixture_runs[name]
    assert_paths_agree(t, graph7, plan.gains, plan, plan.period, ns)
    assert_edits_agree(t, graph7, plan.gains, plan, plan.period, ns, random.Random(name))
    assert_paths_agree(lattice_copy(t), graph7, plan.gains, plan, plan.period, ns)


def test_run_is_inverted_under_a_loop_of_another_kind(fixture_runs, graph7, monkeypatch):
    """A decimal run checked under gains of thirds, which its kind cannot
    hold, is inverted on the integer `Lattice`, its start tick and saturated
    rows encoded in it, as its tuple copy is; under gains equal to its own
    but another object, on a rebuilt `DecimalLattice`.  An exact run on the
    float graph is not inverted, and its periodicity is the tick compare."""
    kinds = []
    for kind in (Lattice, DecimalLattice):

        def recording(self, *args, unstep=kind.unstep):
            kinds.append(type(self))
            return unstep(self, *args)

        monkeypatch.setattr(kind, "unstep", recording)
    t, plan, _ = fixture_runs["di-decimal"]
    thirds = GainParams(Fraction(1, 3), Fraction(1, 3))
    for gains, kind in ((thirds, Lattice), (GainParams(*plan.gains), DecimalLattice)):
        kinds.clear()
        assert outcome(backward_states, t, graph7, gains, plan.period) == outcome(
            reference.backward_states, tuple_copy(t), graph7, gains, plan.period
        )
        assert kinds and set(kinds) == {kind}
    floats = parse_graph(fixture_path("graph7.txt").read_text(), mode="float")
    for name in ("di", "di-decimal"):
        t, plan, _ = fixture_runs[name]
        assert backward_states(t, floats, plan.gains, plan.period) is None
        assert check_periodicity(t, plan.period, graph=floats, gains=plan.gains)


def test_stepped_lattice_serves_only_its_own_model(fixture_runs, graph7):
    """An ns run given another rotation parameter is inverted on a lattice of
    that model, as its tuple copy is, not on the lattice the run stepped."""
    t, plan, ns = fixture_runs["ns"]
    other = t._replace(ns=NsModel(Fraction(1, 3)))
    assert other.states.lattice.ns == ns != other.ns
    assert outcome(backward_states, other, graph7, plan.gains, 4) == outcome(
        reference.backward_states, tuple_copy(other), graph7, plan.gains, 4
    )


@pytest.mark.parametrize("name", ["di", "ns", "halved", "di-decimal", "halved-decimal"])
def test_tuple_columns_take_the_scalar_path(name, fixture_runs, graph7, monkeypatch):
    """Tuple columns are checked per agent by the `reference` bodies, which
    never reach the kernel; lattice columns invert on the lattice of their
    kind."""
    t, plan, _ = fixture_runs[name]
    T = plan.period
    calls = []
    kind = t.states.kind
    unstep = kind.unstep

    def counting(self, *args):
        calls.append(args)
        return unstep(self, *args)

    def checks(traj, checks=LIBRARY):
        return (
            outcome(checks.check_periodicity, traj, T, graph=graph7, gains=plan.gains),
            outcome(checks.backward_states, traj, graph7, plan.gains, T),
            outcome(checks.oracle_check_di, traj, plan),
        )

    monkeypatch.setattr(kind, "unstep", counting)
    expected = checks(t)
    if name.startswith("halved"):
        # off the orbit the forward check fails, and the inversion stops at once
        assert expected[1][1].startswith("backward extension inconsistent at time -1,")
        assert len(calls) == 1
    else:
        # check_periodicity and backward_states each invert T steps
        assert expected[0] is True and expected[1] == list(t.states[0])
        assert len(calls) == 2 * T

    def refuse(self, *args):
        calls.append(args)
        raise AssertionError("a tuple column reached Lattice.unstep")

    calls.clear()
    monkeypatch.setattr(kind, "unstep", refuse)
    assert checks(tuple_copy(t), reference) == expected and not calls


@pytest.mark.parametrize("name", ["di", "ns", "mirrored", "di-decimal"])
def test_inverted_period_reads_the_runs_own_inputs(name, fixture_runs, graph7, monkeypatch):
    """On its own on-orbit two-class run the inverted period unsteps the class
    states under the saturated rows their class states give and computes no
    inputs, whatever raw-input column the run carries; on the paper's
    seven-state di point, and without the run's lattice on its states, it
    computes all T, with the same result."""
    t, plan, _ = fixture_runs[name]
    T = plan.period
    calls = []
    inputs = Lattice.inputs

    def counting(self, X, V):
        calls.append(X)
        return inputs(self, X, V)

    monkeypatch.setattr(Lattice, "inputs", counting)
    own = T if name.startswith("di") else 0
    runs = {
        "own": (t, own),
        "copy": (lattice_copy(t), T),
        "raw-copy": (t._replace(raw_u=lattice_copy(t, t.states.kind).raw_u), own),
        "raw-bare": (t._replace(raw_u=LatticeColumn(t.raw_u.data, ratios)), own),
    }
    for run, expected in runs.values():
        calls.clear()
        assert backward_states(run, graph7, plan.gains, T) == list(t.states[0])
        assert len(calls) == expected


@pytest.mark.parametrize("name", ["di", "ns", "di-decimal"])
def test_inverted_period_compares_ticks(name, fixture_runs, graph7, monkeypatch):
    """On a lattice run no state is encoded, decoded or compared as `AgentState`s."""
    t, plan, _ = fixture_runs[name]

    def refuse(*args):
        raise AssertionError("a state was encoded, decoded or compared")

    for kind in (Lattice, DecimalLattice):
        monkeypatch.setattr(kind, "encode", staticmethod(refuse))
        monkeypatch.setattr(kind, "decode", staticmethod(refuse))
    monkeypatch.setattr(AgentState, "__eq__", refuse)
    assert check_periodicity(t, plan.period, graph=graph7, gains=plan.gains) is True
    before = backward_states(t, graph7, plan.gains, plan.period)
    assert all(p is q for p, q in zip(before, t.states[0], strict=True))


def test_on_orbit_checks_pass_on_both_paths(fixture_runs, graph7):
    for name in ("di", "di-decimal"):
        t, plan, ns = fixture_runs[name]
        checks = all_checks(LIBRARY, t, graph7, plan.gains, plan, plan.period, ns)
        assert checks["periodicity"] is True and checks["oracle"] is True
        assert checks["pattern"].ok and checks["minimal_period"] == 22
        assert checks["consistent"] is None


@pytest.mark.parametrize(
    "name", ["di", "ns", "halved", "mirrored", "di-decimal", "halved-decimal"]
)
def test_csv_bytes_unchanged(name, fixture_runs):
    text = trajectory_to_csv(fixture_runs[name][0])
    assert hashlib.sha256(text.encode()).hexdigest() == CSV_SHA256[name.removesuffix("-decimal")]


class TestLatticeColumn:
    @pytest.fixture()
    def t(self, graph7, gains_di, reference_init_di):
        return simulate(graph7, gains_di, reference_init_di, 5)

    def test_sequence_protocol(self, t, reference_init_di):
        rows = tuple(t.states)
        assert len(t.states) == 6 and list(t.states) == list(rows)
        assert t.states[-1] == rows[5] and t.states[-6] == rows[0]
        assert t.states[1:4] == rows[1:4] and type(t.states[1:4]) is tuple
        assert t.states[::-2] == rows[::-2]
        assert t.states[0] == tuple(reference_init_di)
        assert t.states[2] is t.states[2]  # decoded once
        assert rows[3] in t.states and t.states.index(rows[3]) == 3
        with pytest.raises(IndexError):
            t.states[6]

    def test_equality_with_tuples(self, t):
        rows = tuple(t.raw_u)
        assert t.raw_u == rows and rows == t.raw_u
        assert not t.raw_u != rows
        assert t.raw_u != rows[:-1] and rows[:-1] != t.raw_u
        assert t.raw_u != list(rows)
        assert hash(t.raw_u) == hash(rows)
        assert t == tuple_copy(t) and tuple_copy(t) == t

    def test_replaced_column_is_read_on_its_own_rows(self, t, graph7, gains_di, partition7):
        # a column rebuilt from edited rows, put in place of the run's own, is
        # what every check reads
        bad = edited(t, "raw_u", 1, at(2, lambda u: u + 40))
        own = t._replace(raw_u=lattice_copy(bad, t.states.kind).raw_u)
        assert own.states.lattice is not None and own.raw_u.kind is DecimalLattice
        report = check_pattern(own, partition7, PatternSpec(2))
        assert (1, 2, t.raw_u[1][2] + 40) in report.violations
        resim = simulate(graph7, gains_di, t.states[0], t.steps)
        assert _trajectory_consistent(own, resim) == {"step": 1, "agent": 3}
        assert trajectory_to_csv(own) == reference.trajectory_to_csv(bad)

    def test_columns_of_two_kinds_are_refused(self, t):
        """A trajectory, or a `_replace` of one column, whose columns hold rows
        of two number kinds raises."""
        integer = lattice_copy(t)
        assert t.states.kind is DecimalLattice and integer.raw_u.kind is Lattice
        with pytest.raises(ValueError, match="two number kinds: DecimalLattice and Lattice"):
            Trajectory(t.ns, t.states, integer.raw_u, t.sat_u)
        for column in ("states", "raw_u", "sat_u"):
            with pytest.raises(ValueError, match="two number kinds"):
                t._replace(**{column: getattr(integer, column)})
        # tuple columns and an empty column hold no rows of a kind
        assert Trajectory(None, integer.states, (), ()).steps == 5
        empty = LatticeColumn([], ratios)
        assert t._replace(raw_u=empty, sat_u=empty).raw_u is empty

    def test_writer_reads_each_input_over_its_own_denominator(self):
        states = LatticeColumn([([1, 2], [0, 0], 1)] * 2, Lattice.decode)
        t = Trajectory(
            None,
            states,
            LatticeColumn([([5, 20], 10)], ratios),
            LatticeColumn([([5, 100], 100)], ratios),
        )
        text = trajectory_to_csv(t)
        assert text.splitlines()[1:3] == ["0,1,1,0,0.5,0.05", "0,2,2,0,2,1"]
        assert text == reference.trajectory_to_csv(tuple_copy(t))

    def test_float_runs_keep_the_row_layout(self):
        """A float run's rows are its values over 1.0, stepped on the `FloatLattice`."""
        g = parse_graph(fixture_path("graph7.txt").read_text(), mode="float")
        gains = GainParams(0.4, 0.42)
        init = [AgentState(float(i), 0.0) for i in range(7)]
        t = simulate(g, gains, init, 3)
        assert type(t.states.lattice) is FloatLattice and t.raw_u.reflected == 0
        assert all(c.kind is FloatLattice for c in (t.states, t.raw_u, t.sat_u))
        X, V, D = t.states.data[1]
        assert D == 1.0 and type(D) is float
        assert tuple(map(AgentState, X, V)) == t.states[1]
        assert all(E == 1.0 for _, E in t.raw_u.data + t.sat_u.data)
        assert (tuple(t.states), tuple(t.raw_u), tuple(t.sat_u)) == rollout(g, gains, init, 3)


class TestCanonicalReader:
    def test_encode_is_the_reduced_tick(self):
        """Values given in any terms, the lcm of the reduced denominators out."""
        rng = random.Random(5)
        for trial in range(400):
            n = rng.randint(1, 6)
            base = rng.choice([1, 10, 10**40, 3, 7 * 10**5, 2**9, 5**7])
            pairs = []
            for _ in range(2 * n):
                q = base * rng.choice([1, 2, 5, 10, 25, 10**rng.randint(0, 60)])
                p = rng.choice([0, 1, -1, 5, 2, 10]) * rng.randint(-(10**50), 10**50)
                pairs.append((p, q))
            values = [Fraction(p, q) for p, q in pairs]
            X, V, D = Lattice.encode([AgentState(*s) for s in zip(values[:n], values[n:])])
            expected = math.lcm(*(v.denominator for v in values))
            assert D == expected, (trial, pairs)
            assert X + V == [v.numerator * (D // v.denominator) for v in values]
            # the tick is reduced: no factor is common to D and every numerator
            assert math.gcd(D, *X, *V) == 1

    def test_reader_ticks_equal_simulate_ticks(self, fixture_runs):
        """The reader returns the lattice copy of the run that wrote the CSV:
        on the integer kind the run's ticks, and its input rows over the lcm
        of their denominators; given the decimal kind, the decimal run's own
        rows, which hold the values themselves."""
        for t, _, _ in fixture_runs.values():
            text = trajectory_to_csv(t)
            read = trajectory_from_csv(text, t.ns, "exact")
            assert read == tuple_copy(t)
            copy = lattice_copy(t)
            assert read.states.data == copy.states.data
            assert (read.raw_u.data, read.sat_u.data) == (copy.raw_u.data, copy.sat_u.data)
            assert all(c.lattice is None for c in (read.states, read.raw_u, read.sat_u))
            if t.states.kind is Lattice:
                assert read.states.data == t.states.data
                continue
            read = trajectory_from_csv(text, t.ns, "exact", DecimalLattice)
            assert all(c.kind is DecimalLattice for c in (read.states, read.raw_u, read.sat_u))
            assert read == tuple_copy(t)
            assert (read.states.data, read.raw_u.data, read.sat_u.data) == (
                t.states.data, t.raw_u.data, t.sat_u.data
            )

    def test_reader_ticks_on_random_loops(self):
        for g, gains, init, ns, _ in random_cases():
            t = simulate(g, gains, init, 12, ns=ns)
            read = trajectory_from_csv(trajectory_to_csv(t), t.ns, "exact")
            assert read == tuple_copy(t)

    @staticmethod
    def respell(text: str, k: int) -> str:
        """An equal value in a form other than the canonical one."""
        value = Fraction(text)
        spellings = [
            f"{text}0" if "." in text else f"{text}.0",  # 0.50
            f"{2 * value.numerator}/{2 * value.denominator}",  # 2/4
            text if text.startswith("-") else f"+{text}",  # +3
            f" {text} ",  # ' 2 '
        ]
        return spellings[k % len(spellings)]

    def test_other_spellings_read_alike_and_verify(self, tmp_path, capsys, graph7):
        plan, csv = tmp_path / "plan.txt", tmp_path / "traj.csv"
        main(["synthesize", GRAPH, "--config", DI_CFG, "-o", str(plan)])
        main(["simulate", GRAPH, "--config", DI_CFG, "--plan", str(plan), "-o", str(csv)])
        text = csv.read_text()
        read_plan = plan_from_text(plan.read_text(), graph7)
        t = simulate(graph7, read_plan.gains, read_plan.init, 2 * read_plan.period)
        assert trajectory_to_csv(t) == text
        lines = text.splitlines()
        for n, line in enumerate(lines[1:], 1):
            k, agent, *values = line.split(",")
            values = [self.respell(v, n + j) if v else v for j, v in enumerate(values)]
            lines[n] = ",".join([k, agent, *values])
        respelled = "\n".join(lines) + "\n"
        assert "/" not in text and all(c in respelled for c in ("0,", "/", "+", " "))
        assert trajectory_from_csv(respelled, None, "exact") == tuple_copy(t)
        csv.write_text(respelled)
        capsys.readouterr()
        assert main(["verify", GRAPH, "--plan", str(plan), "--csv", str(csv)]) == EXIT_OK


#: initial states made from the di.cfg state: the largest value of the
#: halved run is positive and of its negation negative, the tiny run's
#: denominators outgrow its numerators, and one agent far out on the negative
#: side dwarfs every positive value (its run stays under 64 bits)
INITS = {
    "halved": lambda init: [AgentState(s.x / 2, s.v / 2) for s in init],
    "negated": lambda init: [AgentState(-s.x / 2, -s.v / 2) for s in init],
    "tiny": lambda init: [AgentState(s.x / 2000, s.v / 2000) for s in init],
    "one-negative": lambda init: [AgentState(Fraction(-2001, 2), Fraction(0))]
    + [AgentState(Fraction(0), Fraction(0))] * (len(init) - 1),
}


@pytest.fixture(scope="module")
def scaled_references(graph7, gains_di, reference_init_di):
    """Each initial state of INITS and its per-agent reference rollout of 250 steps."""
    out = {}
    for name, make in INITS.items():
        init = make(reference_init_di)
        out[name] = init, rollout(graph7, gains_di, init, 250)[0]
    return out


@pytest.mark.parametrize(
    "cap,name",
    [(cap, name) for name in ("halved", "negated", "tiny") for cap in (8, 9, 64, 1000)]
    + [(8, "one-negative"), (9, "one-negative")],
)
def test_overflow_cap_trips_at_reference_step(
    cap, name, scaled_references, graph7, gains_di, monkeypatch
):
    init, states = scaled_references[name]
    # the first step whose reduced state has a numerator or denominator over the cap
    k = next(
        k
        for k, row in enumerate(states[1:], 1)
        if any(
            max(c.numerator.bit_length(), c.denominator.bit_length()) > cap
            for s in row
            for c in (s.x, s.v)
        )
    )
    monkeypatch.setattr(dynamics, "MAX_EXACT_BITS", cap)
    # on the integer kind, and on the decimal kind, on which `simulate` steps these runs
    for kind in KINDS:
        with kind():
            assert simulate(graph7, gains_di, init, k - 1).steps == k - 1
            with pytest.raises(SimulationOverflowError):
                simulate(graph7, gains_di, init, k)
    assert k == 1 or simulate(graph7, gains_di, init, k - 1).states.kind is DecimalLattice


def counted_steps(monkeypatch):
    """A list that gains an entry at each step a run takes: "csr" at each
    `Lattice.step` or `DecimalLattice.step` call, and at each
    `Lattice.class_step` call "class" when it steps the tick and "tried" when
    it declines."""
    calls = []
    class_step = Lattice.class_step

    def counting(step):
        def csr(self, *tick):
            calls.append("csr")
            return step(self, *tick)

        return csr

    def counting_class(self, *args):
        out = class_step(self, *args)
        calls.append("tried" if out is None else "class")
        return out

    for kind in (Lattice, DecimalLattice):
        monkeypatch.setattr(kind, "step", counting(kind.step))
    monkeypatch.setattr(Lattice, "class_step", counting_class)
    return calls


@pytest.mark.parametrize(
    "name", ["di", "ns", "halved", "mirrored", "di-decimal", "halved-decimal"]
)
def test_closed_orbit_is_stepped_once(
    name, graph7, gains_di, gains_ns, ns_model, reference_init_di, monkeypatch
):
    """Once the state returns to its start, the rows repeat without stepping, so
    a closed orbit takes T steps (the ns orbit 4, the di orbits 22), the
    synthesized two-class orbits each as a class step.  The synthesized orbits
    reflect their start at T/2, the paper's di positions never; off the orbit
    every step is taken.  The runs step on the integer kind, and "-decimal"
    on the decimal kind, as `simulate` steps the paper's positions."""
    decimal = name.endswith("-decimal")
    name = name.removesuffix("-decimal")
    if name == "ns":
        gains, init, ns, T = gains_ns, synthesize_ns(graph7, ns_model, gains_ns).init, ns_model, 4
    else:
        gains, init, ns, T = gains_di, reference_init_di, None, 22
    if name == "halved":
        init = INITS["halved"](init)
    if name == "mirrored":
        init = synthesize_di(graph7, gains_di).init
    steps_taken = counted_steps(monkeypatch)
    for steps in (2 * T, 3 * T + 5):
        steps_taken.clear()
        with KINDS[decimal]():
            t = simulate(graph7, gains, init, steps, ns=ns)
        assert (t.states.kind is DecimalLattice) == decimal
        kind = "class" if name in ("ns", "mirrored") else "csr"
        assert steps_taken == [kind] * (steps if name == "halved" else T)
        assert t.raw_u.reflected == (T // 2 if name in ("ns", "mirrored") else 0)
        expected = rollout(graph7, gains, init, steps, ns=ns)
        assert (tuple(t.states), tuple(t.raw_u), tuple(t.sat_u)) == expected


#: the complete graph on three agents, unit weights
K3 = "n 3\n1 2 1\n2 3 1\n1 3 1"

#: two K3 starts under alpha = beta = 1/3 whose tick 3 is R_c of tick 0 (see
#: `mirrored_cases`), as (x, v) texts
K3_UNREDUCED = [("-1/2", "-1/3"), ("1/2", "-1/3"), ("1/2", "2/3")]
K3_OFF_LATTICE = [("1/3", "-1/3"), ("1/3", "-1/3"), ("1/3", "2/3")]


@pytest.fixture(scope="module")
def mirrored_cases(graph7, gains_di, gains_ns):
    """(graph, gains, init, ns, p) of loops whose tick p is R_c of tick 0.

    The synthesized orbits mirror at T/2; `base` puts the di centre c at a
    non-integer.  On K3 with alpha = beta = 1/3 (2/3) an unsaturated loop turns
    each disagreement mode by 60 (90) degrees a step, so tick 3 (2) is R_c of
    tick 0 with c twice the mean position; the first two starts are off
    centre, so a reflected tick can hold more bits than the tick it reflects.
    The last two K3 starts reflect at tick 3 too, but R_c of tick 2 of the
    first is not reduced over its D = 6 (tick 5 is over 2), and the c = 2/3
    of the second is no numerator over the D = 1 of its tick 1.
    """
    k3 = parse_graph(K3)

    def on_k3(a, pairs):
        return k3, GainParams(a, a), [AgentState(Fraction(x), Fraction(v)) for x, v in pairs]

    ns_neg = NsModel(Fraction(-2, 7))
    gains_neg = GainParams(Fraction(1, 2), Fraction(-2))
    cases = {
        "di": (graph7, gains_di, synthesize_di(graph7, gains_di).init, None, 11),
        "di-m12": (graph7, gains_di, synthesize_di(graph7, gains_di, m_override=12).init, None, 12),
        "di-base": (
            graph7,
            gains_di,
            synthesize_di(graph7, gains_di, base=Fraction(1, 3), anchor=2).init,
            None,
            11,
        ),
        "k3-60": (*on_k3(Fraction(1, 3), [("3", "0"), ("4/3", "1/2"), ("5/3", "-1/2")]), None, 3),
        "k3-90": (
            *on_k3(Fraction(2, 3), [("107/6", "1/3"), ("217/12", "-1/4"), ("223/12", "-1/12")]),
            None,
            2,
        ),
        "k3-unreduced": (*on_k3(Fraction(1, 3), K3_UNREDUCED), None, 3),
        "k3-off-lattice": (*on_k3(Fraction(1, 3), K3_OFF_LATTICE), None, 3),
        "ns-neg": (graph7, gains_neg, synthesize_ns(graph7, ns_neg, gains_neg).init, ns_neg, 2),
    }
    for a in ("1/2", "3/10"):
        ns = NsModel(Fraction(a))
        cases[f"ns-{a}"] = (graph7, gains_ns, synthesize_ns(graph7, ns, gains_ns).init, ns, 2)
    return cases


MIRRORED = [
    "di",
    "di-m12",
    "di-base",
    "k3-60",
    "k3-90",
    "k3-unreduced",
    "k3-off-lattice",
    "ns-1/2",
    "ns-3/10",
    "ns-neg",
]


@pytest.mark.parametrize("name", MIRRORED)
def test_mirrored_runs_equal_the_reference(name, mirrored_cases):
    """Every step count from 0 to 2p + 3, odd and even, below, at and past
    2p: each row equals the per-agent stepper's, every tick is reduced, and
    the CSV text is the one the per-value writer gives, which toggles the
    signs of rows p..2p-1 once row p is written."""
    g, gains, init, ns, p = mirrored_cases[name]
    for steps in range(2 * p + 4):
        t = simulate(g, gains, init, steps, ns=ns)
        assert t.raw_u.reflected == (p if steps > p else 0)
        assert (tuple(t.states), tuple(t.raw_u), tuple(t.sat_u)) == rollout(
            g, gains, init, steps, ns=ns
        )
        assert all(math.gcd(D, *X, *V) == 1 for X, V, D in t.states.data)
        assert trajectory_to_csv(t) == reference.trajectory_to_csv(tuple_copy(t))


@pytest.mark.parametrize("name", MIRRORED)
def test_simulate_records_the_reflected_half(name, mirrored_cases):
    """The tick `simulate` records on its raw inputs is the first one whose
    decoded states are R_c of the start's, for every step count from 0 to
    2p + 3; a float run from the same start records none."""
    g, gains, init, ns, p = mirrored_cases[name]
    for steps in range(2 * p + 4):
        t = simulate(g, gains, init, steps, ns=ns)
        assert t.raw_u.reflected == reference.reflected_half(t) == (p if steps > p else 0)
    floats = [AgentState(float(s.x), float(s.v)) for s in init]
    t = simulate(g, gains, floats, 2 * p + 3, ns=ns)
    assert t.states.kind is FloatLattice and t.raw_u.reflected == 0


def test_reflections_the_writer_takes(graph7, gains_di, reference_init_di):
    """The tick p at which the writer toggles signs, 0 for none:
    - tick 11 of the paper's di positions has V = -V_0, but X + X_0 is not
      one constant: none;
    - both K3 starts whose R_c ticks are unreduced or off the lattice: tick 3,
      as the inputs are negated by value whatever the ticks' terms;
    - a lone ns agent (a = 1/2) from (2, 1) reaches (1, -1), R_3 of its
      start, at tick 1, but R_c commutes with the ns loop only for c = 0: it
      is taken at tick 3, the negation of tick 0."""
    k3 = parse_graph(K3)
    k3_gains = GainParams(Fraction(1, 3), Fraction(1, 3))
    unreduced, off_lattice = (
        [AgentState(Fraction(x), Fraction(v)) for x, v in pairs]
        for pairs in (K3_UNREDUCED, K3_OFF_LATTICE)
    )
    lone_ns = NsModel(Fraction(1, 2))
    lone = (parse_graph("n 1"), GainParams(Fraction(0), Fraction(0)), [AgentState(2, 1)])
    for g, gains, init, ns, p, T, centred, taken in [
        (graph7, gains_di, reference_init_di, None, 11, 22, False, 0),
        (k3, k3_gains, unreduced, None, 3, 6, True, 3),
        (k3, k3_gains, off_lattice, None, 3, 6, True, 3),
        (*lone, lone_ns, 1, 6, True, 3),
    ]:
        t = simulate(g, gains, init, 2 * T + 1, ns=ns)
        (X0, V0, D0), (X, V, D) = t.states.data[0], t.states.data[p]
        assert D == D0 and V == [-v for v in V0]
        assert (len({x + y for x, y in zip(X, X0)}) == 1) == centred
        assert t.raw_u.reflected == reference.reflected_half(t) == taken
        assert (tuple(t.states), tuple(t.raw_u), tuple(t.sat_u)) == rollout(
            g, gains, init, 2 * T + 1, ns=ns
        )
        assert trajectory_to_csv(t) == reference.trajectory_to_csv(tuple_copy(t))
        if init is unreduced:
            assert t.states.data[2][2] == 6 and t.states.data[5][2] == 2
        if init is off_lattice:
            assert D0 == 3 and t.states.data[1][2] == 1


def test_reflects_needs_every_condition():
    """R_1 of ([0, 1], [1, 2], 1) on di; each tick that breaks one condition:
    another D, one velocity off, no one constant X + X_0, c != 0 on ns."""
    first = ([0, 1], [1, 2], 1)
    assert dynamics.reflects(first, ([1, 0], [-1, -2], 1), None)
    for tick in [([1, 0], [-1, -2], 2), ([1, 0], [-1, 2], 1), ([1, 1], [-1, -2], 1)]:
        assert not dynamics.reflects(first, tick, None)
    ns = NsModel(Fraction(1, 2))
    assert not dynamics.reflects(first, ([1, 0], [-1, -2], 1), ns)
    assert dynamics.reflects(([1, -1], [1, 2], 1), ([-1, 1], [-1, -2], 1), ns)


def test_reflection_off_the_run_is_written_by_value():
    """A hand-built trajectory whose tick 1 reflects tick 0 but whose raw rows
    are not the loop's (its raw column records no reflection) is written value
    by value: row 1's raw inputs are not row 0's negated."""
    ticks = [([0, 1], [1, 2], 1), ([1, 0], [-1, -2], 1), ([0, 1], [1, 2], 1)]
    raw = [([1, 3], 2), ([5, 7], 2)]
    t = Trajectory(
        None,
        LatticeColumn(ticks, Lattice.decode),
        LatticeColumn(raw, ratios),
        LatticeColumn([(dynamics.clamped(U, E), E) for U, E in raw], ratios),
    )
    assert dynamics.reflects(ticks[0], ticks[1], None)
    assert t.raw_u.reflected == 0
    assert trajectory_to_csv(t) == reference.trajectory_to_csv(tuple_copy(t))
    assert "\n1,1,1,-1,2.5,1\n" in trajectory_to_csv(t)


@pytest.mark.parametrize("name", MIRRORED)
def test_cap_trips_at_the_reference_step_on_mirrored_runs(name, mirrored_cases, monkeypatch):
    """For every cap below the run's widest value, a 2p-step run raises at the
    first step whose reduced state exceeds it, as stepping every tick does:
    in the reflected half, at tick 2p (the start tick) or before."""
    g, gains, init, ns, p = mirrored_cases[name]
    states = rollout(g, gains, init, 2 * p, ns=ns)[0]
    bits = [
        max(max(c.numerator.bit_length(), c.denominator.bit_length()) for s in row for c in (s.x, s.v))
        for row in states
    ]
    tripped = set()
    for cap in range(1, max(bits)):
        k = next((k for k in range(1, 2 * p + 1) if bits[k] > cap), None)
        monkeypatch.setattr(dynamics, "MAX_EXACT_BITS", cap)
        if k is None:
            assert simulate(g, gains, init, 2 * p, ns=ns).steps == 2 * p
            continue
        tripped.add(k)
        assert simulate(g, gains, init, k - 1, ns=ns).steps == k - 1
        with pytest.raises(SimulationOverflowError):
            simulate(g, gains, init, k, ns=ns)
    # the off-centre K3 starts trip inside the reflected half
    if name == "k3-60":
        assert p < max(tripped) < 2 * p
    if name == "k3-90":
        assert 2 * p in tripped


def test_cap_trips_on_the_state_that_closes_the_orbit(
    graph7, gains_di, reference_init_di, monkeypatch
):
    # the di orbit from its step 6, every position shifted by -12 (a common
    # shift leaves every input alone): only the start state needs 11 bits
    init = [
        AgentState(s.x - 12, s.v)
        for s in rollout(graph7, gains_di, reference_init_di, 6)[0][6]
    ]
    states = rollout(graph7, gains_di, init, 22)[0]
    bits = [
        max(max(c.numerator.bit_length(), c.denominator.bit_length()) for s in row for c in (s.x, s.v))
        for row in states
    ]
    assert states[22] == states[0] and bits[0] == 11 and max(bits[1:22]) == 10
    monkeypatch.setattr(dynamics, "MAX_EXACT_BITS", 10)
    for kind in KINDS:
        with kind():
            assert simulate(graph7, gains_di, init, 21).steps == 21
            for steps in (22, 71):
                with pytest.raises(SimulationOverflowError):
                    simulate(graph7, gains_di, init, steps)


# ---------------------------------------------------------------------------
# Two-class ticks: `Lattice.class_step` given the `two_classes` of a tick

#: di, and ns with 2a = 1, 3/5 and -4/7 (R = 1, 5 and 7)
CLASS_MODELS = [None, NsModel(Fraction(1, 2)), NsModel(Fraction(3, 10)), NsModel(Fraction(-2, 7))]


def counted_inputs(monkeypatch):
    """A list that gains an entry at each `Lattice.inputs` call, the CSR path."""
    calls = []
    inputs = Lattice.inputs

    def counting(self, X, V):
        calls.append(1)
        return inputs(self, X, V)

    monkeypatch.setattr(Lattice, "inputs", counting)
    return calls


def cross_weights(g, group):
    """Each agent's weight to the other group, summed from the adjacency lists."""
    return [
        sum((w for j, w in g.adjacency[i] if group[j] != group[i]), Fraction(0))
        for i in range(g.n)
    ]


def class_cases(rng, trials):
    """(kind, graph, gains, ns, group, start, ticks) on random connected graphs of
    3-9 agents split into two random groups, most of them with intra edges.

    `start` is a two-class state, agent 0's group in one state and the other
    group in another, and `ticks` are states to step with the classes of its
    tick.  The kind names how the difference dy of alpha*x + beta*v between the
    two states was drawn: "saturated" drives every agent to |u| >= 1, the least
    cross weight of each group exactly to 1 at r = 1; "one-unsaturated" gives
    the group with the larger least weight |u| >= 1 and leaves an input of the
    other inside (-1, 1); "dy-zero" gives u = 0 to every agent; "small" draws
    dy at random.  Each case also steps the state with one agent moved off its
    group's x, and one moved off its v.
    """
    for trial in range(trials):
        n = rng.randint(3, 9)
        g = random_connected_graph(rng, n)
        group = [0] + [rng.randint(0, 1) for _ in range(n - 1)]
        group[rng.randrange(1, n)] = 1
        gains = GainParams(
            Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.choice([1, 7, 30])),
            Fraction(rng.randint(-30, 30), rng.choice([2, 9, 50])),
        )
        cw = cross_weights(g, group)
        least = [min(c for c, k in zip(cw, group) if k == side) for side in (0, 1)]
        sign = rng.choice([-1, 1])
        draws = [("small", Fraction(rng.randint(-9, 9), rng.randint(1, 40))), ("dy-zero", 0)]
        if min(least) > 0:
            r = rng.choice([1, Fraction(3, 2), 4])
            draws.append(("saturated", sign * r / min(least)))
            if least[0] != least[1]:
                draws.append(("one-unsaturated", sign / max(least)))
        for kind, dy in draws:
            xa, va = (Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in "xv")
            dv = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            dx = (dy - gains.beta * dv) / gains.alpha
            states = (AgentState(xa, va), AgentState(xa + dx, va + dv))
            start = [states[k] for k in group]
            i = rng.randrange(n)
            off_x, off_v = list(start), list(start)
            off_x[i] = AgentState(start[i].x + Fraction(1, 7), start[i].v)
            off_v[i] = AgentState(start[i].x, start[i].v - Fraction(2, 3))
            ns = CLASS_MODELS[trial % len(CLASS_MODELS)]
            yield kind, g, gains, ns, group, start, (start, off_x, off_v)


def test_class_branch_equals_the_csr_step(monkeypatch):
    """A tick has a class record exactly when it is constant on each of two
    groups, and the class step, which sums no inputs, gives the CSR step's
    ((X, V, D), U, E, S) bit for bit exactly when its inputs all saturate, as
    the per-agent `control_inputs` decide it; else it declines."""
    calls = counted_inputs(monkeypatch)
    taken = Counter()
    for kind, g, gains, ns, group, start, ticks in class_cases(random.Random(21), 120):
        lattice = Lattice(g, gains, ns)
        for states in ticks:
            tick = lattice.encode(states)
            classes = lattice.two_classes(*tick[:2])
            two_class = len(set(zip(group, states))) == 2
            assert (classes is not None and classes.group == group) == two_class, kind
            branch = False
            if two_class:
                assert classes.j == group.index(1) and classes.signs.group is classes.group
                calls.clear()
                stepped = lattice.class_step(*tick, classes)
                assert not calls
                branch = stepped is not None
                if branch:
                    assert stepped == lattice.step(*tick)
            saturated = all(abs(u) >= 1 for u in control_inputs(g, gains, states))
            assert branch == (two_class and saturated), kind
            taken[kind if states is start else "off", ns, two_class, branch] += 1
    for ns in CLASS_MODELS:
        assert taken["saturated", ns, True, True] and taken["off", ns, False, False]
        assert taken["one-unsaturated", ns, True, False] and taken["dy-zero", ns, True, False]


def test_two_classes_needs_exactly_two_states(graph7, gains_di):
    """A start tick with one or three distinct states has no classes."""
    lattice = Lattice(graph7, gains_di, None)
    one = [AgentState(Fraction(1, 3), Fraction(2))] * 7
    three = [*one[:6], AgentState(Fraction(1, 3), Fraction(3))]
    three[2] = AgentState(Fraction(0), Fraction(2))
    two = [*one[:6], AgentState(Fraction(1, 3), Fraction(3))]
    assert lattice.two_classes(*lattice.encode(one)[:2]) is None
    assert lattice.two_classes(*lattice.encode(three)[:2]) is None
    classes = lattice.two_classes(*lattice.encode(two)[:2])
    assert classes.group == [0] * 6 + [1] and classes.j == 6 and classes.last == 0


def test_class_runs_equal_the_reference(monkeypatch):
    """Whole runs from two-class starts, and from starts of one and of three
    distinct states, equal the per-agent stepper's.  A start of one or three
    states takes the CSR sums on every tick it steps.  A two-class start takes
    class steps up to the first the class step declines, then the CSR sums to
    its end, each summing the inputs once; some take both."""
    calls = counted_inputs(monkeypatch)
    steps_taken = counted_steps(monkeypatch)
    mixed = 0
    for kind, g, gains, ns, _, start, (_, off, _) in class_cases(random.Random(22), 24):
        for init in (start, off, [start[0]] * g.n):
            calls.clear()
            steps_taken.clear()
            t = simulate(g, gains, init, 12, ns=ns)
            assert (tuple(t.states), tuple(t.raw_u), tuple(t.sat_u)) == rollout(
                g, gains, init, 12, ns=ns
            )
            assert len(calls) == steps_taken.count("csr")
            built = steps_taken.count("class")
            rest = steps_taken[built:]
            assert steps_taken[:built] == ["class"] * built
            if len(set(init)) != 2:
                assert steps_taken == ["csr"] * len(steps_taken)
            else:
                assert not rest or rest == ["tried"] + ["csr"] * (len(rest) - 1)
            mixed += built > 0 and "csr" in rest
    assert mixed


@pytest.fixture(scope="module")
def class_runs(graph7, gains_di):
    """(gains, init, ns) of two-class runs off the orbit on the fixture: the
    synthesized start scaled by 5/4 steps every tick as two classes, on ns
    with a = 3/10 and -2/7 as D widens by 5 or 7 a step, and by 3/2 on di
    the first 16 ticks, after which an input unsaturates."""
    out = {}
    gains_ns, gains_neg = GainParams(Fraction(-1, 2), Fraction(2)), GainParams(Fraction(1, 2), Fraction(-2))
    for name, gains, ns, scale in [
        ("ns-3/10", gains_ns, NsModel(Fraction(3, 10)), Fraction(5, 4)),
        ("ns-neg", gains_neg, NsModel(Fraction(-2, 7)), Fraction(5, 4)),
        ("di", gains_di, None, Fraction(3, 2)),
    ]:
        plan = synthesize_di(graph7, gains) if ns is None else synthesize_ns(graph7, ns, gains)
        out[name] = gains, [AgentState(s.x * scale, s.v * scale) for s in plan.init], ns
    return out


@pytest.mark.parametrize("name", ["ns-3/10", "ns-neg", "di"])
def test_cap_trips_at_the_reference_step_on_class_runs(name, class_runs, graph7, monkeypatch):
    """For every cap below the widest value of a 30-step two-class run, the run
    raises at the first step whose reduced state exceeds it, as stepping each
    agent does."""
    gains, init, ns = class_runs[name]
    calls = counted_inputs(monkeypatch)
    states = rollout(graph7, gains, init, 30, ns=ns)[0]
    assert tuple(simulate(graph7, gains, init, 30, ns=ns).states) == states
    assert len(calls) == (0 if ns else 14)
    bits = [
        max(max(c.numerator.bit_length(), c.denominator.bit_length()) for s in row for c in (s.x, s.v))
        for row in states
    ]
    for cap in range(1, max(bits)):
        k = next((k for k in range(1, 31) if bits[k] > cap), None)
        monkeypatch.setattr(dynamics, "MAX_EXACT_BITS", cap)
        if k is None:
            assert simulate(graph7, gains, init, 30, ns=ns).steps == 30
            continue
        assert simulate(graph7, gains, init, k - 1, ns=ns).steps == k - 1
        with pytest.raises(SimulationOverflowError):
            simulate(graph7, gains, init, k, ns=ns)


@pytest.mark.parametrize("name", ["mirrored", "ns", "halved", "halved-decimal"])
def test_class_branch_is_taken_on_the_orbit_only(name, fixture_runs, graph7, monkeypatch):
    """A synthesized orbit steps every tick as its two classes and never takes
    the CSR sums; its record's prefix is the whole run.  The synthesized di
    start halved (the `offorbit_7` benchmark input) is two-class too, but one
    of its inputs is inside (-1, 1): the class step is tried once, at the
    start, and the CSR sums step every tick of 250.  On the integer kind the
    record's prefix is tick 0 alone; `simulate` steps such a run on the
    decimal kind ("halved-decimal"), which keeps no record."""
    t, plan, ns = fixture_runs["mirrored" if name.startswith("halved") else name]
    init, steps = plan.init, t.steps
    if name.startswith("halved"):
        init, steps = INITS["halved"](init), 250
    assert len(set(init)) == 2
    calls = counted_inputs(monkeypatch)
    steps_taken = counted_steps(monkeypatch)
    with KINDS[name == "halved-decimal"]():
        again = simulate(graph7, plan.gains, init, steps, ns=ns)
    assert len(calls) == (steps if name.startswith("halved") else 0)
    if name == "halved":
        assert steps_taken == ["tried"] + ["csr"] * steps and again.states.classes.last == 0
    elif name == "halved-decimal":
        assert steps_taken == ["tried"] + ["csr"] * steps and again.states.classes is None
        assert again.states.kind is DecimalLattice
    else:
        assert steps_taken == ["class"] * plan.period and again.states.classes.last == steps
    assert (tuple(again.states), tuple(again.raw_u), tuple(again.sat_u)) == rollout(
        graph7, plan.gains, init, steps, ns=ns
    )


# ---------------------------------------------------------------------------
# The class record: the prefix of ticks the class step built from the start


def without_record(t):
    """t with its states in a new column that keeps the run's lattice but carries
    no class record."""
    states = LatticeColumn(t.states.data, t.states.decode)
    states.lattice = t.states.lattice
    return t._replace(states=states)


def expanded(classes, tick):
    """The states of agents 0 and j of a tick, spread over the agents by group."""
    X, V, D = tick
    states = [AgentState(Fraction(X[i], D), Fraction(V[i], D)) for i in (0, classes.j)]
    return tuple(states[k] for k in classes.group)


def class_start(kind, plan, rng):
    """A two-class start on the groups of `plan`'s start: the start itself, it
    scaled by 5/4 or by 1/2 (an input of the halved di orbit is inside (-1, 1),
    so such runs step on the CSR sums), or two drawn states."""
    init = plan.init
    if kind == "drawn":
        a = AgentState(Fraction(rng.randint(-40, 40), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), 4))
        b = AgentState(Fraction(rng.randint(-40, 40), rng.randint(1, 9)), a.v + Fraction(rng.randint(1, 9), 4))
        return [a if s == init[0] else b for s in init]
    scale = {"orbit": 1, "scaled": Fraction(5, 4), "halved": Fraction(1, 2)}[kind]
    return [AgentState(s.x * scale, s.v * scale) for s in init]


def assert_record_holds(t, g, gains, ns):
    """The run equals the per-agent rollout row for row, and its class record's
    prefix, ticks 0..last, is exactly the ticks the class step built from the
    start, each the expansion of its two class states.  Returns `last`."""
    states, raw, sat = rollout(g, gains, t.states[0], t.steps, ns=ns)
    assert (tuple(t.states), tuple(t.raw_u), tuple(t.sat_u)) == (states, raw, sat)
    classes = t.states.classes
    group, last = classes.group, classes.last
    assert group[0] == 0 and classes.j == group.index(1) and 0 <= last <= t.steps

    def class_step(k):
        # the class step takes a tick on the groups whose inputs all saturate
        return len(set(zip(group, states[k]))) == 2 and all(abs(u) >= 1 for u in raw[k])

    for k in range(last + 1):
        assert len(set(zip(group, states[k]))) == 2
        assert expanded(classes, t.states.data[k]) == states[k]
    assert all(class_step(k) for k in range(last))
    # the prefix is maximal: the step from tick last took the CSR sums
    assert last == t.steps or not class_step(last)
    return last


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 8),
    seed=st.integers(0, 2**32 - 1),
    ns=st.sampled_from([None, NsModel(Fraction(1, 2)), NsModel(Fraction(3, 10))]),
    kind=st.sampled_from(["orbit", "scaled", "halved", "drawn"]),
)
def test_class_record_runs_equal_the_reference(n, seed, ns, kind):
    """Whole runs from two-class starts, on the orbit and off it, on di and on
    ns with 2a = 1 and the widening 3/5, equal the per-agent rollout row for
    row; the record names the class-built ticks; the CSV, with the record and
    without, is the reference writer's; and the inverted period and the checks
    give their `reference` bodies' verdicts."""
    rng = random.Random(seed)
    # weights of at least 1/2 pass the ns gate for both a
    g = WeightedGraph.from_edges(
        n, random_connected_edges(rng, n, lambda rng: Fraction(rng.randint(5, 30), 10))
    )
    if ns is None:
        gains = GainParams(Fraction(2, 5), Fraction(21, 50))
        plan = synthesize_di(g, gains)
    else:
        gains = GainParams(Fraction(-1, 2), Fraction(2))
        plan = synthesize_ns(g, ns, gains)
    init = class_start(kind, plan, rng)
    steps = 2 * plan.period + 3
    with integer_kind():
        t = simulate(g, gains, init, steps, ns=ns)
    last = assert_record_holds(t, g, gains, ns)
    if kind == "orbit":
        assert last == t.steps
    text = trajectory_to_csv(t)
    assert text == trajectory_to_csv(without_record(t)) == reference.trajectory_to_csv(tuple_copy(t))
    assert_paths_agree(t, g, gains, plan._replace(init=tuple(init)), plan.period, ns)
    # `simulate` steps on the decimal kind, with no record, a run whose first
    # step is no class step, and gives the same rows and CSV
    u = simulate(g, gains, init, steps, ns=ns)
    # the weights and gains are terminating decimals, and so is every start
    # but a drawn one over 7
    decimal = Lattice.kind_of([c for s in init for c in s]) is DecimalLattice
    assert (u.states.kind is DecimalLattice) == (u.states.classes is None) == (decimal and last == 0)
    assert u == t and trajectory_to_csv(u) == text
    assert_paths_agree(u, g, gains, plan._replace(init=tuple(init)), plan.period, ns)


@pytest.mark.parametrize("name", ["ns-3/10", "ns-neg", "di"])
def test_class_record_of_runs_that_leave_their_groups(name, class_runs, graph7):
    """Two-class runs off the orbit record every tick they step as two classes,
    and the prefix of a run that leaves its groups ends there, as the CSR sums
    step it; its CSV is the same without the record."""
    gains, init, ns = class_runs[name]
    t = simulate(graph7, gains, init, 30, ns=ns)
    assert assert_record_holds(t, graph7, gains, ns) == (30 if ns else 16)
    assert trajectory_to_csv(t) == trajectory_to_csv(without_record(t))


def test_record_of_a_loop_closed_by_the_csr_sums():
    """A two-class start whose loop closes on steps of the CSR sums records its
    start tick alone, though every sixth tick repeats it."""
    g = WeightedGraph.from_edges(2, [(0, 1, Fraction(1))])
    zero = GainParams(Fraction(0), Fraction(0))
    ns = NsModel(Fraction(1, 2))  # x' = v, v' = -x + v, of period 6 without inputs
    init = [AgentState(Fraction(1), Fraction(0)), AgentState(Fraction(0), Fraction(1))]
    for kind in KINDS:
        with kind():
            t = simulate(g, zero, init, 19, ns=ns)
        assert t.states.data[6] is t.states.data[12] is t.states.data[0]
        if t.states.kind is Lattice:
            assert assert_record_holds(t, g, zero, ns) == 0
    # the decimal kind, on which `simulate` steps the run, keeps no record
    assert t.states.kind is DecimalLattice and t.states.classes is None
    assert (tuple(t.states), tuple(t.raw_u), tuple(t.sat_u)) == rollout(g, zero, init, 19, ns=ns)


def test_record_stops_at_the_first_csr_step(monkeypatch):
    """A 2-agent ns run whose step to tick 28 has an unsaturated input, and whose
    tick 28 is on its groups with every input saturated again: the record's
    prefix ends at tick 27, the class step is not tried after it, and the
    rows, the CSV and every check, the inverted period across the prefix's
    end too, equal the `reference` ones."""
    g = WeightedGraph.from_edges(2, [(0, 1, Fraction(4, 5))])
    ns = NsModel(Fraction(1, 2))
    gains = GainParams(Fraction(-1, 2), Fraction(2))
    init = [AgentState(Fraction(10), Fraction(0)), AgentState(Fraction(29), Fraction(3, 2))]
    steps_taken = counted_steps(monkeypatch)
    t = simulate(g, gains, init, 40, ns=ns)
    assert assert_record_holds(t, g, gains, ns) == 27
    assert steps_taken == ["class"] * 27 + ["tried"] + ["csr"] * 13
    lattice, tick = t.states.lattice, t.states.data[28]
    assert lattice.class_step(*tick, lattice.two_classes(*tick[:2])) == lattice.step(*tick)
    text = trajectory_to_csv(t)
    assert text == trajectory_to_csv(without_record(t)) == reference.trajectory_to_csv(tuple_copy(t))
    plan = synthesize_ns(g, ns, gains)._replace(init=tuple(init))
    assert_paths_agree(t, g, gains, plan, plan.period, ns)
    for T in (27, 28, 29, 40):
        assert outcome(backward_states, t, g, gains, T) == outcome(
            reference.backward_states, tuple_copy(t), g, gains, T
        )


def test_runs_of_other_starts_carry_no_record(fixture_runs, graph7, gains_di):
    """Only a two-class start records: a start of seven states, a run of no
    steps, a float run and the columns the CSV reader builds carry none."""
    t, plan, _ = fixture_runs["di"]
    assert len(set(plan.init)) > 2 and t.states.classes is None
    mirrored = fixture_runs["mirrored"][0]
    assert mirrored.states.classes is not None
    assert mirrored.raw_u.classes is mirrored.sat_u.classes is None
    assert simulate(graph7, gains_di, mirrored.states[0], 0).states.classes is None
    floats = [AgentState(float(s.x), float(s.v)) for s in mirrored.states[0]]
    assert simulate(graph7, gains_di, floats, 4).states.classes is None
    read = trajectory_from_csv(trajectory_to_csv(mirrored), None, "exact")
    assert read.states.classes is None


@pytest.mark.parametrize("name", ["mirrored", "ns"])
def test_step_loop_reads_the_record(name, fixture_runs, graph7, monkeypatch):
    """On the orbit only the start tick is tested against the groups, every
    step is a class step, no input row is clamped, and the cap is checked on
    two states per tick."""
    t, plan, ns = fixture_runs[name]
    tested, checked = [], []
    two_classes, check = Lattice.two_classes, Lattice.check

    def counting_groups(self, *args):
        tested.append(1)
        return two_classes(self, *args)

    def counting_check(X, V, D):
        checked.append(len(X))
        return check(X, V, D)

    def refuse(*args):
        raise AssertionError("a class step's row was clamped")

    monkeypatch.setattr(Lattice, "two_classes", counting_groups)
    monkeypatch.setattr(Lattice, "check", staticmethod(counting_check))
    monkeypatch.setattr(dynamics, "clamped", refuse)
    steps_taken = counted_steps(monkeypatch)
    again = simulate(graph7, plan.gains, plan.init, t.steps, ns=ns)
    # `two_classes` tests the start tick; the run closes at tick T
    assert tested == [1] and checked == [2] * plan.period
    assert steps_taken == ["class"] * plan.period
    assert (tuple(again.states), tuple(again.raw_u), tuple(again.sat_u)) == (
        tuple(t.states), tuple(t.raw_u), tuple(t.sat_u)
    )


@pytest.mark.parametrize("name", ["mirrored", "ns"])
def test_inverted_period_unsteps_class_ticks_as_two_states(name, fixture_runs, graph7, monkeypatch):
    """On its own run each backward step unsteps two class states; without the
    record, and on a lattice rebuilt for gains equal to the run's but another
    object, which has no record, each unsteps every agent, to the same start row."""
    t, plan, _ = fixture_runs[name]
    sizes = []
    unstep = Lattice.unstep

    def counting(self, X, *args):
        sizes.append(len(X))
        return unstep(self, X, *args)

    monkeypatch.setattr(Lattice, "unstep", counting)
    assert backward_states(t, graph7, plan.gains, plan.period) == list(t.states[0])
    assert sizes == [2] * plan.period
    for run, gains in ((without_record(t), plan.gains), (t, GainParams(*plan.gains))):
        sizes.clear()
        assert backward_states(run, graph7, gains, plan.period) == list(t.states[0])
        assert sizes == [graph7.n] * plan.period


class UnreadColumn(LatticeColumn):
    """A raw-input column of `steps` rows of `kind` whose rows fail the test when read."""

    __slots__ = ("_kind", "_steps")

    def __init__(self, kind, steps) -> None:
        self._kind, self._steps = kind, steps

    def __len__(self) -> int:
        return self._steps

    @property
    def kind(self):
        return self._kind

    @property
    def data(self):
        pytest.fail("a raw-input row was read")


@pytest.mark.parametrize("name", ["mirrored", "ns", "ns-3/10"])
def test_inverted_period_reads_no_raw_row_on_the_class_path(
    name, class_orbits, graph7, monkeypatch
):
    """The class path decides each class step's saturated row from tick k's two
    class states, so a run whose raw-input column cannot be read still takes
    all T class steps and computes no inputs."""
    t, plan = class_orbits[name]
    sizes, computed = [], []
    unstep, inputs = Lattice.unstep, Lattice.inputs

    def counting_unstep(self, X, *args):
        sizes.append(len(X))
        return unstep(self, X, *args)

    def counting_inputs(self, X, V):
        computed.append(X)
        return inputs(self, X, V)

    monkeypatch.setattr(Lattice, "unstep", counting_unstep)
    monkeypatch.setattr(Lattice, "inputs", counting_inputs)
    unread = t._replace(raw_u=UnreadColumn(t.states.kind, t.steps))
    assert backward_states(unread, graph7, plan.gains, plan.period) == list(t.states[0])
    assert sizes == [2] * plan.period and not computed


def test_class_path_tests_that_every_input_saturates(class_orbits, graph7):
    """The synthesized di orbit checked under gains of a twentieth of its own,
    with the same denominators, on a lattice and class record of those gains:
    its rows are group-signed and its class states unstep along them, but the
    controller at tick T-1 saturates no input, so the inversion leaves the
    class path and raises as agent by agent."""
    t, plan = class_orbits["mirrored"]
    T = plan.period
    weak = GainParams(Fraction(1, 50), Fraction(1, 50))
    lattice = Lattice(graph7, weak, None)
    assert lattice.K == t.states.lattice.K
    states = LatticeColumn(t.states.data, t.states.decode)
    states.lattice = lattice
    states.classes = lattice.two_classes(*t.states.data[0][:2])._replace(last=T)
    forged = t._replace(states=states)
    got = outcome(backward_states, forged, graph7, weak, T)
    assert got[0] == "BackwardExtensionError" and "at time -1," in got[1]
    assert got == outcome(reference.backward_states, tuple_copy(forged), graph7, weak, T)


def sat_edits(t, k, i):
    """Saturated rows that replace row k of t: agent i's input negated, the
    whole row negated, every agent given agent 0's sign, so that the other
    group takes its sign, and the row over twice its denominator (the same
    values)."""
    S, Es = t.sat_u.data[k]
    one = list(S)
    one[i] = -one[i]
    return [
        (one, Es),
        ([-s for s in S], Es),
        ([S[0]] * len(S), Es),
        ([2 * s for s in S], 2 * Es),
    ]


@pytest.fixture(scope="module")
def class_orbits(fixture_runs, graph7, gains_ns):
    """(trajectory, plan) of the synthesized di and ns orbits and of the ns
    orbit with a = 3/10, whose class steps widen D by 5 and reduce it again."""
    ns = NsModel(Fraction(3, 10))
    plan = synthesize_ns(graph7, ns, gains_ns)
    return {
        "mirrored": fixture_runs["mirrored"][:2],
        "ns": fixture_runs["ns"][:2],
        "ns-3/10": (simulate(graph7, gains_ns, plan.init, 8, ns=ns), plan),
    }


@pytest.mark.parametrize("name", ["mirrored", "ns", "ns-3/10"])
def test_tampered_sat_row_fails_as_per_agent(name, class_orbits, graph7):
    """A recorded run whose saturated row k is changed, in one agent, in all,
    or in one group flipped to the other's sign, is inverted as without the
    record and as agent by agent: it raises at the same step and agent, and a
    row over another denominator passes."""
    t, plan = class_orbits[name]
    T = plan.period
    rng = random.Random(25)
    for k in range(T):
        for row in sat_edits(t, k, rng.randrange(t.n)):
            data = list(t.sat_u.data)
            data[k] = row
            bad = t._replace(sat_u=LatticeColumn(data, ratios))
            assert bad.states.classes is t.states.classes
            got = outcome(backward_states, bad, graph7, plan.gains, T)
            assert got == outcome(backward_states, without_record(bad), graph7, plan.gains, T)
            assert got == outcome(reference.backward_states, tuple_copy(bad), graph7, plan.gains, T)
            assert (got == list(t.states[0])) == (row[1] != t.sat_u.data[k][1])


# ---------------------------------------------------------------------------
# Shared class weights: graphs whose agents share their signed weights c_i


def one_weight_graph(n, pairs):
    """The graph on n agents with an edge of weight 1 on each 0-based pair."""
    one = Fraction(1)
    return WeightedGraph.from_edges(n, [(i, j, one) for i, j in pairs])


#: every weight 1: on the 12-ring each c_i is +-2 (2 slots), on the 4x5 grid
#: +-2, +-3 or +-4 (6 slots)
SHARED_WEIGHTS = {
    "ring": one_weight_graph(12, [(i, (i + 1) % 12) for i in range(12)]),
    "grid": one_weight_graph(
        20, [(i, i + 1) for i in range(20) if i % 5 < 4] + [(i, i + 5) for i in range(15)]
    ),
}


@pytest.fixture(scope="module")
def shared_weight_runs(gains_di, gains_ns, ns_model):
    """(trajectory, graph, plan, ns) on each graph of `SHARED_WEIGHTS` and each
    model: the synthesized orbit over 2T + 3 steps ("-orbit"), whose rows p..2p-1
    reflect rows 0..p-1, and a two-class start that leaves the class path at
    tick 7 ("-off"): the orbit's start scaled by 5/4 on di, two drawn states
    on ns."""
    runs = {}
    for name, g in SHARED_WEIGHTS.items():
        for model, gains, ns in (("di", gains_di, None), ("ns", gains_ns, ns_model)):
            plan = synthesize_di(g, gains) if ns is None else synthesize_ns(g, ns, gains)
            if ns is None:
                off = [AgentState(s.x * Fraction(5, 4), s.v * Fraction(5, 4)) for s in plan.init]
            else:
                a, b = AgentState(Fraction(2), Fraction(-5, 4)), AgentState(Fraction(-3, 4), Fraction(2))
                off = [a if s == plan.init[0] else b for s in plan.init]
            for kind, init in (("orbit", plan.init), ("off", off)):
                t = simulate(g, gains, init, 2 * plan.period + 3, ns=ns)
                runs[f"{name}-{model}-{kind}"] = (t, g, plan._replace(init=tuple(init)), ns)
    return runs


@pytest.mark.parametrize(
    "name", [f"{g}-{m}-{k}" for g in SHARED_WEIGHTS for m in ("di", "ns") for k in ("orbit", "off")]
)
def test_shared_weight_runs_agree(name, shared_weight_runs):
    """Runs whose class rows hold a value per slot: the CSV, with the record and
    without, is the reference writer's, and so is every edited copy's, a raw
    row of a class step edited under the states column that keeps its record
    too, on one agent (no longer its slots' spread) or on all (still one)."""
    t, g, plan, ns = shared_weight_runs[name]
    classes = t.states.classes
    assert len(set(classes.signed)) == (2 if name.startswith("ring") else 6)
    if name.endswith("orbit"):
        assert classes.last == t.steps and t.raw_u.reflected == plan.period // 2
    else:
        assert classes.last == 7 < t.steps
    text = trajectory_to_csv(t)
    assert text == trajectory_to_csv(without_record(t)) == reference.trajectory_to_csv(tuple_copy(t))
    assert_paths_agree(t, g, plan.gains, plan, plan.period, ns)
    assert_edits_agree(t, g, plan.gains, plan, plan.period, ns, random.Random(name))
    for edit in (at(0, lambda u: u + Fraction(1, 10)), lambda row: [2 * u for u in row]):
        bad = edited(t, "raw_u", 1, edit)
        own = t._replace(raw_u=lattice_copy(bad).raw_u)
        assert own.states.classes is classes
        assert trajectory_to_csv(own) == reference.trajectory_to_csv(bad) != text


@pytest.mark.parametrize("model", ["di", "ns"])
def test_writer_formats_a_class_row_per_slot(model, shared_weight_runs, monkeypatch):
    """The values each step of the ring's orbit formats: a class-built tick its
    two class states' x and v (4), a stepped class row one u_raw value per
    slot (2), a reflected row none, a repeated row nothing; and a raw row
    that is not its slots' spread, under the states column that keeps its
    record, formats each of the n = 12 agents' values."""
    t, _, plan, _ = shared_weight_runs[f"ring-{model}-orbit"]
    sizes = []
    texts = Lattice.texts
    monkeypatch.setattr(Lattice, "texts", staticmethod(lambda N, D: sizes.append(len(N)) or texts(N, D)))

    def per_step(t):
        steps = []
        for _ in _csv_pieces(t):
            steps.append(sizes[:])
            sizes.clear()
        return steps

    T = plan.period
    p = t.raw_u.reflected
    assert p == T // 2 and t.steps == 2 * T + 3
    # rows T.. repeat rows 0..; the last tick has no inputs
    assert per_step(t) == [[4, 2]] * p + [[4]] * p + [[]] * (T + 3) + [[4]]
    bad = edited(t, "raw_u", 1, at(0, lambda u: u + Fraction(1, 10)))
    own = t._replace(raw_u=lattice_copy(bad).raw_u)
    # the new column's rows are its own objects, and record no reflection
    expected = [[4, 2]] * (2 * T + 3) + [[4]]
    expected[1] = [4, 12]
    assert per_step(own) == expected


# ---------------------------------------------------------------------------
# Float runs: the `FloatLattice` against the per-agent stepper


#: di, and ns with a = 1/2, 0.3, -2/7 and the irrational cos(pi/4)
FLOAT_MODELS = [None, 0.5, 0.3, -2 / 7, math.sqrt(2) / 2]


def float_start(kind, plan, rng):
    """The synthesized start; it scaled by 5/4; random values; or consensus at
    zero with one agent at (-0.0, -0.0), whose first tick equals it under `==`
    but holds +0.0, so the run must not close there."""
    init = list(plan.init)
    if kind == "scaled":
        return [AgentState(s.x * 1.25, s.v * 1.25) for s in init]
    if kind == "random":
        return [AgentState(rng.uniform(-9, 9), rng.uniform(-3, 3)) for _ in init]
    if kind == "negative-zero":
        zeros = [AgentState(0.0, 0.0)] * len(init)
        zeros[rng.randrange(len(init))] = AgentState(-0.0, -0.0)
        return zeros
    return init


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 9),
    seed=st.integers(0, 2**32 - 1),
    a=st.sampled_from(FLOAT_MODELS),
    start=st.sampled_from(["orbit", "scaled", "random", "negative-zero"]),
)
def test_float_loop_is_the_per_agent_stepper(n, seed, a, start):
    """On random float graphs the float loop gives every state, raw and
    saturated value of the per-agent stepper bit for bit (by `repr`), the
    writer its CSV, and each check the verdict of its `reference` body."""
    rng = random.Random(seed)
    g = WeightedGraph.from_edges(n, random_connected_edges(rng, n, float_weight))
    ns = None if a is None else NsModel(a)
    if ns is None:
        gains = GainParams(0.4, 0.42)
        plan = synthesize_di(g, gains)
    else:
        gains = GainParams(-0.5, 2.0) if a > 0 else GainParams(0.5, -2.0)
        plan = synthesize_ns(g, ns, gains)
    init = float_start(start, plan, rng)
    steps = 2 * plan.period + 3
    t = simulate(g, gains, init, steps, ns=ns)
    assert type(t.states.lattice) is FloatLattice
    ref = reference.simulate(g, gains, init, steps, ns=ns)
    for ours, theirs in zip((t.states, t.raw_u, t.sat_u), (ref.states, ref.raw_u, ref.sat_u)):
        assert list(map(repr, ours)) == list(map(repr, theirs))
    assert trajectory_to_csv(t) == reference.trajectory_to_csv(ref)
    if start == "negative-zero":
        assert t.states.data[1] == t.states.data[0] and t.states.data[1] is not t.states.data[0]
    assert_paths_agree(t, g, gains, plan._replace(init=tuple(init)), plan.period, ns)
