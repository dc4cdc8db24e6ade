"""Lattice-backed trajectories against their tuple copies.

An exact `simulate` returns `LatticeColumn`s, and the checks take an integer
path on them; a tuple column, such as a CSV read returns, takes the
per-agent scalar path.  Both must give the same results and raise the same
errors.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import pytest

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
    _trajectory_consistent,
    main,
    plan_from_text,
    trajectory_from_csv,
    trajectory_to_csv,
)
from satorbits.dynamics import (
    Lattice,
    LatticeColumn,
    SimulationOverflowError,
    Trajectory,
    ratio_row,
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
from test_dynamics import reference_rollout
from test_graphs import random_connected_graph

GRAPH = str(fixture_path("graph7.txt"))
DI_CFG = str(fixture_path("di.cfg"))

#: sha256 of `trajectory_to_csv` on the 7-agent fixture, taken from the
#: Fraction-column writer: di on its orbit (44 steps), ns on its orbit
#: (8 steps), and di from the halved orbit state (250 steps)
CSV_SHA256 = {
    "di": "43ba1b9b8b45d36d3ffd2918359251039b15ae2617a0507cd5fd6b6b9b866b9c",
    "ns": "21693bb2dff5ae350b2446e1683af8d4d6a61c53d81ef97311d2c7add201dc2e",
    "halved": "2d8f04c27b11155239b029ffc50da4a827ba7c132dd9421c592848ed9fbabc31",
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


def tuple_copy(t):
    return t._replace(states=tuple(t.states), raw_u=tuple(t.raw_u), sat_u=tuple(t.sat_u))


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # both paths must fail alike
        return type(exc).__name__, str(exc)


def all_checks(t, g, gains, plan, T, ns):
    """Every check that has an integer path, plus the backward check they share."""
    return {
        "periodicity": outcome(check_periodicity, t, T, graph=g, gains=gains),
        "backward": outcome(backward_states, t, g, gains, T),
        "pattern": outcome(check_pattern, t, plan.partition, plan.pattern),
        "oracle": outcome(oracle_check_di, t, plan),
        "minimal_period": outcome(
            minimal_period, g, gains, t.states[0], t.steps, ns=ns, rollout=t
        ),
        "minimal_period_T": outcome(
            minimal_period, g, gains, t.states[0], T, ns=ns, rollout=t
        ),
        "csv": outcome(trajectory_to_csv, t),
        "consistent": outcome(lambda: _trajectory_consistent(t, g, gains)[0]),
    }


def assert_paths_agree(t, g, gains, plan, T, ns):
    assert isinstance(t.states, LatticeColumn)
    assert all(isinstance(c, LatticeColumn) for c in (t.raw_u, t.sat_u))
    assert all_checks(t, g, gains, plan, T, ns) == all_checks(
        tuple_copy(t), g, gains, plan, T, ns
    )


def lattice_copy(t):
    """The exact trajectory t with its rows rebuilt as lattice columns: each
    state row by `Lattice.encode`, each input row by `ratio_row` over the lcm
    of its denominators, and no lattice kept for the checks to reuse."""

    def inputs(rows):
        pairs = ([(u.numerator, u.denominator) for u in row] for row in rows)
        return LatticeColumn([ratio_row(row) for row in pairs], ratios)

    return t._replace(
        states=LatticeColumn([Lattice.encode(row) for row in t.states], Lattice.decode),
        raw_u=inputs(t.raw_u),
        sat_u=inputs(t.sat_u),
        lattice=None,
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


def one_value_edits(t, T, rng):
    """(column, step, row edit) for each way the checks must notice a change."""
    k, k_in = rng.randrange(min(T, t.steps) + 1), rng.randrange(min(T, t.steps))
    i = rng.randrange(t.n)
    third = Fraction(1, 3)
    return [
        ("states", k, at(i, lambda s: AgentState(s.x + third, s.v))),
        ("states", k, at(i, lambda s: AgentState(s.x, s.v + third))),
        # the same numerators over twice the denominator
        ("states", T, lambda row: [AgentState(s.x / 2, s.v / 2) for s in row]),
        ("raw_u", k_in, at(i, lambda u: u + third)),
        # exactly on the pattern's bound, which u >= 1 / u <= -1 admits
        ("raw_u", k_in, at(i, lambda u: 1 if u > 0 else -1)),
        ("sat_u", k_in, at(i, lambda u: u + third)),
    ]


def assert_edits_agree(t, g, gains, plan, T, ns, rng):
    """Each edit, rebuilt as lattice columns, agrees with its tuple form."""
    for column, k, edit in one_value_edits(t, T, rng):
        bad = edited(t, column, k, edit)
        lattice = lattice_copy(bad)
        assert tuple_copy(lattice) == bad
        assert_paths_agree(lattice, g, gains, plan, T, ns)


def plan_for(g, gains, t, half_period):
    return OrbitPlan(
        model=t.model,
        a=t.a,
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
    """(trajectory, plan, ns) for the di.cfg orbit, its halving and the ns orbit."""
    di = synthesize_di(graph7, gains_di)._replace(init=reference_init_di)
    ns = synthesize_ns(graph7, ns_model, gains_ns)
    halved = di._replace(init=tuple(AgentState(s.x / 2, s.v / 2) for s in di.init))
    return {
        "di": (simulate(graph7, gains_di, di.init, 44), di, None),
        "ns": (simulate(graph7, gains_ns, ns.init, 8, ns=ns_model), ns, ns_model),
        "halved": (simulate(graph7, gains_di, halved.init, 250), halved, None),
    }


@pytest.mark.parametrize("name", ["di", "ns", "halved"])
def test_fixture_runs_agree(name, fixture_runs, graph7):
    t, plan, ns = fixture_runs[name]
    assert_paths_agree(t, graph7, plan.gains, plan, plan.period, ns)
    assert_edits_agree(t, graph7, plan.gains, plan, plan.period, ns, random.Random(name))
    assert_paths_agree(lattice_copy(t), graph7, plan.gains, plan, plan.period, ns)


@pytest.mark.parametrize("name", ["di", "ns", "halved"])
def test_tuple_columns_take_the_scalar_path(name, fixture_runs, graph7, monkeypatch):
    """Tuple columns are checked per agent, lattice columns invert on the lattice."""
    t, plan, _ = fixture_runs[name]
    T = plan.period
    calls = []
    unstep = Lattice.unstep

    def counting(self, *args):
        calls.append(args)
        return unstep(self, *args)

    def checks(traj):
        return (
            outcome(check_periodicity, traj, T, graph=graph7, gains=plan.gains),
            outcome(backward_states, traj, graph7, plan.gains, T),
            outcome(oracle_check_di, traj, plan),
        )

    monkeypatch.setattr(Lattice, "unstep", counting)
    expected = checks(t)
    if name == "halved":
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
    monkeypatch.setattr(Lattice, "unstep", refuse)
    assert checks(tuple_copy(t)) == expected and not calls


@pytest.mark.parametrize("name", ["di", "ns"])
def test_inverted_period_compares_ticks(name, fixture_runs, graph7, monkeypatch):
    """On a lattice run no state is encoded, decoded or compared as `AgentState`s."""
    t, plan, _ = fixture_runs[name]

    def refuse(*args):
        raise AssertionError("a state was encoded, decoded or compared")

    monkeypatch.setattr(Lattice, "encode", staticmethod(refuse))
    monkeypatch.setattr(Lattice, "decode", staticmethod(refuse))
    monkeypatch.setattr(AgentState, "__eq__", refuse)
    assert check_periodicity(t, plan.period, graph=graph7, gains=plan.gains) is True
    before = backward_states(t, graph7, plan.gains, plan.period)
    assert all(p is q for p, q in zip(before, t.states[0], strict=True))


def test_on_orbit_checks_pass_on_both_paths(fixture_runs, graph7):
    t, plan, ns = fixture_runs["di"]
    checks = all_checks(t, graph7, plan.gains, plan, plan.period, ns)
    assert checks["periodicity"] is True and checks["oracle"] is True
    assert checks["pattern"].ok and checks["minimal_period"] == 22
    assert checks["consistent"] is None


@pytest.mark.parametrize("name", ["di", "ns", "halved"])
def test_csv_bytes_unchanged(name, fixture_runs):
    text = trajectory_to_csv(fixture_runs[name][0])
    assert hashlib.sha256(text.encode()).hexdigest() == CSV_SHA256[name]


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

    def test_replaced_column_is_read_as_tuples(self, t, graph7, gains_di, partition7):
        # a tuple column put in place of a lattice one is what every check reads
        bad = edited(t, "raw_u", 1, at(2, lambda u: u + 40))
        mixed = t._replace(raw_u=bad.raw_u)
        assert isinstance(mixed.states, LatticeColumn)
        report = check_pattern(mixed, partition7, PatternSpec(2))
        assert (1, 2, t.raw_u[1][2] + 40) in report.violations
        assert _trajectory_consistent(mixed, graph7, gains_di)[0] == {"step": 1, "agent": 3}
        assert trajectory_to_csv(mixed) == trajectory_to_csv(bad)

    def test_writer_reads_each_input_over_its_own_denominator(self):
        states = LatticeColumn([([1, 2], [0, 0], 1)] * 2, Lattice.decode)
        t = Trajectory(
            "di",
            None,
            states,
            LatticeColumn([([5, 20], 10)], ratios),
            LatticeColumn([([5, 100], 100)], ratios),
        )
        text = trajectory_to_csv(t)
        assert text.splitlines()[1:3] == ["0,1,1,0,0.5,0.05", "0,2,2,0,2,1"]
        assert text == trajectory_to_csv(tuple_copy(t))

    def test_float_runs_keep_tuples(self):
        g = parse_graph(fixture_path("graph7.txt").read_text(), mode="float")
        t = simulate(g, GainParams(0.4, 0.42), [AgentState(float(i), 0.0) for i in range(7)], 3)
        assert all(type(c) is tuple for c in (t.states, t.raw_u, t.sat_u))


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
        """The reader returns the tuple copy of the run that wrote the CSV."""
        for t, _, _ in fixture_runs.values():
            read = trajectory_from_csv(trajectory_to_csv(t), t.model, t.a, "exact")
            assert read == tuple_copy(t)
            assert all(type(c) is tuple for c in (read.states, read.raw_u, read.sat_u))

    def test_reader_ticks_on_random_loops(self):
        for g, gains, init, ns, _ in random_cases():
            t = simulate(g, gains, init, 12, ns=ns)
            read = trajectory_from_csv(trajectory_to_csv(t), t.model, t.a, "exact")
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
        assert trajectory_from_csv(respelled, "di", None, "exact") == tuple_copy(t)
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
        out[name] = init, reference_rollout(graph7, gains_di, init, 250)[0]
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
    assert simulate(graph7, gains_di, init, k - 1).steps == k - 1
    with pytest.raises(SimulationOverflowError):
        simulate(graph7, gains_di, init, k)


@pytest.mark.parametrize("name", ["di", "ns", "halved"])
def test_closed_orbit_is_stepped_once(
    name, graph7, gains_di, gains_ns, ns_model, reference_init_di, monkeypatch
):
    """Once the state returns to its start, the rows repeat without stepping."""
    if name == "ns":
        gains, init, ns, T = gains_ns, synthesize_ns(graph7, ns_model, gains_ns).init, ns_model, 4
    else:
        gains, init, ns, T = gains_di, reference_init_di, None, 22
    if name == "halved":
        init = INITS["halved"](init)
    steps_taken = []
    step = Lattice.step

    def counting(self, *tick):
        steps_taken.append(1)
        return step(self, *tick)

    monkeypatch.setattr(Lattice, "step", counting)
    for steps in (2 * T, 3 * T + 5):
        steps_taken.clear()
        t = simulate(graph7, gains, init, steps, ns=ns)
        # off the orbit every step is taken
        assert len(steps_taken) == (steps if name == "halved" else T)
        expected = reference_rollout(graph7, gains, init, steps, ns=ns)
        assert (tuple(t.states), tuple(t.raw_u), tuple(t.sat_u)) == expected


def test_cap_trips_on_the_state_that_closes_the_orbit(
    graph7, gains_di, reference_init_di, monkeypatch
):
    # the di orbit from its step 6, every position shifted by -12 (a common
    # shift leaves every input alone): only the start state needs 11 bits
    init = [
        AgentState(s.x - 12, s.v)
        for s in reference_rollout(graph7, gains_di, reference_init_di, 6)[0][6]
    ]
    states = reference_rollout(graph7, gains_di, init, 22)[0]
    bits = [
        max(max(c.numerator.bit_length(), c.denominator.bit_length()) for s in row for c in (s.x, s.v))
        for row in states
    ]
    assert states[22] == states[0] and bits[0] == 11 and max(bits[1:22]) == 10
    monkeypatch.setattr(dynamics, "MAX_EXACT_BITS", 10)
    assert simulate(graph7, gains_di, init, 21).steps == 21
    for steps in (22, 71):
        with pytest.raises(SimulationOverflowError):
            simulate(graph7, gains_di, init, steps)
