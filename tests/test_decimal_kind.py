"""Runs of terminating decimals on the `DecimalLattice`.

Its rows hold `Decimal`s, stepped, written and compared in base ten in the
exact context `scalars.EXACT`, whatever context the caller has set.  Every
run must equal the per-agent `Fraction` reference and the same run on the
integer `Lattice`, row for row, byte for byte and verdict for verdict.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import sys
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from reference import decimal_kind, integer_kind, tuple_copy
from satorbits import (
    AgentState,
    GainParams,
    NsModel,
    fixture_path,
    simulate,
    synthesize_di,
    synthesize_ns,
    verification_report,
)
from satorbits import cli, dynamics
from satorbits.cli import (
    EXIT_OK,
    EXIT_USAGE,
    CliError,
    _csv_pieces,
    _is_csv_of,
    main,
    plan_to_text,
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
    _decimal_digits,
)
from satorbits.graphs import WeightedGraph
from satorbits.scalars import (
    EXACT,
    ScalarFormatError,
    _plain_decimal,
    decimal_texts,
    parse_scalar,
)
from satorbits.verify import backward_states, check_periodicity, oracle_check_di
from test_graphs import random_connected_edges
from test_lattice_paths import assert_paths_agree, outcome

GRAPH = str(fixture_path("graph7.txt"))
DI_CFG = str(fixture_path("di.cfg"))
NS_CFG = str(fixture_path("ns.cfg"))

#: the contexts a caller may have set: 3 digits, and 28 with no trap, under
#: which an inexact result would round silently
HOSTILE = [{"prec": 3}, {"prec": 28, "traps": []}]


def halved(init):
    return tuple(AgentState(s.x / 2, s.v / 2) for s in init)


def report_json(g, plan, t):
    """The `verify` JSON of the checks on t, or what they raised."""
    return outcome(lambda: json.dumps(verification_report(g, plan, t, rollout=t), default=str))


# ---------------------------------------------------------------------------
# which runs step on the decimal kind


def test_simulate_picks_the_decimal_kind_off_the_class_path(graph7, gains_di, reference_init_di):
    """A run of terminating decimals whose first step is no class step steps
    on the decimal kind, with no record; the synthesized orbit, whose first
    step is one, and every run of a p/q value, step on integers."""
    orbit = synthesize_di(graph7, gains_di).init
    third = (AgentState(Fraction(1, 3), Fraction(0)),) + orbit[1:]
    cases = [
        (reference_init_di, DecimalLattice),
        (halved(orbit), DecimalLattice),
        (orbit, Lattice),
        (third, Lattice),
    ]
    for init, kind in cases:
        t = simulate(graph7, gains_di, init, 30)
        assert t.states.kind is t.raw_u.kind is t.sat_u.kind is kind
        assert type(t.states.lattice) is kind
        assert (t.states.classes is None) == (kind is DecimalLattice or init is third)
        X, V, D = t.states.data[30]
        if kind is DecimalLattice:
            assert D == 1 and type(D) is Decimal and all(type(c) is Decimal for c in X + V)
            # no Decimal leaves the kernel: rows decode to Fractions
            assert all(type(c) is Fraction for row in t.states for s in row for c in s)
            assert all(type(u) is Fraction for row in t.raw_u for u in row)
    loop = [*gains_di, *(w for nbrs in graph7.adjacency for _, w in nbrs)]
    assert Lattice.kind_of(loop + [c for s in reference_init_di for c in s]) is DecimalLattice
    assert Lattice.kind_of(loop + list(third[0])) is Lattice
    # a run that takes no step keeps the integer kind
    assert simulate(graph7, gains_di, reference_init_di, 0).states.kind is Lattice


def test_decimal_run_equals_the_integer_run(graph7, gains_di, reference_init_di):
    """The decimal kind gives the integer kind's rows, CSV, verify report and
    inverted period on the paper's positions and their halving."""
    plan = synthesize_di(graph7, gains_di)._replace(init=reference_init_di)
    for init in (reference_init_di, halved(reference_init_di)):
        t = simulate(graph7, gains_di, init, 80)
        with integer_kind():
            ints = simulate(graph7, gains_di, init, 80)
        assert t.states.kind is DecimalLattice and ints.states.kind is Lattice
        assert tuple_copy(t) == tuple_copy(ints)
        assert trajectory_to_csv(t) == trajectory_to_csv(ints)
        run_plan = plan._replace(init=init)
        assert report_json(graph7, run_plan, t) == report_json(graph7, run_plan, ints)


# ---------------------------------------------------------------------------
# the texts of a row: `str` of each normalized value, but for exponents and -0


def test_decimal_texts_of_exponents_and_negative_zero():
    """A normalized value that `str` writes with an exponent, and -0, take
    the fixed-point text; in a row that mixes them with plain values, only
    they are written again, and each value is written as alone."""
    one = Decimal(1)
    cases = {Decimal("1E+2"): "100", Decimal("1E-7"): "0.0000001", Decimal("-0"): "0"}
    for value, text in cases.items():
        assert decimal_texts([value], one) == [text]
    plain = [Unformatted("-2.5"), Unformatted("0.125"), Unformatted(30), Unformatted(0)]
    row = [plain[0], *cases, plain[1], Decimal("-1E+3"), *plain[2:]]
    expected = ["-2.5", *cases.values(), "0.125", "-1000", "30", "0"]
    assert decimal_texts(row, one) == expected
    assert decimal_texts(plain, one) == ["-2.5", "0.125", "30", "0"]


class Unformatted(Decimal):
    """A `Decimal` whose `str` is its text: `decimal_texts` must not normalize it."""

    def normalize(self, context=None):
        raise AssertionError(f"{self} was written again")


# ---------------------------------------------------------------------------
# the digit limit of a decimal text


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_decimal_text_at_the_digit_limit():
    """A text of `limit` digits before and after its point, leading zeros
    counted, is written, and `parse_scalar` reads it back as one integer over
    a power of ten; one more digit raises in both, as that integer has too
    many."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        texts = ["7" * 640, "-" + "7" * 600 + "." + "5" * 40, "0." + "0" * 638 + "1"]
        longer = [text[:-1] + "01" if "." in text else text + "1" for text in texts]
        for text in texts + longer + ["0." + "0" * 639 + "1", "7" * 600 + "." + "5" * 41]:
            value = Decimal(text)
            digits = sum(c.isdigit() for c in text)
            if digits <= 640:
                assert decimal_texts([value], Decimal(1)) == [text]
                assert _plain_decimal(text) == parse_scalar(text) == Fraction(text)
                continue
            assert digits == 641
            with pytest.raises(ValueError):
                decimal_texts([Decimal(1), value], Decimal(1))
            with pytest.raises(ScalarFormatError, match="more than 640 digits"):
                parse_scalar(text)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_simulate_refuses_at_the_first_step_past_the_digit_limit(
    graph7, gains_di, reference_init_di, tmp_path, capsys
):
    """The halved run writes every step whose texts keep within 640 digits,
    and at the first that does not exits 1 with one line and writes no file."""
    t = simulate(graph7, gains_di, halved(reference_init_di), 600)
    assert t.states.kind is DecimalLattice
    # a run of `steps` steps writes the states of ticks 0..steps and the
    # inputs of ticks 0..steps-1
    first = 600
    for line in trajectory_to_csv(t).splitlines()[1:]:
        k, _, x, v, u_raw, u_sat = line.split(",")
        for texts, steps in (((x, v), int(k)), ((u_raw, u_sat), int(k) + 1)):
            if max(sum(map(str.isdigit, text)) for text in texts) > 640:
                first = min(first, steps)
    assert first < 600
    plan = tmp_path / "plan.txt"
    plan.write_text(plan_to_text(synthesize_di(graph7, gains_di)._replace(init=t.states[0])))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for steps, code in ((first - 1, EXIT_OK), (first, EXIT_USAGE)):
            csv_file = tmp_path / f"traj-{steps}.csv"
            capsys.readouterr()
            argv = ["simulate", GRAPH, "--config", DI_CFG, "--plan", str(plan)]
            assert main([*argv, "--steps", str(steps), "-o", str(csv_file)]) == code
            err = capsys.readouterr().err
            assert csv_file.exists() == (code == EXIT_OK)
            if code == EXIT_USAGE:
                assert err == (
                    "error: the trajectory holds a value of more than 640 digits, beyond "
                    "Python's limit on converting an integer to text; use fewer steps or "
                    "--mode float\n"
                )
    finally:
        sys.set_int_max_str_digits(limit)


# ---------------------------------------------------------------------------
# the caller's decimal context


def pipeline_outputs(directory):
    """Plans, CSVs, verify reports and exit codes of the CLI pipeline: di and
    ns on their orbits, the halved di orbit (the `offorbit_7` input) for 120
    steps with its CSV read in full after a re-spelling, and the p/q K3 plan."""
    directory.mkdir()
    out = {}
    plans = {}
    for name, cfg in (("di", DI_CFG), ("ns", NS_CFG)):
        plans[name] = directory / f"plan-{name}.txt"
        out[f"synthesize-{name}"] = main(
            ["synthesize", GRAPH, "--config", cfg, "-o", str(plans[name])]
        )
    half = directory / "plan-half.txt"
    half.write_text(
        "".join(
            line if not line.startswith("agent ") else halved_line(line)
            for line in plans["di"].read_text().splitlines(keepends=True)
        )
    )
    k3 = directory / "graph-k3.txt"
    k3.write_text("n 3\n1 2 1\n2 3 1\n1 3 1\n")
    k3_plan = directory / "plan-k3.txt"
    k3_plan.write_text(
        "model=di\nalpha=1/3\nbeta=1/3\nroot=1\nm=3\nT=6\n"
        "agent 1: x=-1/2, v=-1/3\nagent 2: x=1/2, v=-1/3\nagent 3: x=1/2, v=2/3\n"
    )
    runs = {
        "di": ([GRAPH, "--config", DI_CFG, "--plan", str(plans["di"])], []),
        "ns": ([GRAPH, "--config", NS_CFG, "--plan", str(plans["ns"])], []),
        "half": ([GRAPH, "--config", DI_CFG, "--plan", str(half)], ["--steps", "120"]),
        "k3": ([str(k3), "--plan", str(k3_plan)], ["--steps", "13"]),
    }
    for name, (argv, steps) in runs.items():
        csv_file = directory / f"traj-{name}.csv"
        out[f"simulate-{name}"] = main(["simulate", *argv, *steps, "-o", str(csv_file)])
        respelled = directory / f"traj-{name}-respelled.csv"
        respelled.write_text(
            csv_file.read_text().replace(",1\n", ",1.0\n").replace(",-1\n", ",-1.0\n")
        )
        for which in (csv_file, respelled):
            out[f"verify-{which.name}"] = verify_json(["verify", *argv, "--csv", str(which)])
    for path in sorted(directory.iterdir()):
        out[path.name] = path.read_text()
    return out


def halved_line(line):
    head, _, rest = line.partition(":")
    x, v = (Fraction(part.split("=")[1]) / 2 for part in rest.split(","))
    return f"{head}: x={x}, v={v}\n"


def verify_json(argv):
    """(exit code, stdout) of `verify`."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return code, stdout.getvalue()


def context_state(ctx):
    return ctx.prec, ctx.Emax, ctx.Emin, ctx.rounding, dict(ctx.traps), dict(ctx.flags)


@pytest.mark.parametrize("hostile", HOSTILE, ids=["prec-3", "prec-28-no-traps"])
def test_pipeline_ignores_the_callers_context(hostile, tmp_path):
    """Under a context of few digits or no traps the CLI pipeline writes the
    bytes it writes under the default one, and leaves that context as it was."""
    expected = pipeline_outputs(tmp_path / "default")
    with localcontext(**hostile) as ctx:
        before = context_state(ctx)
        got = pipeline_outputs(tmp_path / "hostile")
        assert getcontext() is ctx and context_state(ctx) == before
    assert got == expected
    assert expected["verify-traj-half.csv"][0] == 4
    assert json.loads(expected["verify-traj-half-respelled.csv"][1])["consistency"] is True


@pytest.mark.parametrize("hostile", HOSTILE, ids=["prec-3", "prec-28-no-traps"])
def test_library_ignores_the_callers_context(hostile, graph7, gains_di, reference_init_di):
    """`simulate`, `trajectory_to_csv`, `verification_report` and each check
    it runs give under a hostile context what they give under the default one."""
    plan = synthesize_di(graph7, gains_di)
    cases = [(reference_init_di, 60), (halved(reference_init_di), 250), (plan.init, 44)]

    def results():
        out = []
        for init, steps in cases:
            t = simulate(graph7, gains_di, init, steps)
            run_plan = plan._replace(init=tuple(init))
            out.append((tuple_copy(t), trajectory_to_csv(t), report_json(graph7, run_plan, t)))
            out.append(
                (
                    outcome(check_periodicity, t, 22, graph=graph7, gains=gains_di),
                    outcome(backward_states, t, graph7, gains_di, 22),
                    outcome(oracle_check_di, t, run_plan),
                )
            )
        return out

    expected = results()
    with localcontext(**hostile) as ctx:
        before = context_state(ctx)
        got = results()
        assert getcontext() is ctx and context_state(ctx) == before
    assert got == expected


# ---------------------------------------------------------------------------
# the decimal kind against the reference and the integer kind


#: k/10, k/4 and k/8 of at least 1/2, whose reciprocals terminate, so that
#: the synthesized di positions do too; every one passes the ns gates
WEIGHTS = sorted(
    {
        Fraction(k, d)
        for d in (10, 4, 8)
        for k in (1, 2, 4, 5, 8, 10, 16, 20, 25, 32, 40)
        if Fraction(1, 2) <= Fraction(k, d) <= 5
    }
)


def decimal_start(start, plan, rng):
    """The synthesized start, it halved, each agent shifted by k/8, or a
    shift in which a random set of agents shares agent 0's state."""
    init = list(plan.init)
    if start == "halved":
        return [AgentState(s.x / 2, s.v / 2) for s in init]
    shifted = [
        AgentState(s.x + Fraction(rng.randint(-8, 8), 8), s.v + Fraction(rng.randint(-8, 8), 8))
        for s in init
    ]
    if start == "shifted":
        return shifted
    if start == "shared":
        share = rng.sample(range(len(init)), rng.randint(2, len(init)))
        return [shifted[0] if i in share else s for i, s in enumerate(shifted)]
    return init


def decimal_case(n, seed, a, start):
    """(graph, gains, model, plan, start states) of a random decimal graph of
    n agents, the plan synthesized on it and its start put through `decimal_start`."""
    rng = random.Random(seed)
    g = WeightedGraph.from_edges(n, random_connected_edges(rng, n, lambda rng: rng.choice(WEIGHTS)))
    ns = None if a is None else NsModel(a)
    if ns is None:
        gains = GainParams(Fraction(2, 5), Fraction(21, 50))
        plan = synthesize_di(g, gains)
    else:
        gains = GainParams(Fraction(-1, 2), Fraction(2))
        plan = synthesize_ns(g, ns, gains)
    init = decimal_start(start, plan, rng)
    return g, gains, ns, plan._replace(init=tuple(init)), init


def normalized(value):
    return value.as_tuple() == value.normalize(EXACT).as_tuple()


decimal_cases = given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    a=st.sampled_from([None, Fraction(1, 2), Fraction(3, 10), Fraction(1, 4)]),
    start=st.sampled_from(["orbit", "halved", "shifted", "shared"]),
    steps=st.integers(0, 60),
)


@settings(max_examples=40, deadline=None)
@decimal_cases
def test_decimal_runs_equal_the_reference_and_the_integer_kind(n, seed, a, start, steps):
    """On random decimal graphs, the decimal kind's rows decode to the
    per-agent rollout's, its CSV is the reference writer's and its checks
    give their reference bodies' verdicts; the run on the integer kind, and
    the run as `simulate` picks its kind, give the same rows, bytes and
    verify report.  Every state and raw input the decimal kind makes is
    normalized, as its writer requires."""
    g, gains, ns, plan, init = decimal_case(n, seed, a, start)
    ref = reference.simulate(g, gains, init, steps, ns=ns)
    with decimal_kind():
        decimal = simulate(g, gains, init, steps, ns=ns)
    if decimal.states.kind is DecimalLattice:
        made = [c for X, V, _ in decimal.states.data[1:] for c in X + V]
        assert all(map(normalized, made + [u for U, _ in decimal.raw_u.data for u in U]))
    with integer_kind():
        ints = simulate(g, gains, init, steps, ns=ns)
    default = simulate(g, gains, init, steps, ns=ns)
    terminating = Lattice.kind_of([c for s in init for c in s]) is DecimalLattice
    assert (decimal.states.kind is DecimalLattice) == (terminating and steps > 0)
    assert ints.states.kind is Lattice
    text = reference.trajectory_to_csv(ref)
    report = report_json(g, plan, ints)
    for t in (decimal, ints, default):
        assert (tuple(t.states), tuple(t.raw_u), tuple(t.sat_u)) == (ref.states, ref.raw_u, ref.sat_u)
        assert trajectory_to_csv(t) == text
        assert report_json(g, plan, t) == report
    if steps:
        assert_paths_agree(decimal, g, gains, plan, min(plan.period, steps), ns)


@settings(max_examples=40, deadline=None)
@decimal_cases
def test_digit_bound_holds_up_to_the_horizon(n, seed, a, start, steps):
    """On the decimal kind's runs of the differential property, the digits
    `_check_decimals` reads off tick p are at most `digit_bound`'s first +
    p * per_step at every tick up to the `horizon`, which is where that bound
    first exceeds the cap's digits."""
    g, gains, ns, _, init = decimal_case(n, seed, a, start)
    with decimal_kind():
        t = simulate(g, gains, init, steps, ns=ns)
    if t.states.kind is not DecimalLattice:
        return
    lattice, ticks = t.states.lattice, t.states.data
    with localcontext(EXACT):
        first, per_step = lattice.digit_bound(*ticks[0][:2])
        horizon = lattice.horizon(*ticks[0])
        assert first + horizon * per_step <= dynamics.MAX_EXACT_BITS * 3 // 10
        assert first + (horizon + 1) * per_step > dynamics.MAX_EXACT_BITS * 3 // 10
        for p, (X, V, _) in enumerate(ticks):
            assert p <= horizon and _decimal_digits(X, V) <= first + p * per_step


def test_cap_is_checked_past_the_horizon_only(graph7, gains_di, reference_init_di, monkeypatch):
    """With a cap whose horizon ends mid-run, the halved run checks its first
    tick at step horizon + 1, and raises on the step where a run that checks
    every tick raises."""
    init = halved(reference_init_di)
    ticks = simulate(graph7, gains_di, init, 100).states.data
    monkeypatch.setattr(dynamics, "MAX_EXACT_BITS", 340)
    lattice = DecimalLattice(graph7, gains_di, None)
    with localcontext(EXACT):
        horizon = lattice.horizon(*lattice.encode(init))
    checked = []
    check = DecimalLattice.check

    def counting_check(X, V, D):
        checked.append((X, V, D))
        return check(X, V, D)

    monkeypatch.setattr(DecimalLattice, "check", staticmethod(counting_check))

    def raising_step():
        checked.clear()
        with pytest.raises(SimulationOverflowError):
            simulate(graph7, gains_di, init, 600)
        return len(checked)

    raised = horizon + raising_step()
    first = checked[0]
    monkeypatch.setattr(DecimalLattice, "horizon", lambda self, X, V, D: 0)
    assert raising_step() == raised
    assert 0 < horizon < raised - 1
    # the first tick checked is tick horizon + 1 of the run
    assert first == ticks[horizon + 1]


def test_agents_that_share_a_state_have_no_input(graph7, gains_di):
    """At consensus every raw input is 0, of whatever sign the sums leave, and
    each is written "0", as the reference writes it."""
    init = [AgentState(Fraction(5, 4), Fraction(-3, 8))] * 7
    ref = reference.simulate(graph7, gains_di, init, 5)
    with decimal_kind():
        t = simulate(graph7, gains_di, init, 5)
    assert t.states.kind is DecimalLattice
    assert all(u == 0 for row in t.raw_u for u in row)
    assert trajectory_to_csv(t) == reference.trajectory_to_csv(ref)
    assert ",0,0\n" in trajectory_to_csv(t)


# ---------------------------------------------------------------------------
# the writer's blocks of CSR rows


#: per kind, values whose normalized `str` or `repr` has an exponent or a
#: sign on 0: integers with trailing zeros, values below 1e-6 and -0
EDGE_VALUES = {
    DecimalLattice: [
        Decimal("1E+2"), Decimal("-3E+5"), Decimal("1E-7"), Decimal("-2.5E-9"), Decimal("-0"),
    ],
    FloatLattice: [1e22, -3e16, 1e-07, -2.5e-09, -0.0],
}


def with_values(t, edits):
    """t in new columns of its rows' kind, each row copied once per object,
    so that its repeats and the raw input objects its saturated row holds
    stay shared, with the entries `edits` names set to `EDGE_VALUES`; the
    new columns record no reflection and no class record."""
    kind = t.states.kind
    columns = []
    for column, decode in zip(t[1:], (kind.decode, kind.ratios, kind.ratios)):
        copies = {}
        rows = [
            copies.setdefault(id(row), (*map(list, row[:-1]), row[-1])) for row in column.data
        ]
        columns.append(LatticeColumn(rows, decode))
    for which, k, entry, value in edits:
        rows = columns[which].data
        if rows:
            parts = rows[k % len(rows)][:-1]
            parts[entry // t.n % len(parts)][entry % t.n] = EDGE_VALUES[kind][value]
    return Trajectory(t.ns, *columns)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    a=st.sampled_from([None, Fraction(1, 2), Fraction(3, 10), Fraction(1, 4)]),
    start=st.sampled_from(["halved", "shifted", "shared"]),
    steps=st.integers(1, 40),
    mode=st.sampled_from(["exact", "float"]),
    block=st.integers(1, 24),
    edits=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 99), st.integers(0, 15), st.integers(0, 4)),
        max_size=8,
    ),
)
def test_block_writer_equals_the_reference_writer(n, seed, a, start, steps, mode, block, edits):
    """With blocks of a few values, so that runs cross block boundaries, the
    CSV of a decimal or float run off the orbit is the reference writer's,
    value by value through `format_scalar`, and so is the CSV of the run with
    values set whose normalized text has an exponent or reads -0, in its
    states, its raw inputs and its saturated inputs; `_is_csv_of` takes
    each.  A decimal CSV read back by `trajectory_from_csv`, whose saturated
    values are not the raw input objects, writes the same bytes."""
    g, gains, ns, _, init = decimal_case(n, seed, a, start)
    if mode == "float":
        gains = GainParams(float(gains.alpha), float(gains.beta))
        init = [AgentState(float(s.x), float(s.v)) for s in init]
    t = simulate(g, gains, init, steps, ns=ns)
    # a start of two classes may class-step on integers
    assume(t.states.kind is (FloatLattice if mode == "float" else DecimalLattice))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "CSV_BLOCK", block)
        for run in (t, with_values(t, edits)):
            text = reference.trajectory_to_csv(run)
            assert trajectory_to_csv(run) == text
            assert _is_csv_of(run, text)
            if run.states.kind is not DecimalLattice:
                continue
            back = trajectory_from_csv(text, ns, "exact", DecimalLattice)
            assert back.states.kind is DecimalLattice
            assert not any(
                s is u for (S, _), (U, _) in zip(back.sat_u.data, back.raw_u.data) for s, u in zip(S, U)
            )
            assert trajectory_to_csv(back) == text


def digits(piece):
    """The most digits of a value text in the CSV text `piece`."""
    return max(sum(map(str.isdigit, text)) for text in piece.replace("\n", ",").split(","))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_writer_yields_every_piece_before_the_first_past_the_digit_limit(
    graph7, gains_di, reference_init_di, monkeypatch
):
    """Under a limit of 640 digits, `_csv_pieces` of the halved run yields
    every piece before the first that holds a longer text and then raises,
    whether that piece starts a block, lies inside one or is a block alone."""
    t = simulate(graph7, gains_di, halved(reference_init_di), 600)
    pieces = list(_csv_pieces(t))
    first = next(k for k, piece in enumerate(pieces) if digits(piece) > 640)
    assert 0 < first < 600 and digits(pieces[first - 1]) <= 640
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for rows in (1, 10, first, first + 1, cli.CSV_BLOCK // 7):
            monkeypatch.setattr(cli, "CSV_BLOCK", 7 * rows)
            written = []
            with pytest.raises(CliError, match="more than 640 digits"):
                written.extend(_csv_pieces(t))
            assert written == pieces[:first]
    finally:
        sys.set_int_max_str_digits(limit)


def test_csv_compare_stops_in_the_first_block_that_differs(
    graph7, gains_di, reference_init_di, monkeypatch
):
    """`_is_csv_of` of a CSV that differs at step 0 formats one block, its x, v
    and u_raw columns, and then returns False; the CSV itself takes every
    block of the 250 CSR rows and the last row."""
    t = simulate(graph7, gains_di, halved(reference_init_di), 250)
    text = trajectory_to_csv(t)
    monkeypatch.setattr(cli, "CSV_BLOCK", 70)
    calls = []
    texts = DecimalLattice.texts
    monkeypatch.setattr(
        DecimalLattice, "texts", staticmethod(lambda N, D: calls.append(len(N)) or texts(N, D))
    )
    assert _is_csv_of(t, text)
    assert calls == [70] * 75 + [14]
    calls.clear()
    lines = text.splitlines(keepends=True)
    lines[1] = lines[1].replace("0,1,", "0,1,9", 1)
    assert not _is_csv_of(t, "".join(lines))
    assert calls == [70] * 3


def test_writer_leaves_no_reference_cycle(graph7, gains_di, reference_init_di):
    """Writing and comparing the CSV of a run of blocks, of the class-built
    orbit and of a float run leaves nothing for the cyclic collector, which
    a process running many commands would otherwise carry from one to the next."""
    orbit = synthesize_di(graph7, gains_di).init
    floats = [AgentState(float(s.x), float(s.v)) for s in reference_init_di]
    runs = [
        simulate(graph7, gains_di, halved(reference_init_di), 250),
        simulate(graph7, gains_di, orbit, 44),
        simulate(graph7, GainParams(0.4, 0.42), floats, 30),
    ]
    gc.collect()
    gc.disable()
    try:
        for t in runs:
            text = trajectory_to_csv(t)
            assert _is_csv_of(t, text) and not _is_csv_of(t, text.replace("\n0,1,", "\n0,1,9", 1))
        assert gc.collect() == 0
    finally:
        gc.enable()
