from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from satorbits import (
    AgentState,
    GainParams,
    NsModel,
    PatternSpec,
    check_gains_di,
    check_gains_ns,
    init_states_ns,
    key_inequalities_ns,
    make_partition,
    min_half_period,
    parse_graph,
    position_constraints,
    serialize_graph,
    simulate,
    solve_positions,
    synthesize_di,
    synthesize_ns,
    verification_report,
)
from satorbits import fixture_path, synthesis
from satorbits.cli import plan_to_text
from satorbits.dynamics import Lattice
from satorbits.synthesis import (
    GainConditionError,
    InfeasibleConstraintsError,
    IntervalConstraint,
    _keys_of,
    interval_numerators,
)

from conftest import REFERENCE_INTERVALS, REFERENCE_X0
import reference
from reference import (
    closed_form_di,
    interval_bounds,
    inverse_step_di,
    inverse_step_ns,
    step_di,
    step_ns,
)
from test_graphs import random_connected_graph


def F(text):
    return Fraction(text)


def bounds(w, gains, m):
    """The interval of `interval_numerators` as two `Fraction`s."""
    L, U, D = interval_numerators(gains, m)(w)
    return Fraction(L, D), Fraction(U, D)


class TestGateDi:
    def test_reference_gains_pass(self, gains_di):
        assert check_gains_di(gains_di)

    @pytest.mark.parametrize(
        "alpha,beta",
        [("0.4", "0.4"), ("0.4", "0.6"), ("0.4", "0.7"), ("-0.1", "0.1"), ("0", "0.1")],
    )
    def test_rejections(self, alpha, beta):
        assert not check_gains_di(GainParams(F(alpha), F(beta)))


class TestHalfPeriod:
    def test_reference_value(self, gains_di):
        assert min_half_period(gains_di, F("0.5")) == 11

    def test_floor_applies(self):
        assert min_half_period(GainParams(F("1"), F("1.2")), F("1")) == 3

    def test_blow_up_near_boundary(self):
        assert min_half_period(GainParams(F("0.4"), F("0.5999")), F("0.5")) == 16002

    def test_rejects_bad_gains(self):
        with pytest.raises(GainConditionError):
            min_half_period(GainParams(F("0.4"), F("0.7")), F("1"))


class TestVelocityInit:
    """v(0) of a synthesized di plan: -m/2 on S_e and +m/2 on S_o."""

    #: m = 3 on `1 2 1` (the floor of `min_half_period`), and m = 4 fits too
    GAINS = GainParams(F("1"), F("1.2"))

    def test_reference_partition(self, graph7, gains_di):
        v = [s.v for s in synthesize_di(graph7, gains_di).init]
        for i in (0, 4, 5, 6):
            assert v[i] == F("-5.5")
        for i in (1, 2, 3):
            assert v[i] == F("5.5")

    def test_two_node_m3(self):
        plan = synthesize_di(parse_graph("1 2 1"), self.GAINS)
        assert plan.half_period == 3
        assert [s.v for s in plan.init] == [F("-1.5"), F("1.5")]

    def test_signs_flip_with_root(self):
        g = parse_graph("1 2 1")
        for root, v in ((0, [-2, 2]), (1, [2, -2])):
            plan = synthesize_di(g, self.GAINS, m_override=4, root=root)
            assert [s.v for s in plan.init] == v


class TestPatternSpec:
    """One pattern, PatternSpec(m), drives the orbits of both models."""

    def test_drives_the_di_closed_form(self):
        rng = random.Random(2014)
        for m in range(1, 21):
            x0 = Fraction(rng.randint(-999, 999), rng.randint(1, 99))
            v0 = Fraction(rng.randint(-999, 999), rng.randint(1, 99))
            even = rng.choice([True, False])
            pattern = PatternSpec(m)
            assert pattern.period == 2 * m
            s = AgentState(x0, v0)
            for k in range(2 * m + 1):
                assert s == closed_form_di(x0, v0, m, k, even=even)
                if k < 2 * m:
                    s = step_di(s, pattern.sign_at(k, even))

    def test_returns_the_ns_start_after_four_steps(self):
        rng = random.Random(4)
        pattern = PatternSpec(2)
        for _ in range(40):
            a = Fraction(rng.choice([-1, 1]) * rng.randint(1, 999), 1000)
            model = NsModel(a)
            half = 1 / (2 * a)
            for even, start in ((True, AgentState(half, -half)), (False, AgentState(-half, half))):
                s = start
                for k in range(pattern.period):
                    s = step_ns(s, pattern.sign_at(k, even), model)
                assert s == start


class TestPositionConstraints:
    def test_reference_table(self, graph7, partition7, gains_di):
        equalities, intervals = position_constraints(graph7, partition7, gains_di, 11)
        assert equalities == [(1, 2)]
        by_edge = {(c.i, c.j): c for c in intervals}
        assert set(by_edge) == set(REFERENCE_INTERVALS)
        for edge, (lo, hi) in REFERENCE_INTERVALS.items():
            c = by_edge[edge]
            assert abs(c.lower - F(lo)) < F("0.00005")
            assert abs(c.upper - F(hi)) < F("0.00005")

    def test_rejects_small_m(self, graph7, partition7, gains_di):
        with pytest.raises(ValueError):
            position_constraints(graph7, partition7, gains_di, 2)

    def test_interval_centered_at_half_period(self, gains_di):
        for m in (3, 7, 11):
            lo, hi = bounds(F("0.9"), gains_di, m)
            assert lo + hi == m

    def test_width_monotone_in_m(self):
        rng = random.Random(17)
        for _ in range(30):
            alpha = Fraction(rng.randint(11, 99), 100)
            beta = alpha * (1 + Fraction(rng.randint(1, 99), 200))
            gains = GainParams(alpha, beta)
            assert check_gains_di(gains)
            w = Fraction(rng.randint(2, 30), 10)
            widths = []
            for m in range(3, 12):
                lo, hi = bounds(w, gains, m)
                widths.append(hi - lo)
            assert all(b > a for a, b in zip(widths, widths[1:]))


class TestSolvePositions:
    def test_single_interval_midpoint(self):
        x = solve_positions(2, [], [IntervalConstraint(0, 1, F(2), F(8))])
        assert x[0] - x[1] == 5
        assert min(x) == 0

    def test_anchor_override(self):
        x = solve_positions(
            2, [], [IntervalConstraint(0, 1, F(2), F(8))], base=F(21), anchor=0
        )
        assert x[0] == 21 and x[0] - x[1] == 5

    def test_reference_fixture_feasible_and_reference_point_valid(
        self, graph7, partition7, gains_di
    ):
        equalities, intervals = position_constraints(graph7, partition7, gains_di, 11)
        x = solve_positions(graph7.n, equalities, intervals)
        expected = [F(v) for v in REFERENCE_X0]
        for sol in (x, expected):
            for i, j in equalities:
                assert sol[i] == sol[j]
            for c in intervals:
                assert c.lower <= sol[c.i] - sol[c.j] <= c.upper

    def test_empty_interval_rejected(self):
        with pytest.raises(InfeasibleConstraintsError):
            solve_positions(2, [], [IntervalConstraint(0, 1, F(3), F(2))])

    def test_negative_cycle_certificate(self):
        # x0 = x3 forces x0-x1 and x3-x1 to agree, but the intervals disagree
        constraints = [
            IntervalConstraint(0, 1, F(5), F(6)),
            IntervalConstraint(3, 1, F(20), F(21)),
        ]
        with pytest.raises(InfeasibleConstraintsError) as exc:
            solve_positions(4, [(0, 3)], constraints)
        cycle = exc.value.cycle
        assert len(cycle) >= 2

    def test_conflicting_equality_through_interval(self):
        with pytest.raises(InfeasibleConstraintsError, match="equality chain"):
            solve_positions(2, [(0, 1)], [IntervalConstraint(0, 1, F(2), F(8))])

    def test_equality_through_zero_interval_ok(self):
        x = solve_positions(2, [(0, 1)], [IntervalConstraint(0, 1, F(-1), F(1))])
        assert x[0] == x[1]


class TestSynthesizeDi:
    def test_reference_fixture(self, graph7, gains_di):
        plan = synthesize_di(graph7, gains_di)
        assert plan.half_period == 11 and plan.period == 22
        t = simulate(graph7, gains_di, plan.init, 22)
        assert t.states[22] == t.states[0]

    def test_two_node_graph(self):
        g = parse_graph("1 2 1")
        gains = GainParams(F("0.4"), F("0.42"))
        plan = synthesize_di(g, gains)
        assert plan.half_period == 6 and plan.period == 12
        assert [s.v for s in plan.init] == [-3, 3]
        t = simulate(g, gains, plan.init, 12)
        assert t.states[12] == t.states[0]

    def test_gate_failure(self, graph7):
        with pytest.raises(GainConditionError):
            synthesize_di(graph7, GainParams(F("0.4"), F("0.7")))

    def test_m_override_validated(self, graph7, gains_di):
        with pytest.raises(ValueError, match="empty interval"):
            synthesize_di(graph7, gains_di, m_override=5)
        plan = synthesize_di(graph7, gains_di, m_override=15)
        assert plan.half_period == 15
        t = simulate(graph7, gains_di, plan.init, 30)
        assert t.states[30] == t.states[0]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_infeasible_half_period_names_the_first_empty_interval(self, mode, monkeypatch):
        """An m below the least half-period fails at the first cross edge whose
        `position_constraints` interval is empty, decided on the numerators
        of `interval_numerators` with no interval built."""
        rng = random.Random(f"infeasible-m-{mode}")
        text = fixture_path("graph7.txt").read_text()
        graphs = [parse_graph(text, mode)]
        for _ in range(10):
            n = rng.randint(2, 8)
            # a random tree, each agent joined to an earlier one
            lines = [f"{k + 1} {rng.randrange(k) + 1} {rng.randint(2, 30) / 10}\n" for k in range(1, n)]
            graphs.append(parse_graph("".join(lines), mode))
        gains = GainParams(F("0.4"), F("0.42")) if mode == "exact" else GainParams(0.4, 0.42)
        cases = []
        for g in graphs:
            p = make_partition(g, 0)
            m_min = min_half_period(gains, p.a_bar)
            for m in range(3, m_min + 2):
                _, intervals = position_constraints(g, p, gains, m)
                cases.append((g, m, m_min, next((c for c in intervals if c.lower > c.upper), None)))
        assert sum(first is not None for *_, first in cases) >= 10

        def refuse(*args):
            raise AssertionError("an interval was built")

        monkeypatch.setattr(synthesis, "position_constraints", refuse)
        monkeypatch.setattr(synthesis, "IntervalConstraint", refuse)
        for g, m, m_min, first in cases:
            if first is None:
                assert synthesize_di(g, gains, m_override=m).half_period == m
                continue
            with pytest.raises(InfeasibleConstraintsError) as exc:
                synthesize_di(g, gains, m_override=m)
            assert str(exc.value) == (
                f"half-period {m} leaves an empty interval on edge "
                f"({first.i + 1}, {first.j + 1}); minimum is {m_min}"
            )
            assert exc.value.cycle == [first.i, first.j]

    def test_anchor_matches_reference_choice(self, graph7, gains_di):
        plan = synthesize_di(graph7, gains_di, base=F(21), anchor=0)
        assert plan.init[0].x == 21


class TestClosedFormDi:
    #: the plan of the shipped di.cfg run (base=21 at agent 1) as the
    #: Bellman-Ford solver with slack centering wrote it
    GRAPH7_PLAN = (
        "model=di\nalpha=0.4\nbeta=0.42\nroot=1\nm=11\nT=22\n"
        "agent 1: x=21, v=-5.5\n"
        "agent 2: x=15.5, v=5.5\n"
        "agent 3: x=15.5, v=5.5\n"
        "agent 4: x=15.5, v=5.5\n"
        "agent 5: x=21, v=-5.5\n"
        "agent 6: x=21, v=-5.5\n"
        "agent 7: x=21, v=-5.5\n"
    )

    def test_graph7_plan_text_unchanged(self, graph7, gains_di):
        plan = synthesize_di(graph7, gains_di, base=F(21), anchor=0)
        assert plan_to_text(plan) == self.GRAPH7_PLAN

    def test_random_graphs(self):
        rng = random.Random(5150)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 10))
            alpha = Fraction(rng.randint(11, 99), 100)
            gains = GainParams(alpha, alpha * (1 + Fraction(rng.randint(1, 80), 200)))
            assert check_gains_di(gains)
            root = rng.randrange(g.n)
            plan = synthesize_di(g, gains, root=root)
            p, m = plan.partition, plan.half_period
            x = [s.x for s in plan.init]
            assert all(isinstance(v, Fraction) for v in x)
            assert {x[i] for i in p.s_even} == {F(m) / 2}
            assert {x[i] for i in p.s_odd} == {0}
            equalities, intervals = position_constraints(g, p, gains, m)
            for c in intervals:
                assert x[c.i] - x[c.j] == (c.lower + c.upper) / 2
            for i, j in equalities:
                assert x[i] == x[j]
            t = simulate(g, gains, plan.init, 2 * plan.period)
            assert verification_report(g, plan, t, rollout=t)["ok"]

            anchor = rng.randrange(g.n)
            base = Fraction(rng.randint(-90, 90), rng.randint(1, 9))
            anchored = synthesize_di(g, gains, root=root, base=base, anchor=anchor)
            assert anchored.init[anchor].x == base
            assert {s.x - r.x for s, r in zip(anchored.init, plan.init)} == {base - x[anchor]}

            g_float = parse_graph(serialize_graph(g), "float")
            gains_float = GainParams(float(gains.alpha), float(gains.beta))
            floated = synthesize_di(
                g_float, gains_float, root=root, base=float(base), anchor=anchor
            )
            assert all(isinstance(s.x, float) for s in floated.init)
            assert floated.init[anchor].x == float(base)

    def test_float_positions_without_base(self, graph7):
        g = parse_graph(serialize_graph(graph7), "float")
        plan = synthesize_di(g, GainParams(0.4, 0.42))
        assert [s.x for s in plan.init] == [5.5, 0.0, 0.0, 0.0, 5.5, 5.5, 5.5]
        assert all(isinstance(s.x, float) for s in plan.init)

    @pytest.mark.parametrize("m", [None, 12, 15])
    def test_float_plan_is_all_floats(self, graph7, m):
        """Positions and velocities of a float plan are floats, also for an
        even m, whose velocities -+m/2 are whole numbers."""
        g = parse_graph(serialize_graph(graph7), "float")
        plan = synthesize_di(g, GainParams(0.4, 0.42), m_override=m)
        assert all(type(c) is float for s in plan.init for c in s)
        speed = plan.half_period / 2
        assert {s.v for s in plan.init} == {-speed, speed}

    def test_anchor_out_of_range(self, graph7, gains_di):
        with pytest.raises(ValueError, match="anchor 7 outside"):
            synthesize_di(graph7, gains_di, anchor=7)


class TestGateNs:
    def test_reference_gains(self, ns_model, gains_ns):
        assert check_gains_ns(ns_model, gains_ns, F("0.5"))

    def test_alpha_too_large(self, ns_model):
        assert not check_gains_ns(ns_model, GainParams(F("-1.1"), F(2)), F("0.5"))

    def test_negative_a_case(self):
        model = NsModel(F("-0.5"))
        assert check_gains_ns(model, GainParams(F(0), F(-2)), F("0.5"))
        assert not check_gains_ns(model, GainParams(F(0), F(2)), F("0.5"))


class TestInitStatesNs:
    def test_reference_values(self, ns_model, partition7):
        states = init_states_ns(ns_model, partition7)
        for i in (0, 4, 5, 6):
            assert states[i] == AgentState(1, -1)
        for i in (1, 2, 3):
            assert states[i] == AgentState(-1, 1)

    def test_quarter_a(self, partition7):
        states = init_states_ns(NsModel(F("0.25")), partition7)
        assert states[0] == AgentState(2, -2)

    def test_non_finite_float_start_rejected(self, partition7):
        with pytest.raises(ValueError, match="a=1e-320 .* outside the float range"):
            init_states_ns(NsModel(1e-320), partition7)
        # an exact a that small is fine: 1/(2a) is a Fraction
        assert init_states_ns(NsModel(F("1e-320")), partition7)[0].x == F("5e319")

    def test_matches_linear_system_oracle(self, partition7):
        # independent check: s solves (I - A^4) s = (A^3 + A^2 - A - I) B
        import numpy as np

        for a in (0.5, 0.25, -0.4, 0.8):
            A = np.array([[0.0, 1.0], [-1.0, 2 * a]])
            B = np.array([0.0, 1.0])
            rhs = (np.linalg.matrix_power(A, 3) + A @ A - A - np.eye(2)) @ B
            s = np.linalg.solve(np.eye(2) - np.linalg.matrix_power(A, 4), rhs)
            got = init_states_ns(NsModel(Fraction(a)), partition7)[0]
            assert float(got.x) == pytest.approx(s[0])
            assert float(got.v) == pytest.approx(s[1])

    def test_half_period_antisymmetry_identity(self):
        # s = -(I + A^2)^-1 (I + A) B
        import numpy as np

        for a in (0.5, -0.25, 0.7):
            A = np.array([[0.0, 1.0], [-1.0, 2 * a]])
            B = np.array([0.0, 1.0])
            s = -np.linalg.solve(np.eye(2) + A @ A, (np.eye(2) + A) @ B)
            assert s[0] == pytest.approx(1 / (2 * a))
            assert s[1] == pytest.approx(-1 / (2 * a))


class TestKeyInequalitiesNs:
    def test_reference_fixture(self, graph7, partition7, ns_model, gains_ns):
        checks = key_inequalities_ns(graph7, partition7, ns_model, gains_ns)
        assert all(first and second for _, first, second in checks)
        by_edge = {edge: (first, second) for edge, first, second in checks}
        assert by_edge[(5, 2)] == (True, True)  # 0.5*(-2.5)/0.5 and 0.5*(-1.5)/0.5

    def test_tiny_weight_fails(self, ns_model, gains_ns):
        g = parse_graph("1 2 0.01")
        p = make_partition(g, 0)
        checks = key_inequalities_ns(g, p, ns_model, gains_ns)
        assert all(not first and not second for _, first, second in checks)

    def test_gate_implies_key_inequalities(self):
        rng = random.Random(31)
        for _ in range(50):
            g = random_connected_graph(rng, rng.randint(2, 8))
            p = make_partition(g, 0)
            sign = rng.choice((1, -1))
            a = sign * Fraction(rng.randint(10, 90), 100)
            alpha = Fraction(rng.randint(-100, 100), 100)
            margin = Fraction(rng.randint(0, 50), 100)
            beta = a / p.a_bar + sign * (abs(alpha) + margin)
            model = NsModel(a)
            gains = GainParams(alpha, beta)
            assert check_gains_ns(model, gains, p.a_bar)
            checks = key_inequalities_ns(g, p, model, gains)
            assert all(first and second for _, first, second in checks)


class TestSynthesizeNs:
    def test_reference_fixture(self, graph7, ns_model, gains_ns):
        plan = synthesize_ns(graph7, ns_model, gains_ns)
        assert plan.period == 4
        t = simulate(graph7, gains_ns, plan.init, 4, ns=ns_model)
        assert t.states[4] == t.states[0]

    def test_negative_a(self, graph7):
        model = NsModel(F("-0.5"))
        gains = GainParams(F(0), F(-2))
        plan = synthesize_ns(graph7, model, gains)
        assert plan.init[0] == AgentState(-1, 1)
        assert plan.init[1] == AgentState(1, -1)
        t = simulate(graph7, gains, plan.init, 4, ns=model)
        assert t.states[4] == t.states[0]

    def test_zero_beta_rejected(self, graph7, ns_model):
        with pytest.raises(GainConditionError):
            synthesize_ns(graph7, ns_model, GainParams(F("0.1"), F(0)))


# ---------------------------------------------------------------------------
# Closed forms on integers against the scalar expressions they replace

#: rationals with small or large (up to 40-digit) terms
SMALL = st.builds(Fraction, st.integers(1, 1000), st.integers(1, 1000))
WIDE = st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**40))
POSITIVE = st.one_of(SMALL, WIDE)
SIGNED = st.builds(operator.mul, st.sampled_from((1, -1)), POSITIVE)
NUMERATOR = st.integers(-(10**30), 10**30)


@given(
    w=POSITIVE,
    alpha=SIGNED,
    beta=st.one_of(SIGNED, st.just(Fraction(0))),
    m=st.integers(3, 10**6),
)
def test_exact_bounds_are_the_scalar_bounds(w, alpha, beta, m):
    gains = GainParams(alpha, beta)
    L, U, D = interval_numerators(gains, m)(w)
    assert all(type(n) is int for n in (L, U, D))
    assert (Fraction(L, D), Fraction(U, D)) == interval_bounds(w, gains, m)


@given(w=POSITIVE, alpha=SIGNED, beta=SIGNED, a=SIGNED, tight=st.booleans())
def test_exact_key_inequalities_are_the_scalar_ones(w, alpha, beta, a, tight):
    """`_keys_of` on integers against w*f/a <= -1, for a of either sign and,
    when `tight`, an `a` that puts the first key exactly at -1."""
    first = alpha - beta
    if tight and first:
        a = -w * first
    gains = GainParams(alpha, beta)
    assert _keys_of(a, gains)(w) == reference.key_inequalities(w, a, gains)


def test_float_weights_give_the_floats_nearest_the_exact_bounds(graph7):
    """Float weights, with float or exact gains, give the float nearest each
    exact bound, and the key inequalities of their exact binary values."""
    g = parse_graph(serialize_graph(graph7), mode="float")
    p = make_partition(g, 0)
    cross = [w for _, _, w in p.cross_edges]
    for gains in (GainParams(0.4, 0.42), GainParams(F("0.4"), F("0.42"))):
        exact = GainParams(*map(Fraction, gains))
        _, intervals = position_constraints(g, p, gains, 11)
        got = [(c.lower, c.upper) for c in intervals]
        nearest = [tuple(map(float, interval_bounds(Fraction(w), exact, 11))) for w in cross]
        assert got == nearest
        assert all(type(b) is float for bounds in got for b in bounds)
    # 0.4 and 0.42 are not binary fractions, and float arithmetic rounded
    # the lower bound of x_1 - x_2 below the float nearest its exact value
    assert interval_bounds(cross[0], GainParams(0.4, 0.42), 11)[0] == 2.1166666666666654
    assert position_constraints(g, p, GainParams(0.4, 0.42), 11)[1][0].lower == 2.116666666666666
    for a, gains in ((0.5, GainParams(-0.5, 2.0)), (F("0.5"), GainParams(F("-0.5"), F(2)))):
        exact = GainParams(*map(Fraction, gains))
        checks = key_inequalities_ns(g, p, NsModel(a), gains)
        expected = [reference.key_inequalities(Fraction(w), Fraction(a), exact) for w in cross]
        assert [c[1:] for c in checks] == expected


#: finite positive floats of every magnitude, subnormals included
MAGNITUDE = st.floats(min_value=5e-324, max_value=1.7e308)
#: beta over alpha: inside the di gate, and on and next to its 3/2 edge
RATIO = st.one_of(
    st.floats(min_value=1.0, max_value=1.5),
    st.sampled_from([1.5, math.nextafter(1.5, 0), math.nextafter(1.5, 2), 1.05, 1.35]),
)


@settings(max_examples=300, deadline=None)
@given(alpha=MAGNITUDE, ratio=RATIO, a_bar=MAGNITUDE, step=st.integers(-2, 2))
def test_float_di_decisions_are_the_exact_ones(alpha, ratio, a_bar, step):
    """On float gains and weight the di gate, m_min and the `--m` empty
    interval check take the decisions of the same inputs' exact binary
    values, computed as the paper writes them on `Fraction`s."""
    assume(math.isfinite(alpha * ratio))
    gains = GainParams(alpha, alpha * ratio)
    exact = GainParams(*map(Fraction, gains))
    assert check_gains_di(gains) == reference.gate_di(exact)
    if not reference.gate_di(exact):
        return
    m_min = reference.min_half_period(exact, Fraction(a_bar))
    assert min_half_period(gains, a_bar) == m_min
    m = max(3, m_min + step)
    lower, upper = interval_bounds(Fraction(a_bar), exact, m)
    g = parse_graph(f"1 2 {a_bar!r}\n", "float")
    try:
        plan = synthesize_di(g, gains, m_override=m)
    except InfeasibleConstraintsError:
        assert lower > upper
    except ValueError as exc:  # a half-period past the float range
        assert lower <= upper and "outside the float range" in str(exc)
        assert m > 1.7e308
    else:
        assert lower <= upper and plan.half_period == m
        assert plan.init[0].v == -float(Fraction(m, 2))


#: a of either sign in (-1, 1), subnormal to next to 1
ROTATION = st.builds(
    operator.mul,
    st.sampled_from((1, -1)),
    st.one_of(st.floats(min_value=5e-324, max_value=math.nextafter(1, 0)), st.just(0.5)),
)
SIGNED_FLOAT = st.builds(operator.mul, st.sampled_from((1.0, -1.0)), MAGNITUDE)


@settings(max_examples=300, deadline=None)
@given(
    a=ROTATION,
    alpha=SIGNED_FLOAT,
    beta=SIGNED_FLOAT,
    a_bar=MAGNITUDE,
    w=MAGNITUDE,
    tight=st.booleans(),
)
def test_float_ns_decisions_are_the_exact_ones(a, alpha, beta, a_bar, w, tight):
    """On float a, gains and weights the ns gate and both key inequalities
    take the decisions of the same inputs' exact binary values; `tight`
    puts beta where the float arithmetic of the gate lands on its edge."""
    if tight:
        beta = abs(alpha) / (1 if a > 0 else -1) + a / a_bar
    assume(math.isfinite(beta))
    gains = GainParams(alpha, beta)
    exact = GainParams(*map(Fraction, gains))
    a_exact, w_exact = Fraction(a), Fraction(w)
    gate = check_gains_ns(NsModel(a), gains, a_bar)
    assert gate == reference.gate_ns(a_exact, exact, Fraction(a_bar))
    keys = _keys_of(a, gains)(w)
    assert keys == reference.key_inequalities(w_exact, a_exact, exact)
    # the gate on the least cross weight implies both keys on every cross edge
    if gate and w >= a_bar:
        assert keys == (True, True)


#: an input numerator over Es: saturated at +Es or -Es, or any integer
INPUT = st.one_of(st.sampled_from("+-"), NUMERATOR)


@pytest.mark.parametrize("a", [None, "1/2", "3/10", "-2/7"])
@given(
    values=st.lists(st.tuples(NUMERATOR, NUMERATOR), min_size=1, max_size=7),
    inputs=st.lists(INPUT, min_size=7, max_size=7),
    D=st.one_of(st.integers(1, 1000), st.integers(1, 10**30)),
    Es=st.one_of(st.integers(1, 1000), st.integers(1, 10**30)),
)
def test_unstep_is_the_per_agent_inverse_step(graph7, gains_di, a, values, inputs, D, Es):
    """`Lattice.unstep` of any input row S/Es, saturated, mixed or neither,
    gives the per-agent inverse step's states with u = S_i/Es."""
    ns = None if a is None else NsModel(F(a))
    lattice = Lattice(graph7, gains_di, ns)
    X, V = [x for x, _ in values], [v for _, v in values]
    S = [Es if s == "+" else -Es if s == "-" else s for s in inputs[: len(X)]]
    tick = lattice.unstep(X, V, D, S, Es)
    states = [AgentState(Fraction(x, D), Fraction(v, D)) for x, v in zip(X, V)]
    if ns is None:
        states = [inverse_step_di(s, Fraction(u, Es)) for s, u in zip(states, S)]
    else:
        states = [inverse_step_ns(s, Fraction(u, Es), ns) for s, u in zip(states, S)]
    assert Lattice.decode(*tick) == tuple(states)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda g, gains: min_half_period(gains, Fraction(0)), "a_bar must be positive"),
        (lambda g, gains: min_half_period(gains, Fraction(-1)), "a_bar must be positive"),
        (
            lambda g, gains: check_gains_ns(
                NsModel(Fraction(1, 2)), GainParams(Fraction(-1, 2), Fraction(2)), Fraction(0)
            ),
            "a_bar must be positive",
        ),
        (
            lambda g, gains: synthesize_di(g, gains, m_override=2),
            "half-period override must exceed 2",
        ),
    ],
    ids=["m-min-zero", "m-min-negative", "ns-gate-zero", "m-override-2"],
)
def test_library_argument_errors(call, message, graph7, gains_di):
    """A nonpositive a_bar and a half-period override of 2 are refused."""
    with pytest.raises(ValueError) as exc:
        call(graph7, gains_di)
    assert str(exc.value) == message
