from __future__ import annotations

from fractions import Fraction

import pytest

from satorbits import (
    AgentState,
    GainParams,
    Trajectory,
    check_pattern,
    check_periodicity,
    make_partition,
    minimal_period,
    oracle_check_di,
    parse_graph,
    simulate,
    synthesize_di,
    synthesize_ns,
    verification_report,
)
from satorbits.synthesis import PatternSpec
from satorbits.verify import BackwardExtensionError, backward_states
from reference import closed_form_di, lattice_copy


def F(text):
    return Fraction(text)


@pytest.fixture(scope="module")
def di_orbit(graph7, gains_di, reference_init_di):
    return simulate(graph7, gains_di, reference_init_di, 44)


@pytest.fixture(scope="module")
def ns_orbit(graph7, gains_ns, ns_model):
    init = tuple(
        AgentState(1, -1) if i in (0, 4, 5, 6) else AgentState(-1, 1) for i in range(7)
    )
    return simulate(graph7, gains_ns, init, 8, ns=ns_model)


class TestPeriodicity:
    def test_reference_di(self, di_orbit, graph7, gains_di):
        assert check_periodicity(di_orbit, 22, graph=graph7, gains=gains_di)

    def test_reference_ns(self, ns_orbit, graph7, gains_ns):
        assert check_periodicity(ns_orbit, 4, graph=graph7, gains=gains_ns)

    def test_equilibrium_any_period(self, graph7, gains_di):
        init = [AgentState(0, 0)] * graph7.n
        t = simulate(graph7, gains_di, init, 10)
        for T in (1, 3, 7):
            assert check_periodicity(t, T)

    def test_periods_compose(self, di_orbit):
        assert check_periodicity(di_orbit, 44)

    def test_non_periodic_detected(self, graph7, gains_di, reference_init_di):
        wrong = list(reference_init_di)
        wrong[0] = AgentState(wrong[0].x, wrong[0].v + 1)
        t = simulate(graph7, gains_di, wrong, 22)
        assert not check_periodicity(t, 22)

    def test_short_trajectory_rejected(self, di_orbit):
        with pytest.raises(ValueError):
            check_periodicity(di_orbit, 100)


class TestBackward:
    def test_di_inverted_period(self, di_orbit, graph7, gains_di):
        before = backward_states(di_orbit, graph7, gains_di, 22)
        assert tuple(before) == di_orbit.states[0]

    def test_ns_inverted_period(self, ns_orbit, graph7, gains_ns):
        before = backward_states(ns_orbit, graph7, gains_ns, 4)
        assert tuple(before) == ns_orbit.states[0]


    def test_inconsistent_inputs_fail_periodicity(self, di_orbit, graph7, gains_di):
        sat = [list(row) for row in di_orbit.sat_u]
        sat[5][4] = Fraction(1, 2)
        t = lattice_copy(di_orbit._replace(sat_u=tuple(map(tuple, sat))))
        with pytest.raises(BackwardExtensionError, match="agent 5"):
            backward_states(t, graph7, gains_di, 22)
        assert check_periodicity(t, 22, graph=graph7, gains=gains_di) is False


class TestPattern:
    def test_reference_di_all_inequalities(self, di_orbit, partition7):
        report = check_pattern(di_orbit, partition7, PatternSpec(11))
        assert report.ok and report.first_violation is None

    def test_reference_ns_all_inequalities(self, ns_orbit, partition7):
        assert check_pattern(ns_orbit, partition7, PatternSpec(2)).ok

    def test_perturbed_state_reported(self, graph7, gains_di, partition7, reference_init_di):
        broken = list(reference_init_di)
        broken[0] = AgentState(broken[0].x + 10**6, broken[0].v)
        t = simulate(graph7, gains_di, broken, 22)
        report = check_pattern(t, partition7, PatternSpec(11))
        assert not report.ok
        k, agent, value = report.first_violation
        assert k == 0

    def test_raw_not_saturated_is_checked(self, graph7, gains_di, partition7):
        # inputs inside (-1,1) saturate to themselves; pattern must reject
        init = [AgentState(0, 0)] * graph7.n
        t = simulate(graph7, gains_di, init, 22)
        assert not check_pattern(t, partition7, PatternSpec(11)).ok


class TestClosedForm:
    def test_identity_at_zero(self):
        assert closed_form_di(F(3), F(-2), 5, 0, even=True) == AgentState(3, -2)

    def test_midpoint_even(self):
        m = 8
        got = closed_form_di(F(0), -Fraction(m, 2), m, m, even=True)
        assert got == AgentState(-Fraction(m, 2), Fraction(m, 2))

    def test_full_period_odd(self):
        m = 9
        x0 = F("4.25")
        got = closed_form_di(x0, Fraction(m, 2), m, 2 * m, even=False)
        # x(2m) = x0 + 2m v0 - m^2 = x0
        assert got == AgentState(x0, Fraction(m, 2))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            closed_form_di(F(0), F(0), 4, 9, even=True)

    def test_string_class_is_refused(self):
        # the class was once the string "even"/"odd"; no string may pass as a bool
        with pytest.raises(TypeError):
            closed_form_di(F(0), F(0), "odd", 4, 2)


class TestOracleDi:
    def test_reference_orbit(self, di_orbit, graph7, gains_di):
        plan = synthesize_di(graph7, gains_di, base=F(21), anchor=0)
        t = simulate(graph7, gains_di, plan.init, 22)
        assert oracle_check_di(t, plan)

    def test_two_node_plan(self):
        g = parse_graph("1 2 1")
        gains = GainParams(F("0.4"), F("0.42"))
        plan = synthesize_di(g, gains)
        t = simulate(g, gains, plan.init, plan.period)
        assert oracle_check_di(t, plan)

    def test_wrong_velocity_fails(self, graph7, gains_di):
        plan = synthesize_di(graph7, gains_di)
        broken_init = list(plan.init)
        broken_init[0] = AgentState(plan.init[0].x, plan.init[0].v + 1)
        t = simulate(graph7, gains_di, broken_init, plan.period)
        broken_plan = plan._replace(init=tuple(broken_init))
        assert not oracle_check_di(t, broken_plan)


    @staticmethod
    def _with_state(t, k, i, state):
        """The lattice copy of t with the state of agent i at step k replaced."""
        states = [list(row) for row in t.states]
        states[k][i] = state
        return lattice_copy(t._replace(states=tuple(map(tuple, states))))

    def test_perturbed_recorded_state_fails(self, graph7, gains_di):
        plan = synthesize_di(graph7, gains_di)
        t = simulate(graph7, gains_di, plan.init, plan.period)
        assert oracle_check_di(t, plan)
        for k, i, dx, dv in [(13, 2, Fraction(1, 2**80), 0), (22, 6, 0, Fraction(1, 3))]:
            s = t.states[k][i]
            broken = self._with_state(t, k, i, AgentState(s.x + dx, s.v + dv))
            assert not oracle_check_di(broken, plan)

    def test_integer_form_matches_closed_form(self, graph7, gains_di):
        """Initial states with unrelated denominators; floats take the tolerance path."""
        plan = synthesize_di(graph7, gains_di)
        m = plan.half_period
        init = tuple(
            AgentState(Fraction(7 * i - 10, 3 + i), Fraction(i - 3, 2 ** (i + 1)))
            for i in range(graph7.n)
        )
        plan = plan._replace(init=init)
        even = [i in plan.partition.s_even for i in range(graph7.n)]
        rows = tuple(
            tuple(closed_form_di(s.x, s.v, m, k, even=e) for s, e in zip(init, even))
            for k in range(2 * m + 1)
        )
        t = lattice_copy(Trajectory(None, rows, (), ()))
        assert oracle_check_di(t, plan)
        assert not oracle_check_di(self._with_state(t, m, 3, AgentState(0, 0)), plan)

        def floats(states):
            return tuple(AgentState(float(s.x), float(s.v)) for s in states)

        float_plan = plan._replace(init=floats(init))
        float_t = lattice_copy(Trajectory(None, tuple(floats(row) for row in rows), (), ()))
        assert oracle_check_di(float_t, float_plan)
        assert not oracle_check_di(
            self._with_state(float_t, m, 3, AgentState(0.0, 0.0)), float_plan
        )


class TestMinimalPeriod:
    def test_reference_ns(self, graph7, gains_ns, ns_model, ns_orbit):
        assert minimal_period(graph7, gains_ns, ns_orbit.states[0], 8, ns=ns_model) == 4

    def test_reference_di(self, graph7, gains_di, reference_init_di):
        assert minimal_period(graph7, gains_di, reference_init_di, 44) == 22

    def test_equilibrium(self, graph7, gains_di):
        init = [AgentState(0, 0)] * graph7.n
        assert minimal_period(graph7, gains_di, init, 10) == 1

    def test_absent(self, graph7, gains_di, reference_init_di):
        assert minimal_period(graph7, gains_di, reference_init_di, 21) is None

    def test_rollout_used_only_when_it_fits(self, graph7, gains_di, reference_init_di, di_orbit):
        init = reference_init_di
        assert minimal_period(graph7, gains_di, init, 44, rollout=di_orbit) == 22
        short = simulate(graph7, gains_di, init, 10)
        assert minimal_period(graph7, gains_di, init, 44, rollout=short) == 22
        elsewhere = simulate(graph7, gains_di, [AgentState(0, 0)] * graph7.n, 44)
        assert minimal_period(graph7, gains_di, init, 44, rollout=elsewhere) == 22


class TestOrbitInvariants:
    def test_velocity_antisymmetry_di(self, di_orbit, partition7):
        m = 11
        for k in range(m + 1):
            for i in range(di_orbit.n):
                assert di_orbit.states[k + m][i].v == -di_orbit.states[k][i].v

    def test_full_state_antisymmetry_ns(self, ns_orbit):
        for k in range(2):
            for i in range(ns_orbit.n):
                assert ns_orbit.states[k + 2][i].x == -ns_orbit.states[k][i].x
                assert ns_orbit.states[k + 2][i].v == -ns_orbit.states[k][i].v

    def test_intra_edge_agents_share_trajectory(self, graph7, gains_di, partition7):
        plan = synthesize_di(graph7, gains_di)
        t = simulate(graph7, gains_di, plan.init, plan.period)
        for i, j, _ in partition7.intra_edges:
            for k in range(plan.period + 1):
                assert t.states[k][i] == t.states[k][j]


class TestFloatMode:
    def test_irrational_rotation_orbit(self):
        import math

        from satorbits import NsModel, init_states_ns, synthesize_ns

        g = parse_graph("1 2 1", mode="float")
        a = math.sqrt(2) / 2
        model = NsModel(a)
        gains = GainParams(0.0, 2.0)
        plan = synthesize_ns(g, model, gains)
        t = simulate(g, gains, plan.init, 8, ns=model)
        assert check_periodicity(t, 4)
        assert minimal_period(g, gains, plan.init, 8, ns=model) == 4
        assert check_pattern(t, plan.partition, PatternSpec(2)).ok


class TestReport:
    def test_di_full_pass(self, graph7, gains_di):
        plan = synthesize_di(graph7, gains_di)
        t = simulate(graph7, gains_di, plan.init, 2 * plan.period)
        report = verification_report(graph7, plan, t)
        assert report["ok"]
        assert report["minimal_period"] == 22

    def test_ns_full_pass(self, graph7, ns_model, gains_ns):
        plan = synthesize_ns(graph7, ns_model, gains_ns)
        from satorbits import NsModel

        t = simulate(graph7, gains_ns, plan.init, 8, ns=ns_model)
        report = verification_report(graph7, plan, t)
        assert report["ok"] and report["minimal_period"] == 4


@pytest.mark.parametrize(
    "call,message",
    [
        (
            lambda g, gains, init: backward_states(simulate(g, gains, init, 3), g, gains, 4),
            "trajectory covers 3 steps, need 4",
        ),
        (lambda g, gains, init: minimal_period(g, gains, init, 0), "T_max must be >= 1"),
    ],
    ids=["backward-short", "minimal-period-zero"],
)
def test_library_argument_errors(call, message, graph7, gains_di, reference_init_di):
    """An inversion longer than the trajectory and an empty period search are refused."""
    with pytest.raises(ValueError) as exc:
        call(graph7, gains_di, reference_init_di)
    assert str(exc.value) == message
