from __future__ import annotations

import contextlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import reference
import satorbits.dynamics as dynamics
from satorbits import (
    AgentState,
    GainParams,
    NsModel,
    normalize_ns,
    parse_graph,
    simulate,
)
from satorbits.dynamics import (
    DecimalLattice,
    FloatLattice,
    Lattice,
    LatticeColumn,
    NormalizationError,
    SimulationOverflowError,
)
from satorbits.synthesis import synthesize_ns
from satorbits.verify import backward_states, verification_report
from satorbits.graphs import WeightedGraph
from reference import (
    control_inputs,
    integer_kind,
    inverse_step_di,
    inverse_step_ns,
    rollout,
    saturate,
    states_equal,
    step_di,
    step_ns,
)
from test_graphs import random_connected_edges, random_connected_graph


def F(text):
    return Fraction(text)


class TestSaturate:
    @pytest.mark.parametrize(
        "u,expected", [(F("0.5"), F("0.5")), (3, 1), (-2, -1), (1, 1), (-1, -1)]
    )
    def test_examples(self, u, expected):
        assert saturate(u) == expected

    def test_properties_random(self):
        rng = random.Random(42)
        for _ in range(10_000):
            u = Fraction(rng.randint(-4000, 4000), rng.randint(1, 1000))
            s = saturate(u)
            assert -1 <= s <= 1
            assert saturate(-u) == -s  # odd
            assert saturate(s) == s  # idempotent
        for _ in range(1_000):
            u = Fraction(rng.randint(-4000, 4000), 1000)
            w = Fraction(rng.randint(-4000, 4000), 1000)
            assert abs(saturate(u) - saturate(w)) <= abs(u - w)  # 1-Lipschitz


class TestControlInputs:
    def test_consensus_vanishes(self, graph7, gains_di):
        states = [AgentState(F("3.7"), F("-1.2"))] * graph7.n
        assert control_inputs(graph7, gains_di, states) == [0] * graph7.n

    def test_two_agents(self):
        g = parse_graph("1 2 1")
        gains = GainParams(Fraction(1), Fraction(0))
        states = [AgentState(0, 0), AgentState(2, 0)]
        assert control_inputs(g, gains, states) == [2, -2]

    def test_reference_fixture_agent1_saturates(self, graph7, gains_di, reference_init_di):
        u = control_inputs(graph7, gains_di, reference_init_di)
        assert abs(u[0]) >= 1

    def test_translation_invariance(self, graph7, gains_di):
        rng = random.Random(3)
        states = [
            AgentState(Fraction(rng.randint(-50, 50), 7), Fraction(rng.randint(-50, 50), 3))
            for _ in range(graph7.n)
        ]
        shifted = [AgentState(s.x + F("10.25"), s.v - F("3.5")) for s in states]
        assert control_inputs(graph7, gains_di, states) == control_inputs(
            graph7, gains_di, shifted
        )


class TestSteppers:
    def test_di_equilibrium(self):
        assert step_di(AgentState(0, 0), 0) == AgentState(0, 0)

    def test_di_example(self):
        assert step_di(AgentState(1, 2), 1) == AgentState(3, 3)

    def test_di_iterated_matches_closed_form(self):
        s = AgentState(Fraction(0), F("-5.5"))
        for _ in range(11):
            s = step_di(s, 1)
        # x(11) = 11*(-5.5) + 11*10/2 = -5.5, v(11) = 5.5
        assert s == AgentState(F("-5.5"), F("5.5"))

    def test_ns_examples(self, ns_model):
        assert step_ns(AgentState(1, -1), 1, ns_model) == AgentState(-1, -1)
        assert step_ns(AgentState(-1, -1), 1, ns_model) == AgentState(-1, 1)
        assert step_ns(AgentState(0, 0), 0, ns_model) == AgentState(0, 0)

    def test_inverses_are_exact(self, ns_model):
        rng = random.Random(9)
        for _ in range(200):
            s = AgentState(Fraction(rng.randint(-99, 99), 13), Fraction(rng.randint(-99, 99), 7))
            u = saturate(Fraction(rng.randint(-30, 30), 10))
            assert inverse_step_di(step_di(s, u), u) == s
            assert inverse_step_ns(step_ns(s, u, ns_model), u, ns_model) == s

    def test_ns_parameter_validation(self):
        for bad in (0, 1, -1, 2, F("-1.5")):
            with pytest.raises(ValueError):
                NsModel(Fraction(bad))


class TestSimulate:
    def test_zero_steps(self, graph7, gains_di, reference_init_di):
        t = simulate(graph7, gains_di, reference_init_di, 0)
        assert t.states == (reference_init_di,)
        assert t.raw_u == () and t.sat_u == ()

    def test_reference_di_period(self, graph7, gains_di, reference_init_di):
        t = simulate(graph7, gains_di, reference_init_di, 22)
        assert t.states[22] == t.states[0]

    def test_reference_ns_period(self, graph7, gains_ns, ns_model):
        init = tuple(
            AgentState(1, -1) if i in (0, 4, 5, 6) else AgentState(-1, 1)
            for i in range(7)
        )
        t = simulate(graph7, gains_ns, init, 4, ns=ns_model)
        assert t.states[4] == t.states[0]

    def test_semigroup(self, graph7, gains_di, reference_init_di):
        p, q = 9, 14
        full = simulate(graph7, gains_di, reference_init_di, p + q)
        tail = simulate(graph7, gains_di, full.states[p], q)
        assert full.states[p:] == tail.states
        assert full.raw_u[p:] == tail.raw_u

    def test_recorded_inputs_consistent(self, graph7, gains_di, reference_init_di):
        t = simulate(graph7, gains_di, reference_init_di, 10)
        for k in range(10):
            assert t.raw_u[k] == tuple(control_inputs(graph7, gains_di, t.states[k]))
            assert t.sat_u[k] == tuple(saturate(u) for u in t.raw_u[k])

    def test_ns_free_dynamics_preserves_quadratic_form(self):
        # with no edges the controller is identically zero
        g = parse_graph("n 1")
        a = F("0.25")
        model = NsModel(a)
        s0 = AgentState(F("1.5"), F("-0.75"))
        t = simulate(g, GainParams(Fraction(0), Fraction(0)), [s0], 100, ns=model)
        form = lambda s: s.x**2 - 2 * a * s.x * s.v + s.v**2
        assert all(form(row[0]) == form(s0) for row in t.states)

    def test_exact_overflow_guard(self, graph7, gains_di, reference_init_di, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_EXACT_BITS", 8)
        with pytest.raises(SimulationOverflowError):
            simulate(graph7, gains_di, reference_init_di, 40)


def reference_backward(t, g, gains, T):
    """Per-agent inversion of one period: the state at -T, or the mismatch message."""
    try:
        return reference.backward_states(t, g, gains, T)
    except ValueError as exc:
        return str(exc)


def kernel_backward(t, g, gains, T):
    try:
        return backward_states(t, g, gains, T)
    except ValueError as exc:
        return str(exc)


def end_anchored(t):
    """The trajectory restarted at its last state with the same inputs.

    Inverting its period walks t back from states[-1] to states[0], so the
    backward check passes and exercises every recorded input.  A lattice
    column stays one, so that `backward_states` inverts it on the lattice.
    """
    if isinstance(t.states, LatticeColumn):
        ticks = t.states.data
        states = LatticeColumn([ticks[-1], *ticks[1:]], t.states.decode)
        return t._replace(states=states)
    return t._replace(states=(t.states[-1],) + t.states[1:])


class TestLatticeKernel:
    """The integer-lattice kernel against the per-agent Fraction stepper."""

    def assert_same_orbit(self, g, gains, init, steps, ns=None):
        t = simulate(g, gains, init, steps, ns=ns)
        states, raw, sat = rollout(g, gains, init, steps, ns)
        assert t.states == states
        assert t.raw_u == raw
        assert t.sat_u == sat
        values = [c for row in t.states[1:] for s in row for c in (s.x, s.v)]
        values += [u for rows in (t.raw_u, t.sat_u) for row in rows for u in row]
        assert all(type(c) is Fraction for c in values)
        return t

    def assert_same_inversion(self, t, g, gains, T):
        expected = reference_backward(t, g, gains, T)
        assert kernel_backward(t, g, gains, T) == expected
        return expected

    def test_random_graphs(self):
        rng = random.Random(20140207)
        models = [None, NsModel(F("1/3")), NsModel(F("-0.4")), NsModel(F("-5/7"))]
        unsat = inverted = 0
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
            ns = models[trial % len(models)]
            t = self.assert_same_orbit(g, gains, init, 12, ns)
            unsat += sum(1 for row in t.raw_u for u in row if abs(u) < 1)
            T = rng.randint(1, 12)
            self.assert_same_inversion(t, g, gains, T)
            before = self.assert_same_inversion(end_anchored(t), g, gains, 12)
            assert tuple(before) == t.states[0]
            inverted += 1
        assert unsat > 100  # the lattice widened on many steps
        assert inverted == 60

    def test_inputs_match_control_inputs(self):
        """`Lattice.inputs` (CSR prefix sums) against `control_inputs` times E = K*D."""
        rng = random.Random(51)

        def mixed_weight(rng):
            return Fraction(rng.randint(1, 40), rng.choice([1, 3, 7, 10, 12, 25]))

        graphs = [WeightedGraph(1, ((),))]
        graphs += [
            WeightedGraph.from_edges(n, random_connected_edges(rng, n, mixed_weight))
            for n in (2, 3, 5, 8, 13)
        ]
        # a star: agent 0 has degree 39
        graphs.append(
            WeightedGraph.from_edges(40, [(0, j, mixed_weight(rng)) for j in range(1, 40)])
        )
        checked = 0
        for g in graphs:
            for bits in (8, 1000):
                gains = GainParams(
                    Fraction(rng.randint(-30, 30), rng.choice([1, 7, 50])),
                    Fraction(rng.randint(-30, 30), rng.choice([2, 9, 50])),
                )
                lattice = Lattice(g, gains, None)
                D = rng.getrandbits(bits) | 1
                X = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(g.n)]
                V = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(g.n)]
                states = Lattice.decode(X, V, D)
                E = lattice.K * D
                expected = [u * E for u in control_inputs(g, gains, states)]
                assert lattice.inputs(X, V) == expected
                checked += 1
        assert checked == 2 * len(graphs)

    def test_seven_agent_fixture(self, graph7, gains_di, reference_init_di):
        """On the integer kind, and on the decimal kind, on which `simulate`
        steps these runs of terminating decimals."""
        for kind in (integer_kind, contextlib.nullcontext):
            with kind():
                t = self.assert_same_orbit(graph7, gains_di, reference_init_di, 44)
                halved = [AgentState(s.x / 2, s.v / 2) for s in reference_init_di]
                off = self.assert_same_orbit(graph7, gains_di, halved, 60)
            assert (t.states.kind is DecimalLattice) == (kind is contextlib.nullcontext)
            assert self.assert_same_inversion(t, graph7, gains_di, 22) == list(t.states[0])
            assert any(abs(u) < 1 for row in off.raw_u for u in row)
            self.assert_same_inversion(off, graph7, gains_di, 22)
            self.assert_same_inversion(end_anchored(off), graph7, gains_di, 60)

    def test_seven_agent_ns(self, graph7, gains_ns):
        for a in (F("1/3"), F("-1/3"), F("0.5")):
            init = [
                AgentState(Fraction(k % 3 - 1), Fraction(1 - k % 2)) for k in range(7)
            ]
            for kind in (integer_kind, contextlib.nullcontext):
                with kind():
                    t = self.assert_same_orbit(graph7, gains_ns, init, 16, NsModel(a))
                self.assert_same_inversion(end_anchored(t), graph7, gains_ns, 16)

    def test_float_mode_equals_the_reference_path(self):
        g = parse_graph("1 2 1", mode="float")
        gains = GainParams(0.4, 0.42)
        init = [AgentState(0.0, 0.0), AgentState(5.0, 0.0)]
        t = simulate(g, gains, init, 6)
        assert t.states.kind is FloatLattice and type(t.states.lattice) is FloatLattice
        assert t.states == rollout(g, gains, init, 6)[0]
        assert isinstance(t.states[6][0].x, float)

    def test_over_is_none_off_the_denominator(self):
        """N/q as a numerator over D, or None when no integer over D is N/q."""
        assert Lattice.over(1, 3, 1) is None
        assert Lattice.over(1, 3, 6) == 2
        assert Lattice.over(-5, 2, 4) == -10

    def test_lattice_denominator_is_reduced(self, graph7, gains_di, gains_ns, reference_init_di):
        halved = [AgentState(s.x / 2, s.v / 2) for s in reference_init_di]
        for gains, ns in ((gains_di, None), (gains_ns, NsModel(F("1/3")))):
            lattice = Lattice(graph7, gains, ns)
            X, V, D = lattice.encode(halved)
            widened = 0
            for _ in range(30):
                (X, V, D), U, E, _ = lattice.step(X, V, D)
                widened += any(-E < u < E for u in U) or ns is not None
                assert math.gcd(D, *X, *V) == 1
            assert widened

    def test_overflow_cap_read_at_call(self, graph7, gains_di, reference_init_di, monkeypatch):
        assert simulate(graph7, gains_di, reference_init_di, 3).steps == 3
        monkeypatch.setattr(dynamics, "MAX_EXACT_BITS", 9)
        with pytest.raises(SimulationOverflowError):
            simulate(graph7, gains_di, reference_init_di, 3)


class TestStatesEqual:
    def test_exact_is_bit_exact(self):
        a = [AgentState(F("1/3"), F(0))]
        assert states_equal(a, [AgentState(F("1/3"), F(0))])
        assert not states_equal(a, [AgentState(F("1/3") + Fraction(1, 10**12), F(0))])

    def test_float_within_tolerance(self):
        a = [AgentState(1.0, 2.0)]
        assert states_equal(a, [AgentState(1.0 + 1e-12, 2.0)])
        assert not states_equal(a, [AgentState(1.0 + 1e-6, 2.0)])


class TestNormalizeNs:
    def test_identity_fixed_point(self):
        A0 = np.array([[0.0, 1.0], [-1.0, 1.0]])
        B0 = np.array([0.0, 1.0])
        model, T = normalize_ns(A0, B0)
        assert model.a == pytest.approx(0.5)
        assert np.allclose(T, np.eye(2))

    def test_rotation_pair(self):
        theta = math.pi / 3
        A0 = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        B0 = np.array([1.0, 0.0])
        model, T = normalize_ns(A0, B0)
        assert model.a == pytest.approx(0.5)
        Tinv = np.linalg.inv(T)
        canon = np.array([[0.0, 1.0], [-1.0, 2 * model.a]])
        assert np.allclose(Tinv @ A0 @ T, canon, atol=1e-12)
        assert np.allclose(Tinv @ B0, [0.0, 1.0], atol=1e-12)

    def test_rejects_eigenvalues_at_one(self):
        with pytest.raises(NormalizationError):
            normalize_ns(np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([0.0, 1.0]))

    def test_rejects_pure_imaginary(self):
        with pytest.raises(NormalizationError, match="j"):
            normalize_ns(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([0.0, 1.0]))

    def test_rejects_uncontrollable(self):
        A0 = np.array([[0.0, 1.0], [-1.0, 1.0]])
        with pytest.raises(NormalizationError, match="controllable"):
            normalize_ns(A0, np.array([0.0, 0.0]))

    def test_rejects_off_circle(self):
        with pytest.raises(NormalizationError, match="unit circle"):
            normalize_ns(np.array([[0.0, 1.0], [-0.5, 1.0]]), np.array([0.0, 1.0]))


def _mul(X, Y):
    return tuple(
        tuple(sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0])))
        for i in range(len(X))
    )


def _inv(X):
    (p, q), (r, s) = X
    det = Fraction(p * s - q * r)
    return ((s / det, -q / det), (-r / det, p / det))


def _rational(rng, nonzero=False):
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if value or not nonzero:
            return value


def _rational_pair(rng, trace):
    """A0 = P R P^-1 with rational P and R, det R = 1 and trace R = `trace`,
    and a rational B0 that makes the pair controllable."""
    while True:
        r00, r01 = _rational(rng), _rational(rng, nonzero=True)
        r11 = trace - r00
        R = ((r00, r01), ((r00 * r11 - 1) / r01, r11))
        P = ((_rational(rng), _rational(rng)), (_rational(rng), _rational(rng)))
        if P[0][0] * P[1][1] == P[0][1] * P[1][0]:
            continue
        A0 = _mul(_mul(P, R), _inv(P))
        B0 = (_rational(rng), _rational(rng))
        AB = _mul(A0, tuple((b,) for b in B0))
        if B0[0] * AB[1][0] != B0[1] * AB[0][0]:
            return A0, B0


def _reference_ns(A0, B0):
    """Float reference for normalize_ns in numpy: (a, T = ctrb @ inv(ctrb_c))."""
    A0 = np.asarray(A0, dtype=float)
    B0 = np.asarray(B0, dtype=float).reshape(2)
    ctrb = np.column_stack([B0, A0 @ B0])
    a = float(np.trace(A0)) / 2.0
    return a, ctrb @ np.linalg.inv(np.array([[0.0, 1.0], [1.0, 2.0 * a]]))


class TestNormalizeNsExact:
    @pytest.mark.parametrize("trace", [F("1"), F("3/5"), F("-7/4"), F("1/3"), F("-1/100")])
    def test_rational_pair_is_exact(self, trace):
        rng = random.Random(str(trace))
        for _ in range(8):
            A0, B0 = _rational_pair(rng, trace)
            model, T = normalize_ns(A0, B0)
            assert isinstance(model.a, Fraction) and model.a == trace / 2
            assert all(isinstance(v, Fraction) for row in T for v in row)
            Tinv = _inv(T)
            assert _mul(_mul(Tinv, A0), T) == ((0, 1), (-1, 2 * model.a))
            assert _mul(Tinv, tuple((b,) for b in B0)) == ((0,), (1,))

    def test_exact_det_just_off_circle_is_rejected(self):
        A0 = [[0, 1], [-(1 + Fraction(1, 10**30)), 1]]
        with pytest.raises(NormalizationError, match="unit circle"):
            normalize_ns(A0, [0, 1])
        # the float gates allow det 1e-6 off the circle
        model, _ = normalize_ns([[float(v) for v in row] for row in A0], [0.0, 1.0])
        assert model.a == 0.5

    def test_exact_gates(self):
        with pytest.raises(NormalizationError, match="controllable"):
            normalize_ns([[0, 1], [-1, 1]], [0, 0])
        with pytest.raises(NormalizationError, match=r"\+-1"):
            normalize_ns([[1, 1], [0, 1]], [0, 1])
        with pytest.raises(NormalizationError, match="j"):
            normalize_ns([[0, 1], [-1, 0]], [0, 1])
        # exact gates pass a trace within 1e-6 of 2 or of 0; float gates do not
        for trace, message in [(F("1.9999999"), r"\+-1"), (F("1e-9"), "j")]:
            model, _ = normalize_ns([[0, 1], [-1, trace]], [0, 1])
            assert model.a == trace / 2
            with pytest.raises(NormalizationError, match=message):
                normalize_ns([[0.0, 1.0], [-1.0, float(trace)]], [0.0, 1.0])

    def test_exact_model_runs_on_the_lattice(self, graph7, gains_ns):
        A0, B0 = _rational_pair(random.Random(3), F("3/5"))
        model, _ = normalize_ns(A0, B0)
        plan = synthesize_ns(graph7, model, gains_ns)
        t = simulate(graph7, plan.gains, plan.init, 2 * plan.period, ns=model)
        assert isinstance(t.states, LatticeColumn)
        assert t.states[plan.period] == t.states[0]
        assert verification_report(graph7, plan, t)["ok"]

    def test_float_matches_numpy_reference(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 200:
            A0 = rng.uniform(-2.0, 2.0, size=(2, 2))
            A0 /= math.sqrt(abs(np.linalg.det(A0)))
            B0 = rng.uniform(-1.0, 1.0, size=2)
            if np.linalg.det(A0) < 0 or not 1e-3 < abs(np.trace(A0)) < 2 - 1e-3:
                continue
            if abs(np.linalg.det(np.column_stack([B0, A0 @ B0]))) < 0.05:
                continue
            a, T_ref = _reference_ns(A0, B0)
            model, T = normalize_ns(A0, B0)
            assert type(model.a) is float and abs(model.a - a) <= 1e-12
            assert np.abs(np.array(T) - T_ref).max() <= 1e-12
            checked += 1

    @pytest.mark.parametrize(
        "B0",
        [
            [2.0, 1.0],
            [[2.0], [1.0]],
            [[2.0, 1.0]],
            np.array([[2.0], [1.0]]),
            (F(2), 1.0),
        ],
        ids=["flat", "2x1", "1x2", "array-2x1", "mixed"],
    )
    def test_input_shapes(self, B0):
        A0 = np.array([[0.0, 1.0], [-1.0, 1.0]])
        model, T = normalize_ns(A0, B0)
        a, T_ref = _reference_ns(A0, B0)
        assert model.a == a and np.allclose(T, T_ref, atol=1e-15)

    def test_shape_errors(self):
        with pytest.raises(NormalizationError, match="2x2"):
            normalize_ns([[0, 1, 0], [-1, 1, 0], [0, 0, 1]], [0, 1, 0])
        with pytest.raises(NormalizationError, match="2x2"):
            normalize_ns([0, 1, -1, 1], [0, 1])
        with pytest.raises(NormalizationError, match="2x2"):
            normalize_ns([[0, 1, 0], [-1, 1, 0]], [0, 1])
        with pytest.raises(NormalizationError, match="2 entries"):
            normalize_ns([[0, 1], [-1, 1]], [0, 1, 0])


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda g, gains, init: simulate(g, gains, init, -1), ValueError, "steps must be >= 0"),
        (
            lambda g, gains, init: simulate(g, gains, init[:-1], 2),
            ValueError,
            "expected 7 agent states, got 6",
        ),
        (
            lambda g, gains, init: simulate(g, gains, init[:-1], 0),
            ValueError,
            "expected 7 agent states, got 6",
        ),
        (
            lambda g, gains, init: normalize_ns(3, [0, 1]),
            NormalizationError,
            "system matrix must be 2x2",
        ),
    ],
    ids=["negative-steps", "agent-count", "agent-count-no-steps", "matrix-not-iterable"],
)
def test_library_argument_errors(call, error, message, graph7, gains_di, reference_init_di):
    """A bad argument to `simulate` or `normalize_ns` raises with its message."""
    with pytest.raises(error) as exc:
        call(graph7, gains_di, reference_init_di)
    assert str(exc.value) == message
