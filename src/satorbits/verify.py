"""Trajectory verification: recurrence, input patterns, closed forms, period.

Pattern checks operate on the raw (unsaturated) inputs: the synthesis
arguments bound u_i(k) itself, and sat(u) = +-1 alone would be a strictly
weaker check.

Every check has two paths, chosen by column type.  On a `LatticeColumn`, the
columns of an exact run, it decides on the integers of the rows.  On a tuple
column, the columns of a float run or of a CSV that differs from its
re-simulation, it works per agent on the scalars (`inverse_step_*` with
`control_inputs`, or `closed_form_di`) and compares through `states_equal`,
which is bit-exact on rationals and allows `FLOAT_TOL` on floats.  The tuple
path is the reference that the integer path is tested against.  The agent
model is the trajectory's or plan's own `ns`.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Optional, Sequence

from .dynamics import (
    AgentState,
    GainParams,
    Lattice,
    LatticeColumn,
    NsModel,
    Trajectory,
    clamped,
    control_inputs,
    inverse_step_di,
    inverse_step_ns,
    ratios,
    saturate,
    simulate,
    states_equal,
)
from .graphs import Partition, WeightedGraph
from .records import Record
from .scalars import Scalar, is_exact, scalars_equal
from .synthesis import OrbitPlan, PatternSpec


class PatternReport(Record, namedtuple("PatternReport", "ok violations")):
    """Whether the input pattern held, and `violations`: a (step, agent, raw
    input) triple for every failed inequality."""

    __slots__ = ()

    @property
    def first_violation(self) -> Optional[tuple[int, int, Scalar]]:
        return self.violations[0] if self.violations else None


class BackwardExtensionError(ValueError):
    """The recorded inputs do not extend the trajectory one period backward."""


def _trajectory_is_exact(t: Trajectory) -> bool:
    # a `LatticeColumn` of states holds integer ticks
    if isinstance(t.states, LatticeColumn):
        return True
    return all(is_exact(s.x) and is_exact(s.v) for s in t.states[0])


def backward_states(
    t: Trajectory,
    g: WeightedGraph,
    gains: GainParams,
    T: int,
) -> list[AgentState]:
    """Invert one period, extending the input sequence T-periodically.

    Starting from states[0], each backward step applies the exact inverse of
    the one-step map with the saturated input recorded one period later, then
    confirms the controller at the reconstructed state reproduces that input.
    Returns the state at time -T; raises `BackwardExtensionError` at the first
    input the controller does not reproduce.  A `LatticeColumn` trajectory is
    inverted on the `Lattice` from its tick `states.data[0]`, with its integer
    rows S/Es as they are, decoded only to name a mismatch; the lattice is
    `t.states.lattice` when that was built from these graph and gains objects
    and `t.ns`.  Reduced ticks are equal exactly when the states are, so on
    the run's own lattice (`t.raw_u.lattice` too) an unstepped tick equal to
    the recorded tick `t.states.data[T - back]` takes its inputs from the raw
    row the run computed there, not from `Lattice.inputs`; and a tick at -T
    equal to the start tick gives the start row `t.states[0]` itself.  A
    tuple column is inverted per agent with `inverse_step_*` and
    `control_inputs`.
    """
    if t.steps < T:
        raise ValueError(f"trajectory covers {t.steps} steps, need {T}")
    lattice = None
    if isinstance(t.states, LatticeColumn) and isinstance(t.sat_u, LatticeColumn):
        lattice = t.states.lattice
        # reused only for the graph and gains objects and the model it was built for
        if not (
            lattice is not None
            and lattice.graph is g
            and lattice.gains is gains
            and lattice.ns == t.ns
        ):
            # the states are integer ticks, so only the loop's exactness is open
            lattice = Lattice.of(g, gains, t.ns, ())
    if lattice is not None:
        X, V, D = t.states.data[0]
        # the run's own lattice recorded its inputs at each of its ticks
        own = isinstance(t.raw_u, LatticeColumn) and t.raw_u.lattice is lattice is t.states.lattice
    else:
        current = list(t.states[0])
    for back in range(1, T + 1):
        if lattice is None:
            sat = t.sat_u[T - back]
            if t.ns is None:
                current = [inverse_step_di(s, u) for s, u in zip(current, sat)]
            else:
                current = [inverse_step_ns(s, u, t.ns) for s, u in zip(current, sat)]
            recomputed = [saturate(u) for u in control_inputs(g, gains, current)]
        else:
            S, Es = t.sat_u.data[T - back]
            tick = X, V, D = lattice.unstep(X, V, D, S, Es)
            if own and tick == t.states.data[T - back]:
                U, E = t.raw_u.data[T - back]
            else:
                E = lattice.K * D
                U = lattice.inputs(X, V)
            # sat(u/E) == s/Es; over Es == E (an own run's rows) that is S == clamped(U, E)
            if (S == clamped(U, E)) if Es == E else all(
                s == Es if u >= E else s == -Es if u <= -E else u * Es == s * E
                for u, s in zip(U, S)
            ):
                continue
            sat, recomputed = ratios(S, Es), [lattice.saturated(u, E) for u in U]
        for i, (u_used, u_new) in enumerate(zip(sat, recomputed)):
            if not scalars_equal(u_used, u_new):
                raise BackwardExtensionError(
                    f"backward extension inconsistent at time {-back}, agent "
                    f"{i + 1}: input {u_new} vs recorded {u_used}"
                )
    if lattice is None:
        return current
    if (X, V, D) == t.states.data[0]:
        return list(t.states[0])
    return list(lattice.decode(X, V, D))


def check_periodicity(
    t: Trajectory,
    T: int,
    graph: WeightedGraph | None = None,
    gains: GainParams | None = None,
) -> bool:
    """states[T] == states[0]; in exact mode, also one inverted period.

    The backward check (two-sided periodicity) runs when `graph` and `gains`
    are supplied and the trajectory is exact; recorded inputs that do not
    extend backward fail it.  Exact states are compared with `==`.
    """
    if t.steps < T:
        raise ValueError(f"trajectory covers {t.steps} steps, need {T}")
    if isinstance(t.states, LatticeColumn):
        # reduced ticks are equal exactly when the states are
        if t.states.data[T] != t.states.data[0]:
            return False
    elif not states_equal(t.states[T], t.states[0]):
        return False
    if graph is not None and gains is not None and _trajectory_is_exact(t):
        try:
            before = backward_states(t, graph, gains, T)
        except BackwardExtensionError:
            return False
        # on a `LatticeColumn` `backward_states` has compared the tick at -T
        # with the start tick and, when they are equal, returned the start
        # row's own states, so this compares them by identity
        return tuple(before) == tuple(t.states[0])
    return True


def check_pattern(t: Trajectory, p: Partition, pattern: PatternSpec) -> PatternReport:
    """Verify raw u_i(k) >= 1 / <= -1 per class and phase over one period.

    The sign is read once per step and class.  The bounds admit no
    tolerance, on the integers of a `LatticeColumn` and on the scalars of a
    tuple column alike.
    """
    T = pattern.period
    if t.steps < T:
        raise ValueError(f"trajectory covers {t.steps} steps, need {T}")
    violations: list[tuple[int, int, Scalar]] = []
    even = [i in p.s_even for i in range(t.n)]
    lattice = isinstance(t.raw_u, LatticeColumn)
    for k in range(T):
        # an agent is driven up (+1) when its class is the one the phase drives up
        up = pattern.sign_at(k, True) > 0
        if lattice:
            # u = U/E with E > 0: u >= 1 is U >= E and u <= -1 is U <= -E
            U, E = t.raw_u.data[k]
            for i, u in enumerate(U):
                if not (u >= E if even[i] == up else u <= -E):
                    violations.append((k, i, Fraction(u, E)))
        else:
            for i, u in enumerate(t.raw_u[k]):
                if not (u >= 1 if even[i] == up else u <= -1):
                    violations.append((k, i, u))
    return PatternReport(not violations, tuple(violations))


def closed_form_di(x0: Scalar, v0: Scalar, m: int, k: int, *, even: bool) -> AgentState:
    """Piecewise closed form of the saturated double-integrator orbit.

    The even class drives with +1 for m steps then -1; the odd class is mirrored.
    `even` is keyword-only: an older `(x0, v0, "odd", m, k)` call fails loudly.
    """
    if not 0 <= k <= 2 * m:
        raise ValueError(f"step {k} outside [0, {2 * m}]")
    sign = 1 if even else -1
    if k <= m:
        x = x0 + k * v0 + sign * Fraction(k * (k - 1), 2)
        v = v0 + sign * k
        return AgentState(x, v)
    xm = x0 + m * v0 + sign * Fraction(m * (m - 1), 2)
    vm = v0 + sign * m
    d = k - m
    x = xm + d * vm - sign * Fraction(d * (d - 1), 2)
    v = vm - sign * d
    return AgentState(x, v)


def _closed_form_start(x0: Fraction, v0: Fraction, even: bool) -> tuple[int, int, int, int]:
    """(q, X0, V0, sq): x0 and v0 as numerators over q, the lcm of their
    denominators, and sq = q signed by the class's first drive."""
    q = math.lcm(x0.denominator, v0.denominator)
    X0, V0 = x0.numerator * (q // x0.denominator), v0.numerator * (q // v0.denominator)
    return q, X0, V0, q if even else -q


def oracle_check_di(t: Trajectory, plan: OrbitPlan) -> bool:
    """Every recorded state matches the closed form (independent of the stepper).

    The closed form is built once per distinct `(x0, v0, class)`, keyed by
    the identity of the start values: agents that share their start state
    objects but not their class get a form each.  On a `LatticeColumn`, for
    an exact plan, it is computed on integers over q, the lcm of the
    denominators of x0 and v0; a numerator x over the tick's D matches X
    over q exactly when x = X*D/q, so each form is scaled to D once per step
    and the tick's numerators are compared with those integers.  On a tuple
    column `closed_form_di` and `states_equal` do it per agent.
    """
    m = plan.half_period
    if t.steps < 2 * m:
        raise ValueError(f"trajectory covers {t.steps} steps, need {2 * m}")
    lattice = isinstance(t.states, LatticeColumn) and all(
        is_exact(s.x) and is_exact(s.v) for s in plan.init
    )
    even = plan.partition.s_even
    slots: dict[tuple[int, int, bool], int] = {}
    forms = []
    agent_form = []  # the slot in `forms` of each agent
    for i, s in enumerate(plan.init):
        key = (id(s.x), id(s.v), i in even)
        if key not in slots:
            slots[key] = len(forms)
            forms.append(
                _closed_form_start(s.x, s.v, key[2])
                if lattice
                else [closed_form_di(s.x, s.v, m, k, even=key[2]) for k in range(2 * m + 1)]
            )
        agent_form.append(slots[key])
    if not lattice:
        return all(
            states_equal([t.states[k][i]], [forms[f][k]])
            for i, f in enumerate(agent_form)
            for k in range(2 * m + 1)
        )
    for k in range(2 * m + 1):
        # up = steps driven by the first sign, down = steps since it flipped:
        # x = x0 + k v0 + sign (up(up-1)/2 + down up - down(down-1)/2)
        up = min(k, m)
        down = k - up
        drift = up * (up - 1) // 2 + down * up - down * (down - 1) // 2
        Xk, Vk, D = t.states.data[k]
        want_x, want_v = [], []
        for q, X0, V0, sq in forms:
            x, x_rest = divmod((X0 + k * V0 + sq * drift) * D, q)
            v, v_rest = divmod((V0 + sq * (up - down)) * D, q)
            if x_rest or v_rest:
                return False  # no numerator over D is X/q or V/q
            want_x.append(x)
            want_v.append(v)
        if list(map(want_x.__getitem__, agent_form)) != Xk:
            return False
        if list(map(want_v.__getitem__, agent_form)) != Vk:
            return False
    return True


def minimal_period(
    g: WeightedGraph,
    gains: GainParams,
    init: Sequence[AgentState],
    T_max: int,
    ns: NsModel | None = None,
    rollout: Trajectory | None = None,
) -> Optional[int]:
    """Smallest t in [1, T_max] with state(t) == state(0), by enumeration.

    `rollout`, a trajectory from exactly `init` of at least T_max steps, is
    scanned instead of simulating again; any other trajectory is ignored.
    """
    if T_max < 1:
        raise ValueError("T_max must be >= 1")
    t = rollout
    if t is None or t.steps < T_max or tuple(t.states[0]) != tuple(init):
        t = simulate(g, gains, init, T_max, ns=ns)
    if isinstance(t.states, LatticeColumn):
        ticks = t.states.data
        return next((k for k in range(1, T_max + 1) if ticks[k] == ticks[0]), None)
    return next(
        (k for k in range(1, T_max + 1) if states_equal(t.states[k], t.states[0])), None
    )


def verification_report(
    g: WeightedGraph,
    plan: OrbitPlan,
    t: Trajectory,
    rollout: Trajectory | None = None,
) -> dict:
    """Run every applicable check and collect a machine-readable summary.

    `rollout` is passed on to `minimal_period`: a simulation from
    t.states[0] that covers 2T steps saves rolling them out again.
    """
    report: dict = {"model": plan.model, "period": plan.period}
    report["periodicity"] = check_periodicity(t, plan.period, graph=g, gains=plan.gains)
    pattern = check_pattern(t, plan.partition, plan.pattern)
    report["pattern"] = pattern.ok
    if pattern.first_violation is not None:
        k, agent, value = pattern.first_violation
        report["pattern_first_violation"] = {
            "step": k,
            "agent": agent + 1,
            "raw_input": str(value),
        }
    if plan.model == "di":
        report["closed_form"] = oracle_check_di(t, plan)
    found = minimal_period(g, plan.gains, t.states[0], 2 * plan.period, plan.ns, rollout)
    report["minimal_period"] = found
    report["ok"] = bool(
        report["periodicity"]
        and report["pattern"]
        and report.get("closed_form", True)
        and found is not None
        and plan.period % found == 0
    )
    return report
