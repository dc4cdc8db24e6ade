"""Trajectory verification: recurrence, input patterns, closed forms, period.

Pattern checks operate on the raw (unsaturated) inputs: the synthesis
arguments bound u_i(k) itself, and sat(u) = +-1 alone would be a strictly
weaker check.

Every check reads a trajectory's `LatticeColumn`s in their row layout and
has one body.  What depends on the number kind it takes from the column's
`kind`: on the `Decimal`s or integers of an exact run, ticks compare with
`==`, and on the values of a float run, through `scalars_equal`, within
`FLOAT_TOL`.  The inverted period is exact-only, and the pattern bounds
take no tolerance in any kind.  Each check runs in the exact decimal
context (`scalars.exactly`).  The agent model is the trajectory's or plan's
own `ns`.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from typing import Optional, Sequence

from .dynamics import (
    AgentState,
    DecimalLattice,
    GainParams,
    Lattice,
    NsModel,
    Trajectory,
    _weight_objects,
    clamped,
    simulate,
)
from .graphs import Partition, WeightedGraph
from .records import Record
from .scalars import Scalar, exactly
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


@exactly
def backward_states(
    t: Trajectory,
    g: WeightedGraph,
    gains: GainParams,
    T: int,
) -> Optional[list[AgentState]]:
    """Invert one period, extending the input sequence T-periodically.

    Starting from states[0], each backward step applies the exact inverse of
    the one-step map with the saturated input recorded one period later, then
    confirms the controller at the reconstructed state reproduces that input.
    Returns the state at time -T, or None unless the ticks and the loop are
    exact; raises `BackwardExtensionError` at the first input the controller
    does not reproduce.  The trajectory is inverted on its loop in its own
    number kind, `t.states.kind`, with its rows S/Es as they are, decoded
    only to name a mismatch: on `t.states.lattice` when that was built from
    these graph and gains objects and `t.ns`, else on one built for them, of
    `Lattice.kind_of` the loop's weights, gains and a.  A decimal run whose
    loop holds another exact value is inverted on the integer `Lattice`, its
    start tick and rows S/Es encoded in it.  Reduced ticks
    are equal exactly when the states are, so a tick at -T equal to the
    start tick gives the start row `t.states[0]` itself.  On the run's own
    lattice, the class steps k < last of its `ClassRecord` unstep as two class
    states while each reaches tick k under the saturated row that tick k's two
    class states give, decided as `Lattice.class_step` decides it; every
    other step unsteps per agent under the inputs `Lattice.inputs` recomputes.
    """
    if t.steps < T:
        raise ValueError(f"trajectory covers {t.steps} steps, need {T}")
    X, V, D = t.states.data[0]
    sat_rows = t.sat_u.data
    lattice = t.states.lattice
    # reused only for the graph and gains objects and the model it was built for
    if not (
        lattice is not None and lattice.graph is g and lattice.gains is gains and lattice.ns == t.ns
    ):
        weights = _weight_objects(g)
        a = () if t.ns is None else (t.ns.a,)
        kind = Lattice.kind_of(chain(gains, a, weights.values(), (D,)))
        lattice = (t.states.kind if kind is DecimalLattice else kind)(g, gains, t.ns, weights)
    if not lattice.exact:
        return None
    if type(lattice) is not t.states.kind:
        # a decimal run under a loop of other exact values, on the integer kind
        X, V, D = lattice.encode(t.states[0])
        sat_rows = list(map(lattice.encode_inputs, t.sat_u))
    # the run's own lattice built ticks 0..last on the groups of its record
    classes = t.states.classes if lattice is t.states.lattice else None
    # the class path holds while the tick in hand is tick k+1 of a class step k
    on_prefix = classes is not None and T <= classes.last
    for back in range(1, T + 1):
        k = T - back
        S, Es = sat_rows[k]
        if on_prefix:
            # tick k's class states saturate every input by group with dY's sign
            # (as `class_step` decides); under that row the tick in hand unsteps
            # as its two class states, and reaching tick k's confirms the row
            tick, j = t.states.data[k], classes.j
            xs, vs = [tick[0][0], tick[0][j]], [tick[1][0], tick[1][j]]
            dY = lattice.A * (xs[1] - xs[0]) + lattice.B * (vs[1] - vs[0])
            E = lattice.K * tick[2]
            on_prefix = (
                Es == E
                and classes.least * abs(dY) >= E
                and S == classes.signs[E][dY > 0]
                and lattice.unstep([X[0], X[j]], [V[0], V[j]], D, [S[0], S[j]], Es)
                == (xs, vs, tick[2])
            )
            if on_prefix:
                X, V, D = tick
                continue
        X, V, D = lattice.unstep(X, V, D, S, Es)
        E = lattice.K * D
        U = lattice.inputs(X, V)
        # sat(u/E) == s/Es; over Es == E that is S == clamped(U, E)
        if (S == clamped(U, E)) if Es == E else all(
            s == Es if u >= E else s == -Es if u <= -E else u * Es == s * E
            for u, s in zip(U, S)
        ):
            continue
        sat, recomputed = lattice.ratios(S, Es), lattice.ratios(clamped(U, E), E)
        i = next(i for i, (used, new) in enumerate(zip(sat, recomputed)) if used != new)
        raise BackwardExtensionError(
            f"backward extension inconsistent at time {-back}, agent "
            f"{i + 1}: input {recomputed[i]} vs recorded {sat[i]}"
        )
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
    are supplied and the ticks and the loop are exact; recorded inputs that
    do not extend backward fail it.
    """
    if t.steps < T:
        raise ValueError(f"trajectory covers {t.steps} steps, need {T}")
    if not t.states.kind.equal(t.states.data[T], t.states.data[0]):
        return False
    if graph is None or gains is None:
        return True
    try:
        before = backward_states(t, graph, gains, T)
    except BackwardExtensionError:
        return False
    # `backward_states` has compared the tick at -T with the start tick and,
    # when they are equal, returned the start row's own states, so this
    # compares them by identity
    return before is None or tuple(before) == tuple(t.states[0])


def check_pattern(t: Trajectory, p: Partition, pattern: PatternSpec) -> PatternReport:
    """Verify raw u_i(k) >= 1 / <= -1 per class and phase over one period.

    The sign is read once per step and class.  A raw row is U over E > 0,
    so u >= 1 is U >= E and u <= -1 is U <= -E: the bounds admit no
    tolerance, on integers and on floats (E = 1.0) alike.
    """
    T = pattern.period
    if t.steps < T:
        raise ValueError(f"trajectory covers {t.steps} steps, need {T}")
    violations: list[tuple[int, int, Scalar]] = []
    even = [i in p.s_even for i in range(t.n)]
    decode = t.raw_u.decode
    for k in range(T):
        # an agent is driven up (+1) when its class is the one the phase drives up
        up = pattern.sign_at(k, True) > 0
        U, E = t.raw_u.data[k]
        for i, u in enumerate(U):
            if not (u >= E if even[i] == up else u <= -E):
                violations.append((k, i, decode([u], E)[0]))
    return PatternReport(not violations, tuple(violations))


@exactly
def oracle_check_di(t: Trajectory, plan: OrbitPlan) -> bool:
    """Every recorded state matches the closed form (independent of the stepper).

    The even class drives with +1 for m steps then -1; the odd class is
    mirrored, so with up = steps driven by the first sign and down = steps
    since it flipped, x = x0 + k v0 + sign (up(up-1)/2 + down up - down(down-1)/2)
    and v = v0 + sign (up - down).  The form is built once per distinct
    `(x0, v0, class)`, keyed by the identity of the start values: agents that
    share their start state objects but not their class get a form each.
    Each form holds x0 and v0 as numerators over q (`encode_inputs`: the lcm
    of their denominators on integers, 1 on decimals, 1.0 on floats), is
    scaled to the tick's D once per step (`over`), and the tick is compared
    with those numerators (`equal`).
    """
    m = plan.half_period
    if t.steps < 2 * m:
        raise ValueError(f"trajectory covers {t.steps} steps, need {2 * m}")
    kind = t.states.kind
    even = plan.partition.s_even
    slots: dict[tuple[int, int, bool], int] = {}
    forms = []
    agent_form = []  # the slot in `forms` of each agent
    for i, s in enumerate(plan.init):
        key = (id(s.x), id(s.v), i in even)
        if key not in slots:
            slots[key] = len(forms)
            (X0, V0), q = kind.encode_inputs([s.x, s.v])
            forms.append((q, X0, V0, q if key[2] else -q))
        agent_form.append(slots[key])
    for k in range(2 * m + 1):
        up = min(k, m)
        down = k - up
        drift = up * (up - 1) // 2 + down * up - down * (down - 1) // 2
        tick = t.states.data[k]
        D = tick[2]
        want_x, want_v = [], []
        for q, X0, V0, sq in forms:
            x = kind.over(X0 + k * V0 + sq * drift, q, D)
            v = kind.over(V0 + sq * (up - down), q, D)
            if x is None or v is None:
                return False  # no numerator over D is x or v
            want_x.append(x)
            want_v.append(v)
        want = list(map(want_x.__getitem__, agent_form)), list(map(want_v.__getitem__, agent_form))
        if not kind.equal((*want, D), tick):
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
    ticks, equal = t.states.data, t.states.kind.equal
    return next((k for k in range(1, T_max + 1) if equal(ticks[k], ticks[0])), None)


@exactly
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
