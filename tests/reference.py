"""The per-agent reference: the controller, the steppers and the scalar
bodies of the checks, on trajectories whose columns are tuples of rows; and
the line-by-line readers of the graph and plan files.

`satorbits` steps and checks every run in the lattice row layout (`Lattice`
on integers, `DecimalLattice` on terminating decimals, `FloatLattice` on
floats).  These functions do the same agent
by agent on the scalars themselves, and the differential tests compare the
two: the kernels bit for bit, and each check's one body with its body here
on a `tuple_copy` (`test_lattice_paths.assert_paths_agree`).  The readers
take one line at a time, as the oracles for `parse_graph` and
`plan_from_text`, which read a text in the writer's form in whole columns.
The synthesis conditions are written here as the paper gives them, the
oracles of `synthesis`' integer closed forms.
"""

from __future__ import annotations

import contextlib
import math
import re
from fractions import Fraction
from itertools import count, repeat
from typing import Optional, Sequence

from satorbits.cli import CSV_HEADER, CliError
from satorbits.dynamics import (
    AgentState,
    DecimalLattice,
    FloatLattice,
    GainParams,
    Lattice,
    LatticeColumn,
    NsModel,
    Trajectory,
)
from satorbits.graphs import (
    DistanceClasses,
    GraphFormatError,
    NotConnectedError,
    Partition,
    WeightedGraph,
    make_partition,
)
from satorbits.scalars import (
    Scalar,
    format_scalar,
    is_exact,
    over_digit_limit,
    parse_int,
    parse_scalar,
    quoted,
    scalars_equal,
)
from satorbits.synthesis import OrbitPlan, PatternSpec
from satorbits.verify import BackwardExtensionError, PatternReport

# ---------------------------------------------------------------------------
# the loop, agent by agent


def saturate(u: Scalar) -> Scalar:
    """sgn(u) * min(1, |u|)."""
    one = 1 if is_exact(u) else 1.0
    if u > one:
        return one
    if u < -one:
        return -one
    return u


def control_inputs(
    g: WeightedGraph, gains: GainParams, states: Sequence[AgentState]
) -> list[Scalar]:
    """u_i = alpha * sum a_ij (x_j - x_i) + beta * sum a_ij (v_j - v_i)."""
    if len(states) != g.n:
        raise ValueError(f"expected {g.n} agent states, got {len(states)}")
    out: list[Scalar] = []
    for i in range(g.n):
        acc_x = 0
        acc_v = 0
        for j, w in g.adjacency[i]:
            acc_x = acc_x + w * (states[j].x - states[i].x)
            acc_v = acc_v + w * (states[j].v - states[i].v)
        out.append(gains.alpha * acc_x + gains.beta * acc_v)
    return out


def step_di(s: AgentState, u_sat: Scalar) -> AgentState:
    return AgentState(s.x + s.v, s.v + u_sat)


def step_ns(s: AgentState, u_sat: Scalar, m: NsModel) -> AgentState:
    return AgentState(s.v, -s.x + 2 * m.a * s.v + u_sat)


def inverse_step_di(s: AgentState, u_sat: Scalar) -> AgentState:
    """Exact inverse of step_di given the applied saturated input."""
    v = s.v - u_sat
    return AgentState(s.x - v, v)


def inverse_step_ns(s: AgentState, u_sat: Scalar, m: NsModel) -> AgentState:
    v_prev = s.x
    return AgentState(2 * m.a * v_prev + u_sat - s.v, v_prev)


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


# ---------------------------------------------------------------------------
# the synthesis conditions, as the paper writes them, on scalars: exact on
# `Fraction`s, the oracles of `synthesis`' integer closed forms


def gate_di(gains: GainParams) -> bool:
    """0 < alpha < beta < (3/2) alpha."""
    return 0 < gains.alpha < gains.beta < Fraction(3, 2) * gains.alpha


def min_half_period(gains: GainParams, a_bar: Scalar) -> int:
    """max(3, ceil((4(alpha-beta) + 2/a_bar) / (3 alpha - 2 beta)))."""
    alpha, beta = gains
    return max(3, math.ceil((4 * (alpha - beta) + 2 / a_bar) / (3 * alpha - 2 * beta)))


def interval_bounds(w: Scalar, gains: GainParams, m: int) -> tuple[Scalar, Scalar]:
    """The interval of x_i(0) - x_j(0) on a cross edge of weight w."""
    alpha, beta = gains
    lower = (1 / w + (beta - alpha) * (m - 2)) / alpha
    upper = (2 * alpha * (m - 1) - beta * (m - 2) - 1 / w) / alpha
    return lower, upper


def gate_ns(a: Scalar, gains: GainParams, a_bar: Scalar) -> bool:
    """|alpha| <= sgn(a) (beta - a/a_bar)."""
    sign = (a > 0) - (a < 0)
    return abs(gains.alpha) <= sign * (gains.beta - a / a_bar)


def key_inequalities(w: Scalar, a: Scalar, gains: GainParams) -> tuple[bool, bool]:
    """w (alpha-beta)/a <= -1 and w (-alpha-beta)/a <= -1."""
    alpha, beta = gains
    return w * (alpha - beta) / a <= -1, w * (-alpha - beta) / a <= -1


def states_equal(a: Sequence[AgentState], b: Sequence[AgentState]) -> bool:
    """Agentwise `scalars_equal`: bit-exact for rationals, within `FLOAT_TOL` for floats."""
    return all(scalars_equal(p.x, q.x) and scalars_equal(p.v, q.v) for p, q in zip(a, b))


def rollout(g, gains, init, steps, ns=None):
    """(states, raw inputs, saturated inputs) of the per-agent stepper, tuples of rows."""
    states, raw_hist, sat_hist = [tuple(init)], [], []
    for _ in range(steps):
        raw = control_inputs(g, gains, states[-1])
        sat = [saturate(u) for u in raw]
        if ns is None:
            nxt = tuple(step_di(s, u) for s, u in zip(states[-1], sat))
        else:
            nxt = tuple(step_ns(s, u, ns) for s, u in zip(states[-1], sat))
        states.append(nxt)
        raw_hist.append(tuple(raw))
        sat_hist.append(tuple(sat))
    return tuple(states), tuple(raw_hist), tuple(sat_hist)


def simulate(g, gains, init, steps, ns=None) -> Trajectory:
    """The per-agent run as a trajectory of tuple columns."""
    return Trajectory(ns, *rollout(g, gains, init, steps, ns))


def reflected_half(t: Trajectory) -> int:
    """The first tick p < t.steps of an exact run whose states are R_c of the
    start's, (c - x, -v) with one c for every agent (c = 0 on ns), over the
    lcm of the start's reduced denominators as the integer kind's reduced
    ticks are; else 0, and 0 on a float run.  Read from the decoded states."""
    start = t.states[0]
    if not all(is_exact(c) for s in start for c in s):
        return 0

    def denominator(row):
        return math.lcm(*(c.denominator for s in row for c in s))

    for p in range(1, t.steps):
        row = t.states[p]
        c = row[0].x + start[0].x
        if (
            (t.ns is None or c == 0)
            and all(s.x == c - s0.x and s.v == -s0.v for s, s0 in zip(row, start))
            and denominator(row) == denominator(start)
        ):
            return p
    return 0


# ---------------------------------------------------------------------------
# the two layouts of a trajectory


def tuple_copy(t: Trajectory) -> Trajectory:
    return t._replace(states=tuple(t.states), raw_u=tuple(t.raw_u), sat_u=tuple(t.sat_u))


def lattice_copy(t: Trajectory) -> Trajectory:
    """The trajectory t with its rows rebuilt in the row layout of their number
    kind, as the CSV reader builds them: on exact rows each state row by
    `Lattice.encode` and each input row by `ratio_row` over the lcm of its
    denominators, on float rows the values over 1.0.  No lattice is kept for
    the checks to reuse."""
    values = [c for row in t.states for s in row for c in s]
    kind = Lattice if all(map(is_exact, values)) else FloatLattice
    return t._replace(
        states=LatticeColumn([kind.encode(row) for row in t.states], kind.decode),
        raw_u=LatticeColumn([kind.encode_inputs(row) for row in t.raw_u], kind.ratios),
        sat_u=LatticeColumn([kind.encode_inputs(row) for row in t.sat_u], kind.ratios),
    )


@contextlib.contextmanager
def integer_kind():
    """Within it, `simulate` steps every exact run on the integer `Lattice`,
    a run of terminating decimals too, so that a test can pin the integer
    kind's rows and steps on the decimal fixtures."""
    kind_of = Lattice.kind_of

    def integer(values):
        kind = kind_of(values)
        return Lattice if kind is DecimalLattice else kind

    Lattice.kind_of = staticmethod(integer)
    try:
        yield
    finally:
        Lattice.kind_of = staticmethod(kind_of)


@contextlib.contextmanager
def decimal_kind():
    """Within it, `simulate` steps every run of terminating decimals on the
    `DecimalLattice`, one whose first step would be a class step too, as no
    start tick has a class record."""
    two_classes = Lattice.two_classes
    Lattice.two_classes = lambda self, X, V: None
    try:
        yield
    finally:
        Lattice.two_classes = two_classes


# ---------------------------------------------------------------------------
# the checks' scalar bodies, on tuple columns


def backward_states(t: Trajectory, g: WeightedGraph, gains: GainParams, T: int) -> list[AgentState]:
    """Invert one period per agent with `inverse_step_*`, confirming each
    recorded input through `control_inputs`; messages as `verify.backward_states`."""
    if t.steps < T:
        raise ValueError(f"trajectory covers {t.steps} steps, need {T}")
    current = list(t.states[0])
    for back in range(1, T + 1):
        sat = t.sat_u[T - back]
        if t.ns is None:
            current = [inverse_step_di(s, u) for s, u in zip(current, sat)]
        else:
            current = [inverse_step_ns(s, u, t.ns) for s, u in zip(current, sat)]
        recomputed = [saturate(u) for u in control_inputs(g, gains, current)]
        for i, (u_used, u_new) in enumerate(zip(sat, recomputed)):
            if not scalars_equal(u_used, u_new):
                raise BackwardExtensionError(
                    f"backward extension inconsistent at time {-back}, agent "
                    f"{i + 1}: input {u_new} vs recorded {u_used}"
                )
    return current


def check_periodicity(
    t: Trajectory,
    T: int,
    graph: Optional[WeightedGraph] = None,
    gains: Optional[GainParams] = None,
) -> bool:
    if t.steps < T:
        raise ValueError(f"trajectory covers {t.steps} steps, need {T}")
    if not states_equal(t.states[T], t.states[0]):
        return False
    exact = all(is_exact(s.x) and is_exact(s.v) for s in t.states[0])
    if graph is not None and gains is not None and exact:
        try:
            before = backward_states(t, graph, gains, T)
        except BackwardExtensionError:
            return False
        return tuple(before) == tuple(t.states[0])
    return True


def check_pattern(t: Trajectory, p: Partition, pattern: PatternSpec) -> PatternReport:
    T = pattern.period
    if t.steps < T:
        raise ValueError(f"trajectory covers {t.steps} steps, need {T}")
    violations = []
    even = [i in p.s_even for i in range(t.n)]
    for k in range(T):
        up = pattern.sign_at(k, True) > 0
        for i, u in enumerate(t.raw_u[k]):
            if not (u >= 1 if even[i] == up else u <= -1):
                violations.append((k, i, u))
    return PatternReport(not violations, tuple(violations))


def oracle_check_di(t: Trajectory, plan: OrbitPlan) -> bool:
    """Every state against `closed_form_di`, per agent through `states_equal`."""
    m = plan.half_period
    if t.steps < 2 * m:
        raise ValueError(f"trajectory covers {t.steps} steps, need {2 * m}")
    even = plan.partition.s_even
    return all(
        states_equal([t.states[k][i]], [closed_form_di(s.x, s.v, m, k, even=i in even)])
        for i, s in enumerate(plan.init)
        for k in range(2 * m + 1)
    )


def minimal_period(g, gains, init, T_max, ns=None, rollout=None) -> Optional[int]:
    if T_max < 1:
        raise ValueError("T_max must be >= 1")
    t = rollout
    if t is None or t.steps < T_max or tuple(t.states[0]) != tuple(init):
        t = simulate(g, gains, init, T_max, ns=ns)
    return next(
        (k for k in range(1, T_max + 1) if states_equal(t.states[k], t.states[0])), None
    )


def trajectory_to_csv(t: Trajectory) -> str:
    """The CSV, value by value through `format_scalar`."""
    lines = [CSV_HEADER + "\n"]
    for k, row in enumerate(t.states):
        if k < t.steps:
            inputs = zip(map(format_scalar, t.raw_u[k]), map(format_scalar, t.sat_u[k]))
        else:
            inputs = repeat(("", ""))
        for i, s, (u_raw, u_sat) in zip(count(1), row, inputs):
            lines.append(f"{k},{i},{format_scalar(s.x)},{format_scalar(s.v)},{u_raw},{u_sat}\n")
    return "".join(lines)


def trajectory_consistent(t: Trajectory, g: WeightedGraph, gains: GainParams) -> Optional[dict]:
    """The first (step, agent) where t differs from its per-agent re-simulation
    under `scalars_equal`, or None; as the mismatch of `cli._trajectory_consistent`."""
    resim = simulate(g, gains, t.states[0], t.steps, ns=t.ns)
    for k in range(t.steps + 1):
        rows = [(resim.states, t.states)]
        if k < t.steps:
            rows += [(resim.raw_u, t.raw_u), (resim.sat_u, t.sat_u)]
        for i in range(t.n):
            if not (
                states_equal([resim.states[k][i]], [t.states[k][i]])
                and all(scalars_equal(ours[k][i], theirs[k][i]) for ours, theirs in rows[1:])
            ):
                return {"step": k, "agent": i + 1}
    return None


# ---------------------------------------------------------------------------
# the graph and plan files, line by line


def parse_graph_lines(text: str, mode: str = "exact") -> WeightedGraph:
    """The line-by-line graph reader: each line is checked in turn, in the
    order of `parse_graph`'s checks, and the graph is built through the
    validating constructor."""
    declared_n = None
    edges: dict[tuple[int, int], Scalar] = {}
    values: dict[str, Scalar] = {}
    max_seen = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if declared_n is not None or edges:
                raise GraphFormatError(f"line {lineno}: stray agent-count line")
            if len(parts) != 2 or not parts[1].encode().isdigit():
                raise GraphFormatError(f"line {lineno}: bad agent count")
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: {over_digit_limit('agent count')}")
            if declared_n < 1:
                raise GraphFormatError(f"line {lineno}: bad agent count")
            continue
        if len(parts) != 3:
            raise GraphFormatError(f"line {lineno}: expected 'i j w'")
        a, b = parts[0], parts[1]
        if not (a.isascii() and b.isascii() and a.isdigit() and b.isdigit()):
            raise GraphFormatError(f"line {lineno}: bad agent index")
        try:
            i, j = int(a), int(b)
        except ValueError:
            raise GraphFormatError(f"line {lineno}: {over_digit_limit('agent index')}")
        if i < 1 or j < 1:
            raise GraphFormatError(f"line {lineno}: agent indices are 1-based")
        if i == j:
            raise GraphFormatError(f"line {lineno}: self-loop on agent {i}")
        w = values.get(parts[2])
        if w is None:
            try:
                w = parse_scalar(parts[2], mode)
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: bad weight: {exc}") from exc
            if w <= 0:
                raise GraphFormatError(f"line {lineno}: nonpositive weight")
            values[parts[2]] = w
        key = (min(i, j) - 1, max(i, j) - 1)
        if key in edges and edges[key] != w:
            raise GraphFormatError(f"line {lineno}: conflicting duplicate edge")
        edges[key] = w
        max_seen = max(max_seen, i, j)
    n = declared_n if declared_n is not None else max_seen
    if n < 1:
        raise GraphFormatError("empty graph document")
    if max_seen > n:
        raise GraphFormatError(f"agent {max_seen} exceeds declared count {n}")
    rows: list[list[tuple[int, Scalar]]] = [[] for _ in range(n)]
    for (i, j), w in edges.items():
        rows[i].append((j, w))
        rows[j].append((i, w))
    return WeightedGraph(n, [sorted(row) for row in rows])


PLAN_KEYS = ("model", "alpha", "beta", "root", "m", "T", "a")
AGENT_LINE = re.compile(r"agent\s+([0-9]+)\s*:\s*x=([^,]*),\s*v=([^,]*)")


def plan_from_lines(text: str, g: WeightedGraph, mode: str = "exact") -> OrbitPlan:
    """The line-by-line plan reader: the plan of a plan file, with its classes
    from `make_partition`, or the `CliError` of its first fault.  Each
    distinct value text is parsed once, and the agents of one `(x, v)` text
    pair share one state."""
    meta: dict[str, str] = {}
    a_line = 0
    values: dict[str, Scalar] = {}
    states: dict[tuple[str, str], AgentState] = {}
    init: dict[int, AgentState] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"plan line {lineno}:"
        if not line.startswith("agent "):
            if "=" not in line:
                raise CliError(f"{where} expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in PLAN_KEYS:
                raise CliError(f"{where} unknown key {quoted(key)}")
            if key in meta:
                raise CliError(f"{where} repeated key {quoted(key)}")
            meta[key] = value.strip()
            if key == "a":
                a_line = lineno
            continue
        match = AGENT_LINE.fullmatch(line)
        if match is None:
            raise CliError(f"{where} {quoted(line)} is not 'agent <i>: x=<x>, v=<v>'")
        try:
            idx = int(match[1])
        except ValueError:
            raise CliError(f"{where} {over_digit_limit(f'agent index {quoted(match[1])}')}")
        pair = match[2], match[3]
        try:
            for value in pair:
                if value not in values:
                    values[value] = parse_scalar(value, mode)
        except ValueError as exc:
            raise CliError(f"{where} {exc}") from exc
        if pair not in states:
            states[pair] = AgentState(values[pair[0]], values[pair[1]])
        if idx - 1 in init:
            raise CliError(f"{where} duplicate agent {idx}")
        init[idx - 1] = states[pair]
    try:
        model = meta["model"]
        gains = GainParams(parse_scalar(meta["alpha"], mode), parse_scalar(meta["beta"], mode))
        root = parse_int(meta.get("root", "1"))
        m = parse_int(meta["m"])
        period = parse_int(meta["T"])
        a = parse_scalar(meta["a"], mode) if "a" in meta else None
    except KeyError as exc:
        raise CliError(f"plan file missing field {exc}") from exc
    except ValueError as exc:
        raise CliError(f"bad plan value: {exc}") from exc
    if model not in ("di", "ns"):
        raise CliError(f"unknown model {quoted(model)} in plan")
    if model == "di" and a is not None:
        raise CliError(f"plan line {a_line}: a di plan has no a")
    if model == "ns" and a is None:
        raise CliError("model=ns requires the rotation parameter a")
    try:
        ns = NsModel(a) if model == "ns" else None
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if model == "di" and (m < 1 or period != 2 * m):
        raise CliError(f"plan has m={m}, T={period}; di needs T = 2m with m >= 1")
    if model == "ns" and (m, period) != (2, 4):
        raise CliError(f"plan has m={m}, T={period}; ns needs m = 2, T = 4")
    if sorted(init) != list(range(g.n)):
        raise CliError(f"plan does not cover all {g.n} agents")
    if not 1 <= root <= g.n:
        raise CliError(f"root {root} out of range 1..{g.n}")
    try:
        p = make_partition(g, root - 1)
    except NotConnectedError as exc:
        raise CliError(str(exc)) from exc
    classes = DistanceClasses(p.root, p.dist, p.s_even, p.s_odd)
    return OrbitPlan(ns, gains, classes, m, tuple(init[i] for i in range(g.n)))
