"""Constructive synthesis of periodic orbits for both agent models.

Double integrator: gate 0 < alpha < beta < 3/2 alpha, half-period m from the
worst cross edge, velocities -+m/2 by parity class, and initial positions in
closed form.  Each cross edge bounds x_i(0) - x_j(0) to an interval centred
at m/2, so x = m/2 on the even class and 0 on the odd class sits at every
midpoint, with the most slack; intra edges join agents of one class and get
equal positions.  `position_constraints` gives the interval table and
`solve_positions`, a Bellman-Ford solver for general difference-constraint
systems, is kept as a standalone tool; synthesis calls neither.

Neutrally stable: gate |alpha| <= sgn(a)(beta - a/a_bar), fixed period 4,
closed-form initial states +-(1/(2a), -1/(2a)) by class.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .dynamics import AgentState, GainParams, NsModel
from .graphs import Partition, WeightedGraph, make_partition
from .records import Record
from .scalars import Scalar, distinct, is_exact, per_object


class GainConditionError(ValueError):
    """Feedback gains fail the synthesis gate."""


class InfeasibleConstraintsError(ValueError):
    """The position difference-constraint system has no solution.

    `cycle` is a certificate: a closed chain of agents whose constraint
    bounds sum to a contradiction.
    """

    def __init__(self, message: str, cycle: list[int]):
        super().__init__(message)
        self.cycle = cycle


class IntervalConstraint(Record, namedtuple("IntervalConstraint", "i j lower upper")):
    """Bounds `lower` <= x_i(0) - x_j(0) <= `upper` across one cross edge (i even, j odd)."""

    __slots__ = ()


class PatternSpec(Record, namedtuple("PatternSpec", "half")):
    """Expected sign of the raw input at each step of the period, per class.

    Both models share one bang-bang orbit: the even class is driven at +1 for
    `half` steps and then at -1 for `half` steps, and the odd class mirrors it.
    """

    __slots__ = ()

    @property
    def period(self) -> int:
        return 2 * self.half

    def sign_at(self, k: int, even: bool) -> int:
        return 1 if (k < self.half) == even else -1


class OrbitPlan(
    Record, namedtuple("OrbitPlan", "model a gains partition half_period init")
):
    """An orbit of period 2 * half_period (4 for ns) and its start states.

    `model` is "di" or "ns", `a` the ns rotation parameter (None on di), and
    `init` the tuple of the agents' start `AgentState`s.
    """

    __slots__ = ()

    @property
    def period(self) -> int:
        return 2 * self.half_period

    @property
    def pattern(self) -> PatternSpec:
        return PatternSpec(self.half_period)


# ---------------------------------------------------------------------------
# double integrator


def check_gains_di(gains: GainParams) -> bool:
    """Gate 0 < alpha < beta < (3/2) alpha, all strict."""
    return 0 < gains.alpha < gains.beta < Fraction(3, 2) * gains.alpha


def min_half_period(gains: GainParams, a_bar: Scalar) -> int:
    """Smallest admissible half-period for the worst cross edge.

    m >= (4(alpha-beta) + 2/a_bar) / (3 alpha - 2 beta), floored at 3 so the
    (m-2) terms in the interval bounds stay positive.
    """
    if not check_gains_di(gains):
        raise GainConditionError(f"gains ({gains.alpha}, {gains.beta}) fail the gate")
    if a_bar <= 0:
        raise ValueError("a_bar must be positive")
    bound = (4 * (gains.alpha - gains.beta) + 2 / a_bar) / (3 * gains.alpha - 2 * gains.beta)
    return max(3, math.ceil(bound))


def _interval_bounds(w: Scalar, gains: GainParams, m: int) -> tuple[Scalar, Scalar]:
    lower = (1 / w + (gains.beta - gains.alpha) * (m - 2)) / gains.alpha
    upper = (
        2 * gains.alpha * (m - 1) - gains.beta * (m - 2) - 1 / w
    ) / gains.alpha
    return lower, upper


def position_constraints(
    g: WeightedGraph, p: Partition, gains: GainParams, m: int
) -> tuple[list[tuple[int, int]], list[IntervalConstraint]]:
    """Intra-edge equalities and one interval per cross edge for x(0).

    The bounds depend on an edge only through its weight, so they are
    computed once per distinct weight object and shared by its edges.
    """
    if m <= 2:
        raise ValueError("half-period must exceed 2")
    equalities = [(i, j) for i, j, _ in p.intra_edges]
    bounds = per_object(
        lambda w: _interval_bounds(w, gains, m), [w for _, _, w in p.cross_edges]
    )
    intervals = [
        IntervalConstraint(i, j, lower, upper)
        for (i, j, _), (lower, upper) in zip(p.cross_edges, bounds)
    ]
    return equalities, intervals


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[ri] = rj


def solve_positions(
    n: int,
    equalities: Sequence[tuple[int, int]],
    intervals: Sequence[IntervalConstraint],
    base: Scalar = Fraction(0),
    anchor: int | None = None,
    center_sweeps: int = 32,
) -> list[Scalar]:
    """Solve x_i - x_j in [lower, upper] plus equalities.

    Equality classes are contracted, each interval becomes two difference
    constraints, and feasibility is decided by Bellman-Ford relaxation from a
    virtual source.  A feasible point is then re-centered toward interval
    midpoints by coordinate sweeps, and finally shifted so the anchor agent
    (or, by default, the minimum position) sits at `base`.
    """
    uf = _UnionFind(n)
    for i, j in equalities:
        uf.union(i, j)
    reps = sorted({uf.find(i) for i in range(n)})
    index = {r: k for k, r in enumerate(reps)}
    nv = len(reps)

    # constraints as (u, v, lower, upper): x_u - x_v in [lower, upper]
    cons: list[tuple[int, int, Scalar, Scalar]] = []
    for c in intervals:
        if c.lower > c.upper:
            raise InfeasibleConstraintsError(
                f"empty interval [{c.lower}, {c.upper}] on edge "
                f"({c.i + 1}, {c.j + 1})",
                [c.i, c.j],
            )
        u, v = index[uf.find(c.i)], index[uf.find(c.j)]
        if u == v:
            if not (c.lower <= 0 <= c.upper):
                raise InfeasibleConstraintsError(
                    f"equality chain forces x_{c.i + 1} = x_{c.j + 1} but the "
                    f"edge interval [{c.lower}, {c.upper}] excludes 0",
                    [c.i, c.j],
                )
            continue
        cons.append((u, v, c.lower, c.upper))

    # Bellman-Ford on edges (tail, head, weight): x_head <= x_tail + weight
    edges: list[tuple[int, int, Scalar]] = []
    for u, v, lower, upper in cons:
        edges.append((v, u, upper))  # x_u - x_v <= upper
        edges.append((u, v, -lower))  # x_v - x_u <= -lower
    dist: list[Scalar] = [Fraction(0)] * nv
    pred: list[int] = [-1] * nv
    for _ in range(nv):
        changed = False
        for tail, head, w in edges:
            if dist[tail] + w < dist[head]:
                dist[head] = dist[tail] + w
                pred[head] = tail
                changed = True
        if not changed:
            break
    else:
        # still relaxing after nv rounds: extract a negative cycle
        for tail, head, w in edges:
            if dist[tail] + w < dist[head]:
                dist[head] = dist[tail] + w
                pred[head] = tail
                node = head
                for _ in range(nv):
                    node = pred[node]
                cycle = [node]
                cur = pred[node]
                while cur != node:
                    cycle.append(cur)
                    cur = pred[cur]
                cycle_agents = [reps[k] for k in reversed(cycle)]
                raise InfeasibleConstraintsError(
                    "contradictory constraint cycle through agents "
                    + ", ".join(str(a + 1) for a in cycle_agents),
                    cycle_agents,
                )

    x = dist
    # slack-centering: move each variable to the midpoint of its local range
    incident: list[list[tuple[int, int, Scalar, Scalar]]] = [[] for _ in range(nv)]
    for u, v, lower, upper in cons:
        incident[u].append((u, v, lower, upper))
        incident[v].append((u, v, lower, upper))
    for _ in range(center_sweeps):
        moved = False
        for k in range(nv):
            if not incident[k]:
                continue
            lo = hi = None
            for u, v, lower, upper in incident[k]:
                if k == u:
                    cand_lo, cand_hi = x[v] + lower, x[v] + upper
                else:
                    cand_lo, cand_hi = x[u] - upper, x[u] - lower
                lo = cand_lo if lo is None else max(lo, cand_lo)
                hi = cand_hi if hi is None else min(hi, cand_hi)
            mid = (lo + hi) / 2
            if mid != x[k]:
                x[k] = mid
                moved = True
        if not moved:
            break

    if anchor is not None:
        shift = base - x[index[uf.find(anchor)]]
    else:
        shift = base - min(x)
    return [x[index[uf.find(i)]] + shift for i in range(n)]


def synthesize_di(
    g: WeightedGraph,
    gains: GainParams,
    m_override: int | None = None,
    root: int = 0,
    base: Scalar = Fraction(0),
    anchor: int | None = None,
) -> OrbitPlan:
    """Build a verified period-2m orbit plan for the double-integrator network.

    Positions are m/2 on the even class and 0 on the odd class, shifted so
    that `anchor` (by default the odd class, the minimum) sits at `base`.
    They are Fractions when the gains and cross-edge weights are exact, and
    floats otherwise.
    """
    if not check_gains_di(gains):
        raise GainConditionError(
            f"gains (alpha={gains.alpha}, beta={gains.beta}) violate "
            "0 < alpha < beta < 3/2 alpha"
        )
    p = make_partition(g, root)
    m_min = min_half_period(gains, p.a_bar)
    if m_override is not None:
        if m_override <= 2:
            raise ValueError("half-period override must exceed 2")
        _, intervals = position_constraints(g, p, gains, m_override)
        empty = next((c for c in intervals if c.lower > c.upper), None)
        if empty is not None:
            raise InfeasibleConstraintsError(
                f"half-period {m_override} leaves an empty interval on edge "
                f"({empty.i + 1}, {empty.j + 1}); minimum is {m_min}",
                [empty.i, empty.j],
            )
        m = m_override
    else:
        # a_bar is the least cross weight, so m_min leaves every interval nonempty
        m = m_min

    if anchor is not None and not 0 <= anchor < g.n:
        raise ValueError(f"anchor {anchor} outside 0..{g.n - 1}")
    weights = distinct(w for _, _, w in p.cross_edges)
    exact = all(is_exact(c) for c in (gains.alpha, gains.beta, *weights))
    half = Fraction(m, 2) if exact else m / 2
    base = base if exact else float(base)
    if anchor is not None and anchor in p.s_even:
        even, odd = base, base - half
    else:
        even, odd = base + half, base
    # one start state per class, shared by its agents: v(0) = -m/2 on S_e, +m/2 on S_o
    speed = Fraction(m, 2)
    states = {True: AgentState(even, -speed), False: AgentState(odd, speed)}
    init = tuple(states[i in p.s_even] for i in range(g.n))
    return OrbitPlan(model="di", a=None, gains=gains, partition=p, half_period=m, init=init)


# ---------------------------------------------------------------------------
# neutrally stable


def _sgn(value: Scalar) -> int:
    return (value > 0) - (value < 0)


def check_gains_ns(model: NsModel, gains: GainParams, a_bar: Scalar) -> bool:
    """Gate |alpha| <= sgn(a) (beta - a/a_bar)."""
    if a_bar <= 0:
        raise ValueError("a_bar must be positive")
    return abs(gains.alpha) <= _sgn(model.a) * (gains.beta - model.a / a_bar)


def init_states_ns(model: NsModel, p: Partition) -> list[AgentState]:
    """(1/(2a), -1/(2a)) on the even class, negated on the odd class.

    A float `a` so small that 1/(2a) leaves the float range raises ValueError.
    """
    half = 1 / (2 * model.a)
    if isinstance(half, float) and not math.isfinite(half):
        raise ValueError(
            f"a={model.a} puts the initial states +-1/(2a) outside the float range"
        )
    even = AgentState(half, -half)
    odd = -even  # one object per class
    return [even if i in p.s_even else odd for i in range(len(p.dist))]


def key_inequalities_ns(
    g: WeightedGraph, p: Partition, model: NsModel, gains: GainParams
) -> list[tuple[tuple[int, int], bool, bool]]:
    """Per cross edge: a_ij(alpha-beta)/a <= -1 and a_ij(-alpha-beta)/a <= -1.

    Both depend on an edge only through its weight, so they are decided once
    per distinct weight object.
    """
    a, first, second = model.a, gains.alpha - gains.beta, -gains.alpha - gains.beta
    checks = per_object(
        lambda w: (w * first / a <= -1, w * second / a <= -1), [w for _, _, w in p.cross_edges]
    )
    return [((i, j), *check) for (i, j, _), check in zip(p.cross_edges, checks)]


def synthesize_ns(
    g: WeightedGraph, model: NsModel, gains: GainParams, root: int = 0
) -> OrbitPlan:
    """Build the fixed period-4 orbit plan for the neutrally stable network."""
    p = make_partition(g, root)
    if not check_gains_ns(model, gains, p.a_bar):
        raise GainConditionError(
            f"gains (alpha={gains.alpha}, beta={gains.beta}) violate "
            f"|alpha| <= sgn(a)(beta - a/a_bar) with a={model.a}, a_bar={p.a_bar}"
        )
    checks = key_inequalities_ns(g, p, model, gains)
    bad = [edge for edge, first, second in checks if not (first and second)]
    if bad:
        raise GainConditionError(f"cross-edge key inequalities fail on {bad}")
    init = tuple(init_states_ns(model, p))
    return OrbitPlan(model="ns", a=model.a, gains=gains, partition=p, half_period=2, init=init)
