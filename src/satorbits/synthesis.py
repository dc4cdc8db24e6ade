"""Constructive synthesis of periodic orbits for both agent models.

Double integrator: gate 0 < alpha < beta < 3/2 alpha, half-period m from the
worst cross edge, velocities -+m/2 by parity class, and initial positions in
closed form.  Each cross edge bounds x_i(0) - x_j(0) to an interval centred
at m/2, so x = m/2 on the even class and 0 on the odd class sits at every
midpoint, with the most slack; intra edges join agents of one class and get
equal positions.  `interval_numerators` gives each cross edge's bounds as
two integers over one denominator, which `synthesize` formats as its
interval table and checks a chosen m against.  `solve_positions`, a
Bellman-Ford solver for general difference-constraint systems, is kept as
a standalone tool; synthesis does not call it.

Neutrally stable: gate |alpha| <= sgn(a)(beta - a/a_bar), fixed period 4,
closed-form initial states +-(1/(2a), -1/(2a)) by class.  The gate on the
least cross weight implies the two key inequalities of every cross edge,
so they are not decided apart.

Every inequality is decided on integers; the di intervals once per distinct
weight object, as two numerators over A*P (`interval_numerators`).  A float
enters as its exact binary value (`as_integer_ratio`); a float plan holds
the floats nearest its values.

A plan carries its model as `ns`, the `NsModel` or None on di, as a
`Trajectory` does.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Sequence

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


class OrbitPlan(Record, namedtuple("OrbitPlan", "ns gains partition half_period init")):
    """An orbit of period 2 * half_period (4 for ns) and its start states.

    `ns` is the neutrally stable `NsModel`, None on the double integrator;
    `model` ("di" or "ns") and `a` (None on di) are read from it.  `init` is
    the tuple of the agents' start `AgentState`s.  `partition` is the
    `Partition` a plan is synthesized from; a plan read from text holds only
    its `DistanceClasses`, the fields that simulating and verifying read.
    """

    __slots__ = ()

    @property
    def model(self) -> str:
        return "di" if self.ns is None else "ns"

    @property
    def a(self) -> Scalar | None:
        return None if self.ns is None else self.ns.a

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
    A, B, _ = gains.integers()
    return 0 < A < B and 2 * B < 3 * A


def min_half_period(gains: GainParams, a_bar: Scalar) -> int:
    """Smallest admissible half-period for the worst cross edge.

    m >= (4(alpha-beta) + 2/a_bar) / (3 alpha - 2 beta), floored at 3 so the
    (m-2) terms in the interval bounds stay positive; with alpha = A/G,
    beta = B/G and a_bar = P/q, the ceiling of (4(A-B)P + 2qG) / ((3A-2B)P).
    """
    if not check_gains_di(gains):
        raise GainConditionError(f"gains ({gains.alpha}, {gains.beta}) fail the gate")
    P, q = a_bar.as_integer_ratio()
    if P <= 0:
        raise ValueError("a_bar must be positive")
    A, B, G = gains.integers()
    return max(3, -(-(4 * (A - B) * P + 2 * q * G) // ((3 * A - 2 * B) * P)))


def interval_numerators(gains: GainParams, m: int) -> Callable[[Scalar], tuple[int, int, int]]:
    """w -> (L, U, D), the cross-edge interval of weight w at half-period m
    as [L/D, U/D]: lower = (1/w + (beta-alpha)(m-2)) / alpha and
    upper = (2 alpha (m-1) - beta (m-2) - 1/w) / alpha.

    With w = P/q and the gains over one denominator, alpha = A/G and
    beta = B/G, these are the integers L = q*G + (B-A)(m-2)*P,
    U = (2A(m-1) - B(m-2))*P - q*G and D = A*P; the two m terms are formed
    once.
    """
    A, B, G = gains.integers()
    lower_m, upper_m = (B - A) * (m - 2), 2 * A * (m - 1) - B * (m - 2)

    def numerators(w: Scalar) -> tuple[int, int, int]:
        P, q = w.as_integer_ratio()
        return q * G + lower_m * P, upper_m * P - q * G, A * P

    return numerators


def exact_inputs(gains: GainParams, p: Partition) -> bool:
    """Whether the gains and every cross weight of `p` are rational."""
    return all(map(is_exact, (gains.alpha, gains.beta, *distinct(w for *_, w in p.cross_edges))))


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
    Positions and velocities are Fractions when the gains and cross-edge
    weights are exact, and otherwise the floats nearest them; a float plan
    whose m leaves the float range raises ValueError.
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
        # an interval is empty when L/D > U/D, and D = A*P > 0, so when L > U
        bounds = per_object(interval_numerators(gains, m_override), [w for *_, w in p.cross_edges])
        empty = next((k for k, (L, U, _) in enumerate(bounds) if L > U), None)
        if empty is not None:
            i, j, _ = p.cross_edges[empty]
            raise InfeasibleConstraintsError(
                f"half-period {m_override} leaves an empty interval on edge "
                f"({i + 1}, {j + 1}); minimum is {m_min}",
                [i, j],
            )
        m = m_override
    else:
        # a_bar is the least cross weight, so m_min leaves every interval nonempty
        m = m_min

    if anchor is not None and not 0 <= anchor < g.n:
        raise ValueError(f"anchor {anchor} outside 0..{g.n - 1}")
    half, base = Fraction(m, 2), Fraction(base)
    if anchor is not None and anchor in p.s_even:
        even, odd = base, base - half
    else:
        even, odd = base + half, base
    if not exact_inputs(gains, p):
        # the floats nearest the states; the interval table's bounds lie in (0, m)
        try:
            even, odd, half, _ = map(float, (even, odd, half, m))
        except OverflowError:
            bits = m.bit_length()
            raise ValueError(f"half-period of {bits} bits outside the float range") from None
    # one start state per class, shared by its agents: v(0) = -m/2 on S_e, +m/2 on S_o
    states = {True: AgentState(even, -half), False: AgentState(odd, half)}
    init = tuple(states[i in p.s_even] for i in range(g.n))
    return OrbitPlan(ns=None, gains=gains, partition=p, half_period=m, init=init)


# ---------------------------------------------------------------------------
# neutrally stable


def check_gains_ns(model: NsModel, gains: GainParams, a_bar: Scalar) -> bool:
    """Gate |alpha| <= sgn(a) (beta - a/a_bar): with alpha = A/G, beta = B/G,
    a = a_n/a_d and a_bar = P/q, times G*a_d*P*|a_n| > 0,
    |A*a_n|*a_d*P <= a_n*(B*a_d*P - a_n*q*G)."""
    P, q = a_bar.as_integer_ratio()
    if P <= 0:
        raise ValueError("a_bar must be positive")
    A, B, G = gains.integers()
    a_n, a_d = model.a.as_integer_ratio()
    return abs(A * a_n) * a_d * P <= a_n * (B * a_d * P - a_n * q * G)


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


def synthesize_ns(
    g: WeightedGraph, model: NsModel, gains: GainParams, root: int = 0
) -> OrbitPlan:
    """Build the fixed period-4 orbit plan for the neutrally stable network;
    the gate on the least cross weight implies both key inequalities."""
    p = make_partition(g, root)
    if not check_gains_ns(model, gains, p.a_bar):
        raise GainConditionError(
            f"gains (alpha={gains.alpha}, beta={gains.beta}) violate "
            f"|alpha| <= sgn(a)(beta - a/a_bar) with a={model.a}, a_bar={p.a_bar}"
        )
    init = tuple(init_states_ns(model, p))
    return OrbitPlan(ns=model, gains=gains, partition=p, half_period=2, init=init)
