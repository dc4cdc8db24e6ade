"""Agent models, saturation, the relative-state controller, and simulation.

Two agent models share the scalar saturated input channel:

* double integrator:    x' = x + v,  v' = v + sat(u)
* neutrally stable:     x' = v,      v' = -x + 2a v + sat(u),  -1 < a < 1, a != 0

The controller is diffusive: each agent feeds back weighted sums of
neighbor-relative positions and velocities, so it vanishes at consensus.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Callable, Iterable, Optional, Sequence

from .graphs import WeightedGraph
from .records import Record
from .scalars import (
    FLOAT_TOL,
    Scalar,
    distinct,
    format_scalar,
    is_exact,
    per_object,
    scalars_equal,
)

#: bit-length cap on exact numerators/denominators before a run is aborted
MAX_EXACT_BITS = 1 << 20


class SimulationOverflowError(RuntimeError):
    """Exact-mode state grew beyond the resource cap."""


class NormalizationError(ValueError):
    """Pair cannot be brought to the canonical neutrally stable form."""


class AgentState(Record, namedtuple("AgentState", "x v")):
    """Position `x` and velocity `v` of one agent."""

    __slots__ = ()

    def __neg__(self) -> "AgentState":
        return AgentState(-self.x, -self.v)


def states_equal(a: Sequence[AgentState], b: Sequence[AgentState]) -> bool:
    """Agentwise `scalars_equal`: bit-exact for rationals, within `FLOAT_TOL` for floats."""
    return all(scalars_equal(p.x, q.x) and scalars_equal(p.v, q.v) for p, q in zip(a, b))


class GainParams(Record, namedtuple("GainParams", "alpha beta")):
    """Feedback gains on the relative positions (`alpha`) and velocities (`beta`)."""

    __slots__ = ()


class NsModel(Record, namedtuple("NsModel", "a")):
    """Rotation parameter a with A = [[0,1],[-1,2a]], B = [0,1]^T."""

    __slots__ = ()

    def __new__(cls, a: Scalar) -> "NsModel":
        if not (-1 < a < 1) or a == 0:
            raise ValueError(f"rotation parameter must be in (-1,1)\\{{0}}, got {a}")
        return super().__new__(cls, a)


class Trajectory(
    Record,
    namedtuple("Trajectory", "model a states raw_u sat_u lattice", defaults=(None,)),
):
    """States over steps+1 ticks plus raw and saturated inputs per step.

    `model` is "di" or "ns" and `a` the ns rotation parameter (None on di).
    Each column (`states`, `raw_u`, `sat_u`) is a tuple of rows or, for an
    exact run, a `LatticeColumn` that holds the rows as integers.
    `lattice` is the `Lattice` an exact `simulate` stepped on, kept so that
    checks of the same loop need not build it again; it takes no part in
    `==`, `hash` or `repr`.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and self[:5] == other[:5]

    def __hash__(self) -> int:
        return hash(self[:5])

    def __repr__(self) -> str:
        return "Trajectory(model=%r, a=%r, states=%r, raw_u=%r, sat_u=%r)" % self[:5]

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    @property
    def n(self) -> int:
        return len(self.states[0])


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


def _check_magnitude(value: Scalar) -> None:
    if isinstance(value, Fraction):
        if (
            value.numerator.bit_length() > MAX_EXACT_BITS
            or value.denominator.bit_length() > MAX_EXACT_BITS
        ):
            raise SimulationOverflowError(
                "exact state exceeded the resource cap "
                f"({MAX_EXACT_BITS} bits); rerun in float mode or fewer steps"
            )


_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)

#: lattice coordinates of a network state: numerators X, V over denominator D
LatticeState = tuple[list[int], list[int], int]


def _reduced(X: list[int], V: list[int], D: int, widened_by: int) -> LatticeState:
    """Divide out the common factor of D and every numerator of a lattice state
    that was just widened."""
    if widened_by == 1:
        return X, V, D
    c = math.gcd(D, *X, *V)
    if c == 1:
        return X, V, D
    if c & (c - 1) == 0:
        t = c.bit_length() - 1
        return [x >> t for x in X], [v >> t for v in V], D >> t
    return [x // c for x in X], [v // c for v in V], D // c


def ratio_row(pairs: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Numerators over one common denominator E, the lcm of the q, of the ratios p/q."""
    # a state repeats a few denominators, so each is divided into E once
    scale = dict.fromkeys(q for _, q in pairs)
    E = math.lcm(*scale)
    for q in scale:
        scale[q] = E // q
    return [p * scale[q] for p, q in pairs], E


def ratios(U: list[int], E: int) -> tuple[Fraction, ...]:
    """The row U/E as Fractions."""
    return tuple(_ONE if u == E else _MINUS_ONE if u == -E else Fraction(u, E) for u in U)


class LatticeColumn(Sequence):
    """A read-only column of a `Trajectory` whose rows are kept as integers.

    `data[k]` is a lattice state (X, V, D) or an input row (U, E) with U a
    list of numerators over E > 0; `decode` turns it into row k, a tuple of
    `AgentState`s or of Fractions, on first access, and the row is cached.
    Slices return tuples, and a column equals the tuple of its rows.
    """

    __slots__ = ("data", "decode", "_rows")

    def __init__(self, data: list[tuple], decode: Callable[..., tuple]) -> None:
        self.data = data
        self.decode = decode
        self._rows: list[Optional[tuple]] = [None] * len(data)

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self.data))))
        row = self._rows[k]
        if row is None:
            row = self._rows[k] = self.decode(*self.data[k])
        return row

    def __iter__(self):
        return (self[k] for k in range(len(self.data)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, LatticeColumn)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class Lattice:
    """The exact closed loop on integers, shared by `simulate` and the inverted period.

    Positions and velocities are numerators X, V over one common
    denominator D.  Edge weights are scaled by q_w, the lcm of their
    denominators, and the gains by G, the lcm of theirs, so the raw input
    of agent i is U_i / E with integer U_i (`inputs`) and E = K*D, K = G*q_w;
    saturation is an integer compare of U_i against +-E.  The scaled weights
    are stored in CSR form: flat neighbour indices `J` and weights `W`, agent
    i's entries at `starts[i]:ends[i]`, and its integer weighted degree in
    `degrees[i]`.  D widens only on a step where some input is unsaturated
    (by K) and, on `ns`, by the denominator R of 2a; after a widening the gcd
    of D and every numerator is divided out, so D stays the lcm of the
    reduced denominators.  `graph`, `gains` and `ns` are the loop it was built for.
    """

    def __init__(self, g: WeightedGraph, gains: GainParams, ns: NsModel | None) -> None:
        weights = [w for nbrs in g.adjacency for _, w in nbrs]
        q_w = math.lcm(*(w.denominator for w in distinct(weights)))
        self.J = [j for nbrs in g.adjacency for j, _ in nbrs]
        self.W = per_object(lambda w: w.numerator * (q_w // w.denominator), weights)
        offsets = list(accumulate(map(len, g.adjacency), initial=0))
        self.starts, self.ends = offsets[:-1], offsets[1:]
        self.degrees = [sum(self.W[s:e]) for s, e in zip(self.starts, self.ends)]
        alpha, beta = gains.alpha, gains.beta
        G = math.lcm(alpha.denominator, beta.denominator)
        self.A = alpha.numerator * (G // alpha.denominator)
        self.B = beta.numerator * (G // beta.denominator)
        self.K = G * q_w
        self.graph, self.gains, self.ns = g, gains, ns
        two_a = 2 * ns.a if ns is not None else 0
        self.P, self.R = two_a.numerator, two_a.denominator

    @staticmethod
    def of(
        g: WeightedGraph, gains: GainParams, ns: NsModel | None, values: Iterable[Scalar]
    ) -> Optional["Lattice"]:
        """The lattice of this loop, or None unless weights, gains, a and `values` are all exact."""
        exact = (
            is_exact(gains.alpha)
            and is_exact(gains.beta)
            and (ns is None or is_exact(ns.a))
            and all(map(is_exact, distinct(w for nbrs in g.adjacency for _, w in nbrs)))
            and all(is_exact(c) for c in values)
        )
        return Lattice(g, gains, ns) if exact else None

    @staticmethod
    def encode(states: Sequence[AgentState]) -> LatticeState:
        """The reduced tick of exact states: D is the lcm of the denominators.

        The values are in lowest terms, so for each prime of D some numerator
        over D is not a multiple of it: no factor is common to D and every
        numerator, and equal states give equal ticks.
        """
        values = [s.x for s in states] + [s.v for s in states]
        N, D = ratio_row(per_object(lambda c: (c.numerator, c.denominator), values))
        return N[: len(states)], N[len(states) :], D

    @staticmethod
    def decode(X: list[int], V: list[int], D: int) -> tuple[AgentState, ...]:
        return tuple(AgentState(Fraction(x, D), Fraction(v, D)) for x, v in zip(X, V))

    def inputs(self, X: list[int], V: list[int]) -> list[int]:
        """Raw-input numerators U over E = K*D: sum_j w_ij (Y_j - Y_i), Y = A*X + B*V.

        `acc` holds the prefix sums of w_ij Y_j over the CSR edges, built by
        `accumulate` in C, so agent i's neighbour sum is acc[ends[i]] - acc[starts[i]].
        """
        A, B = self.A, self.B
        Y = [A * x + B * v for x, v in zip(X, V)]
        acc = list(accumulate(map(mul, self.W, map(Y.__getitem__, self.J)), initial=0))
        return [
            acc[e] - acc[s] - d * y
            for s, e, d, y in zip(self.starts, self.ends, self.degrees, Y)
        ]

    @staticmethod
    def saturated(u: int, E: int) -> Fraction:
        """sat(u/E) as a Fraction."""
        if u >= E:
            return _ONE
        if u <= -E:
            return _MINUS_ONE
        return Fraction(u, E)

    def step(self, X: list[int], V: list[int], D: int) -> tuple[LatticeState, list[int], int]:
        """One forward step: the next lattice state and the raw inputs U over E = K*D."""
        U = self.inputs(X, V)
        E = self.K * D
        R = self.R
        mult = R * self.K if any(-E < u < E for u in U) else R
        DM = D * mult
        # applied input times the new denominator D*mult
        S = [DM if u >= E else -DM if u <= -E else u * R for u in U]
        if self.ns is None:
            Xn = [(x + v) * mult for x, v in zip(X, V)]
            Vn = [v * mult + s for v, s in zip(V, S)]
        else:
            Ph = self.P * (mult // R)
            Xn = [v * mult for v in V]
            Vn = [Ph * v - x * mult + s for x, v, s in zip(X, V, S)]
        return _reduced(Xn, Vn, DM, mult), U, E

    def unstep(
        self, X: list[int], V: list[int], D: int, S: list[int], Es: int
    ) -> LatticeState:
        """Inverse of one step, given the saturated inputs S/Es (Es > 0) it applied."""
        # S/Es in lowest common terms is (S/c)/q; D*mult is the least multiple
        # of D that q divides, times R on ns
        c = math.gcd(Es, *S)
        q = Es // c
        mult = self.R * (q // math.gcd(q, D))
        DM = D * mult
        f = DM // q
        S = [s // c * f for s in S]
        if self.ns is None:
            Vp = [v * mult - s for v, s in zip(V, S)]
            Xp = [x * mult - v for x, v in zip(X, Vp)]
        else:
            Ph = self.P * (mult // self.R)
            Vp = [x * mult for x in X]
            Xp = [Ph * x + s - v * mult for x, v, s in zip(X, V, S)]
        return _reduced(Xp, Vp, DM, mult)


def simulate(
    g: WeightedGraph,
    gains: GainParams,
    init: Sequence[AgentState],
    steps: int,
    ns: NsModel | None = None,
) -> Trajectory:
    """Roll the closed-loop network forward, recording raw and saturated inputs.

    A wholly exact run steps on the integer `Lattice` and returns
    `LatticeColumn`s; any float input sends it through the per-agent
    `control_inputs`/`step_*` path, which returns tuples.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    current = tuple(init)
    if steps and len(current) != g.n:
        raise ValueError(f"expected {g.n} agent states, got {len(current)}")
    model, a = ("di", None) if ns is None else ("ns", ns.a)
    lattice = Lattice.of(g, gains, ns, (c for s in current for c in (s.x, s.v)))
    if lattice is not None:
        return _simulate_lattice(lattice, current, steps, model, a)
    states = [current]
    raw_hist: list[tuple[Scalar, ...]] = []
    sat_hist: list[tuple[Scalar, ...]] = []
    for _ in range(steps):
        raw = control_inputs(g, gains, current)
        sat = [saturate(u) for u in raw]
        if ns is None:
            nxt = tuple(step_di(s, u) for s, u in zip(current, sat))
        else:
            nxt = tuple(step_ns(s, u, ns) for s, u in zip(current, sat))
        for s in nxt:
            _check_magnitude(s.x)
            _check_magnitude(s.v)
        raw_hist.append(tuple(raw))
        sat_hist.append(tuple(sat))
        states.append(nxt)
        current = nxt
    return Trajectory(model, a, tuple(states), tuple(raw_hist), tuple(sat_hist))


def _simulate_lattice(
    lattice: Lattice, init: tuple[AgentState, ...], steps: int, model: str, a: Optional[Scalar]
) -> Trajectory:
    """The exact run: ticks (X, V, D), raw inputs (U, E) and saturated inputs (S, E).

    Ticks are reduced, so a tick equal to the first is the start state again:
    from there on the deterministic loop repeats its rows, which are shared
    by reference instead of stepped.
    """
    tick = lattice.encode(init)
    ticks = [tick]
    raw: list[tuple[list[int], int]] = []
    sat: list[tuple[list[int], int]] = []
    for p in range(1, steps + 1):
        tick, U, E = lattice.step(*tick)
        X, V, D = tick
        # a reduced value x/D has no more bits than x and D, so the cap is
        # read on the state's values only when this bound exceeds it
        if max(D, max(X), -min(X), max(V), -min(V)).bit_length() > MAX_EXACT_BITS:
            for s in lattice.decode(X, V, D):
                _check_magnitude(s.x)
                _check_magnitude(s.v)
        raw.append((U, E))
        sat.append(([E if u >= E else -E if u <= -E else u for u in U], E))
        if tick == ticks[0]:
            # row j of every column is row j mod p, the same object, so the
            # CSV writer formats each repeated row once
            ticks += [ticks[j % p] for j in range(p, steps + 1)]
            raw += [raw[j % p] for j in range(p, steps)]
            sat += [sat[j % p] for j in range(p, steps)]
            break
        ticks.append(tick)
    states = LatticeColumn(ticks, Lattice.decode)
    states._rows[0] = init
    return Trajectory(
        model, a, states, LatticeColumn(raw, ratios), LatticeColumn(sat, ratios), lattice
    )


def _flat(value: object) -> list:
    """The entries of a scalar or of a nested sequence of scalars, in row order."""
    if isinstance(value, (numbers.Real, str)):
        return [value]
    return [x for item in value for x in _flat(item)]


def normalize_ns(
    A0: Sequence[Sequence[Scalar]], B0: Sequence
) -> tuple[NsModel, tuple[tuple[Scalar, Scalar], tuple[Scalar, Scalar]]]:
    """Bring a controllable planar pair to the canonical form ([[0,1],[-1,2a]], [0,1]^T).

    Requires complex-conjugate eigenvalues on the unit circle, excluding
    +-1 and +-j.  Returns (model, T) with T^-1 A0 T and T^-1 B0 in canonical
    form; T, a tuple of two row tuples, is built from the controllability
    matrix, which pins the sign so that T^-1 B0 = [0,1]^T exactly.

    `A0` is a 2x2 nested sequence; `B0` has two entries, flat, 2x1 or 1x2.
    When every entry is exact (int or Fraction), `a = trace/2`, `T` and the
    gates are exact: a nonzero controllability determinant, det(A0) == 1
    and 0 < |trace| < 2.  Otherwise every entry is read with `float()`, and
    the gates are limits on the input matrix, not an equality policy: the
    controllability determinant must exceed `FLOAT_TOL` * scale^2, and det
    and trace may miss their bounds by 1e-6.
    """
    try:
        rows = [_flat(row) for row in A0]
    except TypeError:
        rows = []
    if len(rows) != 2 or any(len(row) != 2 for row in rows):
        raise NormalizationError("system matrix must be 2x2")
    b = _flat(B0)
    if len(b) != 2:
        raise NormalizationError(f"input matrix must have 2 entries, got {len(b)}")
    entries = rows[0] + rows[1] + b
    exact = all(is_exact(v) for v in entries)
    a00, a01, a10, a11, b0, b1 = map(Fraction if exact else float, entries)
    # the controllability matrix has columns B0 and A0 B0
    c0, c1 = a00 * b0 + a01 * b1, a10 * b0 + a11 * b1
    det_ctrb = b0 * c1 - b1 * c0
    det = a00 * a11 - a01 * a10
    trace = a00 + a11
    if exact:
        show = format_scalar
        uncontrollable = det_ctrb == 0
        off_circle, at_one, at_j = det != 1, abs(trace) >= 2, trace == 0
    else:
        show = "{:.6g}".format
        scale = max(abs(b0), abs(b1), abs(c0), abs(c1), 1.0)
        uncontrollable = abs(det_ctrb) <= FLOAT_TOL * scale**2
        off_circle = abs(det - 1.0) > 1e-6
        at_one, at_j = abs(trace) >= 2.0 - 1e-6, abs(trace) <= 1e-6
    if uncontrollable:
        raise NormalizationError("pair is not controllable")
    if off_circle:
        raise NormalizationError(f"eigenvalues off the unit circle (det={show(det)})")
    if at_one:
        raise NormalizationError(f"real eigenvalues at +-1 excluded (trace={show(trace)})")
    if at_j:
        raise NormalizationError("eigenvalues at +-j excluded (trace ~ 0)")
    # T = ctrb . ctrb_c^-1, where the canonical controllability matrix
    # ctrb_c = [[0,1],[1,2a]] has inverse [[-2a,1],[1,0]] and 2a = trace
    T = ((c0 - trace * b0, b0), (c1 - trace * b1, b1))
    return NsModel(trace / 2), T
