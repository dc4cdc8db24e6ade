"""Agent models, saturation, the relative-state controller, and simulation.

Two agent models share the scalar saturated input channel:

* double integrator:    x' = x + v,  v' = v + sat(u)
* neutrally stable:     x' = v,      v' = -x + 2a v + sat(u),  -1 < a < 1, a != 0

The model is one value: an `NsModel(a)`, or None for the double integrator,
which `simulate`, `Lattice` and `Trajectory` take and keep as `ns`.

The controller is diffusive: each agent feeds back weighted sums of
neighbor-relative positions and velocities, so it vanishes at consensus.

One row layout serves three number kinds: a tick is (X, V, D), numerators
over one denominator, and an input row (U, E).  An exact run of terminating
decimals steps on the `DecimalLattice`, whose rows hold the values as
`Decimal`s over D = E = Decimal(1); any other exact run on the integer
`Lattice`; a run with a float in it on the `FloatLattice`, whose rows hold
the values themselves over D = E = 1.0.  `Lattice.of` picks the kind, and a
`LatticeColumn` holds the rows of any.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import add, mul, sub
from typing import Callable, Iterable, Optional, Sequence

from .graphs import WeightedGraph
from .records import Record
from .scalars import (
    FLOAT_TOL,
    Scalar,
    decimal_scale,
    decimal_texts,
    distinct,
    exactly,
    format_scalar,
    is_exact,
    per_object,
    ratio_texts,
    scalars_equal,
    to_decimal,
)

#: bit-length cap on exact numerators/denominators before a run is aborted
MAX_EXACT_BITS = 1 << 20


class SimulationOverflowError(RuntimeError):
    """Exact-mode state grew beyond the resource cap, or a float one left
    the float range."""


class NormalizationError(ValueError):
    """Pair cannot be brought to the canonical neutrally stable form."""


class AgentState(Record, namedtuple("AgentState", "x v")):
    """Position `x` and velocity `v` of one agent."""

    __slots__ = ()

    def __neg__(self) -> "AgentState":
        return AgentState(-self.x, -self.v)


class GainParams(Record, namedtuple("GainParams", "alpha beta")):
    """Feedback gains on the relative positions (`alpha`) and velocities (`beta`)."""

    __slots__ = ()

    def integers(self) -> tuple[int, int, int]:
        """(A, B, G) with alpha = A/G and beta = B/G, G the lcm of their
        denominators; a float gain counts as its exact binary value."""
        (a, p), (b, q) = self.alpha.as_integer_ratio(), self.beta.as_integer_ratio()
        G = math.lcm(p, q)
        return a * (G // p), b * (G // q), G


class NsModel(Record, namedtuple("NsModel", "a")):
    """Rotation parameter a with A = [[0,1],[-1,2a]], B = [0,1]^T."""

    __slots__ = ()

    def __new__(cls, a: Scalar) -> "NsModel":
        if not (-1 < a < 1) or a == 0:
            raise ValueError(f"rotation parameter must be in (-1,1)\\{{0}}, got {a}")
        return super().__new__(cls, a)


class Trajectory(Record, namedtuple("Trajectory", "ns states raw_u sat_u")):
    """States over steps+1 ticks plus raw and saturated inputs per step.

    `ns` is the `NsModel` the run stepped, None on the double integrator.
    Each column (`states`, `raw_u`, `sat_u`) is a `LatticeColumn`: rows of
    `Decimal`s over 1 on a run of terminating decimals, integer rows on any
    other exact run, rows of floats over 1.0 on a float run.
    """

    __slots__ = ()

    @property
    def steps(self) -> int:
        return len(self.states) - 1

    @property
    def n(self) -> int:
        return len(self.states[0])


_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)

#: lattice coordinates of a network state: numerators X, V over denominator D
LatticeState = tuple[list[int], list[int], int]


class GroupSigns(dict):
    """`self[E][up]`, built once per E: the row that is E on group 0 and -E on
    group 1 when `up`, else its negation; a class step saturates as `self[E][U_0 > 0]`."""

    def __init__(self, group: list[int]) -> None:
        self.group = group

    def __missing__(self, E: int) -> tuple[list[int], list[int]]:
        low = -E
        self[E] = rows = [E if k else low for k in self.group], [low if k else E for k in self.group]
        return rows


class ClassRecord(
    Record, namedtuple("ClassRecord", "group j signed least signs last", defaults=(0,))
):
    """The two groups of a tick (`Lattice.two_classes`): each agent's `group`
    (agent 0's is 0), `j` group 1's first agent, so the class states of a tick
    on the groups are (X[0], V[0]) and (X[j], V[j]), each agent's scaled weight
    c_i to the other group `signed` (negated in group 1), the `least` |c_i| and
    the `signs` rows.  In a run, ticks 0..`last` are class-built: each step
    k < last is a class step, raw row k dY * c_i and saturated row k
    `signs[E][U_0 > 0]`."""

    __slots__ = ()


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
    """A read-only column of a `Trajectory`, its rows kept in the lattice row layout.

    `data[k]` is a tick (X, V, D) or an input row (U, E): U a list of
    numerators over E > 0, or the values themselves over E = 1 on a decimal
    run and E = 1.0 on a float run.  `decode` turns it into row k, a tuple
    of `AgentState`s or of scalars (`Fraction`s on an exact run), on first
    access, and the row is cached.  Slices return tuples,
    and a column equals the tuple of its rows.  `kind` is the loop class
    whose rows these are.  On the states of a `simulate`, `lattice` is the
    loop it stepped on, for its checks to reuse, and on a two-class start's
    `classes` is its `ClassRecord`; on the raw inputs of an exact one,
    `reflected` is the first tick p < steps that `reflects` tick 0, else 0:
    raw rows p..2p-1 are rows 0..p-1 negated.  None takes part in `==` or `hash`.
    """

    __slots__ = ("data", "decode", "_rows", "lattice", "classes", "reflected")

    def __init__(self, data: list[tuple], decode: Callable[..., tuple]) -> None:
        self.data = data
        self.decode = decode
        self._rows: list[Optional[tuple]] = [None] * len(data)
        self.lattice: Optional[Lattice] = None
        self.classes: Optional[ClassRecord] = None
        self.reflected = 0

    def __len__(self) -> int:
        return len(self.data)

    @property
    def kind(self) -> type[Lattice]:
        return row_kind(self.data[0])

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


def _weight_objects(g: WeightedGraph) -> dict[int, Scalar]:
    """The distinct weight objects of `g`, keyed by `id` (see `scalars.per_object`)."""
    return {id(w): w for nbrs in g.adjacency for _, w in nbrs}


def _loop_kind(
    g: WeightedGraph, gains: GainParams, ns: NsModel | None, values: Iterable[Scalar]
) -> tuple[type[Lattice], dict[int, Scalar]]:
    """`Lattice.kind_of` the loop's weights, gains, a and `values`, and `_weight_objects(g)`."""
    weights = _weight_objects(g)
    a = () if ns is None else (ns.a,)
    return Lattice.kind_of(chain(gains, a, weights.values(), distinct(values))), weights


def _check_values(values: Iterable[Fraction]) -> None:
    """Raise `SimulationOverflowError` if a value has a numerator or
    denominator of more than `MAX_EXACT_BITS` bits."""
    for c in values:
        if max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_EXACT_BITS:
            raise SimulationOverflowError(
                "exact state exceeded the resource cap "
                f"({MAX_EXACT_BITS} bits); rerun in float mode or fewer steps"
            )


def _check_tick(X: list[int], V: list[int], D: int) -> None:
    """`_check_values` of the tick's values, reduced."""
    # a reduced value x/D has no more bits than x and D, so the values are
    # reduced only when this bound exceeds the cap
    if max(D, max(X), -min(X), max(V), -min(V)).bit_length() > MAX_EXACT_BITS:
        _check_values(map(Fraction, chain(X, V), repeat(D)))


def _fraction_digits(values: Iterable[Decimal]) -> int:
    """Minus the least exponent of `values` and 0, the exponent of their exact sum."""
    s = sum(values, _DECIMAL_ZERO)
    return -(s - s).adjusted()


def _decimal_digits(X: list[Decimal], V: list[Decimal]) -> int:
    """A bound on the digits of each value of a tick as an integer over
    10^`_fraction_digits`; the top exponent counts as 0 at least, as a
    normalized zero's is."""
    top = max(0, max(map(Decimal.adjusted, X)), max(map(Decimal.adjusted, V)))
    return top + 1 + _fraction_digits(chain(X, V))


def _check_decimals(X: list[Decimal], V: list[Decimal], D: Decimal) -> None:
    """`_check_values` of a tick of `Decimal`s, which trips where `_check_tick`
    of the same values does."""
    # every value is below 10^digits <= 2^cap when digits <= cap * 0.3; only
    # past that are the values reduced
    if _decimal_digits(X, V) > MAX_EXACT_BITS * 3 // 10:
        _check_values(map(Fraction, chain(X, V)))


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
    reduced denominators.  A tick of the paper's orbit, one state per class,
    `class_step` steps as its two class states (`two_classes`).  `graph`,
    `gains` and `ns` are the loop it was built for.  `weights`, when given, is
    `_weight_objects(g)`.

    The static methods are the row layout's number kind, which
    `DecimalLattice` and `FloatLattice` override: `encode`/`decode` a tick,
    `encode_inputs` and `ratios` an input row, `texts` a row's CSV texts
    (`UNIT_TEXTS` those of +-1), `over` a value as a numerator over a tick's
    D, `equal` the checks' tick compare, `same` the compare that closes a
    run, `check` the `MAX_EXACT_BITS` cap and `horizon` the last step of a
    run on which `check` cannot trip.
    """

    #: rows of this kind hold integers, which the inverted period and the
    #: mirrored CSV texts need
    exact = True
    UNIT_TEXTS = ("1", "-1")

    def __init__(
        self,
        g: WeightedGraph,
        gains: GainParams,
        ns: NsModel | None,
        weights: Optional[dict[int, Fraction]] = None,
    ) -> None:
        if weights is None:
            weights = _weight_objects(g)
        q_w = math.lcm(*(w.denominator for w in weights.values()))
        # a parsed graph shares one object per distinct weight, scaled once
        self._csr(g, {key: w.numerator * (q_w // w.denominator) for key, w in weights.items()})
        self.A, self.B, G = gains.integers()
        self.K = G * q_w
        self.graph, self.gains, self.ns = g, gains, ns
        two_a = 2 * ns.a if ns is not None else 0
        self.P, self.R = two_a.numerator, two_a.denominator

    def _csr(self, g: WeightedGraph, scaled: dict[int, Scalar]) -> None:
        """The CSR weights of `g`, each weight object's `scaled[id]`, and the degrees."""
        self.J = [j for nbrs in g.adjacency for j, _ in nbrs]
        self.W = [scaled[id(w)] for nbrs in g.adjacency for _, w in nbrs]
        offsets = list(accumulate(map(len, g.adjacency), initial=0))
        self.starts, self.ends = offsets[:-1], offsets[1:]
        self.degrees = [sum(self.W[s:e]) for s, e in zip(self.starts, self.ends)]

    @staticmethod
    def kind_of(values: Iterable[Scalar]) -> type[Lattice]:
        """The number kind of `values`: `DecimalLattice` when all are terminating
        decimals (a `Decimal` is one), `Lattice` when all are exact, else
        `FloatLattice`."""
        rationals = [c for c in values if not isinstance(c, Decimal)]
        if not all(map(is_exact, rationals)):
            return FloatLattice
        # the lcm of the denominators has their primes
        if decimal_scale(math.lcm(*(c.denominator for c in rationals))) is None:
            return Lattice
        return DecimalLattice

    @staticmethod
    def of(
        g: WeightedGraph, gains: GainParams, ns: NsModel | None, values: Iterable[Scalar]
    ) -> Lattice:
        """This loop in the number kind (`kind_of`) of its weights, gains, a and `values`."""
        kind, weights = _loop_kind(g, gains, ns, values)
        return kind(g, gains, ns, weights)

    @classmethod
    def encode(cls, states: Sequence[tuple[Scalar, Scalar]]) -> LatticeState:
        """The tick of (x, v) states, by `encode_inputs`.

        On exact states D is the lcm of the denominators.  The values are in
        lowest terms, so for each prime of D some numerator over D is not a
        multiple of it: no factor is common to D and every numerator, and
        equal states give equal ticks.
        """
        N, D = cls.encode_inputs([x for x, _ in states] + [v for _, v in states])
        return N[: len(states)], N[len(states) :], D

    @staticmethod
    def decode(X: list[int], V: list[int], D: int) -> tuple[AgentState, ...]:
        return tuple(AgentState(Fraction(x, D), Fraction(v, D)) for x, v in zip(X, V))

    @staticmethod
    def encode_inputs(values: Sequence[Scalar]) -> tuple[list[int], int]:
        """The exact values as numerators over the lcm of their denominators."""
        return ratio_row(per_object(lambda c: (c.numerator, c.denominator), values))

    ratios = staticmethod(ratios)
    texts = staticmethod(ratio_texts)

    @staticmethod
    def over(N: int, q: int, D: int) -> Optional[int]:
        """N/q as a numerator over D, or None when it is none."""
        x, rest = divmod(N * D, q)
        return None if rest else x

    @staticmethod
    def equal(a: tuple, b: tuple) -> bool:
        """Whether two rows are equal; reduced ticks are equal exactly when their
        states are.  D is compared first, which tells most ticks apart."""
        return a[-1] == b[-1] and a == b

    same = equal
    check = staticmethod(_check_tick)

    def horizon(self, X: list[int], V: list[int], D: int) -> int:
        """0: the integer kind's `check`, one max/min pass, runs on every step."""
        return 0

    def inputs(self, X: list[int], V: list[int]) -> list[int]:
        """Raw-input numerators U over E = K*D: sum_j w_ij (Y_j - Y_i), Y = A*X + B*V.

        `acc` holds the prefix sums of w_ij Y_j over the CSR edges, built by
        `accumulate` in C, so agent i's neighbour sum is acc[ends[i]] - acc[starts[i]];
        every sum is an operator `map`, for both exact kinds.
        """
        Y = list(map(add, map(self.A.__mul__, X), map(self.B.__mul__, V)))
        acc = list(accumulate(map(mul, self.W, map(Y.__getitem__, self.J)), initial=0))
        sums = map(sub, map(acc.__getitem__, self.ends), map(acc.__getitem__, self.starts))
        return list(map(sub, sums, map(mul, self.degrees, Y)))

    def two_classes(self, X: list[int], V: list[int]) -> Optional[ClassRecord]:
        """The `ClassRecord` of a tick of exactly two distinct states, or None; each
        c_i is summed by prefix sums as in `inputs`."""
        # no tuple per agent: a few thousand new containers set off the cyclic collector
        group = [int(x != X[0] or v != V[0]) for x, v in zip(X, V)]
        if 1 not in group:
            return None
        j = group.index(1)
        xs, vs = [X[0], X[j]], [V[0], V[j]]
        if X != list(map(xs.__getitem__, group)) or V != list(map(vs.__getitem__, group)):
            return None
        acc = list(accumulate(map(mul, self.W, map(group.__getitem__, self.J)), initial=0))
        agents = zip(self.starts, self.ends, self.degrees, group)
        signed = [acc[e] - acc[s] - k * d for s, e, d, k in agents]
        return ClassRecord(group, j, signed, min(map(abs, signed)), GroupSigns(group))

    def step(self, X: list[int], V: list[int], D: int) -> tuple[LatticeState, list, int, list]:
        """One forward step: the next lattice state, the raw inputs U over E = K*D
        and the saturated ones over E (`clamped`), which a run records."""
        E = self.K * D
        R = self.R
        U = self.inputs(X, V)
        mult = R * self.K if any(-E < u < E for u in U) else R
        DM = D * mult
        # applied input times the new denominator D*mult
        S = [DM if u >= E else -DM if u <= -E else u * R for u in U]
        return self._advance(X, V, S, D, mult), U, E, clamped(U, E)

    def class_step(
        self, X: list[int], V: list[int], D: int, classes: ClassRecord
    ) -> Optional[tuple[LatticeState, list[int], int, list[int]]]:
        """`step` of a tick on the groups of `classes` as its two class states, or
        None when an input does not saturate: intra terms vanish, so U_i = c_i * dY,
        dY = Y_j - Y_0, and all saturate when the least |c_i| times |dY| reaches E;
        the saturated row is `signs[E][U_0 > 0]`, U_0 having dY's sign."""
        j = classes.j
        xs, vs = [X[0], X[j]], [V[0], V[j]]
        dY = self.A * (xs[1] - xs[0]) + self.B * (vs[1] - vs[0])
        E = self.K * D
        if classes.least * abs(dY) < E:
            return None
        R = self.R
        s = D * R if dY > 0 else -D * R
        Xn, Vn, DM = self._advance(xs, vs, [s, -s], D, R)
        group = classes.group
        tick = list(map(Xn.__getitem__, group)), list(map(Vn.__getitem__, group)), DM
        return tick, list(map(dY.__mul__, classes.signed)), E, classes.signs[E][dY > 0]

    def _advance(self, X: list[int], V: list[int], S: list[int], D: int, mult: int) -> LatticeState:
        """The reduced tick over D*mult from X, V over D and applied inputs S over D*mult."""
        if mult == 1:
            # nothing widens, so nothing is scaled or reduced; on ns R = 1
            if self.ns is None:
                return list(map(add, X, V)), list(map(add, V, S)), D
            return list(V), list(map(add, map(sub, map(self.P.__mul__, V), X), S)), D
        if self.ns is None:
            Xn = [(x + v) * mult for x, v in zip(X, V)]
            Vn = [v * mult + s for v, s in zip(V, S)]
        else:
            Ph = self.P * (mult // self.R)
            Xn = [v * mult for v in V]
            Vn = [Ph * v - x * mult + s for x, v, s in zip(X, V, S)]
        return _reduced(Xn, Vn, D * mult, mult)

    def unstep(
        self, X: list[int], V: list[int], D: int, S: list[int], Es: int
    ) -> LatticeState:
        """Inverse of one step, given the saturated inputs S/Es (Es > 0) it applied."""
        # S/Es in lowest common terms is (S/c)/q; D*mult is the least
        # multiple of D that q divides, times R on ns
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


_DECIMAL_ZERO, _DECIMAL_ONE = Decimal(0), Decimal(1)


class DecimalLattice(Lattice):
    """The exact closed loop of a run of terminating decimals: every weight,
    gain, a and start value has a denominator 2^a 5^b, and so does every
    state and input, which sums and products of such values are.

    A tick is (X, V, 1) and an input row (U, 1): the values themselves as
    `Decimal`s over Decimal(1), so the CSV writer formats them in base ten,
    with no conversion from binary.  `W`, `A`, `B` and `P` are the weights,
    gains and 2a as `Decimal`s and K = R = 1, so `inputs` and `_advance` are
    the `Lattice`'s with mult = 1: no step widens D and no gcd is taken.
    Every value is normalized where it is made: `step` drops the trailing
    zeros of the states and raw inputs it makes, and `encode` writes a value
    with none after its point, so `decimal_texts` writes a row by `str`.
    `decode` and `ratios` give `Fraction`s.  All arithmetic runs in `EXACT`:
    the constructor enters it, and the lattice's methods are called in it
    (by `simulate` and the checks, `exactly`).

    Decimal arithmetic costs more than int arithmetic, and pays for itself
    on the texts of long, distinct values, which CSR steps make.  So a run
    that class-steps from its start, such as the paper's orbit, whose rows
    are two short class states and the products dY * c_i, keeps the integer
    `Lattice`, and `simulate` builds this kind, with no class record, only
    for a run whose first step is a CSR step.
    """

    @exactly
    def __init__(
        self,
        g: WeightedGraph,
        gains: GainParams,
        ns: NsModel | None,
        weights: Optional[dict[int, Fraction]] = None,
    ) -> None:
        if weights is None:
            weights = _weight_objects(g)
        self._csr(g, {key: to_decimal(w) for key, w in weights.items()})
        self.A, self.B = to_decimal(gains.alpha), to_decimal(gains.beta)
        self.K = self.R = 1
        self.P = to_decimal(2 * ns.a) if ns is not None else 0
        self.graph, self.gains, self.ns = g, gains, ns

    @staticmethod
    def decode(X: list, V: list, D: Decimal) -> tuple[AgentState, ...]:
        return tuple(AgentState(Fraction(x), Fraction(v)) for x, v in zip(X, V))

    @staticmethod
    def encode_inputs(values: Sequence[Scalar]) -> tuple[list[Decimal], Decimal]:
        return per_object(to_decimal, values), _DECIMAL_ONE

    @staticmethod
    def ratios(U: list, E: Decimal) -> tuple[Fraction, ...]:
        return tuple(map(Fraction, U))

    texts = staticmethod(decimal_texts)
    check = staticmethod(_check_decimals)

    def step(self, X: list, V: list, D: Decimal) -> tuple[LatticeState, list, Decimal, list]:
        """`Lattice.step` over E = D = 1: no step widens, the inputs it applies
        are the saturated ones it records, and the trailing zeros of the raw
        inputs and new states are dropped (`normalize`), as the integer kind
        divides out a gcd."""
        U = list(map(Decimal.normalize, self.inputs(X, V)))
        S = clamped(U, D)
        Xn, Vn, _ = self._advance(X, V, S, D, 1)
        return (list(map(Decimal.normalize, Xn)), list(map(Decimal.normalize, Vn)), D), U, D, S

    def horizon(self, X: list, V: list, D: Decimal) -> int:
        """The last step of a run from the tick (X, V, D) on which `check` cannot trip."""
        first, per_step = self.digit_bound(X, V)
        return (MAX_EXACT_BITS * 3 // 10 - first) // per_step

    def digit_bound(self, X: list, V: list) -> tuple[int, int]:
        """(first, per_step): `_decimal_digits` of tick p of a run from (X, V) is at
        most first + p * per_step.  As |u_i| <= 2 deg_i (|alpha| + |beta|) max |value|,
        a step multiplies the largest |value| by at most c = 2 + |2a| + 2 (largest
        deg_i)(|alpha| + |beta|) < 10^(c.adjusted() + 1), and lowers the least exponent
        by at most those of the weights, gains and 2a."""
        A, B, P = self.A, self.B, self.P
        c = 2 + abs(P) + 2 * max(self.degrees) * (abs(A) + abs(B))
        drop = _fraction_digits(self.W) + _fraction_digits((A, B)) + _fraction_digits((P,))
        return _decimal_digits(X, V), c.adjusted() + 1 + drop

    @staticmethod
    def over(N: Decimal, q: Decimal, D: Decimal) -> Decimal:
        """N itself: q and D are 1."""
        return N

    def unstep(self, X: list, V: list, D: Decimal, S: list, Es: Decimal) -> LatticeState:
        """`Lattice.unstep` over D = Es = 1: the step it inverts took no mult."""
        if self.ns is None:
            Vp = [v - s for v, s in zip(V, S)]
            return [x - v for x, v in zip(X, Vp)], Vp, D
        P = self.P
        return [P * x + s - v for x, v, s in zip(X, V, S)], list(X), D


class FloatLattice(Lattice):
    """The closed loop of a run with a float in it, in the lattice row layout.

    A tick is (X, V, 1.0) and an input row (U, 1.0): the values themselves
    over 1.0.  `inputs` sums u_i = alpha * sum w (x_j - x_i) + beta * sum w (v_j - v_i)
    per agent in adjacency order, from the int 0, one `w*(x_j - x_i)` term
    at a time, so every value is the per-agent stepper's bit for bit.
    K = R = 1: `step` applies the saturated inputs over E = D = 1.0 that it
    records through the `Lattice`'s `_advance` with mult = 1 and P = 2a, and a
    step whose tick or raw inputs hold an inf or a nan raises
    `SimulationOverflowError`.  The exact-only parts stay off:
    no two-class step, whose prefix sums would reorder the float sums, and
    no inverted period.
    """

    exact = False
    UNIT_TEXTS = ("1.0", "-1.0")

    def __init__(
        self, g: WeightedGraph, gains: GainParams, ns: NsModel | None, weights: object = None
    ) -> None:
        self.graph, self.gains, self.ns = g, gains, ns
        self.K = self.R = 1
        self.P = 2 * ns.a if ns is not None else 0

    @staticmethod
    def decode(X: list, V: list, D: float) -> tuple[AgentState, ...]:
        return tuple(map(AgentState, X, V))

    @staticmethod
    def encode_inputs(values: Sequence[Scalar]) -> tuple[list, float]:
        return list(values), 1.0

    @staticmethod
    def ratios(U: list, E: float) -> tuple:
        return tuple(U)

    @staticmethod
    def texts(N: list, D: float) -> list[str]:
        return list(map(format_scalar, N))

    @staticmethod
    def over(N: Scalar, q: float, D: float) -> Scalar:
        """N itself: q and D are 1.0."""
        return N

    @staticmethod
    def equal(a: tuple, b: tuple) -> bool:
        """Whether two rows hold values equal under `scalars_equal`; rows of
        equal finite values, the common case, are told by one list compare."""
        if a[:-1] == b[:-1] and all(map(math.isfinite, chain(*a[:-1]))):
            return True
        return len(a[0]) == len(b[0]) and all(
            map(scalars_equal, chain(*a[:-1]), chain(*b[:-1]))
        )

    @staticmethod
    def same(a: tuple, b: tuple) -> bool:
        """Whether two ticks are one state bit for bit: `==` alone would take
        -0.0 for 0.0, and 0 for 0.0."""
        return a == b and list(map(repr, chain(*a[:-1]))) == list(map(repr, chain(*b[:-1])))

    @staticmethod
    def check(X: list, V: list, D: float) -> None:
        """Floats have no resource cap."""

    def two_classes(self, X: list, V: list) -> None:
        return None

    def step(self, X: list, V: list, D: float) -> tuple[LatticeState, list, float, list]:
        U = self.inputs(X, V)
        S = clamped(U, D)
        tick = self._advance(X, V, S, D, 1)
        if not all(map(math.isfinite, chain(tick[0], tick[1], U))):
            raise SimulationOverflowError(
                "float state or input left the float range (inf or nan); rerun in exact mode"
            )
        return tick, U, D, S

    def inputs(self, X: list, V: list) -> list:
        alpha, beta = self.gains
        U = []
        for x, v, nbrs in zip(X, V, self.graph.adjacency):
            acc_x = acc_v = 0
            for j, w in nbrs:
                acc_x = acc_x + w * (X[j] - x)
                acc_v = acc_v + w * (V[j] - v)
            U.append(alpha * acc_x + beta * acc_v)
        return U


_KINDS = {int: Lattice, Decimal: DecimalLattice, float: FloatLattice}


def row_kind(row: tuple) -> type[Lattice]:
    """The kind of a row by its denominator: `Lattice` over an int,
    `DecimalLattice` over a `Decimal`, `FloatLattice` over a float."""
    return _KINDS[type(row[-1])]


@exactly
def simulate(
    g: WeightedGraph,
    gains: GainParams,
    init: Sequence[AgentState],
    steps: int,
    ns: NsModel | None = None,
) -> Trajectory:
    """Roll the closed-loop network forward, recording raw and saturated inputs.

    The run steps on `Lattice.of` the loop and `init`: a run of terminating
    decimals on the `DecimalLattice`, unless it takes no step or its first
    step is a class step (on the integer `Lattice`, which then steps it), any
    other exact run on the integer `Lattice`, any other on the `FloatLattice`.
    Its rows are ticks (X, V, D), raw inputs (U, E) and saturated inputs (S, E),
    each S_i the raw U_i clamped to +-E, as each step gives them.  The cap is
    decided once per run: `check` runs only on the ticks past the `horizon` of
    the start tick, so a run stops where checking every tick stops it.  A tick
    the loop finds the `same` as the first is the start state again: from
    there on the deterministic loop repeats its rows, which are shared by
    reference instead of stepped.  On exact ticks the match compares D first,
    so a run off the orbit pays one int compare per step; a run whose tick p
    `reflects` its start closes at tick 2p, and on an exact run its raw inputs
    record p (`LatticeColumn.reflected`).  A two-class start keeps its
    `ClassRecord` (`LatticeColumn.classes`): it takes class steps, capped on
    the two states and saturated by group, up to the first tick with an
    unsaturated input, `last`, and the CSR sums after.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    init = tuple(init)
    if steps and len(init) != g.n:
        raise ValueError(f"expected {g.n} agent states, got {len(init)}")
    kind, weights = _loop_kind(g, gains, ns, (c for s in init for c in (s.x, s.v)))
    lattice = (Lattice if kind is DecimalLattice else kind)(g, gains, ns, weights)
    tick = lattice.encode(init)
    classes = lattice.two_classes(tick[0], tick[1]) if steps else None
    stepped = classes is not None and lattice.class_step(*tick, classes)
    # a run of terminating decimals class-steps on integers (see DecimalLattice)
    if kind is DecimalLattice and steps and not stepped:
        lattice = kind(g, gains, ns, weights)
        tick, classes = lattice.encode(init), None
    horizon = lattice.horizon(*tick) if steps else 0
    ticks = [tick]
    raw: list[tuple[list, Scalar]] = []
    sat: list[tuple[list, Scalar]] = []
    period = last = 0
    for p in range(1, steps + 1):
        if p > 1:
            # the class step is tried only while every step so far took it
            stepped = last == p - 1 and lattice.class_step(*tick, classes)
        if not stepped:
            tick, U, E, S = lattice.step(*tick)
            if p > horizon:
                lattice.check(*tick)
        else:
            # a class-built tick holds its two states' values
            tick, U, E, S = stepped
            last = p
            X, V, D = tick
            lattice.check([X[0], X[classes.j]], [V[0], V[classes.j]], D)
        raw.append((U, E))
        sat.append((S, E))
        if lattice.same(tick, ticks[0]):
            period = p
            break
        ticks.append(tick)
    if period:
        # row j of every column is row j mod the period, the same object, so
        # the CSV writer formats each repeated row once
        ticks += [ticks[j % period] for j in range(len(ticks), steps + 1)]
        raw += [raw[j % period] for j in range(len(raw), steps)]
        sat += [sat[j % period] for j in range(len(sat), steps)]
        if last == period:
            # every step repeats a class step
            last = steps
    states = LatticeColumn(ticks, lattice.decode)
    states._rows[0] = init
    raw_u = LatticeColumn(raw, lattice.ratios)
    if lattice.exact:
        # in floats (c - x_j) - (c - x_i) need not be -(x_j - x_i) bit for bit
        raw_u.reflected = next((p for p in range(1, steps) if reflects(ticks[0], ticks[p], ns)), 0)
    states.lattice = lattice
    if classes is not None:
        states.classes = classes._replace(last=last)
    return Trajectory(lattice.ns, states, raw_u, LatticeColumn(sat, lattice.ratios))


def clamped(U: list[int], E: int) -> list[int]:
    """The saturated numerators over E of the raw inputs U/E: each U_i clamped to
    +-E, the saturated ones sharing the objects E and -E."""
    low = -E
    return [E if u >= E else low if u <= low else u for u in U]


def reflects(first: LatticeState, tick: LatticeState, ns: NsModel | None) -> bool:
    """Whether `tick` is R_c of the tick `first`, R_c(x, v) = (c - x, -v) with one c
    for every agent, and R_c commutes with the loop.

    R_c negates each input, since the controller reads only differences, and
    saturation is odd: so it commutes with the di loop for every c, and with
    the ns loop for c = 0 only.  If tick p of a run is R_c of tick 0, then
    tick p+j is R_c of tick j and its inputs are those of tick j negated.
    Tick p is R_c of tick 0 when D_p = D_0, V_p = -V_0 and X_p + X_0 is one
    constant c*D_0; one agent's V is tested first, so most ticks of an orbit
    are told apart in O(1).
    """
    X0, V0, D0 = first
    X, V, D = tick
    if D != D0 or V[0] != -V0[0]:
        return False
    C = X[0] + X0[0]
    return (ns is None or C == 0) and V == [-v for v in V0] and X == [C - x for x in X0]


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
