"""Command-line surface: partition, synthesize, simulate, verify.

Exit codes: 0 success, 1 usage or I/O error, 2 gain gate failure,
3 infeasible position system, 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import chain, count, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, Optional, Sequence

from .dynamics import (
    AgentState,
    FloatLattice,
    GainParams,
    Lattice,
    LatticeColumn,
    NsModel,
    SimulationOverflowError,
    Trajectory,
    row_kind,
    simulate,
)
from .graphs import (
    DistanceClasses,
    GraphFormatError,
    NotConnectedError,
    Partition,
    WeightedGraph,
    distance_classes,
    make_partition,
    parse_graph,
)
from .records import Record
from .scalars import (
    Scalar,
    format_scalar,
    negated_texts,
    over_digit_limit,
    parse_int,
    parse_scalar,
    per_object,
    quoted,
    ratio_texts,
    scalars_equal,
)
from .synthesis import (
    GainConditionError,
    InfeasibleConstraintsError,
    OrbitPlan,
    exact_inputs,
    interval_numerators,
    synthesize_di,
    synthesize_ns,
)
from .verify import verification_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GATE = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


class RunConfig(
    Record,
    namedtuple(
        "RunConfig",
        "model a alpha beta root m steps base anchor mode init",
        defaults=("di", None, None, None, 1, None, None, None, None, "exact", None),
    ),
):
    """A command's settings from its config file and flags (see `build_config`).

    Each field is named after its config key and its flag.  `m` is the
    half-period override, `base` the anchored base position, `root` and
    `anchor` 1-based agents, and `init` a tuple of (x, v) pairs.  Every field
    but `model`, `root` and `mode` is None when neither the file nor a flag
    gives it.
    """

    __slots__ = ()

    def validate(self) -> None:
        _ns_model(self.model, self.a)
        if self.alpha is None or self.beta is None:
            raise CliError("alpha and beta are required")


def _ns_model(model: str, a: Optional[Scalar]) -> Optional[NsModel]:
    """The ns agent model for `a`, None for di; a bad `a` is a usage error."""
    if model == "di":
        return None
    if a is None:
        raise CliError("model=ns requires the rotation parameter a")
    try:
        return NsModel(a)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _parse_init_list(text: str, mode: str) -> tuple[tuple[Scalar, Scalar], ...]:
    pairs = []
    for chunk in filter(None, map(str.strip, text.split(";"))):
        parts = chunk.split(",")  # parse_scalar strips each part
        if len(parts) != 2:
            raise CliError(f"bad init pair {quoted(chunk)} (want 'x,v')")
        pairs.append((parse_scalar(parts[0], mode), parse_scalar(parts[1], mode)))
    return tuple(pairs)


def _read_text(path: str, what: str) -> str:
    """The text of the file at `path`; one that cannot be read or decoded is a usage error."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc


def _entries(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line of `text` but blanks and `#` comments."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _read_entry(line: str, keys: Sequence[str], values: dict[str, str], where: str) -> str:
    """Add the `key=value` line to `values` and return its key; a line without
    "=", a key outside `keys` and a repeated key are usage errors after `where`."""
    if "=" not in line:
        raise CliError(f"{where} expected key=value")
    key, _, value = line.partition("=")
    key = key.strip()
    if key not in keys:
        raise CliError(f"{where} unknown key {quoted(key)}")
    if key in values:
        raise CliError(f"{where} repeated key {quoted(key)}")
    values[key] = value.strip()
    return key


def load_config(path: str) -> dict[str, str]:
    """The key=value entries of the config file at `path`, whose keys are the
    `RunConfig` fields; an unknown or repeated key is a usage error."""
    values: dict[str, str] = {}
    for lineno, line in _entries(_read_text(path, "config")):
        _read_entry(line, RunConfig._fields, values, f"{path}:{lineno}:")
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    raw: dict[str, str] = {}
    if getattr(args, "config", None):
        raw = load_config(args.config)
    # flags win over config file entries
    for key in RunConfig._fields:
        flag = getattr(args, key, None)
        if flag is not None:
            raw[key] = str(flag)
    model = raw.get("model", "di")
    mode = raw.get("mode", "exact")
    # a config file's choices are checked here, as argparse checks the flags'
    if model not in ("di", "ns"):
        raise CliError(f"unknown model {quoted(model)}")
    if mode not in ("exact", "float"):
        raise CliError(f"unknown mode {quoted(mode)}")
    scalar = functools.partial(parse_scalar, mode=mode)
    # each key's reader, in the order the values are read
    readers = {
        "a": scalar, "alpha": scalar, "beta": scalar, "root": parse_int, "m": parse_int,
        "steps": parse_int, "base": scalar, "anchor": parse_int,
        "init": functools.partial(_parse_init_list, mode=mode),
    }
    try:
        values = {key: read(raw[key]) for key, read in readers.items() if key in raw}
    except ValueError as exc:
        raise CliError(f"bad config value: {exc}") from exc
    return RunConfig(model=model, mode=mode, **values)


@contextlib.contextmanager
def _within_digit_limit(what: str, hint: str = "") -> Iterator[None]:
    """Turn a `ValueError` of the block into one usage error naming `what`; in
    each block this wraps, only a text of more digits than Python converts an
    integer to (`sys.get_int_max_str_digits()`, 4300 by default) raises one."""
    try:
        yield
    except ValueError as exc:
        raise CliError(
            f"the {what} holds a value of more than {sys.get_int_max_str_digits()} "
            f"digits, beyond Python's limit on converting an integer to text{hint}"
        ) from exc


def _load_graph(path: str, mode: str) -> WeightedGraph:
    text = _read_text(path, "graph")
    try:
        return parse_graph(text, mode)
    except GraphFormatError as exc:
        raise CliError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# plan files

#: the key=value lines of a plan file, in the order `plan_to_text` writes them
PLAN_KEYS = ("model", "alpha", "beta", "root", "m", "T", "a")

#: an agent line of a plan file: blanks may stand around the index, the
#: colon and each field, and each field is `key=value` with no blank before "="
_AGENT_LINE = re.compile(r"agent\s+([0-9]+)\s*:\s*x=([^,]*),\s*v=([^,]*)")

#: an agent line as `plan_to_text` writes it, a whole line; `re` compiles
#: it on first use
_WRITTEN_AGENT_LINE = r"^agent ([0-9]+): x=([^,\s]+), v=([^,\s]+)$"


def plan_to_text(plan: OrbitPlan) -> str:
    """The plan file; a synthesized plan shares one start state per class, and
    each distinct state object is formatted once."""
    lines = [
        f"model={plan.model}",
        f"alpha={format_scalar(plan.gains.alpha)}",
        f"beta={format_scalar(plan.gains.beta)}",
        f"root={plan.partition.root + 1}",
        f"m={plan.half_period}",
        f"T={plan.period}",
    ]
    if plan.model == "ns":
        lines.append(f"a={format_scalar(plan.a)}")
    states = per_object(lambda s: f"x={format_scalar(s.x)}, v={format_scalar(s.v)}", plan.init)
    lines += [f"agent {i}: {state}" for i, state in zip(count(1), states)]
    return "\n".join(lines) + "\n"


def _agent_block(
    text: str, n: int, state_of: Callable[[str, str], AgentState]
) -> tuple[Optional[tuple[AgentState, ...]], int]:
    """(the start states, the offset of the first agent line) of a plan whose
    agent lines all follow its key lines and are as `plan_to_text` writes
    them, agents 1..n in order and every value readable; (None, 0) for any
    other text.  The lines are matched in one pass, and `state_of` gives the
    state of each `(x, v)` text pair."""
    start = text.find("\nagent ") + 1
    if not start or "agent" in text[:start]:
        return None, 0
    rows = re.compile(_WRITTEN_AGENT_LINE, re.M).findall(text, start)
    # a match is a whole line, so n matches on n lines, each ended by "\n",
    # leave no other line
    if not (len(rows) == n == text.count("\n", start) and text.endswith("\n")):
        return None, 0
    indices, xs, vs = zip(*rows)
    if indices != tuple(map(str, range(1, n + 1))):
        return None, 0
    try:
        return tuple(map(state_of, xs, vs)), start
    except ValueError:
        return None, 0


def plan_from_text(text: str, g: WeightedGraph, mode: str = "exact") -> OrbitPlan:
    """The plan of a plan file, with the distance classes of `g` from its root.

    Each distinct value text is parsed once, and the agents of one `(x, v)`
    text pair share one state, as a synthesized plan shares one per class.
    Agent lines as `plan_to_text` writes them are read as one block
    (`_agent_block`); every other line, and every agent line of any other
    text, one at a time.  An unknown or repeated key, an agent line off
    `_AGENT_LINE` and `a` on a di plan are usage errors.
    """
    meta: dict[str, str] = {}
    a_line = 0
    init: dict[int, AgentState] = {}
    parse = functools.cache(lambda text: parse_scalar(text, mode))
    state_of = functools.cache(lambda x, v: AgentState(parse(x), parse(v)))
    states, start = _agent_block(text, g.n, state_of)
    for lineno, line in _entries(text if states is None else text[:start]):
        if not line.startswith("agent "):
            if _read_entry(line, PLAN_KEYS, meta, f"plan line {lineno}:") == "a":
                a_line = lineno
            continue
        match = _AGENT_LINE.fullmatch(line)
        if match is None:
            raise CliError(f"plan line {lineno}: {quoted(line)} is not 'agent <i>: x=<x>, v=<v>'")
        try:
            idx = int(match[1])
        except ValueError:  # the pattern admits ASCII digits only, so past the digit limit
            what = f"agent index {quoted(match[1])}"
            raise CliError(f"plan line {lineno}: {over_digit_limit(what)}") from None
        try:
            state = state_of(match[2], match[3])
        except ValueError as exc:
            raise CliError(f"plan line {lineno}: {exc}") from exc
        if idx - 1 in init:
            raise CliError(f"plan line {lineno}: duplicate agent {idx}")
        init[idx - 1] = state
    if states is None and sorted(init) == list(range(g.n)):
        states = tuple(init[i] for i in range(g.n))
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
    ns = _ns_model(model, a)
    # the orbit of di has period T = 2m, that of ns T = 4 with m = 2
    if model == "di" and (m < 1 or period != 2 * m):
        raise CliError(f"plan has m={m}, T={period}; di needs T = 2m with m >= 1")
    if model == "ns" and (m, period) != (2, 4):
        raise CliError(f"plan has m={m}, T={period}; ns needs m = 2, T = 4")
    if states is None:
        raise CliError(f"plan does not cover all {g.n} agents")
    classes = _partition(g, root, split=False)
    return OrbitPlan(ns=ns, gains=gains, partition=classes, half_period=m, init=states)


# ---------------------------------------------------------------------------
# CSV trajectories

CSV_HEADER = "k,agent,x,v,u_raw,u_sat"


#: the values (rows times agents) in a block of CSR rows (see `_csv_pieces`)
CSV_BLOCK = 256


def _sat_texts(kind: type[Lattice], S: list, Es: Scalar, U: Iterable, rs: list[str]) -> list[str]:
    """The `u_sat` texts of S over Es: the `u_raw` text in `rs` where S holds, as `clamped`
    shares it, the raw input's object in `U`, else told by value (hashing a Decimal is dear)."""
    up, down = kind.UNIT_TEXTS
    low = -Es
    return [
        r if s is u else up if s == Es else down if s == low else kind.texts([s], Es)[0]
        for s, u, r in zip(S, U, rs)
    ]


def _csv_pieces(t: Trajectory) -> Iterator[str]:
    """The text of `trajectory_to_csv(t)` after its header, one piece per step:
    step k stamps `k,` before each of its row's n tails `i,x,v,u_raw,u_sat`.

    A closed orbit shares its repeated rows by reference (see `simulate`), so
    the tails of a (tick, raw, sat) row whose objects recur are formatted
    once and kept.  With a `ClassRecord` (`LatticeColumn.classes`), a tick
    k <= last is written by class: one `x,v` text per class state, spread by
    group.  A class step's raw row is dY times each agent's signed weight c_i,
    so each distinct c_i is a slot, and a row k < last that is the spread of
    its slots' values (one list compare, which an edited row fails) formats
    one value per slot; a class step's row that equals its group-signed row
    takes its `u_sat` texts from the group's sign.  On a run whose tick p
    reflects its start (`LatticeColumn.reflected`), the `u_raw` texts of
    rows p..2p-1 are row k-p's, per slot or per agent, with the sign
    toggled.  Those rows, and an integer run's, each over its own D, are
    formatted one at a time; the CSR rows, the other rows with inputs of a
    decimal or float run, whose texts read no D, in blocks of `CSV_BLOCK`
    values, one `texts` call per column.  A text of more
    digits before and after its point than Python converts from text to an
    integer (`sys.get_int_max_str_digits()`, 4300 by default) is a usage
    error, raised before the first piece past it (a block that holds one is
    formatted again row by row); an integer (p/q) run refuses a value where
    `str()` of its scaled numerator does.
    """
    # the last tick has no inputs
    rows = [*zip(t.states.data, t.raw_u.data, t.sat_u.data), (t.states.data[-1], None, None)]
    keys = [tuple(map(id, row)) for row in rows]
    recurring = {key for key, uses in Counter(keys).items() if uses > 1}
    known: dict[tuple, list[str]] = {}
    p = t.raw_u.reflected
    # the u_raw texts of rows 0..p-1, and the slot of each agent when per slot
    first_half: list[tuple[list[str], Optional[list[int]]]] = []
    n = t.n
    index = [str(i) for i in range(1, n + 1)]
    classes = t.states.classes
    last = -1
    if classes is not None:
        # the u_sat texts of a class step's saturated row, by S_0 > 0
        last, units = classes.last, t.states.kind.UNIT_TEXTS
        signed = [units[1 - k] for k in classes.group], [units[k] for k in classes.group]
        # each distinct c_i's slot, numbered in one pass, and an agent of each slot
        slots: dict[int, int] = {}
        slot = [slots.setdefault(c, len(slots)) for c in classes.signed]
        agents = list(dict(zip(slot, range(n))).values())
    kinds = {column.kind for column in (t.states, t.raw_u, t.sat_u) if column.data}
    kind = kinds.pop() if len(kinds) == 1 and Lattice not in kinds else None

    def row_texts(k: int) -> tuple[list[str], ...]:
        """The x and v (one x,v column on a class-built tick), u_raw and u_sat texts of row k."""
        tick, raw, sat = rows[k]
        X, V, D = tick
        if k <= last:
            j = classes.j
            x0, x1, v0, v1 = row_kind(tick).texts([X[0], X[j], V[0], V[j]], D)
            pairs = [f"{x0},{v0}", f"{x1},{v1}"]
            states = (list(map(pairs.__getitem__, classes.group)),)
        else:
            # X and V share D, so it is scaled once
            texts = row_kind(tick).texts(X + V, D)
            states = texts[:n], texts[n:]
        if raw is None:
            return *states, [""] * n, [""] * n
        (U, E), (S, Es) = raw, sat
        if p <= k < 2 * p:
            rs, by = first_half[k - p]
            rs = negated_texts(rs)
        else:
            values = list(map(U.__getitem__, agents)) if k < last else None
            # a class step's row dY * c_i holds one value per slot, unless it was edited
            by = slot if values and list(map(values.__getitem__, slot)) == U else None
            rs = row_kind(raw).texts(U if by is None else values, E)
        if k < p:
            first_half.append((rs, by))
        if by is not None:
            rs = list(map(rs.__getitem__, by))
        # only the rows the run built: a foreign Es adds none to its signs
        if k < last and Es in classes.signs and S == classes.signs[Es][S[0] > 0]:
            return *states, rs, signed[S[0] > 0]
        # an integer input is its numerator over E alone
        return *states, rs, _sat_texts(row_kind(sat), S, Es, U if Es is E else repeat(None), rs)

    def block_texts(ks: list[int]) -> tuple[list[str], ...]:
        """The x, v, u_raw and u_sat texts of the CSR rows ks, a column at a time."""
        (X, V, D), (U, E), (S, Es) = (zip(*column) for column in zip(*map(rows.__getitem__, ks)))
        X, V, U, S = (list(chain.from_iterable(column)) for column in (X, V, U, S))
        rs = kind.texts(U, E[0])
        return kind.texts(X, D[0]), kind.texts(V, D[0]), rs, _sat_texts(kind, S, Es[0], U, rs)

    def pieces(ks: list[int]) -> Iterator[str]:
        """The pieces of the CSR rows ks, their tails joined in one pass."""
        try:
            blocks = [(ks, block_texts(ks))]
        except ValueError:
            # a text past the digit limit: row by row, up to the row that holds it
            blocks = (([k], block_texts([k])) for k in ks)
        for part, columns in blocks:
            tails = list(map(",".join, zip(index * len(part), *columns)))
            for j, k in enumerate(part):
                yield f"{k}," + f"\n{k},".join(tails[j * n : (j + 1) * n]) + "\n"

    block: list[int] = []
    with _within_digit_limit("trajectory", "; use fewer steps or --mode float"):
        for k, key in enumerate(keys):
            csr = kind and last < k < t.steps and k >= 2 * p and key not in recurring
            if block and (not csr or len(block) * n >= CSV_BLOCK):
                yield from pieces(block)
                block = []
            if csr:
                block.append(k)
                continue
            # a one-step row joins its tails here: a generator per row costs
            # the class-built rows of an orbit 4-5% of the writer
            tails = known.get(key)
            if tails is None:
                tails = list(map(",".join, zip(index, *row_texts(k))))
                if key in recurring:
                    known[key] = tails
            yield f"{k}," + f"\n{k},".join(tails) + "\n"
        if block:
            yield from pieces(block)


def trajectory_to_csv(t: Trajectory) -> str:
    return "".join([CSV_HEADER + "\n", *_csv_pieces(t)])


def _is_csv_of(t: Trajectory, text: str) -> bool:
    """Whether `text` is `trajectory_to_csv(t)`, compared one piece (a lattice step) at a
    time as it is written, up to the first that differs."""
    if not text.startswith(CSV_HEADER + "\n"):
        return False
    pos = len(CSV_HEADER) + 1
    for piece in _csv_pieces(t):
        if not text.startswith(piece, pos):
            return False
        pos += len(piece)
    return pos == len(text)


def trajectory_from_csv(
    text: str, ns: Optional[NsModel], mode: str, kind: type[Lattice] = Lattice
) -> Trajectory:
    """Read a CSV written by `trajectory_to_csv` into columns of `mode`'s row layout.

    Each (step, agent) pair appears once, agents are numbered 1..n and steps
    run from 0; inputs are required on every step but the last.  Step and
    agent are ASCII integers (`parse_int`), and each value is a `parse_scalar`
    of its text in `mode`: a `Fraction` in exact mode, whose rows are
    encoded (`encode`, `encode_inputs`) in the exact `kind`, as
    `DecimalLattice` rows only when every value is a terminating decimal and
    else as integer `Lattice` rows, and a float in float mode, whose rows
    are lists over 1.0.
    """
    lines = [(no, line) for no, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines or lines[0][1].strip() != CSV_HEADER:
        raise CliError(f"CSV must start with header {CSV_HEADER!r}")
    states: dict[int, dict[int, tuple]] = {}
    inputs: dict[int, dict[int, tuple]] = {}
    first_line: dict[int, int] = {}
    # a periodic orbit and its saturated inputs repeat the same few texts, and
    # every step and agent text recurs
    parsed: dict[str, Scalar] = {}

    def parse(text: str) -> Scalar:
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse_scalar(text, mode)
        return value

    integer = functools.cache(parse_int)
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 6:
            raise CliError(f"CSV line {lineno}: expected 6 fields")
        try:
            k, agent = integer(parts[0]), integer(parts[1]) - 1
            s = (parse(parts[2]), parse(parts[3]))
            u = (parse(parts[4]), parse(parts[5])) if parts[4].strip() else None
        except ValueError as exc:
            raise CliError(f"CSV line {lineno}: {exc}") from exc
        tick = states.setdefault(k, {})
        if agent in tick:
            raise CliError(f"CSV line {lineno}: duplicate row for step {k}, agent {agent + 1}")
        tick[agent] = s
        first_line.setdefault(agent, lineno)
        if u is not None:
            inputs.setdefault(k, {})[agent] = u
    if not states:
        raise CliError("CSV contains no rows")
    # n distinct labels are exactly 1..n unless one of them lies outside it
    n = len(first_line)
    outside = [(no, agent) for agent, no in first_line.items() if not 0 <= agent < n]
    if outside:
        lineno, agent = min(outside)
        raise CliError(
            f"CSV line {lineno}: agent {agent + 1} outside 1..{n} "
            f"(the CSV names {n} agents)"
        )
    steps = sorted(states)
    if steps != list(range(len(steps))):
        raise CliError("CSV steps are not contiguous from 0")

    def row(src: dict[int, dict[int, tuple]], k: int) -> tuple:
        if len(src.get(k, ())) != n:
            raise CliError(f"CSV step {k}: missing agents")
        return tuple(src[k][i] for i in range(n))

    found = Lattice.kind_of(parsed.values())
    if found is not kind:
        kind = FloatLattice if found is FloatLattice else Lattice
    ticks = [kind.encode(row(states, k)) for k in steps]
    input_rows = [row(inputs, k) for k in steps[:-1]]
    raw = [kind.encode_inputs([u for u, _ in r]) for r in input_rows]
    sat = [kind.encode_inputs([u for _, u in r]) for r in input_rows]
    return Trajectory(
        ns,
        LatticeColumn(ticks, kind.decode),
        LatticeColumn(raw, kind.ratios),
        LatticeColumn(sat, kind.ratios),
    )


def _write_output(text: str, path: Optional[str], what: str) -> None:
    """Write `text` to the file at `path`, or to stdout; an unwritable file is a usage error."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"cannot write {what} {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def _fmt_set(agents) -> str:
    return "{" + ",".join(str(i + 1) for i in sorted(agents)) + "}"


def cmd_partition(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.mode or "exact")
    p = _partition(g, 1 if args.root is None else args.root)

    def edges(listed: list) -> str:
        return " ".join(f"({i + 1},{j + 1})w={format_scalar(w)}" for i, j, w in listed)

    # every line is formatted before the first is printed
    with _within_digit_limit("partition"):
        lines = [
            f"S_e = {_fmt_set(p.s_even)}",
            f"S_o = {_fmt_set(p.s_odd)}",
            "distances: " + " ".join(f"{i + 1}:{d}" for i, d in enumerate(p.dist)),
            "cross edges: " + edges(p.cross_edges),
            "intra edges: " + (edges(p.intra_edges) or "none"),
            f"a_bar = {format_scalar(p.a_bar)}",
        ]
    print("\n".join(lines))
    return EXIT_OK


def _check_agent(name: str, agent: int, g: WeightedGraph) -> None:
    if not 1 <= agent <= g.n:
        raise CliError(f"{name} {agent} out of range 1..{g.n}")


def _partition(g: WeightedGraph, root: int, split: bool = True) -> Partition | DistanceClasses:
    """The partition of `g` from the 1-based `root`, or with `split` False only
    its distance classes, all that simulating and verifying read; a root out
    of range and a disconnected graph are usage errors."""
    _check_agent("root", root, g)
    try:
        return (make_partition if split else distance_classes)(g, root - 1)
    except NotConnectedError as exc:
        raise CliError(str(exc)) from exc


def _synthesize(g: WeightedGraph, cfg: RunConfig) -> OrbitPlan:
    if cfg.model == "ns":
        # the ns orbit and its initial states are fixed by a and the partition
        given = [key for key in ("m", "base", "anchor") if getattr(cfg, key) is not None]
        if given:
            raise CliError(
                f"{', '.join(given)} not accepted for model=ns, whose orbit is fixed "
                "(m = 2, T = 4)"
            )
    _check_agent("root", cfg.root, g)
    if cfg.anchor is not None:
        _check_agent("anchor", cfg.anchor, g)
    if cfg.m is not None and cfg.m <= 2:
        raise CliError(f"half-period m must exceed 2, got {cfg.m}")
    gains = GainParams(cfg.alpha, cfg.beta)
    try:
        if cfg.model == "di":
            return synthesize_di(
                g,
                gains,
                m_override=cfg.m,
                root=cfg.root - 1,
                base=Fraction(0) if cfg.base is None else cfg.base,
                anchor=None if cfg.anchor is None else cfg.anchor - 1,
            )
        return synthesize_ns(g, _ns_model(cfg.model, cfg.a), gains, root=cfg.root - 1)
    except GainConditionError as exc:
        raise CliError(f"gain gate failed: {exc}", EXIT_GATE) from exc
    except InfeasibleConstraintsError as exc:
        raise CliError(f"infeasible position system: {exc}", EXIT_INFEASIBLE) from exc
    except ValueError as exc:
        # a disconnected graph, or a float plan outside the float range
        raise CliError(str(exc)) from exc


def interval_table(plan: OrbitPlan) -> str:
    """The text `synthesize` writes to stderr for a di plan: m and T, then the
    interval of x_i(0) - x_j(0) on each cross edge.

    The bounds depend on an edge only through its weight, so each distinct
    weight object's pair is formatted once: its two `interval_numerators`
    through `ratio_texts` over their one denominator, or, with a float among
    the gains and cross weights, the floats nearest them.
    """
    numerators = interval_numerators(plan.gains, plan.half_period)
    exact = exact_inputs(plan.gains, plan.partition)

    def texts(w: Scalar) -> list[str]:
        L, U, D = numerators(w)
        return ratio_texts([L, U], D) if exact else [repr(L / D), repr(U / D)]

    cross = plan.partition.cross_edges
    bounds = per_object(texts, [w for _, _, w in cross])
    lines = [f"# m={plan.half_period} T={plan.period}\n"]
    lines += [
        f"# {lower} <= x_{i + 1}(0)-x_{j + 1}(0) <= {upper}\n"
        for (i, j, _), (lower, upper) in zip(cross, bounds)
    ]
    return "".join(lines)


def cmd_synthesize(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    cfg.validate()
    g = _load_graph(args.graph, cfg.mode)
    plan = _synthesize(g, cfg)
    with _within_digit_limit("plan"):
        table = interval_table(plan) if plan.model == "di" else ""
        text = plan_to_text(plan)
    sys.stderr.write(table)
    if cfg.mode == "float":
        # synthesis decides on exact values; a float plan's own run may still overflow
        try:
            simulate(g, plan.gains, plan.init, 1, ns=plan.ns)
        except SimulationOverflowError:
            sys.stderr.write(
                "# the float run of this plan leaves the float range at step 1; "
                "simulate it in exact mode\n"
            )
    _write_output(text, args.output, "plan")
    return EXIT_OK


def _check_plan_flags(args: argparse.Namespace, cfg: RunConfig, plan: OrbitPlan) -> None:
    """Reject a flag that contradicts the plan.

    The plan fixes its model, `a`, gains, root and start states, so the
    config file's entries for them are superseded by the plan.  A flag is
    named explicitly, so `--model`, `--a`, `--alpha`, `--beta` and `--root`
    must repeat the plan's value (scalars through `scalars_equal`), and
    `--init` is not accepted.
    """
    if getattr(args, "init", None) is not None:
        raise CliError("--init not accepted with --plan, which fixes the start states")
    planned = {
        "model": (cfg.model, plan.model),
        "a": (cfg.a, plan.a),
        "alpha": (cfg.alpha, plan.gains.alpha),
        "beta": (cfg.beta, plan.gains.beta),
        "root": (cfg.root, plan.partition.root + 1),
    }
    for key, (given, value) in planned.items():
        flag = getattr(args, key)
        if flag is None:
            continue
        if value is None:
            raise CliError(f"--{key} {flag} given, but a {plan.model} plan has no {key}")
        if key in ("model", "root"):
            same, shown = given == value, value
        else:
            same, shown = scalars_equal(given, value), format_scalar(value)
        if not same:
            raise CliError(f"--{key} {flag} differs from the plan's {key}={shown}")


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    g = _load_graph(args.graph, cfg.mode)
    if args.plan:
        plan = plan_from_text(_read_text(args.plan, "plan"), g, cfg.mode)
        _check_plan_flags(args, cfg, plan)
        init, ns, gains = plan.init, plan.ns, plan.gains
        default_steps = 2 * plan.period
    else:
        cfg.validate()
        if cfg.init is None:
            raise CliError("simulate needs --plan or an init override")
        if len(cfg.init) != g.n:
            raise CliError(f"init override has {len(cfg.init)} agents, graph has {g.n}")
        init = tuple(AgentState(x, v) for x, v in cfg.init)
        ns, gains = _ns_model(cfg.model, cfg.a), GainParams(cfg.alpha, cfg.beta)
        default_steps = cfg.steps or 0
    steps = cfg.steps if cfg.steps is not None else default_steps
    if steps < 0:
        raise CliError(f"steps must be >= 0, got {steps}")
    t = simulate(g, gains, init, steps, ns=ns)
    _write_output(trajectory_to_csv(t), args.output, "trajectory")
    return EXIT_OK


def _trajectory_consistent(t: Trajectory, resim: Trajectory) -> Optional[dict]:
    """The first mismatch of `t` against `resim`, its re-simulation, or None.

    States, raw inputs and saturated inputs are all compared, row by row, as
    rows of their kind and then as values, and within a differing row agent
    by agent through `scalars_equal` (bit-exact on rationals, `FLOAT_TOL` on
    floats).
    """
    for k in range(t.steps + 1):
        rows = [(resim.states, t.states)]
        if k < t.steps:
            rows += [(resim.raw_u, t.raw_u), (resim.sat_u, t.sat_u)]
        # equal ticks hold equal states and equal rows agree under
        # `scalars_equal`; only a differing row is searched
        if resim.states.data[k] == t.states.data[k] and all(
            ours.data[k] == theirs.data[k] or ours[k] == theirs[k] for ours, theirs in rows[1:]
        ):
            continue
        for i in range(t.n):
            if not (
                all(map(scalars_equal, resim.states[k][i], t.states[k][i]))
                and all(scalars_equal(ours[k][i], theirs[k][i]) for ours, theirs in rows[1:])
            ):
                return {"step": k, "agent": i + 1}
    return None


def _replay(text: str, g: WeightedGraph, plan: OrbitPlan, mode: str) -> Optional[Trajectory]:
    """The run from an exact CSV's own step 0 for as many steps as it claims, or None.

    Of the CSV only the header, its first n rows, step 0 of agents 1..n in
    order, and the step of the last line are read; the agents of one
    `(x, v)` text pair share one start state, as in `plan_from_text`.  The
    text must end in a newline and hold (steps + 1) * n rows, so a forged
    last step cannot start a long rollout.  None when the text does not fit
    that layout, in float mode (whose `repr` and `float` do not round-trip
    -0.0, inf or nan) and when the run overflows, so that the full reader
    reports what is wrong first.
    """
    if mode != "exact" or not text.startswith(CSV_HEADER + "\n") or not text.endswith("\n"):
        return None
    last = text[text.rfind("\n", 0, -1) + 1 :]
    try:
        steps = parse_int(last.partition(",")[0])
    except ValueError:
        return None
    if steps < 0 or text.count("\n") != (steps + 1) * g.n + 1:
        return None
    # the rows before the first of step 1, as one block
    pos = len(CSV_HEADER) + 1
    block = text[pos : text.find("\n1,", pos) + 1 or len(text)]
    rows = [row.split(",", 4) for row in block.split("\n")[:-1]]
    if [row[:2] for row in rows] != [["0", str(i)] for i in range(1, g.n + 1)]:
        return None
    parse = functools.cache(parse_scalar)
    state_of = functools.cache(lambda x, v: AgentState(parse(x), parse(v)))
    try:
        init = [state_of(x, v) for _, _, x, v, _ in rows]
    except ValueError:  # too few fields, or a value that cannot be read
        return None
    try:
        return simulate(g, plan.gains, init, steps, ns=plan.ns)
    except SimulationOverflowError:
        return None


def _checked_csv(
    path: str, g: WeightedGraph, plan: OrbitPlan, mode: str
) -> tuple[Trajectory, Optional[dict], Trajectory]:
    """(trajectory to check, first mismatch, re-simulation) of the CSV at `path`.

    A CSV whose bytes are what `simulate` writes for the run from its own
    step 0 (`_replay`) holds the replay's values, since format and parse are
    exact, so it is not parsed.  Any other CSV is read by
    `trajectory_from_csv` and compared by `_trajectory_consistent` with the
    replay when its start state and step count are the CSV's (a U+2028 splits
    a line for the reader but not for the replay's count), else with a run
    from the CSV's own step 0; the reader encodes its rows in the replay's
    number kind, so that rows are compared whole.  An exact CSV that equals
    its re-simulation holds the same values, so the checks read the
    re-simulation's columns and its lattice; any other CSV is checked on the
    columns the reader built.
    """
    text = _read_text(path, "trajectory")
    resim = _replay(text, g, plan, mode)
    if resim is not None and _is_csv_of(resim, text):
        return resim, None, resim
    t = trajectory_from_csv(text, plan.ns, mode, Lattice if resim is None else resim.states.kind)
    if t.n != g.n:
        raise CliError(f"CSV has {t.n} agents, graph has {g.n}")
    if resim is None or (resim.steps, resim.states[0]) != (t.steps, t.states[0]):
        resim = simulate(g, plan.gains, t.states[0], t.steps, ns=plan.ns)
    mismatch = _trajectory_consistent(t, resim)
    if mismatch is None and mode == "exact":
        return resim, None, resim
    return t, mismatch, resim


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    g = _load_graph(args.graph, cfg.mode)
    plan = plan_from_text(_read_text(args.plan, "plan"), g, cfg.mode)
    _check_plan_flags(args, cfg, plan)
    report: dict = {}
    if args.csv:
        t, mismatch, rollout = _checked_csv(args.csv, g, plan, cfg.mode)
        report["consistency"] = mismatch is None
        if mismatch is not None:
            report["consistency_first_mismatch"] = mismatch
        if t.steps < plan.period:
            raise CliError(
                f"trajectory covers {t.steps} steps, need {plan.period}"
            )
    else:
        t = simulate(g, plan.gains, plan.init, 2 * plan.period, ns=plan.ns)
        report["consistency"] = True
        rollout = t
    # the checks' own errors are ruled out above, so only the report's texts raise
    with _within_digit_limit("report"):
        report.update(verification_report(g, plan, t, rollout=rollout))
    report["ok"] = report["ok"] and report["consistency"]
    print(json.dumps(report, indent=2, default=str))
    return EXIT_OK if report["ok"] else EXIT_VERIFY


# ---------------------------------------------------------------------------


def _int_arg(text: str) -> int:
    """An integer flag value through `parse_int`, whose message argparse reports
    after the flag's name."""
    try:
        return parse_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are usage errors: a malformed flag, a
    bad choice or a missing subcommand is one `error:` line with exit 1, not
    argparse's usage text and exit 2, the gain gate's code.  `--help` still
    prints and exits 0.  Any argument that starts "-" or "-." and a digit is a
    value, as `--alpha -1/2`; argparse alone takes only `-1` and `-1.5` forms."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?[0-9]")

    def error(self, message: str) -> NoReturn:
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="satorbits",
        description="Synthesize, simulate, and verify periodic orbits of "
        "saturated multi-agent networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config: bool = True) -> None:
        p.add_argument("graph", help="edge-list graph file")
        p.add_argument("--mode", choices=["exact", "float"], default=None)
        p.add_argument("--root", type=_int_arg, default=None, help="root agent (1-based)")
        if config:
            p.add_argument("--config", help="key=value run configuration file")
            p.add_argument("--model", choices=["di", "ns"], default=None)
            p.add_argument("--a", default=None, help="rotation parameter (ns model)")
            p.add_argument("--alpha", default=None)
            p.add_argument("--beta", default=None)

    p = sub.add_parser("partition", help="print the even/odd distance partition")
    common(p, config=False)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("synthesize", help="construct a periodic orbit plan")
    common(p)
    p.add_argument("--m", type=_int_arg, default=None, help="half-period override (di)")
    p.add_argument("--base", default=None, help="anchored base position")
    p.add_argument("--anchor", type=_int_arg, default=None, help="anchored agent (1-based)")
    p.add_argument("-o", "--output", default=None, help="plan file (default stdout)")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", help="roll a plan or init forward, emit CSV")
    common(p)
    p.add_argument("--plan", default=None, help="plan file from 'synthesize'")
    p.add_argument("--init", default=None, help="init override 'x1,v1; x2,v2; ...'")
    p.add_argument("--steps", type=_int_arg, default=None)
    p.add_argument("-o", "--output", default=None, help="CSV file (default stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="check periodicity, pattern, and closed forms")
    common(p)
    p.add_argument("--plan", required=True, help="plan file from 'synthesize'")
    p.add_argument("--csv", default=None, help="trajectory CSV to check instead of resimulating")
    p.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each build leaves objects in reference cycles."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        # flushed here, so that a closed stdout raises inside this try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so the
        # flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SimulationOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
