"""Command-line surface: partition, synthesize, simulate, verify.

Exit codes: 0 success, 1 usage or I/O error, 2 gain gate failure,
3 infeasible position system, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from itertools import count
from pathlib import Path
from typing import Iterator, Optional, Sequence

from .dynamics import (
    AgentState,
    GainParams,
    LatticeColumn,
    NsModel,
    SimulationOverflowError,
    Trajectory,
    simulate,
    states_equal,
)
from .graphs import (
    GraphFormatError,
    NotConnectedError,
    WeightedGraph,
    make_partition,
    parse_graph,
)
from .records import Record
from .scalars import (
    Scalar,
    ScalarFormatError,
    format_scalar,
    parse_int,
    parse_scalar,
    per_object,
    ratio_texts,
    scalars_equal,
)
from .synthesis import (
    GainConditionError,
    InfeasibleConstraintsError,
    OrbitPlan,
    position_constraints,
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
        "model a alpha beta root m_override steps base_position anchor mode init_override",
        defaults=("di", None, None, None, 1, None, None, None, None, "exact", None),
    ),
):
    """A command's settings from its config file and flags (see `build_config`).

    `root` and `anchor` are 1-based agents, and `init_override` a tuple of
    (x, v) pairs.  Every field but `model`, `root` and `mode` is None when
    neither the file nor a flag gives it.
    """

    __slots__ = ()

    def validate(self) -> None:
        if self.model == "ns":
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
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 2:
            raise CliError(f"bad init pair {chunk!r} (want 'x,v')")
        pairs.append((parse_scalar(parts[0], mode), parse_scalar(parts[1], mode)))
    return tuple(pairs)


def _read_text(path: str, what: str) -> str:
    """The text of the file at `path`; one that cannot be read or decoded is a usage error."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}") from exc


#: the keys of a config file; a flag of the same name overrides each
CONFIG_KEYS = (
    "model", "a", "alpha", "beta", "root", "m", "steps", "base", "anchor", "mode", "init"
)


def load_config(path: str) -> dict[str, str]:
    """The key=value entries of the config file at `path`; an unknown key is a usage error."""
    values: dict[str, str] = {}
    text = _read_text(path, "config")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    raw: dict[str, str] = {}
    if getattr(args, "config", None):
        raw = load_config(args.config)
    # flags win over config file entries
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            raw[key] = str(flag)
    model = raw.get("model", "di")
    mode = raw.get("mode", "exact")
    # a config file's choices are checked here, as argparse checks the flags'
    if model not in ("di", "ns"):
        raise CliError(f"unknown model {model!r}")
    if mode not in ("exact", "float"):
        raise CliError(f"unknown mode {mode!r}")
    values: dict[str, object] = {}
    try:
        if "a" in raw:
            values["a"] = parse_scalar(raw["a"], mode)
        if "alpha" in raw:
            values["alpha"] = parse_scalar(raw["alpha"], mode)
        if "beta" in raw:
            values["beta"] = parse_scalar(raw["beta"], mode)
        if "root" in raw:
            values["root"] = parse_int(raw["root"])
        if "m" in raw:
            values["m_override"] = parse_int(raw["m"])
        if "steps" in raw:
            values["steps"] = parse_int(raw["steps"])
        if "base" in raw:
            values["base_position"] = parse_scalar(raw["base"], mode)
        if "anchor" in raw:
            values["anchor"] = parse_int(raw["anchor"])
        if "init" in raw:
            values["init_override"] = _parse_init_list(raw["init"], mode)
    except ValueError as exc:
        raise CliError(f"bad config value: {exc}") from exc
    return RunConfig(model=model, mode=mode, **values)


def _load_graph(path: str, mode: str) -> WeightedGraph:
    text = _read_text(path, "graph")
    try:
        return parse_graph(text, mode)
    except GraphFormatError as exc:
        raise CliError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# plan files


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


def plan_from_text(text: str, g: WeightedGraph, mode: str = "exact") -> OrbitPlan:
    meta: dict[str, str] = {}
    init: dict[int, AgentState] = {}
    # a synthesized plan repeats a few values, so each distinct text is parsed once
    parse = functools.cache(lambda text: parse_scalar(text, mode))
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("agent "):
            head, _, rest = line.partition(":")
            fields = dict(
                part.strip().split("=", 1) for part in rest.split(",") if "=" in part
            )
            try:
                idx = parse_int(head.split()[1])
                state = AgentState(parse(fields["x"]), parse(fields["v"]))
            except ScalarFormatError as exc:
                raise CliError(f"plan line {lineno}: {exc}") from exc
            except (IndexError, ValueError) as exc:
                raise CliError(f"plan line {lineno}: cannot parse {line!r}") from exc
            except KeyError as exc:
                raise CliError(f"plan line {lineno}: missing field {exc}") from exc
            if idx - 1 in init:
                raise CliError(f"plan line {lineno}: duplicate agent {idx}")
            init[idx - 1] = state
        elif "=" in line:
            key, _, value = line.partition("=")
            meta[key.strip()] = value.strip()
        else:
            raise CliError(f"plan line {lineno}: cannot parse {line!r}")
    try:
        model = meta["model"]
        gains = GainParams(parse_scalar(meta["alpha"], mode), parse_scalar(meta["beta"], mode))
        root = parse_int(meta.get("root", "1")) - 1
        m = parse_int(meta["m"])
        period = parse_int(meta["T"])
        a = parse_scalar(meta["a"], mode) if "a" in meta else None
    except KeyError as exc:
        raise CliError(f"plan file missing field {exc}") from exc
    except ValueError as exc:
        raise CliError(f"bad plan value: {exc}") from exc
    if model not in ("di", "ns"):
        raise CliError(f"unknown model {model!r} in plan")
    _ns_model(model, a)
    # the orbit of di has period T = 2m, that of ns T = 4 with m = 2
    if model == "di" and (m < 1 or period != 2 * m):
        raise CliError(f"plan has m={m}, T={period}; di needs T = 2m with m >= 1")
    if model == "ns" and (m, period) != (2, 4):
        raise CliError(f"plan has m={m}, T={period}; ns needs m = 2, T = 4")
    if sorted(init) != list(range(g.n)):
        raise CliError(f"plan does not cover all {g.n} agents")
    _check_agent("root", root + 1, g)
    try:
        partition = make_partition(g, root)
    except NotConnectedError as exc:
        raise CliError(str(exc)) from exc
    states = tuple(init[i] for i in range(g.n))
    return OrbitPlan(
        model=model, a=a, gains=gains, partition=partition, half_period=m, init=states
    )


# ---------------------------------------------------------------------------
# CSV trajectories

CSV_HEADER = "k,agent,x,v,u_raw,u_sat"


def _row_tails(
    tick: tuple[list[int], list[int], int],
    raw: Optional[tuple[list[int], int]],
    sat: Optional[tuple[list[int], int]],
) -> list[str]:
    """The CSV lines of one lattice row without their step, `i,x,v,u_raw,u_sat` per agent."""
    X, V, D = tick
    xs, vs = ratio_texts(X, D), ratio_texts(V, D)
    if raw is None:
        return [f"{i},{x},{v},," for i, x, v in zip(count(1), xs, vs)]
    (U, E), (S, Es) = raw, sat
    rs = ratio_texts(U, E)
    # a saturated input is +-1; an unsaturated one repeats its raw text
    ss = [
        "1" if s == Es
        else "-1" if s == -Es
        else r if (s, Es) == (u, E)
        else ratio_texts([s], Es)[0]
        for s, u, r in zip(S, U, rs)
    ]
    return [f"{i},{x},{v},{r},{s}" for i, x, v, r, s in zip(count(1), xs, vs, rs, ss)]


def _lattice_steps(t: Trajectory) -> Iterator[str]:
    """The CSV text of each step of an all-lattice trajectory, formatted from its integers.

    A closed orbit shares its repeated rows by reference (see `simulate`), so
    the tails of a (tick, raw, sat) row whose objects recur are formatted
    once and kept; step k stamps `k,` before each of its row's n tails.
    """
    # the last tick has no inputs
    rows = [*zip(t.states.data, t.raw_u.data, t.sat_u.data), (t.states.data[-1], None, None)]
    keys = [tuple(map(id, row)) for row in rows]
    recurring = {key for key, uses in Counter(keys).items() if uses > 1}
    known: dict[tuple, list[str]] = {}
    for k, (row, key) in enumerate(zip(rows, keys)):
        tails = known.get(key)
        if tails is None:
            tails = _row_tails(*row)
            if key in recurring:
                known[key] = tails
        yield f"{k}," + f"\n{k},".join(tails) + "\n"


def _csv_pieces(t: Trajectory) -> Iterator[str]:
    """The text of `trajectory_to_csv(t)` after its header, one piece per step of
    an all-lattice trajectory and one per line of any other.

    An exact value whose digits exceed Python's limit on converting an
    integer to text (`sys.get_int_max_str_digits()`, 4300 by default) is a
    usage error, raised before the first piece past it.
    """
    try:
        if all(isinstance(c, LatticeColumn) for c in (t.states, t.raw_u, t.sat_u)):
            yield from _lattice_steps(t)
            return
        for k, row in enumerate(t.states):
            for i, s in enumerate(row):
                if k < t.steps:
                    u_raw = format_scalar(t.raw_u[k][i])
                    u_sat = format_scalar(t.sat_u[k][i])
                else:
                    u_raw = u_sat = ""
                yield f"{k},{i + 1},{format_scalar(s.x)},{format_scalar(s.v)},{u_raw},{u_sat}\n"
    except ValueError as exc:  # only str() of a too-long int raises it here
        raise CliError(
            f"the trajectory holds a value of more than {sys.get_int_max_str_digits()} "
            "digits, beyond Python's limit on converting an integer to text; "
            "use fewer steps or --mode float"
        ) from exc


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


def trajectory_from_csv(text: str, model: str, a: Optional[Scalar], mode: str) -> Trajectory:
    """Read a CSV written by `trajectory_to_csv` into tuple columns.

    Each (step, agent) pair appears once, agents are numbered 1..n and steps
    run from 0; inputs are required on every step but the last.  Step and
    agent are ASCII integers (`parse_int`), and each value is a `parse_scalar`
    of its text in `mode`: a `Fraction` in exact mode, a float in float mode.
    """
    lines = [(no, line) for no, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines or lines[0][1].strip() != CSV_HEADER:
        raise CliError(f"CSV must start with header {CSV_HEADER!r}")
    states: dict[int, dict[int, tuple]] = {}
    inputs: dict[int, dict[int, tuple]] = {}
    first_line: dict[int, int] = {}
    # a periodic orbit and its saturated inputs repeat the same few texts
    parse = functools.cache(lambda text: parse_scalar(text, mode))
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 6:
            raise CliError(f"CSV line {lineno}: expected 6 fields")
        try:
            k, agent = parse_int(parts[0]), parse_int(parts[1]) - 1
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
    ticks = sorted(states)
    if ticks != list(range(len(ticks))):
        raise CliError("CSV steps are not contiguous from 0")

    def row(src: dict[int, dict[int, tuple]], k: int) -> tuple:
        if len(src.get(k, ())) != n:
            raise CliError(f"CSV step {k}: missing agents")
        return tuple(src[k][i] for i in range(n))

    state_rows = [row(states, k) for k in ticks]
    input_rows = [row(inputs, k) for k in ticks[:-1]]
    return Trajectory(
        model,
        a,
        tuple(tuple(AgentState(x, v) for x, v in r) for r in state_rows),
        tuple(tuple(u for u, _ in r) for r in input_rows),
        tuple(tuple(u for _, u in r) for r in input_rows),
    )


def _write_output(text: str, path: Optional[str]) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def _fmt_set(agents) -> str:
    return "{" + ",".join(str(i + 1) for i in sorted(agents)) + "}"


def cmd_partition(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.mode or "exact")
    root = 1 if args.root is None else args.root
    _check_agent("root", root, g)
    try:
        p = make_partition(g, root - 1)
    except NotConnectedError as exc:
        raise CliError(str(exc)) from exc
    print(f"S_e = {_fmt_set(p.s_even)}")
    print(f"S_o = {_fmt_set(p.s_odd)}")
    print("distances:", " ".join(f"{i + 1}:{d}" for i, d in enumerate(p.dist)))
    print(
        "cross edges:",
        " ".join(f"({i + 1},{j + 1})w={format_scalar(w)}" for i, j, w in p.cross_edges),
    )
    print(
        "intra edges:",
        " ".join(f"({i + 1},{j + 1})w={format_scalar(w)}" for i, j, w in p.intra_edges)
        or "none",
    )
    print(f"a_bar = {format_scalar(p.a_bar)}")
    return EXIT_OK


def _check_agent(name: str, agent: int, g: WeightedGraph) -> None:
    if not 1 <= agent <= g.n:
        raise CliError(f"{name} {agent} out of range 1..{g.n}")


def _synthesize(g: WeightedGraph, cfg: RunConfig) -> OrbitPlan:
    if cfg.model == "ns":
        # the ns orbit and its initial states are fixed by a and the partition
        keys = {"m": cfg.m_override, "base": cfg.base_position, "anchor": cfg.anchor}
        given = [key for key, value in keys.items() if value is not None]
        if given:
            raise CliError(
                f"{', '.join(given)} not accepted for model=ns, whose orbit is fixed "
                "(m = 2, T = 4)"
            )
    _check_agent("root", cfg.root, g)
    if cfg.anchor is not None:
        _check_agent("anchor", cfg.anchor, g)
    if cfg.m_override is not None and cfg.m_override <= 2:
        raise CliError(f"half-period m must exceed 2, got {cfg.m_override}")
    gains = GainParams(cfg.alpha, cfg.beta)
    try:
        if cfg.model == "di":
            return synthesize_di(
                g,
                gains,
                m_override=cfg.m_override,
                root=cfg.root - 1,
                base=Fraction(0) if cfg.base_position is None else cfg.base_position,
                anchor=None if cfg.anchor is None else cfg.anchor - 1,
            )
        return synthesize_ns(g, _ns_model(cfg.model, cfg.a), gains, root=cfg.root - 1)
    except GainConditionError as exc:
        raise CliError(f"gain gate failed: {exc}", EXIT_GATE) from exc
    except InfeasibleConstraintsError as exc:
        raise CliError(f"infeasible position system: {exc}", EXIT_INFEASIBLE) from exc
    except ValueError as exc:
        # a disconnected graph, or ns start states outside the float range
        raise CliError(str(exc)) from exc


def interval_table(g: WeightedGraph, plan: OrbitPlan) -> str:
    """The text `synthesize` writes to stderr for a di plan: m and T, then the
    interval of x_i(0) - x_j(0) on each cross edge.

    Edges of one weight object share their bound objects (see
    `position_constraints`), so each distinct bound is formatted once.
    """
    _, intervals = position_constraints(g, plan.partition, plan.gains, plan.half_period)
    lowers = per_object(format_scalar, [c.lower for c in intervals])
    uppers = per_object(format_scalar, [c.upper for c in intervals])
    lines = [f"# m={plan.half_period} T={plan.period}\n"]
    lines += [
        f"# {lower} <= x_{c.i + 1}(0)-x_{c.j + 1}(0) <= {upper}\n"
        for c, lower, upper in zip(intervals, lowers, uppers)
    ]
    return "".join(lines)


def cmd_synthesize(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    cfg.validate()
    g = _load_graph(args.graph, cfg.mode)
    plan = _synthesize(g, cfg)
    if plan.model == "di":
        sys.stderr.write(interval_table(g, plan))
    _write_output(plan_to_text(plan), args.output)
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
        init = plan.init
        model, a, gains = plan.model, plan.a, plan.gains
        default_steps = 2 * plan.period
    else:
        cfg.validate()
        if cfg.init_override is None:
            raise CliError("simulate needs --plan or an init override")
        if len(cfg.init_override) != g.n:
            raise CliError(
                f"init override has {len(cfg.init_override)} agents, graph has {g.n}"
            )
        init = tuple(AgentState(x, v) for x, v in cfg.init_override)
        model, a, gains = cfg.model, cfg.a, GainParams(cfg.alpha, cfg.beta)
        default_steps = cfg.steps or 0
    steps = cfg.steps if cfg.steps is not None else default_steps
    if steps < 0:
        raise CliError(f"steps must be >= 0, got {steps}")
    t = simulate(g, gains, init, steps, ns=_ns_model(model, a))
    _write_output(trajectory_to_csv(t), args.output)
    return EXIT_OK


def _trajectory_consistent(
    t: Trajectory,
    g: WeightedGraph,
    gains: GainParams,
    resim: Optional[Trajectory] = None,
) -> tuple[Optional[dict], Trajectory]:
    """Recompute the trajectory from its own first state; report first mismatch.

    States, raw inputs and saturated inputs are all compared, row by row and
    within a differing row agent by agent through `scalars_equal` (bit-exact
    on rationals, `FLOAT_TOL` on floats).  Returns the mismatch (None if there
    is none) and the recomputed trajectory; `resim`, a run from t.states[0]
    of t.steps steps, is used instead of simulating.
    """
    if resim is None:
        resim = simulate(g, gains, t.states[0], t.steps, ns=_ns_model(t.model, t.a))
    for k in range(t.steps + 1):
        rows = [(resim.states, t.states)]
        if k < t.steps:
            rows += [(resim.raw_u, t.raw_u), (resim.sat_u, t.sat_u)]
        # equal rows agree under `scalars_equal`; only a differing row is searched
        if all(ours[k] == theirs[k] for ours, theirs in rows):
            continue
        for i in range(t.n):
            if not (
                states_equal([resim.states[k][i]], [t.states[k][i]])
                and all(scalars_equal(ours[k][i], theirs[k][i]) for ours, theirs in rows[1:])
            ):
                return {"step": k, "agent": i + 1}, resim
    return None, resim


def _replay(text: str, g: WeightedGraph, plan: OrbitPlan, mode: str) -> Optional[Trajectory]:
    """The run of the plan for as many steps as an exact CSV claims, or None.

    The run starts from the plan's start states, so of the CSV only the
    header, the `x,v` texts of step 0 and the step of the last line are
    read.  The text must end in a newline and hold (steps + 1) * n rows, so
    a forged last step cannot start a long rollout.  None when the text does
    not fit that layout, when step 0 is not the plan's start in the writer's
    spelling (such a CSV is not the writer's text of this run, so nothing is
    simulated for it here), in float mode (whose `repr` and `float` do not
    round-trip -0.0, inf or nan) and when the run overflows, so that the
    full reader reports what is wrong first.
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
    # a plan read from text shares one value object per distinct text, so
    # each distinct start state is formatted once
    start: dict[tuple[int, int], str] = {}
    pos = len(CSV_HEADER) + 1
    for i, s in zip(count(1), plan.init):
        key = (id(s.x), id(s.v))
        xv = start.get(key)
        if xv is None:
            xv = start[key] = f"{format_scalar(s.x)},{format_scalar(s.v)},"
        if not text.startswith(f"0,{i},{xv}", pos):
            return None
        pos = text.index("\n", pos) + 1
    try:
        return simulate(g, plan.gains, plan.init, steps, ns=_ns_model(plan.model, plan.a))
    except SimulationOverflowError:
        return None


def _checked_csv(
    path: str, g: WeightedGraph, plan: OrbitPlan, mode: str
) -> tuple[Trajectory, Optional[dict], Trajectory]:
    """(trajectory to check, first mismatch, re-simulation) of the CSV at `path`.

    A CSV whose bytes are what `simulate` writes for the plan (`_replay`)
    holds the replay's values, since format and parse are exact, so it is not
    parsed.  Any other CSV, such as one that starts elsewhere, is read by
    `trajectory_from_csv` and compared by `_trajectory_consistent`, which
    reuses the replay when its start state and step count are the CSV's.  An
    exact CSV that equals its re-simulation holds the same values, so the
    checks read the re-simulation's lattice columns; any other CSV is checked
    on its own tuple columns, per agent.
    """
    text = _read_text(path, "trajectory")
    resim = _replay(text, g, plan, mode)
    if resim is not None and _is_csv_of(resim, text):
        return resim, None, resim
    t = trajectory_from_csv(text, plan.model, plan.a, mode)
    if t.n != g.n:
        raise CliError(f"CSV has {t.n} agents, graph has {g.n}")
    if resim is not None and (resim.steps, resim.states[0]) != (t.steps, t.states[0]):
        resim = None
    mismatch, rollout = _trajectory_consistent(t, g, plan.gains, resim)
    if mismatch is None and mode == "exact":
        return rollout, None, rollout
    return t, mismatch, rollout


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
        t = simulate(
            g, plan.gains, plan.init, 2 * plan.period, ns=_ns_model(plan.model, plan.a)
        )
        report["consistency"] = True
        rollout = t
    report.update(verification_report(g, plan, t, rollout=rollout))
    report["ok"] = report["ok"] and report["consistency"]
    print(json.dumps(report, indent=2, default=str))
    return EXIT_OK if report["ok"] else EXIT_VERIFY


# ---------------------------------------------------------------------------


def _int_arg(text: str) -> int:
    """An integer flag value in ASCII digits; any other text is reported as argparse
    reports it for `type=int`."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = _parser().parse_args(argv)
    try:
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
