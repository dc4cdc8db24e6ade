"""Which satorbits functions the traced run wraps, and the per-layer metrics.

Each function is wrapped under the module attribute its caller looks up:
``simulate`` is called from ``satorbits.cli`` (simulate, CSV consistency)
and from ``satorbits.verify`` (minimal period), so both names are wrapped.
Counters are computed here from arguments and results, independently of the
program's own checks; they are exact and repeat from run to run.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Optional

from tracing import Tracer


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _bits(value: Any) -> int:
    q = value if isinstance(value, Fraction) else Fraction(value)
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _simulate_counters(args: tuple, kwargs: dict, t: Any) -> dict:
    raw = [u for row in t.raw_u for u in row]
    return {
        "steps": t.steps,
        "agent_steps": t.steps * t.n,
        "raw_inputs": len(raw),
        "unsat": sum(1 for u in raw if abs(u) < 1),
        "max_bits": max(_bits(c) for row in t.states for s in row for c in (s.x, s.v)),
    }


def _min_slack(plan: Any) -> Fraction:
    """Smallest distance of the plan from violating a synthesis inequality.

    di: how far each cross-edge difference x_i(0) - x_j(0) sits inside its
    interval.  ns: the slack of the gain gate and of both key inequalities
    on every cross edge.
    """
    g, p = plan.gains, plan.partition
    if plan.model == "di":
        m = plan.half_period
        slacks = []
        for i, j, w in p.cross_edges:
            lower = (1 / w + (g.beta - g.alpha) * (m - 2)) / g.alpha
            upper = (2 * g.alpha * (m - 1) - g.beta * (m - 2) - 1 / w) / g.alpha
            d = plan.init[i].x - plan.init[j].x
            slacks.append(min(d - lower, upper - d))
        return min(slacks)
    a = plan.a
    sign = 1 if a > 0 else -1
    slacks = [sign * (g.beta - a / p.a_bar) - abs(g.alpha)]
    for _, _, w in p.cross_edges:
        slacks += [-1 - w * (g.alpha - g.beta) / a, -1 - w * (-g.alpha - g.beta) / a]
    return min(slacks)


def _synthesize_counters(args: tuple, kwargs: dict, plan: Any) -> dict:
    return {
        "position_bits": max(_bits(s.x) for s in plan.init),
        "min_slack": float(_min_slack(plan)),
    }


def _pattern_counters(args: tuple, kwargs: dict, report: Any) -> dict:
    """Worst sign*u - 1 over one period; even agents push +1 first, odd -1."""
    t = _arg(args, kwargs, 0, "t")
    even = _arg(args, kwargs, 1, "p").s_even
    period = _arg(args, kwargs, 2, "pattern").period
    margin = min(
        (1 if k < period // 2 else -1) * (1 if i in even else -1) * t.raw_u[k][i] - 1
        for k in range(period)
        for i in range(t.n)
    )
    return {"pattern_margin": float(margin)}


def _backward_counters(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"steps": _arg(args, kwargs, 3, "T")}


def _csv_counters(args: tuple, kwargs: dict, text: str) -> dict:
    return {"csv_bytes": len(text.encode())}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the CLI pipeline."""
    from satorbits import cli, synthesis, verify

    tracer.wrap(cli, "parse_graph", "graphs.parse_graph")
    tracer.wrap(cli, "make_partition", "graphs.make_partition")
    tracer.wrap(synthesis, "make_partition", "graphs.make_partition")
    tracer.wrap(cli, "synthesize_di", "synthesis.synthesize", _synthesize_counters)
    tracer.wrap(cli, "synthesize_ns", "synthesis.synthesize", _synthesize_counters)
    tracer.wrap(synthesis, "solve_positions", "synthesis.solve_positions")
    tracer.wrap(cli, "simulate", "dynamics.simulate", _simulate_counters)
    tracer.wrap(verify, "simulate", "dynamics.simulate", _simulate_counters)
    tracer.wrap(cli, "verification_report", "verify.verification_report")
    tracer.wrap(verify, "check_periodicity", "verify.check_periodicity")
    tracer.wrap(verify, "backward_states", "verify.backward_states", _backward_counters)
    tracer.wrap(verify, "check_pattern", "verify.check_pattern", _pattern_counters)
    tracer.wrap(verify, "oracle_check_di", "verify.oracle_check_di")
    tracer.wrap(verify, "minimal_period", "verify.minimal_period")
    tracer.wrap(cli, "trajectory_to_csv", "cli.trajectory_to_csv", _csv_counters)
    tracer.wrap(cli, "trajectory_from_csv", "cli.trajectory_from_csv")
    tracer.wrap(cli, "plan_to_text", "cli.plan_io")
    tracer.wrap(cli, "plan_from_text", "cli.plan_io")


SELF_TIMED = (
    "graphs.parse_graph",
    "graphs.make_partition",
    "synthesis.synthesize",
    "synthesis.solve_positions",
    "dynamics.simulate",
    "verify.check_periodicity",
    "verify.backward_states",
    "verify.check_pattern",
    "verify.oracle_check_di",
    "cli.trajectory_to_csv",
    "cli.trajectory_from_csv",
    "cli.plan_io",
)
CALLS = ("graphs.parse_graph", "graphs.make_partition", "dynamics.simulate")
WHOLE = ("verify.verification_report", "verify.minimal_period")

#: per-layer metrics that are counts of work, not times: taken from one
#: pipeline rather than as a median, and required to repeat exactly
COUNTERS = (
    "graphs.parse_graph.calls",
    "graphs.make_partition.calls",
    "dynamics.simulate.calls",
    "synthesis.position_bits",
    "synthesis.min_slack",
    "dynamics.agent_steps",
    "dynamics.unsat_frac",
    "dynamics.max_bits",
    "verify.steps_rolled",
    "verify.pattern_margin_min",
    "cli.csv_bytes",
)


def enclosing_command(tracer: Tracer, k: int) -> str:
    """Name of the ``command.*`` span that span `k` ran in, or ""."""
    while k is not None and not tracer.spans[k].name.startswith("command."):
        k = tracer.spans[k].parent
    return "" if k is None else tracer.spans[k].name


def span_scales(tracer: Tracer, factors: dict[str, dict[str, float]]) -> list[float]:
    """Host-speed factor of each span: that of the command it ran in.

    `factors` maps run id -> command span name -> factor; a span outside
    every command gets the mean of its run's factors.
    """
    scales = []
    for k, sp in enumerate(tracer.spans):
        run = factors[sp.run]
        command = enclosing_command(tracer, k)
        scales.append(run[command] if command else sum(run.values()) / len(run))
    return scales


def pipeline_metrics(
    tracer: Tracer, run: str, scale: Optional[list[float]] = None
) -> dict[str, float]:
    """Per-layer metrics of the traced pipeline `run` (totals over its three commands).

    Times are multiplied by each span's host-speed factor in `scale`.
    """
    scale = scale or [1.0] * len(tracer.spans)
    self_s = [s * f for s, f in zip(tracer.self_times(), scale)]
    mine = [k for k, sp in enumerate(tracer.spans) if sp.run == run]

    def named(name: str) -> list[int]:
        return [k for k in mine if tracer.spans[k].name == name]

    out: dict[str, float] = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = sum(self_s[k] for k in named(name))
    for name in CALLS:
        out[f"{name}.calls"] = len(named(name))
    for name in WHOLE:
        out[f"{name}.s"] = sum(tracer.spans[k].duration * scale[k] for k in named(name))

    def counter(name: str, key: str) -> list:
        return [tracer.spans[k].counters[key] for k in named(name)]

    sims = named("dynamics.simulate")
    agent_steps = sum(counter("dynamics.simulate", "agent_steps"))
    out["dynamics.agent_steps"] = agent_steps
    out["dynamics.us_per_agent_step"] = (
        1e6 * out["dynamics.simulate.self_s"] / agent_steps if agent_steps else 0.0
    )
    raw_inputs = sum(counter("dynamics.simulate", "raw_inputs"))
    out["dynamics.unsat_frac"] = (
        sum(counter("dynamics.simulate", "unsat")) / raw_inputs if raw_inputs else 0.0
    )
    out["dynamics.max_bits"] = max(counter("dynamics.simulate", "max_bits"), default=0)
    synth = [tracer.spans[k].counters for k in named("synthesis.synthesize")]
    out["synthesis.position_bits"] = synth[0]["position_bits"] if synth else 0
    out["synthesis.min_slack"] = synth[0]["min_slack"] if synth else 0.0
    out["verify.steps_rolled"] = sum(
        tracer.spans[k].counters["steps"]
        for k in sims + named("verify.backward_states")
        if enclosing_command(tracer, k) == "command.verify"
    )
    out["verify.pattern_margin_min"] = min(
        counter("verify.check_pattern", "pattern_margin"), default=0.0
    )
    out["cli.csv_bytes"] = sum(counter("cli.trajectory_to_csv", "csv_bytes"))
    return out
