"""satorbits benchmark: the user's job ``synthesize -> simulate -> verify --csv``.

    python3 perfbench/run.py --workload di_sparse --seed 1 --seconds 30 --trace 0

Runs the three commands through ``satorbits.cli.main`` in this process, on
one thread, again and again for ``--seconds`` seconds, and at least once on
each of the INSTANCES inputs the seed gives; pipelines take them in turn.
Every command's exit code and output are checked (see workloads.py).

Every time is normalised for the host's speed (see `PipelineResult.scale`)
and reported as the median over an instance's pipelines, averaged over the
instances (see `per_instance_median`).
--trace 0 reports the end-to-end metrics.
--trace 1 alternates untraced and traced pipelines on the same instance and
reports the per-layer metrics (see layers.py); it also writes the spans to
``.perfbench_out/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count commands.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import layers
from tracing import Tracer
from workloads import COMMANDS, WORKLOADS, make_case

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: cold interpreter starts timed for setup_s
SETUP_STARTS = 11
#: distinct inputs per run; each pipeline takes the next one in turn
INSTANCES = 8
#: iterations of the reference loop timed before and after every command
REF_ITERATIONS = 8000
#: the reference loop's wall time on a fast spell of the 2-vCPU Xeon host
#: this benchmark was built on, whose speed moved by up to 2.5x
REF_NOMINAL_S = 0.02


def ref_loop_s() -> float:
    """Time a fixed pure-Python Fraction loop, which shows the host's speed."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(REF_ITERATIONS):
        acc += Fraction(i % 97, 1 + i % 13)
    return time.perf_counter() - start


@dataclass
class PipelineResult:
    #: wall time of each command
    wall: dict[str, float] = field(default_factory=dict)
    #: reference loop times: one before the first command and one after each
    refs: list[float] = field(default_factory=list)
    #: (command, what went wrong) for every failed command
    failures: list[tuple[str, str]] = field(default_factory=list)

    def scale(self, command: str) -> float:
        """Factor that turns `command`'s wall time into a normalised time.

        The host's speed moves by up to 2.5x within seconds, and the same
        stretch slows the reference loop timed just before and just after
        the command, so wall time * REF_NOMINAL_S / (their mean) is the time
        the command takes on a host where the loop takes REF_NOMINAL_S.
        """
        k = COMMANDS.index(command)
        return REF_NOMINAL_S / statistics.fmean(self.refs[k : k + 2])

    @property
    def times(self) -> dict[str, float]:
        """Normalised time of each command."""
        return {command: t * self.scale(command) for command, t in self.wall.items()}

    @property
    def total(self) -> float:
        return sum(self.times.values())

    @property
    def elapsed(self) -> float:
        """Wall time the pipeline took, reference loops included."""
        return sum(self.wall.values()) + sum(self.refs)


def run_pipeline(case, cli_main: Callable, tracer=None) -> PipelineResult:
    """Run the three commands of `case`, timing and checking each one."""
    case.clean()
    result = PipelineResult()
    result.refs.append(ref_loop_s())
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"command.{command}") if tracer else nullcontext()
        code: object = None
        start = time.perf_counter()
        try:
            with span, redirect_stdout(out), redirect_stderr(err):
                code = cli_main(case.argv(command))
        except (Exception, SystemExit) as exc:  # a crashing command is a failed one
            code = f"raised {exc!r}"
        result.wall[command] = time.perf_counter() - start
        result.refs.append(ref_loop_s())
        if command == "synthesize":
            case.after_synthesize()
        if code != case.expected_exit(command):
            problem = f"exit {code}, want {case.expected_exit(command)}"
            tail = err.getvalue().strip().splitlines()[-1:]
            result.failures.append((command, "; ".join([problem] + tail)))
            continue
        try:
            problem = case.check(command, out.getvalue())
        except (OSError, ValueError, KeyError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            result.failures.append((command, problem))
    return result


def cold_start_s() -> float:
    """Normalised time of a fresh interpreter importing satorbits.cli.

    Scaled like a command's time, by the reference loops timed just before
    and just after it.
    """
    before = ref_loop_s()
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import satorbits.cli"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        check=True,
    )
    wall = time.perf_counter() - start
    return wall * REF_NOMINAL_S / statistics.fmean([before, ref_loop_s()])


def per_instance_median(samples: list[tuple[int, float]]) -> float:
    """Mean over instances of the median of each instance's samples.

    Every instance counts once, however many pipelines it got.
    """
    by_instance: dict[int, list[float]] = {}
    for instance, value in samples:
        by_instance.setdefault(instance, []).append(value)
    return statistics.fmean(statistics.median(v) for v in by_instance.values())


class Runner:
    """Runs pipelines of one workload and seed, and tallies failures."""

    def __init__(self, workload: str, seed: int, workdir: Path, tiny: bool = False):
        from satorbits import cli

        self.workload, self.seed, self.tiny = workload, seed, tiny
        self.workdir = workdir
        self.cli_main = cli.main
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self._cases: dict = {}

    def case(self, instance: int):
        """Instance `instance` of the workload for this seed, generated once."""
        if instance not in self._cases:
            self._cases[instance] = make_case(
                self.workload,
                self.seed,
                instance,
                self.workdir / f"instance{instance}",
                SRC / "satorbits" / "fixtures",
                self.tiny,
            )
        return self._cases[instance]

    def pipeline(self, case, tracer=None) -> PipelineResult:
        result = run_pipeline(case, self.cli_main, tracer)
        self.attempted += len(result.times)
        self.failures += result.failures
        for command, problem in result.failures:
            print(
                f"FAILED {self.workload} seed={self.seed} {command}: {problem}",
                file=sys.stderr,
            )
        return result


def _keep_going(deadline: float, done: list[float]) -> bool:
    """True until every instance has run once, then while another round of
    the median length (wall seconds) still fits before the deadline."""
    return len(done) < INSTANCES or time.perf_counter() + statistics.median(done) <= deadline


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    """Pipelines cycle through the instances; cold starts are spread over the run."""
    setup: list[float] = []
    samples: list[tuple[int, PipelineResult]] = []
    deadline = time.perf_counter() + seconds
    while _keep_going(deadline, [r.elapsed for _, r in samples]):
        if len(setup) < SETUP_STARTS:
            setup.append(cold_start_s())
        instance = len(samples) % INSTANCES
        samples.append((instance, runner.pipeline(runner.case(instance))))
    setup += [cold_start_s() for _ in range(SETUP_STARTS - len(setup))]
    metrics = {"pipeline_s": per_instance_median([(k, r.total) for k, r in samples])}
    for command in COMMANDS:
        metrics[f"{command}_s"] = per_instance_median([(k, r.times[command]) for k, r in samples])
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["ok_frac"] = 1 - len(runner.failures) / runner.attempted
    print(f"{runner.workload}: {len(samples)} pipelines", file=sys.stderr)
    return metrics


def per_layer(runner: Runner, seconds: float) -> tuple[dict[str, float], dict]:
    """Untraced and traced pipelines alternate on each instance in turn."""
    tracer = Tracer()
    plain: list[tuple[int, PipelineResult]] = []
    traced: list[tuple[int, PipelineResult]] = []
    runs: list[str] = []
    deadline = time.perf_counter() + seconds
    while _keep_going(deadline, [a.elapsed + b.elapsed for (_, a), (_, b) in zip(plain, traced)]):
        instance = len(plain) % INSTANCES
        case = runner.case(instance)
        plain.append((instance, runner.pipeline(case)))
        tracer.run = f"{runner.workload}-{runner.seed}-{len(runs)}"
        runs.append(tracer.run)
        try:
            layers.install(tracer)
            with tracer.span("pipeline"):
                traced.append((instance, runner.pipeline(case, tracer)))
        finally:
            tracer.unwrap()
        tracer.settle()

    scale = layers.span_scales(
        tracer,
        {
            run: {f"command.{c}": result.scale(c) for c in COMMANDS}
            for run, (_, result) in zip(runs, traced)
        },
    )
    per_run = [
        (k, layers.pipeline_metrics(tracer, run, scale)) for run, (k, _) in zip(runs, traced)
    ]
    first = per_run[0][1]
    metrics = {
        name: first[name] if name in layers.COUNTERS else per_instance_median(
            [(k, m[name]) for k, m in per_run]
        )
        for name in first
    }
    metrics["host.ref_loop_s"] = statistics.median(
        ref for _, result in plain + traced for ref in result.refs
    )
    plain_s = per_instance_median([(k, r.total) for k, r in plain])
    traced_s = per_instance_median([(k, r.total) for k, r in traced])
    metrics["trace.overhead_frac"] = (traced_s - plain_s) / plain_s
    by_span: dict[str, list[float]] = {}
    for sp, s, f in zip(tracer.spans, tracer.self_times(), scale):
        by_span.setdefault(sp.name, []).append(s * f)
    trace = {
        "workload": runner.workload,
        "seed": runner.seed,
        "runs": runs,
        "ref_nominal_s": REF_NOMINAL_S,
        "untraced_pipeline_s": [r.total for _, r in plain],
        "traced_pipeline_s": [r.total for _, r in traced],
        "trace.overhead_frac": metrics["trace.overhead_frac"],
        "self_s_per_pipeline": {
            name: sum(values) / len(runs) for name, values in sorted(by_span.items())
        },
        "self_s_per_layer": _per_layer_prefix(by_span, len(runs)),
        "metrics": metrics,
        "spans": [dict(sp, scale=f) for sp, f in zip(tracer.to_json(), scale)],
    }
    return metrics, trace


def _per_layer_prefix(by_span: dict[str, list[float]], runs: int) -> dict[str, float]:
    """Mean self time per pipeline of each layer (the span name's first part)."""
    totals: dict[str, float] = {}
    for name, values in by_span.items():
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + sum(values) / runs
    return dict(sorted(totals.items()))


def load_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "satorbits" / "cli.py").is_file():
        print(f"error: no satorbits sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2
    units = load_units()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(args.workload, args.seed, workdir)
    try:
        if args.trace:
            metrics, trace = per_layer(runner, args.seconds)
            traces = OUT / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            path = traces / f"{args.workload}-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json"
            path.write_text(json.dumps(trace, indent=1))
            print(f"trace written to {path.relative_to(ROOT)}", file=sys.stderr)
        else:
            metrics = end_to_end(runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{args.workload:<11} {name:<34} {value:>14.6g} {units[name]}")
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
