"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_selftest.py -q

Shows that each workload passes its own checks, that the traced counters
repeat exactly, and that a wrong exit code or a corrupted CSV row is counted
as a failed command.
"""

from __future__ import annotations

import sys

import pytest

import layers
import run
from tracing import Tracer
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))


def tiny_runner(workload, tmp_path):
    return run.Runner(workload, seed=7, workdir=tmp_path, tiny=True)


def traced_metrics(runner, case):
    tracer = Tracer()
    tracer.run = "selftest"
    try:
        layers.install(tracer)
        runner.pipeline(case, tracer)
    finally:
        tracer.unwrap()
    tracer.settle()
    return layers.pipeline_metrics(tracer, "selftest")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_pipeline_passes(workload, tmp_path):
    runner = tiny_runner(workload, tmp_path)
    result = runner.pipeline(runner.case(0))
    assert result.failures == []
    assert runner.attempted == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat(workload, tmp_path):
    runner = tiny_runner(workload, tmp_path)
    first = traced_metrics(runner, runner.case(0))
    second = traced_metrics(runner, runner.case(0))
    assert runner.failures == []
    assert {k: first[k] for k in layers.COUNTERS} == {k: second[k] for k in layers.COUNTERS}
    assert first["dynamics.simulate.calls"] == 3
    assert first["cli.csv_bytes"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_exit_code_is_a_failure(workload, tmp_path):
    runner = tiny_runner(workload, tmp_path)
    real_main = runner.cli_main

    def main(argv):
        code = real_main(argv)
        return code + 1 if argv[0] == "simulate" else code

    runner.cli_main = main
    runner.pipeline(runner.case(0))
    assert [command for command, _ in runner.failures] == ["simulate"]
    assert runner.attempted == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_csv_row_is_a_failure(workload, tmp_path):
    runner = tiny_runner(workload, tmp_path)
    case = runner.case(0)
    # corrupt a row the benchmark itself reads: k=T on the orbit, the final
    # step off it
    tick = case.T if case.original_label is None else case.steps
    real_main = runner.cli_main

    def main(argv):
        code = real_main(argv)
        if argv[0] == "simulate":
            lines = case.csv.read_text().splitlines()
            row = next(k for k, line in enumerate(lines) if line.startswith(f"{tick},"))
            fields = lines[row].split(",")
            fields[2] += "1"  # append a digit to the x value
            lines[row] = ",".join(fields)
            case.csv.write_text("\n".join(lines) + "\n")
        return code

    runner.cli_main = main
    runner.pipeline(case)
    simulate = [problem for command, problem in runner.failures if command == "simulate"]
    want = "differs from k=0" if case.original_label is None else "does not match the reference"
    assert len(simulate) == 1 and want in simulate[0], runner.failures
    assert runner.attempted == 3
