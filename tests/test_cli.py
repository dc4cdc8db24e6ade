from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satorbits.cli as cli
import satorbits.dynamics as dynamics
import satorbits.verify as verify
from satorbits import (
    AgentState,
    GainParams,
    fixture_path,
    make_partition,
    parse_graph,
    simulate,
    synthesize_di,
)
from satorbits.cli import (
    EXIT_GATE,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
    plan_from_text,
    plan_to_text,
    trajectory_from_csv,
    trajectory_to_csv,
)
from satorbits.graphs import DistanceClasses, distance_classes
from satorbits.synthesis import interval_numerators

from conftest import REFERENCE_INTERVALS
from reference import interval_bounds

GRAPH = str(fixture_path("graph7.txt"))
DI_CFG = str(fixture_path("di.cfg"))
NS_CFG = str(fixture_path("ns.cfg"))
#: a line of the di interval table `synthesize` writes to stderr
TABLE_LINE = re.compile(r"# (\S+) <= x_(\d+)\(0\)-x_(\d+)\(0\) <= (\S+)")


def F(text):
    return Fraction(text)


def table_rows(text):
    """The m, T line of a di interval table and its (i, j, lower, upper) texts."""
    head, *lines = text.splitlines()
    rows = [TABLE_LINE.fullmatch(line).groups() for line in lines]
    return head, [(int(i) - 1, int(j) - 1, lo, hi) for lo, i, j, hi in rows]


def float_rows(p, gains, m):
    """The rows a table with a float in it holds: the repr of the float
    nearest each bound, computed exactly on the inputs' binary values."""
    exact = GainParams(*map(Fraction, gains))
    return [
        (i, j, *(repr(float(b)) for b in interval_bounds(Fraction(w), exact, m)))
        for i, j, w in p.cross_edges
    ]


class TestPartitionCmd:
    def test_reference_graph(self, capsys):
        assert main(["partition", GRAPH]) == EXIT_OK
        out = capsys.readouterr().out
        assert "S_e = {1,5,6,7}" in out
        assert "S_o = {2,3,4}" in out
        assert "a_bar = 0.5" in out

    def test_two_node(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("1 2 1\n")
        assert main(["partition", str(p)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "S_e = {1}" in out and "S_o = {2}" in out

    def test_disconnected(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("n 3\n1 2 1\n")
        assert main(["partition", str(p)]) == EXIT_USAGE

    def test_parse_error_has_line_number(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("1 2 1\n3 3 1\n")
        assert main(["partition", str(p)]) == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("root", ["0", "8"])
    def test_root_out_of_range(self, root, capsys):
        assert main(["partition", GRAPH, "--root", root]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: root {root} out of range 1..7"]
        assert captured.out == ""


class TestSynthesizeCmd:
    def test_di_fixture(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.txt"
        code = main(
            ["synthesize", GRAPH, "--config", DI_CFG, "-o", str(plan_file)]
        )
        assert code == EXIT_OK
        text = plan_file.read_text()
        assert "T=22" in text and "m=11" in text
        assert "agent 1: x=21, v=-5.5" in text
        err = capsys.readouterr().err
        assert "# 5.45 <= x_6(0)-x_3(0) <= 5.55\n" in err

    @staticmethod
    def table_of(argv, capsys):
        """m, T and the (i, j, lower text, upper text) lines of the stderr table."""
        capsys.readouterr()
        assert main(argv) == EXIT_OK
        return table_rows(capsys.readouterr().err)

    def test_di_table_is_the_exact_intervals(self, partition7, gains_di, capsys):
        """Each exact bound reads back to the value of its source,
        `interval_numerators`, which is the paper's interval of its weight,
        and the table reproduces the paper's to its four decimals."""
        head, rows = self.table_of(["synthesize", GRAPH, "--config", DI_CFG], capsys)
        assert head == "# m=11 T=22"
        numerators = interval_numerators(gains_di, 11)
        intervals = []
        for i, j, w in partition7.cross_edges:
            L, U, D = numerators(w)
            assert (Fraction(L, D), Fraction(U, D)) == interval_bounds(w, gains_di, 11)
            intervals.append((i, j, Fraction(L, D), Fraction(U, D)))
        assert [(i, j, F(lo), F(hi)) for i, j, lo, hi in rows] == intervals
        assert {(i, j) for i, j, _, _ in rows} == set(REFERENCE_INTERVALS)
        for i, j, lo, hi in rows:
            want_lo, want_hi = REFERENCE_INTERVALS[i, j]
            assert abs(F(lo) - F(want_lo)) < F("0.00005")
            assert abs(F(hi) - F(want_hi)) < F("0.00005")

    @pytest.mark.parametrize("m", [11, 12])
    def test_float_di_table_is_the_float_bounds(self, m, capsys):
        head, rows = self.table_of(
            ["synthesize", GRAPH, "--config", DI_CFG, "--mode", "float", "--m", str(m)], capsys
        )
        assert head == f"# m={m} T={2 * m}"
        g = parse_graph(Path(GRAPH).read_text(), mode="float")
        assert rows == float_rows(make_partition(g, 0), GainParams(0.4, 0.42), m)

    def test_exact_gains_with_float_weights_keep_the_float_texts(self, gains_di):
        """A float weight makes the table's texts floats even with exact gains."""
        g = parse_graph(Path(GRAPH).read_text(), mode="float")
        plan = synthesize_di(g, gains_di)
        head, rows = table_rows(cli.interval_table(plan))
        assert head == "# m=11 T=22"
        assert rows == float_rows(plan.partition, gains_di, 11)

    def test_ns_fixture(self, tmp_path):
        plan_file = tmp_path / "plan.txt"
        code = main(["synthesize", GRAPH, "--config", NS_CFG, "-o", str(plan_file)])
        assert code == EXIT_OK
        text = plan_file.read_text()
        assert "T=4" in text
        assert "agent 1: x=1, v=-1" in text
        assert "agent 2: x=-1, v=1" in text

    def test_gate_exit_code(self):
        code = main(
            ["synthesize", GRAPH, "--model", "di", "--alpha", "0.4", "--beta", "0.7"]
        )
        assert code == EXIT_GATE

    def test_flags_override_config(self, tmp_path):
        # beta from the flag fails the gate even though the config passes
        code = main(
            ["synthesize", GRAPH, "--config", DI_CFG, "--beta", "0.7"]
        )
        assert code == EXIT_GATE

    def test_gate_on_its_float_edge_is_decided_exactly(self, tmp_path, capsys):
        """Gains on the gate's float boundary, where float arithmetic passed the
        gate and failed the key inequality w(alpha - beta)/a <= -1 on the one
        cross edge: on the exact binary values the gate itself fails."""
        graph = tmp_path / "graph.txt"
        graph.write_text("n 2\n1 2 3.5\n")
        argv = ["synthesize", str(graph), "--mode", "float", "--model", "ns", "--a", "0.04"]
        argv += ["--alpha", "1.95", "--beta", "1.9614285714285713"]
        capsys.readouterr()
        assert main(argv) == EXIT_GATE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: gain gate failed: gains (alpha=1.95, beta=1.9614285714285713) violate "
            "|alpha| <= sgn(a)(beta - a/a_bar) with a=0.04, a_bar=3.5\n"
        )


class TestSimulateCmd:
    def test_plan_round_trip_periodic(self, tmp_path):
        plan_file = tmp_path / "plan.txt"
        csv_file = tmp_path / "traj.csv"
        assert main(["synthesize", GRAPH, "--config", DI_CFG, "-o", str(plan_file)]) == EXIT_OK
        assert (
            main(
                [
                    "simulate",
                    GRAPH,
                    "--config",
                    DI_CFG,
                    "--plan",
                    str(plan_file),
                    "-o",
                    str(csv_file),
                ]
            )
            == EXIT_OK
        )
        lines = csv_file.read_text().splitlines()
        assert lines[0] == "k,agent,x,v,u_raw,u_sat"
        by_k = {}
        for line in lines[1:]:
            k, agent, x, v, *_ = line.split(",")
            by_k.setdefault(int(k), {})[int(agent)] = (x, v)
        assert by_k[22] == by_k[0]

    def test_reference_init_inline(self, tmp_path, capsys):
        code = main(["simulate", GRAPH, "--config", DI_CFG, "--steps", "44"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 45 * 7
        rows0 = [l for l in lines[1:] if l.startswith("0,")]
        rows22 = [l for l in lines[1:] if l.startswith("22,")]
        assert [r.split(",")[2:4] for r in rows0] == [
            r.split(",")[2:4] for r in rows22
        ]

    def test_zero_steps(self, capsys):
        code = main(["simulate", GRAPH, "--config", DI_CFG, "--steps", "0"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 7

    def test_ns_two_periods(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.txt"
        main(["synthesize", GRAPH, "--config", NS_CFG, "-o", str(plan_file)])
        code = main(
            ["simulate", GRAPH, "--config", NS_CFG, "--plan", str(plan_file), "--steps", "8"]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 + 9 * 7

    def test_missing_init(self):
        assert main(["simulate", GRAPH, "--model", "di", "--alpha", "0.4", "--beta", "0.42"]) == EXIT_USAGE


class TestVerifyCmd:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        plan_file = tmp_path / "plan.txt"
        csv_file = tmp_path / "traj.csv"
        main(["synthesize", GRAPH, "--config", DI_CFG, "-o", str(plan_file)])
        main(
            ["simulate", GRAPH, "--config", DI_CFG, "--plan", str(plan_file), "-o", str(csv_file)]
        )
        return plan_file, csv_file

    def test_full_pass(self, artifacts, capsys):
        plan_file, csv_file = artifacts
        code = main(
            ["verify", GRAPH, "--plan", str(plan_file), "--csv", str(csv_file)]
        )
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["minimal_period"] == 22
        assert report["periodicity"] and report["pattern"] and report["closed_form"]

    def test_resimulate_without_csv(self, artifacts, capsys):
        plan_file, _ = artifacts
        assert main(["verify", GRAPH, "--plan", str(plan_file)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ok"]

    def test_tampered_csv(self, artifacts, capsys):
        plan_file, csv_file = artifacts
        lines = csv_file.read_text().splitlines()
        k, agent, x, v, ur, us = lines[40].split(",")
        lines[40] = ",".join([k, agent, str(Fraction(x) + 1), v, ur, us])
        csv_file.write_text("\n".join(lines) + "\n")
        code = main(["verify", GRAPH, "--plan", str(plan_file), "--csv", str(csv_file)])
        assert code == EXIT_VERIFY
        report = json.loads(capsys.readouterr().out)
        assert not report["consistency"]
        assert report["consistency_first_mismatch"] == {
            "step": int(k),
            "agent": int(agent),
        }

    def test_ns_artifacts(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.txt"
        csv_file = tmp_path / "traj.csv"
        main(["synthesize", GRAPH, "--config", NS_CFG, "-o", str(plan_file)])
        main(
            ["simulate", GRAPH, "--config", NS_CFG, "--plan", str(plan_file), "-o", str(csv_file)]
        )
        code = main(["verify", GRAPH, "--plan", str(plan_file), "--csv", str(csv_file)])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] and report["minimal_period"] == 4


    def test_csv_verify_rolls_out_once(self, artifacts, capsys, monkeypatch):
        plan_file, csv_file = artifacts
        calls = []

        def counting(module):
            real = module.simulate

            def wrapped(*args, **kwargs):
                t = real(*args, **kwargs)
                calls.append((module.__name__, t.steps))
                return t

            monkeypatch.setattr(module, "simulate", wrapped)

        counting(cli)
        counting(verify)
        code = main(["verify", GRAPH, "--plan", str(plan_file), "--csv", str(csv_file)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["minimal_period"] == 22
        # the consistency re-simulation covers 2T steps and serves the period search
        assert calls == [("satorbits.cli", 44)]


@pytest.mark.parametrize(
    "row_41,code",
    [
        pytest.param("5,5,3.5,-0.5,7,1", EXIT_VERIFY, id="u_raw"),
        pytest.param("5,5,3.5,-0.5,0.5,0.5", EXIT_VERIFY, id="u_sat"),
        pytest.param("5,4,3.5,-0.5,28.106,1", EXIT_USAGE, id="duplicate-row"),
        pytest.param("5,0,3.5,-0.5,28.106,1", EXIT_USAGE, id="agent-0"),
        pytest.param(None, EXIT_USAGE, id="agent-7-dropped"),
    ],
)
def test_tampered_or_malformed_csv(row_41, code, tmp_path, capsys):
    """Replace line 41 of the di fixture CSV (step 5, agent 5), or drop agent 7."""
    plan_file, csv_file = tmp_path / "plan.txt", tmp_path / "traj.csv"
    main(["synthesize", GRAPH, "--config", DI_CFG, "-o", str(plan_file)])
    main(["simulate", GRAPH, "--config", DI_CFG, "--plan", str(plan_file), "-o", str(csv_file)])
    lines = csv_file.read_text().splitlines()
    assert lines[40] == "5,5,3.5,-0.5,28.106,1"
    if row_41 is None:
        lines = [line for line in lines if line.split(",")[1] != "7"]
    else:
        lines[40] = row_41
    csv_file.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["verify", GRAPH, "--plan", str(plan_file), "--csv", str(csv_file)]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out
    if code == EXIT_VERIFY:
        report = json.loads(captured.out)
        assert not report["consistency"] and not report["ok"]
        assert report["consistency_first_mismatch"] == {"step": 5, "agent": 5}
    else:
        [line] = captured.err.splitlines()
        if row_41 is None:
            assert line == "error: CSV has 6 agents, graph has 7"
        else:
            assert line.startswith("error: CSV line 41: ")


def _off_orbit_plan(tmp_path):
    """The di fixture plan with every initial state halved."""
    plan_file = tmp_path / "plan.txt"
    main(["synthesize", GRAPH, "--config", DI_CFG, "-o", str(plan_file)])
    lines = []
    for line in plan_file.read_text().splitlines():
        if line.startswith("agent "):
            head, _, rest = line.partition(":")
            x, v = (Fraction(p.split("=")[1]) / 2 for p in rest.split(","))
            line = f"{head}: x={x}, v={v}"
        lines.append(line)
    plan_file.write_text("\n".join(lines) + "\n")
    return str(plan_file)


def _renamed_field_plan(tmp_path):
    plan_file = tmp_path / "plan.txt"
    main(["synthesize", GRAPH, "--config", DI_CFG, "-o", str(plan_file)])
    text = plan_file.read_text().replace("agent 3: x=", "agent 3: y=")
    plan_file.write_text(text)
    return str(plan_file)


def _simulate_plan(make_plan):
    return lambda tmp: ["simulate", GRAPH, "--config", DI_CFG, "--plan", make_plan(tmp)]


def _non_utf8(command, kind):
    """argv factory: `command` on the di fixture with a 0xff byte in its
    graph, config, plan or trajectory CSV, which is written to `bad-<kind>`."""

    def argv(tmp_path):
        plan, csv = tmp_path / "plan.txt", tmp_path / "traj.csv"
        main(["synthesize", GRAPH, "--config", DI_CFG, "-o", str(plan)])
        main(["simulate", GRAPH, "--config", DI_CFG, "--plan", str(plan), "-o", str(csv)])
        files = {"graph": Path(GRAPH), "config": Path(DI_CFG), "plan": plan, "trajectory": csv}
        bad = files[kind] = tmp_path / f"bad-{kind}"
        bad.write_bytes(b"# \xff\n")
        args = [command, str(files["graph"]), "--config", str(files["config"])]
        args += ["--plan", str(files["plan"])]
        return args + (["--csv", str(files["trajectory"])] if command == "verify" else [])

    return argv


@pytest.mark.parametrize(
    "command,kind",
    [("verify", kind) for kind in ("graph", "config", "plan", "trajectory")]
    + [("simulate", "plan")],
)
def test_non_utf8_file_is_named(command, kind, tmp_path, capsys):
    args = _non_utf8(command, kind)(tmp_path)
    capsys.readouterr()
    assert main(args) == EXIT_USAGE
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: cannot read {kind} {tmp_path / f'bad-{kind}'}: ")
    assert "can't decode byte 0xff" in line


def _non_ascii_digit(key):
    """argv factory: a command whose graph edge index (`key` "edge") or config
    `key=` value is the Arabic-Indic digit three, which int() reads as 3.  The
    value replaces the fixture's own `key=` line, so no repeated key hides it."""

    def argv(tmp_path):
        if key == "edge":
            graph = tmp_path / "graph.txt"
            graph.write_text("n 3\n\u0663 1 1.0\n2 3 1\n")
            return ["partition", str(graph)]
        cfg = tmp_path / "run.cfg"
        lines = fixture_path("di.cfg").read_text().splitlines()
        kept = [line for line in lines if not line.startswith(f"{key}=")]
        cfg.write_text("\n".join([*kept, f"{key}=\u0663"]) + "\n")
        return ["simulate" if key == "steps" else "synthesize", GRAPH, "--config", str(cfg)]

    return argv


#: Arabic-Indic digits, which int() reads as ASCII ones
_INDIC = str.maketrans("0123456789", "".join(chr(0x660 + d) for d in range(10)))


def _non_ascii_digit_file(kind, old):
    """argv factory: verify --csv on the di fixture with the text `old` of its
    plan or CSV (`kind`) written with Arabic-Indic digits."""

    def argv(tmp_path):
        plan, csv = tmp_path / "plan.txt", tmp_path / "traj.csv"
        main(["synthesize", GRAPH, "--config", DI_CFG, "-o", str(plan)])
        main(["simulate", GRAPH, "--config", DI_CFG, "--plan", str(plan), "-o", str(csv)])
        path = {"plan": plan, "csv": csv}[kind]
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, old.translate(_INDIC), 1))
        return ["verify", GRAPH, "--plan", str(plan), "--csv", str(csv)]

    return argv


def _disconnected(command):
    """argv factory: `command` with the di fixture plan on graph7 minus the edge 3-7."""

    def argv(tmp_path):
        plan_file = tmp_path / "plan.txt"
        main(["synthesize", GRAPH, "--config", DI_CFG, "-o", str(plan_file)])
        graph = tmp_path / "graph.txt"
        lines = fixture_path("graph7.txt").read_text().splitlines()
        graph.write_text("\n".join(line for line in lines if line != "3 7 3.4") + "\n")
        return [command, str(graph), "--config", DI_CFG, "--plan", str(plan_file)]

    return argv


@pytest.mark.parametrize(
    "argv,low_cap",
    [
        pytest.param(
            lambda tmp: ["synthesize", GRAPH, "--config", DI_CFG, "--root", "9"],
            False,
            id="root-out-of-range",
        ),
        pytest.param(
            lambda tmp: ["synthesize", GRAPH, "--config", NS_CFG, "--a", "2"],
            False,
            id="ns-a-out-of-range",
        ),
        pytest.param(_simulate_plan(_renamed_field_plan), False, id="plan-missing-x"),
        pytest.param(
            lambda tmp: ["simulate", GRAPH, "--config", DI_CFG, "--steps", "-3"],
            False,
            id="negative-steps",
        ),
        pytest.param(_simulate_plan(_off_orbit_plan), True, id="overflow-simulate"),
        pytest.param(
            lambda tmp: ["verify", GRAPH, "--plan", _off_orbit_plan(tmp)],
            True,
            id="overflow-verify",
        ),
        pytest.param(_disconnected("simulate"), False, id="disconnected-simulate"),
        pytest.param(_disconnected("verify"), False, id="disconnected-verify"),
        *(
            pytest.param(_non_utf8("verify", kind), False, id=f"non-utf8-{kind}")
            for kind in ("graph", "config", "plan", "trajectory")
        ),
        *(
            pytest.param(_non_ascii_digit(key), False, id=f"non-ascii-digit-{key}")
            for key in ("edge", "root", "m", "steps", "anchor")
        ),
        *(
            pytest.param(_non_ascii_digit_file(kind, old), False, id=f"non-ascii-digit-{name}")
            for name, kind, old in [
                ("plan-m", "plan", "\nm=11\n"),
                ("plan-T", "plan", "\nT=22\n"),
                ("plan-root", "plan", "\nroot=1\n"),
                ("plan-agent", "plan", "\nagent 3:"),
                # step and agent of the first data row: the replay rejects
                # them, and so must the full reader
                ("csv-step", "csv", "\n0,"),
                ("csv-agent", "csv", ",1,"),
            ]
        ),
    ],
)
def test_bad_input_is_one_error_line(argv, low_cap, tmp_path, capsys, monkeypatch):
    args = argv(tmp_path)
    capsys.readouterr()
    if low_cap:
        monkeypatch.setattr(dynamics, "MAX_EXACT_BITS", 8)
    assert main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("key", ["root", "m", "steps", "anchor"])
def test_non_ascii_digit_config_value_is_an_invalid_integer(key, tmp_path, capsys):
    """The config digit itself is what `parse_int` turns down, not some other check."""
    args = _non_ascii_digit(key)(tmp_path)
    capsys.readouterr()
    assert main(args) == EXIT_USAGE
    assert "invalid integer '٣'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,flag",
    [
        ("synthesize", "--root"),
        ("synthesize", "--m"),
        ("synthesize", "--anchor"),
        ("simulate", "--steps"),
    ],
)
def test_non_ascii_digit_flag_is_rejected_like_text(command, flag, capsys):
    """A flag's `٣` is turned down with the usage error `abc` gets, exit 1."""
    errors = []
    for value in ("abc", "\u0663"):
        assert main([command, GRAPH, "--config", DI_CFG, flag, value]) == EXIT_USAGE
        errors.append(capsys.readouterr().err)
    assert errors[0] == f"error: argument {flag}: invalid integer 'abc'\n"
    assert errors[1] == errors[0].replace("'abc'", "'\u0663'")


@pytest.mark.parametrize(
    "args,message",
    [
        (
            ["simulate", GRAPH, "--mode", "fast"],
            "argument --mode: invalid choice: 'fast' (choose from 'exact', 'float')",
        ),
        (
            ["verify", GRAPH, "--plan", "p", "--model", "dd"],
            "argument --model: invalid choice: 'dd' (choose from 'di', 'ns')",
        ),
        ([], "the following arguments are required: command"),
        (["partition"], "the following arguments are required: graph"),
        (["partition", GRAPH, "--steps", "3"], "unrecognized arguments: --steps 3"),
    ],
    ids=["bad-mode", "bad-model", "no-command", "no-graph", "unknown-flag"],
)
def test_malformed_flags_are_one_error_line(args, message, capsys):
    """argparse's usage text and exit 2, the gain gate's code, become one
    `error:` line with exit 1, as every other usage error is (a bad integer
    flag: `test_non_ascii_digit_flag_is_rejected_like_text`)."""
    assert _verify_outcome(args, capsys) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize("value", ["-1/2", "-5e-1", "-.5", "-0.5", "-1"])
@pytest.mark.parametrize(
    "command,flag",
    [
        ("synthesize", "alpha"),
        ("synthesize", "beta"),
        ("synthesize", "a"),
        ("synthesize", "base"),
        ("simulate", "init"),
    ],
)
def test_negative_flag_values_are_read_as_values(command, flag, value):
    """argparse alone takes only `-1` and `-1.5` forms of a negative value and
    reads any other, such as `-1/2`, as an unknown option."""
    if flag == "init":
        value += ",0;1,0"
    args = cli._parser().parse_args([command, GRAPH, f"--{flag}", value])
    assert getattr(args, flag) == value


@pytest.mark.parametrize(
    "command,flag",
    [("synthesize", "root"), ("synthesize", "m"), ("synthesize", "anchor"), ("simulate", "steps")],
)
def test_negative_integer_flags_are_read_as_values(command, flag):
    assert getattr(cli._parser().parse_args([command, GRAPH, f"--{flag}", "-3"]), flag) == -3


@pytest.mark.parametrize(
    "flags",
    [["--alpha", "-1/2"], ["--alpha", "-5e-1"], ["--a", "-1/2", "--beta", "-2"]],
    ids=["alpha-ratio", "alpha-exponent", "a-ratio"],
)
def test_ns_synthesis_with_negative_flag_values(flags, capsys):
    code, out, err = _verify_outcome(["synthesize", GRAPH, "--config", NS_CFG, *flags], capsys)
    assert (code, err) == (EXIT_OK, "") and out.startswith("model=ns\n")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: satorbits simulate")


def _float_overflow(kind):
    """argv factory: a float-mode command with one value of 1e400 in its input,
    or (`ns-a`) an ns synthesis whose start states 1/(2a) overflow."""

    def argv(tmp_path):
        graph = tmp_path / "graph.txt"
        graph.write_text(fixture_path("graph7.txt").read_text())
        cfg = tmp_path / "di.cfg"
        cfg.write_text(fixture_path("di.cfg").read_text() + "mode=float\n")
        if kind == "weight":
            graph.write_text(graph.read_text().replace("3 7 3.4", "3 7 1e400"))
            return ["synthesize", str(graph), "--config", str(cfg)]
        if kind == "alpha":
            cfg.write_text(cfg.read_text().replace("alpha=0.4\n", "alpha=1e400\n"))
            return ["synthesize", str(graph), "--config", str(cfg)]
        if kind == "ns-a":
            # 1/(2a) overflows, though a itself is a (subnormal) float
            ns = ["--config", NS_CFG, "--mode", "float", "--a", "1e-320"]
            return ["synthesize", str(graph), *ns]
        if kind == "di-m":
            # m/2 overflows, though the gains are (subnormal) floats
            gains = ["--alpha", "1e-320", "--beta", "1.2e-320"]
            return ["synthesize", str(graph), "--config", str(cfg), *gains]
        if kind == "di-weight":
            graph.write_text(graph.read_text().replace("3 7 3.4", "3 7 1e-320"))
            return ["synthesize", str(graph), "--config", str(cfg)]
        plan, csv_file = ["--plan", str(tmp_path / "plan.txt")], tmp_path / "traj.csv"
        main(["synthesize", str(graph), "--config", str(cfg), "-o", plan[1]])
        if kind == "plan-x":
            plan_file = tmp_path / "plan.txt"
            lines = plan_file.read_text().splitlines()
            lines[8] = "agent 3: x=1e400, v=0"
            plan_file.write_text("\n".join(lines) + "\n")
            return ["simulate", str(graph), "--config", str(cfg), *plan]
        main(["simulate", str(graph), "--config", str(cfg), *plan, "-o", str(csv_file)])
        lines = csv_file.read_text().splitlines()
        k, agent, _, *rest = lines[3].split(",")
        lines[3] = ",".join([k, agent, "1e400", *rest])
        csv_file.write_text("\n".join(lines) + "\n")
        return ["verify", str(graph), "--config", str(cfg), *plan, "--csv", str(csv_file)]

    return argv


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param(
            _float_overflow("weight"),
            "graph.txt: line 8: bad weight: scalar '1e400' outside the float range",
            id="graph-weight",
        ),
        pytest.param(
            _float_overflow("alpha"),
            "error: bad config value: scalar '1e400' outside the float range",
            id="config-alpha",
        ),
        pytest.param(
            _float_overflow("csv"),
            "error: CSV line 4: scalar '1e400' outside the float range",
            id="csv-x",
        ),
        pytest.param(
            _float_overflow("plan-x"),
            "error: plan line 9: scalar '1e400' outside the float range",
            id="plan-x",
        ),
        pytest.param(
            _float_overflow("ns-a"),
            "error: a=1e-320 puts the initial states +-1/(2a) outside the float range",
            id="ns-a-start-states",
        ),
        pytest.param(
            _float_overflow("di-m"),
            "error: half-period of 1066 bits outside the float range",
            id="di-gains-half-period",
        ),
        pytest.param(
            _float_overflow("di-weight"),
            "error: half-period of 1066 bits outside the float range",
            id="di-weight-half-period",
        ),
    ],
)
def test_float_overflow_is_one_error_line(argv, message, tmp_path, capsys):
    args = argv(tmp_path)
    capsys.readouterr()
    assert main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and line.endswith(message)
    assert captured.out == ""


def test_float_gains_near_the_largest_float_take_the_exact_half_period(tmp_path, capsys):
    """m of the gains' exact binary values, 3, where float arithmetic gave
    inf - inf and no m."""
    argv = ["synthesize", GRAPH, "--config", DI_CFG, "--mode", "float"]
    code, out, err = _verify_outcome([*argv, "--alpha", "1e308", "--beta", "1.2e308"], capsys)
    assert code == EXIT_OK and "\nm=3\nT=6\n" in out
    assert err.splitlines()[0] == "# m=3 T=6"


def test_float_run_that_leaves_the_float_range_is_one_error_line(tmp_path, capsys):
    """The m=3 plan of gains near the largest float: its first inputs are
    inf - inf, so synthesize notes it after the interval table, and simulate
    and verify stop with one error line, and no CSV of nan fields is written."""
    plan, csv = tmp_path / "plan.txt", tmp_path / "traj.csv"
    args = [GRAPH, "--config", DI_CFG, "--mode", "float"]
    gains = ["--alpha", "1e308", "--beta", "1.2e308"]
    capsys.readouterr()
    assert main(["synthesize", *args, *gains, "-o", str(plan)]) == EXIT_OK
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "# m=3 T=6" and all(line.startswith("# ") for line in err)
    assert err[-1] == (
        "# the float run of this plan leaves the float range at step 1; simulate it in exact mode"
    )
    # a float plan whose run stays in range gets no note
    assert main(["synthesize", *args, "-o", str(tmp_path / "plan-ok.txt")]) == EXIT_OK
    assert "float range" not in capsys.readouterr().err
    message = "error: float state or input left the float range (inf or nan); rerun in exact mode\n"
    for command in (["simulate", *args, "--plan", str(plan), "-o", str(csv)],
                    ["verify", *args, "--plan", str(plan)]):  # fmt: skip
        assert _verify_outcome(command, capsys) == (EXIT_USAGE, "", message)
    assert not csv.exists()


def _verify_di_csv(edit, off_orbit=False):
    """argv factory: verify --csv of the run of the di fixture plan, or of
    `_off_orbit_plan`, its CSV text put through `edit`."""

    def argv(tmp_path):
        plan, csv = tmp_path / "plan.txt", tmp_path / "traj.csv"
        if off_orbit:
            _off_orbit_plan(tmp_path)
        else:
            main(["synthesize", GRAPH, "--config", DI_CFG, "-o", str(plan)])
        main(["simulate", GRAPH, "--config", DI_CFG, "--plan", str(plan), "-o", str(csv)])
        csv.write_text(edit(csv.read_text()))
        return ["verify", GRAPH, "--config", DI_CFG, "--plan", str(plan), "--csv", str(csv)]

    return argv


def _drop_a_field(text):
    lines = text.split("\n")
    lines[2] = lines[2].rsplit(",", 1)[0]
    return "\n".join(lines)


@pytest.mark.parametrize(
    "argv,low_cap,message",
    [
        pytest.param(
            _verify_di_csv(lambda text: "step" + text[1:]), False,
            "CSV must start with header 'k,agent,x,v,u_raw,u_sat'", id="csv-header",
        ),
        pytest.param(
            _verify_di_csv(lambda text: ""), False,
            "CSV must start with header 'k,agent,x,v,u_raw,u_sat'", id="csv-empty",
        ),
        pytest.param(
            _verify_di_csv(_drop_a_field), False, "CSV line 3: expected 6 fields",
            id="csv-fields",
        ),
        pytest.param(
            _verify_di_csv(lambda text: text.split("\n")[0] + "\n"), False,
            "CSV contains no rows", id="csv-no-rows",
        ),
        # written under the default cap and verified under a low one: the
        # replay overflows and gives way to the full reader, whose
        # re-simulation overflows too
        pytest.param(
            _verify_di_csv(lambda text: text, off_orbit=True), True,
            "exact state exceeded the resource cap", id="replay-overflow",
        ),
        pytest.param(
            lambda tmp: ["synthesize", GRAPH], False, "alpha and beta are required",
            id="no-gains",
        ),
        # 1-based, as the user gave it, not the library's 0-based agent
        pytest.param(
            lambda tmp: ["synthesize", GRAPH, "--config", DI_CFG, "--anchor", "99"], False,
            "anchor 99 out of range 1..7", id="anchor-out-of-range",
        ),
        pytest.param(
            lambda tmp: ["synthesize", GRAPH, "--model", "ns", "--alpha", "-1/2", "--beta", "2"],
            False, "model=ns requires the rotation parameter a", id="ns-without-a",
        ),
        pytest.param(
            lambda tmp: ["simulate", GRAPH, "--config", DI_CFG, "--init", "1,0; 2,0"], False,
            "init override has 2 agents, graph has 7", id="init-count",
        ),
    ],
)  # fmt: skip
def test_usage_error_is_one_error_line(argv, low_cap, message, tmp_path, capsys, monkeypatch):
    args = argv(tmp_path)
    if low_cap:
        monkeypatch.setattr(dynamics, "MAX_EXACT_BITS", 8)
    code, out, err = _verify_outcome(args, capsys)
    [line] = err.splitlines()
    assert code == EXIT_USAGE and out == ""
    assert line.startswith(f"error: {message}")


#: float texts at the ends of the float range: subnormal, the least normal,
#: near the largest, and any finite positive float
EXTREME = st.one_of(
    st.sampled_from(
        ["5e-324", "1e-320", "2.2250738585072014e-308", "1e308", "1.7976931348623157e308"]
    ),
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308).map(repr),
)
#: |a| < 1 for ns: subnormal, next to 1, and any float between
ROTATION = st.one_of(
    st.sampled_from(["5e-324", "1e-320", "0.9999999999999999", "0.5"]),
    st.floats(min_value=5e-324, max_value=0.9999999999999999).map(repr),
)


@settings(max_examples=30, deadline=None)
@given(
    model=st.sampled_from(["di", "ns"]),
    alpha=EXTREME,
    beta=EXTREME,
    weights=st.tuples(EXTREME, st.one_of(EXTREME, st.sampled_from(["0.5", "3.4"]))),
    a=ROTATION,
    signs=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    on_edge=st.booleans(),
)
def test_float_synthesis_at_extreme_magnitudes(
    model, alpha, beta, weights, a, signs, on_edge, tmp_path_factory
):
    """Float synthesis with subnormal and near-largest gains, weights and
    (ns) a exits 0-3 with at most one `error:` line, and no exception
    escapes.  `on_edge` puts beta near the gate's edge, so that some plans
    are written."""
    w1, w2 = weights
    if model == "ns":
        alpha = ("-" if signs[0] else "") + alpha
        a = ("-" if signs[1] else "") + a
        if on_edge:  # |alpha| <= sgn(a) (beta - a/a_bar)
            sign = 1 if float(a) > 0 else -1
            beta = repr(sign * abs(float(alpha)) + float(a) / min(float(w1), float(w2)))
        elif signs[2]:
            beta = "-" + beta
    elif on_edge:  # alpha < beta < 3/2 alpha
        beta = repr(float(alpha) * 1.25)
    graph = tmp_path_factory.mktemp("extreme") / "graph.txt"
    graph.write_text(f"n 3\n1 2 {w1}\n2 3 {w2}\n")
    argv = ["synthesize", str(graph), "--mode", "float", "--model", model]
    argv += ["--alpha", alpha, "--beta", beta] + (["--a", a] if model == "ns" else [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == EXIT_OK:
        assert out.getvalue().startswith(f"model={model}\n")
        assert all(line.startswith("# ") for line in lines)
    else:
        assert code in (EXIT_USAGE, EXIT_GATE, EXIT_INFEASIBLE)
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: ")


def _edited_plan(cfg, old, new):
    """argv factory: verify a fixture plan with its line `old` replaced by `new`."""

    def argv(tmp_path):
        plan_file = tmp_path / "plan.txt"
        main(["synthesize", GRAPH, "--config", cfg, "-o", str(plan_file)])
        lines = plan_file.read_text().splitlines()
        if old is None:
            lines.append(new)
        else:
            lines[lines.index(old)] = new
        plan_file.write_text("\n".join(lines) + "\n")
        return ["verify", GRAPH, "--plan", str(plan_file)]

    return argv


@pytest.mark.parametrize(
    "argv,code,message",
    [
        pytest.param(
            _edited_plan(DI_CFG, "m=11", "m=0"),
            EXIT_USAGE,
            "error: plan has m=0, T=22; di needs T = 2m with m >= 1",
            id="di-m-0",
        ),
        pytest.param(
            _edited_plan(DI_CFG, "T=22", "T=0"),
            EXIT_USAGE,
            "error: plan has m=11, T=0; di needs T = 2m with m >= 1",
            id="di-T-0",
        ),
        pytest.param(
            _edited_plan(DI_CFG, "T=22", "T=20"),
            EXIT_USAGE,
            "error: plan has m=11, T=20; di needs T = 2m with m >= 1",
            id="di-T-20",
        ),
        pytest.param(
            _edited_plan(NS_CFG, "m=2", "m=3"),
            EXIT_USAGE,
            "error: plan has m=3, T=4; ns needs m = 2, T = 4",
            id="ns-m-3",
        ),
        pytest.param(
            _edited_plan(NS_CFG, "T=4", "T=8"),
            EXIT_USAGE,
            "error: plan has m=2, T=8; ns needs m = 2, T = 4",
            id="ns-T-8",
        ),
        pytest.param(
            _edited_plan(DI_CFG, None, "agent 3: x=0, v=0"),
            EXIT_USAGE,
            "error: plan line 14: duplicate agent 3",
            id="duplicate-agent",
        ),
        pytest.param(
            _edited_plan(DI_CFG, "alpha=0.4", "# no alpha"),
            EXIT_USAGE,
            "error: plan file missing field 'alpha'",
            id="no-alpha",
        ),
        pytest.param(
            _edited_plan(DI_CFG, "agent 1: x=21, v=-5.5", "agent 1: x=21, v=-5.5, foo=3, junk"),
            EXIT_USAGE,
            "error: plan line 7: 'agent 1: x=21, v=-5.5, foo=3, junk' "
            "is not 'agent <i>: x=<x>, v=<v>'",
            id="agent-unknown-field",
        ),
        pytest.param(
            _edited_plan(DI_CFG, "agent 1: x=21, v=-5.5", "agent 1: x=999, x=21, v=-5.5"),
            EXIT_USAGE,
            "error: plan line 7: 'agent 1: x=999, x=21, v=-5.5' is not 'agent <i>: x=<x>, v=<v>'",
            id="agent-repeated-field",
        ),
        pytest.param(
            _edited_plan(DI_CFG, "agent 1: x=21, v=-5.5", "agent +1: x=21, v=-5.5"),
            EXIT_USAGE,
            "error: plan line 7: 'agent +1: x=21, v=-5.5' is not 'agent <i>: x=<x>, v=<v>'",
            id="agent-signed-index",
        ),
        # a line off the grammar is reported as such, before its fields are read
        pytest.param(
            _edited_plan(DI_CFG, "agent 1: x=21, v=-5.5", "agent 1: y=21, v=-5.5, foo=3"),
            EXIT_USAGE,
            "error: plan line 7: 'agent 1: y=21, v=-5.5, foo=3' is not 'agent <i>: x=<x>, v=<v>'",
            id="agent-missing-field-first",
        ),
        pytest.param(
            _edited_plan(DI_CFG, "agent 1: x=21, v=-5.5", "agent 1: x=2/0, v=-5.5, foo=3"),
            EXIT_USAGE,
            "error: plan line 7: 'agent 1: x=2/0, v=-5.5, foo=3' is not 'agent <i>: x=<x>, v=<v>'",
            id="agent-bad-value-first",
        ),
        pytest.param(
            _edited_plan(DI_CFG, None, "agent 3: x=0, v=0, foo=3"),
            EXIT_USAGE,
            "error: plan line 14: 'agent 3: x=0, v=0, foo=3' is not 'agent <i>: x=<x>, v=<v>'",
            id="agent-duplicate-first",
        ),
        pytest.param(
            _edited_plan(DI_CFG, "agent 1: x=21, v=-5.5", "agent 1 x=21, v=-5.5"),
            EXIT_USAGE,
            "error: plan line 7: 'agent 1 x=21, v=-5.5' is not 'agent <i>: x=<x>, v=<v>'",
            id="agent-no-colon",
        ),
        pytest.param(
            _edited_plan(DI_CFG, "agent 1: x=21, v=-5.5", "agent : x=21, v=-5.5"),
            EXIT_USAGE,
            "error: plan line 7: 'agent : x=21, v=-5.5' is not 'agent <i>: x=<x>, v=<v>'",
            id="agent-no-index",
        ),
        pytest.param(
            _edited_plan(DI_CFG, None, "alpha=0.41"),
            EXIT_USAGE,
            "error: plan line 14: repeated key 'alpha'",
            id="repeated-alpha",
        ),
        pytest.param(
            _edited_plan(NS_CFG, None, "a=0.5"),
            EXIT_USAGE,
            "error: plan line 15: repeated key 'a'",
            id="repeated-a",
        ),
        pytest.param(
            _edited_plan(DI_CFG, "model=di", "m=11"),
            EXIT_USAGE,
            "error: plan line 5: repeated key 'm'",
            id="repeated-m",
        ),
        pytest.param(
            _edited_plan(DI_CFG, None, "foo=1"),
            EXIT_USAGE,
            "error: plan line 14: unknown key 'foo'",
            id="unknown-key",
        ),
        pytest.param(
            _edited_plan(DI_CFG, "T=22", "t=22"),
            EXIT_USAGE,
            "error: plan line 6: unknown key 't'",
            id="unknown-key-t",
        ),
        pytest.param(
            _edited_plan(DI_CFG, None, "a=0.5"),
            EXIT_USAGE,
            "error: plan line 14: a di plan has no a",
            id="di-a",
        ),
        pytest.param(
            lambda tmp: [*_edited_plan(DI_CFG, None, "a=0.5")(tmp), "--a", "0.5"],
            EXIT_USAGE,
            "error: plan line 14: a di plan has no a",
            id="di-a-with-flag",
        ),
        pytest.param(
            lambda tmp: ["synthesize", GRAPH, "--config", DI_CFG, "--m", "2"],
            EXIT_USAGE,
            "error: half-period m must exceed 2, got 2",
            id="synthesize-m-2",
        ),
        pytest.param(
            lambda tmp: ["synthesize", GRAPH, "--config", DI_CFG, "--m", "5"],
            EXIT_INFEASIBLE,
            "error: infeasible position system: half-period 5 leaves an empty "
            "interval on edge (1, 3); minimum is 11",
            id="synthesize-m-5",
        ),
        pytest.param(
            lambda tmp: ["synthesize", GRAPH, "--config", DI_CFG, "--mode", "float", "--m", "5"],
            EXIT_INFEASIBLE,
            "error: infeasible position system: half-period 5 leaves an empty "
            "interval on edge (1, 3); minimum is 11",
            id="synthesize-m-5-float",
        ),
    ],
)
def test_plan_and_half_period_errors(argv, code, message, tmp_path, capsys):
    args = argv(tmp_path)
    capsys.readouterr()
    assert main(args) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""



#: (graph text, plan text or None for the fixture's di plan, root edit, error)
#: for a plan whose classes cannot be built: a disconnected graph, the
#: one-agent graph, which has no cross edge, and roots out of range
CLASS_ERRORS = {
    "disconnected": (
        "".join(line for line in fixture_path("graph7.txt").read_text().splitlines(True) if line != "3 7 3.4\n"),
        None, None, "error: agent 7 unreachable from agent 1",
    ),
    "one-agent": (
        "n 1\n",
        "model=di\nalpha=0.4\nbeta=0.42\nroot=1\nm=11\nT=22\nagent 1: x=0, v=0\n",
        None, "error: graph has no cross edges (need at least 2 agents)",
    ),
    "root-9": (None, None, "root=9", "error: root 9 out of range 1..7"),
    "root-0": (None, None, "root=0", "error: root 0 out of range 1..7"),
}  # fmt: skip


@pytest.mark.parametrize("respaced", [False, True], ids=["written", "respaced"])
@pytest.mark.parametrize("case", CLASS_ERRORS)
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_plan_whose_classes_cannot_be_built(command, case, respaced, tmp_path, capsys):
    """simulate --plan and verify --plan build only the plan's distance classes,
    with the errors the full partition gave; a plan as written and one off
    the writer's form, read line by line, fail alike."""
    graph_text, plan_text, root, message = CLASS_ERRORS[case]
    graph, plan = tmp_path / "graph.txt", tmp_path / "plan.txt"
    if plan_text is None:
        assert main(["synthesize", GRAPH, "--config", DI_CFG, "-o", str(plan)]) == EXIT_OK
        plan_text = plan.read_text()
    if root is not None:
        plan_text = plan_text.replace("root=1\n", root + "\n")
    if respaced:
        plan_text = plan_text.replace(": x=", " :  x=")
    plan.write_text(plan_text)
    graph.write_text(graph_text or fixture_path("graph7.txt").read_text())
    capsys.readouterr()
    assert main([command, str(graph), "--plan", str(plan)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""


@pytest.fixture(scope="module")
def plans(tmp_path_factory):
    """Exact and float plans of both models on the fixture, by (model, mode)."""
    out = tmp_path_factory.mktemp("plans")
    paths = {}
    for model, cfg in (("di", DI_CFG), ("ns", NS_CFG)):
        for mode in ("exact", "float"):
            paths[model, mode] = path = str(out / f"plan-{model}-{mode}.txt")
            assert main(["synthesize", GRAPH, "--config", cfg, "--mode", mode, "-o", path]) == 0
    return paths


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize(
    "model,mode,flags,message",
    [
        ("ns", "exact", ["--a", "0.9", "--alpha", "7"], "--a 0.9 differs from the plan's a=0.5"),
        ("ns", "exact", ["--alpha", "7"], "--alpha 7 differs from the plan's alpha=-0.5"),
        ("ns", "float", ["--beta", "2.5"], "--beta 2.5 differs from the plan's beta=2.0"),
        ("di", "exact", ["--alpha", "0.41"], "--alpha 0.41 differs from the plan's alpha=0.4"),
        ("di", "exact", ["--beta", "1/2"], "--beta 1/2 differs from the plan's beta=0.42"),
        ("di", "exact", ["--a", "0.5"], "--a 0.5 given, but a di plan has no a"),
        (
            "ns",
            "exact",
            ["--model", "di", "--a", "0.9"],
            "--model di differs from the plan's model=ns",
        ),
        ("di", "float", ["--root", "3"], "--root 3 differs from the plan's root=1"),
    ],
)
def test_plan_flag_that_differs_from_the_plan_is_rejected(
    command, model, mode, flags, message, plans, tmp_path, capsys
):
    """The plan fixes its model, a, gains and root; a flag naming another value
    is an error, not silently ignored."""
    cfg = DI_CFG if model == "di" else NS_CFG
    argv = [command, GRAPH, "--config", cfg, "--mode", mode, "--plan", plans[model, mode]]
    if command == "simulate":
        argv += ["-o", str(tmp_path / "traj.csv")]
    capsys.readouterr()
    assert main(argv + flags) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize(
    "model,mode,flags",
    [
        ("ns", "exact", ["--a", "0.50", "--alpha=-1/2", "--beta", "2.0"]),
        ("ns", "float", ["--a", "0.5", "--alpha", "-0.5", "--beta", "2"]),
        ("di", "exact", ["--alpha", "0.40", "--beta", "0.420"]),
        ("di", "float", ["--alpha", "0.4"]),
        ("ns", "exact", ["--model", "ns", "--root", "1"]),
        ("di", "float", ["--model", "di", "--root", "01"]),
    ],
)
def test_plan_flag_equal_to_the_plan_passes(model, mode, flags, plans, tmp_path, capsys):
    cfg = DI_CFG if model == "di" else NS_CFG
    common = [GRAPH, "--config", cfg, "--mode", mode, "--plan", plans[model, mode]]
    csv_file = str(tmp_path / "traj.csv")
    assert main(["simulate", *common, *flags, "-o", csv_file]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", *common, *flags, "--csv", csv_file]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_plan_supersedes_the_config(plans, tmp_path, capsys):
    """Config entries for a and the gains give way to the plan's, as CI's float
    a = 0.3 pipeline relies on (ns.cfg says a = 0.5)."""
    cfg = tmp_path / "other.cfg"
    cfg.write_text("model=ns\na=0.9\nalpha=7\nbeta=3\n")
    common = [GRAPH, "--config", str(cfg), "--plan", plans["ns", "exact"]]
    csv_file = str(tmp_path / "traj.csv")
    assert main(["simulate", *common, "-o", csv_file]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", *common, "--csv", csv_file]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_simulate_rejects_init_with_a_plan(plans, tmp_path, capsys):
    """The plan fixes the start states, so `--init` cannot replace them."""
    csv_file = tmp_path / "traj.csv"
    argv = ["simulate", GRAPH, "--config", DI_CFG, "--plan", plans["di", "exact"]]
    capsys.readouterr()
    assert main([*argv, "--init", "1,1;" * 7, "-o", str(csv_file)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: --init not accepted with --plan, which fixes the start states"
    ]
    assert captured.out == "" and not csv_file.exists()


def test_plan_supersedes_config_init_and_root(plans, tmp_path, capsys):
    """di.cfg's `init=` entry and a config `root=` other than the plan's give
    way to the plan, as a and the gains do."""
    cfg = tmp_path / "di.cfg"
    cfg.write_text(fixture_path("di.cfg").read_text().replace("root=1\n", "root=3\n"))
    assert "init=" in cfg.read_text() and "root=3" in cfg.read_text()
    plan = ["--plan", plans["di", "exact"]]
    common = [GRAPH, "--config", str(cfg), *plan]
    csv_file, plan_csv = tmp_path / "traj.csv", tmp_path / "plan.csv"
    assert main(["simulate", *common, "-o", str(csv_file)]) == EXIT_OK
    assert main(["simulate", GRAPH, "--config", DI_CFG, *plan, "-o", str(plan_csv)]) == EXIT_OK
    assert csv_file.read_text() == plan_csv.read_text()
    capsys.readouterr()
    assert main(["verify", *common, "--csv", str(csv_file)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["ok"] is True


@pytest.mark.parametrize("key", ["mode", "model"])
@pytest.mark.parametrize("command", ["synthesize", "simulate", "verify"])
def test_bad_config_choice_is_rejected_on_every_command(command, key, plans, tmp_path, capsys):
    """A config `mode=` or `model=` is checked before anything is read with it,
    so a bad mode is not reported as a bad graph weight."""
    cfg = tmp_path / "bogus.cfg"
    cfg.write_text(f"{key}=bogus\n")
    argv = [command, GRAPH, "--config", str(cfg)]
    if command != "synthesize":
        argv += ["--plan", plans["di", "exact"]]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: unknown {key} 'bogus'"]
    assert captured.out == ""


@pytest.mark.parametrize("key", ["rot", "bta", "Model", "T", "m_override"])
@pytest.mark.parametrize("command", ["synthesize", "simulate", "verify"])
def test_unknown_config_key_is_rejected(command, key, plans, tmp_path, capsys):
    """A key that `build_config` does not read, such as a misspelt `root`, is
    named with its line instead of being ignored."""
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(fixture_path("di.cfg").read_text() + f"{key}=3\nbeta=0.42\n")
    lineno = cfg.read_text().splitlines().index(f"{key}=3") + 1
    argv = [command, GRAPH, "--config", str(cfg)]
    if command != "synthesize":
        argv += ["--plan", plans["di", "exact"]]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {cfg}:{lineno}: unknown key {key!r}"]
    assert captured.out == ""


@pytest.mark.parametrize("target", ["missing/out.txt", "."])
@pytest.mark.parametrize("command,what", [("synthesize", "plan"), ("simulate", "trajectory")])
def test_unwritable_output_is_a_usage_error(command, what, target, plans, tmp_path, capsys):
    """An `-o` path in a missing directory, or a directory, is one error line
    naming what was to be written, as an unreadable input is."""
    path = str(tmp_path / target)
    argv = [command, GRAPH, "--config", DI_CFG, "-o", path]
    if command == "simulate":
        argv += ["--plan", plans["di", "exact"]]
    code, out, err = _verify_outcome(argv, capsys)
    assert (code, out) == (EXIT_USAGE, "")
    # synthesize writes its interval table to stderr before the plan
    last = err.splitlines()[-1]
    assert last.startswith(f"error: cannot write {what} {path}: [Errno ")
    assert err.count("error:") == 1


def test_plan_and_config_lines_without_equals_share_a_message(plans, tmp_path, capsys):
    """Config and plan key lines go through one reader, so a line without "="
    gets one message after each file's location."""
    cfg = tmp_path / "junk.cfg"
    cfg.write_text(fixture_path("di.cfg").read_text() + "junk\n")
    plan = tmp_path / "junk-plan.txt"
    plan.write_text(Path(plans["di", "exact"]).read_text() + "junk\n")
    cfg_line, plan_line = (len(f.read_text().splitlines()) for f in (cfg, plan))
    assert _verify_outcome(["synthesize", GRAPH, "--config", str(cfg)], capsys) == (
        EXIT_USAGE, "", f"error: {cfg}:{cfg_line}: expected key=value\n"
    )
    assert _verify_outcome(["verify", GRAPH, "--plan", str(plan)], capsys) == (
        EXIT_USAGE, "", f"error: plan line {plan_line}: expected key=value\n"
    )


@pytest.mark.parametrize("key,value", [("alpha", "0.41"), ("root", "1"), ("model", "di")])
@pytest.mark.parametrize("command", ["synthesize", "simulate", "verify"])
def test_repeated_config_key_is_rejected(command, key, value, plans, tmp_path, capsys):
    """A key given twice is named with its second line, even with the same
    value, instead of the last line silently winning."""
    cfg = tmp_path / "twice.cfg"
    cfg.write_text(fixture_path("di.cfg").read_text() + f"{key}={value}\n")
    lineno = len(cfg.read_text().splitlines())
    argv = [command, GRAPH, "--config", str(cfg)]
    if command != "synthesize":
        argv += ["--plan", plans["di", "exact"]]
    assert _verify_outcome(argv, capsys) == (
        EXIT_USAGE, "", f"error: {cfg}:{lineno}: repeated key {key!r}\n"
    )


def _ns_config(extra):
    """argv factory: synthesize with the ns fixture config plus the lines `extra`."""

    def argv(tmp_path):
        cfg = tmp_path / "ns.cfg"
        cfg.write_text(fixture_path("ns.cfg").read_text() + "".join(f"{x}\n" for x in extra))
        return ["synthesize", GRAPH, "--config", str(cfg)]

    return argv


NS_FIXED = "not accepted for model=ns, whose orbit is fixed (m = 2, T = 4)"


@pytest.mark.parametrize(
    "argv,message",
    [
        pytest.param(
            lambda tmp: ["synthesize", GRAPH, "--config", NS_CFG, "--m", "7"],
            f"error: m {NS_FIXED}",
            id="flag-m",
        ),
        pytest.param(_ns_config(["m=7"]), f"error: m {NS_FIXED}", id="config-m"),
        pytest.param(_ns_config(["base=3"]), f"error: base {NS_FIXED}", id="config-base"),
        pytest.param(
            _ns_config(["anchor=2"]), f"error: anchor {NS_FIXED}", id="config-anchor"
        ),
        pytest.param(
            # the anchor is out of range too, but the ns check comes first
            lambda tmp: ["synthesize", GRAPH, "--config", NS_CFG]
            + ["--base", "3", "--anchor", "9"],
            f"error: base, anchor {NS_FIXED}",
            id="flags-base-anchor",
        ),
        pytest.param(
            # di.cfg sets base=21 and anchor=1
            lambda tmp: ["synthesize", GRAPH, "--config", DI_CFG, "--model", "ns"]
            + ["--a", "0.5", "--alpha", "-0.5", "--beta", "2"],
            f"error: base, anchor {NS_FIXED}",
            id="di-config-as-ns",
        ),
    ],
)
def test_ns_synthesize_rejects_di_settings(argv, message, tmp_path, capsys):
    args = argv(tmp_path)
    capsys.readouterr()
    assert main(args) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert captured.out == ""

class TestRoundTrips:
    def test_plan_text_round_trip(self, graph7, gains_di):
        from satorbits import synthesize_di

        plan = synthesize_di(graph7, gains_di)
        parsed = plan_from_text(plan_to_text(plan), graph7)
        assert parsed.init == plan.init
        assert parsed.half_period == plan.half_period
        assert parsed.gains == plan.gains
        assert parsed.pattern == plan.pattern

    def test_csv_exact_round_trip(self, graph7, gains_di, reference_init_di):
        t = simulate(graph7, gains_di, reference_init_di, 7)
        back = trajectory_from_csv(trajectory_to_csv(t), t.ns, "exact")
        assert back.states == t.states
        assert back.raw_u == t.raw_u
        assert back.sat_u == t.sat_u


def reference_agent_states(text: str, mode: str) -> dict[int, AgentState]:
    """The start states of a plan's agent lines as the dict-of-fields reader read
    them, the oracle for the strict agent-line grammar."""
    init = {}
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("agent "):
            head, _, rest = line.partition(":")
            fields = dict(part.strip().split("=", 1) for part in rest.split(",") if "=" in part)
            state = AgentState(*(cli.parse_scalar(fields[key], mode) for key in "xv"))
            init[int(head.split()[1]) - 1] = state
    return init


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_plan_reader_matches_the_field_reader(mode, graph7, gains_di, ns_model):
    """Differential: random start states written by `plan_to_text` read back as the
    dict-of-fields reader read them, one value object per distinct text."""
    rng = random.Random(f"plan-reader-{mode}")
    partition = cli.make_partition(graph7, 0)
    pool = [F("21"), F("-5.5"), F("1/3"), F("-7/12"), F(10**30 + 1) / 2**40, F(0), F("-0.125")]
    if mode == "float":
        pool = [float(v) for v in pool] + [-0.0, 1e-300, 2.5e200]
    for _ in range(60):
        values = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        init = tuple(AgentState(rng.choice(values), rng.choice(values)) for _ in range(graph7.n))
        ns = ns_model if rng.random() < 0.5 else None
        m = 2 if ns else rng.randint(3, 30)
        plan = cli.OrbitPlan(ns, gains_di, partition, m, init)
        text = plan_to_text(plan)
        parsed = plan_from_text(text, graph7, mode)
        reference = reference_agent_states(text, mode)
        expected = tuple(reference[i] for i in range(graph7.n))
        assert parsed.init == expected
        assert [tuple(map(type, s)) for s in parsed.init] == [
            tuple(map(type, s)) for s in expected
        ]
        texts = [t for s in parsed.init for t in map(cli.format_scalar, s)]
        objects = {id(v) for s in parsed.init for v in s}
        assert len(objects) == len(set(texts))


@pytest.mark.parametrize(
    "line",
    [
        "agent 3: x=15.5, v=5.5",
        "agent   3 :x=15.5,v=5.5",
        "agent 3\t:\tx= 15.5 ,\tv=  5.5",
        "agent 03: x=15.5, v=5.5",
        "  agent 3: x=15.5, v=5.5  ",
    ],
)
def test_agent_line_blanks(line, graph7, gains_di):
    """The strict grammar takes the blanks the dict-of-fields reader took."""
    from satorbits import synthesize_di

    lines = plan_to_text(synthesize_di(graph7, gains_di)).splitlines()
    lines[8] = line
    plan = plan_from_text("\n".join(lines), graph7)
    assert plan.init[2] == AgentState(F("15.5"), F("5.5"))


def test_parser_is_built_once_and_survives_a_bad_argv(capsys):
    assert main(["simulate", GRAPH, "--steps", "many"]) == EXIT_USAGE
    assert main(["partition", GRAPH]) == EXIT_OK
    assert cli._parser() is cli._parser()
    # every parse starts from the defaults, not from the previous one
    first = cli._parser().parse_args(["verify", GRAPH, "--plan", "p", "--csv", "c"])
    second = cli._parser().parse_args(["verify", GRAPH, "--plan", "p"])
    assert first.csv == "c" and second.csv is None


def test_plan_values_are_parsed_once_per_text(graph7, gains_ns, ns_model, monkeypatch):
    text = plan_to_text(cli.synthesize_ns(graph7, ns_model, gains_ns))
    parsed = []
    parse_scalar = cli.parse_scalar

    def counting(value, mode="exact"):
        parsed.append(value)
        return parse_scalar(value, mode)

    monkeypatch.setattr(cli, "parse_scalar", counting)
    plan = plan_from_text(text, graph7)
    # the two texts the seven agents share, then alpha, beta and a
    assert parsed == ["1", "-1", "-0.5", "2", "0.5"]
    assert plan_to_text(plan) == text


def _benchmark_case(workload, tmp_path, monkeypatch):
    """Instance 0 of a benchmark workload for seed 1, from `perfbench/workloads.py`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclass looks the module up by name
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads.make_case(workload, 1, 0, tmp_path, fixture_path("graph7.txt").parent)


@pytest.mark.parametrize("source", ["graph7-di", "graph7-ns", "ns_wide"])
def test_read_plan_holds_the_partitions_classes(source, tmp_path, monkeypatch):
    """A plan read from text holds the `DistanceClasses` of its root, the
    `make_partition` fields that `_check_plan_flags`, `check_pattern` and
    `oracle_check_di` read, and they verify alike."""
    if source == "ns_wide":
        case = _benchmark_case(source, tmp_path, monkeypatch)
        graph, config = str(case.graph), str(case.config)
    else:
        graph, config = GRAPH, {"graph7-di": DI_CFG, "graph7-ns": NS_CFG}[source]
    plan_file = tmp_path / "plan.txt"
    assert main(["synthesize", graph, "--config", config, "-o", str(plan_file)]) == EXIT_OK
    g = cli._load_graph(graph, "exact")
    for root in range(g.n):
        p = make_partition(g, root)
        assert distance_classes(g, root) == DistanceClasses(p.root, p.dist, p.s_even, p.s_odd)
    read = plan_from_text(plan_file.read_text(), g)
    cfg = cli.build_config(cli.build_parser().parse_args(["verify", graph, "--config", config, "--plan", "p"]))
    plan = cli._synthesize(g, cfg)
    assert read.partition == DistanceClasses(*plan.partition[:4])
    assert (read.ns, read.gains, read.half_period, read.init) == (
        plan.ns, plan.gains, plan.half_period, plan.init
    )
    t = simulate(g, plan.gains, plan.init, 2 * plan.period, ns=plan.ns)
    assert verify.verification_report(g, read, t) == verify.verification_report(g, plan, t)


def test_read_plan_shares_one_state_per_text_pair(graph7, gains_ns, ns_model):
    lines = plan_to_text(cli.synthesize_ns(graph7, ns_model, gains_ns)).splitlines()
    # agent 7 spells its class's x with a blank, so its text pair is its own
    lines[-1] = lines[-1].replace("x=", "x= ")
    plan = plan_from_text("\n".join(lines), graph7)
    pairs = [line.partition(":")[2] for line in lines if line.startswith("agent ")]
    first: dict[str, AgentState] = {}
    assert [first.setdefault(pair, s) is s for pair, s in zip(pairs, plan.init)] == [True] * 7
    assert len(first) == len({id(s) for s in plan.init}) == 3


def test_replay_reads_one_state_per_start_text_pair(plans, graph7, monkeypatch, tmp_path):
    """The replay reads the CSV's step 0 as `plan_from_text` reads a plan:
    each distinct value text once, and one start state per `(x, v)` text
    pair, which the run's step 0 holds."""
    csv = tmp_path / "traj.csv"
    assert main(["simulate", GRAPH, "--plan", plans["di", "exact"], "-o", str(csv)]) == EXIT_OK
    plan = plan_from_text(Path(plans["di", "exact"]).read_text(), graph7)
    parsed = []
    parse_scalar = cli.parse_scalar

    def counting(text, *args):
        parsed.append(text)
        return parse_scalar(text, *args)

    monkeypatch.setattr(cli, "parse_scalar", counting)
    t = cli._replay(csv.read_text(), graph7, plan, "exact")
    # x and v of the two class states
    assert sorted(parsed) == ["-5.5", "15.5", "21", "5.5"]
    assert len({id(s) for s in t.states[0]}) == 2
    assert t.states[0] == plan.init


def _swap_rows(text, a, b):
    lines = text.splitlines(True)
    lines[a], lines[b] = lines[b], lines[a]
    return "".join(lines)


#: edits of the step-0 rows of a CSV: the first two give another start, from
#: which the replay runs; the replay's layout guard rejects the others
STEP0_EDITS = {
    "x": lambda text: text.replace("\n0,3,", "\n0,3,1", 1),
    "v": lambda text: text.replace(",-5.5,", ",-5.25,", 1),
    "swapped-rows": lambda text: _swap_rows(text, 2, 3),
    "agent-renumbered": lambda text: text.replace("\n0,7,", "\n0,8,", 1),
    "row-moved-past-step-1": lambda text: _swap_rows(text, 7, 8),
    "step": lambda text: text.replace("\n0,2,", "\n00,2,", 1),
    "unreadable-x": lambda text: text.replace("\n0,3,", "\n0,3,x", 1),
    "too-few-fields": lambda text: re.sub(r"^(0,4,[^,]*),.*$", r"\1", text, count=1, flags=re.M),
}


@pytest.mark.parametrize("edit", STEP0_EDITS)
def test_replay_guard_compares_the_start_rows(edit, plans, graph7, tmp_path):
    """`_replay` simulates for a CSV whose first n rows, read as one block,
    are step 0 of agents 1..n in order with readable values, from those
    rows' states whatever the plan's start, and for no other."""
    csv = tmp_path / "traj.csv"
    assert main(["simulate", GRAPH, "--plan", plans["di", "exact"], "-o", str(csv)]) == EXIT_OK
    text = csv.read_text()
    plan = plan_from_text(Path(plans["di", "exact"]).read_text(), graph7)
    assert cli._replay(text, graph7, plan, "exact").states[0] == plan.init
    edited = STEP0_EDITS[edit](text)
    assert edited != text and edited.count("\n") == text.count("\n")
    t = cli._replay(edited, graph7, plan, "exact")
    if edit not in ("x", "v"):
        assert t is None
        return
    rows = [line.split(",") for line in edited.splitlines()[1 : graph7.n + 1]]
    assert t.states[0] == tuple(AgentState(F(x), F(v)) for _, _, x, v, *_ in rows) != plan.init
    assert t.steps == text.count("\n") // graph7.n - 1


@pytest.mark.parametrize("mode,bad", [("exact", "1/0"), ("float", "1e400")])
def test_repeated_bad_plan_value_is_reported_at_its_first_line(mode, bad, tmp_path, capsys):
    plan_file = tmp_path / "plan.txt"
    main(["synthesize", GRAPH, "--config", NS_CFG, "--mode", mode, "-o", str(plan_file)])
    one = "1.0" if mode == "float" else "1"
    text = plan_file.read_text()
    assert text.count(f"x={one},") == 4
    plan_file.write_text(text.replace(f"x={one},", f"x={bad},"))
    capsys.readouterr()
    code = main(["verify", GRAPH, "--config", NS_CFG, "--mode", mode, "--plan", str(plan_file)])
    assert code == EXIT_USAGE
    reason = (
        f"scalar {bad!r} outside the float range" if mode == "float"
        else f"cannot parse scalar {bad!r}"
    )
    # agent 1 (line 8) is the first with x=1
    assert capsys.readouterr().err.splitlines() == [f"error: plan line 8: {reason}"]


# ---------------------------------------------------------------------------
# verify --csv: the replay of a canonical CSV and the full reader


def _artifacts(directory, cfg, mode, steps=None, halved=False):
    """verify --csv argv for a fixture plan and the CSV `simulate` writes for it."""
    directory.mkdir()
    plan = _off_orbit_plan(directory) if halved else str(directory / "plan.txt")
    common = [GRAPH, "--config", cfg, "--mode", mode, "--plan", plan]
    if not halved:
        assert main(["synthesize", GRAPH, "--config", cfg, "--mode", mode, "-o", plan]) == EXIT_OK
    csv_file = directory / "traj.csv"
    more = [] if steps is None else ["--steps", str(steps)]
    assert main(["simulate", *common, *more, "-o", str(csv_file)]) == EXIT_OK
    return ["verify", *common, "--csv", str(csv_file)], csv_file.read_text()


@pytest.fixture(scope="module")
def csv_artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("replay")
    return {
        "di": _artifacts(root / "di", DI_CFG, "exact"),
        "ns": _artifacts(root / "ns", NS_CFG, "exact"),
        "di-float": _artifacts(root / "di-float", DI_CFG, "float"),
        "ns-float": _artifacts(root / "ns-float", NS_CFG, "float"),
        "halved": _artifacts(root / "halved", DI_CFG, "exact", steps=60, halved=True),
        "di-45": _artifacts(root / "di-45", DI_CFG, "exact", steps=45),
    }


def _edit_fields(edit):
    """A CSV edit that rewrites the fields of each data row through edit(n, fields)."""

    def apply(text):
        lines = text.splitlines()
        for n in range(1, len(lines)):
            lines[n] = ",".join(edit(n, lines[n].split(",")))
        return "\n".join(lines) + "\n"

    return apply


def _respelled(n, fields):
    """Equal values in other spellings: 1.0 for a saturated 1, 0.50, 2p/2q."""
    k, agent, x, v, u_raw, u_sat = fields
    if u_sat in ("1", "-1"):
        u_sat += ".0"
    if n % 7 == 3 and "." in x and "e" not in x:
        x += "0"
    if n % 11 == 5:
        value = F(v)
        v = f"{2 * value.numerator}/{2 * value.denominator}"
    return [k, agent, x, v, u_raw, u_sat]


def _row(line_no, edit):
    """A CSV edit of the fields of line `line_no` (1 is the header)."""
    return _edit_fields(lambda n, f: edit(f) if n == line_no - 1 else f)


def _shuffled(text):
    header, *rows = text.splitlines()
    random.Random(8).shuffle(rows)
    return "\n".join([header, *rows]) + "\n"


def _forged_last_step(text, k=100000):
    """The CSV with step k claimed on its last line."""
    *lines, last = text.splitlines()
    return "\n".join([*lines, f"{k}{last[last.index(','):]}"]) + "\n"


def _last_step_inputs(text):
    """Inputs on the last step, which has none: the reader ignores them."""
    return text[:-2] + "1,1\n"


def _joined_by_line_separator(text):
    """The 45-step di CSV with each step-44 row joined to its step-45 row by
    U+2028.  The text holds the newlines of 44 steps and its last line starts
    with step 44, so the replay runs 44 steps; `str.splitlines` also breaks
    at U+2028, so the full reader reads 45."""
    lines = text.splitlines(keepends=True)
    rows_44, rows_45 = lines[-14:-7], lines[-7:]
    assert rows_44[0].startswith("44,1,") and rows_45[0].startswith("45,1,")
    joined = [a[:-1] + "\u2028" + b for a, b in zip(rows_44, rows_45)]
    return "".join(lines[:-14] + joined)


#: edits of any fixture CSV, by name
EDITS = {
    "canonical": lambda text: text,
    "respelled": _edit_fields(_respelled),
    "shuffled": _shuffled,
    "no-final-newline": lambda text: text[:-1],
    "step-0-x": _row(2, lambda f: [f[0], f[1], str(F(f[2]) + 1), *f[3:]]),
    "step-1-v": _row(9, lambda f: [*f[:3], str(F(f[3]) - 1), *f[4:]]),
    "last-step-inputs": _last_step_inputs,
    "blank-line": lambda text: text.replace("\n", "\n\n", 3),
    "forged-last-step": _forged_last_step,
}

#: line 41 (step 5, agent 5) of the di CSV, as `test_tampered_or_malformed_csv` sets it
TAMPERED = {
    "u_raw": "5,5,3.5,-0.5,7,1",
    "u_sat": "5,5,3.5,-0.5,0.5,0.5",
    "duplicate-row": "5,4,3.5,-0.5,28.106,1",
    "agent-0": "5,0,3.5,-0.5,28.106,1",
}


def _tampered(row_41):
    def edit(text):
        lines = text.splitlines()
        assert lines[40] == "5,5,3.5,-0.5,28.106,1"
        if row_41 is None:
            lines = [line for line in lines if line.split(",")[1] != "7"]
        else:
            lines[40] = row_41
        return "\n".join(lines) + "\n"

    return edit


DIFFERENTIAL_CASES = [
    pytest.param(base, edit, id=f"{base}-{name}")
    for base in ("di", "ns", "di-float", "ns-float", "halved")
    for name, edit in EDITS.items()
] + [
    pytest.param("di", _tampered(row), id=f"di-tampered-{name}")
    for name, row in [*TAMPERED.items(), ("agent-7-dropped", None)]
] + [
    # the replay's step count is not the full reader's, so its run is not reused
    pytest.param("di-45", _joined_by_line_separator, id="di-45-line-separator")
]


def _verify_outcome(argv, capsys):
    capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("base,edit", DIFFERENTIAL_CASES)
def test_replay_and_full_reader_agree(base, edit, csv_artifacts, tmp_path, capsys, monkeypatch):
    argv, text = csv_artifacts[base]
    csv_file = tmp_path / "traj.csv"
    csv_file.write_text(edit(text))
    argv = [*argv[:-1], str(csv_file)]
    replayed = _verify_outcome(argv, capsys)
    monkeypatch.setattr(cli, "_replay", lambda *args: None)
    full = _verify_outcome(argv, capsys)
    assert replayed == full
    assert "Traceback" not in replayed[1] + replayed[2]


def _count_full_reads(monkeypatch):
    """The list of `trajectory_from_csv` calls that `verify --csv` makes from now on."""
    calls = []
    read = cli.trajectory_from_csv

    def counting(*args):
        calls.append(args)
        return read(*args)

    monkeypatch.setattr(cli, "trajectory_from_csv", counting)
    return calls


@pytest.mark.parametrize("base", ["di", "ns", "halved"])
def test_canonical_csv_is_replayed_not_parsed(base, csv_artifacts, capsys, monkeypatch):
    argv, _ = csv_artifacts[base]
    calls = _count_full_reads(monkeypatch)
    code, out, _ = _verify_outcome(argv, capsys)
    assert code == (EXIT_VERIFY if base == "halved" else EXIT_OK)
    assert json.loads(out)["consistency"] is True
    assert calls == []


def test_csv_from_another_start_is_replayed(plans, tmp_path, capsys, monkeypatch):
    """The replay runs from the CSV's own step 0, so a `simulate --init` CSV
    (di.cfg's `init=`) in the writer's bytes is replayed, not read in full,
    and that one run is the CSV's re-simulation.  The verdict is as when it
    was read in full: the CSV is its own consistent run, and the checks find
    that it is periodic but not the plan's closed form."""
    csv_file = tmp_path / "init.csv"
    assert main(["simulate", GRAPH, "--config", DI_CFG, "-o", str(csv_file)]) == EXIT_OK
    argv = ["verify", GRAPH, "--config", DI_CFG, "--plan", plans["di", "exact"]]
    calls = _count_full_reads(monkeypatch)
    runs = []
    real_simulate = cli.simulate

    def counting(*args, **kwargs):
        t = real_simulate(*args, **kwargs)
        runs.append(t.steps)
        return t

    monkeypatch.setattr(cli, "simulate", counting)
    code, out, err = _verify_outcome([*argv, "--csv", str(csv_file)], capsys)
    assert (code, err, len(calls), runs) == (EXIT_VERIFY, "", 0, [44])
    assert json.loads(out) == {
        "consistency": True,
        "model": "di",
        "period": 22,
        "periodicity": True,
        "pattern": True,
        "closed_form": False,
        "minimal_period": 22,
        "ok": False,
    }


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_value_beyond_the_digit_limit_is_one_error_line(tmp_path, capsys):
    """An exact value with more digits than Python converts an int to text is
    one error line: `simulate` writes no CSV, and the `verify --csv` replay,
    which formats the same text, reports it alike.  The limit is set to 640,
    its least value, so the off-orbit run stays short (about 760 digits by
    step 600)."""
    common = [GRAPH, "--config", DI_CFG, "--plan", _off_orbit_plan(tmp_path)]
    csv_file = tmp_path / "traj.csv"
    argv = ["simulate", *common, "--steps", "600", "-o", str(csv_file)]
    assert main(argv) == EXIT_OK
    message = (
        "error: the trajectory holds a value of more than 640 digits, beyond Python's "
        "limit on converting an integer to text; use fewer steps or --mode float"
    )
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        unwritten = tmp_path / "unwritten.csv"
        outcome = _verify_outcome([*argv[:-1], str(unwritten)], capsys)
        assert outcome == (EXIT_USAGE, "", message + "\n")
        assert not unwritten.exists()
        outcome = _verify_outcome(["verify", *common, "--csv", str(csv_file)], capsys)
        assert outcome == (EXIT_USAGE, "", message + "\n")
    finally:
        sys.set_int_max_str_digits(limit)


def _tiny_weight_graph(tmp_path):
    """The graph `n 2` / `1 2 1e-4400`."""
    path = tmp_path / "tiny.txt"
    path.write_text("n 2\n1 2 1e-4400\n")
    return str(path)


def _long_weight_graph(tmp_path):
    """The graph `n 2` / `1 2 1e4400`, whose one weight is 4401 digits long."""
    path = tmp_path / "long.txt"
    path.write_text("n 2\n1 2 1e4400\n")
    return str(path)


def _tiny_start_plan(tmp_path):
    """A di plan (m=11, T=22) with agent 1 at x=1e-4299, v=0 and the rest at 0."""
    path = tmp_path / "tiny-plan.txt"
    agents = [f"agent {i}: x={'1e-4299' if i == 1 else 0}, v=0\n" for i in range(1, 8)]
    path.write_text("model=di\nalpha=0.4\nbeta=0.42\nroot=1\nm=11\nT=22\n" + "".join(agents))
    return str(path)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize(
    "argv,what",
    [
        pytest.param(
            lambda tmp: ["synthesize", GRAPH, "--config", DI_CFG, "--base", "1e-4400"],
            "plan",
            id="plan-base-small",
        ),
        pytest.param(
            lambda tmp: ["synthesize", GRAPH, "--config", DI_CFG, "--base", "1e4400"],
            "plan",
            id="plan-base-large",
        ),
        pytest.param(
            lambda tmp: [
                "synthesize", GRAPH, "--config", DI_CFG,
                "--alpha", "1e-4400", "--beta", "1.05e-4400",
            ],
            "plan",
            id="interval-table",
        ),
        pytest.param(
            lambda tmp: ["synthesize", GRAPH, "--config", NS_CFG, "--a", "1e-4400"],
            "plan",
            id="ns-plan",
        ),
        pytest.param(
            lambda tmp: ["synthesize", _tiny_weight_graph(tmp), "--config", DI_CFG],
            "plan",
            id="graph-weight",
        ),
        pytest.param(
            lambda tmp: ["verify", GRAPH, "--config", DI_CFG, "--plan", _tiny_start_plan(tmp)],
            "report",
            id="verify-report",
        ),
        pytest.param(
            lambda tmp: ["partition", _long_weight_graph(tmp)],
            "partition",
            id="partition",
        ),
    ],
)
def test_text_past_the_digit_limit_outside_the_writer_is_one_error_line(
    argv, what, tmp_path, capsys
):
    """Under Python's default limit of 4300 digits, a plan, an interval table,
    a verify report or a partition that holds a longer value text is one
    error line, as the CSV writer's, with nothing written."""
    args = argv(tmp_path)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        outcome = _verify_outcome(args, capsys)
    finally:
        sys.set_int_max_str_digits(limit)
    assert outcome == (
        EXIT_USAGE,
        "",
        f"error: the {what} holds a value of more than 4300 digits, beyond Python's "
        "limit on converting an integer to text\n",
    )


def _digits_in_csv(argv, text, tmp_path, big):
    """verify --csv argv for the CSV with x of line 41 set to `big`, and that line."""
    lines = text.splitlines(keepends=True)
    fields = lines[40].split(",")
    lines[40] = ",".join([*fields[:2], big, *fields[3:]])
    csv_file = tmp_path / "big.csv"
    csv_file.write_text("".join(lines))
    return [*argv[:-1], str(csv_file)], "CSV line 41"


def _digits_in_plan(argv, text, tmp_path, big):
    """verify --csv argv for the plan with x of agent 3 set to `big`, and that line."""
    at = argv.index("--plan") + 1
    lines = Path(argv[at]).read_text().splitlines(keepends=True)
    lineno = next(no for no, line in enumerate(lines, 1) if line.startswith("agent 3:"))
    lines[lineno - 1] = f"agent 3: x={big}, {lines[lineno - 1].split(', ', 1)[1]}"
    plan_file = tmp_path / "big-plan.txt"
    plan_file.write_text("".join(lines))
    return [*argv[:at], str(plan_file), *argv[at + 1 :]], f"plan line {lineno}"


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize("place", [_digits_in_csv, _digits_in_plan], ids=["csv", "plan"])
def test_text_beyond_the_digit_limit_is_one_short_error_line(place, csv_artifacts, tmp_path, capsys):
    """A 700-digit value is a valid number that Python will not read under a
    limit of 640 digits: the error names the limit and quotes 37 digits."""
    argv, where = place(*csv_artifacts["di"], tmp_path, "7" * 700)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = _verify_outcome(argv, capsys)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        f"error: {where}: scalar '{'7' * 37}...' has more than 640 digits, "
        "beyond Python's limit on converting text to an integer\n"
    )


def _bad_integer(place, bad, argv, text, tmp_path):
    """verify --csv argv with the integer text `bad` in `place`, and the prefix of its error."""
    if place == "flag-root":
        return [*argv, "--root", bad], "argument --root: "
    if place == "csv-step":
        lines = text.splitlines(keepends=True)
        lines[40] = bad + lines[40][lines[40].index(",") :]
        edited, where = tmp_path / "bad.csv", "CSV line 41: "
        argv = [*argv[:-1], str(edited)]
    elif place == "plan-m":
        at = argv.index("--plan") + 1
        lines = [Path(argv[at]).read_text().replace("m=11\n", f"m={bad}\n")]
        edited, where = tmp_path / "bad-plan.txt", "bad plan value: "
        argv = [*argv[:at], str(edited), *argv[at + 1 :]]
    else:
        lines = [fixture_path("di.cfg").read_text().replace("root=1\n", f"root={bad}\n")]
        edited, where = tmp_path / "bad.cfg", "bad config value: "
        argv = [*argv[:3], str(edited), *argv[4:]]
    edited.write_text("".join(lines))
    return argv, where


INTEGER_PLACES = ["csv-step", "plan-m", "config-root", "flag-root"]


@pytest.mark.parametrize("place", INTEGER_PLACES)
def test_long_bad_integer_is_one_short_error_line(place, csv_artifacts, tmp_path, capsys):
    """A 700-character integer field is quoted cut to 40 characters."""
    argv, where = _bad_integer(place, "x" * 700, *csv_artifacts["di"], tmp_path)
    code, out, err = _verify_outcome(argv, capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == f"error: {where}invalid integer '{'x' * 37}...'\n"
    assert len(err) < 200


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize("place", INTEGER_PLACES)
def test_integer_beyond_the_digit_limit_names_the_limit(place, csv_artifacts, tmp_path, capsys):
    """A 700-digit integer under a limit of 640 digits: every reader of an
    integer names the limit and quotes 37 digits, where int() would say
    "Exceeds the limit" and argparse would echo all 700."""
    argv, where = _bad_integer(place, "1" * 700, *csv_artifacts["di"], tmp_path)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = _verify_outcome(argv, capsys)
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        f"error: {where}integer '{'1' * 37}...' has more than 640 digits, "
        "beyond Python's limit on converting text to an integer\n"
    )


def test_plan_agent_index_beyond_the_digit_limit(csv_artifacts, tmp_path, capsys):
    """An agent index of 5000 digits is one short line that names the limit,
    where int() would say "Exceeds the limit"."""
    argv, _ = csv_artifacts["di"]
    at = argv.index("--plan") + 1
    plan = tmp_path / "plan.txt"
    plan.write_text(Path(argv[at]).read_text().replace("agent 3:", f"agent {'3' * 5000}:"))
    code, out, err = _verify_outcome([*argv[:at], str(plan), *argv[at + 1 :]], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        f"error: plan line 9: agent index '{'3' * 37}...' has more than "
        f"{sys.get_int_max_str_digits()} digits, beyond Python's limit on converting "
        "text to an integer\n"
    )


def test_long_plan_line_off_the_grammar_is_quoted_cut(csv_artifacts, tmp_path, capsys):
    """An agent line off the grammar is quoted cut to 40 characters, as every
    other bad value is, not whole: its 700-character index gives one short line."""
    argv, _ = csv_artifacts["di"]
    at = argv.index("--plan") + 1
    plan = tmp_path / "plan.txt"
    plan.write_text(Path(argv[at]).read_text().replace("agent 3:", f"agent {'x' * 700}:"))
    code, out, err = _verify_outcome([*argv[:at], str(plan), *argv[at + 1 :]], capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == (
        f"error: plan line 9: 'agent {'x' * 31}...' is not 'agent <i>: x=<x>, v=<v>'\n"
    )
    assert len(err) < 300


#: (file, line, phrase of the error): a line whose user text is 700 letters,
#: put in the config file of `synthesize` or the plan file of `verify`
LONG = "q" * 700
LONG_TEXT_LINES = {
    "config-unknown-key": ("config", f"{LONG}=1", "unknown key"),
    "config-repeated-key": ("config", f"alpha={LONG}", "repeated key 'alpha'"),
    "config-model": ("config", f"model={LONG}", "unknown model"),
    "config-mode": ("config", f"mode={LONG}", "unknown mode"),
    "config-init": ("config", f"init={LONG}", "bad init pair"),
    "plan-unknown-key": ("plan", f"{LONG}=1", "unknown key"),
    "plan-repeated-key": ("plan", f"alpha={LONG}", "repeated key 'alpha'"),
    "plan-model": ("plan", f"model={LONG}", "unknown model"),
}


@pytest.mark.parametrize("place", LONG_TEXT_LINES)
def test_long_user_text_is_quoted_cut(place, csv_artifacts, tmp_path, capsys):
    """Each error that quotes a key, a model, a mode or an init pair of the
    user's quotes at most 40 characters of it: one short `error:` line."""
    where, line, phrase = LONG_TEXT_LINES[place]
    key = line.partition("=")[0]
    argv, _ = csv_artifacts["di"]
    plan = argv[argv.index("--plan") + 1]
    cfg, edited = fixture_path("di.cfg"), tmp_path / f"edited-{where}"
    text = Path(cfg if where == "config" else plan).read_text()
    if key in ("model", "mode", "init"):
        # in place of the file's own line, so that no repeated key hides it
        text = "".join(old for old in text.splitlines(True) if not old.startswith(f"{key}="))
    edited.write_text(text + line + "\n")
    if where == "config":
        argv = ["synthesize", GRAPH, "--config", str(edited)]
    else:
        argv = ["verify", GRAPH, "--config", str(cfg), "--plan", str(edited)]
    code, out, err = _verify_outcome(argv, capsys)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) < 300
    assert phrase in err and ("..." in err or "repeated" in phrase)


@pytest.mark.parametrize("step", [1, 12, 21, 23])
def test_changed_input_in_either_half_is_named(step, csv_artifacts, tmp_path, capsys):
    """The di CSV (m = 11) writes the raw inputs of steps 11-21 as the
    sign-toggled texts of steps 0-10: a raw input changed in either half, or
    in the repeat from step 22, is the first mismatch."""
    argv, text = csv_artifacts["di"]
    lines = text.splitlines()
    fields = lines[1 + 7 * step].split(",")
    assert fields[:2] == [str(step), "1"]
    fields[4] = "7"
    lines[1 + 7 * step] = ",".join(fields)
    csv_file = tmp_path / "traj.csv"
    csv_file.write_text("\n".join(lines) + "\n")
    code, out, _ = _verify_outcome([*argv[:-1], str(csv_file)], capsys)
    report = json.loads(out)
    assert code == EXIT_VERIFY and report["consistency"] is False
    assert report["consistency_first_mismatch"] == {"step": step, "agent": 1}


#: sha256 of the float CSVs `simulate` writes for the fixture's float plans,
#: pinned from the writer that formatted each line's values one by one
FLOAT_CSV_SHA256 = {
    "di": "53111d15c68959e0ea9032f61258797d64808efa538de4efedcb11b56d99e627",
    "ns": "5cf951700caad78ac619c5c96bad2af4991a6f3d9f9bff463abd7c4d6c2b4815",
    "ns-a03": "b9e3dd0ee127631ac0f3032b7401d8a8413901a88b77e9504e8eebc473997824",
}


@pytest.mark.parametrize("name", sorted(FLOAT_CSV_SHA256))
def test_float_csv_bytes_unchanged(name, tmp_path, capsys):
    cfg = ["--config", DI_CFG if name == "di" else NS_CFG, "--mode", "float"]
    if name == "ns-a03":
        cfg += ["--a", "0.3"]
    plan, csv_file = str(tmp_path / "plan.txt"), tmp_path / "traj.csv"
    assert main(["synthesize", GRAPH, *cfg, "-o", plan]) == EXIT_OK
    assert main(["simulate", GRAPH, *cfg, "--plan", plan, "-o", str(csv_file)]) == EXIT_OK
    digest = hashlib.sha256(csv_file.read_bytes()).hexdigest()
    assert digest == FLOAT_CSV_SHA256[name]


def test_csv_shorter_than_the_period_is_rejected(tmp_path, capsys):
    argv, _ = _artifacts(tmp_path / "short", DI_CFG, "exact", steps=3)
    assert _verify_outcome(argv, capsys) == (
        EXIT_USAGE, "", "error: trajectory covers 3 steps, need 22\n"
    )


def test_last_line_without_an_integer_step_is_read_in_full(csv_artifacts, tmp_path, capsys, monkeypatch):
    """The replay takes its step count from the last line; one it cannot read
    leaves the CSV to the full reader, which names the line."""
    argv, text = csv_artifacts["di"]
    start = _last_line(text)
    csv_file = tmp_path / "traj.csv"
    csv_file.write_text(text[:start] + "4x" + text[text.index(",", start) :])
    calls = _count_full_reads(monkeypatch)
    code, out, err = _verify_outcome([*argv[:-1], str(csv_file)], capsys)
    assert (code, out, len(calls)) == (EXIT_USAGE, "", 1)
    lineno = text.count("\n")
    assert err == f"error: CSV line {lineno}: invalid integer '4x'\n"


@pytest.mark.parametrize("command", ["verify", "simulate"])
def test_closed_stdout_exits_1_without_a_traceback(command, csv_artifacts):
    """A reader that has gone before the command writes (`... | true`): the
    report or CSV is dropped with exit 1, and nothing is printed about it."""
    argv, _ = csv_artifacts["di"]
    if command == "simulate":
        argv = ["simulate", *argv[1:-2]]
    read, write = os.pipe()
    os.close(read)
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "satorbits.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path),
            text=True,
            timeout=120,
        )
    finally:
        os.close(write)
    # no traceback, and no "Exception ignored" from the flush at exit
    assert (done.returncode, done.stderr) == (EXIT_USAGE, "")


def test_forged_step_count_is_rejected_without_simulating(csv_artifacts, tmp_path, capsys, monkeypatch):
    argv, text = csv_artifacts["di"]
    csv_file = tmp_path / "traj.csv"
    csv_file.write_text(_forged_last_step(text, 10**9))

    def unexpected(*args, **kwargs):
        raise AssertionError("simulate called on a forged CSV")

    monkeypatch.setattr(cli, "simulate", unexpected)
    start = time.perf_counter()
    code, out, err = _verify_outcome([*argv[:-1], str(csv_file)], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE and out == ""
    assert err.splitlines() == ["error: CSV steps are not contiguous from 0"]


def _second_period_row(edit):
    """A CSV edit of step T+1, agent 1 of the di fixture CSV (T = 22), a row
    that the 2T run shares by reference with step 1."""

    def apply(text):
        lines = text.splitlines(keepends=True)
        line = 1 + 23 * 7
        assert lines[line].startswith("23,1,")
        lines[line] = ",".join(edit(lines[line].split(",")))
        return "".join(lines)

    return apply


def _last_line(text):
    """Where the last line of `text`, which ends in a newline, starts."""
    return text.rindex("\n", 0, -1) + 1


#: edits that make a canonical di CSV no longer what `simulate` writes, with
#: the exit code, consistency verdict and first mismatch of `verify --csv`
NOT_CANONICAL = {
    "shared-row-x": (
        _second_period_row(lambda f: [f[0], f[1], str(F(f[2]) + 1), *f[3:]]),
        EXIT_VERIFY,
        {"consistency": False, "consistency_first_mismatch": {"step": 23, "agent": 1}},
    ),
    "shared-row-step": (_second_period_row(lambda f: ["24", *f[1:]]), EXIT_USAGE, None),
    "missing-final-row": (lambda text: text[: _last_line(text)], EXIT_USAGE, None),
    "extra-final-row": (lambda text: text + text[_last_line(text) :], EXIT_USAGE, None),
    # the full reader takes a last line with no newline, so this one passes
    "no-final-newline": (lambda text: text[:-1], EXIT_OK, {"consistency": True}),
}


@pytest.mark.parametrize("name", NOT_CANONICAL)
def test_per_step_compare_rejects_non_canonical_csv(name, csv_artifacts, tmp_path, capsys):
    edit, code, report = NOT_CANONICAL[name]
    argv, text = csv_artifacts["di"]
    g = cli._load_graph(GRAPH, "exact")
    plan = plan_from_text(Path(argv[-3]).read_text(), g)
    t = simulate(g, plan.gains, plan.init, 2 * plan.period)
    assert cli._is_csv_of(t, text)
    edited = edit(text)
    assert edited != text and not cli._is_csv_of(t, edited)
    csv_file = tmp_path / "traj.csv"
    csv_file.write_text(edited)
    outcome, out, err = _verify_outcome([*argv[:-1], str(csv_file)], capsys)
    assert outcome == code
    if report is None:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert json.loads(out).items() >= report.items()


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("base", ["di", "ns"])
def test_lattice_is_built_once_per_command(command, base, csv_artifacts, tmp_path, monkeypatch):
    """`verify --csv` reuses the replay's lattice for the inverted period, also
    when a re-spelled CSV is read in full and checked on that re-simulation."""
    argv, text = csv_artifacts[base]
    runs = [argv]
    if command == "simulate":
        runs = [["simulate", *argv[1:-2], "-o", str(tmp_path / "traj.csv")]]
    else:
        respelled = tmp_path / "respelled.csv"
        respelled.write_text(EDITS["respelled"](text))
        runs.append([*argv[:-1], str(respelled)])
    built = []
    init = dynamics.Lattice.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(dynamics.Lattice, "__init__", counting)
    for args in runs:
        built.clear()
        assert main(args) == EXIT_OK
        assert len(built) == 1


@pytest.mark.parametrize(
    "base,edit,consistent",
    [
        ("di", "respelled", True),
        ("ns", "respelled", True),
        ("di", "step-1-v", False),
        ("ns", "step-1-v", False),
    ],
)
def test_only_a_csv_unlike_its_resimulation_is_checked_per_agent(
    base, edit, consistent, csv_artifacts, tmp_path, capsys, monkeypatch
):
    """An exact CSV equal to its re-simulation is compared row by row and
    checked on the re-simulation's columns and lattice; one that differs is
    searched agent by agent through `scalars_equal` for its first mismatch,
    and checked on the columns the reader built, which carry no lattice."""
    argv, text = csv_artifacts[base]
    csv_file = tmp_path / "traj.csv"
    csv_file.write_text(EDITS[edit](text))
    checked, compared = [], []
    real_check, real_equal = verify.check_periodicity, cli.scalars_equal

    def recording(t, *args, **kwargs):
        checked.append(t.states.lattice)
        return real_check(t, *args, **kwargs)

    def counting(x, y):
        compared.append(x)
        return real_equal(x, y)

    monkeypatch.setattr(verify, "check_periodicity", recording)
    monkeypatch.setattr(cli, "scalars_equal", counting)
    code, out, _ = _verify_outcome([*argv[:-1], str(csv_file)], capsys)
    report = json.loads(out)
    assert report["consistency"] is consistent
    # the edited step 1 leaves step T equal to step 0, so the inversion runs
    assert report["periodicity"] is True
    assert len(checked) == 1
    if consistent:
        assert code == EXIT_OK and checked[0] is not None and not compared
    else:
        assert code == EXIT_VERIFY and checked[0] is None and compared
        assert report["consistency_first_mismatch"]["step"] == 1


@pytest.mark.parametrize("edit", ["respelled-1.0", "respelled", "step-1-v"])
def test_decimal_csv_read_in_full_is_compared_by_rows(
    edit, csv_artifacts, tmp_path, capsys, monkeypatch
):
    """The CSV of a run on the decimal kind (the halved orbit), read in full,
    is read into rows of its replay's kind: one whose saturated inputs are
    re-spelled 1.0, as CI re-spells them, or whose values are re-spelled,
    step 0 included, is compared row by row with no value through
    `scalars_equal`, and an edited one is searched agent by agent only in
    the row that differs.  Read into integer rows, every state row is
    searched so, and the report is the same."""
    argv, text = csv_artifacts["halved"]
    csv_file = tmp_path / "traj.csv"
    if edit == "respelled-1.0":
        csv_file.write_text(re.sub(r",(-?1)$", r",\1.0", text, flags=re.M))
    else:
        csv_file.write_text(EDITS[edit](text))
    argv = [*argv[:-1], str(csv_file)]
    kinds, compared = [], []
    read, real_equal = cli.trajectory_from_csv, cli.scalars_equal

    def reading(*args):
        t = read(*args)
        kinds.append(t.states.kind)
        return t

    def counting(x, y):
        compared.append(x)
        return real_equal(x, y)

    monkeypatch.setattr(cli, "trajectory_from_csv", reading)
    monkeypatch.setattr(cli, "scalars_equal", counting)
    outcome = _verify_outcome(argv, capsys)
    by_rows = len(compared)
    assert kinds == [dynamics.DecimalLattice]
    monkeypatch.setattr(cli, "trajectory_from_csv", lambda text, ns, mode, kind: reading(text, ns, mode))
    compared.clear()
    assert _verify_outcome(argv, capsys) == outcome
    assert kinds == [dynamics.DecimalLattice, dynamics.Lattice]
    report = json.loads(outcome[1])
    if edit.startswith("respelled"):
        assert ",1.0\n" in csv_file.read_text()
        assert report["consistency"] is True and by_rows == 0 < len(compared)
    else:
        assert report["consistency_first_mismatch"] == {"step": 1, "agent": 1}
        # agent 1's x and v at step 1, against every agent's at step 0 too
        assert by_rows == 2 < len(compared)


@pytest.mark.parametrize("base,mode", [("di", "exact"), ("di-float", "float")])
def test_only_an_exact_csv_is_checked_on_its_resimulation(base, mode, csv_artifacts, tmp_path):
    """Float values equal within `FLOAT_TOL` need not be the re-simulation's
    values, so a consistent float CSV is still checked on its own."""
    argv, text = csv_artifacts[base]
    csv_file = tmp_path / "traj.csv"
    csv_file.write_text(EDITS["respelled"](text))
    g = cli._load_graph(GRAPH, mode)
    plan = plan_from_text(Path(argv[-3]).read_text(), g, mode)
    t, mismatch, rollout = cli._checked_csv(str(csv_file), g, plan, mode)
    assert mismatch is None
    assert (t is rollout) is (mode == "exact")


@pytest.mark.parametrize(
    "base,edit,runs",
    [
        ("di", EDITS["canonical"], 1),
        ("di", EDITS["respelled"], 1),
        ("di-45", _joined_by_line_separator, 2),
    ],
    ids=["writer", "respelled", "line-separator"],
)
def test_checked_csv_simulates_in_one_place(base, edit, runs, csv_artifacts, tmp_path, monkeypatch):
    """`_checked_csv` re-simulates a CSV once: the replay serves the writer's
    bytes and a respelled CSV, and only a CSV whose replay has another step
    count than the full reader's is run again, from the reader's step 0."""
    argv, text = csv_artifacts[base]
    csv_file = tmp_path / "traj.csv"
    csv_file.write_text(edit(text))
    g = cli._load_graph(GRAPH, "exact")
    plan = plan_from_text(Path(argv[argv.index("--plan") + 1]).read_text(), g)
    calls = []
    real = cli.simulate

    def counting(g, gains, init, steps, ns=None):
        calls.append(steps)
        return real(g, gains, init, steps, ns=ns)

    monkeypatch.setattr(cli, "simulate", counting)
    t, mismatch, rollout = cli._checked_csv(str(csv_file), g, plan, "exact")
    assert mismatch is None and t is rollout
    assert len(calls) == runs and calls[-1] == t.steps


@pytest.mark.parametrize("a", ["0.3", "0.7071067811865476"])
def test_float_ns_orbit_whose_start_states_are_rounded(a, tmp_path, capsys):
    """1/(2a) is not a binary fraction, so the float start states +-1/(2a) are
    rounded; the float checks, within `FLOAT_TOL`, still find the T = 4 orbit.
    On the exact binary values of these floats the orbit does not close."""
    plan, csv_file = tmp_path / "plan.txt", tmp_path / "traj.csv"
    common = [GRAPH, "--config", NS_CFG, "--mode", "float", "--a", a]
    assert main(["synthesize", *common, "-o", str(plan)]) == EXIT_OK
    assert main(["simulate", *common, "--plan", str(plan), "-o", str(csv_file)]) == EXIT_OK
    x = plan.read_text().split("agent 1: x=")[1].split(",")[0]
    assert Fraction(float(x)) != 1 / (2 * Fraction(float(a)))
    capsys.readouterr()
    assert main(["verify", *common, "--plan", str(plan), "--csv", str(csv_file)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] and report["periodicity"] and report["minimal_period"] == 4
