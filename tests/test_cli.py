from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import satorbits.cli as cli
import satorbits.dynamics as dynamics
import satorbits.verify as verify
from satorbits import AgentState, GainParams, fixture_path, simulate
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

GRAPH = str(fixture_path("graph7.txt"))
DI_CFG = str(fixture_path("di.cfg"))
NS_CFG = str(fixture_path("ns.cfg"))


def F(text):
    return Fraction(text)


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
        assert "5.45" in err and "5.55" in err  # edge (6,3) interval

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
    `key=` value is the Arabic-Indic digit three, which int() reads as 3."""

    def argv(tmp_path):
        if key == "edge":
            graph = tmp_path / "graph.txt"
            graph.write_text("n 3\n\u0663 1 1.0\n2 3 1\n")
            return ["partition", str(graph)]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(fixture_path("di.cfg").read_text() + f"{key}=\u0663\n")
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
    """argparse turns `٣` down with the usage error it gives `abc`, exit 2."""
    errors = []
    for value in ("abc", "\u0663"):
        with pytest.raises(SystemExit) as exc:
            main([command, GRAPH, "--config", DI_CFG, flag, value])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert f"argument {flag}: invalid int value: 'abc'" in errors[0]
    assert errors[1] == errors[0].replace("'abc'", "'\u0663'")


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
            cfg.write_text(cfg.read_text() + "alpha=1e400\n")
            return ["synthesize", str(graph), "--config", str(cfg)]
        if kind == "ns-a":
            # 1/(2a) overflows, though a itself is a (subnormal) float
            ns = ["--config", NS_CFG, "--mode", "float", "--a", "1e-320"]
            return ["synthesize", str(graph), *ns]
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
    ],
)
def test_plan_and_half_period_errors(argv, code, message, tmp_path, capsys):
    args = argv(tmp_path)
    capsys.readouterr()
    assert main(args) == code
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
    cfg.write_text(fixture_path("di.cfg").read_text() + "root=3\n")
    assert "init=" in cfg.read_text()
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
        back = trajectory_from_csv(trajectory_to_csv(t), t.model, t.a, "exact")
        assert back.states == t.states
        assert back.raw_u == t.raw_u
        assert back.sat_u == t.sat_u


def test_parser_is_built_once_and_survives_a_bad_argv(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", GRAPH, "--steps", "many"])
    assert exc.value.code == 2
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


def test_csv_from_another_start_is_read_in_full(plans, tmp_path, capsys, monkeypatch):
    """The replay runs the plan from its own start states, so a `simulate --init`
    CSV (di.cfg's `init=`) is not its bytes and is read in full.  Its step 0
    is not the plan's start, so the replay simulates nothing, and the one
    run is the CSV's own re-simulation.  The verdict is unchanged: the CSV is
    its own consistent run, and the checks find that it is periodic but not
    the plan's closed form."""
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
    assert (code, err, len(calls), runs) == (EXIT_VERIFY, "", 1, [44])
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
    """An exact CSV equal to its re-simulation is checked on the re-simulation's
    lattice; one that differs is checked on its own tuples, whose inverted
    period steps back per agent through `inverse_step_*`."""
    argv, text = csv_artifacts[base]
    csv_file = tmp_path / "traj.csv"
    csv_file.write_text(EDITS[edit](text))
    calls = []
    for name in ("inverse_step_di", "inverse_step_ns"):

        def counting(*args, real=getattr(verify, name)):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify, name, counting)
    code, out, _ = _verify_outcome([*argv[:-1], str(csv_file)], capsys)
    report = json.loads(out)
    assert report["consistency"] is consistent
    # the edited step 1 leaves step T equal to step 0, so the inversion runs
    assert report["periodicity"] is True
    if consistent:
        assert code == EXIT_OK and not calls
    else:
        assert code == EXIT_VERIFY and calls


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
