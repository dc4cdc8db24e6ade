"""Benchmark workloads: seeded inputs for the satorbits CLI and output checks.

A workload turns a seed into input files and the three command lines of the
user's job, ``synthesize -> simulate -> verify --csv``.  The program only
ever sees the generated files.  The checks below look at the files and exit
codes directly; apart from the exit code they do not trust ``verify``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

COMMANDS = ("synthesize", "simulate", "verify")

#: sha256 over the final-step states of ``offorbit_7``, keyed by step count.
#: The seed only relabels agents 2-7, and the states are hashed under their
#: original labels, so every seed must produce the same digest.
OFFORBIT_DIGESTS = {
    250: "17db2c989b3b576b3814344958acfcff0cdd8a115e6a2b6416174e5b3cb38361",
    40: "f95b83d43d7ffa7908f494c47022042e90962c6b24dcd4e86e7d56698a90af7d",
}


def _weights(lo: int, hi: int) -> list[str]:
    """Decimal weights lo/10, (lo+1)/10, ..., hi/10 as exact strings."""
    return [f"{k // 10}.{k % 10}" for k in range(lo, hi + 1)]


def random_graph(
    rng: random.Random, n: int, n_edges: int, weights: list[str]
) -> dict[tuple[int, int], str]:
    """A random spanning tree on 1..n plus random extra edges, n_edges in all.

    Agent 1 is the root; every agent after it attaches to a random earlier
    agent in a shuffled order, so the tree depth varies with the seed.
    """
    order = [1] + rng.sample(range(2, n + 1), n - 1)
    edges: dict[tuple[int, int], str] = {}
    for pos in range(1, n):
        i, j = order[pos], order[rng.randrange(pos)]
        edges[(min(i, j), max(i, j))] = rng.choice(weights)
    while len(edges) < n_edges:
        i, j = rng.sample(range(1, n + 1), 2)
        edges.setdefault((min(i, j), max(i, j)), rng.choice(weights))
    return edges


def graph_text(n: int, edges: dict[tuple[int, int], str]) -> str:
    lines = [f"n {n}"] + [f"{i} {j} {w}" for (i, j), w in sorted(edges.items())]
    return "\n".join(lines) + "\n"


def plan_fields(text: str) -> tuple[dict[str, str], dict[int, tuple[Fraction, Fraction]]]:
    """Header fields and per-agent (x, v) of a plan file."""
    meta: dict[str, str] = {}
    init: dict[int, tuple[Fraction, Fraction]] = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("agent "):
            head, _, rest = line.partition(":")
            parts = dict(p.strip().split("=") for p in rest.split(","))
            init[int(head.split()[1])] = (Fraction(parts["x"]), Fraction(parts["v"]))
        elif "=" in line:
            key, _, value = line.partition("=")
            meta[key.strip()] = value.strip()
    return meta, init


def csv_states(text: str, ticks: set[int]) -> tuple[int, dict[int, dict[int, tuple[Fraction, Fraction]]]]:
    """Row count of a trajectory CSV and the exact (x, v) of each agent at `ticks`."""
    lines = text.splitlines()
    rows = 0
    states: dict[int, dict[int, tuple[Fraction, Fraction]]] = {k: {} for k in ticks}
    for line in lines[1:]:
        if not line:
            continue
        rows += 1
        k = int(line[: line.index(",")])
        if k in ticks:
            parts = line.split(",")
            states[k][int(parts[1])] = (Fraction(parts[2]), Fraction(parts[3]))
    return rows, states


@dataclass
class Case:
    """One generated instance of a workload, with its files and expectations."""

    n: int
    m: int
    T: int
    steps: int
    graph: Path
    config: Path
    plan: Path
    sim_plan: Path
    csv: Path
    verify_exit: int
    #: plan edit applied between synthesize and simulate (off-orbit start)
    edit_plan: Optional[Callable[[str], str]] = None
    #: original label of each agent label the program sees
    original_label: Optional[dict[int, int]] = None

    def argv(self, command: str) -> list[str]:
        base = [command, str(self.graph), "--config", str(self.config)]
        if command == "synthesize":
            return base + ["-o", str(self.plan)]
        if command == "simulate":
            return base + [
                "--plan", str(self.sim_plan), "--steps", str(self.steps), "-o", str(self.csv)
            ]
        return base + ["--plan", str(self.sim_plan), "--csv", str(self.csv)]

    def expected_exit(self, command: str) -> int:
        return self.verify_exit if command == "verify" else 0

    def clean(self) -> None:
        for path in (self.plan, self.sim_plan, self.csv):
            path.unlink(missing_ok=True)

    def after_synthesize(self) -> None:
        if self.edit_plan is not None and self.plan.exists():
            self.sim_plan.write_text(self.edit_plan(self.plan.read_text()))

    def check(self, command: str, stdout: str) -> Optional[str]:
        """None if the command's output is right, else what is wrong."""
        if command == "synthesize":
            meta, init = plan_fields(self.plan.read_text())
            if (meta.get("m"), meta.get("T")) != (str(self.m), str(self.T)):
                return f"plan m={meta.get('m')} T={meta.get('T')}, want m={self.m} T={self.T}"
            if sorted(init) != list(range(1, self.n + 1)):
                return "plan does not list every agent"
            return None
        if command == "simulate":
            return self._check_csv()
        report = json.loads(stdout)
        if self.verify_exit == 0:
            return None if report.get("ok") is True else "verify report not ok"
        want = {"consistency": True, "periodicity": False, "minimal_period": None}
        got = {key: report.get(key, "missing") for key in want}
        return None if got == want else f"verify report {got}, want {want}"

    def _check_csv(self) -> Optional[str]:
        ticks = {0, self.T} if self.original_label is None else {self.steps}
        rows, states = csv_states(self.csv.read_text(), ticks)
        if rows != (self.steps + 1) * self.n:
            return f"CSV has {rows} rows, want {(self.steps + 1) * self.n}"
        if self.original_label is None:
            if len(states[0]) != self.n or states[0] != states[self.T]:
                return f"state at k={self.T} differs from k=0"
            return None
        digest = final_digest(states[self.steps], self.original_label)
        if digest != OFFORBIT_DIGESTS.get(self.steps):
            return f"final-step digest {digest[:16]} does not match the reference"
        return None


def final_digest(
    final: dict[int, tuple[Fraction, Fraction]], original_label: dict[int, int]
) -> str:
    """sha256 of the exact final states, listed under the original agent labels."""
    by_original = sorted((original_label[a], x, v) for a, (x, v) in final.items())
    text = "".join(f"{a}:{x},{v}\n" for a, x, v in by_original)
    return hashlib.sha256(text.encode()).hexdigest()


def grid_graph(
    rng: random.Random,
    rows: int,
    cols: int,
    weights: list[str],
    diagonals: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = (),
) -> dict[tuple[int, int], str]:
    """A rows x cols grid plus `diagonals`, with random weights.

    Agent 1 sits at cell (0, 0); the other labels are placed at random.
    """
    label = [1] + rng.sample(range(2, rows * cols + 1), rows * cols - 1)
    pairs = [
        ((r, c), (r2, c2))
        for r in range(rows)
        for c in range(cols)
        for r2, c2 in ((r + 1, c), (r, c + 1))
        if r2 < rows and c2 < cols
    ]
    edges: dict[tuple[int, int], str] = {}
    for (r, c), (r2, c2) in pairs + list(diagonals):
        i, j = label[r * cols + c], label[r2 * cols + c2]
        edges[(min(i, j), max(i, j))] = rng.choice(weights)
    return edges


#: anti-diagonals of the di_sparse grid.  Each joins two cells at the same
#: distance from the root's corner, so it is an intra edge, an equality the
#: position solver contracts, and the partition is the same on every seed.
DI_DIAGONALS = (((1, 2), (2, 1)), ((2, 6), (3, 5)))


def _di_sparse(rng: random.Random, tiny: bool) -> dict:
    # A grid, not a random tree plus random edges: on those the position
    # solver's centering either settles within a few sweeps (<= 8-bit
    # positions) or runs all its sweeps (37-71 bits), so the mix of the two
    # kinds among a run's instances, not the program, set synthesize_s.
    # Every grid lands in the second kind.  The edge at the root fixes
    # a_bar = 0.2, so m = 28 on every seed.
    rows, cols = (3, 4) if tiny else (5, 8)
    n = rows * cols
    edges = grid_graph(rng, rows, cols, _weights(2, 30), DI_DIAGONALS[: 1 if tiny else 2])
    root_edge = min(key for key in edges if key[0] == 1)
    edges[root_edge] = "0.2"
    return {
        "n": n,
        "graph": graph_text(n, edges),
        "config": "model=di\nalpha=0.4\nbeta=0.42\nroot=1\n",
        "m": 28,
        "T": 56,
        "steps": 112,
        "verify_exit": 0,
    }


def _ns_wide(rng: random.Random, tiny: bool) -> dict:
    # Weights >= 0.5 keep a_bar >= 1/2, which satisfies the gate and both
    # per-edge key inequalities for a=1/2, alpha=-1/2, beta=2.
    n, n_edges = (15, 40) if tiny else (150, 450)
    edges = random_graph(rng, n, n_edges, _weights(5, 30))
    return {
        "n": n,
        "graph": graph_text(n, edges),
        "config": "model=ns\na=0.5\nalpha=-0.5\nbeta=2\nroot=1\n",
        "m": 2,
        "T": 4,
        "steps": 8,
        "verify_exit": 0,
    }


def _halve_plan(text: str) -> str:
    lines = []
    for line in text.splitlines():
        if line.startswith("agent "):
            head, _, rest = line.partition(":")
            parts = dict(p.strip().split("=") for p in rest.split(","))
            x, v = Fraction(parts["x"]) / 2, Fraction(parts["v"]) / 2
            line = f"{head}: x={x}, v={v}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _offorbit_7(rng: random.Random, tiny: bool, fixtures: Path) -> dict:
    # Relabel agents 2-7 with the seed; agent 1 stays the root and the anchor.
    relabel = dict(zip(range(2, 8), rng.sample(range(2, 8), 6)))
    relabel[1] = 1
    edges = {}
    for line in (fixtures / "graph7.txt").read_text().splitlines():
        parts = line.split()
        if len(parts) == 3:
            i, j = relabel[int(parts[0])], relabel[int(parts[1])]
            edges[(min(i, j), max(i, j))] = parts[2]
    keep = ("model", "alpha", "beta", "root", "anchor", "base")
    config = [
        line
        for line in (fixtures / "di.cfg").read_text().splitlines()
        if line.partition("=")[0].strip() in keep
    ]
    return {
        "n": 7,
        "graph": graph_text(7, edges),
        "config": "\n".join(config) + "\n",
        "m": 11,
        "T": 22,
        "steps": 40 if tiny else 250,
        "verify_exit": 4,
        "edit_plan": _halve_plan,
        "original_label": {new: old for old, new in relabel.items()},
    }


WORKLOADS = ("di_sparse", "ns_wide", "offorbit_7")


def make_case(
    workload: str, seed: int, instance: int, workdir: Path, fixtures: Path, tiny: bool = False
) -> Case:
    """Write instance number `instance` of `workload` for `seed` into `workdir`."""
    rng = random.Random(f"{workload}:{seed}:{instance}")
    if workload == "di_sparse":
        spec = _di_sparse(rng, tiny)
    elif workload == "ns_wide":
        spec = _ns_wide(rng, tiny)
    elif workload == "offorbit_7":
        spec = _offorbit_7(rng, tiny, fixtures)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    workdir.mkdir(parents=True, exist_ok=True)
    graph, config = workdir / "graph.txt", workdir / "run.cfg"
    graph.write_text(spec.pop("graph"))
    config.write_text(spec.pop("config"))
    plan = workdir / "plan.txt"
    sim_plan = workdir / "plan_start.txt" if "edit_plan" in spec else plan
    return Case(
        graph=graph,
        config=config,
        plan=plan,
        sim_plan=sim_plan,
        csv=workdir / "traj.csv",
        **spec,
    )
