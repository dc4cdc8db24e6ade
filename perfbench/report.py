"""Run every workload untraced and traced, and print all metrics in one table.

    python3 perfbench/report.py --seed 1 --seconds 30

Each run is a separate process of perfbench/run.py, as the benchmark is run
one workload at a time.  Exits 1 if any run fails or reports a failed command.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            print(
                f"{workload} trace={trace}: correct={result['correct']} "
                f"failed {result['failed']} of {result['attempted']} commands"
            )
            for name, metric in result["metrics"].items():
                print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
