"""Steadiness check: run each workload on several seeds and compare spreads with the bounds.

    python3 perfbench/steady.py --seeds 10

For every end-to-end metric of BENCHMARK.json the spread is the distance
between the first and third quartiles of its values (statistics.quantiles
with n=4) as a share of their median. A metric is steady when its spread
stays below its bound; `setup_s` is held to the same rule. Runs go one
after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="repeatable; every workload by default")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in spec["workloads"]]
    report = {}
    steady = True
    for name in names:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        shares = []
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.append(result["failed"] / result["attempted"])
            for key in values:
                values[key].append(result["metrics"][key]["value"])
            print(f"  seed {seed}: " + "  ".join(f"{k} {v[-1]:.4g}" for k, v in values.items()), flush=True)
        print(f"{name}: failed share {sorted(set(shares))}", flush=True)
        report[name] = {"values": values, "failed_share": shares}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < m["bound"]
            steady &= ok
            print(f"  {m['name']:<12} median {med:12.4f} {m['unit']:<5} spread {spread:7.4f}"
                  f"  bound {m['bound']:.2f} ({spread / m['bound']:.2f} of it)"
                  f"  {'steady' if ok else 'NOT STEADY'}")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "steady.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
