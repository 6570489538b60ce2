"""Benchmark of the mustafin classifier: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload classify-highdim --seed 1 --seconds 30 --trace 0

Without --workload every workload runs in turn, each in its own process.
With --trace 0 the run times whole rounds of operations for --seconds and
reports the end-to-end metrics. With --trace 1 it runs a fixed number of
rounds, set by --seconds, alternating traced and untraced rounds, and
reports the per-layer metrics of the traced ones together with the
tracing overhead. Every operation's output is checked against the
benchmark's own computations; an operation that raises or whose output
is wrong counts as failed. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 5
TAIL = 90  # fixed, so that a slow run and a fast one report the same percentile
WARMUP_SEED = -1


def percentile(latencies: list[float], q: float) -> float:
    """The q-th percentile by nearest rank."""
    ordered = sorted(latencies)
    return ordered[max(math.ceil(q / 100 * len(ordered)), 1) - 1]


def geometric_mean_of_medians(by_kind: dict[str, list[float]]) -> float:
    """Each kind's median latency, combined so that every kind weighs the same."""
    return math.exp(statistics.fmean(math.log(statistics.median(v)) for v in by_kind.values()))


class Tally:
    """Outcomes of the operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.latencies: dict[str, list[float]] = {}
        self.stdout_bytes = 0
        self.reports: list[str] = []

    def run_round(self, wl, ops, tracer=None) -> float:
        """Run and check one round; return the seconds spent inside the program."""
        busy = 0.0
        for op in ops:
            self.attempted += 1
            span = tracer.open(op[0]) if tracer else None
            t0 = perf_counter()
            try:
                outcome = wl.run(op)
            except Exception as exc:  # the program failed this operation; keep measuring
                busy += perf_counter() - t0
                if tracer:
                    tracer.close(span)
                self.failed += 1
                self.note(f"{op[0]} raised {type(exc).__name__}: {exc}")
                continue
            dt = perf_counter() - t0
            if tracer:
                tracer.close(span)
            busy += dt
            self.latencies.setdefault(op[0], []).append(dt)
            self.stdout_bytes += outcome.stdout_bytes
            try:
                problems = wl.check(op, outcome)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
                problems = [f"output does not have the documented form: {type(exc).__name__}: {exc}"]
            if problems:
                self.failed += 1
                self.wrong += 1
                self.note(f"{op[0]} on {op[1]}: " + "; ".join(problems[:3]))
        return busy

    @property
    def done(self) -> int:
        return sum(map(len, self.latencies.values()))

    def note(self, message: str) -> None:
        if len(self.reports) < 5:
            self.reports.append(message)
            print("FAILED " + message, file=sys.stderr)


def set_up(name: str, drawn: list, warmup: list, workdir: Path, workloads):
    """Import the program, hand it the first rounds' inputs and run the warm-up rounds."""
    prog = workloads.Program(SRC)
    wl = workloads.WORKLOADS[name](prog, workdir)
    rounds = [wl.prepare(raw) for raw in drawn]
    for raw in warmup:
        for op in wl.prepare(raw):
            try:
                wl.run(op)
            except Exception as exc:  # the timed operations will count such failures
                print(f"warm-up operation raised {type(exc).__name__}: {exc}", file=sys.stderr)
    return prog, wl, rounds


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import workloads
    from tracer import Tracer, layer_metrics

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{os.getpid()}"
    try:
        # The first import compiles bytecode, and the benchmark draws the
        # set-up and warm-up rounds; the timed set-ups exclude both.
        first = workloads.WORKLOADS[name](workloads.Program(SRC), workdir)
        drawn = [first.draw(seed, r) for r in range(first.setup_rounds)]
        warmup = [first.draw(WARMUP_SEED, r) for r in range(first.warmup_rounds)]
        setup_times = []
        for _ in range(SETUPS):
            t0 = perf_counter()
            prog, wl, rounds = set_up(name, drawn, warmup, workdir, workloads)
            setup_times.append(perf_counter() - t0)

        def round_inputs(r):
            while len(rounds) <= r:
                rounds.append(wl.make_round(seed, len(rounds)))
            return rounds[r]

        tally = Tally()
        result: dict = {"workload": name, "seed": seed, "seconds": seconds}
        if not trace:
            busy = 0.0
            start = perf_counter()
            r = 0
            while perf_counter() - start < seconds:
                busy += tally.run_round(wl, round_inputs(r))
                r += 1
            pooled = [t for v in tally.latencies.values() for t in v]
            metrics = {
                "ops_per_s": (len(pooled) / busy if busy else 0.0, "1/s"),
                "op_p50_ms": (geometric_mean_of_medians(tally.latencies) * 1000 if pooled else 0.0, "ms"),
                "op_tail_ms": (percentile(pooled, TAIL) * 1000 if pooled else 0.0, "ms"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            kinds = {
                kind: {"samples": len(v), "p50_ms": statistics.median(v) * 1000,
                       f"p{TAIL}_ms": percentile(v, TAIL) * 1000}
                for kind, v in tally.latencies.items()
            }
            result.update(rounds=r, samples=len(pooled), kinds=kinds, setup_times_s=setup_times)
            extra = {}
        else:
            tracer = Tracer(prog)
            traced_rounds = max(1, round(seconds * wl.trace_rounds_per_s / 2))
            busy = [0.0, 0.0]
            done = [0, 0]
            traced_bytes = 0
            for r in range(2 * traced_rounds):
                traced = r % 2 == 0
                ops = round_inputs(r)
                before = tally.done
                bytes_before = tally.stdout_bytes
                if traced:
                    tracer.install()
                try:
                    busy[traced] += tally.run_round(wl, ops, tracer if traced else None)
                finally:
                    tracer.uninstall()
                done[traced] += tally.done - before
                if traced:
                    traced_bytes += tally.stdout_bytes - bytes_before
            metrics, extra = layer_metrics(tracer, done[1], traced_bytes)
            rate = [done[k] / busy[k] if busy[k] else 0.0 for k in (0, 1)]
            metrics["trace.overhead_pct"] = ((rate[0] / rate[1] - 1) * 100 if rate[1] else 0.0, "%")
            extra["trace.traced_ops_per_s"] = (rate[1], "1/s")
            extra["trace.untraced_ops_per_s"] = (rate[0], "1/s")
            tracer.write(OUT / f"spans-{name}.jsonl")
            result.update(traced_rounds=traced_rounds, spans=len(tracer.names))
        result.update(attempted=tally.attempted, failed=tally.failed, wrong=tally.wrong,
                      failures=tally.reports)
        result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["extra"] = {k: {"value": v, "unit": u} for k, (v, u) in extra.items()}
        with open(OUT / f"result-{name}-trace{int(trace)}.json", "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_result(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}")
    for section in ("metrics", "extra"):
        for key, m in result[section].items():
            print(f"  {key:<40} {m['value']:>14.4f} {m['unit']}")
    if "kinds" in result:
        for kind, k in result["kinds"].items():
            print(f"  {kind:<40} p50 {k['p50_ms']:10.3f} ms  p{TAIL} {k[f'p{TAIL}_ms']:10.3f} ms"
                  f"  of {k['samples']} samples")
        print(f"  op_p50_ms is the geometric mean of the {len(result['kinds'])} kinds' medians;"
              f" op_tail_ms is p{TAIL} of all {result['samples']} samples;"
              f" setup_s is the median of {SETUPS} set-ups")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them in turn when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mustafin" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload is None:
        status = 0
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status |= subprocess.run(cmd, check=False).returncode
        return status
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
