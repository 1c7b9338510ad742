#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads mine train serve --seeds 0-9
    python3 perfbench/spread.py --workloads train --seeds 0-4 --trace both

Runs `perfbench/run.py` once per workload and seed, one run at a time,
and prints per metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the quartile spread
as a share of the median, next to the metric's bound in BENCHMARK.json.
With `--trace both` every seed also runs traced, and the tracing overhead
is reported: the traced run's end-to-end values minus the untraced run's.
Raw results go to `.perfbench_out/spread-*.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pin import seed_range

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{\"correct\"") else {}
    report = json.loads(lines[-2])["report"] if len(lines) >= 2 else {}
    ok = proc.returncode == 0 and result.get("correct") is True
    print(f"{workload} seed={seed} trace={trace}: exit {proc.returncode}, {wall:.1f} s"
          + ("" if ok else f"\n{proc.stderr[-2000:]}"), flush=True)
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "wall_s": wall, "result": result, "report": report}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=["mine", "train", "serve"])
    p.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]

    runs = [run_once(w, s, seconds, t) for w in args.workloads for s in args.seeds for t in traces]
    out = ROOT / ".perfbench_out" / f"spread-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1))

    failed = [r for r in runs if r["exit"] != 0 or r["result"].get("correct") is not True]
    for w in args.workloads:
        for t in traces:
            done = [r for r in runs if r["workload"] == w and r["trace"] == t and r["result"].get("metrics")]
            if len(done) < 2:
                continue
            print(f"\n{w} trace={t}: {len(done)} runs, wall median {statistics.median(r['wall_s'] for r in done):.1f} s")
            print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
            for name in done[0]["result"]["metrics"]:
                values = [r["result"]["metrics"][name]["value"] for r in done]
                med, q1, q3, share = spread(values)
                bound = bounds.get(name)
                flag = "" if bound is None or share < bound / 3 else "  > bound/3"
                print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} {bound if bound is not None else '':>6}{flag}")
        if traces == [0, 1]:
            pairs = [(r0, r1) for r0 in runs for r1 in runs
                     if r0["workload"] == r1["workload"] == w and r0["seed"] == r1["seed"]
                     and r0["trace"] == 0 and r1["trace"] == 1 and r0["result"].get("metrics") and r1["result"].get("metrics")]
            if pairs:
                print(f"\n{w} tracing overhead (traced minus untraced, median over {len(pairs)} seeds)")
                for name in bounds:
                    diffs = [r1["result"]["metrics"][f"traced.{name}"]["value"] - r0["result"]["metrics"][name]["value"]
                             for r0, r1 in pairs]
                    base = statistics.median(r0["result"]["metrics"][name]["value"] for r0, _ in pairs)
                    d = statistics.median(diffs)
                    print(f"  {name:34} {d:+12.6g} ({d / base:+.2%} of {base:.6g})")
    print(f"\nraw results: {out.relative_to(ROOT)}")
    if failed:
        print(f"{len(failed)} run(s) failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
