#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload issue_1024 --seeds 1 2 3 4 5 [--seconds N]

Runs the BENCHMARK.json command once per seed with tracing off and prints,
for each end-to-end metric, the median over the runs and the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of that median, next to the metric's bound. ``--save FILE`` writes
the raw values as JSON so that two sets of runs can be compared with
``--compare FILE``: it reports how far this set's median is from the saved
one, as a share of the saved median, in the metric's worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()

    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        if cmd[0] == "python3":
            cmd[0] = sys.executable
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)

    saved = json.loads(Path(args.compare).read_text(encoding="utf-8")) if args.compare else None
    print(f"{'metric':16s} {'median':>10s} {'IQR/med':>8s} {'bound':>6s}" + ("  vs saved" if saved else ""))
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
        line = f"{m['name']:16s} {med:10.4g} {(q3 - q1) / med:8.3f} {m['bound']:6.2f}"
        if saved:
            base = statistics.median(saved[m["name"]])
            worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
            line += f"  {worse:+.3f}"
        print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(values), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
