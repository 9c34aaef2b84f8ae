#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs the benchmark command once per seed and prints, per metric, the
median and the quartile spread (interquartile distance over the
median) next to the bound ``BENCHMARK.json`` gives it::

    python3 perfbench/spread.py --workload fleet_stream --seeds 1-10

A workload is steady when every spread except ``setup_s``'s is well
below its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str):
    lo, __, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [*manifest["command"], "--workload", args.workload,
             "--seed", str(seed), "--seconds",
             str(manifest["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        final = json.loads(lines[-1])
        for name, metric in final["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        record = json.loads(lines[-2].split(" ", 1)[1])
        for name, value in record["detail"].get("figures", {}).items():
            if name.endswith("_raw"):
                values.setdefault(name, []).append(value)
        print(f"seed {seed}: " + "  ".join(
            f"{k}={v['value']:.4g}" for k, v in final["metrics"].items()),
            flush=True)
    bounds = {m["name"]: m.get("bound")
              for m in manifest["end_to_end"] + manifest["per_layer"]}
    for name, series in values.items():
        spread = spans.quartile_spread(series) if len(series) > 1 \
            and spans.median(series) else float("nan")
        print(f"{name}: median={spans.median(series):.6g} "
              f"spread={spread:.4f} bound={bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
