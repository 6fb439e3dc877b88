"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload fock_em_long --seeds 1-10 --trace 0

For every metric this prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread (q3 - q1) / median
next to the metric's bound in ``BENCHMARK.json``; a spread above a third of
its bound is flagged.  ``--json`` also saves every run's result line, its
output digests and the summary.  Every run measures for ``run_seconds``,
as the benchmark's own runs do.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else float("nan"),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="write runs and summary to this file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [
            sys.executable, *spec["command"][1:],
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        details = json.loads(
            (BENCH / ".work" / args.workload / f"result-trace{args.trace}.json").read_text(encoding="utf-8")
        )
        runs.append({"seed": seed, "result": result, "details": details})
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    for name in runs[0]["result"]["metrics"]:
        summary[name] = summarize([r["result"]["metrics"][name]["value"] for r in runs])
        s, bound = summary[name], bounds.get(name)
        flag = "  <-- above bound/3" if bound is not None and s["spread"] > bound / 3 else ""
        print(
            f"{name:<30} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
            f"spread {s['spread']:<8.4f} bound {bound}{flag}"
        )
    all_correct = all(r["result"]["correct"] for r in runs)
    print(f"all correct: {all_correct}")
    if args.json:
        payload = {"workload": args.workload, "trace": args.trace, "seconds": seconds, "runs": runs, "summary": summary}
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
