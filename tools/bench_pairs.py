"""Run the benchmark of two checkouts in alternating pairs and compare them.

    python3 tools/bench_pairs.py --parent /path/to/parent --change /path/to/change \
        --workload shift-m2 --pairs 10 --seconds 30

Each pair runs `bench/run.py --seed 1 --trace 0` once in each checkout,
from that checkout's root and with its own `bench/`, the side that goes
first alternating from pair to pair so that a drift of the machine's
speed falls on both.  The last JSON line of each run's standard output is its
result.  For every end-to-end metric of `BENCHMARK.json` (read from the
root of this checkout) it prints the median of the parent's runs and of
the change's, the parent's interquartile range, and in how many pairs the
change was better; then the runs of each side that failed: those that
exited nonzero, printed no JSON line, or reported a failed spec run.
This script edits nothing under either `bench/`; the runs leave only
Python's bytecode caches there.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the seed of every run, as in the commands of `bench/README.md`
SEED = 1


def last_json(stdout: str) -> dict | None:
    """The last line of `stdout` that parses as a JSON object, else None."""
    for line in reversed(stdout.splitlines()):
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if isinstance(value, dict):
            return value
    return None


def _failed(result: dict | None) -> bool:
    return result is None or not result.get("correct", False) or result.get("failed", 0) > 0


def _value(result: dict | None, name: str) -> float | None:
    if _failed(result):
        return None
    metric = result.get("metrics", {}).get(name)
    return None if metric is None else float(metric["value"])


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs: list, metrics: list) -> dict:
    """Compare the runs of `pairs`, one (parent result, change result) per
    pair, each a parsed JSON result or None for a run that printed none.

    `metrics` is the `end_to_end` list of `BENCHMARK.json`.  Each metric
    gets the median of each side over its good runs, the parent's IQR and
    the change's wins, counted over the pairs where both runs are good;
    a failed run (None, `correct` false or `failed` > 0) gives no value.
    """
    rows = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = [(_value(p, name), _value(c, name)) for p, c in pairs]
        parent = [p for p, _ in values if p is not None]
        change = [c for _, c in values if c is not None]
        both = [(p, c) for p, c in values if p is not None and c is not None]
        wins = sum((c < p) if lower else (c > p) for p, c in both)
        rows.append({
            "name": name,
            "unit": metric.get("unit", ""),
            "better": metric["better"],
            "parent_median": statistics.median(parent) if parent else None,
            "change_median": statistics.median(change) if change else None,
            "parent_iqr": _iqr(parent),
            "wins": wins,
            "compared": len(both),
        })
    return {
        "pairs": len(pairs),
        "metrics": rows,
        "failed": {
            "parent": sum(_failed(p) for p, _ in pairs),
            "change": sum(_failed(c) for _, c in pairs),
        },
    }


def format_summary(summary: dict) -> str:
    def number(x):
        return "n/a" if x is None else f"{x:.6g}"

    lines = []
    for row in summary["metrics"]:
        lines.append(
            f"{row['name']:14s} {number(row['parent_median'])} -> {number(row['change_median'])} "
            f"{row['unit']} ({row['better']} is better), parent IQR {number(row['parent_iqr'])}, "
            f"change better in {row['wins']} of {row['compared']} pairs"
        )
    failed = summary["failed"]
    lines.append(
        f"failed runs: parent {failed['parent']} of {summary['pairs']}, "
        f"change {failed['change']} of {summary['pairs']}"
    )
    return "\n".join(lines)


def run_once(checkout: Path, workload: str, seconds: float) -> dict | None:
    """One `bench/run.py --trace 0` run from the root of `checkout`."""
    command = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    result = last_json(done.stdout)
    if done.returncode != 0 and result is not None:
        result = dict(result, correct=False)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    pairs = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            results[side] = run_once(sides[side], args.workload, args.seconds)
            print(f"pair {i + 1} {side}: {json.dumps(results[side])}", flush=True)
        pairs.append((results["parent"], results["change"]))
    print(format_summary(summarize(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
