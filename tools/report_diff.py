"""Print every row that differs between the reports of two checkouts.

    python3 tools/report_diff.py /path/to/before /path/to/after

The reports are those of `tools/report_digests.py`: the same 43 runs, made
in one subprocess per checkout with that checkout's `src/` and
`bench/workloads.py`.  A row is

- a check of `checks`: its residual, tolerance and verdict (`passed`);
- a flag of `classification`: its residual and verdict (`ok`).

Each line names the run, the row and whether it was added, removed or
moved, then its residual, tolerance and verdict before and after, as `repr`
gives them, so that a change in the last bit shows.  Verdicts that move are
marked `VERDICT`.  Every other value of a report but the `generated_at` and
`generated_by` stamps (the spec, the model, the metric solve) is compared
too: a run where any moved gets one `other values` line naming their JSON
paths, list indices dropped.  A last line counts the rows, the runs they
fall in and the verdicts that moved; two checkouts whose reports agree
byte for byte print that line alone.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
_STAMPS = ("generated_at", "generated_by")
_NONE = "-"
OTHER = "other values"


def _leaves(value, path: str):
    """(path, value) of every scalar under `value`."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def rows(report: dict) -> dict:
    """The rows of one report, name -> (residual, tolerance, verdict), and
    under `OTHER` every other value, JSON path -> value."""
    out = {}
    for check in report.get("checks", []):
        out[f"check {check['name']}"] = (check["residual"], check["tolerance"], check["passed"])
    for name, flag in report.get("classification", {}).items():
        if isinstance(flag, dict):
            out[f"classification {name}"] = (flag["residual"], _NONE, flag["ok"])
    rest = {key: value for key, value in report.items() if key not in ("checks",) + _STAMPS}
    if "classification" in rest:  # less the flags, which are rows
        rest["classification"] = {
            key: value for key, value in rest["classification"].items() if not isinstance(value, dict)
        }
    out[OTHER] = dict(_leaves(rest, ""))
    return out


def _other_values(old: dict, new: dict) -> str:
    """The JSON paths of the values that differ, list indices dropped."""
    paths = [path for path in list(new) + [p for p in old if p not in new] if old.get(path) != new.get(path)]
    return ", ".join(dict.fromkeys(re.sub(r"\[\d+\]", "[]", path).lstrip(".") for path in paths))


def diff(before: dict, after: dict) -> list:
    """(run, row, change, before, after) for every row added, removed or
    moved between two {run: rows} maps; before or after is None where the
    row is missing.  Runs and rows keep the order of `after`, then the
    removed ones in the order of `before`.  The other values of a run make
    one row whose after side names the paths that differ."""
    out = []
    for run in list(after) + [run for run in before if run not in after]:
        old, new = dict(before.get(run, {})), dict(after.get(run, {}))
        paths = _other_values(old.pop(OTHER, {}), new.pop(OTHER, {}))
        for row in list(new) + [row for row in old if row not in new]:
            a, b = old.get(row), new.get(row)
            if a is None:
                out.append((run, row, "added", None, b))
            elif b is None:
                out.append((run, row, "removed", a, None))
            elif a != b:
                out.append((run, row, "moved", a, b))
        if paths:
            out.append((run, OTHER, "moved", None, paths))
    return out


def _side(values) -> str:
    if values is None:
        return "residual - tolerance - verdict -"
    residual, tolerance, verdict = (_NONE if v == _NONE else repr(v) for v in values)
    return f"residual {residual} tolerance {tolerance} verdict {verdict}"


def format_diff(changes: list) -> str:
    lines, verdicts = [], 0
    for run, row, change, a, b in changes:
        if row == OTHER:
            lines.append(f"{run} | {row} | {change} | {b}")
            continue
        moved = a is not None and b is not None and a[2] != b[2]
        verdicts += moved
        mark = " VERDICT" if moved else ""
        lines.append(f"{run} | {row} | {change}{mark} | {_side(a)} -> {_side(b)}")
    runs = len({run for run, *_ in changes})
    lines.append(f"{len(changes)} rows differ in {runs} runs; {verdicts} verdicts moved")
    return "\n".join(lines)


def report_rows(root: Path) -> dict:
    """{run: rows} of the 43 reports of the checkout at `root`, made in a
    subprocess that imports that checkout's package."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--rows", str(root)],
        capture_output=True, text=True, check=True,
    )
    table = json.loads(done.stdout)
    return {
        run: {row: v if row == OTHER else tuple(v) for row, v in report.items()}
        for run, report in table.items()
    }


def _print_rows(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(TOOLS))
    import report_digests

    import isodilation as iso

    table = {}
    for name, spec, seed in report_digests.runs(root):
        report = json.loads(iso.emit_report(iso.run_pipeline(spec, seed=seed).report))
        table[name] = rows(report)
    json.dump(table, sys.stdout)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--rows":
        _print_rows(Path(argv[1]).resolve())
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    before, after = (report_rows(Path(arg).resolve()) for arg in argv)
    print(format_diff(diff(before, after)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
