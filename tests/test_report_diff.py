"""`tools/report_diff.py`: the rows of a report and the rows that differ
between two checkouts."""

import copy
import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("report_diff", ROOT / "tools" / "report_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPORT = {
    "checks": [
        {"name": "b_square", "passed": True, "residual": 1.5e-15, "tolerance": 2.25e-09, "window": "B^2"},
        {"name": "minimality", "passed": True, "residual": 0.0, "tolerance": 0.0, "window": "rank 8"},
    ],
    "classification": {"expansive": {"ok": True, "residual": 0.25}, "m": 3},
    "generated_at": "2026-01-01T00:00:00+00:00",
    "generated_by": "isodilation 0.1.0",
    "input": {"m": 3},
    "model": {"b_norm": 1.125, "weights_head": [1.0, 2.0]},
}


def test_identical_checkouts_print_no_rows(capsys):
    assert _tool().main([str(ROOT), str(ROOT)]) == 0
    assert capsys.readouterr().out == "0 rows differ in 0 runs; 0 verdicts moved\n"


def test_a_moved_residual_is_one_row_with_both_sides():
    tool = _tool()
    after = copy.deepcopy(REPORT)
    # one bit apart
    moved = math.nextafter(1.5e-15, 1.0)
    after["checks"][0]["residual"] = moved
    after["generated_at"] = "2030-01-01T00:00:00+00:00"
    changes = tool.diff({"run": tool.rows(REPORT)}, {"run": tool.rows(after)})
    assert changes == [
        ("run", "check b_square", "moved", (1.5e-15, 2.25e-09, True), (moved, 2.25e-09, True))
    ]
    assert tool.format_diff(changes).splitlines() == [
        "run | check b_square | moved | residual 1.5e-15 tolerance 2.25e-09 verdict True"
        f" -> residual {moved!r} tolerance 2.25e-09 verdict True",
        "1 rows differ in 1 runs; 0 verdicts moved",
    ]


def test_added_removed_verdict_and_other_values():
    tool = _tool()
    after = copy.deepcopy(REPORT)
    after["checks"][1] = {"name": "badea_minimality", "passed": True, "residual": 0.0, "tolerance": 0.0}
    after["classification"]["expansive"] = {"ok": False, "residual": -0.25}
    after["model"]["weights_head"][1] = 2.5
    before_rows, after_rows = tool.rows(REPORT), tool.rows(after)
    changes = tool.diff({"run": before_rows, "gone": before_rows}, {"run": after_rows})
    kinds = [(run, row, change) for run, row, change, _, _ in changes]
    assert kinds == [
        ("run", "check badea_minimality", "added"),
        ("run", "classification expansive", "moved"),
        ("run", "check minimality", "removed"),
        ("run", "other values", "moved"),
        ("gone", "check b_square", "removed"),
        ("gone", "check minimality", "removed"),
        ("gone", "classification expansive", "removed"),
        ("gone", "other values", "moved"),
    ]
    text = tool.format_diff(changes).splitlines()
    assert text[1] == (
        "run | classification expansive | moved VERDICT | residual 0.25 tolerance - verdict True"
        " -> residual -0.25 tolerance - verdict False"
    )
    assert text[3] == "run | other values | moved | model.weights_head[]"
    assert text[-1] == "8 rows differ in 2 runs; 1 verdicts moved"
