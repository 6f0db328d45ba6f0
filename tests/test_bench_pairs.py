"""`tools/bench_pairs.py`: the summary of alternating benchmark pairs, on
canned result lines (no benchmark is run)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

METRICS = [
    {"name": "large_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "headroom_dec", "unit": "decades", "better": "higher", "bound": 0.25},
]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(large_s, headroom, failed=0):
    return json.dumps({
        "correct": failed == 0,
        "attempted": 12,
        "failed": failed,
        "metrics": {
            "large_s": {"value": large_s, "unit": "s"},
            "headroom_dec": {"value": headroom, "unit": "decades"},
        },
    })


def _stdout(line):
    return "workload shift-m2, seed 1\nsamples large_s [0.1, 0.2]\n" + line + "\n"


def test_last_json_reads_the_last_object_line():
    tool = _tool()
    assert tool.last_json(_stdout(_line(0.5, 3.0)))["metrics"]["large_s"]["value"] == 0.5
    assert tool.last_json(_stdout(_line(0.5, 3.0)) + "trailing text\n")["failed"] == 0
    assert tool.last_json("no result\n[1, 2]\n") is None


def test_summary_medians_iqr_and_wins():
    tool = _tool()
    parent = [0.10, 0.12, 0.11, 0.13, 0.10]
    change = [0.06, 0.07, 0.12, 0.05, 0.06]
    pairs = [
        (tool.last_json(_stdout(_line(p, 3.0))), tool.last_json(_stdout(_line(c, 3.0 + (i == 0)))))
        for i, (p, c) in enumerate(zip(parent, change))
    ]
    summary = tool.summarize(pairs, METRICS)
    large, headroom = summary["metrics"]
    assert large["parent_median"] == 0.11 and large["change_median"] == 0.06
    assert large["parent_iqr"] == pytest.approx(0.12 - 0.10)
    assert (large["wins"], large["compared"]) == (4, 5)
    # higher is better: only the first pair's change is higher
    assert headroom["parent_iqr"] == 0.0 and (headroom["wins"], headroom["compared"]) == (1, 5)
    assert summary["failed"] == {"parent": 0, "change": 0}
    text = tool.format_summary(summary)
    assert "large_s        0.11 -> 0.06 s (lower is better)" in text
    assert "change better in 4 of 5 pairs" in text


def test_failed_runs_give_no_values():
    tool = _tool()
    pairs = [
        (json.loads(_line(0.10, 3.0)), json.loads(_line(0.05, 3.0, failed=1))),
        (json.loads(_line(0.12, 3.0)), None),
        (json.loads(_line(0.11, 3.0)), json.loads(_line(0.06, 3.0))),
    ]
    summary = tool.summarize(pairs, METRICS)
    large = summary["metrics"][0]
    assert large["change_median"] == 0.06 and large["parent_median"] == 0.11
    assert (large["wins"], large["compared"]) == (1, 1)
    assert summary["failed"] == {"parent": 0, "change": 2}
    assert "failed runs: parent 0 of 3, change 2 of 3" in tool.format_summary(summary)
