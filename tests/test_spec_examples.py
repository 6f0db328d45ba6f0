"""The in-repo spec examples must stay valid and runnable."""

import json
import re
from pathlib import Path

import pytest

from isodilation import emit_report, parse_spec, run_pipeline

EXAMPLES = Path(__file__).resolve().parent.parent / "spec-examples"


@pytest.mark.parametrize(
    "name", sorted(p.name for p in EXAMPLES.glob("*.json") if ".report." not in p.name)
)
def test_example_spec_parses_and_passes(name):
    spec = parse_spec((EXAMPLES / name).read_text())
    result = run_pipeline(spec)
    assert result.overall, [c.name for c in result.verification.checks if not c.passed]


def test_example_report_shape():
    report = json.loads((EXAMPLES / "strict-shift.report.json").read_text())
    assert report["schema_version"] == 1
    assert report["overall"] is True
    for check in report["checks"]:
        assert set(check) == {"name", "residual", "tolerance", "passed", "window"}


def _assert_report_reproduced(name: str):
    # the committed report is the behaviour contract; only the header
    # lines naming the time and the package version may differ
    header = re.compile(r'^\s*"generated_(at|by)": .*\n', re.MULTILINE)
    spec = parse_spec((EXAMPLES / f"{name}.json").read_text())
    produced = emit_report(run_pipeline(spec).report)
    committed = (EXAMPLES / f"{name}.report.json").read_text()
    assert header.sub("", produced) == header.sub("", committed)


def test_example_report_reproduced_byte_for_byte():
    _assert_report_reproduced("strict-shift")


def test_dense_example_report_reproduced_byte_for_byte():
    # the dense 3-concave path: classification, both sign gates and the
    # quotient form all feed this report
    _assert_report_reproduced("dense-3concave")


def test_general_m3_example_report_reproduced_byte_for_byte():
    # the general path at m = 3: the exact windows of the defect forms and
    # of the verifier's test vectors, and the report's closed-form bounds
    _assert_report_reproduced("table-shift-m3")
