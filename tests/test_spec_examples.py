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


@pytest.mark.parametrize("pin", sorted(p.name for p in EXAMPLES.glob("*.report.json")))
def test_report_pin_reproduced_byte_for_byte(pin):
    # each committed report is the behaviour contract of its spec; only
    # the header lines naming the time and the package version may differ
    header = re.compile(r'^\s*"generated_(at|by)": .*\n', re.MULTILINE)
    spec = parse_spec((EXAMPLES / pin.replace(".report.json", ".json")).read_text())
    produced = emit_report(run_pipeline(spec).report)
    committed = (EXAMPLES / pin).read_text()
    assert header.sub("", produced) == header.sub("", committed)
