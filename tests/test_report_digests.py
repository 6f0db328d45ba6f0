"""`tools/report_digests.py`: the fixed set of runs, the stamp-free digest,
and the pinned digests of `tools/report_digests.txt`."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("report_digests", ROOT / "tools" / "report_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_forty_three_runs_with_distinct_names():
    names = [name for name, _, _ in _tool().runs(ROOT)]
    assert len(names) == len(set(names)) == 43


def test_digest_ignores_the_stamp_lines_only():
    tool = _tool()
    report = '{\n  "generated_at": "%s",\n  "generated_by": "isodilation %s",\n  "overall": true\n}\n'
    assert tool._digest(report % ("2020", "0.1")) == tool._digest(report % ("2030", "0.2"))
    assert tool._digest(report % ("2020", "0.1")) != tool._digest(report.replace("true", "false") % ("2020", "0.1"))


def test_reports_match_the_pinned_digests():
    # the report bytes, less the stamp lines, are the behaviour contract
    pinned = dict(line.split(" ") for line in (ROOT / "tools" / "report_digests.txt").read_text().splitlines())
    digests = dict(_tool().digests(ROOT))
    assert list(digests) == list(pinned)
    assert [name for name, digest in digests.items() if digest != pinned[name]] == []
