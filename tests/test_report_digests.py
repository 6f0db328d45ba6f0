"""`tools/report_digests.py`: the fixed set of runs and the stamp-free digest."""

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
