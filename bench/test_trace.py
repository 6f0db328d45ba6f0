"""Tests of the benchmark's tracer and correctness gate.

Run from the repository root:  python3 -m pytest bench -q

The pinned kernel counts are those of isodilation 0.1.0.  A change that
removes redundant ``eigh`` or ``defect_form`` calls on purpose moves them
and updates them here with the measured before/after pair.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

iso = importlib.import_module("isodilation")


def _texts(workload: str, size: int, seed: int = 1) -> list[str]:
    texts = workloads.GENERATORS[workload](np.random.default_rng(seed))
    return [text for s, text in texts if s == size]


def _traced(*specs) -> tracer.Trace:
    trace = tracer.Trace()
    with tracer.patched(trace):
        for spec in specs:
            trace.new_run()
            iso.emit_report(iso.run_pipeline(spec, seed=1).report)
    return trace


def _calls(trace: tracer.Trace, name: str) -> list[int]:
    return [i for i, s in enumerate(trace.spans) if s.name == name]


def _distinct(trace: tracer.Trace, name: str) -> int:
    return len({trace.inputs[i][0] for i in _calls(trace, name)})


@pytest.mark.parametrize(
    "workload, size, eigh_calls, eigh_distinct",
    [
        ("dense-m3", 8, 22, None),
        ("dense-m3", 24, 22, None),
        ("dense-m3", 48, 22, 18),
        ("shift-m2", 96, 23, 19),
        ("shift-m3-deep", 48, 36, None),
    ],
)
def test_pinned_eigh_counts(workload, size, eigh_calls, eigh_distinct):
    trace = _traced(iso.parse_spec(_texts(workload, size)[0]))
    assert len(_calls(trace, "hermitian.eigh")) == eigh_calls
    if eigh_distinct is not None:
        assert _distinct(trace, "hermitian.eigh") == eigh_distinct


def test_pinned_counts_strict_2concave_demo():
    assert len(_calls(_traced(iso.demo_spec("strict-2concave")), "hermitian.eigh")) == 23


def test_pinned_defect_form_counts_shift_m2():
    trace = _traced(iso.parse_spec(_texts("shift-m2", 96)[0]))
    assert len(_calls(trace, "operators.defect_form")) == 10
    assert _distinct(trace, "operators.defect_form") == 3


# Bindings that calls go through: names imported by value are patched in
# every namespace, and each of these must see traffic, or the patch of
# that namespace silently recorded nothing.
SHARED_BINDINGS = [
    (f"isodilation.{mod}", "eigh") for mod in ("hermitian", "builder", "qsolver", "verifier", "pipeline")
] + [
    (f"isodilation.{mod}", "defect_form") for mod in ("operators", "builder", "pipeline")
] + [
    ("isodilation.pipeline", name) for name in (
        "classify", "solve_q_shift_diagonal", "solve_q_fixed_point", "build_general_model",
        "build_three_concave_model", "build_badea_2iso", "assemble_dilation",
        "build_diagonal_model", "dense_agreement_residual", "check_cumulative_polynomial",
        "check_weight_shift_isometry", "check_dilation_property", "check_powers_formula",
        "check_w_m_isometry", "check_criterion_identity", "check_minimality",
        "remark_consistency", "nonisomorphism_certificate",
    )
] + [("isodilation", name) for name in ("parse_spec", "run_pipeline", "emit_report")]


@pytest.fixture(scope="module")
def union_trace():
    """The smallest spec of each workload, plus a dense general-path demo
    (the only route into the fixed-point metric solver)."""
    trace = tracer.Trace()
    texts = [workloads.GENERATORS[w](np.random.default_rng(1))[0][1] for w in workloads.GENERATORS]
    with tracer.patched(trace):
        for text in texts:
            trace.new_run()
            iso.emit_report(iso.run_pipeline(iso.parse_spec(text), seed=1).report)
        trace.new_run()
        iso.run_pipeline(iso.demo_spec("unitary"), seed=1)
    return trace


@pytest.mark.parametrize("binding", SHARED_BINDINGS, ids=lambda b: f"{b[0]}:{b[1]}")
def test_every_shared_binding_is_hit(union_trace, binding):
    assert union_trace.binding_hits.get(binding, 0) >= 1


def test_every_per_layer_function_is_hit(union_trace):
    names = {s.name for s in union_trace.spans}
    wanted = set(run.INCLUSIVE) | {"hermitian.eigh", "operators.defect_form", "pipeline.run_pipeline"}
    assert wanted <= names, sorted(wanted - names)


def test_spans_nest_inside_their_parents(union_trace):
    spans = union_trace.spans
    for s in spans:
        assert s.end >= s.start
        if s.parent is not None:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end and p.run == s.run


def test_patch_restores_every_binding():
    before = {ns: dict(vars(importlib.import_module(ns))) for ns in tracer.NAMESPACES}
    with tracer.patched(tracer.Trace()):
        assert importlib.import_module("isodilation.builder").eigh is not before["isodilation.builder"]["eigh"]
    for ns, attrs in before.items():
        now = vars(importlib.import_module(ns))
        assert all(now[k] is v for k, v in attrs.items()), ns


def test_self_time_subtracts_direct_children():
    spans = [
        tracer.Span("a", 0.0, 10.0, None, 1),
        tracer.Span("b", 1.0, 4.0, 0, 1),
        tracer.Span("c", 2.0, 3.0, 1, 1),
        tracer.Span("d", 5.0, 6.0, 0, 1),
    ]
    assert tracer.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def _judged(workload: str, text: str):
    judge = run.Judge(workload)
    result = iso.run_pipeline(iso.parse_spec(text), seed=1)
    return judge, result, iso.emit_report(result.report)


def test_judge_accepts_repeats_that_differ_only_in_timestamp():
    judge, result, text = _judged("dense-m3", _texts("dense-m3", 8)[0])
    judge.record(0, result, text)
    judge.record(0, result, text.replace(result.report["generated_at"], "2000-01-01T00:00:00+00:00"))
    assert (judge.attempted, judge.failed) == (2, 0)
    typical, worst = judge.headroom()
    assert typical >= worst > 0


def test_judge_counts_changed_bytes_wrong_path_and_missing_checks():
    judge, result, text = _judged("dense-m3", _texts("dense-m3", 8)[0])
    judge.record(0, result, text)
    judge.record(0, result, text.replace('"overall"', '"overall" ', 1))
    assert judge.failed == 1
    judge.path = "general_m"
    judge.record(0, result, text)
    assert judge.failed == 2
    other = run.Judge("shift-m2")
    other.record(0, result, text)
    assert other.failed == 1


def test_setup_probe_reports_setup_and_probe_seconds():
    out = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "setup_probe.py"), str(SRC)],
        input=json.dumps(_texts("dense-m3", 8)), capture_output=True, text=True, timeout=120, check=True,
    )
    elapsed, probe = (float(x) for x in out.stdout.split())
    assert elapsed > 0 and probe > 0
