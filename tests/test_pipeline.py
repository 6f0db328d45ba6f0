"""Pipeline orchestration: path selection, report layout, demo catalog."""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from isodilation.errors import PreconditionError, UnknownDemoError
from isodilation.hermitian import max_abs
from isodilation.pipeline import DEMOS, classify_spec, demo, demo_spec, emit_report, run_pipeline
from isodilation.specfile import spec_from_dict


_JSON_LEAF_TYPES = {str, int, float, bool, type(None)}


def _leaves(obj):
    if isinstance(obj, dict):
        for value in obj.values():
            yield from _leaves(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _leaves(value)
    else:
        yield obj


def _dense_m3_spec(dim: int):
    """A random normal contraction V diag(z) V*, as in the dense-m3 benchmark
    workload."""
    rng = np.random.default_rng(1)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    z = rng.uniform(0.1, 0.95, dim) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, dim))
    t = (v * z) @ v.conj().T
    entries = [[[float(x.real), float(x.imag)] for x in row] for row in t]
    return spec_from_dict({
        "operator": {"kind": "dense", "entries": entries},
        "m": 3,
        "truncation": {"n_blocks": 6},
    })


def _spec(**kwargs):
    base = {
        "operator": {"kind": "shift", "rule": {"name": "dirichlet"}},
        "m": 2,
        "truncation": {"N": 24, "n_blocks": 5},
    }
    base.update(kwargs)
    return spec_from_dict(base)


class TestPathSelection:
    def test_expansive_concave_takes_general(self):
        assert run_pipeline(_spec()).path == "general_m"

    def test_three_concave_shift_without_expansivity(self):
        spec = spec_from_dict(
            {
                "operator": {"kind": "shift", "rule": {"name": "constant", "c": 0.8}},
                "m": 3,
                "truncation": {"N": 24, "n_blocks": 5},
            }
        )
        result = run_pipeline(spec)
        assert result.path == "three_concave"
        assert result.q is None
        assert result.overall
        # U carries the 2-defect root: constant diagonal |c^2 - 1|
        u = result.model.basis @ result.model.u
        assert u[0, 0].real == pytest.approx(abs(0.8**2 - 1.0), abs=1e-12)

    def test_expansive_three_concave_prefers_general(self):
        spec = spec_from_dict(
            {
                "operator": {"kind": "shift", "rule": {"name": "dirichlet"}},
                "m": 3,
                "truncation": {"N": 24, "n_blocks": 5},
            }
        )
        result = run_pipeline(spec)
        assert result.path == "general_m"
        assert result.overall

    def test_no_path_raises_with_residuals(self):
        spec = spec_from_dict(
            {
                "operator": {"kind": "dense", "entries": [[[1.5, 0.0]]]},
                "m": 2,
                "truncation": {"n_blocks": 6},
            }
        )
        with pytest.raises(PreconditionError) as err:
            run_pipeline(spec)
        assert err.value.details["m_concave"]["ok"] is False


def _paired_moduli_contraction(seed: int, dim: int, nilpotent: float) -> np.ndarray:
    """V (Z + nilpotent * N) V*: Haar V, moduli in equal pairs, N strictly upper.

    With nilpotent = 0 the contraction is normal, so the representer commutes
    with the 2-defect and arrives (nearly) diagonal in its eigenbasis; the
    triangular part keeps it 3-concave but puts it far off that basis.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    v = q * (np.diag(r) / np.abs(np.diag(r)))
    moduli = np.repeat(rng.uniform(0.3, 0.8, dim // 2), 2)
    z = moduli * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, dim))
    tri = np.diag(z) + nilpotent * np.triu(rng.standard_normal((dim, dim)), 1)
    return v @ tri @ v.conj().T


class TestDenseRepresenter:
    @pytest.mark.parametrize("nilpotent", [0.0, 0.01], ids=["normal", "nonnormal"])
    @pytest.mark.parametrize("n_blocks", [12, 24])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_every_check_passes(self, seed, n_blocks, nilpotent):
        t = _paired_moduli_contraction(seed, 8, nilpotent)
        entries = [[[float(x.real), float(x.imag)] for x in row] for row in t]
        result = run_pipeline(spec_from_dict({
            "operator": {"kind": "dense", "entries": entries},
            "m": 3,
            "truncation": {"n_blocks": n_blocks},
        }))
        assert result.path == "three_concave"
        assert [c["name"] for c in result.report["checks"] if not c["passed"]] == []
        a = result.model.a.mat
        off_diagonal = max_abs(a - np.diag(np.diag(a)))
        if nilpotent:
            # far above the Jacobi stopping threshold, so A is rotated
            assert off_diagonal > 1e-6 * max_abs(a)


def _near_unitary(rng: np.random.Generator, dim: int, perturb: bool) -> np.ndarray:
    """A Haar-like unitary V moved off the unitaries by eps = 10^U(-13, -4):
    V + eps E with E complex Gaussian, or V diag(1 + eps U(0, 1))."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v, _ = np.linalg.qr(g)
    eps = 10.0 ** rng.uniform(-13.0, -4.0)
    if perturb:
        return v + eps * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return v * (1.0 + eps * rng.uniform(0.0, 1.0, dim))


class TestNearUnitaryGeneralPath:
    DRAWS = 300

    def test_every_run_passes_or_is_refused(self):
        """A finite-dimensional input unitary only within rounding that the
        classification sends to the general path either passes every check
        or raises PreconditionError; any other exception escapes and fails
        the test."""
        rng = np.random.default_rng(20250)
        passed, failed = 0, []
        for draw in range(self.DRAWS):
            dim, m = int(rng.integers(1, 7)), int(rng.integers(2, 6))
            t = _near_unitary(rng, dim, perturb=draw % 2 == 0)
            spec = spec_from_dict({
                "operator": {
                    "kind": "dense",
                    "entries": [[[float(x.real), float(x.imag)] for x in row] for row in t],
                },
                "m": m,
                "truncation": {"n_blocks": m + 2},
            })
            if classify_spec(spec)[1] != ["general_m"]:
                continue
            try:
                result = run_pipeline(spec, seed=1)
            except PreconditionError:
                continue
            bad = [c.name for c in result.verification.checks if not c.passed]
            if bad:
                failed.append((draw, dim, m, bad))
            else:
                passed += 1
        assert failed == []
        # the draws reach the metric solve and the builders, not only the gates
        assert passed >= self.DRAWS // 5


def _random_rule(rng: np.random.Generator, n: int) -> dict:
    """geometric_concave(r), constant(c), dirichlet, or a table head of
    w_j^2 = a_j / a_(j-1) for a_j = (j+1)^p with tail 1, up to 2N long."""
    kind = int(rng.integers(4))
    if kind == 0:
        return {"name": "geometric_concave", "r": float(rng.uniform(0.05, 0.95))}
    if kind == 1:
        return {"name": "constant", "c": float(rng.uniform(0.5, 1.5))}
    if kind == 2:
        return {"name": "dirichlet"}
    p, head = float(rng.uniform(0.2, 3.0)), int(rng.integers(1, 2 * n + 1))
    values = [((j + 1) / j) ** (p / 2) for j in range(1, head + 1)]
    return {"name": "table", "values": values, "tail_value": 1.0}


class TestRandomShifts:
    DRAWS = 300

    def test_every_run_passes_or_is_refused(self):
        """A random catalogue shift either passes every check or raises
        PreconditionError; any other exception escapes and fails the test.
        Table heads whose defect turns negative beyond the metric window
        reach the metric solve, which reads the defect on the window only."""
        rng = np.random.default_rng(20261)
        passed, failed = 0, []
        for draw in range(self.DRAWS):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2 * m + 2, 25))
            spec = spec_from_dict({
                "operator": {"kind": "shift", "rule": _random_rule(rng, n)},
                "m": m,
                "truncation": {"N": n, "n_blocks": m + 2},
            })
            try:
                result = run_pipeline(spec, seed=1)
            except PreconditionError:
                continue
            bad = [c.name for c in result.verification.checks if not c.passed]
            if bad:
                failed.append((draw, spec.rule, m, n, bad))
            else:
                passed += 1
        assert failed == []
        assert passed >= self.DRAWS // 5


class TestClassifyOnly:
    def test_reports_admissible_paths(self):
        cls, admissible, report = classify_spec(_spec())
        assert admissible == ["general_m"]
        assert report["overall"] is True
        assert report["classification"]["m_isometric"]["ok"] is True

    def test_rejects_inadmissible(self):
        spec = spec_from_dict(
            {
                "operator": {"kind": "dense", "entries": [[[1.5, 0.0]]]},
                "m": 2,
                "truncation": {"n_blocks": 6},
            }
        )
        _, admissible, report = classify_spec(spec)
        assert admissible == []
        assert report["overall"] is False

    def test_three_concave_only_admissible(self):
        spec = spec_from_dict(
            {
                "operator": {"kind": "dense", "entries": [[[0.7071067811865476, 0.0]]]},
                "m": 3,
                "truncation": {"n_blocks": 6},
            }
        )
        _, admissible, report = classify_spec(spec)
        assert admissible == ["three_concave"]
        assert report["overall"] is True


class TestReports:
    def test_report_structure(self):
        report = run_pipeline(_spec()).report
        assert set(report) == {
            "schema_version",
            "generated_by",
            "generated_at",
            "input",
            "seed",
            "classification",
            "path",
            "q_solution",
            "model",
            "badea",
            "checks",
            "overall",
        }
        assert report["q_solution"]["method"] == "diagonal_shift"
        assert report["model"]["dim_h"] == 22
        assert len(report["model"]["weights_head"]) == 8

    def test_report_is_json_clean(self, demos):
        report = run_pipeline(_spec()).report
        text = json.dumps(report)
        assert "numpy" not in text
        json.loads(text)
        # no numpy scalar reaches a report: every leaf is a plain JSON type
        reports = [demos.run(name).report for name in sorted(DEMOS)]
        reports.append(run_pipeline(_dense_m3_spec(8)).report)
        for rep in reports:
            assert {type(leaf) for leaf in _leaves(rep)} <= _JSON_LEAF_TYPES
        # a numpy seed from the API is cast once, at the entry
        seeded = run_pipeline(_spec(), seed=np.int64(5)).report
        assert type(seeded["seed"]) is int
        assert json.loads(emit_report(seeded))["seed"] == 5

    def test_three_concave_omits_metric(self):
        result = demo("scalar-3concave")
        assert result.report["q_solution"] is None
        assert result.report["badea"] is None


@pytest.mark.parametrize("trials", [0, -1])
def test_trials_below_one_is_refused(trials):
    with pytest.raises(ValueError, match="trials"):
        run_pipeline(_spec(), trials=trials)


class TestDemoCatalog:
    def test_every_demo_passes_overall(self, demos):
        for name in sorted(DEMOS):
            result = demos.run(name)
            failing = [c.name for c in result.verification.checks if not c.passed]
            assert result.overall, f"{name}: {failing}"

    def test_unknown_demo(self):
        with pytest.raises(UnknownDemoError):
            demo_spec("no-such-demo")

    def test_catalog_specs_valid(self):
        for name in DEMOS:
            spec = demo_spec(name)
            assert spec.m >= 2

    def test_unitary_demo_entries_exactly_unitary(self):
        import numpy as np

        spec = demo_spec("unitary")
        f = np.array(spec.entries_matrix())
        assert np.max(np.abs(f.conj().T @ f - np.eye(4))) == 0.0


class TestSelfContainedKernels:
    def test_production_code_avoids_lapack(self):
        """The dense kernels are implemented in-package; numpy.linalg backs
        tests only."""
        src = Path(__file__).resolve().parent.parent / "src" / "isodilation"
        pattern = re.compile(r"np\.linalg|numpy\.linalg|scipy")
        offenders = []
        for path in src.rglob("*.py"):
            if pattern.search(path.read_text()):
                offenders.append(path.name)
        assert offenders == []

    def test_one_range_rule(self):
        """The spectrum is clipped and the numerical range cut in one place:
        outside `tolerances.py`, `rank_tol` and `np.clip(` appear only in
        `hermitian.psd_root` and in the independent reference
        `diagonal.build_diagonal_model`."""
        src = Path(__file__).resolve().parent.parent / "src" / "isodilation"
        allowed = {("hermitian.py", "psd_root"), ("diagonal.py", "build_diagonal_model")}
        pattern = re.compile(r"rank_tol|np\.clip\(")
        offenders = []
        for path in sorted(src.rglob("*.py")):
            if path.name == "tolerances.py":
                continue
            text = path.read_text()
            functions = [
                (node.lineno, node.end_lineno, node.name)
                for node in ast.walk(ast.parse(text))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            for lineno, line in enumerate(text.splitlines(), start=1):
                if not pattern.search(line):
                    continue
                owners = {name for lo, hi, name in functions if lo <= lineno <= hi}
                if not any((path.name, name) in allowed for name in owners):
                    offenders.append(f"{path.name}:{lineno}")
        assert offenders == []

    def test_one_cumulative_rule(self):
        """|S_n...S_1|^2 is formed in one place, `verifier._cumulative_moduli`,
        the one function that takes the Gram of a running product begun at
        the identity.  Every other Gram is of another object: an eigenbasis
        (`hermitian._sorted_decomposition`), U (`verify_run`'s
        `u_invariance`) and the orbit blocks S_(k-1)...S_1 U
        (`orbit_grams`)."""
        src = Path(__file__).resolve().parent.parent / "src" / "isodilation"
        grams, from_identity = set(), set()
        for path in sorted(src.rglob("*.py")):
            text = path.read_text()
            for node in ast.walk(ast.parse(text)):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                body = ast.get_source_segment(text, node)
                if ".gram()" in body:
                    grams.add((path.name, node.name))
                    if "Block.identity(" in body:
                        from_identity.add((path.name, node.name))
        assert from_identity == {("verifier.py", "_cumulative_moduli")}
        assert grams == {
            ("verifier.py", "_cumulative_moduli"),
            ("hermitian.py", "_sorted_decomposition"),
            ("verifier.py", "verify_run"),
            ("verifier.py", "orbit_grams"),
        }
