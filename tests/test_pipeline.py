"""Pipeline orchestration: path selection, report layout, demo catalog."""

import ast
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from isodilation import pipeline
from isodilation.errors import (
    NotPsdError,
    PreconditionError,
    SpecError,
    SpecValidationError,
    UnknownDemoError,
)
from isodilation.hermitian import max_abs
from isodilation.pipeline import DEMOS, classify_spec, demo, demo_spec, emit_report, run_pipeline
from isodilation.specfile import parse_spec, spec_from_dict
from isodilation.verifier import (
    check_criterion_identity,
    check_minimality,
    nonisomorphism_certificate,
    orbit_grams,
)


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
        u = result.model.compression.adjoint_dot(result.model.u.mat)
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

    def test_reference_gate_failure_is_a_precondition_failure(self, monkeypatch):
        """The m = 2 reference is a construction of the run: a gate it
        fails is a precondition failure carrying the classification, as a
        gate of the selected path is."""
        def refuse(forms, q, n_blocks):
            raise NotPsdError("metric minus 1-defect: metric not PSD (min eig -1.000e-03)")

        monkeypatch.setattr(pipeline, "build_badea_2iso", refuse)
        with pytest.raises(PreconditionError) as err:
            run_pipeline(demo_spec("strict-2concave"))
        assert "metric minus 1-defect" in str(err.value)
        assert err.value.details["expansive"]["ok"] is True


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


class TestWeightStackStorage:
    def test_a_shift_run_never_densifies_its_weight_stack(self):
        result = run_pipeline(demo_spec("strict-2concave"))
        for dil in (result.assembled, result.badea_assembled):
            assert dil.weights.as_diagonal() is not None
            assert "mat" not in vars(dil.weights)

    def test_a_shift_run_never_densifies_its_diagonal_forms(self):
        # the defect forms, the metric and A are stored as their diagonals
        # and the run reads none of them dense; nor do the checks that read
        # the orbit Grams densify one
        result = run_pipeline(demo_spec("strict-2concave"))
        forms = [result.forms.full(k) for k in range(1, result.model.m + 1)]
        for dil in (result.assembled, result.badea_assembled):
            forms += [dil.model.a, dil.model.defect_m, dil.model.defect_prev]
        for x in forms + [result.q.q]:
            assert x.diagonal is not None and "mat" not in vars(x)
        for dil in (result.assembled, result.badea_assembled):
            assert "mat" not in vars(dil.model.u) and "mat" not in vars(dil.model.compression)
        # the corner is its weights: neither it nor a leading block of it,
        # those the run made or any other, is ever dense
        corner = result.corner
        assert result.model.corner is corner.leading(result.model.dim_h)
        assert result.badea_model.corner is result.model.corner
        for k in range(1, corner.n + 1):
            assert "mat" not in vars(corner.leading(k).block)
        general, reference = orbit_grams(result.assembled), orbit_grams(result.badea_assembled)
        for check in (
            check_criterion_identity(general),
            check_minimality(general),
            nonisomorphism_certificate(general, reference, expected_found=True),
        ):
            assert check.passed
        for gram in general.g + reference.g:
            assert gram.as_diagonal() is not None and "mat" not in vars(gram)

    def test_a_large_shift_run_holds_no_n_by_n_array(self):
        # scale guard: every object of a shift run has O(N) nonzeros, so at
        # N = 4096 the run passes every check while its peak stays under one
        # complex N x N array (16 N^2 bytes, 268 MB); a dense corner, or a
        # dense copy of one, exceeds it
        n = 4096
        spec = {**DEMOS["strict-2concave"], "truncation": {"N": n, "n_blocks": 6}}
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            result = run_pipeline(spec_from_dict(spec), seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert result.overall, [c.name for c in result.verification.checks if not c.passed]
        assert peak < 16 * n * n, peak

    def test_a_dense_input_keeps_dense_forms(self):
        examples = Path(__file__).resolve().parent.parent / "spec-examples"
        result = run_pipeline(parse_spec((examples / "dense-3concave.json").read_text()))
        assert result.path == "three_concave" and result.overall
        for k in range(1, result.model.m + 1):
            assert result.forms.full(k).diagonal is None
        assert orbit_grams(result.assembled).g[-1].mono is None

    def test_a_nonnormal_dense_input_keeps_a_dense_stack(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        t = 0.5 * g / np.linalg.norm(g, 2)
        assert max_abs(t @ t.conj().T - t.conj().T @ t) > 1e-2
        entries = [[[float(x.real), float(x.imag)] for x in row] for row in t]
        result = run_pipeline(spec_from_dict({
            "operator": {"kind": "dense", "entries": entries},
            "m": 3,
            "truncation": {"n_blocks": 6},
        }))
        assert result.path == "three_concave"
        assert result.weights.mono is None
        assert result.overall, [c["name"] for c in result.report["checks"] if not c["passed"]]


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


class TestRunInputs:
    """The seed and the tolerance overrides are checked once, in the
    pipeline, and refused with the error a spec file's get."""

    def test_negative_seed_is_a_spec_error(self):
        with pytest.raises(SpecValidationError) as info:
            run_pipeline(_spec(), seed=-1)
        assert info.value.errors == ["$.seed: -1 is less than the minimum of 0"]

    @pytest.mark.parametrize("seed", [True, 1.0, "1"], ids=["bool", "float", "str"])
    def test_non_integer_seed_is_a_spec_error(self, seed):
        with pytest.raises(SpecValidationError, match="schema"):
            run_pipeline(_spec(), seed=seed)

    @pytest.mark.parametrize("entry", [run_pipeline, classify_spec])
    @pytest.mark.parametrize(
        "overrides, line",
        [
            ({"bogus_tol": 1e-8}, "tolerances: unknown tolerance 'bogus_tol'"),
            ({"psd_tol": 0.0}, "tolerances: tolerance psd_tol must be finite and positive, got 0.0"),
            ({"psd_tol": 10**400}, "tolerances: int too large to convert to float"),
        ],
        ids=["unknown", "zero", "beyond-float"],
    )
    def test_bad_tolerance_override_is_a_spec_error(self, entry, overrides, line):
        # the overrides are checked once, where the run's tolerances are made
        with pytest.raises(SpecValidationError) as info:
            entry(_spec(), overrides)
        assert info.value.errors == [line]

    def test_seeds_past_32_bits_do_not_alias(self):
        def powers(seed):
            result = run_pipeline(demo_spec("strict-2concave"), seed=seed)
            return next(c.residual for c in result.verification.checks if c.name == "powers_formula")
        assert powers(0) != powers(2**32)
        assert powers(2**32 - 1) != powers(2**33 - 1)


class TestDemoCatalog:
    def test_every_demo_passes_overall(self, demos):
        for name in sorted(DEMOS):
            result = demos.run(name)
            failing = [c.name for c in result.verification.checks if not c.passed]
            assert result.overall, f"{name}: {failing}"

    def test_unknown_demo(self):
        with pytest.raises(UnknownDemoError) as err:
            demo_spec("no-such-demo")
        assert isinstance(err.value, SpecError)  # an input error, exit code 3

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

    def test_one_run_context(self):
        """The run's `DefectForms` is made in one place: in `src/`,
        `DefectForms(` appears only in the pipeline's `_classified`."""
        src = Path(__file__).resolve().parent.parent / "src" / "isodilation"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            text = path.read_text()
            functions = [
                (node.lineno, node.end_lineno, node.name)
                for node in ast.walk(ast.parse(text))
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            for lineno, line in enumerate(text.splitlines(), start=1):
                if "DefectForms(" not in line:
                    continue
                owners = {name for lo, hi, name in functions if lo <= lineno <= hi}
                if not (path.name == "pipeline.py" and "_classified" in owners):
                    offenders.append(f"{path.name}:{lineno}")
        assert offenders == []

    def test_only_the_pipeline_decides_preconditions(self):
        """What is a precondition failure (exit code 2) is decided in one
        module: in `src/`, `PreconditionError(` is called only in
        `pipeline.py`."""
        src = Path(__file__).resolve().parent.parent / "src" / "isodilation"
        callers = set()
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "PreconditionError"):
                    callers.add(path.name)
        assert callers == {"pipeline.py"}

    def test_only_the_verifier_imports_the_diagonal_reference(self):
        """The construction never reads the diagonal reference: in `src/`,
        only `verifier` (and the package's `__init__`) import `diagonal`."""
        src = Path(__file__).resolve().parent.parent / "src" / "isodilation"
        importers = set()
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names if not node.module]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                if any(name.split(".")[-1] == "diagonal" for name in names):
                    importers.add(path.name)
        assert importers == {"verifier.py", "__init__.py"}

    def test_no_instance_dict_writes(self):
        """Every stored object is a field set where it is made: no module
        reaches into an instance `__dict__`, so none writes into one."""
        src = Path(__file__).resolve().parent.parent / "src" / "isodilation"
        offenders = [
            f"{path.name}:{node.lineno}"
            for path in sorted(src.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr == "__dict__"
        ]
        assert offenders == []

    def test_diagonal_reference_built_by_the_verifier_only(self):
        """The diagonal reference of a shift is built in one place, the
        verifier's `verify_run`, from the model it checks."""
        src = Path(__file__).resolve().parent.parent / "src" / "isodilation"
        callers = []
        for path in sorted(src.rglob("*.py")):
            tree = ast.parse(path.read_text())
            functions = [
                (node.lineno, node.end_lineno, node.name)
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "build_diagonal_model":
                    owners = [(lo, f) for lo, hi, f in functions if lo <= node.lineno <= hi]
                    callers.append((path.name, max(owners)[1] if owners else "<module>"))
        assert callers == [("verifier.py", "verify_run")]

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


_BOUNDARY_OPERATORS = {
    "dirichlet": {"kind": "shift", "rule": {"name": "dirichlet"}},
    "constant-1": {"kind": "shift", "rule": {"name": "constant", "c": 1.0}},
    "constant-0.9": {"kind": "shift", "rule": {"name": "constant", "c": 0.9}},
    "geometric-0.5": {"kind": "shift", "rule": {"name": "geometric_concave", "r": 0.5}},
    "dense-1x1": {"kind": "dense", "entries": [[[0.7071067811865476, 0.0]]]},
}


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("name", sorted(_BOUNDARY_OPERATORS))
def test_smallest_legal_truncation_exhausts_no_window(name, m):
    """At N = 2m + 2 and n_blocks = m + 2, the smallest truncation a spec
    admits, every window a run reads is still nonempty and every block
    fits: a run passes or is refused as a precondition failure, never with
    WindowExhaustedError or DimensionError."""
    operator = _BOUNDARY_OPERATORS[name]
    truncation = {"n_blocks": m + 2} | ({"N": 2 * m + 2} if operator["kind"] == "shift" else {})
    spec = spec_from_dict({"operator": operator, "m": m, "truncation": truncation})
    try:
        result = run_pipeline(spec)
    except PreconditionError:
        return
    assert result.overall, [c.name for c in result.verification.checks if not c.passed]
