"""One run computes each defect form once and decomposes each matrix once.

Every `isodilation` module that binds `eigh_stack`, `hermitian`,
`hermitian_diagonal` or `defect_step` is patched with a recorder, so calls
through any namespace are counted.  `eigh` is the one-member case of
`eigh_stack`, so the recorder in `hermitian` sees every matrix that
reaches the Jacobi kernel through either entry point.
"""

import dataclasses
import importlib
import math
import pkgutil
from pathlib import Path

import pytest

import isodilation
from isodilation import classify_spec, demo_spec, parse_spec, run_pipeline, spec_from_dict
from isodilation.hermitian import hermitian, psd_check
from isodilation.operators import DefectForms, classify, dense_corner

EXAMPLES = Path(__file__).resolve().parent.parent / "spec-examples"

SHIFT_M2 = {
    "schema_version": 1,
    "operator": {"kind": "shift", "rule": {"name": "geometric_concave", "r": 0.5}},
    "m": 2,
    "truncation": {"N": 48, "n_blocks": 6},
}


def _dense_spec():
    return parse_spec((EXAMPLES / "dense-3concave.json").read_text())


def _dense_forms():
    """The defect forms of the dense example, as a run of it makes them."""
    spec = _dense_spec()
    return DefectForms(dense_corner(spec.entries_matrix()), spec.tolerances())


def _modules():
    yield isodilation
    for info in pkgutil.iter_modules(isodilation.__path__):
        yield importlib.import_module(f"isodilation.{info.name}")


@pytest.fixture
def calls(monkeypatch):
    """Record (input bytes, eig_tol) per matrix decomposed, the member count
    per kernel call, one entry per defect recursion step and herm_tol per
    Hermitian check, of a dense matrix (`hermitian`) or of a stack of
    diagonals (`hermitian_diagonal`)."""
    real_eigh_stack = importlib.import_module("isodilation.hermitian").eigh_stack
    real_hermitian = importlib.import_module("isodilation.hermitian").hermitian
    real_defect_step = importlib.import_module("isodilation.operators").defect_step
    real_hermitian_diagonal = importlib.import_module("isodilation.hermitian").hermitian_diagonal
    record = {"eigh": [], "stacks": [], "defect_step": [], "hermitian": []}

    def eigh_stack(xs, eig_tol=None, *args, **kwargs):
        xs = tuple(xs)
        record["stacks"].append(len(xs))
        record["eigh"] += [(x.mat.tobytes(), eig_tol) for x in xs]
        return real_eigh_stack(xs, eig_tol, *args, **kwargs)

    def hermitian(x, herm_tol=None):
        record["hermitian"].append(herm_tol)
        return real_hermitian(x, herm_tol)

    def hermitian_diagonal(diags, herm_tol=None):
        record["hermitian"].append(herm_tol)
        return real_hermitian_diagonal(diags, herm_tol)

    def defect_step(t, beta, *args, **kwargs):
        record["defect_step"].append(beta.n)
        return real_defect_step(t, beta, *args, **kwargs)

    fakes = (
        ("eigh_stack", eigh_stack, real_eigh_stack),
        ("hermitian", hermitian, real_hermitian),
        ("hermitian_diagonal", hermitian_diagonal, real_hermitian_diagonal),
        ("defect_step", defect_step, real_defect_step),
    )
    for mod in _modules():
        for name, fake, real in fakes:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, fake)
    return record


def test_dense_run_decomposes_each_matrix_once(calls):
    result = run_pipeline(_dense_spec())
    assert result.path == "three_concave" and result.overall
    # classify: beta_1, beta_3, beta_2 (shared with the builder's gates and
    # quotient form); A, whose spectrum gives every weight and B
    assert len(calls["eigh"]) == 4
    # beta_1, beta_2 and beta_3 are one chain of three recursion steps
    assert len(calls["defect_step"]) == 3
    inputs = [data for data, _ in calls["eigh"]]
    assert len(set(inputs)) == len(inputs)
    assert inputs[-1] == result.model.a.mat.tobytes()
    # the three classification forms are swept as one stack
    assert calls["stacks"] == [3, 1]


@pytest.mark.parametrize("m, members", [(3, 3), (2, 2)])
def test_dense_classify_makes_one_stacked_call(calls, m, members):
    """beta_1, beta_m and beta_(m-1) share the window of a dense corner;
    for m = 2 the last is beta_1 again."""
    spec = _dense_spec()
    classify_spec(spec if m == spec.m else dataclasses.replace(spec, m=m))
    assert calls["stacks"] == [members]
    forms = _dense_forms()
    classify(forms, m)
    forms.decompose([(1, None), (m, None), (m - 1, None)])
    assert calls["stacks"] == [members, members]
    assert len(set(calls["eigh"])) == members


def test_negated_sign_test_reads_the_forms_own_decomposition(calls):
    """The sign test of -beta_k decomposes no second matrix: its least
    eigenvalue is 0.0 minus the largest of beta_k, so a vanishing form
    reads +0.0, as a decomposition of -beta_k did."""
    forms = _dense_forms()
    classify(forms, _dense_spec().m)
    decomposed = len(calls["eigh"])
    check = forms.psd(3, 1e-12, negate=True)
    assert len(calls["eigh"]) == decomposed
    assert check.min_eig == 0.0 - forms.decomposition(3).values[-1]
    reference = psd_check(hermitian(-forms.on(3).mat), 1e-12)
    assert check.is_psd == reference.is_psd
    assert check.min_eig == pytest.approx(reference.min_eig, abs=1e-13)
    residual = classify(DefectForms(dense_corner([[1.0]])), 2).m_concave.residual
    assert residual == 0.0 and math.copysign(1.0, residual) == 1.0


def test_shift_run_computes_each_defect_form_once(calls):
    result = run_pipeline(spec_from_dict(SHIFT_M2))
    assert result.path == "general_m" and result.badea_model is not None
    assert len(calls["defect_step"]) == 2
    # two defect forms in classify, the dominance gap in the metric solve,
    # Q and A in the construction and the reference's metric; the verifier
    # decomposes nothing, its certificate reads the orbit Grams
    assert len(calls["eigh"]) == 6
    # the forms' windows differ, so every stack has one member
    assert set(calls["stacks"]) == {1}


@pytest.mark.parametrize("spec", [_dense_spec(), spec_from_dict(SHIFT_M2)], ids=["dense", "shift"])
def test_eig_tol_override_reaches_every_decomposition(calls, spec):
    result = run_pipeline(spec, tol_overrides={"eig_tol": 1e-10})
    assert result.overall
    assert calls["eigh"]
    assert {tol for _, tol in calls["eigh"]} == {1e-10}


@pytest.mark.parametrize(
    "spec",
    [_dense_spec(), spec_from_dict(SHIFT_M2), demo_spec("unitary")],
    ids=["dense", "shift", "unitary"],
)
def test_herm_tol_override_reaches_every_hermitian_call(calls, spec):
    result = run_pipeline(spec, tol_overrides={"herm_tol": 1e-8})
    assert result.overall
    assert calls["hermitian"]
    assert set(calls["hermitian"]) == {1e-8}
