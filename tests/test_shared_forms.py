"""One run computes each defect form once and decomposes each matrix once.

Every `isodilation` module that binds `eigh`, `hermitian` or `defect_form`
is patched with a recorder, so calls through any namespace are counted.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import isodilation
from isodilation import demo_spec, parse_spec, run_pipeline, spec_from_dict

EXAMPLES = Path(__file__).resolve().parent.parent / "spec-examples"

SHIFT_M2 = {
    "schema_version": 1,
    "operator": {"kind": "shift", "rule": {"name": "geometric_concave", "r": 0.5}},
    "m": 2,
    "truncation": {"N": 48, "n_blocks": 6},
}


def _dense_spec():
    return parse_spec((EXAMPLES / "dense-3concave.json").read_text())


def _modules():
    yield isodilation
    for info in pkgutil.iter_modules(isodilation.__path__):
        yield importlib.import_module(f"isodilation.{info.name}")


@pytest.fixture
def calls(monkeypatch):
    """Record (input bytes, eig_tol) per eigh call, the order per defect_form
    call and herm_tol per hermitian call."""
    real_eigh = importlib.import_module("isodilation.hermitian").eigh
    real_hermitian = importlib.import_module("isodilation.hermitian").hermitian
    real_defect_form = importlib.import_module("isodilation.operators").defect_form
    record = {"eigh": [], "defect_form": [], "hermitian": []}

    def eigh(x, eig_tol=None, *args, **kwargs):
        record["eigh"].append((x.mat.tobytes(), eig_tol))
        return real_eigh(x, eig_tol, *args, **kwargs)

    def hermitian(x, herm_tol=None):
        record["hermitian"].append(herm_tol)
        return real_hermitian(x, herm_tol)

    def defect_form(t, m, *args, **kwargs):
        record["defect_form"].append(m)
        return real_defect_form(t, m, *args, **kwargs)

    fakes = (
        ("eigh", eigh, real_eigh),
        ("hermitian", hermitian, real_hermitian),
        ("defect_form", defect_form, real_defect_form),
    )
    for mod in _modules():
        for name, fake, real in fakes:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, fake)
    return record


def test_dense_run_decomposes_each_matrix_once(calls):
    result = run_pipeline(_dense_spec())
    assert result.path == "three_concave" and result.overall
    # classify: beta_1, -beta_3, beta_2 (shared with the builder's gates and
    # quotient form); A, whose spectrum gives every weight and B
    assert len(calls["eigh"]) == 4
    assert sorted(calls["defect_form"]) == [1, 2, 3]
    inputs = [data for data, _ in calls["eigh"]]
    assert len(set(inputs)) == len(inputs)
    assert inputs[-1] == result.model.a.mat.tobytes()


def test_shift_run_computes_each_defect_form_once(calls):
    result = run_pipeline(spec_from_dict(SHIFT_M2))
    assert result.path == "general_m" and result.badea_model is not None
    assert sorted(calls["defect_form"]) == [1, 2]
    assert len(calls["eigh"]) == 7


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
