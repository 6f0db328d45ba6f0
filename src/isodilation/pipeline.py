"""Pipeline orchestration: classify, solve the metric, build, verify.

A run's one context is the `DefectForms` that `_classified` makes from the
spec; classification, metric solve and builders read it.  Path
auto-selection follows the scope of the two construction routes:
expansive + m-concave inputs take the general path; for m = 3 a 3-concave
but non-expansive input takes the dedicated 3-concave path.  For m = 2 the
reference identity-weight dilation is built alongside.  The pipeline makes
no check itself: `verifier.verify_run` makes every check of the run, the
norm-gap certificate that compares the two dilations among them, and on a
shift builds the diagonal reference its cross-check reads.

Reports are plain dicts, byte-stable for a fixed (spec, version) apart
from the single timestamp in the header: no check draws a trial, so no
seed enters a run.
"""

import dataclasses
import json
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __about__
from .builder import (
    LEADING_WEIGHTS,
    AssembledDilation,
    DilationModel,
    build_badea_2iso,
    build_general_model,
    build_three_concave_model,
)
from .errors import (
    ConvergenceError,
    HermitianityError,
    IllDefinedFormError,
    NotNegativeError,
    NotPsdError,
    PreconditionError,
    SpecValidationError,
    UnknownDemoError,
)
from .hermitian import Block
from .operators import (
    Classification,
    DefectForms,
    OperatorCorner,
    classify,
    defect_diagonal,
    dense_corner,
    make_shift_corner,
)
from .qsolver import QSolution, solve_q_shift_diagonal, solve_q_unitary
from .specfile import OperatorSpecFile, spec_from_dict
from .tolerances import Tolerances
from .verifier import VerificationReport, verify_run

DEMOS: dict[str, dict] = {
    "dirichlet-2iso": {
        "schema_version": 1,
        "operator": {"kind": "shift", "rule": {"name": "dirichlet"}},
        "m": 2,
        "truncation": {"N": 48, "n_blocks": 6},
    },
    "strict-2concave": {
        "schema_version": 1,
        "operator": {"kind": "shift", "rule": {"name": "geometric_concave", "r": 0.5}},
        "m": 2,
        "truncation": {"N": 48, "n_blocks": 6},
    },
    "scalar-3concave": {
        "schema_version": 1,
        "operator": {"kind": "dense", "entries": [[[0.7071067811865476, 0.0]]]},
        "m": 3,
        "truncation": {"n_blocks": 6},
    },
    "zero-operator": {
        "schema_version": 1,
        "operator": {"kind": "dense", "entries": [[[0.0, 0.0]]]},
        "m": 3,
        "truncation": {"n_blocks": 6},
    },
    "unitary": {
        "schema_version": 1,
        "operator": {
            "kind": "dense",
            "entries": [
                [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
                [[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]],
                [[0.5, 0.0], [-0.5, 0.0], [0.5, 0.0], [-0.5, 0.0]],
                [[0.5, 0.0], [0.0, -0.5], [-0.5, 0.0], [0.0, 0.5]],
            ],
        },
        "m": 2,
        "truncation": {"n_blocks": 6},
    },
}
# the m = 2 run of strict-2concave builds the pair the certificate compares
DEMOS["nonisomorphic-pair"] = DEMOS["strict-2concave"]


@dataclass
class PipelineResult:
    """Everything a pipeline run produced, for reporting and for tests."""

    spec: OperatorSpecFile
    forms: DefectForms  # the run's context: corner, tolerances, defect forms
    classification: Classification
    path: str
    q: QSolution | None
    assembled: AssembledDilation
    badea_assembled: AssembledDilation | None
    verification: VerificationReport
    report: dict

    @property
    def corner(self) -> OperatorCorner:
        return self.forms.corner

    @property
    def tolerances(self) -> Tolerances:
        return self.forms.tols

    @property
    def model(self) -> DilationModel:
        return self.assembled.model

    @property
    def weights(self) -> Block:
        return self.assembled.weights

    @property
    def badea_model(self) -> DilationModel | None:
        return None if self.badea_assembled is None else self.badea_assembled.model

    @property
    def overall(self) -> bool:
        return self.verification.overall


# a failed gate, or a kernel that misses its tolerance: the operator is
# outside the path at the run's tolerances
_GATE_ERRORS = (NotNegativeError, NotPsdError, IllDefinedFormError, HermitianityError, ConvergenceError)


def _classified(spec: OperatorSpecFile, tol_overrides: dict | None) -> tuple[DefectForms, Classification]:
    """The run's context, the spec's corner with its tolerances, and its
    classification.  A bad override raises SpecValidationError, an error
    of `_GATE_ERRORS` PreconditionError."""
    try:
        tols = spec.tolerances().replace(**(tol_overrides or {}))
    except (ValueError, OverflowError) as exc:
        raise SpecValidationError(f"tolerances: {exc}") from exc
    if spec.kind == "shift":
        corner = make_shift_corner(spec.rule, spec.n)
    else:
        corner = dense_corner(spec.entries_matrix())
    forms = DefectForms(corner, tols)
    try:
        return forms, classify(forms, spec.m)
    except _GATE_ERRORS as exc:
        raise PreconditionError(f"classification fails at the run's tolerances: {exc}") from exc


def _admissible_paths(cls: Classification, m: int) -> list[str]:
    paths = []
    if cls.expansive.ok and cls.m_concave.ok and cls.delta_psd.ok:
        paths.append("general_m")
    if m == 3 and cls.m_concave.ok and cls.delta_psd.ok and "general_m" not in paths:
        paths.append("three_concave")
    return paths


def classify_spec(
    spec: OperatorSpecFile, tol_overrides: dict | None = None
) -> tuple[Classification, list[str], dict]:
    """Classification-only entry point (the `verify` subcommand); raises
    PreconditionError as `_classified` does."""
    _, cls = _classified(spec, tol_overrides)
    admissible = _admissible_paths(cls, spec.m)
    report = _report_head(spec) | {
        "classification": cls.as_dict(),
        "admissible_paths": admissible,
        "overall": bool(admissible),
    }
    return cls, admissible, report


def _report_head(spec: OperatorSpecFile) -> dict:
    """The keys every report opens with: its version stamps and the input."""
    return {
        "schema_version": 1,
        "generated_by": f"isodilation {__about__.__version__}",
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "input": spec.to_jsonable(),
    }


def _solve_metric(forms: DefectForms, m: int) -> QSolution:
    corner, tols = forms.corner, forms.tols
    if corner.rule is not None:
        delta_diag = defect_diagonal(corner.rule, m - 1, corner.window_after(m))
        return solve_q_shift_diagonal(corner, delta_diag, tols)
    return solve_q_unitary(corner, forms.on(m - 1), tols)


def run_pipeline(
    spec: OperatorSpecFile,
    tol_overrides: dict | None = None,
    seed: int | None = None,
) -> PipelineResult:
    """Full pipeline: classify, solve the metric, build, verify.

    `seed` is accepted and ignored: no check draws a trial, and
    `bench/run.py` still passes it on every run.  A bad tolerance
    override raises SpecValidationError.  The classification picks the
    construction path.  Raises PreconditionError, carrying the
    classification once it is made, when the classification admits no
    path, and when it, the metric solve or a construction (the m = 2
    reference included) raises an error of `_GATE_ERRORS`: the operator
    is outside the path at the run's tolerances.
    """
    forms, cls = _classified(spec, tol_overrides)
    m = spec.m
    n_blocks = spec.n_blocks

    admissible = _admissible_paths(cls, m)
    if not admissible:
        raise PreconditionError(
            "operator admits no construction path "
            "(not expansive m-concave; not 3-concave with nonnegative 2-defect)",
            details=cls.as_dict(),
        )
    path = admissible[0]

    q: QSolution | None = None
    badea_assembled = None

    try:
        if path == "three_concave":
            assembled = build_three_concave_model(forms, n_blocks)
        else:
            q = _solve_metric(forms, m)
            assembled = build_general_model(forms, m, q, n_blocks)
        if m == 2:  # the general path, the only one m = 2 admits
            badea_assembled = build_badea_2iso(forms, q, n_blocks)
    except _GATE_ERRORS as exc:
        raise PreconditionError(
            f"automatically selected path {path!r} failed its construction gate: {exc}",
            details=cls.as_dict(),
        ) from exc

    verification = verify_run(assembled, q, badea_assembled, forms.tols)
    report = _build_report(spec, cls, path, q, assembled, badea_assembled, verification)
    return PipelineResult(
        spec=spec,
        forms=forms,
        classification=cls,
        path=path,
        q=q,
        assembled=assembled,
        badea_assembled=badea_assembled,
        verification=verification,
        report=report,
    )


def _build_report(spec, cls, path, q, assembled, badea_assembled, verification) -> dict:
    model = assembled.model
    weights_head = [assembled.weights[k].norm_max() for k in range(LEADING_WEIGHTS)]
    model_summary = {
        "path": path,
        "dim_h": model.dim_h,
        "dim_hprime": model.dim_hprime,
        "n_blocks": assembled.n_blocks,
        "b_norm": model.b_norm,
        # closed forms: the successive falling-product ratio
        # (n+1)/(n-m+2) is largest at n = m-1, where it equals m
        "ratio_bound": float(model.m),
        "rayleigh_bound": max(model.b_norm**2, float(model.m)),
        "welldef_residual": model.welldef_residual,
        "weights_head": weights_head,
    }
    q_summary = None
    if q is not None:
        q_summary = {
            "method": q.method,
            "q0": q.q0,
            "stein_residual": q.stein_residual,
            "dominance_residual": q.dominance_residual,
            # both metric solves are closed forms; the key keeps the report schema
            "iterations": 0,
        }
    badea_summary = None
    if badea_assembled is not None:
        badea_summary = {
            "dim_hprime": badea_assembled.model.dim_hprime,
            "u_norm": badea_assembled.model.u.norm_max(),
        }
    return _report_head(spec) | {
        "classification": cls.as_dict(),
        "path": path,
        "q_solution": q_summary,
        "model": model_summary,
        "badea": badea_summary,
        "checks": [dataclasses.asdict(c) for c in verification.checks],
        "overall": verification.overall,
    }


def emit_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def demo_spec(name: str) -> OperatorSpecFile:
    if name not in DEMOS:
        raise UnknownDemoError(
            f"unknown demo {name!r}; available: {', '.join(sorted(DEMOS))}"
        )
    return spec_from_dict(DEMOS[name])


def demo(name: str) -> PipelineResult:
    """Run a pinned spec from the built-in catalog."""
    return run_pipeline(demo_spec(name))
