"""Pipeline orchestration: classify, solve the metric, build, assemble, verify.

Path auto-selection follows the scope of the two construction routes:
expansive + m-concave inputs take the general path; for m = 3 a 3-concave
but non-expansive input takes the dedicated 3-concave path.  For m = 2 the
reference identity-weight dilation is built alongside.  The pipeline makes
no check itself: `verifier.verify_run` makes every check of the run, the
norm-gap certificate that compares the two dilations among them.

Reports are plain dicts, byte-stable for a fixed (spec, seed, version)
apart from the single timestamp in the header.
"""

import dataclasses
import json
from dataclasses import dataclass
from datetime import datetime, timezone

from . import __about__
from .builder import (
    AssembledDilation,
    DilationModel,
    assemble_dilation,
    build_badea_2iso,
    build_general_model,
    build_three_concave_model,
)
from .diagonal import build_diagonal_model, defect_diagonal
from .errors import NotNegativeError, PreconditionError, UnknownDemoError
from .hermitian import Block, max_abs
from .operators import Classification, DefectForms, OperatorCorner, classify, dense_corner, make_shift_corner
from .qsolver import QSolution, solve_q_shift_diagonal, solve_q_unitary
from .specfile import OperatorSpecFile, spec_from_dict
from .tolerances import DEFAULT_SEED, DEFAULT_TRIALS, Tolerances
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
    "nonisomorphic-pair": {
        "schema_version": 1,
        "operator": {"kind": "shift", "rule": {"name": "geometric_concave", "r": 0.5}},
        "m": 2,
        "truncation": {"N": 48, "n_blocks": 6},
    },
}


@dataclass
class PipelineResult:
    """Everything a pipeline run produced, for reporting and for tests."""

    spec: OperatorSpecFile
    tolerances: Tolerances
    seed: int
    corner: OperatorCorner
    classification: Classification
    path: str
    q: QSolution | None
    assembled: AssembledDilation
    badea_assembled: AssembledDilation | None
    verification: VerificationReport
    report: dict

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


def _make_corner(spec: OperatorSpecFile):
    if spec.kind == "shift":
        return make_shift_corner(spec.rule, spec.n)
    return dense_corner(spec.entries_matrix())


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
    """Classification-only entry point (the `verify` subcommand)."""
    tols = spec.tolerances().replace(**(tol_overrides or {}))
    corner = _make_corner(spec)
    cls = classify(corner, spec.m, tols)
    admissible = _admissible_paths(cls, spec.m)
    report = {
        "schema_version": 1,
        "generated_by": f"isodilation {__about__.__version__}",
        "generated_at": _timestamp(),
        "input": spec.to_jsonable(),
        "classification": cls.as_dict(),
        "admissible_paths": admissible,
        "overall": bool(admissible),
    }
    return cls, admissible, report


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _solve_metric(spec, corner, m, tols, forms: DefectForms) -> QSolution:
    if spec.kind == "shift":
        delta_diag = defect_diagonal(spec.rule, m - 1, corner.window_after(m))
        return solve_q_shift_diagonal(corner, delta_diag, tols)
    return solve_q_unitary(corner, forms.on(m - 1), tols)


def run_pipeline(
    spec: OperatorSpecFile,
    tol_overrides: dict | None = None,
    seed: int | None = None,
    trials: int = DEFAULT_TRIALS,
) -> PipelineResult:
    """Full pipeline: classify, solve the metric, build, assemble, verify.

    The classification picks the construction path.  Raises ValueError
    when trials < 1, and PreconditionError, carrying the failing residuals,
    when the classification admits no path and when a sign gate of the
    construction (NotNegativeError) fails: the classification admitted the
    path, the construction found the operator outside it.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    tols = spec.tolerances().replace(**(tol_overrides or {}))
    seed = int(seed if seed is not None else (spec.seed if spec.seed is not None else DEFAULT_SEED))
    m = spec.m
    n_blocks = spec.n_blocks
    corner = _make_corner(spec)

    cls = classify(corner, m, tols)
    forms = cls.forms
    admissible = _admissible_paths(cls, m)
    if not admissible:
        raise PreconditionError(
            "operator admits no construction path "
            "(not expansive m-concave; not 3-concave with nonnegative 2-defect)",
            details=cls.as_dict(),
        )
    path = admissible[0]

    weights_horizon = max(n_blocks - 1, 8) + m + 1
    q: QSolution | None = None
    badea_assembled = None

    try:
        if path == "three_concave":
            model, weights = build_three_concave_model(
                corner, weights_horizon, tols=tols, forms=forms
            )
        else:
            q = _solve_metric(spec, corner, m, tols, forms)
            model, weights = build_general_model(
                corner, m, q, weights_horizon, tols=tols, forms=forms
            )
        assembled = assemble_dilation(model, weights, n_blocks)
    except NotNegativeError as exc:
        raise PreconditionError(
            f"automatically selected path {path!r} failed its construction gate: {exc}",
            details=cls.as_dict(),
        ) from exc
    if m == 2:  # the general path, the only one m = 2 admits
        badea_model, badea_weights = build_badea_2iso(
            corner, q, weights_horizon, tols=tols, forms=forms
        )
        badea_assembled = assemble_dilation(badea_model, badea_weights, n_blocks)

    diag_model = None
    if spec.kind == "shift":
        diag_model = build_diagonal_model(
            spec.rule,
            m,
            model.dim_h,
            path,
            weights_horizon,
            q_seq=q.q_seq if q is not None else None,
            tols=tols,
        )

    verification = verify_run(assembled, q, badea_assembled, diag_model, seed, trials, tols)
    report = _build_report(spec, tols, seed, cls, path, q, assembled, badea_assembled, verification)
    return PipelineResult(
        spec=spec,
        tolerances=tols,
        seed=seed,
        corner=corner,
        classification=cls,
        path=path,
        q=q,
        assembled=assembled,
        badea_assembled=badea_assembled,
        verification=verification,
        report=report,
    )


def _build_report(spec, tols, seed, cls, path, q, assembled, badea_assembled, verification) -> dict:
    model = assembled.model
    weights_head = [max_abs(s) for s in assembled.weights.mat[:8]]
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
            "u_norm": max_abs(badea_assembled.model.u),
        }
    return {
        "schema_version": 1,
        "generated_by": f"isodilation {__about__.__version__}",
        "generated_at": _timestamp(),
        "input": spec.to_jsonable(),
        "seed": seed,
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


def demo(name: str, seed: int | None = None) -> PipelineResult:
    """Run a pinned spec from the built-in catalog."""
    return run_pipeline(demo_spec(name), seed=seed)
