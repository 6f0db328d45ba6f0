"""Diagonal fast path for scalar weighted shifts.

For a scalar shift every object in the construction is diagonal in the
standard basis: the defect forms, the invariant metric, the representer A,
B, U, and all weights.  This module computes those diagonals straight from
the weight rule (no eigendecompositions).  The metric diagonal is shared
with the dense path, not derived again: on the general path the pipeline
solves the reported metric (its `q0` and `q_seq`) from the
(m-1)-defect diagonal of `defect_diagonal`, and `build_diagonal_model`
receives that same `q_seq`.  The `diagonal_dense_agreement` check
cross-checks A, B, U and the weights of the dense path against diagonals
built on this shared metric diagonal.
"""

import math
from dataclasses import dataclass

import numpy as np

from .builder import AssembledDilation
from .errors import NotNegativeError, NotPsdError
from .hermitian import max_abs
from .operators import WeightRule
from .tolerances import DEFAULT_TOLERANCES, Tolerances

# leading weights S_1 .. S_8 enter the dense agreement residual
_AGREEMENT_WEIGHTS = 8


def defect_diagonal(rule: WeightRule, m: int, count: int) -> np.ndarray:
    """Diagonal of the m-th defect form of the shift, entries 0 .. count-1.

    `operators.defect_step` on the diagonal: entry n of beta_k is
    w_(n+1)^2 beta_(k-1)(n+1) - beta_(k-1)(n), from count + m ones, exact
    for every n (the rule generates the true infinite operator).
    """
    w_sq = np.array([rule.weight_sq(j) for j in range(1, count + m)])
    beta = np.ones(count + m)
    for _ in range(m):
        beta = w_sq[: beta.size - 1] * beta[1:] - beta[:-1]
    return beta


@dataclass(frozen=True)
class DiagonalModel:
    """Diagonals of the construction for a scalar shift, on the window."""

    m: int
    path: str
    window: int
    support: np.ndarray          # H' indices: metric diagonal above the rank cutoff
    a_diag: np.ndarray           # on support
    u_diag: np.ndarray           # on support
    weight_diags: tuple          # per n = 1..horizon, values on support


def build_diagonal_model(
    rule: WeightRule,
    m: int,
    window: int,
    path: str,
    horizon: int,
    q_seq: np.ndarray | None = None,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> DiagonalModel:
    """Diagonal analogue of the dense construction on the same window."""
    beta_prev = defect_diagonal(rule, m - 1, window)

    if path == "general_m":
        if q_seq is None:
            raise ValueError("general path needs the solved metric diagonal")
        metric = np.asarray(q_seq, dtype=float)[:window]
        numerator = defect_diagonal(rule, m, window)
    elif path == "three_concave":
        metric = beta_prev
        beta3_next = defect_diagonal(rule, 3, window + 1)
        numerator = np.array(
            [rule.weight_sq(n + 1) * beta3_next[n + 1] for n in range(window)]
        )
    else:
        raise ValueError(f"unknown path {path!r}")

    floor = -tols.psd_tol * (1.0 + float(np.max(np.abs(metric), initial=0.0)))
    if np.min(metric, initial=0.0) < floor:
        raise NotPsdError(f"metric diagonal has entry below tolerance ({np.min(metric):.3e})")
    metric = np.clip(metric, 0.0, None)
    cutoff = tols.rank_tol * float(np.max(metric, initial=0.0))
    support = np.nonzero(metric > cutoff)[0]

    a_vals = numerator[support] / metric[support] if support.size else np.zeros(0)
    ceiling = tols.psd_tol * (1.0 + float(np.max(np.abs(a_vals), initial=0.0)))
    if a_vals.size and np.max(a_vals) > ceiling:
        raise NotNegativeError(
            f"diagonal representer has positive entry {np.max(a_vals):.3e}"
        )
    a_vals = np.minimum(a_vals, 0.0)
    u_vals = np.sqrt(metric[support])

    p_prev = np.ones(support.size)
    diags = []
    for n in range(1, horizon + 1):
        p_n = 1.0 - math.comb(n, m - 1) * a_vals
        diags.append(np.sqrt(p_n / p_prev))
        p_prev = p_n

    return DiagonalModel(
        m=m,
        path=path,
        window=window,
        support=support,
        a_diag=a_vals,
        u_diag=u_vals,
        weight_diags=tuple(diags),
    )


def embed_support_diagonal(window: int, support: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Window-sized diagonal matrix with the given values on the support."""
    out = np.zeros((window, window), dtype=np.complex128)
    out[support, support] = values
    return out


def dense_agreement_residual(dilation: AssembledDilation, diag: DiagonalModel) -> float:
    """Max-norm disagreement between the dense path and the diagonal path.

    The dense side is the model of the dilation and the weight stack it
    stores.  All compressed H'-operators are conjugated back into window
    coordinates before comparison, so the two paths are compared
    basis-free.
    """
    model, weights = dilation.model, dilation.weights.mat
    w = model.dim_h
    if w != diag.window:
        raise ValueError(f"window mismatch: dense {w}, diagonal {diag.window}")
    residual = max_abs(model.embed(model.a.mat) - embed_support_diagonal(w, diag.support, diag.a_diag))
    # U compared as P * metric_root in window coordinates
    u_window = model.compression.adjoint_dot(model.u)
    u_diag_mat = embed_support_diagonal(w, diag.support, diag.u_diag)
    residual = max(residual, max_abs(u_window - u_diag_mat))
    # B is the weight S_(m-1) on both paths, compared with the others
    count = min(_AGREEMENT_WEIGHTS, len(weights), len(diag.weight_diags))
    for n in sorted({*range(1, count + 1), model.m - 1}):
        dense_s = model.embed(weights[n - 1])
        diag_s = embed_support_diagonal(w, diag.support, diag.weight_diags[n - 1])
        residual = max(residual, max_abs(dense_s - diag_s))
    return residual
