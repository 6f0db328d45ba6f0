"""Diagonal fast path for scalar weighted shifts.

For a scalar shift every object in the construction is diagonal in the
standard basis: the defect forms, the invariant metric, the representer A,
B, U, and all weights.  This module computes those diagonals straight from
the weight rule (no eigendecompositions).  The metric diagonal is shared
with the construction, not derived again: on the general path the pipeline
solves the reported metric (its `q0` and `q_seq`) from the
(m-1)-defect diagonal of `operators.defect_diagonal`, and
`build_diagonal_model` receives that same `q_seq`.  Only
`verifier.verify_run` builds the reference, for every shift run, from the
model it checks, whose rule, order, path and window it reads, and the
`diagonal_dense_agreement` check cross-checks A, B, U and the weights of
the construction against it in window coordinates, through the model's
map of H onto H' (`compression`).  On a shift that map is a real
monomial, so an operator on H' is compared as the diagonal its column map
writes and U as a monomial, O(N) work each; a block stored dense is
conjugated back into window coordinates densely.
"""

import math
from dataclasses import dataclass

import numpy as np

from .builder import LEADING_WEIGHTS, AssembledDilation, DilationModel
from .errors import NotNegativeError, NotPsdError
from .hermitian import Block, max_difference
from .operators import defect_diagonal
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class DiagonalModel:
    """Diagonals of the construction for a scalar shift, on the window."""

    window: int
    support: np.ndarray          # H' indices: metric diagonal above the rank cutoff
    a_diag: np.ndarray           # on support
    u_diag: np.ndarray           # on support
    weight_diags: tuple          # per n = 1..max(LEADING_WEIGHTS, m-1), on support


def build_diagonal_model(
    model: DilationModel,
    q_seq: np.ndarray | None = None,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> DiagonalModel:
    """Diagonal analogue of the dense construction on the same window.

    Reads the construction's inputs off `model`, its shift rule, order,
    path and window, and none of the A, U or weights it built; `q_seq` is
    the solved metric diagonal of the general path.  It forms the weights
    the agreement compares, S_1 .. S_max(LEADING_WEIGHTS, m-1).
    """
    rule, m, window = model.corner.rule, model.m, model.dim_h
    if rule is None:
        raise ValueError("the diagonal reference needs a shift corner")
    if model.path == "general_m":
        if q_seq is None:
            raise ValueError("general path needs the solved metric diagonal")
        metric = np.asarray(q_seq, dtype=float)[:window]
        numerator = defect_diagonal(rule, m, window)
    elif model.path == "three_concave":
        metric = defect_diagonal(rule, m - 1, window)
        beta3_next = defect_diagonal(rule, 3, window + 1)
        numerator = np.array(
            [rule.weight_sq(n + 1) * beta3_next[n + 1] for n in range(window)]
        )
    else:
        raise ValueError(f"unknown path {model.path!r}")

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
    for n in range(1, max(LEADING_WEIGHTS, m - 1) + 1):
        p_n = 1.0 - math.comb(n, m - 1) * a_vals
        diags.append(np.sqrt(p_n / p_prev))
        p_prev = p_n

    return DiagonalModel(
        window=window,
        support=support,
        a_diag=a_vals,
        u_diag=u_vals,
        weight_diags=tuple(diags),
    )


def dense_agreement_residual(dilation: AssembledDilation, diag: DiagonalModel) -> float:
    """Max-norm disagreement between the dense path and the diagonal path.

    The dense side is the model of the dilation and the members S_1 ..
    S_max(LEADING_WEIGHTS, m-1) of the weight stack it stores, each read
    alone.  Each is compared in window coordinates, where the diagonal
    path's values sit on its support: an operator X on H' as C* X C and U
    as C* U, C the model's `compression`.  When C is a real monomial (on a
    shift), C* X C of a diagonal X is the diagonal C's column map writes,
    and C* U a monomial, so the two paths are compared on their nonzeros;
    any other block is conjugated densely.
    """
    model, weights = dilation.model, dilation.weights
    w = model.dim_h
    if w != diag.window:
        raise ValueError(f"window mismatch: dense {w}, diagonal {diag.window}")
    compression = model.compression

    def embed(x: Block) -> Block:
        x_diag = x.as_diagonal()
        if compression.mono is None or x_diag is None:
            return Block.dense(compression.congruence(x.mat))
        return Block.diag(compression.congruence_diagonal(x_diag))

    def on_support(values: np.ndarray) -> Block:
        out = np.zeros(w)
        out[diag.support] = values
        return Block.diag(out)

    residual = max_difference(embed(model.a.block), on_support(diag.a_diag))
    # U compared as P * metric_root in window coordinates
    if compression.mono is None or model.u.mono is None:
        u_window = Block.dense(compression.adjoint_dot(model.u.mat))
    else:
        u_window = model.u.then(compression.adjoint())
    residual = max(residual, max_difference(u_window, on_support(diag.u_diag)))
    # B is the weight S_(m-1) on both paths, compared with the others
    for n in sorted({*range(1, LEADING_WEIGHTS + 1), model.m - 1}):
        s_n = embed(weights[n - 1])
        residual = max(residual, max_difference(s_n, on_support(diag.weight_diags[n - 1])))
    return residual
