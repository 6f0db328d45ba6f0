"""Solvers for the invariant metric Q with T*QT = Q and Q >= (m-1)-defect.

Two finite-presentation regimes are supported:

* scalar weighted shifts: the Stein equation forces a diagonal solution
  q_n = q_0 / (w_1^2 ... w_n^2); the minimal admissible q_0 is the supremum
  of delta_n * (w_1^2 ... w_n^2), scanned over a horizon with a plateau test
  that rejects genuinely unbounded suprema;

* finite-dimensional operators: an expansive m-concave operator on a
  finite-dimensional space is unitary (see `operators`), so its
  (m-1)-defect vanishes and the minimal metric is Q = 0 in closed form.
  An input that is unitary only up to a defect beyond the classification
  tolerance is refused.

The solution is generally not unique; any metric satisfying the contract
yields a valid dilation, and the solvers return the minimal one.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NotPsdError, PreconditionError, UnboundedQError
from .hermitian import HermitianMatrix, hermitian, max_abs, psd_check
from .operators import OperatorCorner, WeightRule, make_shift_corner
from .tolerances import DEFAULT_TOLERANCES, Tolerances

# relative slack of the plateau test: a scanned value within this factor
# of the running maximum counts as attaining it
_PLATEAU_REL_TOL = 1e-12


@dataclass(frozen=True)
class QSolution:
    """An invariant metric together with its measured contract residuals."""

    q: HermitianMatrix
    method: str                      # "diagonal_shift" or "zero"
    q_seq: np.ndarray | None         # diagonal values over the full horizon
    stein_residual: float            # ||T*QT - Q||_max on the exact window
    dominance_residual: float        # min eig of Q - Delta on the exact window

    @property
    def q0(self) -> float | None:
        if self.q_seq is None or self.q_seq.size == 0:
            return None
        return float(self.q_seq[0])


def verify_q(
    t: OperatorCorner,
    q: HermitianMatrix,
    delta: HermitianMatrix,
    window: int,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[float, float]:
    """Measure the contract residuals of a candidate metric.

    Returns (stein_residual, dominance_residual) computed on the exact
    window only; pure measurement, no mutation.
    """
    w = min(window, q.n, delta.n, t.n)
    tw = t.leading(w)
    stein_w = max(tw.window_after(1), 0)
    qm = q.mat[:w, :w]
    stein_full = tw.congruence(qm) - qm
    stein = max_abs(stein_full[:stein_w, :stein_w])
    diff = hermitian(qm[:w, :w] - delta.mat[:w, :w], tols.herm_tol)
    dominance = psd_check(diff, tols.psd_tol, tols.eig_tol).min_eig
    return stein, dominance


def _check_contract(sol_q, stein, dominance, tols):
    scale = 1.0 + sol_q.norm_max()
    if stein > tols.stein_tol * scale:
        raise ConvergenceError(
            f"invariance residual {stein:.3e} exceeds {tols.stein_tol * scale:.3e}"
        )
    if dominance < -tols.psd_tol * scale:
        raise NotPsdError(
            f"metric fails to dominate the defect (min eig {dominance:.3e})"
        )


def solve_q_shift_diagonal(
    rule: WeightRule,
    delta_diag: np.ndarray,
    horizon: int,
    dim: int | None = None,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> QSolution:
    """Minimal diagonal invariant metric for a scalar weighted shift.

    `delta_diag` must hold the exact diagonal of the (m-1)-defect for
    indices 0 .. horizon.  Entries within psd_tol of zero count as zero, so
    a defect that vanishes up to rounding yields the zero metric instead of
    letting noise grow with the weight products.  The returned diagonal
    satisfies the Stein equation exactly by construction and dominates the
    defect entrywise (within psd_tol).

    Raises UnboundedQError when the scanned sequence delta_n * pi_n fails
    the plateau test (its running maximum is attained late or still grows
    near the horizon), signaling that no finite diagonal metric exists over
    this horizon.
    """
    delta_diag = np.asarray(delta_diag, dtype=float)
    if horizon < 8:
        raise ValueError(f"horizon must be at least 8, got {horizon}")
    if delta_diag.shape[0] < horizon + 1:
        raise ValueError(
            f"need defect diagonal up to the horizon ({horizon + 1} entries, "
            f"got {delta_diag.shape[0]})"
        )
    noise_floor = tols.psd_tol * (1.0 + float(np.max(np.abs(delta_diag), initial=0.0)))
    if np.min(delta_diag, initial=0.0) < -noise_floor:
        raise NotPsdError(
            f"defect diagonal has entry {np.min(delta_diag):.3e} below {-noise_floor:.3e}"
        )

    pi = rule.weight_sq_products(horizon)
    head = delta_diag[: horizon + 1]
    scaled = np.where(head > noise_floor, head, 0.0) * pi
    top = float(np.max(scaled))
    if top > 0.0:
        near_top = scaled >= top * (1.0 - _PLATEAU_REL_TOL)
        first_hit = int(np.argmax(near_top))
        running = np.maximum.accumulate(scaled)
        three_quarters = (3 * horizon) // 4
        still_growing = running[-1] > running[three_quarters] * (1.0 + _PLATEAU_REL_TOL)
        if first_hit > horizon // 2 or still_growing:
            raise UnboundedQError(
                f"supremum of the scaled defect not attained on a plateau "
                f"(first attained at n={first_hit} of horizon {horizon})"
            )

    q_seq = np.empty(horizon + 1)
    q_seq[0] = top
    for n in range(1, horizon + 1):
        q_seq[n] = q_seq[n - 1] / rule.weight_sq(n)

    d = min(dim if dim is not None else delta_diag.shape[0], horizon + 1)
    q_mat = hermitian(np.diag(q_seq[:d]).astype(np.complex128), tols.herm_tol)
    method = "zero" if top == 0.0 else "diagonal_shift"

    corner = make_shift_corner(rule, d) if d >= 2 else None
    if corner is not None:
        delta_mat = hermitian(np.diag(delta_diag[:d]).astype(np.complex128), tols.herm_tol)
        stein, dominance = verify_q(corner, q_mat, delta_mat, d, tols)
    else:
        stein = 0.0
        dominance = float(q_seq[0] - delta_diag[0])
    _check_contract(q_mat, stein, dominance, tols)
    return QSolution(q_mat, method, q_seq, stein, dominance)


def solve_q_unitary(
    t: OperatorCorner,
    delta: HermitianMatrix,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> QSolution:
    """Minimal invariant metric Q = 0 of a finite-dimensional operator.

    An expansive m-concave operator on a finite-dimensional space is
    unitary, so its (m-1)-defect `delta` vanishes and Q = 0 meets the
    contract.  The residuals are measured by `verify_q`.  Raises
    PreconditionError when Q = 0 fails to dominate `delta` within the
    classification tolerance class_tol * (1 + ||delta||): the operator is
    then not unitary within tolerance.
    """
    if t.exact:
        raise ValueError("the zero metric applies to finite-dimensional operators only")
    q = hermitian(np.zeros((t.n, t.n), dtype=np.complex128), tols.herm_tol)
    stein, dominance = verify_q(t, q, delta, t.n, tols)
    floor = -tols.class_tol * (1.0 + delta.norm_max())
    if dominance < floor:
        raise PreconditionError(
            "operator is not unitary within tolerance: the zero metric does not "
            f"dominate the defect (min eig {dominance:.3e}, allowed {floor:.3e})"
        )
    return QSolution(q, "zero", None, stein, dominance)
