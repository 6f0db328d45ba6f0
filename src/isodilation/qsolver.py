"""Solvers for the invariant metric Q with T*QT = Q and Q >= (m-1)-defect.

Two finite-presentation regimes are supported:

* scalar weighted shifts: the Stein equation forces a diagonal solution
  q_n = q_0 / (w_1^2 ... w_n^2), and the minimal admissible q_0 is the
  supremum of delta_n * (w_1^2 ... w_n^2).  That product is the forward
  difference Delta^(m-1) a(n) of a_n = ||T^n e_0||^2, nonincreasing by
  m-concavity, so the supremum is its first entry delta_0;

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

from .errors import ConvergenceError, NotPsdError, PreconditionError
from .hermitian import HermitianMatrix, hermitian, max_abs, psd_check
from .operators import OperatorCorner
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class QSolution:
    """An invariant metric together with its measured contract residuals."""

    q: HermitianMatrix
    method: str                      # "diagonal_shift" or "zero"
    q_seq: np.ndarray | None         # diagonal values on the metric window
    stein_residual: float            # ||T*QT - Q||_max on the exact window
    dominance_residual: float        # min eig of Q - Delta on the exact window

    @property
    def q0(self) -> float | None:
        if self.q_seq is None or self.q_seq.size == 0:
            return None
        return float(self.q_seq[0])


def stein_residual(t: OperatorCorner, qm: np.ndarray) -> float:
    """||T*QT - Q||_max of a metric's leading block qm on the exact window
    one application of T leaves; the solvers and `q_invariance` call it."""
    tw = t.leading(qm.shape[0])
    win = max(tw.window_after(1), 0)
    return max_abs((tw.congruence(qm) - qm)[:win, :win])


def verify_q(
    t: OperatorCorner,
    q: HermitianMatrix,
    delta: HermitianMatrix,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> tuple[float, float]:
    """Measure the contract residuals of a candidate metric.

    Returns (stein_residual, dominance_residual) computed on the exact
    window only; pure measurement, no mutation.
    """
    w = min(q.n, delta.n, t.n)
    qm = q.mat[:w, :w]
    stein = stein_residual(t, qm)
    diff = hermitian(qm - delta.mat[:w, :w], tols.herm_tol)
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
    t: OperatorCorner,
    delta_diag: np.ndarray,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> QSolution:
    """Minimal diagonal invariant metric of a scalar weighted shift.

    `t` is the exact corner of the shift and `delta_diag` the exact
    diagonal of its (m-1)-defect on the metric window, indices 0 .. w-1
    with 0 < w = len(delta_diag) <= t.n.  The Stein equation forces
    q_n = q_0 / pi_n with pi_n = w_1^2 ... w_n^2, and dominance asks for
    q_0 >= delta_n pi_n for every n.  With a_n = ||T^n e_0||^2 = pi_n,
    delta_n pi_n is the forward difference Delta^(m-1) a(n), which
    m-concavity makes nonincreasing; so the least q_0 is delta_0.  An
    entry within psd_tol of zero counts as zero, so a defect that vanishes
    up to rounding yields the zero metric instead of letting noise grow
    with the weight products.

    The contract is measured by `verify_q` on `t`, not assumed: a shift
    that is not m-concave on the window fails to dominate its defect and
    raises NotPsdError, as does a defect diagonal with an entry below the
    negative noise floor.
    """
    if t.rule is None or not 0 < len(delta_diag) <= t.n:
        raise ValueError("the diagonal metric needs a shift corner covering the defect window")
    delta_diag = np.asarray(delta_diag, dtype=float)
    noise_floor = tols.psd_tol * (1.0 + float(np.max(np.abs(delta_diag), initial=0.0)))
    if np.min(delta_diag, initial=0.0) < -noise_floor:
        raise NotPsdError(
            f"defect diagonal has entry {np.min(delta_diag):.3e} below {-noise_floor:.3e}"
        )

    w = delta_diag.shape[0]
    q_seq = np.empty(w)
    q_seq[0] = delta_diag[0] if delta_diag[0] > noise_floor else 0.0
    for n in range(1, w):
        q_seq[n] = q_seq[n - 1] / t.rule.weight_sq(n)

    q_mat = hermitian(np.diag(q_seq).astype(np.complex128), tols.herm_tol)
    delta_mat = hermitian(np.diag(delta_diag).astype(np.complex128), tols.herm_tol)
    stein, dominance = verify_q(t, q_mat, delta_mat, tols)
    _check_contract(q_mat, stein, dominance, tols)
    method = "zero" if q_seq[0] == 0.0 else "diagonal_shift"
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
    stein, dominance = verify_q(t, q, delta, tols)
    floor = -tols.class_tol * (1.0 + delta.norm_max())
    if dominance < floor:
        raise PreconditionError(
            "operator is not unitary within tolerance: the zero metric does not "
            f"dominate the defect (min eig {dominance:.3e}, allowed {floor:.3e})"
        )
    return QSolution(q, "zero", None, stein, dominance)
