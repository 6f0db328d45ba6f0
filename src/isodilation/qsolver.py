"""Solvers for the invariant metric Q with T*QT = Q and Q >= (m-1)-defect.

Two finite-presentation regimes are supported:

* scalar weighted shifts: the Stein equation forces a diagonal solution
  q_n = q_0 / (w_1^2 ... w_n^2); the minimal admissible q_0 is the supremum
  of delta_n * (w_1^2 ... w_n^2), scanned over a horizon with a plateau test
  that rejects genuinely unbounded suprema;

* finite invertible operators: monotone fixed-point iteration of
  X -> T^{-*} X T^{-1} starting from the (m-1)-defect, which is
  nondecreasing and bounded whenever the concavity precondition
  T* Delta T <= Delta holds.

The solution is generally not unique; any metric satisfying the contract
yields a valid dilation, and `q0` may be overridden to explore non-minimal
diagonal solutions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    NotInvertibleError,
    NotPsdError,
    PreconditionError,
    UnboundedQError,
)
from .hermitian import (
    EigenDecomposition,
    HermitianMatrix,
    eigh,
    hermitian,
    max_abs,
    psd_check,
    spectral_apply,
)
from .operators import OperatorCorner, WeightRule, make_shift_corner
from .tolerances import DEFAULT_TOLERANCES, Tolerances

# relative step size at which the fixed-point iteration has settled, and
# its step budget
_FIXED_POINT_TOL = 1e-13
_FIXED_POINT_MAX_ITER = 512


@dataclass(frozen=True)
class QSolution:
    """An invariant metric together with its measured contract residuals."""

    q: HermitianMatrix
    method: str                      # "diagonal_shift", "fixed_point", or "zero"
    q_seq: np.ndarray | None         # diagonal values over the full horizon
    stein_residual: float            # ||T*QT - Q||_max on the exact window
    dominance_residual: float        # min eig of Q - Delta on the exact window
    iterations: int

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
    stein_w = max(w - t.bandwidth, 0) if t.exact else w
    tm = t.matrix[:w, :w]
    qm = q.mat[:w, :w]
    stein_full = tm.conj().T @ qm @ tm - qm
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
    q0: float | None = None,
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
        near_top = scaled >= top * (1.0 - 1e-12)
        first_hit = int(np.argmax(near_top))
        running = np.maximum.accumulate(scaled)
        three_quarters = (3 * horizon) // 4
        if first_hit > horizon // 2 or running[-1] > running[three_quarters] * (1.0 + 1e-12):
            raise UnboundedQError(
                f"supremum of the scaled defect not attained on a plateau "
                f"(first attained at n={first_hit} of horizon {horizon})"
            )

    minimal_q0 = top
    if q0 is None:
        q0 = minimal_q0
    elif q0 < minimal_q0 * (1.0 - 1e-12):
        raise ValueError(
            f"q0 override {q0:g} is below the minimal admissible value {minimal_q0:g}"
        )

    q_seq = np.empty(horizon + 1)
    q_seq[0] = q0
    for n in range(1, horizon + 1):
        q_seq[n] = q_seq[n - 1] / rule.weight_sq(n)

    d = min(dim if dim is not None else delta_diag.shape[0], horizon + 1)
    q_mat = hermitian(np.diag(q_seq[:d]).astype(np.complex128), tols.herm_tol)
    method = "zero" if q0 == 0.0 else "diagonal_shift"

    corner = make_shift_corner(rule, d) if d >= 2 else None
    if corner is not None:
        delta_mat = hermitian(np.diag(delta_diag[:d]).astype(np.complex128))
        stein, dominance = verify_q(corner, q_mat, delta_mat, d, tols)
    else:
        stein = 0.0
        dominance = float(q_seq[0] - delta_diag[0])
    _check_contract(q_mat, stein, dominance, tols)
    return QSolution(q_mat, method, q_seq, stein, dominance, 0)


def solve_q_fixed_point(
    t: OperatorCorner,
    delta: HermitianMatrix,
    tols: Tolerances = DEFAULT_TOLERANCES,
    dec: EigenDecomposition | None = None,
) -> QSolution:
    """Invariant metric for a finite-dimensional invertible operator.

    Iterates X -> T^{-*} X T^{-1} from the defect.  The concavity
    precondition T* Delta T <= Delta is checked before iterating and inputs
    violating it are rejected; under it the iterates are nondecreasing and
    bounded, so the limit satisfies both sides of the contract.  `dec` is
    the decomposition of the defect, computed here when None.
    """
    if t.exact:
        raise ValueError("fixed-point solve applies to finite-dimensional operators only")
    if t.n != delta.n:
        raise ValueError(f"dimension mismatch: operator {t.n}, defect {delta.n}")

    delta_check = psd_check(delta, tols.psd_tol, tols.eig_tol, dec)
    if not delta_check.is_psd:
        raise NotPsdError(f"defect must be nonnegative (min eig {delta_check.min_eig:.3e})")

    gram = hermitian(t.matrix.conj().T @ t.matrix, tols.herm_tol)
    dec = eigh(gram, tols.eig_tol)
    lam_min = float(dec.values[0]) if t.n else 1.0
    if lam_min <= tols.inv_tol * (1.0 + gram.norm_max()):
        raise NotInvertibleError(f"operator is singular (smallest squared s.v. {lam_min:.3e})")
    inv_norm = 1.0 / np.sqrt(lam_min)
    if inv_norm > 1.0 + tols.psd_tol:
        raise PreconditionError(
            f"operator is not expansive (||T^-1|| = {inv_norm:.6f} > 1)"
        )
    t_inv = spectral_apply(dec, 1.0 / dec.values) @ t.matrix.conj().T

    contraction = hermitian(
        delta.mat - t.matrix.conj().T @ delta.mat @ t.matrix, tols.herm_tol
    )
    gate = psd_check(contraction, tols.psd_tol, tols.eig_tol)
    if not gate.is_psd:
        raise PreconditionError(
            "concavity precondition T* Delta T <= Delta fails "
            f"(min eig of the difference {gate.min_eig:.3e})",
            details={"gate_min_eig": gate.min_eig},
        )

    q = delta
    iterations = 0
    for iterations in range(1, _FIXED_POINT_MAX_ITER + 1):
        nxt = hermitian(t_inv.conj().T @ q.mat @ t_inv, tols.herm_tol)
        step = hermitian(nxt.mat - q.mat, tols.herm_tol)
        monotone = psd_check(step, max(1e-12, tols.psd_tol), tols.eig_tol)
        if not monotone.is_psd:
            raise ConvergenceError(
                f"fixed-point iterate lost monotonicity (min eig {monotone.min_eig:.3e})"
            )
        done = max_abs(step.mat) <= _FIXED_POINT_TOL * (1.0 + nxt.norm_max())
        q = nxt
        if done:
            break
    else:
        raise ConvergenceError(
            f"fixed-point iteration did not settle in {_FIXED_POINT_MAX_ITER} steps"
        )

    stein, dominance = verify_q(t, q, delta, t.n, tols)
    _check_contract(q, stein, dominance, tols)
    method = "zero" if q.norm_max() == 0.0 else "fixed_point"
    return QSolution(q, method, None, stein, dominance, iterations)
