"""Self-contained complex dense Hermitian linear algebra.

Everything downstream (defect forms, invariant metrics, dilation blocks)
is built from the handful of kernels in this module: a cyclic Jacobi
eigensolver for Hermitian matrices, principal and pseudo-inverse square
roots, and toleranced semidefiniteness tests.  No LAPACK-backed routine is
used here.  Each Jacobi rotation round is one set of array operations,
vectorized over its disjoint rotation pairs and over a stack of same-size
matrices swept together (`eigh_stack`; `eigh` is its stack of one), so
desk-scale dimensions (a few hundred) stay cheap and several forms of one
size pay the per-round Python overhead once.

An input whose off-diagonal entries already lie below the stopping
threshold (a diagonal one, say) takes zero sweeps, and its sorted basis is
a permutation matrix with entries exactly 1.  Such a decomposition records
the permutation (`EigenDecomposition.perm`); its residuals and
`spectral_apply` are then scatters onto the diagonal, which give the bits
of the dense products (each entry of those is one exact term plus exact
zeros) without their n^3 work.  The same argument serves the blocks built
downstream: `real_diagonal` and `real_monomial` read a block's structure
off its stored nonzeros, `diagonal_dot`, `monomial_dot` and
`monomial_gram` multiply by it, and `dense_product` is the product every
other block takes.

All values are immutable after construction and safe to share across
threads.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConvergenceError, HermitianityError, NotPsdError
from .tolerances import DEFAULT_JACOBI_SWEEPS, DEFAULT_TOLERANCES, Tolerances


def max_abs(x: np.ndarray) -> float:
    """Entrywise max-norm; 0 for empty arrays."""
    if x.size == 0:
        return 0.0
    return float(np.max(np.abs(x)))


def as_square_complex(x) -> np.ndarray:
    """Validate and copy input into a square complex128 matrix."""
    mat = np.array(x, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if mat.size and not np.all(np.isfinite(mat.view(np.float64))):
        raise ValueError("matrix entries must be finite")
    return mat


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class HermitianMatrix:
    """A square complex matrix stored in symmetrized form (X + X*)/2.

    `defect` records the max-norm of X - X* seen at construction; it must
    stay below herm_tol * (1 + max-norm of X) or construction fails.
    """

    mat: np.ndarray
    defect: float

    @property
    def n(self) -> int:
        return self.mat.shape[0]

    def norm_max(self) -> float:
        return max_abs(self.mat)

    def restrict(self, k: int) -> "HermitianMatrix":
        """Leading principal k-by-k block (still Hermitian)."""
        if not 0 <= k <= self.n:
            raise ValueError(f"cannot restrict dimension {self.n} to {k}")
        return HermitianMatrix(_frozen(self.mat[:k, :k].copy()), self.defect)


def hermitian(x, herm_tol: float | None = None) -> HermitianMatrix:
    """Construct a HermitianMatrix, checking the defect from the adjoint."""
    tol = DEFAULT_TOLERANCES.herm_tol if herm_tol is None else herm_tol
    mat = as_square_complex(x)
    defect = max_abs(mat - mat.conj().T)
    if defect > tol * (1.0 + max_abs(mat)):
        raise HermitianityError(
            f"matrix deviates from its adjoint by {defect:.3e} "
            f"(allowed {tol * (1.0 + max_abs(mat)):.3e})"
        )
    sym = (mat + mat.conj().T) / 2.0
    return HermitianMatrix(_frozen(sym), defect)


def identity(n: int) -> HermitianMatrix:
    return HermitianMatrix(_frozen(np.eye(n, dtype=np.complex128)), 0.0)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition X = V diag(values) V* with ascending values.

    `perm` is set when V is a permutation matrix with entries exactly 1:
    column j of V is the unit vector e_perm[j].  It is read off the stored
    nonzeros of V, never assumed.
    """

    values: np.ndarray          # real, ascending
    basis: np.ndarray           # unitary, columns are eigenvectors
    recon_residual: float       # ||X - V diag(values) V*||_max
    basis_residual: float       # ||V*V - I||_max
    perm: np.ndarray | None = None  # row of the unit entry of each column

    @property
    def n(self) -> int:
        return self.values.shape[0]


# Bytes of the columns one rotation round gathers across a stack.  Larger
# per-round temporaries come from fresh pages on every round (glibc's
# default mmap threshold is 128 KiB), which costs more than the stack saves:
# on a 2-core Xeon, three dense n = 80 matrices took 0.44 s as one stack and
# 0.36 s one by one.
_STACK_BYTES = 1 << 17


@lru_cache(maxsize=64)
def _rotation_rounds(n: int) -> tuple:
    """Round-robin schedule covering all index pairs by disjoint rounds.

    Each round is a pair of integer arrays (p, q) with p < q elementwise and
    all indices distinct, so the corresponding rotations commute and can be
    applied in one vectorized step.
    """
    if n < 2:
        return ()
    m = n if n % 2 == 0 else n + 1  # pad with a dummy slot for odd n
    arr = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [(arr[i], arr[m - 1 - i]) for i in range(m // 2)]
        pairs = [(min(a, b), max(a, b)) for a, b in pairs if a < n and b < n]
        p = np.array([a for a, _ in pairs], dtype=np.intp)
        q = np.array([b for _, b in pairs], dtype=np.intp)
        rounds.append((p, q))
        arr = [arr[0], arr[-1]] + arr[1:-1]
    return tuple(rounds)


def _apply_rotations(a, v, b, p, q, c, s, phase):
    """Apply disjoint plane rotations V_i in place: a <- V* a V, v <- v V.

    `a` and `v` are stacks of matrices.  V_i acts on member b_i at
    coordinates (p_i, q_i) as [[c, s], [-conj(phase) s, conj(phase) c]]
    where phase is the unit phase of a[b, p, q].  Every entry gets the same
    arithmetic whatever else is in the stack.
    """
    cc, ss = c[:, None], s[:, None]
    s_ph_conj = (s * phase.conj())[:, None]
    c_ph_conj = (c * phase.conj())[:, None]
    cp = a[b, :, p]
    cq = a[b, :, q]
    a[b, :, p] = cp * cc - cq * s_ph_conj
    a[b, :, q] = cp * ss + cq * c_ph_conj
    rp = a[b, p, :]
    rq = a[b, q, :]
    a[b, p, :] = cc * rp - (s * phase)[:, None] * rq
    a[b, q, :] = ss * rp + (c * phase)[:, None] * rq
    cp = v[b, :, p]
    cq = v[b, :, q]
    v[b, :, p] = cp * cc - cq * s_ph_conj
    v[b, :, q] = cp * ss + cq * c_ph_conj


def _off_diagonal_max(a: np.ndarray) -> np.ndarray:
    """Max-norm of each stacked matrix with its diagonal zeroed."""
    k, n, _ = a.shape
    off = a.reshape(k, n * n).copy()
    off[:, :: n + 1] = 0.0
    return np.maximum.reduce(np.abs(off), axis=1)


def real_diagonal(x: np.ndarray) -> np.ndarray | None:
    """The diagonal of a matrix whose stored nonzeros all lie on its
    diagonal and are real, as a real vector; None otherwise."""
    diag = np.diagonal(x)
    if np.count_nonzero(x) != np.count_nonzero(diag) or np.any(diag.imag):
        return None
    return diag.real.copy()


def real_monomial(x: np.ndarray) -> tuple | None:
    """(cols, vals) with x[i, cols[i]] = vals[i] the only nonzero of row i,
    when no row and no column of x holds more than one nonzero and all are
    real; None otherwise.  An empty row reads as column 0 with value 0."""
    rows, cols = x.shape
    if np.count_nonzero(x) > min(rows, cols):
        return None
    at_rows, at_cols = np.nonzero(x)
    if np.any(np.diff(at_rows) == 0) or np.unique(at_cols).size != at_cols.size:
        return None
    vals = x[at_rows, at_cols]
    if np.any(vals.imag):
        return None
    out_cols = np.zeros(rows, dtype=np.intp)
    out_vals = np.zeros(rows)
    out_cols[at_rows], out_vals[at_rows] = at_cols, vals.real
    return out_cols, out_vals


def dense_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b: the product every structure path falls back to."""
    return a @ b


def _columnwise(vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """vals broadcast against the rows of a vector or a block of columns."""
    return vals.reshape(vals.shape + (1,) * (x.ndim - 1))


def diagonal_dot(diag: np.ndarray, x: np.ndarray) -> np.ndarray:
    """diag(diag) x for a vector or a block of columns: row i is
    diag[i] x[i], the one nonzero term of the dense product's entries."""
    return _columnwise(diag, x) * x


def monomial_dot(mono: tuple, x: np.ndarray) -> np.ndarray:
    """M x for the (cols, vals) of `real_monomial`, a gather: row i is
    vals[i] x[cols[i]], the one nonzero term of the dense product's
    entries."""
    cols, vals = mono
    return _columnwise(vals, x) * x[cols]


def monomial_gram(mono: tuple, n: int) -> np.ndarray:
    """The real diagonal of M* M for the (cols, vals) of `real_monomial` of
    an n-column M; its off-diagonal entries are exact zeros."""
    cols, vals = mono
    out = np.zeros(n)
    rows = np.flatnonzero(vals)
    out[cols[rows]] = vals[rows] * vals[rows]
    return out


def _unit_permutation(v: np.ndarray) -> np.ndarray | None:
    """Row of each column's single nonzero, when v is a permutation matrix
    whose nonzeros are exactly 1; None otherwise."""
    # row j of v.T is column j of v; an empty one reads as value 0
    mono = real_monomial(v.T)
    if mono is None or np.any(mono[1] != 1.0):
        return None
    return mono[0]


def _basis_apply(v: np.ndarray, fvals) -> np.ndarray:
    """V diag(fvals) V* as dense products."""
    return v @ (np.asarray(fvals)[:, None] * v.conj().T)


def _diagonal_scatter(perm: np.ndarray, fvals) -> np.ndarray:
    """V diag(fvals) V* for the permutation basis V of `perm`."""
    n = perm.shape[0]
    out = np.zeros((n, n), dtype=np.complex128)
    out[perm, perm] = fvals
    return out


def _sorted_decomposition(
    x: HermitianMatrix, a: np.ndarray, v: np.ndarray, tol: float, scale: float
) -> EigenDecomposition:
    """Read the spectrum off a converged iterate and check its residuals."""
    n = x.n
    values = a.diagonal().real.copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    v = np.ascontiguousarray(v[:, order])

    perm = _unit_permutation(v)
    if perm is None:
        recon = _basis_apply(v, values)
        basis_residual = max_abs(v.conj().T @ v - np.eye(n))
    else:
        # V*V is exactly I, and V diag(values) V* is values on the diagonal
        recon = _diagonal_scatter(perm, values)
        basis_residual = 0.0
    recon_residual = max_abs(x.mat - recon)
    limit = tol * (1.0 + scale)
    if recon_residual > limit or basis_residual > max(tol, 64 * n * np.finfo(float).eps):
        raise ConvergenceError(
            f"eigendecomposition residuals out of tolerance "
            f"(reconstruction {recon_residual:.3e}, unitarity {basis_residual:.3e})"
        )
    return EigenDecomposition(
        _frozen(values), _frozen(v), recon_residual, basis_residual,
        None if perm is None else _frozen(perm),
    )


def _jacobi(xs: tuple, tol: float, max_sweeps: int) -> list:
    """Sweep a stack of n-by-n Hermitian matrices (n >= 1) to diagonal form."""
    n = xs[0].n
    eps = np.finfo(float).eps
    a = np.array([x.mat for x in xs])
    scales = [max_abs(x.mat) for x in xs]
    stops = [max(tol * (1.0 + sc) / 4.0, 8.0 * n * eps * sc) for sc in scales]
    v = np.zeros_like(a)
    v.reshape(len(xs), n * n)[:, :: n + 1] = 1.0
    rounds = None  # fetched by the first sweep that rotates

    # input index of each member still in the stack
    members = list(range(len(xs)))
    # input index -> converged (a, v), or the off-diagonal max it stopped at
    outcome: dict = {}
    for sweep in range(max_sweeps + 1):
        off = _off_diagonal_max(a)
        keep = []
        for j, member in enumerate(members):
            if off[j] <= stops[member]:
                outcome[member] = (a[j], v[j])
            elif sweep == max_sweeps:
                outcome[member] = float(off[j])
            else:
                keep.append(j)
        if not keep:
            break
        if len(keep) < len(members):
            a, v = a[keep], v[keep]
            members = [members[j] for j in keep]
        skip = np.array([stops[member] for member in members])[:, None] / (8.0 * n)
        if rounds is None:
            rounds = _rotation_rounds(n)
        for p, q in rounds:
            apq = a[:, p, q]
            mags = np.abs(apq)
            b, i = np.nonzero(mags > skip)
            if not b.size:
                continue
            pl, ql, apql, magl = p[i], q[i], apq[b, i], mags[b, i]
            phase = apql / magl
            tau = (a[b, ql, ql].real - a[b, pl, pl].real) / (2.0 * magl)
            sign = np.where(tau >= 0.0, 1.0, -1.0)
            t = sign / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            _apply_rotations(a, v, b, pl, ql, c, s, phase)
            a[b, pl, ql] = 0.0
            a[b, ql, pl] = 0.0
        # keep the iterates exactly Hermitian against rounding drift
        a = (a + a.conj().transpose(0, 2, 1)) / 2.0

    decs = []
    for member, x in enumerate(xs):
        result = outcome[member]
        if isinstance(result, float):
            raise ConvergenceError(
                f"Jacobi eigensolver did not converge in {max_sweeps} sweeps "
                f"(off-diagonal {result:.3e}, target {stops[member]:.3e})"
            )
        decs.append(_sorted_decomposition(x, *result, tol, scales[member]))
    return decs


def eigh(
    x: HermitianMatrix,
    eig_tol: float | None = None,
    max_sweeps: int = DEFAULT_JACOBI_SWEEPS,
) -> EigenDecomposition:
    """Cyclic Jacobi eigendecomposition of a Hermitian matrix.

    The one-member case of `eigh_stack`.  Raises ConvergenceError when the
    sweep budget is exhausted, which signals pathological input.
    """
    return eigh_stack([x], eig_tol, max_sweeps)[0]


def eigh_stack(
    xs: Sequence[HermitianMatrix],
    eig_tol: float | None = None,
    max_sweeps: int = DEFAULT_JACOBI_SWEEPS,
) -> tuple[EigenDecomposition, ...]:
    """Cyclic Jacobi eigendecompositions of same-size Hermitian matrices.

    Sweeps rotate away off-diagonal entries round by round until the largest
    one falls below the stopping threshold.  The members are swept together,
    each round one set of array operations for the whole stack, but each
    keeps its own thresholds and rotates only its own live pairs, and a
    member leaves the stack once it has converged: every result has the bits
    of that matrix decomposed alone.  Members go through in input order, in
    stacks of at most `_STACK_BYTES` of gathered columns per round.  Raises
    ValueError on mixed sizes, and ConvergenceError for the first member, in
    input order, that exhausts the sweep budget or misses its residual
    checks.
    """
    tol = DEFAULT_TOLERANCES.eig_tol if eig_tol is None else eig_tol
    xs = tuple(xs)
    sizes = {x.n for x in xs}
    if len(sizes) > 1:
        raise ValueError(f"a stack needs matrices of one size, got sizes {sorted(sizes)}")
    if not xs:
        return ()
    n = xs[0].n
    if n == 0:
        empty = _frozen(np.zeros((0, 0), dtype=np.complex128))
        perm = _frozen(np.zeros(0, dtype=np.intp))
        return tuple(EigenDecomposition(np.zeros(0), empty, 0.0, 0.0, perm) for _ in xs)
    # a round gathers about n/2 columns of n complex entries per member
    per_stack = max(1, _STACK_BYTES // (8 * n * n))
    decs = []
    for first in range(0, len(xs), per_stack):
        decs += _jacobi(xs[first : first + per_stack], tol, max_sweeps)
    return tuple(decs)


def spectral_apply(dec: EigenDecomposition, fvals: np.ndarray) -> np.ndarray:
    """Assemble V diag(fvals) V* for per-eigenvalue function values.

    With a permutation basis (`dec.perm`) the values are scattered onto the
    diagonal, the exact result of the dense product.
    """
    if dec.perm is not None:
        return _diagonal_scatter(dec.perm, fvals)
    return _basis_apply(dec.basis, fvals)


class PsdCheck(NamedTuple):
    is_psd: bool
    min_eig: float


def psd_check(
    x: HermitianMatrix,
    tol: float | None = None,
    eig_tol: float | None = None,
    dec: EigenDecomposition | None = None,
) -> PsdCheck:
    """Toleranced nonnegativity test: passes iff min eig >= -tol*(1+||X||).

    `dec` is the spectral decomposition of x, made here with `eig_tol`
    when None.
    """
    t = DEFAULT_TOLERANCES.psd_tol if tol is None else tol
    if x.n == 0:
        return PsdCheck(True, 0.0)
    if dec is None:
        dec = eigh(x, eig_tol)
    min_eig = float(dec.values[0])
    return PsdCheck(min_eig >= -t * (1.0 + x.norm_max()), min_eig)


def _require_psd(x: HermitianMatrix, dec: EigenDecomposition, psd_tol: float, what: str):
    floor = -psd_tol * (1.0 + x.norm_max())
    if x.n and dec.values[0] < floor:
        raise NotPsdError(
            f"{what}: min eigenvalue {dec.values[0]:.6e} below allowed {floor:.3e}"
        )


def sqrt_psd(
    x: HermitianMatrix,
    tols: Tolerances = DEFAULT_TOLERANCES,
    dec: EigenDecomposition | None = None,
) -> HermitianMatrix:
    """Principal square root of a nonnegative matrix.

    Eigenvalues negative within psd_tol are clamped to zero; anything more
    negative raises NotPsdError rather than being silently repaired.
    """
    if dec is None:
        dec = eigh(x, tols.eig_tol)
    _require_psd(x, dec, tols.psd_tol, "square root")
    root_vals = np.sqrt(np.clip(dec.values, 0.0, None))
    return hermitian(spectral_apply(dec, root_vals), tols.herm_tol)


class PinvSqrt(NamedTuple):
    root: HermitianMatrix            # X^{+1/2}: inverse square root on the range
    projector: HermitianMatrix       # orthogonal projector onto the numerical range
    rank: int


def pinv_sqrt(
    x: HermitianMatrix,
    tols: Tolerances = DEFAULT_TOLERANCES,
    dec: EigenDecomposition | None = None,
) -> PinvSqrt:
    """Pseudo-inverse square root of a nonnegative matrix.

    Eigenvalues at or below tols.rank_tol * max eigenvalue count as kernel
    and map to zero; the returned projector spans the numerical range and
    its trace is the numerical rank.
    """
    if dec is None:
        dec = eigh(x, tols.eig_tol)
    _require_psd(x, dec, tols.psd_tol, "pseudo-inverse square root")
    lam_max = float(dec.values[-1]) if x.n else 0.0
    cutoff = tols.rank_tol * max(lam_max, 0.0)
    kept = dec.values > cutoff
    inv_vals = np.where(kept, 1.0 / np.sqrt(np.where(kept, dec.values, 1.0)), 0.0)
    proj_vals = kept.astype(float)
    root = hermitian(spectral_apply(dec, inv_vals), tols.herm_tol)
    projector = hermitian(spectral_apply(dec, proj_vals), tols.herm_tol)
    return PinvSqrt(root, projector, int(np.count_nonzero(kept)))

