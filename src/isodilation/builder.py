"""Construction of m-isometric dilations.

Given an operator corner T (expansive and m-concave, or 3-concave), each
builder returns the truncation of the block dilation

        W = [ T  0   0   0  ...
              U  0   0   0  ...
              0  S1  0   0  ...
              0  0   S2  0  ...
              ...              ]

on H + l2(H'), cut to n_blocks copies of H'.  One recipe, `_construct`,
makes it from two inputs: a metric M >= 0, whose numerical range is H'
and whose root, compressed to H', is U, and a form on H', represented by
A <= 0.  The gate, the range and both roots R = M^(1/2) and R+ come from
one kernel, `hermitian.psd_root`.  Each builder takes the run's
`DefectForms`, from which it reads the corner, the defect forms and the
tolerances, and only chooses the inputs:

* general path: M is an invariant metric Q with T*QT = Q, and A
  represents the m-defect through the quotient form
  <A Q^(1/2) f, Q^(1/2) g> = <defect_m f, g>;
* 3-concave path: M is the 2-defect Delta, and A represents
  <T* defect_3 T f, g> over the range of Delta^(1/2);
* reference path (identity weights): M = Q - defect_1 and A = 0, so all
  S_j = I.

The weight sequence comes from the degree-(m-1) matrix polynomial
p(z) = I - z(z-1)...(z-m+2)/(m-1)! * A, which at integer points is
p(n) = I - C(n, m-1) A, via the commuting telescoping construction
S_n = p(n)^(1/2) p(n-1)^(-1/2).  It gives cumulative moduli
|S_n ... S_1|^2 = p(n) exactly and hence an m-isometric weight shift;
S_n = I for n < m-1, and S_(m-1) = (I - A)^(1/2) is B.  The weights are
one (horizon, d, d) `Block` stack: when the eigenbasis of A is a real
monomial (on every shift, and on a normal corner whose forms need no
rotation) every S_n is diagonal and the stack is stored as its (horizon,
d) diagonals, a monomial `Block`; otherwise it is the `Block` of a dense
stack checked by `hermitian`.  The returned `AssembledDilation` stores the
`Block`s of the model and that stack, not copies; the verifier forms the
cumulative moduli from the stack W stores.  On a shift the metric, A and
the roots are diagonals and U and the compression monomials, from where
they are made (`_construct`).
"""

import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    IllDefinedFormError,
    NotInvertibleError,
    NotNegativeError,
    NotPsdError,
)
from .hermitian import (
    Block,
    EigenDecomposition,
    HermitianMatrix,
    eigh,
    hermitian,
    hermitian_diagonal,
    hermitian_difference,
    max_difference,
    psd_check,
    psd_root,
)
from .operators import DefectForms, OperatorCorner
from .qsolver import QSolution
from .tolerances import DEFAULT_TOLERANCES, Tolerances

# the weight stack always holds S_1 .. S_8, which the diagonal cross-check
# and the report read, whatever the number of blocks
LEADING_WEIGHTS = 8


@dataclass(frozen=True)
class DilationModel:
    """Everything produced by one construction run, on the exact window.

    `corner` is the window-restricted H-block operator; `compression` is
    basis*, the map of H onto H' whose rows are orthonormal vectors of H
    spanning H' (a row gather on a permutation eigenbasis); `u` maps H to
    H' in the compressed coordinates; `a` lives on H'.  `compression` and
    `u` are the read-only `Block`s `_construct` made, U with that
    compression: monomials made from their nonzeros when the metric's
    eigenbasis is one (on a shift), dense otherwise.  `a` and the defect
    forms are then diagonals too.  B = S_(m-1) is read from the weight
    stack.
    """

    m: int
    path: str
    corner: OperatorCorner
    defect_m: HermitianMatrix
    defect_prev: HermitianMatrix
    compression: Block
    u: Block
    a: HermitianMatrix
    b_norm: float  # spectral norm of B
    welldef_residual: float
    # window norm of the form the representer A stands for: the m-defect on
    # the general path, the T-compressed 3-defect on the 3-concave path.
    # S_(m-1) = I exactly when this form vanishes.
    remark_form_norm: float = 0.0

    @property
    def dim_h(self) -> int:
        return self.corner.n

    @property
    def dim_hprime(self) -> int:
        return self.compression.shape[0]


@dataclass(frozen=True)
class AssembledDilation:
    """Finite truncation of the dilation on H + n_blocks copies of H'.

    Stored as its blocks, the `Block`s of the model and of the weight
    stack, not copies: the corner `t` (w x w), `u` (d x w) and the whole
    weight stack S_1..S_horizon as one (horizon, d, d) `Block`, kept as
    its (horizon, d) diagonals when `build_weights` made it diagonal.  W
    applies its leading n_blocks - 1 members; the verifier's weight
    checks read all of it, member by member or as diagonals.  `apply`
    acts with the truncated W through the blocks, all slices or gathers
    on a shift; the dense `matrix` is built only on request.
    The structure of each stored array is read once, from its own
    nonzeros, so a corrupted block is multiplied as stored.
    """

    t: Block
    u: Block
    weights: Block
    n_blocks: int
    model: DilationModel

    @property
    def dim_h(self) -> int:
        return self.t.shape[0]

    @property
    def dim_hprime(self) -> int:
        return self.u.shape[0]

    @property
    def dim_total(self) -> int:
        return self.dim_h + self.n_blocks * self.dim_hprime

    @cached_property
    def _applied(self) -> Block:
        """S_1..S_(n_blocks-1), the members W applies, sliced once so that
        every `apply` multiplies through one read of their nonzeros."""
        return self.weights[: self.n_blocks - 1]

    def block_slice(self, k: int) -> slice:
        """Coordinate slice of block k (0 is H, 1..n_blocks are H' copies)."""
        if k == 0:
            return slice(0, self.dim_h)
        if not 1 <= k <= self.n_blocks:
            raise IndexError(f"block {k} outside 0..{self.n_blocks}")
        start = self.dim_h + (k - 1) * self.dim_hprime
        return slice(start, start + self.dim_hprime)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W x for a full vector of the truncation or a block of them as
        columns.

        T and U act on the H part, block k+1 receives S_k times block k in
        one batched product, and the last block's content falls off the
        truncation.
        """
        w, d, n = self.dim_h, self.dim_hprime, self.n_blocks
        cols = x if x.ndim == 2 else x[:, None]
        count = cols.shape[1]
        if cols.shape[0] != self.dim_total:
            raise DimensionError(f"length {cols.shape[0]} is not {self.dim_total}")
        out = np.empty((self.dim_total, count), dtype=np.complex128)
        out[:w] = self.t.dot(cols[:w])
        if d:
            out[w : w + d] = self.u.dot(cols[:w])
            tail = cols[w : w + (n - 1) * d].reshape(n - 1, d, count)
            out[w + d :] = self._applied.dot(tail).reshape((n - 1) * d, count)
        return out if x.ndim == 2 else out[:, 0]

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense truncated block matrix, read-only, built on first use."""
        mat = np.zeros((self.dim_total, self.dim_total), dtype=np.complex128)
        mat[: self.dim_h, : self.dim_h] = self.t.mat
        if self.dim_hprime:
            mat[self.block_slice(1), : self.dim_h] = self.u.mat
            for j, s in enumerate(self._applied.mat, start=1):
                mat[self.block_slice(j + 1), self.block_slice(j)] = s
        mat.setflags(write=False)
        return mat


def _construct(
    forms: DefectForms,
    m: int,
    path: str,
    w: int,
    metric: HermitianMatrix,
    numerator: HermitianMatrix | None,
    n_blocks: int,
    what: str,
    dec: EigenDecomposition | None = None,
    range_scale: float = 0.0,
) -> AssembledDilation:
    """The dilation on H + n_blocks copies of H' built on the leading
    w-block of the corner of `forms`, with the run's tolerances
    `forms.tols`.

    H' is the numerical range of the metric M >= 0 that `psd_root` keeps,
    given `range_scale`, and U is the root R of M compressed to it.  A
    represents the form <X f, g> of the numerator X: R+ X R+ compressed
    to the range, well defined only when X vanishes on the kernel of R,
    certified by the residual ||X - R (R+ X R+) R||, and it must be
    nonpositive; the weights telescope p(n) = I - C(n, m-1) A.  Every
    product is a `Block` product.  Over a monomial eigenbasis (a
    permutation, on a shift) the roots are diagonals, the compression and
    U monomials made from its nonzeros, and A of a diagonal X the diagonal
    `congruence_diagonal` forms, each entry the one term of the dense
    product; any other eigenbasis takes the dense products.  With no
    numerator A = 0, and every weight is I, one broadcast diagonal stack.
    The stack holds S_1 up to the horizon max(n_blocks - 1,
    LEADING_WEIGHTS) + m + 1, which the verifier's weight checks read past
    the members W applies.  `dec` is the spectral decomposition of the
    metric, made here when None.  A zero-dimensional H' yields W = T, the
    degenerate dilation of an isometric input.  Spec files enforce
    n_blocks >= m + 2 so every verifier window is nonempty; the dilation
    itself only needs two blocks.
    """
    if n_blocks < 2:
        raise DimensionError(f"need at least 2 blocks, got {n_blocks}")
    horizon = max(n_blocks - 1, LEADING_WEIGHTS) + m + 1
    tols = forms.tols
    if dec is None:
        dec = eigh(metric, tols.eig_tol)
    kept, root, inv_root = psd_root(metric, tols, dec, range_scale, what=what)
    if dec.block.mono is None:
        basis_block = dec.block if kept.all() else Block(np.ascontiguousarray(dec.basis[:, kept]))
        compression = Block(basis_block.mat.conj().T)
        u = Block(compression.dot(hermitian(root.mat, tols.herm_tol).mat))
        for block in (compression, u):
            block.mat.setflags(write=False)
    else:  # made from the monomial's nonzeros: V* on the kept range, U = V* R
        compression = dec.block.adjoint()[kept]
        basis_block = compression.adjoint()
        u = root.then(compression)
    d = compression.shape[0]

    if numerator is None:
        a = HermitianMatrix.diag(np.zeros(d))
        weights = Block.diag(np.broadcast_to(np.ones(d), (horizon, d)))
        lam_a_min = welldef = form_norm = 0.0
    else:
        a_full = inv_root.then(numerator.block.then(inv_root))
        welldef = max_difference(numerator.block, root.then(a_full.then(root)))
        form_norm = numerator.norm_max()
        limit = tols.welldef_tol * (1.0 + form_norm)
        if welldef > limit:
            raise IllDefinedFormError(
                f"{what}: form does not vanish on the metric kernel "
                f"(residual {welldef:.3e}, allowed {limit:.3e})"
            )
        a_diag = a_full.as_diagonal()
        if a_diag is not None and basis_block.mono is not None:
            a = HermitianMatrix.diag(basis_block.congruence_diagonal(a_diag))
        else:
            a = hermitian(basis_block.congruence(a_full.mat), tols.herm_tol)
        a, a_dec = _clamp_nonpositive(a, tols, what)
        weights = build_weights(a, m, horizon, tols, dec=a_dec)
        lam_a_min = float(a_dec.values[0]) if d else 0.0

    model = DilationModel(
        m=m,
        path=path,
        corner=forms.corner.leading(w),
        defect_m=forms.on(m, w),
        defect_prev=forms.on(max(m - 1, 1), w),
        compression=compression,
        u=u,
        a=a,
        # B = (I - A)^(1/2) is the weight S_(m-1)
        b_norm=float(np.sqrt(1.0 - lam_a_min)) if d else 0.0,
        welldef_residual=welldef,
        remark_form_norm=form_norm,
    )
    return AssembledDilation(model.corner.block, u, weights, n_blocks, model)


def _clamp_nonpositive(
    a: HermitianMatrix, tols: Tolerances, what: str
) -> tuple[HermitianMatrix, EigenDecomposition]:
    """Enforce A <= 0, clamping eigenvalues positive within psd_tol to zero.

    Returns the clamped A with its spectral decomposition.
    """
    dec = eigh(a, tols.eig_tol)
    if a.n == 0 or dec.values[-1] <= 0.0:
        return a, dec
    if not psd_check(a, tols.psd_tol, dec=dec, negate=True).is_psd:
        raise NotNegativeError(
            f"{what}: representer has positive eigenvalue {dec.values[-1]:.3e}, "
            "contradicting concavity"
        )
    values = np.minimum(dec.values, 0.0)
    values.setflags(write=False)
    if dec.block.mono is None:
        clamped = hermitian(dec.block.outer(values), tols.herm_tol)
    else:
        clamped = HermitianMatrix.diag(dec.block.outer_diagonal(values))
    return clamped, dataclasses.replace(dec, values=values)


def build_weights(
    a: HermitianMatrix,
    m: int,
    horizon: int,
    tols: Tolerances = DEFAULT_TOLERANCES,
    dec: EigenDecomposition | None = None,
) -> Block:
    """The telescoping weights S_1 .. S_horizon of p(n) = I - C(n, m-1) A.

    At integer points the weight polynomial z(z-1)...(z-m+2)/(m-1)! is the
    exact integer C(n, m-1), and every p(n) is a function of the single
    Hermitian matrix A = V diag(lam) V*, so each weight is formed on that
    one spectrum: S_n = V diag(p_n(lam)^(1/2) p_(n-1)(lam)^(-1/2)) V* with
    p_n(lam) = 1 - C(n, m-1) lam, and |S_n ... S_1|^2 telescopes to p(n).
    S_n = I for n < m-1 and S_(m-1) = (I - A)^(1/2) = B.  Returns the
    (horizon, d, d) stack as a `Block`, member n-1 being S_n.  When V is a
    real monomial every S_n is the diagonal `outer_diagonal` writes, and
    the stack is the `Block` of those (horizon, d) diagonals, checked by
    `hermitian_diagonal`; otherwise it is the `Block` of the dense stack,
    checked by `hermitian`.  `dec` is the spectral decomposition of A,
    made here when None.  Raises NotInvertibleError when some p(n) is not
    positive definite, which a nonpositive A rules out.
    """
    if m < 2:
        raise ValueError(f"weight construction needs m >= 2, got {m}")
    if dec is None:
        dec = eigh(a, tols.eig_tol)
    basis = dec.block
    diagonal = basis.mono is not None
    shape = (horizon, a.n) if diagonal else (horizon, a.n, a.n)
    stack = np.empty(shape, dtype=np.complex128)
    inv_sqrt_prev = np.ones(a.n)
    for n in range(1, horizon + 1):
        p_n = 1.0 - math.comb(n, m - 1) * dec.values
        if a.n and p_n.min() <= 0.0:
            raise NotInvertibleError(
                f"p({n}) = I - C({n}, {m - 1}) A has eigenvalue {p_n.min():.3e}; "
                "the representer A is not nonpositive"
            )
        sqrt_n = np.sqrt(p_n)
        f = sqrt_n * inv_sqrt_prev
        stack[n - 1] = basis.outer_diagonal(f) if diagonal else basis.outer(f)
        inv_sqrt_prev = 1.0 / sqrt_n
    if diagonal:
        return hermitian_diagonal(stack, tols.herm_tol)
    return hermitian(stack, tols.herm_tol).block


def build_general_model(
    forms: DefectForms,
    m: int,
    q: QSolution,
    n_blocks: int,
) -> AssembledDilation:
    """Run the general construction for the expansive m-concave corner of
    `forms`: the metric is the invariant Q, the form the m-defect."""
    w = min(forms.corner.window_after(m), q.q.n)
    return _construct(
        forms, m, "general_m", w, q.q.restrict(w), forms.on(m, w), n_blocks,
        "general construction",
    )


def build_three_concave_model(
    forms: DefectForms,
    n_blocks: int,
) -> AssembledDilation:
    """Run the 3-concave construction (no expansivity, no metric solve).

    The metric is the 2-defect and the form <T* defect_3 T f, g>.  Both
    sign preconditions are checked, in this order: the 2-defect must be
    nonnegative and the 3-defect nonpositive on the window.  The gate on
    the 2-defect and the construction share one decomposition of `forms`.
    """
    m = 3
    t, tols = forms.corner, forms.tols
    w = t.window_after(m + 1)  # the represented form compresses beta_3 by T
    if w <= 0:
        raise DimensionError("corner too small for the 3-concave construction")
    gate = forms.psd(2, tols.psd_tol, w)
    if not gate.is_psd:
        raise NotPsdError(f"2-defect must be nonnegative (min eig {gate.min_eig:.3e})")
    sign = forms.psd(3, tols.psd_tol, w, negate=True)
    if not sign.is_psd:
        raise NotNegativeError(
            f"operator is not 3-concave on the window (max eig {-sign.min_eig:.3e})"
        )
    beta_3 = forms.full(3)
    if beta_3.diagonal is not None and t.block.mono is not None:
        numerator = HermitianMatrix.diag(t.block.congruence_diagonal(beta_3.diagonal)[:w])
    else:
        numerator = hermitian(t.congruence(beta_3.mat)[:w, :w], tols.herm_tol)
    return _construct(
        forms, m, "three_concave", w, forms.on(2, w), numerator, n_blocks,
        "3-concave construction", dec=forms.decomposition(2, w),
    )


def build_badea_2iso(
    forms: DefectForms,
    q: QSolution,
    n_blocks: int,
) -> AssembledDilation:
    """Reference 2-isometric dilation with identity weights.

    The metric is Q minus the 1-defect, which must be nonnegative, and A
    = 0: the weight shift is the unweighted (isometric) shift.  The
    difference is formed from Q and the 1-defect, so roundoff lives at
    (1 + their scale); a range cutoff relative to lam_max alone would
    promote pure noise to range directions when the difference vanishes.
    """
    m = 2
    w = min(forms.corner.window_after(m), q.q.n)
    defect_1 = forms.on(1, w)
    gap = hermitian_difference(q.q.restrict(w), defect_1, forms.tols.herm_tol)
    return _construct(
        forms, m, "badea_2iso", w, gap, None, n_blocks,
        "metric minus 1-defect", range_scale=1.0 + q.q.norm_max() + defect_1.norm_max(),
    )
