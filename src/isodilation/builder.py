"""Constructive assembly of m-isometric dilations.

Given an operator corner T (expansive and m-concave, or 3-concave), the
builder produces the pieces of the block dilation

        W = [ T  0   0   0  ...
              U  0   0   0  ...
              0  S1  0   0  ...
              0  0   S2  0  ...
              ...              ]

on H + l2(H').  One recipe, `_construct`, makes it from two inputs: a
metric M >= 0, whose numerical range is H' and whose root, compressed to
H', is U, and a form on H', represented by A <= 0.  The gate, the range
and both roots R = M^(1/2) and R+ come from one kernel,
`hermitian.psd_root`.  The three builders only choose the inputs:

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
one (horizon, d, d) `HermitianMatrix` stack, and the assembled W stores
the `Block`s of the model and that stack's own `Block`, not copies; the
verifier forms the cumulative moduli from the stack W stores.
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
    max_abs,
    psd_check,
    psd_root,
)
from .operators import DefectForms, OperatorCorner
from .qsolver import QSolution
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class DilationModel:
    """Everything produced by one construction run, on the exact window.

    `corner` is the window-restricted H-block operator; `basis` holds
    orthonormal columns spanning H' inside H-coordinates; `u` maps H to H'
    in the compressed coordinates; `a` lives on H'.  B = S_(m-1) is read
    from the weight stack.
    """

    m: int
    path: str
    corner: OperatorCorner
    defect_m: HermitianMatrix
    defect_prev: HermitianMatrix
    basis: np.ndarray
    u: np.ndarray
    a: HermitianMatrix
    b_norm: float  # spectral norm of B
    welldef_residual: float
    # window norm of the form the representer A stands for: the m-defect on
    # the general path, the T-compressed 3-defect on the 3-concave path.
    # S_(m-1) = I exactly when this form vanishes.
    remark_form_norm: float = 0.0

    def __post_init__(self):
        self.basis.setflags(write=False)
        self.u.setflags(write=False)

    @property
    def dim_h(self) -> int:
        return self.corner.n

    @property
    def dim_hprime(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def compression(self) -> Block:
        """basis* as a `Block`: the map of H onto H' (a row gather on a
        permutation eigenbasis); `_construct` stores the one it made U
        with."""
        return Block(self.basis.conj().T)

    @cached_property
    def u_block(self) -> Block:
        return Block(self.u)

    def embed(self, x: np.ndarray) -> np.ndarray:
        """Conjugate an H'-operator back into H-coordinates: basis x basis*."""
        return self.compression.congruence(x)


@dataclass(frozen=True)
class AssembledDilation:
    """Finite truncation of the dilation on H + n_blocks copies of H'.

    Stored as its blocks, the `Block`s of the model and of the weight
    stack, not copies: the corner `t` (w x w), `u` (d x w) and the whole
    weight stack S_1..S_horizon as one (horizon, d, d) `Block`, the
    stack's own.  W applies its leading n_blocks - 1 members; the
    verifier's weight checks read all of it.  `apply` acts with the
    truncated W through the blocks, all slices or gathers on a shift; the
    dense `matrix` is built only on request.
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
        """W x for a vector or a block of columns.

        x holds the leading blocks 0..j of a vector of the truncation, the
        rest being zero: its length is dim_h + j * dim_hprime, and j =
        n_blocks for a full vector.  The result holds blocks
        0..min(j + 1, n_blocks): T and U act on the H part, block k+1
        receives S_k times block k in one batched product, and the last
        block's content falls off the truncation.
        """
        w, d = self.dim_h, self.dim_hprime
        cols = x if x.ndim == 2 else x[:, None]
        count = cols.shape[1]
        j = (cols.shape[0] - w) // d if d else 0
        if j < 0 or cols.shape[0] != w + j * d or j > self.n_blocks:
            raise DimensionError(f"length {cols.shape[0]} is not a leading run of blocks")
        steps = min(j, self.n_blocks - 1)
        out = np.empty((w + (steps + 1) * d, count), dtype=np.complex128)
        out[:w] = self.t.dot(cols[:w])
        if d:
            out[w : w + d] = self.u.dot(cols[:w])
            tail = cols[w : w + steps * d].reshape(steps, d, count)
            out[w + d :] = self._applied[:steps].dot(tail).reshape(steps * d, count)
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
    weights_horizon: int,
    tols: Tolerances,
    what: str,
    dec: EigenDecomposition | None = None,
    range_scale: float = 0.0,
) -> tuple[DilationModel, HermitianMatrix]:
    """The construction on the leading w-block of the corner of `forms`.

    H' is the numerical range of the metric M >= 0 that `psd_root` keeps,
    given `range_scale`, and U is the root R of M compressed to it.  A
    represents the form <X f, g> of the numerator X: R+ X R+ compressed
    to the range, well defined only when X vanishes on the kernel of R,
    certified by the residual ||X - R (R+ X R+) R||, and it must be
    nonpositive; the weights telescope p(n) = I - C(n, m-1) A.  Every
    product is a `Block` product, elementwise for a diagonal X over a
    permutation eigenbasis.  With no numerator A = 0, and every weight is
    I, one read-only broadcast stack.  `dec` is the spectral decomposition
    of the metric, made here when None.
    """
    if weights_horizon < m - 1:
        raise DimensionError(f"B is the weight S_{m - 1}; the horizon is {weights_horizon}")
    if dec is None:
        dec = eigh(metric, tols.eig_tol)
    kept, root, inv_root = psd_root(metric, tols, dec, range_scale, what=what)
    if kept.all():  # the eigenbasis itself, its structure read once
        basis, basis_block = dec.basis, dec.block
    else:
        basis = np.ascontiguousarray(dec.basis[:, kept])
        basis_block = Block(basis)
    d = basis.shape[1]

    if numerator is None:
        a = hermitian(np.zeros((d, d)), tols.herm_tol)
        weights = HermitianMatrix(
            np.broadcast_to(np.eye(d, dtype=np.complex128), (weights_horizon, d, d)), 0.0
        )
        lam_a_min = welldef = form_norm = 0.0
    else:
        r, r_inv = Block(root), Block(inv_root)
        a_full = r_inv.then(numerator.block.then(r_inv))
        welldef = max_abs(numerator.mat - r.then(a_full.then(r)).mat)
        form_norm = numerator.norm_max()
        limit = tols.welldef_tol * (1.0 + form_norm)
        if welldef > limit:
            raise IllDefinedFormError(
                f"{what}: form does not vanish on the metric kernel "
                f"(residual {welldef:.3e}, allowed {limit:.3e})"
            )
        a_mat = basis_block.congruence(a_full.mat)
        a, a_dec = _clamp_nonpositive(hermitian(a_mat, tols.herm_tol), tols, what)
        weights = build_weights(a, m, weights_horizon, tols, dec=a_dec)
        lam_a_min = float(a_dec.values[0]) if d else 0.0

    compression = Block(basis.conj().T)
    model = DilationModel(
        m=m,
        path=path,
        corner=forms.corner.leading(w),
        defect_m=forms.on(m, w),
        defect_prev=forms.on(max(m - 1, 1), w),
        basis=basis,
        u=compression.dot(hermitian(root, tols.herm_tol).mat),
        a=a,
        # B = (I - A)^(1/2) is the weight S_(m-1)
        b_norm=float(np.sqrt(1.0 - lam_a_min)) if d else 0.0,
        welldef_residual=welldef,
        remark_form_norm=form_norm,
    )
    # the block U was made with, so that its structure is read once
    model.__dict__["compression"] = compression
    return model, weights


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
    clamped = hermitian(dec.block.outer(values), tols.herm_tol)
    return clamped, dataclasses.replace(dec, values=values)


def _forms_of(t: OperatorCorner, forms: DefectForms | None, tols: Tolerances) -> DefectForms:
    """The run's defect forms of t, or fresh ones for a direct call."""
    if forms is None:
        return DefectForms(t, tols)
    if forms.corner is not t:
        raise ValueError("the defect forms belong to another corner")
    if forms.tols != tols:
        raise ValueError("the defect forms were made with other tolerances")
    return forms


def build_weights(
    a: HermitianMatrix,
    m: int,
    horizon: int,
    tols: Tolerances = DEFAULT_TOLERANCES,
    dec: EigenDecomposition | None = None,
) -> HermitianMatrix:
    """The telescoping weights S_1 .. S_horizon of p(n) = I - C(n, m-1) A.

    At integer points the weight polynomial z(z-1)...(z-m+2)/(m-1)! is the
    exact integer C(n, m-1), and every p(n) is a function of the single
    Hermitian matrix A = V diag(lam) V*, so each weight is formed on that
    one spectrum: S_n = V diag(p_n(lam)^(1/2) p_(n-1)(lam)^(-1/2)) V* with
    p_n(lam) = 1 - C(n, m-1) lam, and |S_n ... S_1|^2 telescopes to p(n).
    S_n = I for n < m-1 and S_(m-1) = (I - A)^(1/2) = B.  Returns the
    (horizon, d, d) stack, member n-1 being S_n.  `dec` is the spectral
    decomposition of A, made here when None.  Raises
    NotInvertibleError when some p(n) is not positive definite, which a
    nonpositive A rules out.
    """
    if m < 2:
        raise ValueError(f"weight construction needs m >= 2, got {m}")
    if dec is None:
        dec = eigh(a, tols.eig_tol)
    stack = np.empty((horizon, a.n, a.n), dtype=np.complex128)
    inv_sqrt_prev = np.ones(a.n)
    for n in range(1, horizon + 1):
        p_n = 1.0 - math.comb(n, m - 1) * dec.values
        if a.n and p_n.min() <= 0.0:
            raise NotInvertibleError(
                f"p({n}) = I - C({n}, {m - 1}) A has eigenvalue {p_n.min():.3e}; "
                "the representer A is not nonpositive"
            )
        sqrt_n = np.sqrt(p_n)
        stack[n - 1] = dec.block.outer(sqrt_n * inv_sqrt_prev)
        inv_sqrt_prev = 1.0 / sqrt_n
    return hermitian(stack, tols.herm_tol)


def assemble_dilation(
    model: DilationModel,
    weights: HermitianMatrix,
    n_blocks: int,
) -> AssembledDilation:
    """Assemble the truncated dilation from its blocks.

    Block (0,0) is T, block (1,0) is U, block (j+1, j) is S_j; everything
    else is zero; all are stored as the `Block`s of the model and of the
    weight stack, not copies.  A zero-dimensional H' yields W = T, the
    degenerate dilation of an isometric input.  Spec files enforce n_blocks >= m + 2
    so every verifier window is nonempty; the assembly itself only needs
    two blocks.
    """
    if n_blocks < 2:
        raise DimensionError(f"need at least 2 blocks, got {n_blocks}")
    w = model.dim_h
    d = model.dim_hprime
    horizon = weights.mat.shape[0]
    if horizon < n_blocks - 1:
        raise DimensionError(
            f"need {n_blocks - 1} weights to fill {n_blocks} blocks, have {horizon}"
        )
    if model.u.shape != (d, w):
        raise DimensionError(f"U must be {d}x{w}, got {model.u.shape}")
    return AssembledDilation(model.corner.block, model.u_block, weights.block, n_blocks, model)


def build_general_model(
    t: OperatorCorner,
    m: int,
    q: QSolution,
    weights_horizon: int,
    tols: Tolerances = DEFAULT_TOLERANCES,
    forms: DefectForms | None = None,
) -> tuple[DilationModel, HermitianMatrix]:
    """Run the general construction for an expansive m-concave corner: the
    metric is the invariant Q, the form the m-defect."""
    forms = _forms_of(t, forms, tols)
    w = min(t.window_after(m), q.q.n)
    return _construct(
        forms, m, "general_m", w, q.q.restrict(w), forms.on(m, w), weights_horizon,
        tols, "general construction",
    )


def build_three_concave_model(
    t: OperatorCorner,
    weights_horizon: int,
    tols: Tolerances = DEFAULT_TOLERANCES,
    forms: DefectForms | None = None,
) -> tuple[DilationModel, HermitianMatrix]:
    """Run the 3-concave construction (no expansivity, no metric solve).

    The metric is the 2-defect and the form <T* defect_3 T f, g>.  Both
    sign preconditions are checked, in this order: the 2-defect must be
    nonnegative and the 3-defect nonpositive on the window.  The gate on
    the 2-defect and the construction share one decomposition; `forms`
    supplies the defect forms of t and their decompositions (computed here
    when None).
    """
    m = 3
    forms = _forms_of(t, forms, tols)
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
    numerator = hermitian(t.congruence(forms.full(3).mat)[:w, :w], tols.herm_tol)
    return _construct(
        forms, m, "three_concave", w, forms.on(2, w), numerator, weights_horizon,
        tols, "3-concave construction", dec=forms.decomposition(2, w),
    )


def build_badea_2iso(
    t: OperatorCorner,
    q: QSolution,
    weights_horizon: int,
    tols: Tolerances = DEFAULT_TOLERANCES,
    forms: DefectForms | None = None,
) -> tuple[DilationModel, HermitianMatrix]:
    """Reference 2-isometric dilation with identity weights.

    The metric is Q minus the 1-defect, which must be nonnegative, and A
    = 0: the weight shift is the unweighted (isometric) shift.  The
    difference is formed from Q and the 1-defect, so roundoff lives at
    (1 + their scale); a range cutoff relative to lam_max alone would
    promote pure noise to range directions when the difference vanishes.
    """
    m = 2
    forms = _forms_of(t, forms, tols)
    w = min(t.window_after(m), q.q.n)
    defect_1 = forms.on(1, w)
    gap = hermitian(q.q.restrict(w).mat - defect_1.mat, tols.herm_tol)
    return _construct(
        forms, m, "badea_2iso", w, gap, None, weights_horizon, tols,
        "metric minus 1-defect", range_scale=1.0 + q.q.norm_max() + defect_1.norm_max(),
    )
