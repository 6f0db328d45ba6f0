"""Independent verification of every checkable identity of a built dilation.

`verify_run` makes every check of a run, in report order, and each check
but two reads its verdict off one rule, residual <= tolerance (`_result`).
All checks are measurements on exact windows: the truncated dilation is not
globally m-isometric (boundary blocks leak), so each check reads only the
coordinates and blocks whose forward orbit under the required number of
applications stays inside exact blocks and coordinates.  No check draws a
trial: each is an exact identity on objects the run stores.  W is a block
lower shift, W(h, x_1, x_2, ...) = (T h, U h, S_1 x_1, S_2 x_2, ...), so
W^j carries H into H and blocks 1..j and block k into block k + j alone,
and on the exact window W*^j W^j is block diagonal,
G_j + sum_k |S_(k+j-1)...S_k|^2.  The m-isometry of W (`w_m_isometry`)
is the order-m difference of those diagonal blocks, and the closed form
of the blocks of W^m (`powers_formula`) holds for any stored blocks, so
that check compares the stored T and U with the model's.
Minimality, the criterion identity, the m-isometry and the
non-isomorphism certificate read one object per dilation, its orbit Grams
(`orbit_grams`).  Every weight check reads the one weight stack the
dilation stores: `b_square`, `remark_consistency` and the diagonal
agreement read its members, and the cumulative and weight-shift checks
read the moduli |S_n ... S_1|^2 that `_cumulative_moduli` forms from it
once per run; `w_m_isometry` forms the block moduli at each start from its
slices the same way.  The moduli of a monomial stack are diagonal and kept
as their (horizon, d) diagonals, on which the checks read their
differences (when A is diagonal too, for the polynomial); any other stack
keeps them dense.

On a shift every object these checks compare is diagonal or monomial, and
each is compared as such, with the bits of the dense comparison: the
orbit Grams G_j are (w,) diagonals, `q_invariance` and `u_invariance`
difference T*QT and Q on diagonals (`stein_residual`), `b_square` compares
B^2 with the diagonal I - A, and the certificate, `remark_consistency` and
`dilation_property` read differences off column maps and values
(`max_difference`).  A dense input, or a stored block corrupted off its
structure, is compared densely.
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .builder import AssembledDilation, DilationModel
from .diagonal import build_diagonal_model, dense_agreement_residual
from .errors import WindowExhaustedError
from .hermitian import (
    Block,
    hermitian,
    hermitian_diagonal,
    hermitian_difference,
    identity,
    max_abs,
    max_difference,
)
from .qsolver import QSolution, stein_residual
from .tolerances import DEFAULT_TOLERANCES, Tolerances

# orbit columns count towards the rank above this fraction of the largest
# orbit-column norm
_MINIMALITY_REL_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    """One named residual check; passed iff residual <= tolerance.

    The exceptions are the norm-gap certificate, a strict inequality claim
    with expectation matching (see `nonisomorphism_certificate`), and
    `remark_consistency`, which compares two indicators.
    """

    name: str
    residual: float
    tolerance: float
    passed: bool
    window: str


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: CheckResult) -> CheckResult:
        self.checks.append(check)
        return check


def _h_support(model: DilationModel, applications: int) -> int:
    """Coordinates of the H block whose orbit stays exact that many steps."""
    t = model.corner
    support = t.window_after(applications)
    if support <= 0:
        raise WindowExhaustedError(
            f"window {t.n} cannot absorb {applications} applications of a "
            f"bandwidth-{t.bandwidth} corner"
        )
    return support


def _result(name, residual, tolerance, window) -> CheckResult:
    residual = float(residual)
    tolerance = float(tolerance)
    return CheckResult(name, residual, tolerance, residual <= tolerance, window)


@dataclass(frozen=True)
class OrbitGrams:
    """P_1..P_n (`p`) and G_0..G_n (`g`) of a dilation of n blocks, all
    `Block`s, each G_j kept as its diagonal while it is one; see
    `orbit_grams`."""

    dilation: AssembledDilation
    p: list
    g: list


def orbit_grams(dilation: AssembledDilation) -> OrbitGrams:
    """The orbit of H under W to n_blocks powers, from the stored
    blocks: P_k = S_(k-1)...S_1 U and G_j = P_H W*^j W^j|_H.  For h
    in H, W^j h = W^(j-1) (T h) + P_j h with the last term alone in block
    j, so G_j = T* G_(j-1) T + P_j* P_j with G_0 = I, and
    <W^(j+r) h, W^j k> = <G_j T^r h, k>.  G_j is exact on the leading
    window_after(j) block of the corner.  While T and the P_j are real
    monomials (on a shift) every G_j is diagonal and formed on its (w,)
    diagonal, each entry the one term of the dense sum; once a block is
    not, the G_j are dense from there on."""
    t = dilation.t
    prods = [dilation.u]
    for k in range(dilation.n_blocks - 1):
        prods.append(prods[-1].then(dilation.weights[k]))
    grams = [Block.diag(np.ones(dilation.dim_h))]
    for p in prods:
        g = grams[-1].as_diagonal()
        if g is None or t.mono is None or p.mono is None:
            grams.append(Block.dense(t.congruence(grams[-1].mat) + p.gram()))
        else:
            grams.append(Block.diag(t.congruence_diagonal(g) + p.gram_diagonal()))
    return OrbitGrams(dilation, prods, grams)


def _cumulative_moduli(weights: Block, herm_tol: float) -> Block:
    """The cumulative moduli |S_n ... S_1|^2, n = 1..horizon, of a weight
    stack, one (horizon, d, d) `Block`: each running product is extended
    by the next weight (`Block.then`) and its Gram taken.  The Gram of a
    monomial is diagonal, so a monomial stack's moduli are the `Block` of
    their (horizon, d) diagonals; any other stack's are dense."""
    left = Block.identity(weights.shape[-1])
    diagonal = weights.mono is not None
    cumulative = np.empty(weights.shape[:-1] if diagonal else weights.shape, dtype=np.complex128)
    for k in range(weights.shape[0]):
        left = left.then(weights[k])
        cumulative[k] = left.gram_diagonal() if diagonal else left.gram()
    if diagonal:
        return hermitian_diagonal(cumulative, herm_tol)
    return Block.dense(hermitian(cumulative, herm_tol).mat)


def verify_run(
    dilation: AssembledDilation,
    q: QSolution | None,
    reference: AssembledDilation | None,
    tols: Tolerances,
) -> VerificationReport:
    """Every check of one run, in report order.

    `q` is the metric of the general path and `reference` the
    identity-weight dilation of an m = 2 run; each adds its checks when
    given.  On a shift (a corner with a rule) the diagonal reference is
    built here, from the model checked and the solved metric diagonal
    `q.q_seq`, and compared with the dense blocks.  The reference
    dilation's checks carry the prefix `badea_`, and the certificate
    expects a Gram gap exactly when the 1-defect of T exceeds `cert_tol`
    on window_after(1), the window and threshold of the certificate
    itself.  The orbit Grams of each dilation are built once, here, and
    the cumulative moduli of the main dilation's weight stack;
    `w_m_isometry` forms the block moduli of each dilation's stack.
    """
    model = dilation.model
    rep = VerificationReport()
    if q is not None:
        scale = 1.0 + q.q.norm_max()
        w = model.dim_h
        rep.add(_result(
            "q_invariance", stein_residual(model.corner, q.q.restrict(w).block),
            tols.stein_tol * scale, f"Stein residual of the {q.method} metric",
        ))
        rep.add(_result(
            "q_dominance", max(0.0, -q.dominance_residual), tols.psd_tol * scale,
            f"min eig of (metric - defect) = {q.dominance_residual:.3e}",
        ))
    rep.add(_result(
        "form_welldefined", model.welldef_residual,
        tols.welldef_tol * (1.0 + model.defect_m.norm_max()),
        "quotient form vanishes on the metric kernel",
    ))
    i_minus_a = hermitian_difference(identity(model.a.n), model.a, tols.herm_tol)
    b = dilation.weights[model.m - 2]
    rep.add(_result(
        "b_square", max_difference(b.then(b), i_minus_a.block),
        tols.sqrt_tol * (1.0 + i_minus_a.norm_max()), "B^2 reconstructs I - A",
    ))
    if model.path == "general_m":
        u = model.u
        gram = Block.dense(u.gram()) if u.mono is None else Block.diag(u.gram_diagonal())
        rep.add(_result(
            "u_invariance", stein_residual(model.corner, gram),
            tols.stein_tol * (1.0 + gram.norm_max()),
            f"T* U*U T = U*U on the leading {model.corner.window_after(1)}-block",
        ))

    grams = orbit_grams(dilation)
    cumulative = _cumulative_moduli(dilation.weights, tols.herm_tol)
    rep.add(check_cumulative_polynomial(model, cumulative, tols=tols))
    rep.add(check_weight_shift_isometry(cumulative, model.m, tols=tols))
    rep.add(check_dilation_property(dilation, tols=tols))
    rep.add(check_powers_formula(dilation, tols=tols))
    rep.add(check_w_m_isometry(grams, tols=tols))
    rep.add(check_criterion_identity(grams, tols=tols))
    rep.add(check_minimality(grams))
    rep.add(remark_consistency(dilation, tols=tols))
    if model.corner.rule is not None:
        diag = build_diagonal_model(model, None if q is None else q.q_seq, tols)
        rep.add(_result(
            "diagonal_dense_agreement", dense_agreement_residual(dilation, diag),
            tols.agreement_tol,
            "diagonal fast path vs dense eigendecomposition path (A, B, U, S)",
        ))

    if reference is not None:
        reference_grams = orbit_grams(reference)
        for check in (
            check_dilation_property(reference, tols=tols),
            check_w_m_isometry(reference_grams, tols=tols),
            check_minimality(reference_grams),
        ):
            rep.add(dataclasses.replace(check, name="badea_" + check.name))
        beta_1 = model.defect_prev.restrict(model.corner.window_after(1))
        rep.add(nonisomorphism_certificate(
            grams, reference_grams, expected_found=beta_1.norm_max() > tols.cert_tol, tols=tols,
        ))
    return rep


def check_dilation_property(
    dilation: AssembledDilation, tols: Tolerances = DEFAULT_TOLERANCES
) -> CheckResult:
    """Compression of powers: block (0,0) of W^n must equal T^n, n = 1..n_blocks.

    By the block structure row 0 of W contains only T, so block 0 of W x
    is T x_0 and (W^n)_00 = T (W^(n-1))_00.  Only block 0 is carried, as
    the composition of the stored T's block (`t`) n times: the blocks
    1..n of W^n H never enter block 0 of a later power, so dropping them
    leaves the residual unchanged.  It is rounding-level regardless of
    truncation (zero when the stored T is the model's T) and is compared
    on the shrinking exact window of T^n.
    """
    n_max = dilation.n_blocks
    t = dilation.model.corner
    w = t.n
    cur = tn = Block.identity(w)
    residual = 0.0
    for n in range(1, n_max + 1):
        cur, tn = cur.then(dilation.t), tn.then(t.block)
        residual = max(residual, max_difference(cur, tn, max(t.window_after(n), 1)))
    return _result(
        "dilation_property",
        residual,
        tols.dilation_tol,
        f"powers 1..{n_max} on the leading {w}-block",
    )


def check_powers_formula(
    dilation: AssembledDilation, tols: Tolerances = DEFAULT_TOLERANCES
) -> CheckResult:
    """Closed-form block formula for W^m: the stored T and U are the model's.

    Block k of W^m h is T^m h_0 (k = 0), U T^(m-1) h_0 (k = 1),
    S_(k-1)...S_1 U T^(m-k) h_0 (2 <= k <= m), and S_(k-1)...S_(k-m) h_(k-m)
    beyond.  W is a block lower shift, so the formula holds for whatever
    blocks it stores; what it asserts of a dilation is that those blocks
    are the model's.  The residual compares the stored T with the model's
    corner and the stored U with the model's U (`max_difference`), on
    their column maps and values when both are monomials.  The weights
    are the model's stack itself; `w_m_isometry`, `weight_shift_m_isometry`
    and `cumulative_matches_polynomial` read them.
    """
    model = dilation.model
    residual = max(
        max_difference(dilation.t, model.corner.block),
        max_difference(dilation.u, model.u),
    )
    return _result(
        "powers_formula",
        residual,
        tols.powers_tol,
        f"stored T ({model.dim_h} x {model.dim_h}) and U ({model.dim_hprime} x {model.dim_h}) "
        "against the model's",
    )


def _moduli_difference(cumulative: Block, m: int) -> float:
    """The largest entry of the order-m forward differences of I followed
    by the members of a stack of moduli; diagonal moduli are differenced
    as their diagonals, every other entry being an exact zero."""
    moduli = cumulative.as_diagonal()
    if moduli is None:
        moduli, empty_product = cumulative.mat, np.eye(cumulative.shape[-1])
    else:
        empty_product = np.ones(cumulative.shape[-1])
    return max_abs(np.diff(np.concatenate([empty_product[None], moduli]), n=m, axis=0))


def _gram_difference(grams: OrbitGrams, m: int, win: int) -> float:
    """The largest entry of the order-m forward difference of G_0..G_m on
    their leading win-block, on the diagonals when every G_j is one."""
    diagonals = [g.as_diagonal() for g in grams.g[: m + 1]]
    if any(g is None for g in diagonals):
        stack = np.stack([g.mat[:win, :win] for g in grams.g[: m + 1]])
    else:  # every other entry is an exact zero on each G_j
        stack = np.stack([g[:win] for g in diagonals])
    return max_abs(np.diff(stack, n=m, axis=0))


def check_w_m_isometry(
    grams: OrbitGrams, tols: Tolerances = DEFAULT_TOLERANCES
) -> CheckResult:
    """m-isometry of W on the exact window, read off its block identity.

    W is a block lower shift: W^j carries H into H and blocks 1..j, and
    block k into block k + j alone.  So on every block whose orbit stays
    stored W*^j W^j is block diagonal, G_j + sum_k |S_(k+j-1)...S_k|^2,
    and the order-m forward difference of j -> ||W^j x||^2 vanishes for
    every x of the window exactly when that of each diagonal block does:
    of the orbit Grams G_j on window_after(m), and of the block moduli at
    each start k = 1..n_blocks - m, with I at j = 0.  The moduli at a
    start are formed by `_cumulative_moduli` from the stored
    S_k..S_(k+m-1), as diagonals on a monomial stack.  The residual is the
    largest entry of all these differences.
    """
    dilation = grams.dilation
    model = dilation.model
    m = model.m
    win = _h_support(model, m)
    top = dilation.n_blocks - m
    residual = _gram_difference(grams, m, win)
    for k in range(top):
        moduli = _cumulative_moduli(dilation.weights[k : k + m], tols.herm_tol)
        residual = max(residual, _moduli_difference(moduli, m))
    return _result(
        "w_m_isometry",
        residual,
        tols.isometry_tol,
        f"order-{m} differences of G_0..G_{m} on the leading {win} of {model.dim_h} coords "
        f"and of the block moduli at starts 1..{top}",
    )


def check_criterion_identity(
    grams: OrbitGrams, tols: Tolerances = DEFAULT_TOLERANCES
) -> CheckResult:
    """Operator criterion for m-isometricity of the dilation.

    The m-defect of W compressed to H, sum_j (-1)^(m-j) C(m, j) G_j, must
    vanish; it is the m-th forward difference of G_0..G_m, compared on
    window_after(m), where each of them is exact.  It is the m-defect form
    of T plus the alternating double sum of ||S_(k-1)...S_1 U T^(l-k) h||^2
    of the stored blocks; with the m-isometry of the weight shift it is
    equivalent to W being m-isometric.
    """
    model = grams.dilation.model
    m = model.m
    win = _h_support(model, m)
    return _result(
        "criterion_identity",
        _gram_difference(grams, m, win),
        tols.criterion_tol,
        f"order-{m} difference of G_0..G_{m} on the leading {win} of {model.dim_h} coords",
    )


def check_weight_shift_isometry(
    cumulative: Block, m: int, tols: Tolerances = DEFAULT_TOLERANCES
) -> CheckResult:
    """m-isometry of the weight shift in cumulative form.

    The m-th forward difference of n -> |S_n ... S_1|^2 (with the empty
    product at n = 0) must vanish, read on the cumulative moduli of the
    stored weight stack (`_cumulative_moduli`), so a corrupted stored
    weight shows here.  Diagonal moduli are differenced as their
    diagonals: every other entry is an exact zero on both sides.
    """
    tolerance = tols.difference_tol * (1.0 + cumulative.norm_max())
    horizon = cumulative.shape[0]
    if horizon < m:
        raise WindowExhaustedError(
            f"need at least {m} weights for the order-{m} difference, have {horizon}"
        )
    return _result(
        "weight_shift_m_isometry",
        _moduli_difference(cumulative, m),
        tolerance,
        f"order-{m} differences at n = 0..{horizon - m}",
    )


def check_cumulative_polynomial(
    model: DilationModel, cumulative: Block, tols: Tolerances = DEFAULT_TOLERANCES
) -> CheckResult:
    """Cumulative moduli of the stored weight stack (`_cumulative_moduli`)
    must equal the weight polynomial at integer points,
    p(n) = I - C(n, m-1) A, formed from the model's representer A.  When
    the moduli and A are both diagonal, so is every p(n), and the two are
    compared on their diagonals."""
    tolerance = tols.cumulative_tol * (1.0 + cumulative.norm_max())
    horizon = cumulative.shape[0]
    coeffs = np.array([float(math.comb(n, model.m - 1)) for n in range(1, horizon + 1)])
    moduli, a_diag = cumulative.as_diagonal(), model.a.block.as_diagonal()
    if moduli is not None and a_diag is not None:
        residual = max_abs(moduli - (1.0 - coeffs[:, None] * a_diag))
    else:
        p = np.eye(model.a.n) - coeffs[:, None, None] * model.a.mat
        residual = max_abs(cumulative.mat - p)
    return _result(
        "cumulative_matches_polynomial",
        residual,
        tolerance,
        f"n = 1..{horizon}",
    )


def _column_space_rank(block: Block, thresh: float) -> int:
    """Numerical rank of a block's column space at the absolute threshold
    thresh.  The columns of a real monomial (every orbit block of a shift
    corner) have disjoint supports, so each residual is its column and the
    rank counts the column norms above thresh; any other block takes
    `_gram_schmidt_rank`."""
    if block.mono is None:
        return _gram_schmidt_rank(block.mat, thresh)
    return int(np.count_nonzero(np.sqrt(block.gram_diagonal()) > thresh))


def _gram_schmidt_rank(cols: np.ndarray, thresh: float) -> int:
    """Numerical rank of the column space via blocked Gram-Schmidt.

    A column counts when the norm of its residual against the columns
    accepted before it exceeds thresh.  Columns go in batches of 48, each
    projected twice against the earlier batches; inside a batch every
    column is projected twice (classical Gram-Schmidt with
    reorthogonalization) against the batch's accepted columns.
    """
    count = cols.shape[1]
    basis_blocks: list[np.ndarray] = []
    basis: np.ndarray | None = None
    for start in range(0, count, 48):
        blk = cols[:, start : start + 48].astype(np.complex128, copy=True)
        for _ in range(2):  # two-pass reorthogonalization
            if basis is not None:
                blk -= basis @ (basis.conj().T @ blk)
        # Fortran order keeps the accepted columns q[:, :k] contiguous
        q = np.empty_like(blk, order="F")
        k = 0
        for i in range(blk.shape[1]):
            v = blk[:, i]
            if k:
                for _ in range(2):
                    # (q.T @ v.conj()).conj() is q* v without copying q.conj()
                    v = v - q[:, :k] @ (q[:, :k].T @ v.conj()).conj()
            nrm = float(np.sqrt(np.vdot(v, v).real))
            if nrm > thresh:
                q[:, k] = v / nrm
                k += 1
        if k:
            basis_blocks.append(q[:, :k])
            basis = np.concatenate(basis_blocks, axis=1)
    return 0 if basis is None else basis.shape[1]


def check_minimality(grams: OrbitGrams) -> CheckResult:
    """Windowed minimality: the orbit of H under W spans the truncation.

    The orbit columns are W^n e over the H-block basis for
    n = 0..n_blocks; the residual is the defect of their
    numerical rank from the full truncated dimension.  Since
    W^(n+1) h = W^n (T h) + P_(n+1) h with the last term alone in block
    n+1, span{W^j H : j <= n+1} adds ran P_(n+1) orthogonally, and
    rank = dim H + sum_k rank P_k.  Each rank P_k uses the threshold of a
    Gram-Schmidt pass over the whole orbit, _MINIMALITY_REL_TOL times the
    largest orbit-column norm, read off the diagonals of the G_n.  On a
    shift each P_k is a real monomial matrix on U's pattern and its rank
    a count of column norms.  Vacuous for a zero-dimensional H'.
    """
    dilation = grams.dilation
    if dilation.dim_hprime == 0:
        return _result("minimality", 0.0, 0.0, "vacuous (dim H' = 0)")
    w = dilation.dim_h
    total = dilation.dim_total
    norm_sq = 1.0
    for gram in grams.g[1:]:
        diagonal = gram.as_diagonal()
        if diagonal is None:
            diagonal = gram.mat.diagonal().real
        norm_sq = max(norm_sq, float(np.max(diagonal)))
    thresh = _MINIMALITY_REL_TOL * float(np.sqrt(norm_sq))
    rank = w + sum(_column_space_rank(p, thresh) for p in grams.p)
    defect = float(total - rank)
    return _result(
        "minimality",
        defect,
        0.0,
        f"rank {rank} of {total} from powers 0..{len(grams.p)} over {w} basis vectors",
    )


def nonisomorphism_certificate(
    general: OrbitGrams,
    reference: OrbitGrams,
    expected_found: bool,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> CheckResult:
    """Orbit-Gram obstruction to an isomorphism of two dilations of T.

    A unitary that fixes H and intertwines two dilations keeps every
    <W^i h, W^j k>, so their Grams agree; for m-isometric ones G_j is a
    polynomial of degree < m in j, so Delta_j = G_j - G'_j, j = 1..m-1,
    decide it for minimal ones.  Each is read on window_after(j) of the
    shared corner, where it is exact: a gap above cert_tol certifies
    non-isomorphism, and a vanishing gap there is only necessary for an
    isomorphism.  For the m = 2 pair Delta_1 is the 1-defect of T.

    A strict-inequality claim: the residual is the largest |Delta_j|
    entry, and the check passes iff the outcome matches `expected_found`.
    """
    ctol = tols.cert_tol
    model = general.dilation.model
    if reference.dilation.dim_h != model.dim_h:
        raise ValueError("both dilations must share the H block")
    max_gap = 0.0
    gaps = []
    for j in range(1, model.m):
        win = _h_support(model, j)
        max_gap = max(max_gap, max_difference(general.g[j], reference.g[j], win))
        gaps.append(f"G_{j} - G'_{j} on the leading {win}")
    found = max_gap > ctol
    return CheckResult(
        "nonisomorphism_certificate",
        float(max_gap),
        float(ctol),
        found == expected_found,
        f"{', '.join(gaps)} of {model.dim_h} coords; "
        f"certificate {'found' if found else 'not found'} "
        f"(expected {'found' if expected_found else 'not found'})",
    )


def remark_consistency(
    dilation: AssembledDilation, tols: Tolerances = DEFAULT_TOLERANCES
) -> CheckResult:
    """The last nontrivial weight S_(m-1) of the stored stack is the
    identity exactly when the form represented by A vanishes.

    On the general path that form is the m-defect, so S_(m-1) = I iff T is
    m-isometric on the window; on the 3-concave path it is the
    T-compressed 3-defect.  Both sides are toleranced norms; the check
    passes when the two indicators agree.  Vacuous for a zero-dimensional
    H'.
    """
    model = dilation.model
    threshold = tols.class_tol
    if model.dim_hprime == 0:
        return _result("remark_consistency", 0.0, 0.0, "vacuous (dim H' = 0)")
    horizon = dilation.weights.shape[0]
    if horizon < model.m - 1:
        raise WindowExhaustedError(f"need weight S_{model.m - 1}, horizon is {horizon}")
    s_norm = max_difference(dilation.weights[model.m - 2], Block.identity(model.dim_hprime))
    form_norm = model.remark_form_norm
    s_small = s_norm <= threshold
    form_small = form_norm <= threshold
    passed = s_small == form_small
    return CheckResult(
        "remark_consistency",
        0.0 if passed else 1.0,
        0.0,
        passed,
        f"||S_{model.m - 1} - I|| = {s_norm:.3e}, represented form norm = {form_norm:.3e}",
    )
