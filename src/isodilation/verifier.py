"""Independent verification of every checkable identity of a built dilation.

`verify_run` makes every check of a run, in report order, and each check
but two reads its verdict off one rule, residual <= tolerance (`_result`).
All checks are measurements on exact windows: the truncated dilation is not
globally m-isometric (boundary blocks leak), so each check restricts its
test vectors to supports whose forward orbit under the required number of
applications stays inside exact blocks and coordinates.  Randomized test
vectors are complex Gaussian on the permitted support, deterministic given
the seed.  Each randomized check carries all its trials as the columns of
one block, and every inner product it reads is one `np.vdot` per column
(`_column_dots`), summed as the same dot on a lone vector.
Minimality, the criterion identity and the non-isomorphism certificate
read one object per dilation, its orbit Grams (`orbit_grams`), and draw
no trial.  Every weight check reads the one weight stack the dilation
stores: `b_square`, `remark_consistency` and the diagonal agreement read
its members, and the cumulative and weight-shift checks read the moduli
|S_n ... S_1|^2 that `_cumulative_moduli` forms from it once per run.
"""

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .builder import AssembledDilation, DilationModel
from .diagonal import DiagonalModel, dense_agreement_residual
from .errors import WindowExhaustedError
from .hermitian import Block, HermitianMatrix, hermitian, max_abs
from .qsolver import QSolution, stein_residual
from .tolerances import DEFAULT_SEED, DEFAULT_TOLERANCES, DEFAULT_TRIALS, Tolerances

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


_CHECK_SALTS = {
    "powers_formula": 11,
    "w_m_isometry": 13,
}


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, _CHECK_SALTS.get(name, 1)])


def _trial_draws(rng: np.random.Generator, trials: int, sizes) -> np.ndarray:
    """A (trials, sum(sizes)) array whose row i holds one complex Gaussian
    segment per size (n real parts, then n imaginary parts), trial after
    trial.  All of it comes from one `standard_normal` call, split in the
    order of segment-by-segment draws: the Generator's stream is the same,
    so are the values."""
    sizes = list(sizes)
    raw = rng.standard_normal((trials, 2 * sum(sizes)))
    out = np.empty((trials, sum(sizes)), dtype=np.complex128)
    at = 0
    for n in sizes:
        out[:, at : at + n] = raw[:, 2 * at : 2 * at + n] + 1j * raw[:, 2 * at + n : 2 * (at + n)]
        at += n
    return out


def _trial_block(
    rng: np.random.Generator, trials: int, size: int, head: int, blocks: int, d: int, at: int
) -> np.ndarray:
    """A (size, trials) block, one trial per column: complex Gaussian on
    the leading `head` coordinates and on `blocks` blocks of dimension d
    laid end to end from coordinate `at`, zero elsewhere."""
    draws = _trial_draws(rng, trials, [head] + [d] * blocks)
    x = np.zeros((size, trials), dtype=np.complex128)
    x[:head] = draws[:, :head].T
    x[at : at + blocks * d] = draws[:, head:].T
    return x


def _column_dots(a: np.ndarray) -> np.ndarray:
    """The squared norm of each column.  One `np.vdot` per column of a
    contiguous copy: each column sums as the same dot on a lone vector,
    where one reduction over all columns (`einsum`) sums in another
    order."""
    return np.array([np.vdot(x, x).real for x in np.ascontiguousarray(a.T)])


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
    """P_1..P_n (`p`, `Block`s) and G_0..G_n (`g`, (w, w) arrays) of a
    dilation of n blocks; see `orbit_grams`."""

    dilation: AssembledDilation
    p: list
    g: list


def orbit_grams(dilation: AssembledDilation) -> OrbitGrams:
    """The orbit of H under W to n_blocks powers, from the stored
    blocks: P_k = S_(k-1)...S_1 U and G_j = P_H W*^j W^j|_H.  For h
    in H, W^j h = W^(j-1) (T h) + P_j h with the last term alone in block
    j, so G_j = T* G_(j-1) T + P_j* P_j with G_0 = I, and
    <W^(j+r) h, W^j k> = <G_j T^r h, k>.  G_j is exact on the leading
    window_after(j) block of the corner."""
    prods = [dilation.u]
    for k in range(dilation.n_blocks - 1):
        prods.append(prods[-1].then(dilation.weights[k]))
    grams = [np.eye(dilation.dim_h, dtype=np.complex128)]
    for p in prods:
        grams.append(dilation.t.congruence(grams[-1]) + p.gram())
    return OrbitGrams(dilation, prods, grams)


def _cumulative_moduli(weights: Block, herm_tol: float) -> HermitianMatrix:
    """The cumulative moduli |S_n ... S_1|^2, n = 1..horizon, of a weight
    stack, one (horizon, d, d) stack: each running product is extended by
    the next weight (`Block.then`) and its Gram taken."""
    left = Block.identity(weights.shape[-1])
    cumulative = np.empty(weights.shape, dtype=np.complex128)
    for k in range(weights.shape[0]):
        left = left.then(weights[k])
        cumulative[k] = left.gram()
    return hermitian(cumulative, herm_tol)


def verify_run(
    dilation: AssembledDilation,
    q: QSolution | None,
    reference: AssembledDilation | None,
    diag: DiagonalModel | None,
    seed: int,
    trials: int,
    tols: Tolerances,
) -> VerificationReport:
    """Every check of one run, in report order.

    `q` is the metric of the general path, `reference` the identity-weight
    dilation of an m = 2 run and `diag` the diagonal model of a shift; each
    adds its checks when given.  The reference dilation's checks carry the
    prefix `badea_`, and the certificate expects a Gram gap exactly when
    the 1-defect of T exceeds `cert_tol` on window_after(1), the window
    and threshold of the certificate itself.  The orbit Grams of each
    dilation are built once, here, and the cumulative moduli of the main
    dilation's weight stack.
    """
    model = dilation.model
    rep = VerificationReport()
    if q is not None:
        scale = 1.0 + q.q.norm_max()
        w = model.dim_h
        rep.add(_result(
            "q_invariance", stein_residual(model.corner, q.q.mat[:w, :w]), tols.stein_tol * scale,
            f"Stein residual of the {q.method} metric",
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
    i_minus_a = hermitian(np.eye(model.a.n) - model.a.mat, tols.herm_tol)
    b = dilation.weights[model.m - 2]
    rep.add(_result(
        "b_square", max_abs(b.then(b).mat - i_minus_a.mat),
        tols.sqrt_tol * (1.0 + i_minus_a.norm_max()), "B^2 reconstructs I - A",
    ))
    if model.path == "general_m":
        gram = model.u_block.gram()
        diff = model.corner.congruence(gram) - gram
        win = model.corner.window_after(1)
        rep.add(_result(
            "u_invariance", max_abs(diff[:win, :win]),
            tols.stein_tol * (1.0 + max_abs(gram)),
            f"T* U*U T = U*U on the leading {win}-block",
        ))

    grams = orbit_grams(dilation)
    cumulative = _cumulative_moduli(dilation.weights, tols.herm_tol)
    rep.add(check_cumulative_polynomial(model, cumulative, tols=tols))
    rep.add(check_weight_shift_isometry(cumulative, model.m, tols=tols))
    rep.add(check_dilation_property(dilation, tols=tols))
    rep.add(check_powers_formula(dilation, trials=trials, seed=seed, tols=tols))
    rep.add(check_w_m_isometry(dilation, trials=trials, seed=seed, tols=tols))
    rep.add(check_criterion_identity(grams, tols=tols))
    rep.add(check_minimality(grams))
    rep.add(remark_consistency(dilation, tols=tols))
    if diag is not None:
        rep.add(_result(
            "diagonal_dense_agreement", dense_agreement_residual(dilation, diag),
            tols.agreement_tol,
            "diagonal fast path vs dense eigendecomposition path (A, B, U, S)",
        ))

    if reference is not None:
        reference_grams = orbit_grams(reference)
        for check in (
            check_dilation_property(reference, tols=tols),
            check_w_m_isometry(reference, trials=trials, seed=seed, tols=tols),
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
    the composition of the stored T's block (`t`, as in `apply`)
    n times: the blocks 1..n of W^n H never enter block 0 of a later
    power, so dropping them leaves the residual unchanged.  It is
    rounding-level regardless of truncation (zero when the stored T is the
    model's T) and is compared on the shrinking exact window of T^n.
    """
    n_max = dilation.n_blocks
    t = dilation.model.corner
    w = t.n
    cur = tn = Block.identity(w)
    residual = 0.0
    for n in range(1, n_max + 1):
        cur, tn = cur.then(dilation.t), tn.then(t.block)
        residual = max(residual, _leading_difference(cur, tn, max(t.window_after(n), 1)))
    return _result(
        "dilation_property",
        residual,
        tols.dilation_tol,
        f"powers 1..{n_max} on the leading {w}-block",
    )


def _leading_difference(a: Block, b: Block, win: int) -> float:
    """max |a - b| over the leading win-block.  When both are monomials it
    is read off their column maps and values: a row's entries differ by
    |a_i - b_i| where both sit in one column, and by each value alone where
    they do not, the values in columns past the window read as 0."""
    if a.mono is None or b.mono is None:
        return max_abs(a.mat[:win, :win] - b.mat[:win, :win])
    (a_cols, a_vals), (b_cols, b_vals) = a.mono, b.mono
    a_cols, b_cols = a_cols[:win], b_cols[:win]
    a_vals = np.where(a_cols < win, a_vals[:win], 0.0)
    b_vals = np.where(b_cols < win, b_vals[:win], 0.0)
    apart = np.maximum(np.abs(a_vals), np.abs(b_vals))
    return float(np.max(np.where(a_cols == b_cols, np.abs(a_vals - b_vals), apart)))


def check_powers_formula(
    dilation: AssembledDilation,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> CheckResult:
    """Closed-form block formula for W^m h against direct multiplication.

    Block k of W^m h is T^m h_0 (k = 0), U T^(m-1) h_0 (k = 1),
    S_(k-1)...S_1 U T^(m-k) h_0 (2 <= k <= m), and S_(k-1)...S_(k-m) h_(k-m)
    beyond.  Test vectors are supported so every referenced entry is exact.

    Both sides read the weights stored in `dilation`, so the check covers
    only how `apply` places blocks and the stored T and U against the
    model.  A corrupted weight passes here; `w_m_isometry`,
    `weight_shift_m_isometry` and `cumulative_matches_polynomial` are the
    checks that catch it.
    """
    model = dilation.model
    m = model.m
    w = model.dim_h
    d = model.dim_hprime
    h0_dim = _h_support(model, m)
    top_block = max(dilation.n_blocks - m, 0)
    rng = _rng(seed, "powers_formula")

    # weight products do not depend on the trial: the prefixes
    # S_(k-1)...S_1 for k <= m and the products S_(k-1)...S_(k-m) beyond
    weights = [dilation.weights[k] for k in range(dilation.n_blocks - 1)]
    one = Block.identity(d)
    prefixes = [one]
    for k in range(2, min(m, dilation.n_blocks) + 1):
        prefixes.append(prefixes[-1].then(weights[k - 2]))
    products = {}
    for k in range(m + 1, dilation.n_blocks + 1):
        prod = one
        for i in range(k - m, k):
            prod = prod.then(weights[i - 1])
        products[k] = prod

    # one trial per column, blocks 1..top_block contiguous after H
    h = _trial_block(rng, trials, dilation.dim_total, h0_dim, top_block, d, dilation.dim_h)
    y = h
    for _ in range(m):
        y = dilation.apply(y)

    expected = np.zeros_like(h)
    t_pows = [h[:w]]
    for _ in range(m):
        t_pows.append(model.corner.dot(t_pows[-1]))
    expected[:w] = t_pows[m]
    if d:
        for k in range(1, min(m, dilation.n_blocks) + 1):
            expected[dilation.block_slice(k)] = prefixes[k - 1].dot(model.u_block.dot(t_pows[m - k]))
        for k, prod in products.items():
            expected[dilation.block_slice(k)] = prod.dot(h[dilation.block_slice(k - m)])

    norms = np.sqrt(_column_dots(h))
    errors = np.max(np.abs(y - expected), axis=0, initial=0.0)
    residual = float(np.max(errors / np.maximum(norms, 1.0), initial=0.0))
    return _result(
        "powers_formula",
        residual,
        tols.powers_tol,
        f"h0 on {h0_dim} of {w} coords, blocks 1..{top_block}, {trials} trials",
    )


def check_w_m_isometry(
    dilation: AssembledDilation,
    m: int | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> CheckResult:
    """m-isometry defect of W on windowed test vectors.

    The m-th forward difference of k -> ||W^k x||^2 must vanish for every x
    whose m-step forward orbit stays inside exact blocks and coordinates.
    W is applied m times to one block holding every trial as a column.
    """
    model = dilation.model
    m = model.m if m is None else m
    h0_dim = _h_support(model, m)
    d = model.dim_hprime
    top_block = max(dilation.n_blocks - m, 0)
    rng = _rng(seed, "w_m_isometry")

    x = _trial_block(rng, trials, dilation.dim_total, h0_dim, top_block, d, dilation.dim_h)
    norms_sq = [_column_dots(x)]
    for _ in range(m):
        x = dilation.apply(x)
        norms_sq.append(_column_dots(x))
    defect = np.diff(norms_sq, n=m, axis=0)[0]
    residual = np.max(np.abs(defect) / np.maximum(norms_sq[0], 1e-300), initial=0.0)
    return _result(
        "w_m_isometry",
        residual,
        tols.isometry_tol,
        f"support {h0_dim} of {model.dim_h} coords + blocks 1..{top_block}, {trials} trials",
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
    stack = np.stack([grams.g[j][:win, :win] for j in range(m + 1)])
    return _result(
        "criterion_identity",
        max_abs(np.diff(stack, n=m, axis=0)),
        tols.criterion_tol,
        f"order-{m} difference of G_0..G_{m} on the leading {win} of {model.dim_h} coords",
    )


def check_weight_shift_isometry(
    cumulative: HermitianMatrix, m: int, tols: Tolerances = DEFAULT_TOLERANCES
) -> CheckResult:
    """m-isometry of the weight shift in cumulative form.

    The m-th forward difference of n -> |S_n ... S_1|^2 (with the empty
    product at n = 0) must vanish, read on the cumulative moduli of the
    stored weight stack (`_cumulative_moduli`), so a corrupted stored
    weight shows here.
    """
    tolerance = tols.difference_tol * (1.0 + cumulative.norm_max())
    horizon = cumulative.mat.shape[0]
    if horizon < m:
        raise WindowExhaustedError(
            f"need at least {m} weights for the order-{m} difference, have {horizon}"
        )
    eye = np.eye(cumulative.n, dtype=np.complex128)
    stack = np.concatenate([eye[None], cumulative.mat])
    count = len(stack) - m
    residual = max_abs(np.diff(stack, n=m, axis=0))
    return _result(
        "weight_shift_m_isometry",
        residual,
        tolerance,
        f"order-{m} differences at n = 0..{count - 1}",
    )


def check_cumulative_polynomial(
    model: DilationModel, cumulative: HermitianMatrix, tols: Tolerances = DEFAULT_TOLERANCES
) -> CheckResult:
    """Cumulative moduli of the stored weight stack (`_cumulative_moduli`)
    must equal the weight polynomial at integer points,
    p(n) = I - C(n, m-1) A, formed from the model's representer A."""
    tolerance = tols.cumulative_tol * (1.0 + cumulative.norm_max())
    horizon = cumulative.mat.shape[0]
    coeffs = np.array([float(math.comb(n, model.m - 1)) for n in range(1, horizon + 1)])
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
        norm_sq = max(norm_sq, float(np.max(gram.diagonal().real)))
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
        max_gap = max(max_gap, max_abs(general.g[j][:win, :win] - reference.g[j][:win, :win]))
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
    s_norm = max_abs(dilation.weights.mat[model.m - 2] - np.eye(model.dim_hprime))
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
