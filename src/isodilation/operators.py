"""Operators as exact finite corners of banded (possibly infinite) operators.

A corner is the N-by-N leading block of an operator together with bandwidth
and exactness metadata.  Products of corners and the defect forms are only
trustworthy on a leading sub-block; `OperatorCorner.window_after` is the one
rule for its size, N - (operators applied) * (total bandwidth), which
replaces closure arguments about the infinite objects by exact finite
accounting.  A shift corner is made as the real monomial of its weights,
O(N) storage with no N-by-N array and no structure read back; its leading
blocks are cut from the same (cols, vals).  On a real monomial corner
(every shift's) the defect forms are made as diagonals
(`HermitianMatrix.diag`), one recursion step per form on (N,) values;
`defect_diagonal` is their closed form from the weight rule.  A dense
input keeps its dense matrix.

Finite-dimensional inputs (exact=False) are classified globally with no
window shrink.  Note that a finite-dimensional operator that is both
expansive and m-concave is necessarily unitary: its power growth is
polynomially bounded, forcing spectrum on the unit circle, while
expansivity forces |det| >= 1, so T*T = I.  All nontrivial examples are
therefore exact shift corners.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import WeightRuleError, WindowExhaustedError
from .hermitian import (
    Block,
    EigenDecomposition,
    HermitianMatrix,
    PsdCheck,
    eigh_stack,
    hermitian,
    identity,
    psd_check,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances


@dataclass(frozen=True)
class WeightRule:
    """Closed-form generator of positive scalar shift weights w_1, w_2, ...

    Catalog:
      constant(c):            w_j = c
      dirichlet:              w_j^2 = (j + 1) / j
      geometric_concave(r):   w_j^2 = 1 + r^j,  0 < r < 1
      table(values, tail):    explicit head, then a constant tail
    """

    kind: str
    c: float | None = None
    r: float | None = None
    values: tuple | None = None
    tail: float | None = None

    def __post_init__(self):
        if self.kind == "constant":
            if self.c is None or not (0.0 < self.c < math.inf):
                raise WeightRuleError(f"constant rule needs finite c > 0, got {self.c!r}")
        elif self.kind == "dirichlet":
            pass
        elif self.kind == "geometric_concave":
            if self.r is None or not (0.0 < self.r < 1.0):
                raise WeightRuleError(
                    f"geometric_concave rule needs r in (0, 1), got {self.r!r}"
                )
        elif self.kind == "table":
            if not self.values or any(not (0.0 < v < math.inf) for v in self.values):
                raise WeightRuleError(
                    "table rule needs a nonempty list of finite positive weights"
                )
            if self.tail is None or not (0.0 < self.tail < math.inf):
                raise WeightRuleError(f"table rule needs finite tail_value > 0, got {self.tail!r}")
        else:
            raise WeightRuleError(f"unknown weight rule {self.kind!r}")

    @staticmethod
    def constant(c: float) -> "WeightRule":
        return WeightRule("constant", c=float(c))

    @staticmethod
    def dirichlet() -> "WeightRule":
        return WeightRule("dirichlet")

    @staticmethod
    def geometric_concave(r: float) -> "WeightRule":
        return WeightRule("geometric_concave", r=float(r))

    @staticmethod
    def table(values, tail: float) -> "WeightRule":
        return WeightRule("table", values=tuple(float(v) for v in values), tail=float(tail))

    def weight_sq(self, j: int) -> float:
        """Squared weight w_j^2 for j >= 1, in closed form."""
        if j < 1:
            raise ValueError(f"weights are indexed from 1, got {j}")
        if self.kind == "constant":
            return self.c * self.c
        if self.kind == "dirichlet":
            return (j + 1) / j
        if self.kind == "geometric_concave":
            return 1.0 + self.r**j
        head = self.values
        w = head[j - 1] if j <= len(head) else self.tail
        return w * w

    def weight(self, j: int) -> float:
        return math.sqrt(self.weight_sq(j))


@dataclass(frozen=True)
class OperatorCorner:
    """N-by-N corner of a banded operator, with exactness metadata.

    exact=True means the block is the literal upper-left corner of a
    declared infinite operator; exact=False means a free-standing
    finite-dimensional operator (no window shrink applies).

    The corner is stored as its `block`.  A shift corner is made as the
    real monomial of its weights (`make_shift_corner`), so no structure is
    read and no N-by-N array is made unless `matrix` is read; a dense
    matrix given in its place is taken as `Block(matrix)`, read-only, and
    keeps dense storage.  Every product with the corner, `dot` (T x),
    `adjoint_dot` (T* x) and `congruence` (T* g T), is one of its `block`:
    on a weighted-shift corner a scaled, shifted slice, O(N) work per
    column instead of O(N^2), with the dense product's values.
    """

    block: Block
    lower_band: int
    upper_band: int
    exact: bool
    rule: WeightRule | None = None

    def __post_init__(self):
        dense = isinstance(self.block, np.ndarray)
        if dense:
            object.__setattr__(self, "block", Block(self.block))
        shape = self.block.shape
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"corner must be square, got shape {shape}")
        mono = None if dense else self.block.mono
        if mono is None:
            rows, cols = np.nonzero(self.block.mat)
        else:  # the one nonzero of each nonempty row, O(N)
            rows = mono[1].nonzero()[0]
            cols = mono[0][rows]
        outside = (rows - cols > self.lower_band) | (cols - rows > self.upper_band)
        if np.any(outside):
            i, j = int(rows[outside][0]), int(cols[outside][0])
            value = self.block.mat[i, j] if mono is None else complex(mono[1][i])
            raise ValueError(f"entry ({i},{j}) = {value} lies outside the declared band")
        if dense:
            self.block.mat.setflags(write=False)

    @classmethod
    def spanning(cls, mat: np.ndarray) -> "OperatorCorner":
        """A square complex matrix as a free-standing corner (exact=False)
        whose declared band is the one its nonzero entries span; the matrix
        is taken as given, not copied or checked further."""
        rows, cols = np.nonzero(mat)
        lower = int(np.max(rows - cols)) if rows.size else 0
        upper = int(np.max(cols - rows)) if rows.size else 0
        return cls(mat, max(lower, 0), max(upper, 0), False, None)

    @property
    def matrix(self) -> np.ndarray:
        """The read-only dense corner: a dense input as given, a monomial
        one made only when read (for tests, oracles and the dense path)."""
        return self.block.mat

    @property
    def n(self) -> int:
        return self.block.shape[0]

    @property
    def bandwidth(self) -> int:
        return self.lower_band + self.upper_band

    def leading(self, k: int) -> "OperatorCorner":
        """Leading k-by-k block; still the exact corner of the same operator.

        One per k, made on first use: the metric check and the models of
        one window share it.  A monomial corner's is cut from its (cols,
        vals), a nonzero in a column past k written as an empty row; any
        other corner's is a copy of the dense block.  The leading n-block
        is the corner itself.
        """
        if not 1 <= k <= self.n:
            raise ValueError(f"cannot take leading {k} of dimension {self.n}")
        if k == self.n:
            return self
        if k not in self._leading:
            mono = self.block.mono
            if mono is None:
                block = self.matrix[:k, :k].copy()
            else:
                inside = mono[0][:k] < k
                cols, vals = np.where(inside, mono[0][:k], 0), np.where(inside, mono[1][:k], 0.0)
                block = Block.monomial((k, k), cols, vals)
            self._leading[k] = OperatorCorner(
                block, self.lower_band, self.upper_band, self.exact, self.rule
            )
        return self._leading[k]

    @cached_property
    def _leading(self) -> dict:
        return {}

    def window_after(self, applications: int) -> int:
        """Conservative exact window after composing this corner that many times."""
        if not self.exact:
            return self.n
        return self.n - applications * self.bandwidth

    def dot(self, x: np.ndarray) -> np.ndarray:
        """T x for a vector or a block of columns."""
        return self.block.dot(x)

    def adjoint_dot(self, x: np.ndarray) -> np.ndarray:
        """T* x for a vector or a block of columns."""
        return self.block.adjoint_dot(x)

    def congruence(self, g: np.ndarray) -> np.ndarray:
        """T* g T, associated as (T* g) T like the dense product."""
        return self.block.congruence(g)


def make_shift_corner(rule: WeightRule, n: int) -> OperatorCorner:
    """Exact corner of the unilateral weighted shift generated by a rule.

    The shift maps basis vector e_{j-1} to w_j e_j, so the corner carries
    w_1 .. w_{n-1} on the first subdiagonal.  It is made as that real
    monomial: row j holds w_j at column j - 1, and row 0 is empty (column
    0, value 0), O(n) storage; `matrix` makes the dense corner if read.
    """
    if n < 2:
        raise ValueError(f"shift corner needs N >= 2, got {n}")
    cols = np.maximum(np.arange(n) - 1, 0)
    vals = np.array([0.0] + [rule.weight(j) for j in range(1, n)])
    return OperatorCorner(Block.monomial((n, n), cols, vals), 1, 0, True, rule)


def dense_corner(entries) -> OperatorCorner:
    """Free-standing finite-dimensional operator (exact=False)."""
    # C order, so that the float view below is one of (re, im) pairs
    mat = np.array(entries, dtype=np.complex128, order="C")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise ValueError(f"dense operator must be square and nonempty, got {mat.shape}")
    if not np.all(np.isfinite(mat.view(np.float64))):
        raise ValueError("dense operator entries must be finite")
    return OperatorCorner.spanning(mat)


def defect_step(
    t: OperatorCorner, beta: HermitianMatrix, tols: Tolerances = DEFAULT_TOLERANCES
) -> HermitianMatrix:
    """beta_k = T* beta_(k-1) T - beta_(k-1), the Agler-Stankus recursion
    (m-Isometric transformations of Hilbert space I, IEOT 1995).  Below
    index N - k * bandwidth, T* beta T reads beta_(k-1) inside its own
    exact window, so the window rule of `window_after` holds.  On a real
    monomial corner (a shift's) a diagonal beta_(k-1) gives a diagonal
    beta_k, each entry the one term of the dense difference."""
    if beta.diagonal is not None and t.block.mono is not None:
        return HermitianMatrix.diag(t.block.congruence_diagonal(beta.diagonal) - beta.diagonal)
    return hermitian(t.congruence(beta.mat) - beta.mat, tols.herm_tol)


def defect_diagonal(rule: WeightRule, m: int, count: int) -> np.ndarray:
    """Diagonal of the m-th defect form of the shift, entries 0 .. count-1.

    `defect_step` on the diagonal: entry n of beta_k is
    w_(n+1)^2 beta_(k-1)(n+1) - beta_(k-1)(n), from count + m ones, exact
    for every n (the rule generates the true infinite operator).
    """
    w_sq = np.array([rule.weight_sq(j) for j in range(1, count + m)])
    beta = np.ones(count + m)
    for _ in range(m):
        beta = w_sq[: beta.size - 1] * beta[1:] - beta[:-1]
    return beta


def defect_form(
    t: OperatorCorner, m: int, tols: Tolerances = DEFAULT_TOLERANCES
) -> HermitianMatrix:
    """m-th defect form beta_m = sum_k (-1)^(m-k) C(m, k) T*^k T^k.

    Computed as m steps of `defect_step` from beta_0 = I, never as the sum,
    whose terms as large as |T|^(2m) cancel down to the form.  The form
    vanishes exactly for m-isometries and is <= 0 for m-concave operators.
    Exact on the leading `t.window_after(m)` block.
    """
    if m < 1:
        raise ValueError(f"defect order must be >= 1, got {m}")
    if t.window_after(m) <= 0:
        raise WindowExhaustedError(
            f"defect order {m} exhausts the window of a size-{t.n} corner "
            f"with bandwidth {t.bandwidth}"
        )
    beta = identity(t.n)
    for _ in range(m):
        beta = defect_step(t, beta, tols)
    return beta


class DefectForms:
    """The defect forms of one corner, each computed once.

    `full(k)` is `defect_form(t, k)`, one `defect_step` from `full(k - 1)`,
    so the forms share one chain; `on(k, w)` is beta_k on its leading
    w-block (by default its exact window), and `decomposition(k, w)` is the
    one spectral decomposition of that block, made with the tolerances'
    eig_tol; `decompose` makes those of several blocks at once, one Jacobi
    stack per block size; the sign test of -beta_k reads beta_k's own
    decomposition.  It is the run's one context: `classify`, the metric
    solve and the builders read the corner, the tolerances and the forms
    from it, so they share every form and every decomposition of an
    identical block.  A smaller block of a form is another matrix and gets
    its own decomposition.  An instance belongs to one corner and one run;
    nothing outlives it.
    """

    def __init__(self, t: OperatorCorner, tols: Tolerances = DEFAULT_TOLERANCES):
        self.corner = t
        self.tols = tols
        self._full: dict[int, HermitianMatrix] = {}
        self._blocks: dict[tuple, HermitianMatrix] = {}
        self._decs: dict[tuple, EigenDecomposition] = {}

    def full(self, k: int) -> HermitianMatrix:
        """beta_k on the whole corner; exact on `corner.window_after(k)`."""
        if k not in self._full:
            if k > 1 and self.corner.window_after(k) > 0:
                self._full[k] = defect_step(self.corner, self.full(k - 1), self.tols)
            else:  # beta_1, or defect_form's error for a bad order or window
                self._full[k] = defect_form(self.corner, k, self.tols)
        return self._full[k]

    def _key(self, k: int, w: int | None) -> tuple:
        return (k, self.corner.window_after(k) if w is None else w)

    def on(self, k: int, w: int | None = None) -> HermitianMatrix:
        """beta_k on its leading w-block, default its exact window."""
        key = self._key(k, w)
        if key not in self._blocks:
            self._blocks[key] = self.full(k).restrict(key[1])
        return self._blocks[key]

    def decomposition(self, k: int, w: int | None = None) -> EigenDecomposition:
        """The spectral decomposition of `on(k, w)`."""
        return self.decompose([(k, w)])[0]

    def decompose(self, blocks) -> list[EigenDecomposition]:
        """Spectral decompositions of several `(k, w)` blocks.

        The blocks not yet decomposed are swept in one `eigh_stack` per
        block size, the sizes in order of first appearance; each result is
        bit for bit the block's decomposition alone.
        """
        keys = [self._key(*block) for block in blocks]
        by_size: dict[int, list] = {}
        for key in dict.fromkeys(keys):
            if key not in self._decs:
                by_size.setdefault(key[1], []).append(key)
        for same_size in by_size.values():
            mats = [self.on(*key) for key in same_size]
            self._decs.update(zip(same_size, eigh_stack(mats, self.tols.eig_tol)))
        return [self._decs[key] for key in keys]

    def psd(
        self, k: int, tol: float, w: int | None = None, negate: bool = False
    ) -> PsdCheck:
        """Toleranced nonnegativity of `on(k, w)`, or of its negative
        (`psd_check` on the shared decomposition)."""
        return psd_check(self.on(k, w), tol, dec=self.decomposition(k, w), negate=negate)


class FlagResidual(NamedTuple):
    ok: bool
    residual: float


@dataclass(frozen=True)
class Classification:
    """Toleranced classification flags, each with its witnessing residual.

    Residuals are minimum eigenvalues (for semidefiniteness flags) or
    max-norms (for the isometry flag), measured on the exact window only.
    """

    m: int
    expansive: FlagResidual
    m_concave: FlagResidual
    m_isometric: FlagResidual
    delta_psd: FlagResidual

    def as_dict(self) -> dict:
        flags = ("expansive", "m_concave", "m_isometric", "delta_psd")
        return {"m": self.m, **{name: getattr(self, name)._asdict() for name in flags}}


def classify(forms: DefectForms, m: int) -> Classification:
    """Classify the corner of `forms` with its tolerances: expansive,
    m-concave, m-isometric, and whether the (m-1)-defect is nonnegative
    (the precondition for the invariant metric)."""
    ctol = forms.tols.class_tol

    iso_norm = forms.on(m).norm_max()
    # beta_1, beta_m and beta_(m-1) in one stack where their windows agree
    forms.decompose([(1, None), (m, None), (max(m - 1, 1), None)])
    exp_check = forms.psd(1, ctol)
    concave_check = forms.psd(m, ctol, negate=True)
    delta_check = forms.psd(max(m - 1, 1), ctol)
    return Classification(
        m=m,
        expansive=FlagResidual(exp_check.is_psd, exp_check.min_eig),
        m_concave=FlagResidual(concave_check.is_psd, concave_check.min_eig),
        m_isometric=FlagResidual(iso_norm <= ctol * (1.0 + iso_norm), iso_norm),
        delta_psd=FlagResidual(delta_check.is_psd, delta_check.min_eig),
    )
