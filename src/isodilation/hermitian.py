"""Self-contained complex dense Hermitian linear algebra.

Everything downstream (defect forms, invariant metrics, dilation blocks)
is built from the handful of kernels in this module: a cyclic Jacobi
eigensolver for Hermitian matrices, one toleranced sign test (`psd_check`,
of X or of -X) and one root kernel (`psd_root`: the principal and
pseudo-inverse square roots of a nonnegative matrix with its numerical
range, the step every dilation is built on).  No LAPACK-backed routine is
used here.  Each Jacobi rotation round is one set of array operations,
vectorized over its disjoint rotation pairs and over a stack of same-size
matrices swept together (`eigh_stack`; `eigh` is its stack of one), so
desk-scale dimensions (a few hundred) stay cheap and several forms of one
size pay the per-round Python overhead once.  From n = `_WARM_START` on, a
member that must rotate does not start from I but from an eigenbasis of
its real tridiagonal form (`_warm_starts`: Householder reflections with
phase scaling, Sturm bisection to full precision, inverse iteration,
Gram-Schmidt twice), all without LAPACK; the Jacobi sweeps then finish
it, usually in one sweep, and their stops and residual checks alone
decide what is accepted.  Each member that rotates
keeps its iterate and accumulated basis in one (2n, n) buffer, so a
column rotation gathers, computes and scatters both at once, and the
products are formed in place with numpy's operands in one fixed order: a
broadcast complex multiply need not round like its swap, and the order is
what keeps every result bit for bit that of the one-matrix loop (see
`_apply_rotations`).

Every product with a structured matrix goes through one type, `Block`:
a block made with its structure (`Block.monomial`, `Block.diag`) keeps it,
the one reader `real_monomial` reads the structure of any other block off
its stored nonzeros, a real monomial block (a diagonal or a permutation is
one) multiplies by slices or gathers of its nonzeros, and every other
block takes `dense_product`.  `congruence_diagonal` is M* diag(g) M of a
monomial on diagonals, and `max_difference` the max-norm of a difference
of two blocks, read off the nonzeros of monomials.  Each entry of the
dense product of a monomial is one exact term plus exact zeros, so the
structured products give its bits without its n^3 work.  An eigenbasis is
one such block (`EigenDecomposition.block`): an input whose off-diagonal
entries already lie below the stopping threshold (a diagonal one, say)
takes zero sweeps, its sorted basis is a permutation matrix, and its
residuals and every function of it (`Block.outer`) are then writes onto
the diagonal.

A `HermitianMatrix` is dense, checked and symmetrized by `hermitian()`,
or a real diagonal held as its (n,) values (`HermitianMatrix.diag`), which
is exactly Hermitian: on a shift every defect form, the metric and the
representer are made as diagonals (and `psd_root` returns the roots as
`Block.diag`s), their `block` is `Block.diag`, and their dense `mat` is
made only if read.  `eigh_stack` takes a diagonal member without a Jacobi
buffer: its decomposition has the bits of the same matrix stored dense
(the stable-sorted values, the permutation basis as a monomial, both
residuals 0.0).  A dense `HermitianMatrix` may be a
stack (k, n, n), such as a dilation's weights over a basis that is not
monomial: `hermitian()` checks each member against its own threshold, its
`block` reads the structure of the whole stack once, and `eigh` refuses
it.  A stack of diagonal matrices, such as the weights over a monomial
basis, stays a `Block` of its (k, n) diagonals from where it is made:
`hermitian_diagonal` runs the same checks on them.

All values are immutable after construction and safe to share across
threads.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
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
    """Validate and copy input into a square complex128 matrix, or a stack
    (k, n, n) of them."""
    # C order, so that the float view below is one of (re, im) pairs
    mat = np.array(x, dtype=np.complex128, order="C")
    if mat.ndim not in (2, 3) or mat.shape[-2] != mat.shape[-1]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {mat.shape}")
    if mat.size and not np.all(np.isfinite(mat.view(np.float64))):
        raise ValueError("matrix entries must be finite")
    return mat


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.setflags(write=False)
    return mat


class HermitianMatrix:
    """A square complex matrix stored in symmetrized form (X + X*)/2, or a
    stack (k, n, n) of them; or a real diagonal, stored as its (n,) values.

    A real diagonal is exactly Hermitian, so `diag` takes its values as
    they are; its `mat` is made only when read, and is read-only.  Every
    reader below reads the values of a diagonal, never its `mat`.
    """

    def __init__(self, mat: np.ndarray):
        self.mat = mat
        self.diagonal = None

    @classmethod
    def diag(cls, vals) -> "HermitianMatrix":
        """The real diagonal matrix with diagonal `vals` (n,); its entries
        must be finite (ValueError), as `hermitian` asks of a dense one."""
        vals = np.array(vals, dtype=np.float64)
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix entries must be finite")
        x = cls.__new__(cls)
        x.diagonal = _frozen(vals)
        return x

    @cached_property
    def mat(self) -> np.ndarray:
        """The read-only dense form of a diagonal, made only when read."""
        return self.block.mat

    @property
    def n(self) -> int:
        return (self.mat if self.diagonal is None else self.diagonal).shape[-1]

    def norm_max(self) -> float:
        return max_abs(self.mat if self.diagonal is None else self.diagonal)

    def restrict(self, k: int) -> "HermitianMatrix":
        """Leading principal k-by-k block (still Hermitian), of each member."""
        if not 0 <= k <= self.n:
            raise ValueError(f"cannot restrict dimension {self.n} to {k}")
        if self.diagonal is not None:
            return HermitianMatrix.diag(self.diagonal[:k])
        return HermitianMatrix(_frozen(self.mat[..., :k, :k].copy()))

    @cached_property
    def block(self) -> "Block":
        if self.diagonal is not None:
            return Block.diag(self.diagonal)
        return Block(self.mat)


def hermitian(x, herm_tol: float | None = None) -> HermitianMatrix:
    """Construct a HermitianMatrix, checking the defect from the adjoint.

    A stack is checked and symmetrized member by member, each against its
    own threshold, with the bits of the member taken alone: HermitianityError
    when the max-norm of X - X* exceeds herm_tol * (1 + max-norm of X).
    """
    tol = DEFAULT_TOLERANCES.herm_tol if herm_tol is None else herm_tol
    mat = as_square_complex(x)
    # member by member: one pass over a whole weight stack read slower
    for member in mat if mat.ndim == 3 else mat[None]:
        adjoint = member.conj().T
        member_defect = max_abs(member - adjoint)
        allowed = tol * (1.0 + max_abs(member))
        if member_defect > allowed:
            raise HermitianityError(
                f"matrix deviates from its adjoint by {member_defect:.3e} "
                f"(allowed {allowed:.3e})"
            )
        member += adjoint
        member /= 2.0
    return HermitianMatrix(_frozen(mat))


def hermitian_diagonal(diags, herm_tol: float | None = None) -> "Block":
    """The stack of diagonal matrices with diagonals `diags` (..., n), as
    a `Block`, checked as `hermitian` checks their dense stack.

    Entries must be finite (ValueError), and each member's defect from its
    adjoint, max |x - conj(x)| over its diagonal, must stay within
    herm_tol * (1 + max |x|) (HermitianityError); symmetrizing then keeps
    the real part.  O(n) per member, where the dense stack takes O(n^2).
    """
    tol = DEFAULT_TOLERANCES.herm_tol if herm_tol is None else herm_tol
    x = np.asarray(diags, dtype=np.complex128)
    if x.size and not np.all(np.isfinite(x.view(np.float64))):
        raise ValueError("matrix entries must be finite")
    defect = np.max(np.abs(x - x.conj()), axis=-1, initial=0.0)
    allowed = tol * (1.0 + np.max(np.abs(x), axis=-1, initial=0.0))
    if (defect > allowed).any():
        worst = np.argmax(defect - allowed)
        raise HermitianityError(
            f"matrix deviates from its adjoint by {defect.flat[worst]:.3e} "
            f"(allowed {allowed.flat[worst]:.3e})"
        )
    return Block.diag(x.real.copy())


def hermitian_difference(
    x: HermitianMatrix, y: HermitianMatrix, herm_tol: float | None = None
) -> HermitianMatrix:
    """x - y: the difference of the values when both are diagonals, else
    `hermitian` of the dense difference."""
    if x.diagonal is not None and y.diagonal is not None:
        return HermitianMatrix.diag(x.diagonal - y.diagonal)
    return hermitian(x.mat - y.mat, herm_tol)


def identity(n: int) -> HermitianMatrix:
    return HermitianMatrix.diag(np.ones(n))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition X = V diag(values) V* with ascending values.

    `block` is V as a `Block`: the structure of a rotated basis is read off
    its stored nonzeros, never assumed, so a permutation basis multiplies
    as a monomial; a diagonal input's permutation basis is made as one
    (`_diagonal_decomposition`) and keeps no dense basis.
    """

    values: np.ndarray          # real, ascending
    recon_residual: float       # ||X - V diag(values) V*||_max
    basis_residual: float       # ||V*V - I||_max
    block: "Block"              # V, unitary, columns are eigenvectors

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def basis(self) -> np.ndarray:
        """V as a dense array: the block's `mat`, made when read on a
        monomial."""
        return self.block.mat


# Bytes below which each gather of a rotation round stays: a round is
# applied in chunks of rotations, whatever the stack.  Larger temporaries
# came from fresh pages on every round (glibc's default mmap threshold is
# 128 KiB): best of three on a 2-core Xeon, one n = 192 matrix took 2.9 s
# gathering a whole round at once and 1.4 s in chunks, three n = 64
# matrices 0.27 s and 0.15 s.
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


def _apply_rotations(av, b, p, q, c, s, phase):
    """Apply disjoint plane rotations V_i in place: a <- V* a V, v <- v V.

    `av` is a stack of (2n, n) buffers, the iterate a in rows :n over its
    accumulated basis v in rows n:, so one gather, one product per term
    and one scatter rotate the columns of both; the rows of a follow.  V_i
    acts on member b_i at coordinates (p_i, q_i) as
    [[c, s], [-conj(phase) s, conj(phase) c]] where phase is the unit phase
    of a[b, p, q].  Every entry gets the same arithmetic whatever else is
    in the stack or in its chunk (`_chunks`).

    The products are formed into the gathered columns and rows with
    `out=`, each with its operands in the order of `cp * c - cq * (s *
    conj(phase))` and `c * rp - (s * phase) * rq`: numpy's broadcast
    complex multiply need not round like its swap, and writing `rq *= c *
    phase` for `(c * phase) * rq` changed 340 of 448 seeded
    decompositions and 19 of 43 reports.  c and s are cast to complex once,
    as numpy's promotion casts them.
    """
    cc = c.astype(np.complex128)[:, None]
    ss = s.astype(np.complex128)[:, None]
    conj = phase.conj()
    s_conj, c_conj = (s * conj)[:, None], (c * conj)[:, None]
    s_ph, c_ph = (s * phase)[:, None], (c * phase)[:, None]
    n = av.shape[2]
    for i in _chunks(b.size, 2 * n):
        bi, pi, qi = b[i], p[i], q[i]
        cols_p = av[bi, :, pi]
        cols_q = av[bi, :, qi]
        sin_p = cols_p * ss[i]
        sin_q = cols_q * s_conj[i]
        np.multiply(cols_p, cc[i], out=cols_p)
        np.multiply(cols_q, c_conj[i], out=cols_q)
        av[bi, :, pi] = np.subtract(cols_p, sin_q, out=cols_p)
        av[bi, :, qi] = np.add(sin_p, cols_q, out=cols_q)
    for i in _chunks(b.size, n):
        bi, pi, qi = b[i], p[i], q[i]
        rows_p = av[bi, pi, :]
        rows_q = av[bi, qi, :]
        sin_p = ss[i] * rows_p
        sin_q = s_ph[i] * rows_q
        np.multiply(cc[i], rows_p, out=rows_p)
        np.multiply(c_ph[i], rows_q, out=rows_q)
        av[bi, pi, :] = np.subtract(rows_p, sin_q, out=rows_p)
        av[bi, qi, :] = np.add(sin_p, rows_q, out=rows_q)


def _chunks(count: int, width: int) -> list:
    """Slices of `count` rotations, each gathering less than `_STACK_BYTES`
    in rows of `width` complex entries."""
    step = max(1, (_STACK_BYTES - 1) // (16 * width))
    return [slice(at, at + step) for at in range(0, count, step)]


def _off_diagonal_max(a: np.ndarray) -> np.ndarray:
    """Max-norm of each stacked matrix with its diagonal zeroed."""
    k, n, _ = a.shape
    mags = np.abs(a).reshape(k, n * n)
    mags[:, :: n + 1] = 0.0
    return np.maximum.reduce(mags, axis=1)


def real_monomial(x: np.ndarray) -> tuple | None:
    """(cols, vals) with x[..., i, cols[..., i]] = vals[..., i] the only
    nonzero of row i, when no row and no column of x (of each matrix of a
    stack) holds more than one nonzero and all are real; None otherwise.
    An empty row reads as column 0 with value 0."""
    *lead, rows, cols = x.shape
    count = math.prod(lead)
    # real and imaginary parts in turn; a nonzero imaginary part is odd
    parts = np.ascontiguousarray(x, dtype=np.complex128).reshape(-1).view(np.float64)
    at = (parts != 0.0).nonzero()[0]
    if at.size > count * min(rows, cols) or (at & 1).any():
        return None
    row_keys, at_cols = np.divmod(at >> 1, max(cols, 1))
    seen = np.zeros(count * cols, dtype=bool)
    seen[row_keys // max(rows, 1) * cols + at_cols] = True
    if (row_keys[1:] == row_keys[:-1]).any() or np.count_nonzero(seen) != at.size:
        return None
    out_cols = np.zeros(count * rows, dtype=np.intp)
    out_vals = np.zeros(count * rows)
    out_cols[row_keys], out_vals[row_keys] = at_cols, parts[at]
    return out_cols.reshape(*lead, rows), out_vals.reshape(*lead, rows)


def dense_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b: the product of every block that is not a real monomial."""
    return a @ b


def _index(ix: np.ndarray):
    """ix as a slice when it is one ascending run, so that indexing with it
    takes a view instead of a gather."""
    if ix.size == 0:
        return slice(0, 0)
    start, stop = int(ix[0]), int(ix[-1]) + 1
    if stop - start == ix.size and (ix[1:] > ix[:-1]).all():
        return slice(start, stop)
    return ix


class Block:
    """A matrix, or a stack of same-shape matrices, multiplied through the
    structure of its own nonzeros, `mono = real_monomial(mat)`, read once.

    On a real monomial each product touches only the nonzeros (a slice
    where they run in one ascending step, as on a shift corner or a
    diagonal, a gather otherwise), each entry the one term the dense
    product rounds, in its association, and +0.0 on an empty row.  Any
    other block takes `dense_product`.  A composition of monomials (`then`)
    is built from their (cols, vals) and made dense only if `mat` is read;
    any other composition is dense.
    """

    def __init__(self, mat: np.ndarray):
        self.mat = mat
        self.shape = mat.shape

    @classmethod
    def monomial(cls, shape: tuple, cols: np.ndarray, vals: np.ndarray) -> "Block":
        """The real monomial matrix of `shape`, or stack of them, with
        x[..., i, cols[..., i]] = vals[..., i]."""
        block = cls.__new__(cls)
        block.shape = shape
        block.mono = (cols, vals)  # known, so never read
        return block

    @classmethod
    def diag(cls, vals: np.ndarray) -> "Block":
        """The diagonal matrix, or stack of them, with real diagonals
        vals (..., n)."""
        cols = np.broadcast_to(np.arange(vals.shape[-1]), vals.shape)
        return cls.monomial(vals.shape + vals.shape[-1:], cols, vals)

    @classmethod
    def identity(cls, n: int) -> "Block":
        return cls.diag(np.ones(n))

    @classmethod
    def dense(cls, mat: np.ndarray) -> "Block":
        """`mat` taken dense, its structure not read."""
        block = cls(mat)
        block.mono = None
        return block

    @cached_property
    def mono(self) -> tuple | None:
        return real_monomial(self.mat)

    @cached_property
    def mat(self) -> np.ndarray:
        """The read-only dense form of a block built by `monomial`, made
        only when read."""
        cols, vals = self.mono
        out = np.zeros(self.shape, dtype=np.complex128)
        # the rows of a stack end to end; an empty row writes its 0 at
        # column 0, which no other row writes
        rows = out.reshape(math.prod(self.shape[:-1]), self.shape[-1])
        rows[np.arange(rows.shape[0]), cols.reshape(-1)] = vals.reshape(-1)
        return _frozen(out)

    def as_diagonal(self) -> np.ndarray | None:
        """The diagonals (..., n) of a square monomial block whose every
        nonzero lies on the diagonal; None for any other block."""
        if self.mono is None:
            return None
        cols, vals = self.mono
        on_diagonal = (cols == np.arange(self.shape[-1])) | (vals == 0.0)
        return vals if on_diagonal.all() else None

    def norm_max(self) -> float:
        """Entrywise max-norm, read off the nonzeros of a monomial."""
        return max_abs(self.mat if self.mono is None else self.mono[1])

    @cached_property
    def _entries(self) -> tuple:
        """(rows, cols, vals) of the nonzeros, the members of a stack laid
        end to end as one block-diagonal matrix; rows and cols as `_index`."""
        cols, vals = self.mono
        if vals.ndim > 1:
            r, c = self.shape[-2:]
            cols = cols.ravel() + np.repeat(np.arange(math.prod(self.shape[:-2])) * c, r)
            vals = vals.ravel()
        rows = vals.nonzero()[0]
        return _index(rows), _index(cols[rows]), vals[rows]

    def __getitem__(self, key) -> "Block":
        """Member or leading members of a stack, with the structure read;
        a monomial's are sliced from its nonzeros, never from `mat`."""
        if self.mono is None:
            mat = self.mat[key]
            return self if mat.shape == self.shape else Block.dense(mat)
        cols, vals = self.mono[0][key], self.mono[1][key]
        shape = cols.shape + self.shape[-1:]
        return self if shape == self.shape else Block.monomial(shape, cols, vals)

    def _scatter(self, size: int, dst, src, x: np.ndarray) -> np.ndarray:
        """The rows dst of a size-row result are vals times the rows src of
        x (a vector or a block of columns); every other row is +0.0."""
        vals = self._entries[2]
        prod = (vals if x.ndim == 1 else vals[:, None]) * x[src]
        if isinstance(dst, slice) and dst.stop - dst.start == size:
            return prod
        out = np.zeros((size,) + x.shape[1:], dtype=prod.dtype)
        out[dst] = prod
        return out

    def dot(self, x: np.ndarray) -> np.ndarray:
        """M x for a vector or a block of columns; on a stack, member k
        times x[k], the members of x matching those of the stack."""
        if self.mono is None:
            return dense_product(self.mat, x)
        rows, cols, _ = self._entries
        lead = len(self.shape) - 2
        if not lead:
            return self._scatter(self.shape[0], rows, cols, x)
        # a stack's members, and those of x, laid end to end
        flat = x.reshape((math.prod(x.shape[: lead + 1]),) + x.shape[lead + 1 :])
        out = self._scatter(math.prod(self.shape[:-1]), rows, cols, flat)
        return out.reshape(self.shape[:-1] + x.shape[lead + 1 :])

    def adjoint_dot(self, y: np.ndarray) -> np.ndarray:
        """M* y for a vector or a block of columns."""
        if self.mono is None:
            return dense_product(self.mat.conj().T, y)
        rows, cols, _ = self._entries
        return self._scatter(self.shape[1], cols, rows, y)

    def congruence(self, g: np.ndarray) -> np.ndarray:
        """M* g M, associated as (M* g) M like the dense product."""
        y = self.adjoint_dot(g)
        if self.mono is None:
            return dense_product(y, self.mat)
        rows, cols, vals = self._entries
        out = np.zeros((y.shape[0], self.shape[1]), dtype=y.dtype)
        out[:, cols] = y[:, rows] * vals  # column cols[i] of y M
        return out

    def congruence_diagonal(self, g: np.ndarray) -> np.ndarray:
        """The diagonal of M* diag(g) M of a monomial M, (v_i g[r_i]) v_i
        at the column of each nonzero v_i of row r_i, 0 at an empty
        column: the one term of that entry of `congruence`, whose every
        other entry is an exact zero."""
        rows, cols, vals = self._entries
        out = np.zeros(self.shape[1])
        out[cols] = (vals * g[rows]) * vals
        return out

    def adjoint(self) -> "Block":
        """M* of a monomial M, as a monomial: row c of M* holds v at column
        r for each nonzero v of M at (r, c)."""
        cols, vals = self.mono
        rows = vals.nonzero()[0]
        out_cols = np.zeros(self.shape[1], dtype=np.intp)
        out_vals = np.zeros(self.shape[1])
        out_cols[cols[rows]], out_vals[cols[rows]] = rows, vals[rows]
        return Block.monomial(self.shape[::-1], out_cols, out_vals)

    def then(self, other: "Block") -> "Block":
        """The composition `other` after `self`, other.mat @ self.mat; with
        a refused factor it is dense, and its structure is not read."""
        if self.mono is None or other.mono is None:
            return Block.dense(dense_product(other.mat, self.mat))
        (cols, vals), (o_cols, o_vals) = self.mono, other.mono
        shape = (other.shape[0], self.shape[1])
        if not vals.size:  # no inner dimension: the zero matrix
            return Block.monomial(shape, np.zeros(shape[0], dtype=np.intp), np.zeros(shape[0]))
        return Block.monomial(shape, cols[o_cols], o_vals * vals[o_cols])

    def outer(self, f: np.ndarray) -> np.ndarray:
        """M diag(f) M* for a square M, associated as M (diag(f) M*) like
        the dense product: on a monomial, vals (f[cols] vals) written onto
        the diagonal."""
        if self.mono is None:
            return dense_product(self.mat, f[:, None] * self.mat.conj().T)
        n = self.shape[0]
        out = np.zeros((n, n), dtype=np.complex128)
        out.reshape(-1)[:: n + 1] = self.outer_diagonal(f)
        return out

    def outer_diagonal(self, f: np.ndarray) -> np.ndarray:
        """The diagonal of `outer(f)` of a square monomial, vals (f[cols]
        vals); every other entry of it is an exact zero."""
        cols, vals = self.mono
        return vals * (f[cols] * vals)

    def gram(self) -> np.ndarray:
        """M* M: on a monomial, the diagonal of squared column norms."""
        if self.mono is None:
            return dense_product(self.mat.conj().T, self.mat)
        n = self.shape[1]
        out = np.zeros((n, n), dtype=np.complex128)
        out.reshape(-1)[:: n + 1] = self.gram_diagonal()
        return out

    def gram_diagonal(self) -> np.ndarray:
        """The diagonal of M* M of a monomial, the squared column norms:
        vals**2 at the column of each nonzero, 0 at an empty column.  Every
        other entry of M* M is an exact zero."""
        _, cols, vals = self._entries
        out = np.zeros(self.shape[1])
        out[cols] = vals * vals
        return out


def max_difference(a: Block, b: Block, win: int | None = None) -> float:
    """max |a - b| over the leading win-block of two square blocks (the
    whole of them by default).  When both are monomials it is read off
    their column maps and values: a row's entries differ by |a_i - b_i|
    where both sit in one column, and by each value alone where they do
    not, the values in columns past the window read as 0."""
    win = a.shape[-1] if win is None else win
    if a.mono is None or b.mono is None:
        return max_abs(a.mat[:win, :win] - b.mat[:win, :win])
    (a_cols, a_vals), (b_cols, b_vals) = a.mono, b.mono
    a_cols, b_cols = a_cols[:win], b_cols[:win]
    a_vals = np.where(a_cols < win, a_vals[:win], 0.0)
    b_vals = np.where(b_cols < win, b_vals[:win], 0.0)
    apart = np.maximum(np.abs(a_vals), np.abs(b_vals))
    return float(np.max(np.where(a_cols == b_cols, np.abs(a_vals - b_vals), apart), initial=0.0))


def _sorted_decomposition(
    x: HermitianMatrix, a: np.ndarray, v: np.ndarray, tol: float, scale: float
) -> EigenDecomposition:
    """Read the spectrum off a converged iterate and check its residuals."""
    n = x.n
    values = a.diagonal().real.copy()
    order = np.argsort(values, kind="stable")
    values = values[order]
    v = _frozen(np.ascontiguousarray(v[:, order]))

    block = Block(v)
    recon_residual = max_abs(x.mat - block.outer(values))
    if block.mono is None:
        basis_residual = max_abs(block.gram() - np.eye(n))
    else:  # M*M - I is diagonal: read it in O(n)
        basis_residual = max_abs(block.gram_diagonal() - 1.0)
    limit = tol * (1.0 + scale)
    if recon_residual > limit or basis_residual > max(tol, 64 * n * np.finfo(float).eps):
        raise ConvergenceError(
            f"eigendecomposition residuals out of tolerance "
            f"(reconstruction {recon_residual:.3e}, unitarity {basis_residual:.3e})"
        )
    return EigenDecomposition(_frozen(values), recon_residual, basis_residual, block)


def _diagonal_decomposition(x: HermitianMatrix) -> EigenDecomposition:
    """The decomposition of a diagonal, with the bits `_jacobi` gives the
    same matrix stored dense: zero sweeps, the stable-sorted values, the
    permutation basis V = I[:, order] as a monomial (row order[j] holds its
    1 in column j), and both residuals 0.0, each entry of V diag(values) V*
    and of V*V being the one exact term it rounds."""
    order = np.argsort(x.diagonal, kind="stable")
    cols = np.empty(x.n, dtype=np.intp)
    cols[order] = np.arange(x.n)
    block = Block.monomial((x.n, x.n), cols, np.ones(x.n))
    return EigenDecomposition(_frozen(x.diagonal[order]), 0.0, 0.0, block)


# Size from which a member that must rotate starts from the eigenbasis of
# its tridiagonal form (`_warm_starts`) rather than from I.  Median `eigh`
# time of random Hermitian matrices, alone and as a stack of three (what
# `classify` sweeps), cold against warm, on a 2-core Xeon, in ms:
#     n                   4     8    12    16    24    32    48    64    96
#     one, cold         0.6   2.0   3.5   5.3   9.1  15.1  29.0  59.0   160
#     one, warm         1.1   1.5   2.0   2.5   3.2   4.1   6.4   8.4  15.7
#     three, cold       0.7   2.1   3.8   6.0  12.1  20.8  54.3   180   458
#     three, warm       1.4   2.1   2.7   3.4   5.1   7.0  11.6  24.6  40.3
# The stack of three breaks even at 8; from 16 on the warm start is at
# least 1.7 times as fast.
_WARM_START = 16

# Bisection steps of each eigenvalue of a tridiagonal form: one per bit of
# a double's significand, so that the start is accurate to full precision
# and the finishing sweep has the last rounding errors to rotate away.
_BISECTION_STEPS = 53

# Inverse-iteration solves per eigenvector of a tridiagonal form.
_INVERSE_STEPS = 2


@lru_cache(maxsize=16)
def _inverse_iteration_start(n: int) -> np.ndarray:
    """Fixed pseudo-random start vectors, one column per eigenvalue, so
    that equal shifts in a cluster still span its eigenspace."""
    start = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
    return _frozen(start)


def _tridiagonalize(x: np.ndarray) -> tuple:
    """Householder reduction of a Hermitian x (n, n) to a real tridiagonal.

    Returns (d, e, phases, reflectors): x = Q P T P* Q* with T the real
    symmetric tridiagonal of diagonal d and off-diagonal e >= 0, P the
    diagonal of unit `phases`, and Q = H_0 ... H_(n-3) with each H_k =
    I - 2 v v* acting on coordinates k+1: (None where the column below the
    diagonal is already zero).
    """
    a = np.array(x)
    n = a.shape[0]
    reflectors = []
    for k in range(n - 2):
        col = a[k + 1 :, k]
        alpha = math.sqrt(float(np.vdot(col, col).real))
        if alpha == 0.0:
            reflectors.append(None)
            continue
        head = col[0]
        phase = head / abs(head) if head != 0 else 1.0
        # v = col + phase alpha e_1, so that H col = -phase alpha e_1
        v = col.copy()
        v[0] += phase * alpha
        v /= math.sqrt(float(np.vdot(v, v).real))
        sub = a[k + 1 :, k + 1 :]
        p = sub @ v
        # H sub H = sub - v (2w)* - (2w) v*, with w = p - (v* p) v
        pair = np.stack([v, 2.0 * (p - np.vdot(v, p).real * v)])
        sub -= pair.T @ pair[::-1].conj()
        a[k + 1 :, k] = 0.0
        a[k + 1, k] = -phase * alpha
        reflectors.append(v)
    sub = a.diagonal(-1)
    mags = np.abs(sub)
    steps = np.where(mags > 0.0, sub / np.where(mags > 0.0, mags, 1.0), 1.0)
    # (P* T_c P)[k+1, k] = conj(p_(k+1)) sub_k p_k = |sub_k|
    phases = np.concatenate([[1.0 + 0j], np.cumprod(steps)])
    return a.diagonal().real.copy(), mags, phases, reflectors


def _tridiagonal_eigenvalues(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The ascending eigenvalues (k, n) of k real symmetric tridiagonals of
    diagonals d (k, n) and off-diagonals e (k, n-1), by Sturm bisection.

    Every eigenvalue of every member is bisected at once for
    `_BISECTION_STEPS` steps from the Gershgorin interval.  The count of
    eigenvalues below a point is the number of negative pivots of the LDL*
    recurrence, carried through zero pivots by IEEE infinities (a square
    of e below the least normal double is raised to it, so no pivot is
    0/0).  Only elementwise operations and exact reductions touch the
    stack, so each member gets the bits it gets alone.
    """
    k, n = d.shape
    e2 = np.maximum(e * e, np.finfo(float).tiny).T[:, :, None]
    radius = np.zeros((k, n))
    radius[:, 1:] += e
    radius[:, :-1] += e
    lo = np.min(d - radius, axis=1, keepdims=True)
    hi = np.max(d + radius, axis=1, keepdims=True)
    pad = 2.0 * np.finfo(float).eps * np.maximum(np.abs(lo), np.abs(hi)) + np.finfo(float).tiny
    lo, hi = np.repeat(lo - pad, n, axis=1), np.repeat(hi + pad, n, axis=1)
    index = np.arange(n)
    rows = d.T[:, :, None]
    # one contiguous (k, n) row per step of the recurrence, taken once
    squares = list(np.ascontiguousarray(np.broadcast_to(e2, (n - 1, k, n))))
    pivots = np.empty((n, k, n))
    pivot_rows = list(pivots)
    ratio = np.empty((k, n))
    with np.errstate(divide="ignore", over="ignore"):
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            np.subtract(rows, mid, out=pivots)
            for square, prev, row in zip(squares, pivot_rows, pivot_rows[1:]):
                np.divide(square, prev, out=ratio)
                np.subtract(row, ratio, out=row)
            above = np.count_nonzero(pivots < 0.0, axis=0) > index
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def _tridiagonal_eigenvectors(d: np.ndarray, e: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Eigenvectors (k, n, n), one column per value, of k real symmetric
    tridiagonals by inverse iteration at the shifts `values` (k, n).

    The LDL* pivots of T - value are formed once, each held off zero by
    eps times the tridiagonal's norm; each of `_INVERSE_STEPS` solves starts
    from the last, scaled to max-norm 1 (an exact operation), the first
    from `_inverse_iteration_start`.  Elementwise over the stack, and exact
    in its reductions, as `_tridiagonal_eigenvalues`.
    """
    k, n = d.shape
    norm = np.max(np.abs(d), axis=1) + 2.0 * np.max(e, axis=1)
    pivmin = (np.finfo(float).eps * np.maximum(norm, np.finfo(float).tiny))[:, None]
    # one contiguous (k, n) row per step of the recurrences, taken once
    off = list(np.ascontiguousarray(np.broadcast_to(e.T[:, :, None], (n - 1, k, n))))
    pivots = d.T[:, :, None] - values[None]
    factors = np.empty((n - 1, k, n))
    pivot_rows, factor_rows = list(pivots), list(factors)
    scratch = np.empty((k, n))

    def held(p):
        np.copysign(np.maximum(np.abs(p), pivmin), p, out=p)

    held(pivot_rows[0])
    for e_i, factor, prev, row in zip(off, factor_rows, pivot_rows, pivot_rows[1:]):
        np.divide(e_i, prev, out=factor)
        row -= np.multiply(factor, e_i, out=scratch)
        held(row)
    y = np.repeat(_inverse_iteration_start(n)[:, None, :], k, axis=1)
    y_rows = list(y)
    for _ in range(_INVERSE_STEPS):
        for factor, prev, row in zip(factor_rows, y_rows, y_rows[1:]):
            row -= np.multiply(factor, prev, out=scratch)
        y_rows[-1] /= pivot_rows[-1]
        for i in range(n - 2, -1, -1):
            y_rows[i] -= np.multiply(off[i], y_rows[i + 1], out=scratch)
            y_rows[i] /= pivot_rows[i]
        y /= np.max(np.abs(y), axis=0)
    return np.ascontiguousarray(y.transpose(1, 0, 2))


def _orthonormalized(z: np.ndarray) -> np.ndarray:
    """The columns of a real z (n, n) made orthonormal by Gram-Schmidt, each
    projected twice.  A column that loses all but sqrt(eps) of its norm
    lies in the span of those before it, as the vectors of one repeated
    eigenvalue can: it is replaced by the coordinate vector least covered
    by that span, projected twice in turn."""

    def projected(done, col):
        for _ in range(2):
            col -= done @ (done.T @ col)
        return math.sqrt(float(col @ col))

    q = z / np.sqrt(np.sum(z * z, axis=0))
    for j in range(q.shape[1]):
        done, col = q[:, :j], q[:, j]
        norm = projected(done, col)
        if norm <= math.sqrt(np.finfo(float).eps):
            col[:] = 0.0
            col[np.argmin(np.sum(done * done, axis=1))] = 1.0
            norm = projected(done, col)
        col /= norm
    return q


def _warm_starts(mats: np.ndarray) -> list:
    """For each Hermitian member of mats (k, n, n): (iterate, basis) with
    basis V0 an eigenbasis of its tridiagonal form and iterate the
    symmetrized V0* X V0; or None where V0 misses unitarity by more than
    64 n eps, so that the member starts from I.

    The member is first scaled by a power of two (exactly) to max-norm
    about 1; it is reduced (`_tridiagonalize`), the eigenvalues of the
    tridiagonal found to full precision (`_tridiagonal_eigenvalues`), its
    eigenvectors by inverse iteration (`_tridiagonal_eigenvectors`) made
    orthonormal (`_orthonormalized`), and taken back through the phases
    and reflectors.  The bisection and inverse iteration run over the whole
    stack elementwise and the products member by member, so each start has
    the bits of the member's start alone.
    """
    n = mats.shape[-1]
    reduced = [_tridiagonalize(x * math.ldexp(1.0, -math.frexp(max_abs(x))[1])) for x in mats]
    d = np.array([r[0] for r in reduced])
    e = np.array([r[1] for r in reduced])
    vectors = _tridiagonal_eigenvectors(d, e, _tridiagonal_eigenvalues(d, e))
    limit = 64 * n * np.finfo(float).eps
    starts = []
    for x, (_, _, phases, reflectors), z in zip(mats, reduced, vectors):
        basis = phases[:, None] * _orthonormalized(z)
        # Q = H_0 ... H_(n-3), applied last reflector first
        for at in range(len(reflectors) - 1, -1, -1):
            v = reflectors[at]
            if v is not None:
                rows = basis[at + 1 :]
                rows -= np.outer(2.0 * v, v.conj() @ rows)
        # a NaN residual fails too
        if not max_abs(basis.conj().T @ basis - np.eye(n)) <= limit:
            starts.append(None)
            continue
        iterate = basis.conj().T @ x @ basis
        iterate += iterate.conj().T
        iterate /= 2.0
        starts.append((iterate, basis))
    return starts


def _jacobi(xs: tuple, tol: float, max_sweeps: int) -> list:
    """Sweep a stack of n-by-n Hermitian matrices (n >= 1) to diagonal form.

    A member whose off-diagonal is above its stop at the first check
    starts its sweeps from (X, I) or, at n >= `_WARM_START`, from the
    `_warm_starts` pair (V0* X V0, V0) where V0 is unitary; the sweeps, the
    stops, the budget and the residual checks against X are the same."""
    n = xs[0].n
    eps = np.finfo(float).eps
    scales = [max_abs(x.mat) for x in xs]
    stops = [max(tol * (1.0 + sc) / 4.0, 8.0 * n * eps * sc) for sc in scales]
    rounds = None  # fetched by the first sweep that rotates

    # input index of each member still in the stack
    members = list(range(len(xs)))
    # member j: its iterate in rows :n, its accumulated basis in rows n:;
    # made for the members that rotate, so that one whose off-diagonal is
    # already below the stop pays for no buffer
    av = None
    # input index -> converged (iterate, basis), or the off-diagonal max it
    # stopped at
    outcome: dict = {}
    for sweep in range(max_sweeps + 1):
        off = _off_diagonal_max(np.array([x.mat for x in xs]) if av is None else av[:, :n])
        keep = []
        for j, member in enumerate(members):
            if off[j] <= stops[member]:
                if av is None:
                    outcome[member] = (xs[member].mat, np.eye(n, dtype=np.complex128))
                else:
                    outcome[member] = (av[j, :n], av[j, n:])
            elif sweep == max_sweeps:
                outcome[member] = float(off[j])
            else:
                keep.append(j)
        if not keep:
            break
        members = [members[j] for j in keep]
        if av is None:
            av = np.zeros((len(members), 2 * n, n), dtype=np.complex128)
            mats = np.array([xs[member].mat for member in members])
            starts = _warm_starts(mats) if n >= _WARM_START else [None] * len(members)
            for buf, mat, start in zip(av, mats, starts):
                if start is None:
                    buf[:n] = mat
                    np.fill_diagonal(buf[n:], 1.0)
                else:
                    buf[:n], buf[n:] = start
        elif len(keep) < len(off):
            av = av[keep]
        skip = np.array([stops[member] for member in members])[:, None] / (8.0 * n)
        if rounds is None:
            rounds = _rotation_rounds(n)
        for p, q in rounds:
            apq = av[:, p, q]
            mags = np.abs(apq)
            b, i = np.nonzero(mags > skip)
            if not b.size:
                continue
            pl, ql, apql, magl = p[i], q[i], apq[b, i], mags[b, i]
            phase = apql / magl
            tau = (av[b, ql, ql].real - av[b, pl, pl].real) / (2.0 * magl)
            sign = np.where(tau >= 0.0, 1.0, -1.0)
            t = sign / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            _apply_rotations(av, b, pl, ql, c, s, phase)
            av[b, pl, ql] = 0.0
            av[b, ql, pl] = 0.0
        # keep the iterates exactly Hermitian against rounding drift
        a = av[:, :n]
        a += a.conj().transpose(0, 2, 1)
        a /= 2.0

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
    sweep budget is exhausted, which signals pathological input, and
    ValueError on a stacked HermitianMatrix.
    """
    return eigh_stack([x], eig_tol, max_sweeps)[0]


def eigh_stack(
    xs: Sequence[HermitianMatrix],
    eig_tol: float | None = None,
    max_sweeps: int = DEFAULT_JACOBI_SWEEPS,
) -> tuple[EigenDecomposition, ...]:
    """Cyclic Jacobi eigendecompositions of same-size Hermitian matrices.

    A diagonal member (`HermitianMatrix.diag`) takes no sweep and no buffer
    (`_diagonal_decomposition`).  The others' sweeps rotate away
    off-diagonal entries round by round until the largest one falls below
    the stopping threshold.  At n >= `_WARM_START` a member that must
    rotate starts from an eigenbasis V0 of its tridiagonal form, the
    iterate V0* X V0 and the basis V0, and is then usually accepted after
    one finishing sweep; a V0 that is not unitary to 64 n eps leaves the member
    to start from I.  The members are swept together,
    each round one set of array operations for the whole stack, but each
    keeps its own thresholds and rotates only its own live pairs, and a
    member leaves the stack once it has converged: every result, warm start
    included, has the bits of that matrix decomposed alone.  Each round is
    applied in chunks of rotations that gather less than `_STACK_BYTES` at
    a time.  The start changes only the speed: the reconstruction and
    unitarity checks against X decide what is accepted.  Raises
    ValueError on mixed sizes or a stacked HermitianMatrix, and
    ConvergenceError for the first member, in input order, that exhausts
    the sweep budget or misses its residual checks.
    """
    tol = DEFAULT_TOLERANCES.eig_tol if eig_tol is None else eig_tol
    xs = tuple(xs)
    if any(x.diagonal is None and x.mat.ndim != 2 for x in xs):
        raise ValueError("eigh takes single matrices, not a stacked HermitianMatrix")
    sizes = {x.n for x in xs}
    if len(sizes) > 1:
        raise ValueError(f"a stack needs matrices of one size, got sizes {sorted(sizes)}")
    if not xs:
        return ()
    if xs[0].n == 0:
        empty = _frozen(np.zeros((0, 0), dtype=np.complex128))
        return tuple(EigenDecomposition(np.zeros(0), 0.0, 0.0, Block(empty)) for _ in xs)
    # a diagonal member needs no sweep and no buffer
    decs = [None if x.diagonal is None else _diagonal_decomposition(x) for x in xs]
    swept = [i for i, dec in enumerate(decs) if dec is None]
    if swept:
        for i, dec in zip(swept, _jacobi(tuple(xs[i] for i in swept), tol, max_sweeps)):
            decs[i] = dec
    return tuple(decs)


class PsdCheck(NamedTuple):
    is_psd: bool
    min_eig: float


def psd_check(
    x: HermitianMatrix,
    tol: float | None = None,
    eig_tol: float | None = None,
    dec: EigenDecomposition | None = None,
    negate: bool = False,
) -> PsdCheck:
    """Toleranced nonnegativity test: passes iff min eig >= -tol*(1+||X||).

    With `negate` it tests -X, whose least eigenvalue is read as 0.0 minus
    the largest of X, so that a vanishing form reads +0.0.  `dec` is the
    spectral decomposition of x, made here with `eig_tol` when None.
    """
    t = DEFAULT_TOLERANCES.psd_tol if tol is None else tol
    if x.n == 0:
        return PsdCheck(True, 0.0)
    if dec is None:
        dec = eigh(x, eig_tol)
    min_eig = 0.0 - float(dec.values[-1]) if negate else float(dec.values[0])
    return PsdCheck(min_eig >= -t * (1.0 + x.norm_max()), min_eig)


def psd_root(
    x: HermitianMatrix,
    tols: Tolerances,
    dec: EigenDecomposition,
    range_scale: float = 0.0,
    *,
    what: str,
) -> tuple[np.ndarray, "Block", "Block"]:
    """The principal and pseudo-inverse square roots of a nonnegative X.

    X must pass `psd_check` with tols.psd_tol, or NotPsdError names `what`;
    eigenvalues negative within it are clamped to zero.  The numerical
    range keeps the eigenvalues above rank_tol * max(lam_max, range_scale):
    a difference formed from terms of scale `range_scale` carries roundoff
    at that scale, and would otherwise promote noise to range directions
    when it vanishes.  `dec` is the spectral decomposition of x.  Returns
    the kept mask, R = X^(1/2) and R+, the inverse root on the range and 0
    on its complement, both as `Block`s: the diagonals `outer_diagonal`
    writes when V is a monomial, the `outer` arrays otherwise.
    """
    check = psd_check(x, tols.psd_tol, dec=dec)
    if not check.is_psd:
        raise NotPsdError(f"{what}: metric not PSD (min eig {check.min_eig:.3e})")
    lam = np.clip(dec.values, 0.0, None)
    lam_max = float(lam[-1]) if x.n else 0.0
    kept = lam > tols.rank_tol * max(lam_max, range_scale)
    inv_vals = np.where(kept, 1.0 / np.sqrt(np.where(kept, lam, 1.0)), 0.0)
    if dec.block.mono is None:
        return kept, Block(dec.block.outer(np.sqrt(lam))), Block(dec.block.outer(inv_vals))
    root, inv_root = (dec.block.outer_diagonal(f) for f in (np.sqrt(lam), inv_vals))
    return kept, Block.diag(root), Block.diag(inv_root)
