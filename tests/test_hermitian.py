"""Kernel tests: eigendecomposition, permutation bases, matrix roots.

numpy.linalg is used here only as an independent oracle; the production
code never calls it.
"""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodilation.builder import _clamp_nonpositive
from isodilation.errors import ConvergenceError, HermitianityError, NotPsdError
from isodilation.hermitian import (
    _STACK_BYTES,
    _WARM_START,
    _chunks,
    _orthonormalized,
    _rotation_rounds,
    _sorted_decomposition,
    Block,
    HermitianMatrix,
    eigh,
    eigh_stack,
    hermitian,
    hermitian_diagonal,
    hermitian_difference,
    identity,
    max_abs,
    max_difference,
    psd_check,
    psd_root,
    real_monomial,
)
from isodilation.operators import DefectForms, dense_corner
from isodilation.tolerances import DEFAULT_TOLERANCES, Tolerances


# the package exports the function `hermitian` under the module's name
hermitian_module = importlib.import_module("isodilation.hermitian")


def _complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian(scale * (g + g.conj().T) / 2.0)


def random_psd(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian(scale * (g.conj().T @ g))


class TestHermitianConstruction:
    def test_symmetrizes_within_tolerance(self):
        # a defect of 1e-12 passes and is symmetrized away
        h = hermitian([[1.0, 1e-12], [0.0, 2.0]])
        assert max_abs(h.mat - h.mat.conj().T) == 0.0
        assert h.mat[0, 1] == h.mat[1, 0] == 0.5e-12

    def test_transposed_complex_input_reads_like_its_c_ordered_copy(self, rng):
        # a.T is a Fortran-ordered view; the stored copy is C-ordered
        g = _complex_gaussian(rng, (4, 4))
        a = g + g.conj().T
        h = hermitian(a.T)
        assert h.mat.flags.c_contiguous
        assert np.array_equal(h.mat, hermitian(np.ascontiguousarray(a.T)).mat)

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermitianityError):
            hermitian([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            hermitian([[np.nan]])

    def test_matrix_is_immutable(self):
        h = hermitian([[1.0]])
        with pytest.raises(ValueError):
            h.mat[0, 0] = 2.0


class TestHermitianStack:
    """A (k, n, n) stack is checked and symmetrized member by member."""

    def test_members_keep_the_bits_of_a_lone_construction(self, rng):
        g = _complex_gaussian(rng, (5, 4, 4))
        x = g + g.conj().transpose(0, 2, 1) + 1e-13 * _complex_gaussian(rng, (5, 4, 4))
        given = x.copy()
        stack = hermitian(x)
        assert stack.mat.shape == (5, 4, 4) and stack.n == 4
        lone = [hermitian(member) for member in x]
        for k, h in enumerate(lone):
            assert np.array_equal(stack.mat[k], h.mat)
        assert not stack.mat.flags.writeable
        assert np.array_equal(x, given)  # symmetrized in a copy

    def test_each_member_keeps_its_own_threshold(self):
        # member 1 is off by 1e-7 against its own allowance
        # herm_tol * (1 + 1) = 2e-8 and raises, although member 0 is so
        # large that the same defect would pass against its scale
        tol = 1e-8
        big = np.diag([1e6, 1.0]).astype(complex)
        small = np.array([[1.0, 1e-7], [0.0, 1.0]], dtype=complex)
        hermitian(small + np.diag([1e6, 0.0]), tol)  # passes against its own scale
        with pytest.raises(HermitianityError, match="allowed 2.000e-08"):
            hermitian(np.stack([big, small]), tol)
        with pytest.raises(HermitianityError):
            hermitian(small, tol)
        hermitian(np.stack([big, big]), tol)

    def test_empty_stacks_and_members(self):
        assert hermitian(np.zeros((0, 3, 3))).mat.shape == (0, 3, 3)
        assert hermitian(np.zeros((4, 0, 0))).mat.shape == (4, 0, 0)
        assert hermitian(np.zeros((0, 0))).n == 0

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 3, 4), (1, 2, 2, 2)])
    def test_rejects_what_is_not_a_stack_of_squares(self, shape):
        with pytest.raises(ValueError, match="square"):
            hermitian(np.zeros(shape))

    def test_restrict_takes_each_leading_block(self, rng):
        stack = hermitian(np.stack([random_hermitian(rng, 4).mat for _ in range(3)]))
        leading = stack.restrict(2)
        assert leading.mat.shape == (3, 2, 2)
        assert np.array_equal(leading.mat, stack.mat[:, :2, :2])
        with pytest.raises(ValueError):
            stack.restrict(5)

    def test_eigh_refuses_a_stack(self, rng):
        stack = hermitian(np.stack([random_hermitian(rng, 3).mat for _ in range(2)]))
        with pytest.raises(ValueError, match="stack"):
            eigh(stack)
        with pytest.raises(ValueError, match="stack"):
            eigh_stack([random_hermitian(rng, 3), stack])


class TestHermitianDiagonal:
    """A stack of diagonals is checked as `hermitian` checks its dense
    stack, and stored as a monomial `Block`."""

    @staticmethod
    def _embedded(diags):
        return np.einsum("...i,ij->...ij", diags, np.eye(diags.shape[-1]))

    @pytest.mark.parametrize("shape", [(4,), (5, 4), (0, 3), (3, 0)])
    def test_matches_the_dense_stack_bit_for_bit(self, rng, shape):
        diags = np.where(rng.integers(0, 2, shape), rng.standard_normal(shape), 0.0)
        block = hermitian_diagonal(diags)
        assert block.shape == shape + shape[-1:]
        assert block.as_diagonal() is not None
        assert block.mat.tobytes() == hermitian(self._embedded(diags)).mat.tobytes()

    def test_symmetrizes_a_defect_within_tolerance(self):
        diags = np.array([[1.0 + 1e-13j, -2.0], [3.0, 0.5 - 1e-13j]])
        block = hermitian_diagonal(diags)
        assert np.array_equal(block.as_diagonal(), diags.real)
        assert np.array_equal(block.mat, hermitian(self._embedded(diags)).mat)

    def test_each_member_keeps_its_own_threshold(self):
        # member 1 is off by 2e-7 against its own allowance 2e-8, where
        # member 0 could absorb it
        tol = 1e-8
        with pytest.raises(HermitianityError, match="allowed 2.000e-08"):
            hermitian_diagonal(np.array([[1e6, 1.0], [1.0, 1.0 + 1e-7j]]), tol)
        hermitian_diagonal(np.array([[1e6, 1.0 + 1e-7j]]), tol)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            hermitian_diagonal(np.array([[1.0, np.inf]]))


def _dense_twin(x):
    """A diagonal `HermitianMatrix` made dense, as `hermitian` makes it."""
    return hermitian(np.diag(x.diagonal).astype(np.complex128))


class TestDiagonalForm:
    """A real diagonal is stored as its values: every reader reads them,
    and its dense form is made only when read, with the bits `hermitian`
    gives the same diagonal."""

    @pytest.mark.parametrize("seed", range(4))
    def test_readers_match_the_dense_twin(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 9))
        x = HermitianMatrix.diag(rng.standard_normal(n) * rng.integers(0, 2, n))
        dense = _dense_twin(x)
        assert x.n == dense.n == n
        assert x.norm_max() == dense.norm_max()
        assert x.block.as_diagonal() is x.diagonal
        for k in range(n + 1):
            assert np.array_equal(x.restrict(k).diagonal, dense.restrict(k).mat.diagonal().real)
        assert "mat" not in vars(x)
        assert np.array_equal(x.mat, dense.mat)  # the sign of a zero aside
        assert not x.mat.flags.writeable and not x.diagonal.flags.writeable
        with pytest.raises(ValueError):
            x.restrict(n + 1)

    def test_takes_a_copy_and_rejects_non_finite(self):
        vals = np.array([1.0, -2.0])
        x = HermitianMatrix.diag(vals)
        vals[0] = 5.0
        assert x.diagonal[0] == 1.0 and vals.flags.writeable
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix.diag([1.0, np.nan])
        with pytest.raises(ValueError, match="finite"):
            HermitianMatrix.diag([np.inf])

    def test_identity_and_difference(self):
        x = HermitianMatrix.diag([0.5, -1.0, 2.0])
        i3 = identity(3)
        assert np.array_equal(i3.diagonal, np.ones(3)) and "mat" not in vars(i3)
        diff = hermitian_difference(i3, x)
        assert np.array_equal(diff.diagonal, [0.5, 2.0, -1.0])
        dense = hermitian_difference(hermitian(np.eye(3)), x)
        assert dense.diagonal is None
        assert np.array_equal(dense.mat, hermitian(np.eye(3) - _dense_twin(x).mat).mat)


class TestEigh:
    @pytest.mark.parametrize("n", [2, 3, 8, 13])
    def test_rotation_schedule_covers_every_pair_once(self, n):
        seen = []
        for p, q in _rotation_rounds(n):
            # disjoint indices within a round
            flat = np.concatenate([p, q])
            assert len(set(flat.tolist())) == flat.size
            seen.extend(zip(p.tolist(), q.tolist()))
        assert sorted(seen) == [(i, j) for i in range(n) for j in range(i + 1, n)]

    def test_already_diagonal(self):
        dec = eigh(hermitian(np.diag([3.0, 1.0])))
        assert np.allclose(dec.values, [1.0, 3.0])
        # basis is the swap permutation
        assert np.allclose(np.abs(dec.basis), [[0, 1], [1, 0]])

    def test_two_by_two(self):
        # characteristic polynomial x^2 - 4x + 3 has roots 1 and 3
        dec = eigh(hermitian([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(dec.values, [1.0, 3.0], atol=1e-13)

    def test_identity(self):
        dec = eigh(identity(5))
        assert np.allclose(dec.values, 1.0)
        assert max_abs(dec.basis.conj().T @ dec.basis - np.eye(5)) < 1e-12

    def test_empty_and_scalar(self):
        assert eigh(hermitian(np.zeros((0, 0)))).values.shape == (0,)
        dec = eigh(hermitian([[4.0]]))
        assert dec.values[0] == 4.0

    def test_budget_exhaustion_raises(self):
        x = random_hermitian(np.random.default_rng(7), 8)
        with pytest.raises(ConvergenceError):
            eigh(x, max_sweeps=0)

    @pytest.mark.parametrize("n", [2, 7, 24, 64])
    def test_matches_lapack_oracle(self, rng, n):
        x = random_hermitian(rng, n, scale=3.0)
        dec = eigh(x)
        ref = np.sort(np.linalg.eigvalsh(x.mat))
        assert np.max(np.abs(dec.values - ref)) < 1e-11 * (1 + max_abs(x.mat))

    def test_residuals_up_to_dim_256(self, rng):
        x = random_hermitian(rng, 256)
        dec = eigh(x)
        limit = DEFAULT_TOLERANCES.eig_tol * (1.0 + x.norm_max())
        assert dec.recon_residual <= limit
        assert dec.basis_residual <= DEFAULT_TOLERANCES.eig_tol

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 12), seed=st.integers(0, 2**31))
    def test_reconstruction_property(self, n, seed):
        x = random_hermitian(np.random.default_rng(seed), n)
        dec = eigh(x)
        recon = dec.block.outer(dec.values)
        assert max_abs(x.mat - recon) <= DEFAULT_TOLERANCES.eig_tol * (1 + x.norm_max())
        assert np.all(np.diff(dec.values) >= 0)

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e6, 1e12])
    def test_scale_robustness(self, rng, scale):
        # the accuracy contract is relative to (1 + max-norm): matrices below
        # the tolerance floor count as numerically zero
        x = random_hermitian(rng, 16, scale=scale)
        dec = eigh(x)
        limit = DEFAULT_TOLERANCES.eig_tol * (1 + x.norm_max())
        assert dec.recon_residual <= limit
        ref = np.sort(np.linalg.eigvalsh(x.mat))
        assert np.max(np.abs(dec.values - ref)) <= limit


def _one_matrix_jacobi(x, tol=DEFAULT_TOLERANCES.eig_tol, max_sweeps=64, start=None):
    """The one-matrix cyclic Jacobi loop that `eigh_stack` generalizes,
    kept as the loop reference: the stacked kernel must reproduce its bits.
    A matrix that must rotate starts its first sweep from `start`, an
    (iterate, basis) pair, or from (x, I) when it is None.  Returns
    (values, basis) for n >= 2."""
    n = x.n
    a = np.array(x.mat)
    scale = max_abs(a)
    stop = max(tol * (1.0 + scale) / 4.0, 8.0 * n * np.finfo(float).eps * scale)
    skip = stop / (8.0 * n)
    v = np.eye(n, dtype=np.complex128)
    for sweep in range(max_sweeps):
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        if max_abs(off) <= stop:
            break
        if sweep == 0 and start is not None:
            a, v = (np.array(part) for part in start)
        for p, q in _rotation_rounds(n):
            apq = a[p, q]
            mags = np.abs(apq)
            live = mags > skip
            p, q, apq, mags = p[live], q[live], apq[live], mags[live]
            phase = apq / mags
            tau = (a[q, q].real - a[p, p].real) / (2.0 * mags)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            cp, cq = a[:, p], a[:, q]
            a[:, p] = cp * c - cq * (s * phase.conj())
            a[:, q] = cp * s + cq * (c * phase.conj())
            rp, rq = a[p, :], a[q, :]
            a[p, :] = c[:, None] * rp - (s * phase)[:, None] * rq
            a[q, :] = s[:, None] * rp + (c * phase)[:, None] * rq
            cp, cq = v[:, p], v[:, q]
            v[:, p] = cp * c - cq * (s * phase.conj())
            v[:, q] = cp * s + cq * (c * phase.conj())
            a[p, q] = 0.0
            a[q, p] = 0.0
        a = (a + a.conj().T) / 2.0
    else:
        raise ConvergenceError("reference loop did not converge")
    values = a.diagonal().real.copy()
    order = np.argsort(values, kind="stable")
    return values[order], v[:, order]


def _warm_start(x):
    """The start `eigh` takes for x when it must rotate: the warm start at
    n >= _WARM_START (None where it falls back to I), else None."""
    if x.n < _WARM_START:
        return None
    return hermitian_module._warm_starts(x.mat[None])[0]


def _sweeps_needed(x):
    """Fewest sweeps after which `eigh` accepts x: a lone decomposition
    checks the off-diagonal once before each sweep and once to accept."""
    checks = []
    check = hermitian_module._off_diagonal_max

    def counting(a):
        checks.append(a.shape)
        return check(a)

    hermitian_module._off_diagonal_max = counting
    try:
        eigh(x)
    finally:
        hermitian_module._off_diagonal_max = check
    return len(checks) - 1


def _mixed_stack(seed, n):
    """Diagonal, dense and near-degenerate members of one size."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    clustered = np.repeat(rng.standard_normal(n // 2 + 1), 2)[:n] + 1e-9 * rng.standard_normal(n)
    return [
        hermitian(np.diag(rng.standard_normal(n))),
        random_hermitian(rng, n, scale=3.0),
        hermitian(u @ np.diag(clustered) @ u.conj().T),
        hermitian(np.diag(rng.standard_normal(n)) + 1e-7 * random_hermitian(rng, n).mat),
        random_hermitian(rng, n, scale=1e-3),
    ]


def _same_bits(a, b):
    return (
        np.array_equal(a.values, b.values)
        and np.array_equal(a.basis, b.basis)
        and a.recon_residual == b.recon_residual
        and a.basis_residual == b.basis_residual
        and (a.block.mono is None) == (b.block.mono is None)
        and (a.block.mono is None or all(map(np.array_equal, a.block.mono, b.block.mono)))
    )


class TestEighStack:
    # n = 47 rotates with the dummy slot of the schedule, n = 48 is the
    # size of the dense benchmark's largest input
    @pytest.mark.parametrize("seed, n", [(1, 5), (2, 12), (3, 24), (10, 47), (11, 48)])
    def test_members_keep_the_bits_of_a_lone_decomposition(self, seed, n):
        xs = _mixed_stack(seed, n)
        sweeps = {_sweeps_needed(x) for x in xs}
        if n < _WARM_START:
            # the members leave the stack after different numbers of sweeps
            assert len(sweeps) >= 3
        else:
            # the diagonal member takes none, every warm start one
            assert sweeps == {0, 1}
        stacked = eigh_stack(xs)
        assert len(stacked) == len(xs)
        for x, dec in zip(xs, stacked):
            assert _same_bits(dec, eigh(x))
            values, basis = _one_matrix_jacobi(x, start=_warm_start(x))
            assert np.array_equal(dec.values, values)
            assert np.array_equal(dec.basis, basis)
        # a reordered stack gives every member the same bits
        for x, dec in zip(xs[::-1], eigh_stack(xs[::-1])):
            assert _same_bits(dec, eigh(x))

    @pytest.mark.parametrize("seed, n", [(4, 7), (5, 32)])
    def test_matches_lapack_oracle(self, seed, n):
        xs = _mixed_stack(seed, n)
        for x, dec in zip(xs, eigh_stack(xs, DEFAULT_TOLERANCES.eig_tol)):
            ref = np.linalg.eigvalsh(x.mat)
            assert np.max(np.abs(dec.values - ref)) < 1e-11 * (1 + x.norm_max())
            assert dec.recon_residual <= DEFAULT_TOLERANCES.eig_tol * (1 + x.norm_max())

    def test_stack_over_the_gather_budget_is_split_without_changing_bits(self):
        # the columns of one round of this stack gather more than the
        # budget, so the round is applied in chunks, one of them across
        # the rotations of two members
        n, count = 48, 5
        chunks = _chunks(count * (n // 2), 2 * n)
        assert len(chunks) > 1 and chunks[0].stop % (n // 2)
        assert chunks[0].stop * 16 * 2 * n < _STACK_BYTES
        rng = np.random.default_rng(6)
        xs = [
            hermitian(np.diag(rng.standard_normal(n)) + 1e-3 * random_hermitian(rng, n).mat)
            for _ in range(count)
        ]
        for x, dec in zip(xs, eigh_stack(xs)):
            assert _same_bits(dec, eigh(x))

    def test_defect_forms_of_a_dense_contraction_keep_their_bits(self):
        # beta_1, beta_3 and beta_2 of a dim-48 normal contraction, one
        # stack of three as `classify` makes it, whose rounds fit one chunk
        rng = np.random.default_rng(12)
        n = 48
        u, _ = np.linalg.qr(_complex_gaussian(rng, (n, n)))
        z = rng.uniform(0.1, 0.95, n) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
        forms = DefectForms(dense_corner(u @ np.diag(z) @ u.conj().T))
        xs = [forms.on(k) for k in (1, 3, 2)]
        assert len(_chunks(len(xs) * (n // 2), 2 * n)) == 1
        # each warm start rotates in its one finishing sweep
        assert [_sweeps_needed(x) for x in xs] == [1, 1, 1]
        for x, dec in zip(xs, eigh_stack(xs)):
            assert _same_bits(dec, eigh(x))

    def test_sizes_zero_one_and_two(self):
        empty = hermitian(np.zeros((0, 0)))
        assert [d.values.shape for d in eigh_stack([empty, empty])] == [(0,), (0,)]
        ones = eigh_stack([hermitian([[4.0]]), hermitian([[-1.5]])])
        assert [d.values.tolist() for d in ones] == [[4.0], [-1.5]]
        assert all(np.array_equal(d.basis, np.eye(1)) for d in ones)
        twos = [hermitian([[2.0, 1.0], [1.0, 2.0]]), hermitian(np.diag([3.0, 1.0]))]
        decs = eigh_stack(twos)
        assert np.allclose(decs[0].values, [1.0, 3.0], atol=1e-13)
        assert np.array_equal(decs[1].values, [1.0, 3.0])
        for x, dec in zip(twos, decs):
            assert _same_bits(dec, eigh(x))
        assert eigh_stack([]) == ()

    @pytest.mark.parametrize("seed", range(4))
    def test_diagonal_member_matches_its_dense_twin(self, seed):
        # a stack of a diagonal and a dense member: each result has the
        # bits of that member decomposed alone, and the diagonal's those
        # of the same matrix stored dense, with no dense basis kept
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        vals = rng.standard_normal(n)
        vals[rng.integers(0, n, 2)] = vals[0]  # repeated values sort stably
        diagonal = HermitianMatrix.diag(vals)
        dense = random_hermitian(rng, n)
        for xs in ([diagonal, dense], [dense, diagonal]):
            decs = eigh_stack(xs)
            for x, dec in zip(xs, decs):
                assert _same_bits(dec, eigh(x))
        dec = eigh_stack([diagonal, dense])[0]
        assert "mat" not in vars(dec.block) and "mat" not in vars(diagonal)
        assert _same_bits(dec, eigh(_dense_twin(diagonal)))
        assert dec.recon_residual == 0.0 and dec.basis_residual == 0.0

    def test_mixed_sizes_rejected(self):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="one size"):
            eigh_stack([random_hermitian(rng, 3), random_hermitian(rng, 4)])

    def test_spent_budget_raises_for_the_first_unconverged_member(self):
        rng = np.random.default_rng(9)
        diagonal = hermitian(np.diag(rng.standard_normal(8)))
        first, second = random_hermitian(rng, 8), random_hermitian(rng, 8, scale=5.0)
        with pytest.raises(ConvergenceError) as alone:
            eigh(first, max_sweeps=1)
        with pytest.raises(ConvergenceError) as other:
            eigh(second, max_sweeps=1)
        assert str(alone.value) != str(other.value)
        with pytest.raises(ConvergenceError) as stacked:
            eigh_stack([diagonal, first, second], max_sweeps=1)
        assert str(stacked.value) == str(alone.value)
        with pytest.raises(ConvergenceError) as reversed_stack:
            eigh_stack([second, diagonal, first], max_sweeps=1)
        assert str(reversed_stack.value) == str(other.value)


def _unitary(rng, n):
    q, r = np.linalg.qr(_complex_gaussian(rng, (n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _with_spectrum(rng, values):
    u = _unitary(rng, len(values))
    return hermitian(u @ np.diag(values) @ u.conj().T)


def _block_diagonal(*blocks):
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for b in blocks:
        out[at : at + b.shape[0], at : at + b.shape[0]] = b
        at += b.shape[0]
    return hermitian(out)


def _warm_case(name, n):
    """Inputs at n >= _WARM_START that stress the tridiagonal start."""
    rng = np.random.default_rng(n)
    if name == "repeated-with-zeros":
        # the criterion-9 family: n/3 exact zeros, then a value n/3 times
        third = n // 3
        return _with_spectrum(rng, np.concatenate(
            [np.zeros(third), np.full(third, 2.5), rng.uniform(1e-4, 10.0, n - 2 * third)]))
    if name == "clusters":
        # groups of four eigenvalues 1e-9 apart
        return _with_spectrum(rng, np.repeat(rng.uniform(-1.0, 1.0, n // 4 + 1), 4)[:n]
                              + 1e-9 * np.tile(np.arange(4), n // 4 + 1)[:n])
    if name == "split":
        # block diagonal: the tridiagonal form splits where the blocks meet,
        # and twin blocks repeat every eigenvalue
        twin = random_hermitian(rng, n // 3).mat
        return _block_diagonal(twin, random_hermitian(rng, n - 2 * (n // 3)).mat, twin)
    if name == "zero-first-column":
        return _block_diagonal(np.array([[1.5]]), random_hermitian(rng, n - 1).mat)
    if name == "rank-one":
        u = _complex_gaussian(rng, n)
        return hermitian(np.outer(u, u.conj()))
    scale = {"odd": 1.0, "small": 1e-3, "large": 1e3}[name]
    return random_hermitian(rng, n, scale=scale)


class TestWarmStart:
    """A member of size n >= _WARM_START that must rotate starts its sweeps
    from the eigenbasis of its tridiagonal form; the sweeps and the
    residual checks are those of a cold start."""

    @pytest.mark.parametrize(
        "name, n",
        [("repeated-with-zeros", 48), ("repeated-with-zeros", _WARM_START), ("clusters", 48),
         ("split", 48), ("zero-first-column", 48), ("rank-one", 48), ("odd", 33), ("odd", 47),
         ("small", 48), ("large", 48)],
    )
    def test_hard_spectra_start_warm_and_match_the_oracle(self, name, n):
        x = _warm_case(name, n)
        assert n >= _WARM_START and _warm_start(x) is not None
        dec = eigh(x)
        limit = DEFAULT_TOLERANCES.eig_tol * (1.0 + x.norm_max())
        assert dec.recon_residual <= limit
        assert dec.basis_residual <= DEFAULT_TOLERANCES.eig_tol
        ref = np.linalg.eigvalsh(x.mat)
        assert np.max(np.abs(dec.values - ref)) <= 1e-11 * (1.0 + x.norm_max())
        assert _sweeps_needed(x) <= 1

    @pytest.mark.parametrize(
        "normal", [True, False], ids=["normal-contraction", "non-normal-half-norm"]
    )
    def test_defect_forms_take_one_finishing_sweep(self, normal):
        # the stack `classify` sweeps at dim 48: beta_1, beta_3 and beta_2.
        # Two off-diagonal checks, one before and one after the finishing
        # sweep; a fallback to cold sweeps takes six or more
        rng = np.random.default_rng(21)
        n = 48
        if normal:
            z = rng.uniform(0.1, 0.95, n) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, n))
            u = _unitary(rng, n)
            t = u @ np.diag(z) @ u.conj().T
        else:
            g = _complex_gaussian(rng, (n, n))
            t = 0.5 * g / np.linalg.norm(g, 2)
        forms = DefectForms(dense_corner(t))
        xs = [forms.on(k) for k in (1, 3, 2)]
        assert all(x.n == n for x in xs)
        checks = []
        check = hermitian_module._off_diagonal_max
        hermitian_module._off_diagonal_max = lambda a: checks.append(a.shape) or check(a)
        try:
            eigh_stack(xs)
        finally:
            hermitian_module._off_diagonal_max = check
        assert len(checks) <= 2

    def test_poor_start_converges_through_the_same_sweeps(self, monkeypatch):
        # a random unitary start, seeded by the member, is far from an
        # eigenbasis: the sweeps still converge and the residual checks
        # pass, members leave the stack after different numbers of sweeps,
        # and each keeps the bits of its decomposition alone
        def random_starts(mats):
            starts = []
            for x in mats:
                u = _unitary(np.random.default_rng(int(np.abs(x).sum() * 1e6) % 2**32), x.shape[0])
                iterate = u.conj().T @ x @ u
                starts.append(((iterate + iterate.conj().T) / 2.0, u))
            return starts

        xs = _mixed_stack(13, 40)
        monkeypatch.setattr(hermitian_module, "_warm_starts", random_starts)
        sweeps = [_sweeps_needed(x) for x in xs]
        assert sweeps[0] == 0 and min(sweeps[1:]) >= 2 and len(set(sweeps)) >= 3
        for x, dec in zip(xs, eigh_stack(xs)):
            assert _same_bits(dec, eigh(x))
            assert dec.recon_residual <= DEFAULT_TOLERANCES.eig_tol * (1.0 + x.norm_max())
            ref = np.linalg.eigvalsh(x.mat)
            assert np.max(np.abs(dec.values - ref)) <= 1e-11 * (1.0 + x.norm_max())
            values, basis = _one_matrix_jacobi(x, start=random_starts(x.mat[None])[0])
            assert np.array_equal(dec.values, values) and np.array_equal(dec.basis, basis)

    def test_start_that_is_not_unitary_falls_back_to_the_cold_bits(self, monkeypatch):
        # a basis off unitarity by more than 64 n eps is refused: the
        # member starts from I, with the bits of the cold loop
        x = random_hermitian(np.random.default_rng(14), 24)
        monkeypatch.setattr(hermitian_module, "_orthonormalized", lambda z: 1.0001 * z)
        assert hermitian_module._warm_starts(np.array([x.mat, x.mat])) == [None, None]
        dec = eigh(x)
        values, basis = _one_matrix_jacobi(x)
        assert np.array_equal(dec.values, values) and np.array_equal(dec.basis, basis)
        assert _sweeps_needed(x) >= 4

    def test_lost_columns_are_replaced(self, rng):
        # repeated and zero columns lie in the span of those before them
        n = 20
        z = rng.standard_normal((n, n))
        z[:, 5] = z[:, 3]
        z[:, 9:12] = z[:, 8:9]
        z[:, 15] = z[:, 0] + 1e-14 * z[:, 1]
        q = _orthonormalized(z)
        assert max_abs(q.T @ q - np.eye(n)) <= 64 * n * np.finfo(float).eps
        # the columns that were not lost keep their directions
        assert abs(abs(q[:, 0] @ z[:, 0]) - np.sqrt(z[:, 0] @ z[:, 0])) < 1e-12


def _dense_apply(basis, fvals):
    return basis @ (np.asarray(fvals)[:, None] * basis.conj().T)


class TestPermutationBasis:
    """A diagonal input keeps its permutation basis, a monomial `Block`
    whose products scatter onto the diagonal and give the values of the
    dense products; the sign of a zero is not compared."""

    @pytest.mark.parametrize(
        "diag",
        [
            [],
            [-2.5],
            [3.0, 1.0],
            [1.0, 1.0],
            [0.5, -3.0, 2.0, -0.25, 7.0],
            [2.0, 0.0, -1.0, 2.0, 0.0, -1.0, 5.0],
            [-1e-17, 0.0, 1e-300, -4.0],
        ],
        ids=["n0", "n1", "n2-unsorted", "n2-repeated", "unsorted", "repeated-zero", "tiny"],
    )
    def test_diagonal_input_scatters_like_the_dense_products(self, diag):
        x = hermitian(np.diag(np.array(diag, dtype=float)).reshape(len(diag), len(diag)))
        dec = eigh(x)
        n = x.n
        assert dec.block.mat is dec.basis
        cols, vals = dec.block.mono
        assert cols.shape == (n,) and np.array_equal(vals, np.ones(n))
        assert np.array_equal(np.sort(cols), np.arange(n))
        permutation = np.zeros((n, n))
        permutation[np.arange(n), cols] = 1.0
        assert np.array_equal(dec.basis, permutation)
        assert np.array_equal(dec.values, np.sort(np.array(diag, dtype=float)))
        recon = _dense_apply(dec.basis, dec.values)
        assert dec.recon_residual == max_abs(x.mat - recon)
        assert dec.basis_residual == max_abs(dec.basis.conj().T @ dec.basis - np.eye(n)) == 0.0
        fvals = np.linspace(-1.0, 2.0, n) ** 3
        for f in (dec.values, fvals, np.zeros(n)):
            assert np.array_equal(dec.block.outer(f), _dense_apply(dec.basis, f))

    def test_off_diagonal_below_the_stopping_threshold(self):
        # zero sweeps leave a permutation basis; the residual keeps the
        # off-diagonal entries the decomposition did not rotate away
        x = hermitian(np.diag([2.0, -1.0, 0.5]) + 1e-16 * (np.ones((3, 3)) - np.eye(3)))
        dec = eigh(x)
        assert dec.block.mono is not None
        assert dec.recon_residual == max_abs(x.mat - _dense_apply(dec.basis, dec.values)) > 0.0
        f = np.array([1.0, -0.5, 3.0])
        assert np.array_equal(dec.block.outer(f), _dense_apply(dec.basis, f))

    def test_rotated_input_has_no_permutation(self):
        dec = eigh(hermitian([[2.0, 1.0], [1.0, 2.0]]))
        assert dec.block.mono is None
        f = np.array([0.5, 4.0])
        assert np.array_equal(dec.block.outer(f), _dense_apply(dec.basis, f))

    @pytest.mark.parametrize(
        "entry, monomial",
        [(-1.0, True), (1.0 + 2.0**-40, True), (1j, False), (np.exp(0.3j), False)],
        ids=["minus-one", "stretched", "i", "phase"],
    )
    def test_signed_or_phased_permutation_takes_the_dense_product_values(self, entry, monomial):
        # a permutation of unit-modulus entries that are not 1 is a valid
        # eigenbasis of a diagonal matrix: a real one is a monomial `Block`,
        # a complex one takes the dense products; a stretched entry leaves
        # a unitarity residual, read off the monomial's Gram diagonal
        values = np.array([4.0, -1.0, 2.0])
        basis = np.zeros((3, 3), dtype=np.complex128)
        basis[[2, 0, 1], [0, 1, 2]] = [1.0, entry, 1.0]
        x = hermitian(_dense_apply(basis, values))
        iterate = np.diag(values).astype(np.complex128)
        dec = _sorted_decomposition(x, iterate, basis, DEFAULT_TOLERANCES.eig_tol, x.norm_max())
        assert (dec.block.mono is not None) == monomial
        order = np.argsort(values, kind="stable")
        sorted_basis = basis[:, order]
        recon = _dense_apply(sorted_basis, values[order])
        assert dec.recon_residual == max_abs(x.mat - recon)
        assert dec.basis_residual == max_abs(sorted_basis.conj().T @ sorted_basis - np.eye(3))
        f = np.array([0.5, 4.0, -2.0])
        assert np.array_equal(dec.block.outer(f), _dense_apply(sorted_basis, f))

    def test_clamp_keeps_the_permutation(self):
        # an eigenvalue positive within psd_tol is clamped to zero through
        # dataclasses.replace, which must carry the basis block along
        a = hermitian(np.diag([-1.0, 1e-12, -2.0]))
        clamped, dec = _clamp_nonpositive(a, DEFAULT_TOLERANCES, "test")
        lone = eigh(a)
        assert lone.block.mono is not None
        assert dec.block.mat is dec.basis
        assert all(map(np.array_equal, dec.block.mono, lone.block.mono))
        assert np.array_equal(dec.values, [-2.0, -1.0, 0.0])
        assert np.array_equal(clamped.mat, np.diag([-1.0, 0.0, -2.0]))
        assert np.array_equal(clamped.mat, _dense_apply(dec.basis, dec.values))


def _monomial(rng, shape, live, complex_vals=False):
    """A shape-(r, c) matrix with `live` nonzeros, at most one in each row
    and each column, in random rows and columns; a zero row keeps -0.0."""
    r, c = shape
    out = np.zeros(shape, dtype=np.complex128)
    vals = rng.uniform(0.5, 2.0, live) * rng.choice([-1.0, 1.0], live)
    out[rng.permutation(r)[:live], rng.permutation(c)[:live]] = (
        vals * np.exp(1j * rng.uniform(0, 6, live)) if complex_vals else vals
    )
    return out


def _as_block(mat):
    return Block(np.array(mat, dtype=np.complex128))


class TestStructureReaders:
    """The one reader `real_monomial` reads a matrix's structure from its
    stored nonzeros, once per `Block`; the block's products give the bits
    of the dense products (`np.array_equal` does not compare the sign of a
    zero) and write +0.0 on every row with no nonzero."""

    @pytest.mark.parametrize(
        "x,expected",
        [
            (np.zeros((0, 0), dtype=np.complex128), ([], [])),
            (np.array([[2.5 + 0j]]), ([0], [2.5])),
            (np.array([[0j]]), ([0], [0.0])),
            (np.diag([1.0, 0.0, -3.0]).astype(np.complex128), ([0, 0, 2], [1.0, 0.0, -3.0])),
            (np.diag([1.0, 1j, -3.0]), None),
            (np.array([[1j]]), None),
            (np.array([[1.0, 0.0], [0.5, 2.0]], dtype=np.complex128), None),
            (np.array([[1.0, 0.5], [0.0, 2.0]], dtype=np.complex128), None),
            (np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128), ([1, 0], [1.0, 1.0])),
        ],
        ids=["empty", "1x1", "1x1-zero", "empty-row", "complex-entry", "1x1-complex",
             "two-in-a-row", "two-in-a-column", "permutation"],
    )
    def test_real_diagonal(self, x, expected):
        # a real diagonal is the monomial whose row i sits in column i (an
        # empty row reads column 0); a permutation is a monomial too
        block = Block(x)
        if expected is None:
            assert block.mono is None
        else:
            cols, vals = block.mono
            assert np.array_equal(cols, expected[0]) and np.array_equal(vals, expected[1])
        v = np.arange(1.0, x.shape[1] + 1) - 2.5j
        assert np.array_equal(block.dot(v), x @ v)

    @pytest.mark.parametrize(
        "x,expected",
        [
            (np.zeros((0, 0), dtype=np.complex128), ([], [])),
            (np.array([[-2.0 + 0j]]), ([0], [-2.0])),
            (np.array([[0.0, 3.0], [0.0, 0.0], [4.0, 0.0]], dtype=np.complex128),
             ([1, 0, 0], [3.0, 0.0, 4.0])),
            (np.array([[0.0, 0.0, 5.0], [1.5, 0.0, 0.0]], dtype=np.complex128),
             ([2, 0], [5.0, 1.5])),
            (np.array([[0.0, 1j], [1.0, 0.0]]), None),
            (np.array([[1j]]), None),
            (np.array([[1.0, 2.0], [0.0, 0.0]], dtype=np.complex128), None),
            (np.array([[1.0, 0.0], [2.0, 0.0]], dtype=np.complex128), None),
            (np.ones((3, 3), dtype=np.complex128), None),
        ],
        ids=["empty", "1x1", "empty-row", "wide", "complex-entry", "1x1-complex",
             "two-in-a-row", "two-in-a-column", "dense"],
    )
    def test_real_monomial(self, x, expected):
        mono = real_monomial(x)
        if expected is None:
            assert mono is None
            return
        cols, vals = mono
        assert cols.dtype == np.intp and vals.dtype == np.float64
        assert np.array_equal(cols, expected[0]) and np.array_equal(vals, expected[1])

    def test_reads_a_stack_member_by_member(self):
        # a member with two nonzeros in one column refuses the whole stack
        stack = np.zeros((3, 2, 3), dtype=np.complex128)
        stack[0, [0, 1], [2, 0]] = [1.5, -2.0]
        stack[1, 1, 1] = 4.0
        stack[2, [0, 1], [0, 2]] = [0.5, 3.0]
        cols, vals = real_monomial(stack)
        assert np.array_equal(cols, [[2, 0], [0, 1], [0, 2]])
        assert np.array_equal(vals, [[1.5, -2.0], [0.0, 4.0], [0.5, 3.0]])
        stack[1, 0, 1] = 1.0
        assert real_monomial(stack) is None

    def test_products_match_the_dense_ones(self, rng):
        x = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        diag = np.diag([0.5, 0.0, -2.0, 3.0, 1e-300, -1.0, 7.0]).astype(np.complex128)
        # rows 1 and 4 empty, columns 0 and 3 empty
        m = np.zeros((5, 7), dtype=np.complex128)
        m[[0, 2, 3], [4, 1, 6]] = [2.0, -0.5, 3.0]
        for dense in (diag, m):
            block = Block(dense)
            assert block.mono is not None
            assert np.array_equal(block.dot(x), dense @ x)
            assert np.array_equal(block.dot(x[:, 0]), dense @ x[:, 0])
            y = x[: dense.shape[0]]
            assert np.array_equal(block.adjoint_dot(y), dense.conj().T @ y)
            assert np.array_equal(block.gram(), dense.conj().T @ dense)
            g = rng.standard_normal((dense.shape[0],) * 2) + 0j
            assert np.array_equal(block.congruence(g), dense.conj().T @ g @ dense)

    @pytest.mark.parametrize("seed", range(8))
    def test_congruence_diagonal_matches_congruence(self, seed):
        # M* diag(g) M of a monomial with empty rows and columns, zero and
        # negative values: its diagonal has the bits of the dense
        # congruence's, and every other entry of that is zero
        rng = np.random.default_rng(seed)
        r, c = (int(v) for v in rng.integers(1, 9, 2))
        dense = _monomial(rng, (r, c), int(rng.integers(0, min(r, c) + 1)))
        block = _as_block(dense)
        g = rng.standard_normal(r) * rng.integers(0, 2, r)
        full = block.congruence(np.diag(g).astype(np.complex128))
        out = block.congruence_diagonal(g)
        assert out.shape == (c,)
        assert np.array_equal(out, full.diagonal().real)
        assert max_abs(full - np.diag(full.diagonal())) == 0.0
        assert not np.any(full.diagonal().imag)

    @pytest.mark.parametrize("seed", range(6))
    def test_adjoint_matches_the_dense_adjoint(self, seed):
        rng = np.random.default_rng(seed)
        r, c = (int(v) for v in rng.integers(1, 9, 2))
        dense = _monomial(rng, (r, c), int(rng.integers(0, min(r, c) + 1)))
        adjoint = _as_block(dense).adjoint()
        assert adjoint.shape == (c, r)
        assert np.array_equal(adjoint.mat, dense.conj().T)
        x = _complex_gaussian(rng, (r, 3))
        assert np.array_equal(adjoint.dot(x), dense.conj().T @ x)

    @pytest.mark.parametrize("seed", range(6))
    def test_max_difference_matches_the_dense_difference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 8))
        a, b = (_monomial(rng, (n, n), int(rng.integers(0, n + 1))) for _ in range(2))
        for win in range(n + 1):
            expected = max_abs(a[:win, :win] - b[:win, :win])
            assert max_difference(_as_block(a), _as_block(b), win) == expected
            assert max_difference(Block.dense(a), _as_block(b), win) == expected
        assert max_difference(_as_block(a), _as_block(a)) == 0.0

    def test_composition_through_an_empty_dimension_is_zero(self):
        empty = Block.monomial((0, 3), np.zeros(0, dtype=np.intp), np.zeros(0))
        wide = Block.monomial((3, 0), np.zeros(3, dtype=np.intp), np.zeros(3))
        product = empty.then(wide)
        assert product.shape == (3, 3) and np.array_equal(product.mat, np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "shape,offset", [((6, 6), -1), ((6, 6), 0), ((6, 6), 2), ((7, 4), -1), ((4, 7), 1)]
    )
    def test_run_multiplies_by_slices(self, monkeypatch, rng, shape, offset):
        # one diagonal at an offset, as on a shift corner or a diagonal:
        # rows and columns run together, so no product gathers
        dense = np.eye(*shape, k=offset) * rng.uniform(0.5, 2.0, shape[1])
        block = _as_block(dense)
        rows, cols, _ = block._entries
        assert isinstance(rows, slice) and isinstance(cols, slice)
        assert cols.start - rows.start == offset
        x = _complex_gaussian(rng, (shape[1], 3))
        y = _complex_gaussian(rng, (shape[0], 3))
        g = _complex_gaussian(rng, (shape[0], shape[0]))
        assert np.array_equal(block.dot(x), dense @ x)
        assert np.array_equal(block.adjoint_dot(y), dense.T @ y)
        assert np.array_equal(block.congruence(g), dense.T @ g @ dense)
        assert np.array_equal(block.gram(), dense.T @ dense)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_monomials_match_bit_for_bit(self, rng, seed):
        # rectangular shapes, empty rows and columns, zero values
        rng = np.random.default_rng(seed)
        r, c = rng.integers(1, 9, 2)
        dense = _monomial(rng, (r, c), int(rng.integers(0, min(r, c) + 1)))
        block = _as_block(dense)
        assert block.mono is not None
        x = _complex_gaussian(rng, (c, 5))
        y = _complex_gaussian(rng, (r, 5))
        assert np.array_equal(block.dot(x), dense @ x)
        assert np.array_equal(block.dot(x[:, 2]), dense @ x[:, 2])
        assert np.array_equal(block.adjoint_dot(y), dense.T @ y)
        assert np.array_equal(block.gram(), dense.T @ dense)

    @pytest.mark.parametrize("seed", range(6))
    def test_then_chains_match_bit_for_bit(self, rng, seed):
        rng = np.random.default_rng(seed)
        dims = rng.integers(1, 8, 5)
        mats = [_monomial(rng, (dims[i + 1], dims[i]), int(rng.integers(0, min(dims[i : i + 2]) + 1)))
                for i in range(4)]
        chain, dense = _as_block(mats[0]), mats[0]
        for mat in mats[1:]:
            chain, dense = chain.then(_as_block(mat)), mat @ dense
            assert chain.mono is not None and chain.shape == dense.shape
            assert np.array_equal(chain.mat, dense)
            x = _complex_gaussian(rng, (dims[0], 3))
            assert np.array_equal(chain.dot(x), dense @ x)
            assert np.array_equal(chain.gram(), dense.T @ dense)
        # a dense factor makes the rest of the chain dense
        full = _complex_gaussian(rng, (dims[0], dims[0]))
        mixed = _as_block(full).then(_as_block(mats[0])).then(_as_block(mats[1]))
        assert mixed.mono is None
        assert np.array_equal(mixed.mat, mats[1] @ (mats[0] @ full))

    def test_empty_rows_write_positive_zero(self):
        # 0 * x is -0.0 for a negative x; an empty row is +0.0
        dense = np.zeros((4, 4), dtype=np.complex128)
        dense[[0, 2], [1, 3]] = [2.0, -3.0]
        block = Block(dense)
        x = -np.ones((4, 2), dtype=np.complex128)
        for out, empty in ((block.dot(x), [1, 3]), (block.adjoint_dot(x), [0, 2])):
            assert not np.any(np.signbit(out[empty].real)) and not np.any(np.signbit(out[empty].imag))
        zero = Block(np.zeros((1, 1), dtype=np.complex128))
        assert zero.mono is not None
        out = zero.dot(np.array([-1.0 - 1.0j]))
        assert not np.signbit(out[0].real) and not np.signbit(out[0].imag)

    @pytest.mark.parametrize("seed", range(6))
    def test_outer_matches_the_dense_product(self, seed):
        # M diag(f) M* with f of both signs and zeros: value-equal on a
        # monomial (empty rows included), bit-equal on the dense path
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        f = rng.standard_normal(n) * rng.integers(0, 2, n)
        for complex_vals in (False, True):
            live = int(rng.integers(int(complex_vals), n + 1))
            mat = _monomial(rng, (n, n), live, complex_vals)
            block = Block(mat)
            assert (block.mono is None) == complex_vals
            expected = mat @ (f[:, None] * mat.conj().T)
            out = block.outer(f)
            assert out.shape == (n, n) and np.array_equal(out, expected)
            if block.mono is None:
                assert out.tobytes() == expected.tobytes()

    def test_refused_block_takes_the_dense_product(self, rng):
        dense = _monomial(rng, (5, 5), 4, complex_vals=True)
        full = _complex_gaussian(rng, (5, 5))
        x = _complex_gaussian(rng, (5, 3))
        for mat in (dense, full):
            block = Block(mat)
            assert block.mono is None
            assert np.array_equal(block.dot(x), mat @ x)
            assert np.array_equal(block.adjoint_dot(x), mat.conj().T @ x)
            assert np.array_equal(block.gram(), mat.conj().T @ mat)
            assert np.array_equal(block.congruence(full), mat.conj().T @ full @ mat)

    def test_dense_form_of_a_monomial_is_read_only(self):
        # `mat` is made from `mono` when read; a write into it would split
        # the two, so it raises
        for block in (Block.identity(3), Block.diag(np.arange(6.0).reshape(2, 3))):
            assert not block.mat.flags.writeable
            with pytest.raises(ValueError):
                block.mat[..., 0, 0] = 2.0
        assert np.array_equal(Block.identity(3).mat, np.eye(3))
        assert Block.identity(0).mat.shape == (0, 0)

    def test_as_diagonal_reads_only_a_diagonal(self):
        assert np.array_equal(Block(np.diag([1.0, 0.0, -2.0]) + 0j).as_diagonal(), [1.0, 0.0, -2.0])
        assert Block(np.array([[0.0, 1.0], [1.0, 0.0]]) + 0j).as_diagonal() is None
        assert Block(np.array([[1.0, 1.0], [0.0, 1.0]]) + 0j).as_diagonal() is None
        assert Block.dense(np.eye(2) + 0j).as_diagonal() is None

    def test_stack_dot_and_members_keep_the_structure(self, monkeypatch, rng):
        stack = np.array([_monomial(rng, (4, 4), live) for live in (4, 2, 3)])
        block = Block(stack)
        x = _complex_gaussian(rng, (3, 4, 5))
        assert np.array_equal(block.dot(x), stack @ x)
        assert block.mono is not None
        reads = []
        monkeypatch.setattr(
            hermitian_module, "real_monomial", lambda m: reads.append(m.shape)
        )
        assert block[:3] is block
        assert np.array_equal(block[:2].dot(x[:2]), stack[:2] @ x[:2])
        assert np.array_equal(block[1].dot(x[1]), stack[1] @ x[1])
        assert reads == []
        # one refused member leaves every member to the dense product
        stack[2, 0, :] = 1.0
        refused = Block(stack)
        monkeypatch.undo()
        assert refused.mono is None and refused[0].mono is None
        assert np.array_equal(refused.dot(x), stack @ x)


def _roots(x, tols=DEFAULT_TOLERANCES, range_scale=0.0):
    """psd_root of x on its own decomposition, with that decomposition."""
    dec = eigh(x, tols.eig_tol)
    kept, root, inv_root = psd_root(x, tols, dec, range_scale, what="square root")
    return kept, root.mat, inv_root.mat, dec


class TestSqrtPsd:
    """The principal root R that `psd_root` returns."""

    def test_identity(self):
        _, root, _, _ = _roots(identity(3))
        assert max_abs(root - np.eye(3)) < 1e-14

    def test_scalar(self):
        # the second weight of the scalar 3-concave walkthrough
        _, root, _, _ = _roots(hermitian([[1.25]]))
        assert root[0, 0].real == pytest.approx(math.sqrt(5) / 2, abs=1e-14)

    def test_diagonal(self):
        _, root, _, _ = _roots(hermitian(np.diag([4.0, 9.0])))
        assert np.allclose(root, np.diag([2.0, 3.0]), atol=1e-13)

    def test_rejects_negative(self):
        with pytest.raises(NotPsdError, match="square root: metric not PSD"):
            _roots(hermitian(np.diag([1.0, -1.0])))

    def test_clamps_tiny_negative(self):
        kept, root, inv_root, _ = _roots(hermitian([[-1e-12]]))
        assert root[0, 0].real == 0.0
        assert not kept.any() and inv_root[0, 0] == 0.0

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 2**31))
    def test_square_reconstructs(self, n, seed):
        x = random_psd(np.random.default_rng(seed), n)
        _, root, _, _ = _roots(x)
        limit = DEFAULT_TOLERANCES.sqrt_tol * (1.0 + x.norm_max())
        assert max_abs(root @ root - x.mat) <= limit
        assert psd_check(hermitian(root)).is_psd


class TestPinvSqrt:
    """The pseudo-inverse root R+ and the kept range that `psd_root` returns."""

    def test_diagonal_with_kernel(self):
        kept, _, inv_root, dec = _roots(hermitian(np.diag([4.0, 0.0])))
        assert np.allclose(inv_root, np.diag([0.5, 0.0]), atol=1e-14)
        assert np.allclose(dec.block.outer(kept), np.diag([1.0, 0.0]), atol=1e-14)
        assert kept.sum() == 1

    def test_identity_full_rank(self):
        kept, _, inv_root, _ = _roots(identity(4))
        assert max_abs(inv_root - np.eye(4)) < 1e-13
        assert kept.sum() == 4

    def test_below_cutoff_treated_as_kernel(self):
        x = hermitian(np.diag([1.0, 1e-30]))
        kept, _, inv_root, dec = _roots(x, Tolerances(rank_tol=1e-10))
        assert np.allclose(inv_root, np.diag([1.0, 0.0]))
        assert np.allclose(dec.block.outer(kept), np.diag([1.0, 0.0]))
        assert kept.sum() == 1

    def test_projector_trace_is_rank(self, rng):
        kept, _, _, dec = _roots(random_psd(rng, 8))
        assert round(dec.block.outer(kept).trace().real) == kept.sum() == 8

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 10), zeros=st.integers(0, 4), seed=st.integers(0, 2**31))
    def test_projector_identity(self, n, zeros, seed):
        # prescribed spectrum with explicit kernel directions keeps the
        # triple product conditioning under control
        rng = np.random.default_rng(seed)
        zeros = min(zeros, n - 1) if n > 1 else 0
        lam = np.concatenate([np.zeros(zeros), rng.uniform(1e-3, 10.0, n - zeros)])
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        basis = eigh(hermitian(g + g.conj().T)).basis
        x = hermitian(basis @ np.diag(lam) @ basis.conj().T)
        kept, _, inv_root, dec = _roots(x)
        assert kept.sum() == n - zeros
        projector = dec.block.outer(kept)
        assert max_abs(inv_root @ x.mat @ inv_root - projector) < 1e-8 * (1 + x.norm_max())

    def test_range_scale_keeps_a_vanishing_difference_out_of_the_range(self):
        # the roundoff left by a difference of two unit-scale forms that
        # cancel: relative to its own largest eigenvalue the noise is range,
        # relative to the scale of the terms (the reference dilation passes
        # 1 + their norms) it is kernel
        x = hermitian(np.diag([2e-16, 1e-16, 0.0]))
        kept, _, _, _ = _roots(x)
        assert kept.sum() == 2
        kept, root, inv_root, _ = _roots(x, range_scale=3.0)
        assert not kept.any()
        assert max_abs(inv_root) == 0.0
        assert max_abs(root) < 1e-7


class TestPsdCheck:
    def test_identity(self):
        ok, min_eig = psd_check(identity(3))
        assert ok and min_eig == pytest.approx(1.0)

    def test_indefinite(self):
        ok, min_eig = psd_check(hermitian(np.diag([1.0, -1.0])))
        assert not ok and min_eig == pytest.approx(-1.0)

    def test_both_directions_of_a_vanishing_form(self):
        # the 2-defect of the harmonic-weight shift vanishes identically on
        # its exact window, so it is nonnegative in both directions
        from isodilation.operators import WeightRule, defect_form, make_shift_corner

        corner = make_shift_corner(WeightRule.dirichlet(), 8)
        w = corner.window_after(2)
        window = hermitian(defect_form(corner, 2).mat[:w, :w])
        assert psd_check(window).is_psd
        assert psd_check(hermitian(-window.mat)).is_psd
        assert abs(psd_check(window).min_eig) < 1e-13

    @pytest.mark.parametrize("diag", [[1.0, -2.0, 0.5], [0.25, 3.0], [-1.0, -4.0], [0.0, 0.0]])
    def test_negate_tests_the_negative(self, diag):
        x = hermitian(np.diag(diag))
        assert psd_check(x, negate=True) == psd_check(hermitian(-x.mat))

    def test_negate_reads_plus_zero_on_a_vanishing_form(self):
        # -beta's least eigenvalue is read as 0.0 - (largest of beta): never
        # -0.0, the bits of the reports' m_concave residual
        negated = psd_check(hermitian(np.zeros((3, 3))), negate=True)
        assert negated.is_psd
        assert negated.min_eig == 0.0 and math.copysign(1.0, negated.min_eig) == 1.0
