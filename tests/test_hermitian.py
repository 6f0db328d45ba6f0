"""Kernel tests: eigendecomposition, matrix roots, polynomial evaluation.

numpy.linalg is used here only as an independent oracle; the production
code never calls it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodilation.errors import ConvergenceError, HermitianityError, NotPsdError
from isodilation.hermitian import (
    eigh,
    hermitian,
    identity,
    max_abs,
    pinv_sqrt,
    poly_eval,
    psd_check,
    spectral_apply,
    sqrt_psd,
)
from isodilation.tolerances import DEFAULT_TOLERANCES, Tolerances


def random_hermitian(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian(scale * (g + g.conj().T) / 2.0)


def random_psd(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian(scale * (g.conj().T @ g))


class TestHermitianConstruction:
    def test_symmetrizes_and_records_defect(self):
        h = hermitian([[1.0, 1e-12], [0.0, 2.0]])
        assert h.defect == pytest.approx(1e-12, rel=1e-6)
        assert max_abs(h.mat - h.mat.conj().T) == 0.0

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


class TestEigh:
    @pytest.mark.parametrize("n", [2, 3, 8, 13])
    def test_rotation_schedule_covers_every_pair_once(self, n):
        from isodilation.hermitian import _rotation_rounds

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
        recon = spectral_apply(dec, dec.values)
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


class TestSqrtPsd:
    def test_identity(self):
        assert max_abs(sqrt_psd(identity(3)).mat - np.eye(3)) < 1e-14

    def test_scalar(self):
        # the second weight of the scalar 3-concave walkthrough
        r = sqrt_psd(hermitian([[1.25]]))
        assert r.mat[0, 0].real == pytest.approx(math.sqrt(5) / 2, abs=1e-14)

    def test_diagonal(self):
        r = sqrt_psd(hermitian(np.diag([4.0, 9.0])))
        assert np.allclose(r.mat, np.diag([2.0, 3.0]), atol=1e-13)

    def test_rejects_negative(self):
        with pytest.raises(NotPsdError):
            sqrt_psd(hermitian(np.diag([1.0, -1.0])))

    def test_clamps_tiny_negative(self):
        r = sqrt_psd(hermitian([[-1e-12]]))
        assert r.mat[0, 0].real == 0.0

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 2**31))
    def test_square_reconstructs(self, n, seed):
        x = random_psd(np.random.default_rng(seed), n)
        r = sqrt_psd(x)
        limit = DEFAULT_TOLERANCES.sqrt_tol * (1.0 + x.norm_max())
        assert max_abs(r.mat @ r.mat - x.mat) <= limit
        assert psd_check(r).is_psd


class TestPinvSqrt:
    def test_diagonal_with_kernel(self):
        root, proj, rank = pinv_sqrt(hermitian(np.diag([4.0, 0.0])))
        assert np.allclose(root.mat, np.diag([0.5, 0.0]), atol=1e-14)
        assert np.allclose(proj.mat, np.diag([1.0, 0.0]), atol=1e-14)
        assert rank == 1

    def test_identity_full_rank(self):
        root, proj, rank = pinv_sqrt(identity(4))
        assert max_abs(root.mat - np.eye(4)) < 1e-13
        assert rank == 4

    def test_below_cutoff_treated_as_kernel(self):
        root, proj, rank = pinv_sqrt(hermitian(np.diag([1.0, 1e-30])), tols=Tolerances(rank_tol=1e-10))
        assert np.allclose(root.mat, np.diag([1.0, 0.0]))
        assert np.allclose(proj.mat, np.diag([1.0, 0.0]))
        assert rank == 1

    def test_projector_trace_is_rank(self, rng):
        x = random_psd(rng, 8)
        root, proj, rank = pinv_sqrt(x)
        assert round(proj.mat.trace().real) == rank == 8

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
        root, proj, rank = pinv_sqrt(x)
        assert rank == n - zeros
        assert max_abs(root.mat @ x.mat @ root.mat - proj.mat) < 1e-8 * (1 + x.norm_max())


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


class TestPolyEval:
    def test_constant(self):
        p = poly_eval([identity(3)], 17)
        assert max_abs(p.mat - np.eye(3)) == 0.0

    def test_scalar_linear(self):
        # z/4 + 1 at z = 2
        p = poly_eval([hermitian([[1.0]]), hermitian([[0.25]])], 2)
        assert p.mat[0, 0].real == pytest.approx(1.5, abs=1e-15)

    def test_scalar_quadratic(self):
        # z(z-1)/8 + 1 = z^2/8 - z/8 + 1 at z = 3 -> 7/4
        coeffs = [hermitian([[1.0]]), hermitian([[-0.125]]), hermitian([[0.125]])]
        p = poly_eval(coeffs, 3)
        assert p.mat[0, 0].real == pytest.approx(1.75, abs=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(0, 9), deg=st.integers(0, 4), seed=st.integers(0, 2**31))
    def test_matches_horner_oracle(self, n, deg, seed):
        rng = np.random.default_rng(seed)
        base = random_hermitian(rng, 4)
        # coefficients are scalar multiples of powers of one matrix, so they commute
        coeffs = [
            hermitian(rng.uniform(-2, 2) * np.linalg.matrix_power(base.mat, k % 3))
            for k in range(deg + 1)
        ]
        value = poly_eval(coeffs, n)
        horner = np.zeros_like(base.mat)
        for c in reversed(coeffs):
            horner = horner * n + c.mat
        scale = max(max_abs(horner), 1.0)
        assert max_abs(value.mat - horner) <= 1e-12 * scale
