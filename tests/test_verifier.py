"""Verifier checks: block power formula, isometry criterion, minimality,
non-isomorphism certificate, and the equivalence in both directions."""

import dataclasses
import math

import numpy as np
import pytest

from isodilation.builder import (
    assemble_dilation,
    build_badea_2iso,
    build_general_model,
    build_three_concave_model,
    perturb_weight,
)
from isodilation.diagonal import defect_diagonal
from isodilation.operators import WeightRule, dense_corner, make_shift_corner
from isodilation.qsolver import solve_q_shift_diagonal
from isodilation.verifier import (
    _column_space_rank,
    check_criterion_identity,
    check_dilation_property,
    check_minimality,
    check_powers_formula,
    check_w_m_isometry,
    check_weight_shift_isometry,
    nonisomorphism_certificate,
    remark_consistency,
)


@pytest.fixture(scope="module")
def scalar_model():
    t = dense_corner([[1 / math.sqrt(2)]])
    model, weights = build_three_concave_model(t, weights_horizon=10)
    return model, weights, assemble_dilation(model, weights, 5)


@pytest.fixture(scope="module")
def strict_pair():
    rule = WeightRule.geometric_concave(0.5)
    n = 20
    corner = make_shift_corner(rule, n)
    delta = defect_diagonal(rule, 1, 4 * n + 1)
    sol = solve_q_shift_diagonal(rule, delta, 4 * n, dim=n - 2)
    model, weights = build_general_model(corner, 2, sol, weights_horizon=10)
    general = assemble_dilation(model, weights, 6)
    bmodel, bweights, badea = build_badea_2iso(corner, sol, 6)
    return model, weights, general, bmodel, badea


class TestDilationProperty:
    def test_degenerate_w_equals_t(self):
        f = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        from isodilation.qsolver import QSolution
        from isodilation.hermitian import hermitian

        q = QSolution(hermitian(np.zeros((2, 2))), "zero", None, 0.0, 0.0)
        model, weights = build_general_model(dense_corner(f), 2, q, 6)
        dil = assemble_dilation(model, weights, 4)
        assert check_dilation_property(dil).residual == 0.0

    def test_scalar_model(self, scalar_model):
        _, _, dil = scalar_model
        assert check_dilation_property(dil).residual <= 1e-13

    def test_strict_model(self, strict_pair):
        _, _, general, _, _ = strict_pair
        assert check_dilation_property(general).residual <= 1e-12


class TestPowersFormula:
    def test_hand_computed_scalar_case(self, scalar_model):
        model, weights, _ = scalar_model
        # W^3 applied to (1, 0, 0, 0, 0) lands as
        # (t^3, U t^2, S1 U t, S2 S1 U, 0) with t = 1/sqrt(2), U = 1/2
        dil = assemble_dilation(model, weights, 4)
        h = np.zeros(5, dtype=complex)
        h[0] = 1.0
        y = dil.matrix @ (dil.matrix @ (dil.matrix @ h))
        t = 1 / math.sqrt(2)
        expected = [t**3, 0.5 * t**2, 0.5 * t, math.sqrt(5) / 4, 0.0]
        assert np.allclose(y.real, expected, atol=1e-13)
        assert y.real[3] == pytest.approx(0.559017, abs=1e-6)

    def test_residuals(self, scalar_model, strict_pair):
        _, _, dil = scalar_model
        assert check_powers_formula(dil).residual <= 1e-11
        _, _, general, _, _ = strict_pair
        assert check_powers_formula(general).residual <= 1e-11

    def test_block_support_beyond_m(self, strict_pair):
        # h supported in block 2 only: W^2 h lands in block 4 as S3 S2 h_2
        model, weights, general, _, _ = strict_pair
        d = model.dim_hprime
        h = np.zeros(general.dim_total, dtype=complex)
        rng = np.random.default_rng(3)
        vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        h[general.block_slice(2)] = vec
        y = general.matrix @ (general.matrix @ h)
        expected = weights.weights[2].mat @ (weights.weights[1].mat @ vec)
        assert np.allclose(y[general.block_slice(4)], expected, atol=1e-12)


class TestWMIsometry:
    def test_unweighted_shift_corner(self):
        rule = WeightRule.constant(1.0)
        corner = make_shift_corner(rule, 12)
        delta = defect_diagonal(rule, 1, 49)
        sol = solve_q_shift_diagonal(rule, delta, 48, dim=10)
        model, weights = build_general_model(corner, 2, sol, 8)
        dil = assemble_dilation(model, weights, 5)
        assert check_w_m_isometry(dil).residual <= 1e-13

    def test_scalar_three_isometric(self, scalar_model):
        _, _, dil = scalar_model
        assert check_w_m_isometry(dil).residual <= 1e-10

    def test_badea_two_isometric(self, strict_pair):
        _, _, _, _, badea = strict_pair
        assert check_w_m_isometry(badea).residual <= 1e-10


class TestCriterionIdentity:
    def test_scalar(self, scalar_model):
        model, weights, _ = scalar_model
        assert check_criterion_identity(model, weights).residual <= 1e-12

    def test_strict(self, strict_pair):
        model, weights, _, _, _ = strict_pair
        assert check_criterion_identity(model, weights).residual <= 1e-10

    def test_isometric_input_binomial_collapse(self):
        rule = WeightRule.dirichlet()
        corner = make_shift_corner(rule, 16)
        delta = defect_diagonal(rule, 1, 65)
        sol = solve_q_shift_diagonal(rule, delta, 64, dim=14)
        model, weights = build_general_model(corner, 2, sol, 8)
        assert check_criterion_identity(model, weights).residual <= 1e-10


class TestEquivalenceBothDirections:
    """W is m-isometric iff the weight shift is m-isometric and the scalar
    criterion holds; a corrupted weight breaks exactly the shift side."""

    def test_intact_model_all_pass(self, strict_pair):
        model, weights, general, _, _ = strict_pair
        assert check_w_m_isometry(general).passed
        assert check_criterion_identity(model, weights).passed
        assert check_weight_shift_isometry(weights, 2).passed

    def test_corrupted_weight_localized(self, strict_pair):
        model, weights, _, _, _ = strict_pair
        bad_weights = perturb_weight(weights, 2, 0.1)
        bad_dil = assemble_dilation(model, bad_weights, 6)
        iso = check_w_m_isometry(bad_dil)
        assert not iso.passed
        assert iso.residual > 1e-3
        pdiff = check_weight_shift_isometry(bad_weights, 2)
        assert not pdiff.passed
        # for m = 2 the criterion identity involves only S_1, so the
        # corruption of S_2 is localized by the shift check alone
        crit = check_criterion_identity(model, bad_weights)
        assert crit.passed

    def test_corrupted_u_localized_by_criterion(self, strict_pair):
        # the complementary direction: bumping U leaves the weight shift
        # m-isometric but breaks the scalar identity and hence W
        import dataclasses

        model, weights, _, _, _ = strict_pair
        bad_model = dataclasses.replace(model, u=model.u + 0.1)
        bad_dil = assemble_dilation(bad_model, weights, 6)
        assert check_weight_shift_isometry(weights, 2).passed
        crit = check_criterion_identity(bad_model, weights)
        assert not crit.passed
        iso = check_w_m_isometry(bad_dil)
        assert not iso.passed and iso.residual > 1e-3


def _max_column_norm(cols):
    return float(np.max(np.sqrt(np.sum(np.abs(cols) ** 2, axis=0))))


class TestMinimality:
    def test_column_rank_util(self, rng):
        g1 = rng.standard_normal((30, 7)) + 1j * rng.standard_normal((30, 7))
        g2 = rng.standard_normal((7, 40)) + 1j * rng.standard_normal((7, 40))
        prod = g1 @ g2
        thresh = 1e-6 * _max_column_norm(prod)
        assert _column_space_rank(prod, thresh) == np.linalg.matrix_rank(prod)
        assert _column_space_rank(np.zeros((5, 3), dtype=complex), 0.0) == 0
        # a threshold above every column norm accepts nothing
        assert _column_space_rank(prod, 2.0 * _max_column_norm(prod)) == 0

    def test_scalar_full_rank(self, scalar_model):
        model, weights, _ = scalar_model
        dil = assemble_dilation(model, weights, 5)
        res = check_minimality(dil)
        assert res.passed
        assert "rank 6 of 6" in res.window

    def test_degenerate_vacuous(self):
        f = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        from isodilation.qsolver import QSolution
        from isodilation.hermitian import hermitian

        q = QSolution(hermitian(np.zeros((2, 2))), "zero", None, 0.0, 0.0)
        model, weights = build_general_model(dense_corner(f), 2, q, 6)
        dil = assemble_dilation(model, weights, 4)
        assert check_minimality(dil).passed

    def test_zeroed_u_negative_control(self, scalar_model):
        model, weights, _ = scalar_model
        dil = assemble_dilation(model, weights, 5)
        bad = dataclasses.replace(dil, u=np.zeros_like(dil.u))
        res = check_minimality(bad)
        assert not res.passed
        # the rank deficit is exactly the number of unreachable blocks
        assert res.residual == dil.n_blocks * model.dim_hprime

    def test_strict_pair_full_rank(self, strict_pair):
        _, _, general, _, badea = strict_pair
        assert check_minimality(general).passed
        assert check_minimality(badea).passed


def _dense_orbit_rank(dilation, rel_tol=1e-6):
    """Gram-Schmidt rank of the dense orbit [W^n e : n = 0..n_blocks]."""
    cur = np.eye(dilation.dim_total, dilation.dim_h, dtype=complex)
    blocks = [cur]
    for _ in range(dilation.n_blocks):
        cur = dilation.matrix @ cur
        blocks.append(cur)
    cols = np.concatenate(blocks, axis=1)
    return _column_space_rank(cols, rel_tol * _max_column_norm(cols))


class TestBlockMinimalityOracle:
    """The block rank w + sum_k rank(S_(k-1)...S_1 U) against the dense pass."""

    @pytest.fixture(scope="class")
    def dense_three_concave(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        q, _ = np.linalg.qr(g)
        z = rng.uniform(0.1, 0.95, 8) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 8))
        model, weights = build_three_concave_model(
            dense_corner((q * z) @ q.conj().T), weights_horizon=10
        )
        return assemble_dilation(model, weights, 6)

    def _assert_matches(self, dil):
        assert check_minimality(dil).residual == dil.dim_total - _dense_orbit_rank(dil)

    def test_scalar(self, scalar_model):
        self._assert_matches(scalar_model[2])

    def test_strict_pair(self, strict_pair):
        _, _, general, _, badea = strict_pair
        self._assert_matches(general)
        self._assert_matches(badea)

    def test_dense_three_concave(self, dense_three_concave):
        assert dense_three_concave.dim_hprime == 8
        self._assert_matches(dense_three_concave)

    def test_zeroed_u(self, strict_pair, dense_three_concave):
        for dil in (strict_pair[2], dense_three_concave):
            bad = dataclasses.replace(dil, u=np.zeros_like(dil.u))
            self._assert_matches(bad)
            assert check_minimality(bad).residual == dil.n_blocks * dil.dim_hprime

    def test_rank_one_u(self, strict_pair, dense_three_concave):
        for dil in (strict_pair[2], dense_three_concave):
            lead = np.zeros_like(dil.u)
            lead[:, 0] = dil.u[:, 0]
            bad = dataclasses.replace(dil, u=lead)
            self._assert_matches(bad)
            # every P_k = S_(k-1)...S_1 U has rank 1
            assert check_minimality(bad).residual == dil.dim_total - dil.dim_h - dil.n_blocks


class TestCertificate:
    def test_strict_certificate_found(self, strict_pair):
        _, _, general, _, badea = strict_pair
        res = nonisomorphism_certificate(general, badea, expected_found=True)
        assert res.passed
        assert res.residual == pytest.approx(0.5, abs=1e-10)

    def test_gap_matches_first_defect_form(self, strict_pair):
        model, _, general, _, badea = strict_pair
        h = np.zeros(model.dim_h, dtype=complex)
        h[0] = 1.0
        xg = np.zeros(general.dim_total, dtype=complex)
        xg[: model.dim_h] = h
        xb = np.zeros(badea.dim_total, dtype=complex)
        xb[: model.dim_h] = h
        gap = abs(
            np.vdot(general.matrix @ xg, general.matrix @ xg).real
            - np.vdot(badea.matrix @ xb, badea.matrix @ xb).real
        )
        form = np.vdot(h, model.defect_prev.mat @ h).real
        assert gap == pytest.approx(form, abs=1e-12)
        assert gap == pytest.approx(0.5, abs=1e-12)

    def test_isometric_input_no_certificate(self):
        rule = WeightRule.constant(1.0)
        corner = make_shift_corner(rule, 12)
        delta = defect_diagonal(rule, 1, 49)
        sol = solve_q_shift_diagonal(rule, delta, 48, dim=10)
        model, weights = build_general_model(corner, 2, sol, 8)
        general = assemble_dilation(model, weights, 5)
        _, _, badea = build_badea_2iso(corner, sol, 5)
        res = nonisomorphism_certificate(general, badea, expected_found=False)
        assert res.passed
        assert res.residual <= 1e-12

    def test_expectation_mismatch_fails(self, strict_pair):
        _, _, general, _, badea = strict_pair
        res = nonisomorphism_certificate(general, badea, expected_found=False)
        assert not res.passed


class TestRemark:
    def test_dirichlet_isometric_branch(self):
        rule = WeightRule.dirichlet()
        corner = make_shift_corner(rule, 16)
        delta = defect_diagonal(rule, 1, 65)
        sol = solve_q_shift_diagonal(rule, delta, 64, dim=14)
        model, weights = build_general_model(corner, 2, sol, 8)
        res = remark_consistency(model, weights)
        assert res.passed  # S_1 = I and vanishing defect: consistent

    def test_strict_branch(self, strict_pair):
        model, weights, _, _, _ = strict_pair
        res = remark_consistency(model, weights)
        assert res.passed  # S_1 != I and nonvanishing defect: consistent

    def test_degenerate_vacuous(self):
        f = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        from isodilation.qsolver import QSolution
        from isodilation.hermitian import hermitian

        q = QSolution(hermitian(np.zeros((2, 2))), "zero", None, 0.0, 0.0)
        model, weights = build_general_model(dense_corner(f), 2, q, 6)
        assert remark_consistency(model, weights).passed

    def test_inconsistent_pair_detected(self, strict_pair):
        # identity weights with a nonvanishing represented form must trip it
        model, weights, _, _, _ = strict_pair
        from isodilation.builder import ShiftWeights
        from isodilation.hermitian import identity

        eye = identity(model.dim_hprime)
        fake = ShiftWeights((eye,) * 4, (eye,) * 4)
        assert not remark_consistency(model, fake).passed
