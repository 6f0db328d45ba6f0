"""Diagonal fast path vs the dense eigendecomposition path."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodilation.builder import LEADING_WEIGHTS, build_general_model, build_three_concave_model
from isodilation.diagonal import build_diagonal_model, dense_agreement_residual
from isodilation.hermitian import max_abs
from isodilation.operators import (
    DefectForms,
    WeightRule,
    defect_diagonal,
    defect_form,
    dense_corner,
    make_shift_corner,
)
from isodilation.qsolver import solve_q_shift_diagonal

RULES = st.one_of(
    st.just(WeightRule.dirichlet()),
    st.floats(0.6, 1.6).map(WeightRule.constant),
    st.floats(0.1, 0.85).map(WeightRule.geometric_concave),
)


class TestDefectDiagonal:
    @settings(max_examples=25, deadline=None)
    @given(rule=RULES, m=st.integers(1, 4))
    def test_matches_matrix_route(self, rule, m):
        n = 12
        corner = make_shift_corner(rule, n)
        beta = defect_form(corner, m)
        w = corner.window_after(m)
        diag = defect_diagonal(rule, m, w)
        matrix_diag = np.diagonal(beta.mat)[:w].real
        assert np.max(np.abs(diag - matrix_diag)) <= 1e-12 * (1 + max_abs(beta.mat))

    def test_dirichlet_first_defect(self):
        diag = defect_diagonal(WeightRule.dirichlet(), 1, 6)
        assert diag == pytest.approx([1 / (n + 1) for n in range(6)], abs=1e-14)


class TestAgreement:
    def _general(self, rule, m, n):
        corner = make_shift_corner(rule, n)
        delta = defect_diagonal(rule, m - 1, n - m)
        sol = solve_q_shift_diagonal(corner, delta)
        dil = build_general_model(DefectForms(corner), m, sol, n_blocks=6)
        return dil, build_diagonal_model(dil.model, sol.q_seq)

    def test_dirichlet(self):
        dil, diag = self._general(WeightRule.dirichlet(), 2, 24)
        assert dense_agreement_residual(dil, diag) < 1e-10

    def test_strict_geometric(self):
        dil, diag = self._general(WeightRule.geometric_concave(0.5), 2, 24)
        assert dense_agreement_residual(dil, diag) < 1e-10

    # 2-concavity of the geometric rule requires r^2 <= 1 - r, i.e. r below
    # the golden-ratio conjugate; beyond it the 2-defect turns positive at
    # the corner
    @settings(max_examples=10, deadline=None)
    @given(r=st.floats(0.15, 0.6))
    def test_geometric_family(self, r):
        dil, diag = self._general(WeightRule.geometric_concave(r), 2, 16)
        assert dense_agreement_residual(dil, diag) < 1e-10

    def test_geometric_beyond_concavity_bound_rejected(self):
        # the closed-form metric q_0 = delta_0 is least only on a 2-concave
        # shift; here it fails to dominate the defect before any build
        from isodilation.errors import NotPsdError

        with pytest.raises(NotPsdError, match="fails to dominate"):
            self._general(WeightRule.geometric_concave(0.75), 2, 16)

    def test_three_concave_shift(self):
        # a contractive constant shift is 3-concave but not expansive
        rule = WeightRule.constant(0.8)
        n = 16
        corner = make_shift_corner(rule, n)
        dil = build_three_concave_model(DefectForms(corner), n_blocks=6)
        diag = build_diagonal_model(dil.model)
        assert dense_agreement_residual(dil, diag) < 1e-10
        # A is the constant c^2 (c^2 - 1) on the diagonal
        c2 = 0.64
        assert diag.a_diag == pytest.approx(np.full(diag.support.size, c2 * (c2 - 1)))

    def test_reads_the_model_it_checks(self):
        # the reference forms the weights the agreement compares,
        # S_1 .. S_max(8, m-1), and refuses a model of another window
        dil, diag = self._general(WeightRule.geometric_concave(0.5), 2, 24)
        assert diag.window == dil.model.dim_h
        assert len(diag.weight_diags) == LEADING_WEIGHTS == 8
        with pytest.raises(ValueError, match="window mismatch"):
            dense_agreement_residual(dil, dataclasses.replace(diag, window=diag.window + 1))

    def test_dense_corner_has_no_reference(self):
        model = build_three_concave_model(DefectForms(dense_corner([[0.5]])), n_blocks=6).model
        with pytest.raises(ValueError, match="shift corner"):
            build_diagonal_model(model)
