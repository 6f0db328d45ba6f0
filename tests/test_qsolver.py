"""Invariant metric solvers: diagonal shift solve and the unitary closed form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodilation.diagonal import defect_diagonal
from isodilation.errors import NotPsdError, PreconditionError, UnboundedQError
from isodilation.hermitian import hermitian, max_abs
from isodilation.operators import WeightRule, dense_corner, make_shift_corner
from isodilation.qsolver import solve_q_shift_diagonal, solve_q_unitary, verify_q


def brute_force_q0(rule: WeightRule, delta_diag, horizon: int) -> float:
    """Independent oracle: scan delta_n * (w_1^2 ... w_n^2) directly."""
    best = 0.0
    prod = 1.0
    for n in range(horizon + 1):
        if n > 0:
            prod *= rule.weight_sq(n)
        best = max(best, max(delta_diag[n], 0.0) * prod)
    return best


class TestDiagonalSolver:
    def test_dirichlet_harmonic_solution(self):
        rule = WeightRule.dirichlet()
        delta = defect_diagonal(rule, 1, 65)
        sol = solve_q_shift_diagonal(rule, delta, 64, dim=16)
        assert sol.q0 == pytest.approx(1.0, abs=1e-12)
        expected = np.array([1.0 / (n + 1) for n in range(65)])
        assert np.max(np.abs(sol.q_seq - expected)) < 1e-12
        assert sol.method == "diagonal_shift"

    def test_isometry_needs_no_metric(self):
        rule = WeightRule.constant(1.0)
        delta = defect_diagonal(rule, 1, 33)
        sol = solve_q_shift_diagonal(rule, delta, 32, dim=8)
        assert sol.method == "zero"
        assert max_abs(sol.q.mat) == 0.0

    def test_geometric_supremum_attained_at_zero(self):
        rule = WeightRule.geometric_concave(0.5)
        delta = defect_diagonal(rule, 1, 65)
        sol = solve_q_shift_diagonal(rule, delta, 64, dim=16)
        assert sol.q0 == pytest.approx(0.5, abs=1e-14)
        assert sol.q0 == pytest.approx(brute_force_q0(rule, delta, 64), abs=1e-14)

    def test_matches_brute_force_oracle_on_dirichlet(self):
        rule = WeightRule.dirichlet()
        delta = defect_diagonal(rule, 1, 65)
        sol = solve_q_shift_diagonal(rule, delta, 64, dim=8)
        assert sol.q0 == pytest.approx(brute_force_q0(rule, delta, 64), rel=1e-13)

    def test_unbounded_supremum_rejected(self):
        # expansive but not 2-concave: delta_n * products grows like 2^n
        rule = WeightRule.constant(math.sqrt(2))
        delta = defect_diagonal(rule, 1, 33)
        with pytest.raises(UnboundedQError):
            solve_q_shift_diagonal(rule, delta, 32, dim=8)

    def test_negative_defect_rejected(self):
        rule = WeightRule.dirichlet()
        with pytest.raises(NotPsdError):
            solve_q_shift_diagonal(rule, np.full(33, -1.0), 32, dim=8)

    def test_stein_equation_holds_exactly(self):
        rule = WeightRule.geometric_concave(0.25)
        delta = defect_diagonal(rule, 1, 65)
        sol = solve_q_shift_diagonal(rule, delta, 64, dim=12)
        # w_{n+1}^2 q_{n+1} = q_n is an algebraic identity of the construction
        for n in range(12):
            assert rule.weight_sq(n + 1) * sol.q_seq[n + 1] == pytest.approx(
                sol.q_seq[n], rel=1e-15
            )

    @settings(max_examples=20, deadline=None)
    @given(r=st.floats(0.1, 0.9), c=st.floats(0.1, 4.0))
    def test_scaling_covariance(self, r, c):
        rule = WeightRule.geometric_concave(r)
        delta = defect_diagonal(rule, 1, 129)
        base = solve_q_shift_diagonal(rule, delta, 128, dim=8)
        scaled = solve_q_shift_diagonal(rule, c * delta, 128, dim=8)
        assert np.max(np.abs(scaled.q_seq - c * base.q_seq)) <= 1e-12 * (1 + c)


class TestVerifyQ:
    def test_trivial_zero(self):
        corner = make_shift_corner(WeightRule.constant(1.0), 6)
        zero = hermitian(np.zeros((6, 6)))
        stein, dom = verify_q(corner, zero, zero, 6)
        assert stein == 0.0 and dom == 0.0

    def test_dirichlet_contract(self):
        rule = WeightRule.dirichlet()
        corner = make_shift_corner(rule, 10)
        q = hermitian(np.diag([1.0 / (n + 1) for n in range(10)]).astype(complex))
        delta = hermitian(np.diag(defect_diagonal(rule, 1, 10)).astype(complex))
        stein, dom = verify_q(corner, q, delta, 10)
        assert stein <= 1e-12
        assert dom >= -1e-12

    def test_geometric_solution_verifies(self):
        rule = WeightRule.geometric_concave(0.5)
        corner = make_shift_corner(rule, 12)
        delta_seq = defect_diagonal(rule, 1, 49)
        sol = solve_q_shift_diagonal(rule, delta_seq, 48, dim=12)
        delta = hermitian(np.diag(delta_seq[:12]).astype(complex))
        stein, dom = verify_q(corner, sol.q, delta, 12)
        assert stein <= 1e-10
        assert dom >= -1e-10


class TestUnitaryClosedForm:
    def test_unitary_gives_zero_metric(self):
        f = dense_corner(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
        t = dense_corner(f.matrix @ np.diag([1.0, 1j]))
        for corner in (f, t):
            delta = hermitian(np.zeros((2, 2)))
            sol = solve_q_unitary(corner, delta)
            assert sol.method == "zero" and sol.q_seq is None and sol.q0 is None
            assert max_abs(sol.q.mat) == 0.0
            # the report prints these; a negative zero would read -0.0
            assert repr((sol.stein_residual, sol.dominance_residual)) == "(0.0, 0.0)"

    @pytest.mark.parametrize(
        "entry", [1.000001, 1.00000001, math.sqrt(2)], ids=["1e-6", "1e-8", "sqrt2"]
    )
    def test_nonunitary_defect_refused(self, entry):
        # beta_1 = |t|^2 - 1 > 0, which the zero metric cannot dominate
        t = dense_corner([[entry]])
        delta = hermitian([[entry * entry - 1.0]])
        with pytest.raises(PreconditionError, match="not unitary"):
            solve_q_unitary(t, delta)

    def test_defect_within_class_tol_accepted(self):
        t = dense_corner([[1.0]])
        sol = solve_q_unitary(t, hermitian([[5e-11]]))
        assert sol.method == "zero"
        assert sol.dominance_residual == -5e-11

    def test_shift_corner_rejected(self):
        corner = make_shift_corner(WeightRule.dirichlet(), 6)
        with pytest.raises(ValueError):
            solve_q_unitary(corner, hermitian(np.zeros((6, 6))))
