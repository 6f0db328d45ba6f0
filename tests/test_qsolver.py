"""Invariant metric solvers: diagonal shift solve and the unitary closed form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodilation.errors import NotPsdError, PreconditionError
from isodilation.hermitian import hermitian, max_abs
from isodilation.operators import WeightRule, defect_diagonal, dense_corner, make_shift_corner
from isodilation.pipeline import demo
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


def _solve(rule: WeightRule, m: int, n: int):
    """Closed-form metric of the shift's N-corner on its window after m."""
    corner = make_shift_corner(rule, n)
    return solve_q_shift_diagonal(corner, defect_diagonal(rule, m - 1, corner.window_after(m)))


class TestDiagonalSolver:
    def test_dirichlet_harmonic_solution(self):
        sol = _solve(WeightRule.dirichlet(), 2, 18)
        assert sol.q0 == pytest.approx(1.0, abs=1e-12)
        expected = np.array([1.0 / (n + 1) for n in range(16)])
        assert np.max(np.abs(sol.q_seq - expected)) < 1e-12
        assert sol.method == "diagonal_shift"

    def test_isometry_needs_no_metric(self):
        sol = _solve(WeightRule.constant(1.0), 2, 10)
        assert sol.method == "zero"
        assert max_abs(sol.q.mat) == 0.0

    def test_geometric_supremum_attained_at_zero(self):
        rule = WeightRule.geometric_concave(0.5)
        sol = _solve(rule, 2, 18)
        assert sol.q0 == pytest.approx(0.5, abs=1e-14)
        oracle = brute_force_q0(rule, defect_diagonal(rule, 1, 65), 64)
        assert sol.q0 == pytest.approx(oracle, abs=1e-14)

    @pytest.mark.parametrize(
        "rule, m",
        [
            (WeightRule.dirichlet(), 2),
            (WeightRule.geometric_concave(0.25), 2),
            (WeightRule.geometric_concave(0.5), 2),
            (WeightRule.constant(1.0), 2),
            (WeightRule.constant(0.8), 3),
        ],
        ids=["dirichlet", "geometric-0.25", "geometric-0.5", "constant-1", "constant-0.8-m3"],
    )
    def test_closed_form_matches_horizon_scan(self, rule, m):
        # delta_n pi_n = Delta^(m-1) a(n) is nonincreasing on an m-concave
        # shift, so the scan over a 4N horizon peaks at its first entry
        n = 24
        sol = _solve(rule, m, n)
        oracle = brute_force_q0(rule, defect_diagonal(rule, m - 1, 4 * n + 1), 4 * n)
        assert sol.q0 == pytest.approx(oracle, rel=1e-13)

    def test_dirichlet_demo_metric_is_exact(self):
        # delta_0 = w_1^2 - 1 = 1 exactly; the scan read the rounded
        # product delta_n pi_n = 1.0000000000000169 at a later index
        result = demo("dirichlet-2iso")
        assert result.q.q0 == 1.0
        cert = {c.name: c for c in result.verification.checks}["nonisomorphism_certificate"]
        assert cert.residual == 1.0

    def test_unbounded_supremum_rejected(self):
        # expansive but not 2-concave: delta_n = 1 while q_n = 2^-n, so the
        # closed-form metric fails its measured dominance
        with pytest.raises(NotPsdError, match="fails to dominate"):
            _solve(WeightRule.constant(math.sqrt(2)), 2, 10)

    def test_negative_defect_rejected(self):
        corner = make_shift_corner(WeightRule.dirichlet(), 10)
        with pytest.raises(NotPsdError):
            solve_q_shift_diagonal(corner, np.full(8, -1.0))

    @pytest.mark.parametrize("length", [0, 11])
    def test_defect_outside_the_corner_rejected(self, length):
        corner = make_shift_corner(WeightRule.dirichlet(), 10)
        with pytest.raises(ValueError):
            solve_q_shift_diagonal(corner, np.zeros(length))

    def test_dense_corner_rejected(self):
        with pytest.raises(ValueError):
            solve_q_shift_diagonal(dense_corner([[1.0]]), np.zeros(1))

    def test_stein_equation_holds_exactly(self):
        rule = WeightRule.geometric_concave(0.25)
        sol = _solve(rule, 2, 14)
        # w_{n+1}^2 q_{n+1} = q_n is an algebraic identity of the construction
        for n in range(11):
            assert rule.weight_sq(n + 1) * sol.q_seq[n + 1] == pytest.approx(
                sol.q_seq[n], rel=1e-15
            )

    @settings(max_examples=20, deadline=None)
    # r at most the golden-ratio conjugate keeps the geometric rule 2-concave
    @given(r=st.floats(0.1, 0.6), c=st.floats(0.1, 4.0))
    def test_scaling_covariance(self, r, c):
        rule = WeightRule.geometric_concave(r)
        corner = make_shift_corner(rule, 10)
        delta = defect_diagonal(rule, 1, 8)
        base = solve_q_shift_diagonal(corner, delta)
        scaled = solve_q_shift_diagonal(corner, c * delta)
        assert np.max(np.abs(scaled.q_seq - c * base.q_seq)) <= 1e-12 * (1 + c)


class TestVerifyQ:
    def test_trivial_zero(self):
        corner = make_shift_corner(WeightRule.constant(1.0), 6)
        zero = hermitian(np.zeros((6, 6)))
        stein, dom = verify_q(corner, zero, zero)
        assert stein == 0.0 and dom == 0.0

    def test_dirichlet_contract(self):
        rule = WeightRule.dirichlet()
        corner = make_shift_corner(rule, 10)
        q = hermitian(np.diag([1.0 / (n + 1) for n in range(10)]).astype(complex))
        delta = hermitian(np.diag(defect_diagonal(rule, 1, 10)).astype(complex))
        stein, dom = verify_q(corner, q, delta)
        assert stein <= 1e-12
        assert dom >= -1e-12

    def test_geometric_solution_verifies(self):
        rule = WeightRule.geometric_concave(0.5)
        corner = make_shift_corner(rule, 12)
        delta_seq = defect_diagonal(rule, 1, 12)
        sol = solve_q_shift_diagonal(corner, delta_seq)
        delta = hermitian(np.diag(delta_seq[:12]).astype(complex))
        stein, dom = verify_q(corner, sol.q, delta)
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
