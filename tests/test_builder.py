"""Construction tests: representers, weight polynomial, assembly, reference path."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodilation.builder import (
    _construct,
    assemble_dilation,
    build_badea_2iso,
    build_general_model,
    build_three_concave_model,
    build_weights,
)
from isodilation.diagonal import defect_diagonal
from isodilation.errors import (
    DimensionError,
    IllDefinedFormError,
    NotInvertibleError,
    NotNegativeError,
    NotPsdError,
)
from isodilation.hermitian import hermitian, max_abs
from isodilation.operators import (
    DefectForms,
    WeightRule,
    classify,
    defect_form,
    dense_corner,
    make_shift_corner,
)
from isodilation.pipeline import DEMOS, demo_spec, run_pipeline
from isodilation.qsolver import QSolution, solve_q_shift_diagonal
from isodilation.tolerances import DEFAULT_TOLERANCES, Tolerances
from isodilation.verifier import _cumulative_moduli


def _oracle_sqrt(x: np.ndarray) -> np.ndarray:
    """Principal square root of a Hermitian PSD matrix by numpy.linalg.eigh,
    the suite's independent oracle."""
    lam, v = np.linalg.eigh(x)
    return (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.conj().T


def diagonal_q(values) -> QSolution:
    vals = np.asarray(values, dtype=float)
    return QSolution(
        hermitian(np.diag(vals).astype(complex)), "diagonal_shift", vals, 0.0, 0.0
    )


def _construct_form(metric_diag, numerator_diag):
    """`_construct` on a hand-made diagonal metric and numerator."""
    n = len(metric_diag)
    forms = DefectForms(dense_corner(np.zeros((n, n))))
    metric = hermitian(np.diag(metric_diag).astype(complex))
    numerator = hermitian(np.diag(numerator_diag).astype(complex))
    return _construct(
        forms, 2, "general_m", n, metric, numerator, 6, DEFAULT_TOLERANCES, "hand-made form"
    )


class TestBuildAGeneral:
    """The general path's representer A, built by `build_general_model`, and
    `_construct`'s refusal of a hand-made metric and form."""

    def test_isometric_input_gives_zero(self):
        # 2-isometric shift: the defect vanishes, so the representer does too
        rule = WeightRule.dirichlet()
        corner = make_shift_corner(rule, 12)
        w = corner.window_after(2)
        q = diagonal_q([1.0 / (n + 1) for n in range(w)])
        model, _ = build_general_model(corner, 2, q, weights_horizon=6)
        assert max_abs(model.a.mat) < 1e-12
        assert model.welldef_residual < 1e-12

    def test_geometric_diagonal_entries(self):
        rule = WeightRule.geometric_concave(0.5)
        corner = make_shift_corner(rule, 16)
        w = corner.window_after(2)
        delta = defect_diagonal(rule, 1, w)
        sol = solve_q_shift_diagonal(corner, delta)
        model, _ = build_general_model(corner, 2, sol, weights_horizon=6)
        # cross-check against the closed-form diagonal division
        pi = np.cumprod([1.0] + [rule.weight_sq(j) for j in range(1, w + 1)])
        expected = {}
        for n in range(w):
            beta_n = -(2.0 ** -(n + 2)) * (1 - 2.0 ** -(n + 1))
            expected[n] = beta_n * pi[n] / 0.5
        embedded = model.basis @ model.a.mat @ model.basis.conj().T
        for n in range(w):
            assert embedded[n, n].real == pytest.approx(expected[n], abs=1e-12)

    def test_ill_defined_form_rejected(self):
        # the form does not vanish on the metric kernel
        with pytest.raises(IllDefinedFormError):
            _construct_form([1.0, 0.0], [0.0, -1.0])

    def test_positive_defect_rejected(self):
        with pytest.raises(NotNegativeError):
            _construct_form([1.0, 1.0], [0.5, 0.0])

    def test_hand_made_form_represented(self):
        # A = R+ X R+ on the range: -1 / 4 on the metric's range, and the
        # represented form's norm is the numerator's
        model, _ = _construct_form([4.0, 0.0], [-1.0, 0.0])
        assert model.dim_hprime == 1
        assert model.a.mat[0, 0].real == pytest.approx(-0.25, abs=1e-15)
        assert model.remark_form_norm == 1.0


class TestBuildAThreeConcave:
    """The 3-concave path's representer A and sign gates, built by
    `build_three_concave_model`."""

    def test_scalar_walkthrough(self):
        t = dense_corner([[1 / math.sqrt(2)]])
        model, _ = build_three_concave_model(t, weights_horizon=6)
        assert model.a.mat[0, 0].real == pytest.approx(-0.25, abs=1e-13)

    def test_zero_operator(self):
        t = dense_corner([[0.0]])
        model, _ = build_three_concave_model(t, weights_horizon=6)
        assert model.a.n == 1
        assert max_abs(model.a.mat) == 0.0

    def test_isometric_scalar_degenerates(self):
        t = dense_corner([[1.0]])
        model, _ = build_three_concave_model(t, weights_horizon=6)
        assert model.a.n == 0  # H' is zero-dimensional

    def test_not_three_concave_rejected(self):
        t = dense_corner([[1.5]])
        with pytest.raises(NotNegativeError):
            build_three_concave_model(t, weights_horizon=6)

    def test_indefinite_two_defect_rejected_without_classification(self):
        # nilpotent and non-normal: T^2 = 0, so the 2-defect I - 2 T*T is
        # diag(1, -1); the nonnegativity gate fires before the sign gate
        t = dense_corner([[0.0, 1.0], [0.0, 0.0]])
        assert min(np.linalg.eigvalsh(defect_form(t, 2).mat)) == pytest.approx(-1.0)
        with pytest.raises(NotPsdError):
            build_three_concave_model(t, weights_horizon=6)

    def test_classification_forms_give_the_same_representer(self):
        t = dense_corner(np.diag([0.5, 0.3j, -0.8]))
        direct, _ = build_three_concave_model(t, 6)
        shared, _ = build_three_concave_model(t, 6, forms=classify(t, 3).forms)
        assert np.array_equal(direct.a.mat, shared.a.mat)
        assert np.array_equal(direct.basis, shared.basis)

    def test_forms_of_another_corner_rejected(self):
        t = dense_corner([[0.5]])
        other = classify(dense_corner([[0.5]]), 3).forms
        with pytest.raises(ValueError):
            build_three_concave_model(t, 6, forms=other)

    def test_forms_with_other_tolerances_rejected(self):
        t = dense_corner([[0.5]])
        forms = classify(t, 3).forms
        with pytest.raises(ValueError):
            build_three_concave_model(t, 6, tols=Tolerances(eig_tol=1e-10), forms=forms)


def p_oracle(lam, m: int, n: int):
    """1 - lam n (n-1) ... (n-m+2) / (m-1)!, the weight polynomial on a spectrum."""
    return 1.0 - lam * math.prod(range(n - m + 2, n + 1)) / math.factorial(m - 1)


def cumulative(weights):
    """|S_n ... S_1|^2 of a weight stack, as the verifier forms it."""
    return _cumulative_moduli(weights.block, DEFAULT_TOLERANCES.herm_tol)


class TestPolynomialAndWeights:
    def test_zero_representer_gives_identities(self):
        weights = build_weights(hermitian(np.zeros((3, 3))), 3, 6)
        for stack in (weights, cumulative(weights)):
            assert stack.mat.shape == (6, 3, 3)
            assert max_abs(stack.mat - np.eye(3)) < 1e-13

    def test_scalar_m3_walkthrough(self):
        # p(n) = 1 + C(n, 2) / 4 for A = -1/4
        weights = build_weights(hermitian([[-0.25]]), 3, 4)
        moduli = cumulative(weights).mat[:, 0, 0].real
        assert moduli == pytest.approx([1.0, 1.25, 1.75, 2.5], abs=1e-14)
        s = weights.mat[:3, 0, 0].real
        assert s[0] == 1.0
        assert s[1] == pytest.approx(math.sqrt(5) / 2, abs=1e-14)
        assert s[2] == pytest.approx(math.sqrt(7.0 / 5.0), abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(0.01, 3.0), n=st.integers(1, 12))
    def test_m2_closed_form(self, a, n):
        # p(n) = 1 + n a and S_n = sqrt((1 + n a) / (1 + (n-1) a))
        weights = build_weights(hermitian([[-a]]), 2, n)
        s_n = weights.mat[n - 1, 0, 0].real
        expected = math.sqrt((1 + n * a) / (1 + (n - 1) * a))
        assert s_n == pytest.approx(expected, rel=1e-13)
        assert weights.mat[0, 0, 0].real == pytest.approx(math.sqrt(1 + a), rel=1e-13)

    def test_ratio_bound_closed_form(self):
        # the successive-ratio supremum telescopes to (n+1)/(n-m+2), maximal
        # at the first admissible point, so the bound the report states is m
        def scanned(m, scan=256):
            best = 1.0
            for n in range(m - 1, m - 1 + scan):
                num = den = 1.0
                for i in range(m - 1):
                    num *= n + 1 - i
                    den *= n - i
                best = max(best, num / den)
            return best

        for m in range(2, 12):
            assert scanned(m) == float(m)
        for name, m in (("strict-2concave", 2), ("scalar-3concave", 3)):
            report = run_pipeline(demo_spec(name)).report
            assert report["model"]["ratio_bound"] == scanned(m)

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(2, 5), d=st.integers(2, 6), seed=st.integers(0, 2**31))
    def test_weights_and_b_match_a_dense_oracle(self, m, d, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = hermitian(-(g.conj().T @ g) / 4.0)  # dense nonpositive representer
        horizon = m + 5
        weights = build_weights(a, m, horizon)

        lam, v = np.linalg.eigh(a.mat)

        def on_spectrum(values):
            return v @ (values[:, None] * v.conj().T)

        for n in range(1, horizon + 1):
            expected = on_spectrum(np.sqrt(p_oracle(lam, m, n) / p_oracle(lam, m, n - 1)))
            assert max_abs(weights.mat[n - 1] - expected) <= 1e-9 * max_abs(expected)
        # S_(m-1) is B = (I - A)^(1/2)
        b = weights.mat[m - 2]
        assert max_abs(b - on_spectrum(np.sqrt(1.0 - lam))) <= 1e-9 * max_abs(b)
        assert max_abs(b @ b - (np.eye(d) - a.mat)) <= 1e-9 * (1 + a.norm_max())

    @settings(max_examples=20, deadline=None)
    @given(m=st.integers(2, 5), seed=st.integers(0, 2**31))
    def test_prefix_identities_and_difference(self, m, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a = hermitian(-(g.conj().T @ g) / 4.0)  # random nonpositive representer
        horizon = m + 5
        weights = build_weights(a, m, horizon)
        # identity prefix of the weights: p(k) = I for k <= m - 2
        for k in range(m - 2):
            assert max_abs(weights.mat[k] - np.eye(4)) < 1e-12
        # cumulative moduli equal p(n) = I - C(n, m-1) A (telescoping);
        # p(m-1) = B^2 = I - A
        for n in range(1, horizon + 1):
            p_n = np.eye(4) - math.comb(n, m - 1) * a.mat
            assert max_abs(cumulative(weights).mat[n - 1] - p_n) <= 1e-10 * (1 + max_abs(p_n))
        # m-th forward difference of the cumulative sequence vanishes
        cum = [np.eye(4)] + list(cumulative(weights).mat)
        for n in range(len(cum) - m):
            acc = np.zeros((4, 4), dtype=complex)
            for k in range(m + 1):
                sign = -1.0 if (m - k) % 2 else 1.0
                acc += sign * math.comb(m, k) * cum[n + k]
            assert max_abs(acc) <= 1e-11 * (1 + max_abs(cum[n + m]))

    def test_b_is_the_weight_s_m_minus_1(self):
        # p(m-2) = I exactly, so S_(m-1) = (I - A)^(1/2) = B, which the
        # model keeps only as its norm ||B|| = (1 - lam_min)^(1/2)
        rule = WeightRule.geometric_concave(0.5)
        corner = make_shift_corner(rule, 16)
        sol = solve_q_shift_diagonal(corner, defect_diagonal(rule, 1, corner.window_after(2)))
        shift = build_general_model(corner, 2, sol, weights_horizon=8)
        dense = build_three_concave_model(dense_corner(np.diag([0.5, 0.3j, -0.8])), 8)
        for model, weights in (shift, dense):
            assert model.dim_hprime > 0
            assert not hasattr(model, "b")
            b = weights.mat[model.m - 2]
            assert max_abs(b @ b - (np.eye(model.dim_hprime) - model.a.mat)) <= 1e-12
            assert model.b_norm == pytest.approx(np.linalg.norm(b, 2), rel=1e-12)
        with pytest.raises(DimensionError):
            build_three_concave_model(dense_corner(np.diag([0.5, 0.3j, -0.8])), 1)

    def test_p_not_positive_raises(self):
        # p(2) = 1 - 2 * 0.5 = 0 is not invertible
        with pytest.raises(NotInvertibleError):
            build_weights(hermitian([[0.5]]), 2, 3)
        assert build_weights(hermitian([[0.5]]), 2, 1).mat.shape == (1, 1, 1)


class TestAssemble:
    def test_scalar_first_column_and_blocks(self):
        t = dense_corner([[1 / math.sqrt(2)]])
        model, weights = build_three_concave_model(t, weights_horizon=6)
        dil = assemble_dilation(model, weights, 4)
        col = dil.matrix[:, 0].real
        assert col == pytest.approx([1 / math.sqrt(2), 0.5, 0, 0, 0], abs=1e-13)
        subdiag = [dil.matrix[k + 1, k].real for k in range(1, 4)]
        assert subdiag == pytest.approx(
            [1.0, math.sqrt(5) / 2, math.sqrt(7.0 / 5.0)], abs=1e-13
        )

    def test_unitary_input_degenerates_to_itself(self):
        f = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        t = dense_corner(f)
        q = QSolution(hermitian(np.zeros((2, 2))), "zero", None, 0.0, 0.0)
        model, weights = build_general_model(t, 2, q, weights_horizon=6)
        dil = assemble_dilation(model, weights, 4)
        assert model.dim_hprime == 0
        assert dil.dim_total == 2
        assert max_abs(dil.matrix - f) < 1e-15

    def test_isometric_shift_needs_no_inflation(self):
        rule = WeightRule.constant(1.0)
        corner = make_shift_corner(rule, 10)
        delta = defect_diagonal(rule, 1, 8)
        sol = solve_q_shift_diagonal(corner, delta)
        model, weights = build_general_model(corner, 2, sol, weights_horizon=6)
        dil = assemble_dilation(model, weights, 4)
        assert model.dim_hprime == 0
        assert dil.dim_total == model.dim_h

    def test_too_few_blocks_rejected(self):
        t = dense_corner([[1 / math.sqrt(2)]])
        model, weights = build_three_concave_model(t, weights_horizon=6)
        with pytest.raises(DimensionError):
            assemble_dilation(model, weights, 1)

    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_apply_matches_dense_matrix(self, demos, name):
        r = demos.run(name)
        rng = np.random.default_rng(5)
        for dil in (r.assembled, r.badea_assembled):
            if dil is None:
                continue
            n = dil.dim_total
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            cols = rng.standard_normal((n, 7)) + 1j * rng.standard_normal((n, 7))
            assert dil.apply(x).shape == (n,)
            assert max_abs(dil.apply(x) - dil.matrix @ x) <= 1e-13
            assert max_abs(dil.apply(cols) - dil.matrix @ cols) <= 1e-13

    @pytest.mark.parametrize("name", ["strict-2concave", "scalar-3concave"])
    def test_apply_on_leading_blocks(self, demos, name):
        # blocks 0..j with zeros beyond map to the leading rows of W x
        dil = demos.run(name).assembled
        w, d = dil.dim_h, dil.dim_hprime
        rng = np.random.default_rng(11)
        for j in range(dil.n_blocks + 1):
            x = np.zeros((dil.dim_total, 3), dtype=complex)
            x[: w + j * d] = rng.standard_normal((w + j * d, 3))
            short = dil.apply(x[: w + j * d])
            rows = w + min(j + 1, dil.n_blocks) * d
            assert short.shape == (rows, 3)
            assert np.array_equal(short, dil.apply(x)[:rows])
            assert not np.any(dil.apply(x)[rows:])
        with pytest.raises(DimensionError):
            dil.apply(np.zeros(dil.dim_total + d))

    @pytest.mark.parametrize("name", ["strict-2concave", "scalar-3concave", "unitary"])
    def test_apply_to_a_block_of_no_columns(self, demos, name):
        dil = demos.run(name).assembled
        w, d = dil.dim_h, dil.dim_hprime
        for j in range(dil.n_blocks + 1):
            rows = w + min(j + 1, dil.n_blocks) * d
            assert dil.apply(np.zeros((w + j * d, 0))).shape == (rows, 0)

    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_blocks_are_views_not_copies(self, demos, name):
        r = demos.run(name)
        for model, dil in ((r.model, r.assembled), (r.badea_model, r.badea_assembled)):
            if dil is None:
                continue
            assert dil.t is model.corner.block
            assert dil.u is model.u_block

    def test_stores_the_stacks_own_block(self):
        # W stores the whole weight stack, as the stack's own `Block`, and
        # n_blocks is the assembly's, not read off the horizon
        rule = WeightRule.geometric_concave(0.5)
        corner = make_shift_corner(rule, 20)
        sol = solve_q_shift_diagonal(corner, defect_diagonal(rule, 1, 18))
        for horizon in (5, 9):
            for model, weights in (
                build_general_model(corner, 2, sol, horizon),
                build_badea_2iso(corner, sol, horizon),
            ):
                dil = assemble_dilation(model, weights, 4)
                assert dil.weights is weights.block
                assert dil.weights.shape[0] == horizon
                assert dil.n_blocks == 4
                assert dil.matrix.shape == (dil.dim_total,) * 2
                assert dil.dim_total == model.dim_h + 4 * model.dim_hprime
                with pytest.raises(DimensionError):
                    assemble_dilation(model, weights, horizon + 2)

    def test_pipeline_never_builds_dense_matrix(self):
        r = run_pipeline(demo_spec("nonisomorphic-pair"))
        for dil in (r.assembled, r.badea_assembled):
            assert "matrix" not in vars(dil)
        assert not r.assembled.matrix.flags.writeable


class TestBadea:
    def test_dirichlet_collapses(self):
        rule = WeightRule.dirichlet()
        corner = make_shift_corner(rule, 12)
        delta = defect_diagonal(rule, 1, 10)
        sol = solve_q_shift_diagonal(corner, delta)
        model, weights = build_badea_2iso(corner, sol, 8)
        dil = assemble_dilation(model, weights, 4)
        assert model.dim_hprime == 0
        assert dil.dim_total == model.dim_h

    def test_geometric_drops_first_direction(self):
        rule = WeightRule.geometric_concave(0.5)
        corner = make_shift_corner(rule, 12)
        delta = defect_diagonal(rule, 1, 10)
        sol = solve_q_shift_diagonal(corner, delta)
        model, weights = build_badea_2iso(corner, sol, 8)
        dil = assemble_dilation(model, weights, 4)
        # the gap vanishes exactly at n = 0 and is positive beyond
        assert model.dim_hprime == model.dim_h - 1
        embedded = model.basis @ model.u
        assert abs(embedded[0, 0]) < 1e-12
        expected_1 = math.sqrt(sol.q_seq[1] - 0.25)
        assert embedded[1, 1].real == pytest.approx(expected_1, abs=1e-12)
        # all weights are the identity, one read-only stack that the
        # assembled W views
        assert weights.mat.shape == (8, model.dim_hprime, model.dim_hprime)
        assert max_abs(weights.mat - np.eye(model.dim_hprime)) == 0.0
        assert weights.defect == 0.0
        assert not weights.mat.flags.writeable
        assert dil.weights is weights.block
        # A = 0 represents no form, so the model claims none
        assert max_abs(model.a.mat) == 0.0 and model.remark_form_norm == 0.0

    def test_unweighted_shift_collapses(self):
        rule = WeightRule.constant(1.0)
        corner = make_shift_corner(rule, 10)
        delta = defect_diagonal(rule, 1, 8)
        sol = solve_q_shift_diagonal(corner, delta)
        model, weights = build_badea_2iso(corner, sol, 8)
        dil = assemble_dilation(model, weights, 4)
        assert dil.dim_total == dil.dim_h

    def test_dominance_violation_rejected(self):
        rule = WeightRule.geometric_concave(0.5)
        corner = make_shift_corner(rule, 12)
        bad = QSolution(
            hermitian(np.zeros((10, 10))), "zero", np.zeros(10), 0.0, 0.0
        )
        with pytest.raises(NotPsdError):
            build_badea_2iso(corner, bad, 8)


class TestTableRuleGeneralM3:
    """A strictly 3-concave expansive shift exercises the identity-prefix
    branch of the general path (S_1 = I, S_2 = B != I)."""

    @staticmethod
    def _rule(length=160):
        # cumulative squared-weight products follow 1 + n^2 + 0.5 * 2^-n
        # (normalized): first differences positive, second differences
        # positive, third differences strictly negative
        c = [(1.0 + n * n + 0.5 * 2.0**-n) / 1.5 for n in range(length + 1)]
        w = [math.sqrt(c[j] / c[j - 1]) for j in range(1, length + 1)]
        return WeightRule.table(w, 1.0)

    def test_classification(self):
        from isodilation.operators import classify

        corner = make_shift_corner(self._rule(), 16)
        cls = classify(corner, 3)
        assert cls.expansive.ok
        assert cls.m_concave.ok
        assert not cls.m_isometric.ok
        assert cls.delta_psd.ok

    def test_general_path_with_identity_prefix(self):
        rule = self._rule()
        n = 16
        corner = make_shift_corner(rule, n)
        delta = defect_diagonal(rule, 2, n - 3)
        sol = solve_q_shift_diagonal(corner, delta)
        model, weights = build_general_model(corner, 3, sol, weights_horizon=8)
        assert model.dim_hprime > 0
        # S_1 = I but S_2 = B = (I - A)^(1/2) differs from I (strictly
        # 3-concave input)
        eye = np.eye(model.dim_hprime)
        b = _oracle_sqrt(eye - model.a.mat)
        assert max_abs(weights.mat[0] - eye) < 1e-12
        assert max_abs(weights.mat[1] - b) < 1e-11
        assert max_abs(weights.mat[1] - eye) > 1e-3
        dil = assemble_dilation(model, weights, 5)
        from isodilation.verifier import check_w_m_isometry

        assert check_w_m_isometry(dil).passed


class TestTableRuleGeneralM4:
    """A strictly 4-concave expansive shift: identity prefix S_1 = S_2 = I
    and S_3 = B != I."""

    @staticmethod
    def _rule(length=90):
        # cumulative squared-weight products 1 + n^3 - 0.5 * 2^-n (normalized):
        # increasing, third differences positive, fourth strictly negative
        c = [(1.0 + n**3 - 0.5 * 2.0**-n) / 0.5 for n in range(length + 1)]
        w = [math.sqrt(c[j] / c[j - 1]) for j in range(1, length + 1)]
        return WeightRule.table(w, 1.0)

    def test_strict_four_concave_construction(self):
        from isodilation.operators import classify
        from isodilation.verifier import (
            check_criterion_identity,
            check_w_m_isometry,
            check_weight_shift_isometry,
            orbit_grams,
        )

        rule = self._rule()
        n = 16
        corner = make_shift_corner(rule, n)
        cls = classify(corner, 4)
        assert cls.expansive.ok and cls.m_concave.ok and cls.delta_psd.ok
        assert not cls.m_isometric.ok

        delta = defect_diagonal(rule, 3, n - 4)
        sol = solve_q_shift_diagonal(corner, delta)
        model, weights = build_general_model(corner, 4, sol, weights_horizon=9)
        d = model.dim_hprime
        assert d > 0
        b = _oracle_sqrt(np.eye(d) - model.a.mat)
        assert max_abs(weights.mat[0] - np.eye(d)) < 1e-12
        assert max_abs(weights.mat[1] - np.eye(d)) < 1e-12
        assert max_abs(weights.mat[2] - b) < 1e-11
        assert max_abs(weights.mat[2] - np.eye(d)) > 1e-3

        dil = assemble_dilation(model, weights, 6)
        assert check_w_m_isometry(dil).residual <= 1e-10
        assert check_criterion_identity(orbit_grams(dil)).residual <= 1e-10
        assert check_weight_shift_isometry(cumulative(weights), 4).residual <= 1e-11


class TestPerturb:
    def test_cumulative_recomputed(self):
        # A = -1/4, m = 3: p(1) = 1, p(2) = 5/4, p(3) = 7/4
        # the moduli are formed from the stack they are given, here a copy
        # with S_2 bumped by 0.1 I
        weights = build_weights(hermitian([[-0.25]]), 3, 5)
        stack = weights.mat.copy()
        stack[1] += 0.1 * np.eye(1)
        bumped = hermitian(stack)
        s2 = weights.mat[1, 0, 0].real
        assert s2 == pytest.approx(math.sqrt(1.25), rel=1e-14)
        assert bumped.mat[1, 0, 0].real == pytest.approx(s2 + 0.1)
        # only S_2 moves, in a copy
        assert np.array_equal(np.delete(bumped.mat, 1, 0), np.delete(weights.mat, 1, 0))
        assert weights.mat[1, 0, 0].real == s2
        # cumulative at n >= 2 reflects the bump, n = 1 keeps p(1)
        assert max_abs(cumulative(bumped).mat[0] - cumulative(weights).mat[0]) == 0.0
        assert cumulative(bumped).mat[1, 0, 0].real == pytest.approx((s2 + 0.1) ** 2, rel=1e-13)
        assert cumulative(bumped).mat[2, 0, 0].real == pytest.approx(
            (s2 + 0.1) ** 2 * 1.75 / 1.25, rel=1e-13
        )
