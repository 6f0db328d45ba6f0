"""Verifier checks: block power formula, orbit Grams, isometry criterion,
minimality, non-isomorphism certificate, and the equivalence in both
directions."""

import ast
import dataclasses
import importlib
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from isodilation import DEMOS, demo_spec, parse_spec, run_pipeline, verifier
from isodilation.builder import (
    build_badea_2iso,
    build_general_model,
    build_three_concave_model,
)
from isodilation.diagonal import build_diagonal_model, dense_agreement_residual
from isodilation.hermitian import Block, HermitianMatrix, hermitian, max_abs
from isodilation.operators import (
    DefectForms,
    WeightRule,
    defect_diagonal,
    dense_corner,
    make_shift_corner,
)
from isodilation.qsolver import solve_q_shift_diagonal, stein_residual
from isodilation.specfile import spec_from_dict
from isodilation.tolerances import DEFAULT_TOLERANCES
from isodilation.verifier import (
    CheckResult,
    _cumulative_moduli,
    _column_space_rank,
    check_criterion_identity,
    check_cumulative_polynomial,
    check_dilation_property,
    check_minimality,
    check_powers_formula,
    check_w_m_isometry,
    check_weight_shift_isometry,
    nonisomorphism_certificate,
    orbit_grams,
    remark_consistency,
    verify_run,
)

# the package exports the function `hermitian` under the module's name
hermitian_module = importlib.import_module("isodilation.hermitian")


def _grams(dil):
    return orbit_grams(dil)


def _cumulative(weights):
    """|S_n ... S_1|^2 of a stored weight stack, as `verify_run` forms it."""
    return _cumulative_moduli(weights, DEFAULT_TOLERANCES.herm_tol)


def _bumped(weights, n, amount):
    """A copy of a stored weight stack with S_n shifted by amount * I."""
    stack = weights.mat.copy()
    stack[n - 1] += amount * np.eye(stack.shape[-1])
    return hermitian(stack).block


@pytest.fixture(scope="module")
def scalar_model():
    t = dense_corner([[1 / math.sqrt(2)]])
    dil = build_three_concave_model(DefectForms(t), n_blocks=5)
    return dil.model, dil.weights, dil


@pytest.fixture(scope="module")
def strict_pair():
    rule = WeightRule.geometric_concave(0.5)
    n = 20
    corner = make_shift_corner(rule, n)
    delta = defect_diagonal(rule, 1, n - 2)
    sol = solve_q_shift_diagonal(corner, delta)
    general = build_general_model(DefectForms(corner), 2, sol, n_blocks=6)
    badea = build_badea_2iso(DefectForms(corner), sol, 6)
    return general.model, general.weights, general, badea.model, badea


@pytest.fixture(scope="module")
def deep_table_run():
    """A table shift with many thin blocks, as in the shift-m3-deep
    workload: ||T^k e_0||^2, proportional to (k+1)^2 - c sqrt(k+1), is
    strictly 3-concave on the window."""
    c = 0.5
    norms = [(k + 1) ** 2 - c * math.sqrt(k + 1) for k in range(4 * 48 + 17)]
    values = [math.sqrt(norms[k] / norms[k - 1]) for k in range(1, len(norms))]
    result = run_pipeline(spec_from_dict({
        "schema_version": 1,
        "operator": {"kind": "shift", "rule": {"name": "table", "values": values, "tail_value": 1.0}},
        "m": 3,
        "truncation": {"N": 48, "n_blocks": 24},
    }))
    assert result.overall and result.path == "general_m"
    return result


class TestDilationProperty:
    def test_degenerate_w_equals_t(self):
        f = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        from isodilation.qsolver import QSolution
        from isodilation.hermitian import hermitian

        q = QSolution(hermitian(np.zeros((2, 2))), "zero", None, 0.0, 0.0)
        dil = build_general_model(DefectForms(dense_corner(f)), 2, q, 4)
        assert check_dilation_property(dil).residual == 0.0

    def test_scalar_model(self, scalar_model):
        _, _, dil = scalar_model
        assert check_dilation_property(dil).residual <= 1e-13

    def test_strict_model(self, strict_pair):
        _, _, general, _, _ = strict_pair
        assert check_dilation_property(general).residual <= 1e-12

    def test_block_zero_matches_dense_powers(self, scalar_model, strict_pair):
        # only block 0 is carried; the residual is that of the dense W^n
        _, _, scalar = scalar_model
        _, _, general, _, _ = strict_pair
        corrupted = [
            dataclasses.replace(general, t=Block(general.t.mat * 1.01)),
            dataclasses.replace(general, t=Block(general.t.mat + 0.01)),
        ]
        for dil in (scalar, general, *corrupted):
            t, w = dil.model.corner, dil.dim_h
            wn = tn = np.eye(dil.dim_total)
            ref = 0.0
            for n in range(1, dil.n_blocks + 1):
                wn = dil.matrix @ wn
                tn = t.matrix @ tn[:w, :w]
                win = max(t.window_after(n), 1)
                ref = max(ref, np.max(np.abs(wn[:win, :win] - tn[:win, :win])))
            assert check_dilation_property(dil).residual == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_corrupted_stored_t_fails(self, strict_pair):
        # the powers of W carry the stored t, the reference powers the
        # model's corner: a stored T that disagrees must show
        _, _, general, _, _ = strict_pair
        bad = dataclasses.replace(general, t=Block(general.t.mat * 1.01))
        res = check_dilation_property(bad)
        assert not res.passed
        assert res.residual > 1e-3
        assert not check_powers_formula(bad).passed

    @pytest.mark.parametrize("where", ["outside-band", "main-diagonal"])
    def test_stored_t_off_the_shift_diagonal_fails_without_raising(self, strict_pair, where):
        # a stored t with entries off the shift's one diagonal, outside the
        # model's band or inside it, is multiplied as stored
        _, _, general, _, _ = strict_pair
        w = general.dim_h
        extra = 0.01 if where == "outside-band" else 0.01 * np.eye(w)
        bad = dataclasses.replace(general, t=Block(general.t.mat + extra))
        assert bad.t.mono is None
        assert not check_dilation_property(bad).passed
        assert not check_powers_formula(bad).passed
        assert check_minimality(_grams(bad)).residual == bad.dim_total - _dense_orbit_rank(bad)


class TestPowersFormula:
    def test_hand_computed_scalar_case(self):
        # W^3 applied to (1, 0, 0, 0, 0) lands as
        # (t^3, U t^2, S1 U t, S2 S1 U, 0) with t = 1/sqrt(2), U = 1/2
        dil = build_three_concave_model(DefectForms(dense_corner([[1 / math.sqrt(2)]])), 4)
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
        expected = weights.mat[2] @ (weights.mat[1] @ vec)
        assert np.allclose(y[general.block_slice(4)], expected, atol=1e-12)

    def test_closed_form_holds_for_any_stored_blocks(self, scalar_model, strict_pair):
        # W is a block lower shift, so the blocks of the dense W^m are the
        # closed form of whatever T, U and weights it stores, corrupted or
        # not: block 0 of column 0 is T^m, block k <= m is
        # S_(k-1)...S_1 U T^(m-k), block k > m of column k - m is
        # S_(k-1)...S_(k-m), and every other block is zero.  Each entry of
        # either side is a chain of at most m products of length at most
        # D = dim_total, within gamma_(mD) a^m of its exact value
        _, _, scalar = scalar_model
        _, _, general, _, badea = strict_pair
        for dil in (
            scalar, general, badea,
            dataclasses.replace(general, u=Block(general.u.mat + 0.1)),
            dataclasses.replace(general, t=Block(general.t.mat * 1.01)),
            dataclasses.replace(general, weights=_bumped(general.weights, 2, 0.1)),
        ):
            m, n, big_d = dil.model.m, dil.n_blocks, dil.dim_total
            t, u, s = dil.t.mat, dil.u.mat, dil.weights.mat
            expected = np.zeros((big_d, big_d), dtype=np.complex128)
            col = dil.block_slice(0)
            t_pows = [np.eye(dil.dim_h)]
            for _ in range(m):
                t_pows.append(t @ t_pows[-1])
            expected[col, col] = t_pows[m]
            prefix = u
            for k in range(1, m + 1):
                expected[dil.block_slice(k), col] = prefix @ t_pows[m - k]
                prefix = s[k - 1] @ prefix
            for k in range(m + 1, n + 1):
                prod = np.eye(dil.dim_hprime)
                for i in range(k - m, k):
                    prod = s[i - 1] @ prod
                expected[dil.block_slice(k), dil.block_slice(k - m)] = prod
            power = np.eye(big_d)
            for _ in range(m):
                power = dil.matrix @ power
            bound = 2 * _gamma(m * big_d) * _abs_norm(dil.matrix) ** m
            assert max_abs(power - expected) <= bound

    def test_residual_is_the_stored_block_difference(self, scalar_model, strict_pair):
        _, _, scalar = scalar_model
        _, _, general, _, badea = strict_pair
        for dil in (
            scalar, general, badea,
            dataclasses.replace(general, u=Block(general.u.mat + 0.1)),
            dataclasses.replace(general, t=Block(general.t.mat * 1.01)),
        ):
            model = dil.model
            ref = max(
                max_abs(dil.t.mat - model.corner.matrix), max_abs(dil.u.mat - model.u.mat)
            )
            assert check_powers_formula(dil).residual == ref

    def test_perturbed_weight_is_a_consistent_dilation(self, strict_pair):
        # the formula holds for any stored weights, so a corrupted S_n
        # still satisfies it; the m-isometry check is what catches it
        _, weights, general, _, _ = strict_pair
        bad = dataclasses.replace(general, weights=_bumped(weights, 2, 0.1))
        assert check_powers_formula(bad).passed
        assert not check_w_m_isometry(_grams(bad)).passed

    def test_blocks_disagreeing_with_model_fail(self, strict_pair):
        # the stored T and U are compared with the model's: a stored block
        # that disagrees must show
        _, _, general, _, _ = strict_pair
        for bad in (
            dataclasses.replace(general, u=Block(general.u.mat + 0.1)),
            dataclasses.replace(general, t=Block(general.t.mat * 1.01)),
        ):
            res = check_powers_formula(bad)
            assert not res.passed
            assert res.residual > 1e-3


class TestWMIsometry:
    def test_unweighted_shift_corner(self):
        rule = WeightRule.constant(1.0)
        corner = make_shift_corner(rule, 12)
        delta = defect_diagonal(rule, 1, 10)
        sol = solve_q_shift_diagonal(corner, delta)
        dil = build_general_model(DefectForms(corner), 2, sol, 5)
        assert check_w_m_isometry(_grams(dil)).residual <= 1e-13

    def test_scalar_three_isometric(self, scalar_model):
        _, _, dil = scalar_model
        assert check_w_m_isometry(_grams(dil)).residual <= 1e-10

    def test_badea_two_isometric(self, strict_pair):
        _, _, _, _, badea = strict_pair
        assert check_w_m_isometry(_grams(badea)).residual <= 1e-10

    @pytest.mark.parametrize("name", sorted(DEMOS) + ["dense-3concave", "deep-table"])
    def test_matches_the_dense_block_identity(self, request, demos, mutation_runs, name):
        # Delta^m of (W^j)* W^j, j = 0..m, from the dense W on the window
        # (H's window_after(m) and blocks 1..n_blocks - m) is block
        # diagonal, and its largest entry is the check's residual, both
        # within the forward-error bound of the order-m difference
        if name in DEMOS:
            result = demos.run(name)
        elif name == "deep-table":
            result = request.getfixturevalue("deep_table_run")
        else:
            result = mutation_runs[name]
        for dil in (result.assembled, result.badea_assembled):
            if dil is None:
                continue
            defect, labels = _dense_m_defect(dil)
            bound = _difference_bound(dil)
            apart = labels[:, None] != labels[None, :]
            assert max_abs(defect[apart]) <= bound
            assert abs(check_w_m_isometry(_grams(dil)).residual - max_abs(defect)) <= bound


def _dense_m_defect(dil):
    """The alternating sum sum_j (-1)^(m-j) C(m, j) (W^j)* W^j of the dense
    W, restricted to the window of the m-isometry check: the leading
    window_after(m) coordinates of H and blocks 1..n_blocks - m.  Returns
    it with the block of each window coordinate (0 for H)."""
    m = dil.model.m
    blocks = [np.arange(dil.model.corner.window_after(m))] + [
        np.arange(dil.dim_total)[dil.block_slice(k)] for k in range(1, dil.n_blocks - m + 1)
    ]
    window = np.concatenate(blocks)
    labels = np.concatenate([np.full(len(b), k) for k, b in enumerate(blocks)])
    power = np.eye(dil.dim_total, dtype=np.complex128)
    defect = np.zeros((len(window), len(window)), dtype=np.complex128)
    for j in range(m + 1):
        gram = power.conj().T @ power
        defect += (-1) ** (m - j) * math.comb(m, j) * gram[np.ix_(window, window)]
        power = dil.matrix @ power
    return defect, labels


def _difference_bound(dil) -> float:
    """Forward-error bound of an order-m difference of (W^j)* W^j.

    Each block of (W^j)* W^j, dense or formed from the stored blocks (G_j
    or a block modulus), is within gamma_((2j+2)D) a^(2j) of its exact
    value, D = dim_total and a the spectral norm of the entrywise |W|
    (TestOrbitGrams), and the order-m difference and the alternating sum
    each round m + 1 terms of size C(m, j) a^(2j) at most m + 1 times, so
    two such differences differ by at most
    sum_j C(m, j) 2 gamma_((2j+2)D + m + 1) a^(2j)."""
    m, big_d = dil.model.m, dil.dim_total
    a = _abs_norm(dil.matrix)
    return sum(
        math.comb(m, j) * 2 * _gamma((2 * j + 2) * big_d + m + 1) * a ** (2 * j)
        for j in range(m + 1)
    )


def _abs_norm(x: np.ndarray) -> float:
    """The spectral norm of the entrywise modulus |x|, which bounds the
    rounding of every product with x."""
    return float(np.linalg.norm(np.abs(x), 2))


def _gamma(n: int) -> float:
    """The forward-error constant gamma_n = n u / (1 - n u) of a sum of n terms."""
    u = np.finfo(float).eps / 2
    return n * u / (1 - n * u)


def _dense_orbit(dil):
    """P_1..P_n and G_0..G_n, n = n_blocks, from the dense W: P_k is block k
    of W^k on H and G_j the H block of (W^j)* W^j."""
    w = dil.dim_h
    cols = np.eye(dil.dim_total, w, dtype=np.complex128)  # W^0 on H
    prods, grams = [], [cols.conj().T @ cols]
    for k in range(1, dil.n_blocks + 1):
        cols = dil.matrix @ cols
        prods.append(cols[dil.block_slice(k)])
        grams.append(cols.conj().T @ cols)
    return prods, grams


def _every_dilation(demos, mutation_runs):
    """The dilations of every demo, the reference dilation of each m = 2
    demo, and the dense-3concave example's."""
    results = [demos.run(name) for name in sorted(DEMOS)] + [mutation_runs["dense-3concave"]]
    return [
        dil for r in results for dil in (r.assembled, r.badea_assembled) if dil is not None
    ]


class TestOrbitGrams:
    def test_match_dense_powers(self, demos, mutation_runs):
        # W^k on H is a chain of k products of length at most D = dim_total,
        # each entry within gamma_(kD) (|W|^k)_(ij) of its exact value, which
        # is at most a^k, a the spectral norm of the entrywise |W|; P_k is
        # such a chain in both forms.  G_j, in the recursion or as
        # (W^j)* W^j, is a sum of chains of at most 2j products and one
        # dot, within gamma_((2j+2)D) a^(2j) of its exact value in either
        # form, so the two differ by at most twice that
        for dil in _every_dilation(demos, mutation_runs):
            grams = _grams(dil)
            assert len(grams.p) == dil.n_blocks and len(grams.g) == dil.n_blocks + 1
            a, big_d = _abs_norm(dil.matrix), dil.dim_total
            prods, dense = _dense_orbit(dil)
            for k, (p, ref) in enumerate(zip(grams.p, prods), start=1):
                assert max_abs(p.mat - ref) <= 2 * _gamma(k * big_d) * a**k
            for j, (g, ref) in enumerate(zip(grams.g, dense)):
                assert max_abs(g.mat - ref) <= 2 * _gamma((2 * j + 2) * big_d) * a ** (2 * j)


def _assert_matches_dense_alternating_sum(dil):
    # the two residuals differ by at most `_difference_bound`
    m = dil.model.m
    win = dil.model.corner.window_after(m)
    dense = _dense_orbit(dil)[1]
    operator = sum(
        (-1) ** (m - j) * math.comb(m, j) * dense[j][:win, :win] for j in range(m + 1)
    )
    res = check_criterion_identity(_grams(dil))
    assert res.passed
    assert abs(res.residual - max_abs(operator)) <= _difference_bound(dil)


class TestCriterionIdentity:
    def test_matches_dense_alternating_sum(self, demos):
        for name in sorted(DEMOS):
            _assert_matches_dense_alternating_sum(demos.run(name).assembled)

    def test_dense_3concave_matches_dense_alternating_sum(self, mutation_runs):
        _assert_matches_dense_alternating_sum(mutation_runs["dense-3concave"].assembled)

    def test_scalar(self, scalar_model):
        assert check_criterion_identity(_grams(scalar_model[2])).residual <= 1e-12

    def test_strict(self, strict_pair):
        assert check_criterion_identity(_grams(strict_pair[2])).residual <= 1e-10

    def test_isometric_input_binomial_collapse(self):
        rule = WeightRule.dirichlet()
        corner = make_shift_corner(rule, 16)
        delta = defect_diagonal(rule, 1, 14)
        sol = solve_q_shift_diagonal(corner, delta)
        dil = build_general_model(DefectForms(corner), 2, sol, 6)
        assert check_criterion_identity(_grams(dil)).residual <= 1e-10


class TestEquivalenceBothDirections:
    """W is m-isometric iff the weight shift is m-isometric and the scalar
    criterion holds; a corrupted weight breaks exactly the shift side."""

    def test_intact_model_all_pass(self, strict_pair):
        _, weights, general, _, _ = strict_pair
        assert check_w_m_isometry(_grams(general)).passed
        assert check_criterion_identity(_grams(general)).passed
        assert check_weight_shift_isometry(_cumulative(weights), 2).passed

    def test_corrupted_weight_localized(self, strict_pair):
        _, weights, general, _, _ = strict_pair
        bad_weights = _bumped(weights, 2, 0.1)
        bad_dil = dataclasses.replace(general, weights=bad_weights)
        iso = check_w_m_isometry(_grams(bad_dil))
        assert not iso.passed
        assert iso.residual > 1e-3
        pdiff = check_weight_shift_isometry(_cumulative(bad_weights), 2)
        assert not pdiff.passed
        # for m = 2 the criterion identity involves only S_1, so the
        # corruption of S_2 is localized by the shift check alone
        crit = check_criterion_identity(_grams(bad_dil))
        assert crit.passed

    def test_corrupted_u_localized_by_criterion(self, strict_pair):
        # the complementary direction: bumping U leaves the weight shift
        # m-isometric but breaks the scalar identity and hence W
        model, weights, general, _, _ = strict_pair
        bad_u = Block(model.u.mat + 0.1)
        bad_dil = dataclasses.replace(general, u=bad_u, model=dataclasses.replace(model, u=bad_u))
        assert check_weight_shift_isometry(_cumulative(weights), 2).passed
        crit = check_criterion_identity(_grams(bad_dil))
        assert not crit.passed
        iso = check_w_m_isometry(_grams(bad_dil))
        assert not iso.passed and iso.residual > 1e-3


def _monomial_stack(seed: int) -> Block:
    """A (h, d, d) stack of real monomials: each member a permutation
    matrix with signed real values, h <= 12 and d <= 9."""
    rng = np.random.default_rng(seed)
    h, d = int(rng.integers(4, 13)), int(rng.integers(1, 10))
    cols = np.array([rng.permutation(d) for _ in range(h)])
    vals = rng.uniform(0.5, 2.0, (h, d)) * rng.choice([-1.0, 1.0], (h, d))
    return Block.monomial((h, d, d), cols, vals)


class TestMonomialWeightStack:
    """A monomial weight stack, and its diagonal moduli, give every weight
    check the bits of the same stack taken dense."""

    @pytest.mark.parametrize("seed", range(8))
    def test_checks_match_the_dense_stack(self, seed):
        stack = _monomial_stack(seed)
        dense = Block.dense(np.array(stack.mat))
        h, d = stack.shape[:2]
        moduli, dense_moduli = _cumulative(stack), _cumulative(dense)
        assert moduli.as_diagonal() is not None and dense_moduli.mono is None
        assert np.array_equal(moduli.mat, dense_moduli.mat)
        rng = np.random.default_rng(seed)
        a_vals = -rng.uniform(0.0, 1.0, d)
        g = rng.standard_normal((d, d))
        for a in (np.diag(a_vals), np.diag(a_vals) - 1e-3 * g @ g.T):
            for m in (2, 3, 4):
                model = SimpleNamespace(m=m, a=hermitian(a))
                for check in (
                    lambda c: check_cumulative_polynomial(model, c),
                    lambda c: check_weight_shift_isometry(c, m),
                ):
                    ours, theirs = check(moduli), check(dense_moduli)
                    assert ours.residual == theirs.residual
                    assert ours.tolerance == theirs.tolerance

    def test_a_shift_runs_checks_match_its_dense_stack(self, strict_pair):
        # rounding-level residuals, where a slip of either path would show
        model, weights, _, _, _ = strict_pair
        moduli = _cumulative(weights)
        dense_moduli = _cumulative(Block.dense(np.array(weights.mat)))
        assert moduli.as_diagonal() is not None and model.a.block.as_diagonal() is not None
        for ours, theirs in (
            (check_cumulative_polynomial(model, moduli), check_cumulative_polynomial(model, dense_moduli)),
            (check_weight_shift_isometry(moduli, 2), check_weight_shift_isometry(dense_moduli, 2)),
        ):
            assert ours.residual == theirs.residual and ours.tolerance == theirs.tolerance
            assert ours.passed and ours.residual < 1e-3 * ours.tolerance

    @pytest.mark.parametrize("seed", range(8))
    def test_members_and_products_match_the_dense_stack(self, seed):
        stack = _monomial_stack(seed)
        mat = np.array(stack.mat)
        h = stack.shape[0]
        assert stack[:h] is stack
        assert stack[1:3].mono is not None and np.array_equal(stack[1:3].mat, mat[1:3])
        for k in range(h):
            member = stack[k]
            assert member.mono is not None and np.array_equal(member.mat, mat[k])
            gram = mat[k].conj().T @ mat[k]
            assert np.array_equal(member.gram_diagonal(), gram.diagonal().real)
            assert max_abs(gram - np.diag(gram.diagonal())) == 0.0
            after = stack[k - 1].then(member)
            assert after.mono is not None
            assert np.array_equal(after.mat, mat[k] @ mat[k - 1])
            assert np.array_equal(after.mat, Block.dense(mat[k - 1]).then(Block.dense(mat[k])).mat)


def _seeded_shift_run(seed: int):
    """A general-path dilation of a seeded shift, m = 2 with its reference
    dilation or m = 3 without, built from its own forms, with its metric."""
    rng = np.random.default_rng(seed)
    m = 2 + seed % 2
    n = int(rng.integers(3 * m + 4, 28))
    if m == 2:
        rule = WeightRule.geometric_concave(float(rng.uniform(0.2, 0.8)))
    else:  # ||T^k e_0||^2 = f(k) / f(0), strictly 3-concave and expansive
        c = float(rng.uniform(0.25, 0.75))
        f = [(k + 1) ** 2 - c * math.sqrt(k + 1) for k in range(n + m + 1)]
        rule = WeightRule.table([math.sqrt(f[k] / f[k - 1]) for k in range(1, len(f))], 1.0)
    corner = make_shift_corner(rule, n)
    forms = DefectForms(corner)
    sol = solve_q_shift_diagonal(corner, defect_diagonal(rule, m - 1, corner.window_after(m)))
    n_blocks = int(rng.integers(m + 2, 9))
    general = build_general_model(forms, m, sol, n_blocks)
    reference = build_badea_2iso(forms, sol, n_blocks) if m == 2 else None
    return sol, general, reference


def _taken_dense(dil):
    """The dilation with every stored block, the model's A and its map of
    H onto H' given dense, their structure not read."""
    model = dataclasses.replace(
        dil.model,
        a=hermitian(np.array(dil.model.a.mat)),
        u=Block.dense(np.array(dil.model.u.mat)),
        compression=Block.dense(np.array(dil.model.compression.mat)),
    )
    return dataclasses.replace(
        dil, t=Block.dense(np.array(dil.t.mat)), u=model.u,
        weights=Block.dense(np.array(dil.weights.mat)), model=model,
    )


class TestDiagonalKernelsMatchDenseTwins:
    """On a shift every orbit Gram, the metric and the agreement check's
    operators are diagonal and formed on their diagonals; each result has
    the bits of the same objects given dense."""

    @pytest.mark.parametrize("seed", range(6))
    def test_stein_residual(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        corner = make_shift_corner(WeightRule.geometric_concave(float(rng.uniform(0.2, 0.8))), n)
        for w in (n, int(rng.integers(1, n + 1))):
            q = HermitianMatrix.diag(rng.uniform(0.0, 2.0, w) * rng.integers(0, 2, w))
            dense = Block.dense(np.array(q.mat))
            assert q.block.as_diagonal() is not None
            assert stein_residual(corner, q.block) == stein_residual(corner, dense)
            assert stein_residual(corner, q.block) == stein_residual(corner, hermitian(q.mat).block)

    @pytest.mark.parametrize("seed", range(6))
    def test_orbit_grams(self, seed):
        _, general, reference = _seeded_shift_run(seed)
        for dil in (general, reference):
            if dil is None:
                continue
            grams, dense = orbit_grams(dil), orbit_grams(_taken_dense(dil))
            for j, (g, g_dense) in enumerate(zip(grams.g, dense.g)):
                assert g.as_diagonal() is not None and "mat" not in vars(g)
                assert j == 0 or g_dense.mono is None  # G_0 = I either way
                assert np.array_equal(g.mat, g_dense.mat)
            ours, theirs = check_criterion_identity(grams), check_criterion_identity(dense)
            assert ours.residual == theirs.residual and ours.passed
            assert check_minimality(grams) == check_minimality(dense)
        if reference is not None:
            ours = nonisomorphism_certificate(
                orbit_grams(general), orbit_grams(reference), expected_found=True
            )
            theirs = nonisomorphism_certificate(
                orbit_grams(_taken_dense(general)), orbit_grams(_taken_dense(reference)),
                expected_found=True,
            )
            assert ours == theirs

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_agreement_residual(self, seed):
        sol, general, _ = _seeded_shift_run(seed)
        diag = build_diagonal_model(general.model, sol.q_seq)
        ours = dense_agreement_residual(general, diag)
        assert ours == dense_agreement_residual(_taken_dense(general), diag)
        assert ours <= DEFAULT_TOLERANCES.agreement_tol


def _max_column_norm(cols):
    return float(np.max(np.sqrt(np.sum(np.abs(cols) ** 2, axis=0))))


class TestMinimality:
    def test_column_rank_util(self, rng):
        g1 = rng.standard_normal((30, 7)) + 1j * rng.standard_normal((30, 7))
        g2 = rng.standard_normal((7, 40)) + 1j * rng.standard_normal((7, 40))
        prod = g1 @ g2
        thresh = 1e-6 * _max_column_norm(prod)
        assert _column_space_rank(Block(prod), thresh) == np.linalg.matrix_rank(prod)
        assert _column_space_rank(Block(np.zeros((5, 3), dtype=complex)), 0.0) == 0
        # a threshold above every column norm accepts nothing
        assert _column_space_rank(Block(prod), 2.0 * _max_column_norm(prod)) == 0

    def test_scalar_full_rank(self, scalar_model):
        _, _, dil = scalar_model
        res = check_minimality(_grams(dil))
        assert res.passed
        assert "rank 6 of 6" in res.window

    def test_degenerate_vacuous(self):
        f = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        from isodilation.qsolver import QSolution
        from isodilation.hermitian import hermitian

        q = QSolution(hermitian(np.zeros((2, 2))), "zero", None, 0.0, 0.0)
        dil = build_general_model(DefectForms(dense_corner(f)), 2, q, 4)
        assert check_minimality(_grams(dil)).passed

    def test_zeroed_u_negative_control(self, scalar_model):
        model, _, dil = scalar_model
        bad = dataclasses.replace(dil, u=Block(np.zeros_like(dil.u.mat)))
        res = check_minimality(_grams(bad))
        assert not res.passed
        # the rank deficit is exactly the number of unreachable blocks
        assert res.residual == dil.n_blocks * model.dim_hprime

    def test_strict_pair_full_rank(self, strict_pair):
        _, _, general, _, badea = strict_pair
        assert check_minimality(_grams(general)).passed
        assert check_minimality(_grams(badea)).passed


def _mgs_rank_reference(cols, thresh):
    """Blocked Gram-Schmidt with a per-column modified Gram-Schmidt inside
    each 48-column batch: the rank kernel one accepted vector at a time."""
    dim, count = cols.shape
    if count == 0 or dim == 0:
        return 0
    basis = None
    for start in range(0, count, 48):
        blk = cols[:, start : start + 48].astype(np.complex128, copy=True)
        for _ in range(2):
            if basis is not None:
                blk -= basis @ (basis.conj().T @ blk)
        accepted = []
        for i in range(blk.shape[1]):
            v = blk[:, i]
            for u in accepted:
                v = v - u * np.vdot(u, v)
            nrm = float(np.sqrt(np.vdot(v, v).real))
            if nrm > thresh:
                accepted.append(v / nrm)
        if accepted:
            new = np.column_stack(accepted)
            basis = new if basis is None else np.concatenate([basis, new], axis=1)
    return 0 if basis is None else basis.shape[1]


def _complex_gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestRankKernelAgainstReference:
    """The batched rank kernel accepts exactly the columns the per-column
    modified Gram-Schmidt accepts."""

    @pytest.mark.parametrize("shape", [(150, 120), (120, 150), (48, 48), (200, 97)])
    def test_full_rank(self, rng, shape):
        cols = _complex_gaussian(rng, shape)
        thresh = 1e-6 * _max_column_norm(cols)
        rank = _column_space_rank(Block(cols), thresh)
        assert rank == _mgs_rank_reference(cols, thresh) == min(shape)
        assert rank == np.linalg.matrix_rank(cols)

    def test_exact_deficiency_inside_and_across_batches(self, rng):
        cols = _complex_gaussian(rng, (160, 130))
        # inside the first batch: a duplicate and a combination
        cols[:, 10] = cols[:, 3]
        cols[:, 20] = 2.0 * cols[:, 5] - 1j * cols[:, 7]
        # across batches: columns of batches 2 and 3 from earlier batches
        cols[:, 60] = cols[:, 2]
        cols[:, 70] = cols[:, 1] + (0.5 - 2j) * cols[:, 50]
        cols[:, 100] = cols[:, 99] - 3.0 * cols[:, 40] + 1j * cols[:, 0]
        cols[:, 129] = cols[:, 100]
        thresh = 1e-6 * _max_column_norm(cols)
        rank = _column_space_rank(Block(cols), thresh)
        assert rank == _mgs_rank_reference(cols, thresh) == 130 - 6
        assert rank == np.linalg.matrix_rank(cols)

    @pytest.mark.parametrize("thresh", [1e-4, 1e-6])
    def test_residuals_within_one_percent_of_threshold(self, rng, thresh):
        # columns of norm about 1 (minimality's threshold is 1e-6 of the
        # largest column norm) built on an orthonormal frame: every third
        # column has residual thresh * (1 + delta) along a direction of its
        # own, the others open a fresh direction; all mix in the directions
        # opened before them
        dim, count = 200, 130
        frame, _ = np.linalg.qr(_complex_gaussian(rng, (dim, dim)))
        deltas = (-0.01, -0.005, -0.001, 0.001, 0.005, 0.01)
        cols = np.zeros((dim, count), dtype=np.complex128)
        opened, near, expected = 0, 0, 0
        for j in range(count):
            cols[:, j] = frame[:, :opened] @ _complex_gaussian(rng, opened) / np.sqrt(max(opened, 1))
            if j % 3 == 2:
                delta = deltas[near % len(deltas)]
                near += 1
                cols[:, j] += thresh * (1.0 + delta) * frame[:, dim - near]
                expected += delta > 0
            else:
                cols[:, j] += (1.0 + rng.uniform()) * frame[:, opened]
                opened += 1
                expected += 1
        rank = _column_space_rank(Block(cols), thresh)
        assert rank == _mgs_rank_reference(cols, thresh) == expected

    @pytest.mark.parametrize(
        "dim, count, complex_entries, zero_columns, seed",
        [
            (40, 40, False, 0, 1),
            (60, 45, True, 0, 2),
            (45, 60, True, 9, 3),
            (130, 100, False, 12, 4),
            (100, 130, True, 30, 5),
        ],
    )
    def test_monomial_columns(self, monkeypatch, dim, count, complex_entries, zero_columns, seed):
        # at most one nonzero in each row and each column, permuted: the
        # columns have disjoint supports; a real monomial block is ranked by
        # a count of norms, a complex one (refused by the structure reader)
        # by Gram-Schmidt; every fourth nonzero column has norm
        # thresh * (1 +- 0.01)
        rng = np.random.default_rng(seed)
        thresh = 1e-6
        live = min(dim, count) - zero_columns
        rows = rng.permutation(dim)[:live]
        columns = rng.permutation(count)[:live]
        mags = rng.uniform(0.5, 2.0, live)
        near = np.arange(live) % 4 == 3
        mags[near] = thresh * np.where(np.arange(near.sum()) % 2, 1.01, 0.99)
        if complex_entries:
            phases = np.exp(2j * np.pi * rng.uniform(size=live))
        else:
            phases = rng.choice([-1.0, 1.0], live)
        cols = np.zeros((dim, count), dtype=np.complex128)
        cols[rows, columns] = mags * phases
        expected = live - int(np.count_nonzero(near & (mags < thresh)))

        calls = []
        gram_schmidt = verifier._gram_schmidt_rank
        monkeypatch.setattr(
            verifier, "_gram_schmidt_rank", lambda c, t: calls.append(c.shape) or gram_schmidt(c, t)
        )
        rank = _column_space_rank(Block(cols), thresh)
        assert calls == ([(dim, count)] if complex_entries else [])
        assert rank == _mgs_rank_reference(cols, thresh) == expected
        assert rank == np.linalg.matrix_rank(cols, tol=thresh)

        # a second nonzero in one row couples two columns: Gram-Schmidt runs
        other = int(columns[1])
        coupled = cols.copy()
        coupled[rows[0], other] = 0.75 - 0.5j
        calls.clear()
        rank = _column_space_rank(Block(coupled), thresh)
        assert calls == [(dim, count)]
        assert rank == _mgs_rank_reference(coupled, thresh)
        assert rank == np.linalg.matrix_rank(coupled, tol=thresh)


def _dense_orbit_rank(dilation, rel_tol=1e-6):
    """Gram-Schmidt rank of the dense orbit [W^n e : n = 0..n_blocks]."""
    cur = np.eye(dilation.dim_total, dilation.dim_h, dtype=complex)
    blocks = [cur]
    for _ in range(dilation.n_blocks):
        cur = dilation.matrix @ cur
        blocks.append(cur)
    cols = np.concatenate(blocks, axis=1)
    return _column_space_rank(Block(cols), rel_tol * _max_column_norm(cols))


class TestBlockMinimalityOracle:
    """The block rank w + sum_k rank(S_(k-1)...S_1 U) against the dense pass."""

    @pytest.fixture(scope="class")
    def dense_three_concave(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        q, _ = np.linalg.qr(g)
        z = rng.uniform(0.1, 0.95, 8) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, 8))
        return build_three_concave_model(DefectForms(dense_corner((q * z) @ q.conj().T)), n_blocks=6)

    def _assert_matches(self, dil):
        assert check_minimality(_grams(dil)).residual == dil.dim_total - _dense_orbit_rank(dil)

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
            bad = dataclasses.replace(dil, u=Block(np.zeros_like(dil.u.mat)))
            self._assert_matches(bad)
            assert check_minimality(_grams(bad)).residual == dil.n_blocks * dil.dim_hprime

    def test_rank_one_u(self, strict_pair, dense_three_concave):
        for dil in (strict_pair[2], dense_three_concave):
            lead = np.zeros_like(dil.u.mat)
            lead[:, 0] = dil.u.mat[:, 0]
            bad = dataclasses.replace(dil, u=Block(lead))
            self._assert_matches(bad)
            # every P_k = S_(k-1)...S_1 U has rank 1
            assert check_minimality(_grams(bad)).residual == dil.dim_total - dil.dim_h - dil.n_blocks

    def test_u_off_its_pattern(self, strict_pair):
        # one entry outside the one-per-row pattern of a shift's U: the
        # orbit blocks leave the disjoint-support path
        for dil in (strict_pair[2], strict_pair[4]):
            u = dil.u.mat.copy()
            assert np.count_nonzero(u, axis=1).max() == 1
            u[0, np.flatnonzero(u[0] == 0)[0]] = 0.01
            self._assert_matches(dataclasses.replace(dil, u=Block(u)))


def _delta_1_bound(general, reference, q):
    """First-order bound on max |Delta_1 - beta_1| over window_after(1)
    for the m = 2 pair of a shift.

    Every matrix here is diagonal.  G_1 = fl(T*T + U*U) and
    G'_1 = fl(T*T + U'*U') share the bits of T*T (one stored T).  Each
    entry of U*U squares the rounded root of an entry of Q, within 3u|Q|.
    The reference's metric g = fl(Q - beta_1) is within u|Q - beta_1| of
    Q - beta_1; its entries on the kept range square back within 3u|g|,
    and those off it are left out, an error of |g| each.  The two sums
    and the difference add u(|T*T| + |Q|), u(|T*T| + |Q| + |beta_1|) and
    u|beta_1|.  With s = max|T*T| + max|Q| + max|beta_1| that is at most
    9u s plus the largest |g| off the range.
    """
    model = general.model
    w = model.dim_h
    beta_1 = model.defect_prev.mat.diagonal().real
    q_diag = q.mat.diagonal().real[:w]
    t_sq = general.t.gram_diagonal()
    off_range = reference.u.gram_diagonal() == 0.0
    dropped = np.abs(q_diag - beta_1)[off_range]
    s = np.max(t_sq) + np.max(np.abs(q_diag)) + np.max(np.abs(beta_1))
    return 9 * _gamma(1) * s + float(np.max(dropped, initial=0.0))


class TestCertificate:
    def test_strict_certificate_found(self, strict_pair):
        _, _, general, _, badea = strict_pair
        res = nonisomorphism_certificate(_grams(general), _grams(badea), expected_found=True)
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

    @pytest.mark.parametrize("name", ["strict-2concave", "nonisomorphic-pair", "dirichlet-2iso"])
    def test_delta_1_is_the_first_defect(self, demos, name):
        r = demos.run(name)
        general, reference = r.assembled, r.badea_assembled
        win = general.model.corner.window_after(1)
        delta_1 = _grams(general).g[1].mat - _grams(reference).g[1].mat
        beta_1 = general.model.defect_prev.mat
        bound = _delta_1_bound(general, reference, r.q.q)
        assert max_abs(delta_1[:win, :win] - beta_1[:win, :win]) <= bound

    def test_strict_gap_is_one_half(self, demos):
        # beta_1(n) = w_(n+1)^2 - 1 = r^(n+1) on geometric_concave(r), largest
        # at n = 0 with 1/2; the float beta_1(0) = fl(fl(sqrt(3/2))^2) - 1 is
        # within gamma_4 * 2 of it, and Delta_1 within `_delta_1_bound` of
        # beta_1, so the reported largest |Delta_1| is 1/2 within their sum
        r = demos.run("strict-2concave")
        cert = next(c for c in r.verification.checks if c.name == "nonisomorphism_certificate")
        assert cert.passed
        bound = _delta_1_bound(r.assembled, r.badea_assembled, r.q.q) + 2 * _gamma(4)
        assert abs(cert.residual - 0.5) <= bound

    def test_isometric_input_no_certificate(self):
        rule = WeightRule.constant(1.0)
        corner = make_shift_corner(rule, 12)
        delta = defect_diagonal(rule, 1, 10)
        sol = solve_q_shift_diagonal(corner, delta)
        general = build_general_model(DefectForms(corner), 2, sol, 5)
        badea = build_badea_2iso(DefectForms(corner), sol, 5)
        res = nonisomorphism_certificate(_grams(general), _grams(badea), expected_found=False)
        assert res.passed
        assert res.residual <= 1e-12

    def test_expectation_mismatch_fails(self, strict_pair):
        _, _, general, _, badea = strict_pair
        res = nonisomorphism_certificate(_grams(general), _grams(badea), expected_found=False)
        assert not res.passed

    @pytest.mark.parametrize("r", [1e-7, 1e-9])
    def test_near_isometric_shift_expects_no_certificate(self, r):
        # beta_1(0) = r lies between class_tol and cert_tol: the 1-defect
        # does not vanish, but Delta_1 = beta_1 is below the certificate's
        # own threshold, so no certificate is expected, and none is found
        result = run_pipeline(spec_from_dict({
            "schema_version": 1,
            "operator": {"kind": "shift", "rule": {"name": "geometric_concave", "r": r}},
            "m": 2,
            "truncation": {"N": 48, "n_blocks": 6},
        }))
        tols = result.tolerances
        assert tols.class_tol < result.model.defect_prev.norm_max() <= tols.cert_tol
        cert = next(c for c in result.verification.checks if c.name == "nonisomorphism_certificate")
        assert cert.passed
        assert cert.window.endswith("certificate not found (expected not found)")
        if r == 1e-9:
            assert result.overall, [c.name for c in result.verification.checks if not c.passed]


class TestRemark:
    def test_dirichlet_isometric_branch(self):
        rule = WeightRule.dirichlet()
        corner = make_shift_corner(rule, 16)
        delta = defect_diagonal(rule, 1, 14)
        sol = solve_q_shift_diagonal(corner, delta)
        res = remark_consistency(build_general_model(DefectForms(corner), 2, sol, 6))
        assert res.passed  # S_1 = I and vanishing defect: consistent

    def test_strict_branch(self, strict_pair):
        _, _, general, _, _ = strict_pair
        res = remark_consistency(general)
        assert res.passed  # S_1 != I and nonvanishing defect: consistent

    def test_degenerate_vacuous(self):
        f = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        from isodilation.qsolver import QSolution
        from isodilation.hermitian import hermitian

        q = QSolution(hermitian(np.zeros((2, 2))), "zero", None, 0.0, 0.0)
        assert remark_consistency(build_general_model(DefectForms(dense_corner(f)), 2, q, 4)).passed

    def test_reference_model_represents_no_form(self):
        # the reference dilation's A is 0, so it claims no form, and its
        # identity weights are consistent with that
        rule = WeightRule.geometric_concave(0.5)
        corner = make_shift_corner(rule, 20)
        sol = solve_q_shift_diagonal(corner, defect_diagonal(rule, 1, 18))
        dil = build_badea_2iso(DefectForms(corner), sol, 6)
        assert dil.model.dim_hprime > 0 and dil.model.remark_form_norm == 0.0
        assert remark_consistency(dil).passed

    def test_inconsistent_pair_detected(self, strict_pair):
        # identity weights with a nonvanishing represented form must trip it
        model, _, general, _, _ = strict_pair
        d = model.dim_hprime
        eye = hermitian(np.broadcast_to(np.eye(d), (4, d, d))).block
        assert not remark_consistency(dataclasses.replace(general, weights=eye)).passed


# checks the benchmark's report judge sets apart from the rule
# `passed == (residual <= tolerance)`: the two that build their own verdict
# (the certificate matches an expectation, the remark compares two
# indicators) and the minimality rank defects
_OWN_VERDICT = {"minimality", "badea_minimality", "remark_consistency", "nonisomorphism_certificate"}


def test_every_other_verdict_is_residual_within_tolerance(demos):
    examples = Path(__file__).resolve().parent.parent / "spec-examples"
    results = [demos.run(name) for name in sorted(DEMOS)] + [
        run_pipeline(parse_spec(path.read_text()))
        for path in sorted(examples.glob("*.json"))
        if ".report." not in path.name
    ]
    assert len(results) == 10
    checks = [c for r in results for c in r.verification.checks if c.name not in _OWN_VERDICT]
    assert checks
    assert [c for c in checks if c.passed != (c.residual <= c.tolerance)] == []


def test_check_results_are_built_only_by_the_verdict_rule():
    """A `CheckResult` is built in one place, `verifier._result`, which
    writes the verdict residual <= tolerance; only the two checks with a
    verdict of their own build one directly."""
    src = Path(__file__).resolve().parent.parent / "src" / "isodilation"
    built = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                owner.update({id(node): fn.name for node in ast.walk(fn)})
        built |= {
            (path.name, owner.get(id(node), "<module>"))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == CheckResult.__name__
        }
    assert built == {
        ("verifier.py", "_result"),
        ("verifier.py", "remark_consistency"),
        ("verifier.py", "nonisomorphism_certificate"),
    }


def test_orbit_grams_built_once_per_dilation(monkeypatch):
    # structural guard: the orbit Grams are built once per dilation, and
    # the m-isometry, criterion, minimality and certificate checks read
    # them; the verifier decomposes nothing
    built = []
    grams = verifier.orbit_grams

    def counting_grams(dilation):
        built.append(dilation)
        return grams(dilation)

    monkeypatch.setattr(verifier, "orbit_grams", counting_grams)
    # the strict-2concave demo is the N = 48 spec of the shift-m2 workload
    result = run_pipeline(demo_spec("strict-2concave"))
    assert len(built) == 2
    assert built[0] is result.assembled and built[1] is result.badea_assembled
    assert not hasattr(verifier, "eigh")
    # one dilation, one build, on a run without a reference
    built.clear()
    examples = Path(__file__).resolve().parent.parent / "spec-examples"
    dense = run_pipeline(parse_spec((examples / "dense-3concave.json").read_text()))
    assert dense.badea_assembled is None
    assert len(built) == 1 and built[0] is dense.assembled


def test_moduli_formed_once_from_the_main_dilation(monkeypatch):
    # structural guard: |S_n...S_1|^2 is formed once per run, from the
    # weight stack the main dilation stores; after it the m-isometry check
    # forms the block moduli of each dilation, main then reference, from
    # the m stored weights S_k..S_(k+m-1) at each start k = 1..n_blocks - m,
    # so 1 + 4 + 4 stacks on the m = 2 demo (6 blocks) and 1 + 3 on the
    # m = 3 example (6 blocks)
    stacks = []
    moduli = verifier._cumulative_moduli

    def counting(weights, herm_tol):
        stacks.append(weights)
        return moduli(weights, herm_tol)

    monkeypatch.setattr(verifier, "_cumulative_moduli", counting)
    examples = Path(__file__).resolve().parent.parent / "spec-examples"
    dense = parse_spec((examples / "dense-3concave.json").read_text())
    for spec in (demo_spec("strict-2concave"), dense):
        stacks.clear()
        result = run_pipeline(spec)
        assert result.overall
        dilations = [d for d in (result.assembled, result.badea_assembled) if d is not None]
        m, top = result.model.m, result.assembled.n_blocks - result.model.m
        assert len(stacks) == 1 + top * len(dilations) == {2: 9, 3: 4}[m]
        assert stacks[0] is result.assembled.weights
        starts = [(dil, k) for dil in dilations for k in range(top)]
        for stack, (dil, k) in zip(stacks[1:], starts):
            assert np.array_equal(stack.mat, dil.weights.mat[k : k + m])


# Checks that fail on each corruption of a verified run, re-verified with
# the pipeline's full check set.  "a" is the representer A, which only
# `b_square` and `cumulative_matches_polynomial` read (and, on a shift,
# the diagonal cross-check).  The orbit Grams read the stored T, U and
# S_1..S_(n_blocks-1), and the criterion their first m + 1, which hold
# S_1..S_(m-1): so `criterion_identity` sees a stored T and U, and on the
# 3-concave input (m = 3) a stored S_2.  Every weight check reads the one
# stack W stores, the cumulative and weight-shift checks through the
# moduli `verify_run` forms from it: so a stored S_2 scaled by 1.01
# ("stored_s2") or given an off-diagonal entry fails them and, on the
# shift, the diagonal cross-check, as "perturb_s2" (S_2 + 0.01 I, the
# same stack bumped) does.  B is no object of its own but S_(m-1) of the
# weight stack, so it has no row: on the 3-concave input, where
# m - 1 = 2, "stored_s2" and "perturb_s2" corrupt B, and `b_square` sees
# it.  "q" scales one entry of the stored metric after the solve.
_MUTATION_MATRIX = {
    "strict-2concave": {
        "none": set(),
        "t": {"criterion_identity", "dilation_property", "powers_formula", "w_m_isometry"},
        "u": {"criterion_identity", "powers_formula", "w_m_isometry"},
        "stored_s2": {
            "cumulative_matches_polynomial", "diagonal_dense_agreement",
            "w_m_isometry", "weight_shift_m_isometry",
        },
        "perturb_s2": {
            "cumulative_matches_polynomial", "diagonal_dense_agreement",
            "w_m_isometry", "weight_shift_m_isometry",
        },
        "a": {"b_square", "cumulative_matches_polynomial", "diagonal_dense_agreement"},
        # corruptions that leave the exact structure of a shift's blocks
        "u_off_pattern": {"criterion_identity", "powers_formula", "w_m_isometry"},
        "stored_s2_off_diagonal": {
            "cumulative_matches_polynomial", "diagonal_dense_agreement",
            "w_m_isometry", "weight_shift_m_isometry",
        },
        # the stored map of H onto H' (`compression`), which U was made
        # with and which only the diagonal cross-check reads afterwards
        "basis": {"diagonal_dense_agreement"},
        # complex entries, multiplied densely: a unit phase on a diagonal
        # entry of S_2 is a unitarily equivalent dilation, whose moduli
        # |S_n...S_1|^2 keep their values, so only the entrywise diagonal
        # cross-check sees it; a phase on U's column-0 entry shows only
        # against the model's U (U*U and so every orbit Gram keep their
        # values; the orbit blocks are no longer real monomials, so
        # minimality ranks them by Gram-Schmidt, not by a count of norms)
        "stored_s2_phase": {"diagonal_dense_agreement"},
        "u_phase": {"powers_formula"},
        # the reference dilation's stored blocks ("ref_" rows): the
        # certificate asks only for a Gram gap between the two dilations,
        # which each corruption keeps, and the reference's unit weights are
        # read by `w_m_isometry` alone
        "ref_t": {"badea_dilation_property", "badea_w_m_isometry"},
        "ref_u": {"badea_w_m_isometry"},
        "ref_stored_s2": {"badea_w_m_isometry"},
        "ref_u_zero": {"badea_minimality", "badea_w_m_isometry"},
        "q": {"q_invariance"},
    },
    "dense-3concave": {
        "none": set(),
        "t": {"criterion_identity", "dilation_property", "powers_formula", "w_m_isometry"},
        "u": {"criterion_identity", "powers_formula", "w_m_isometry"},
        "stored_s2": {
            "b_square", "criterion_identity", "cumulative_matches_polynomial",
            "w_m_isometry", "weight_shift_m_isometry",
        },
        "perturb_s2": {
            "b_square", "criterion_identity", "cumulative_matches_polynomial",
            "w_m_isometry", "weight_shift_m_isometry",
        },
        "a": {"b_square", "cumulative_matches_polynomial"},
    },
}


@pytest.fixture(scope="module")
def mutation_runs(demos):
    examples = Path(__file__).resolve().parent.parent / "spec-examples"
    dense = parse_spec((examples / "dense-3concave.json").read_text())
    return {"strict-2concave": demos.run("strict-2concave"), "dense-3concave": run_pipeline(dense)}


def _corrupted_blocks(dil, what):
    """A copy of a dilation with one stored block corrupted."""
    if what == "t":
        return dataclasses.replace(dil, t=Block(dil.t.mat * 1.01))
    if what == "u":
        return dataclasses.replace(dil, u=Block(dil.u.mat * 1.01))
    if what in ("u_off_pattern", "u_phase", "u_zero"):
        u = dil.u.mat.copy()
        if what == "u_off_pattern":
            u[0, np.flatnonzero(u[0] == 0)[0]] = 0.01
        elif what == "u_phase":
            u[np.flatnonzero(u[:, 0])[0], 0] *= np.exp(0.5j)
        else:
            u[:] = 0.0
        return dataclasses.replace(dil, u=Block(u))
    # a writable copy, also of the reference's read-only identity stack
    stack = dil.weights.mat.copy()
    if what == "stored_s2":
        stack[1] *= 1.01
    elif what == "stored_s2_off_diagonal":
        stack[1][0, 1] = 0.01
    else:
        stack[1][0, 0] *= np.exp(0.5j)
    return dataclasses.replace(dil, weights=Block(stack))


def _corrupted(result, what):
    """(dilation, reference, metric) of a run with one stored object
    corrupted; a "ref_" row corrupts the reference dilation."""
    model, dil = result.model, result.assembled
    reference, q = result.badea_assembled, result.q
    if what == "none":
        return dil, reference, q
    if what.startswith("ref_"):
        return dil, _corrupted_blocks(reference, what[len("ref_"):]), q
    if what == "q":
        mat = q.q.mat.copy()
        mat[3, 3] *= 1.5
        bumped = dataclasses.replace(q, q=hermitian(mat, result.tolerances.herm_tol))
        return dil, reference, bumped
    if what == "basis":
        model = dataclasses.replace(model, compression=Block(model.compression.mat * 1.01))
        return dataclasses.replace(dil, model=model), reference, q
    if what == "perturb_s2":
        return dataclasses.replace(dil, weights=_bumped(dil.weights, 2, 0.01)), reference, q
    if what == "a":
        scaled = hermitian(model.a.mat * 1.01, result.tolerances.herm_tol)
        model = dataclasses.replace(model, a=scaled)
        return dataclasses.replace(dil, model=model), reference, q
    return _corrupted_blocks(dil, what), reference, q


def _failing_checks(result, dil, reference, q) -> set:
    rep = verify_run(dil, q, reference, result.tolerances)
    return {c.name for c in rep.checks if not c.passed}


@pytest.mark.parametrize(
    "case,what", [(case, what) for case, row in sorted(_MUTATION_MATRIX.items()) for what in row]
)
def test_mutation_matrix(mutation_runs, case, what):
    r = mutation_runs[case]
    assert _failing_checks(r, *_corrupted(r, what)) == _MUTATION_MATRIX[case][what]


@pytest.mark.parametrize(
    "name,count", [("strict-2concave", 1), ("table-shift-m3", 1), ("dense-3concave", 0)]
)
def test_one_diagonal_reference_per_shift_run(monkeypatch, name, count):
    """`verify_run` builds the diagonal reference of a shift run once, from
    the model it checks, and none on a dense run."""
    examples = Path(__file__).resolve().parent.parent / "spec-examples"
    spec = demo_spec(name) if name in DEMOS else parse_spec((examples / f"{name}.json").read_text())
    models = []
    build = verifier.build_diagonal_model

    def counting(model, *args, **kwargs):
        models.append(model)
        return build(model, *args, **kwargs)

    monkeypatch.setattr(verifier, "build_diagonal_model", counting)
    result = run_pipeline(spec)
    assert len(models) == count
    assert all(model is result.model for model in models)
    names = {c.name for c in result.verification.checks}
    assert ("diagonal_dense_agreement" in names) == bool(count)


def _patch_every_binding(monkeypatch, name: str, replacement) -> None:
    """Replace the hermitian-module function `name` in every isodilation
    module that binds it."""
    original = getattr(hermitian_module, name)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("isodilation") and (
            getattr(mod, name, None) is original
        ):
            monkeypatch.setattr(mod, name, replacement)


# callers of a `Block`'s dense product `dense_product` on dense inputs.
# Every product with the dense corner, U, the metric root and the defect
# form is dense on both, and so is every eigenbasis of the defect forms
# (`decompose`).  The normal dense-3concave example has a representer A
# that is diagonal in the metric's eigenbasis, so A's eigenbasis is a
# permutation, and its weights and B are real diagonal and multiply as
# monomials; a non-normal input also takes the dense product for A's
# eigenbasis (`_clamp_nonpositive`, `build_weights`), the cumulative moduli
# (`_cumulative_moduli`) and B^2 (`verify_run`'s `b_square`).  The diagonal
# cross-check (shift runs only) and the reference dilation's products
# (m = 2 only) are not reached.
_NORMAL_FALLBACK_SITES = {
    "defect_step", "build_three_concave_model", "_construct",
    "decompose", "check_dilation_property", "orbit_grams",
}
_DENSE_FALLBACK_SITES = _NORMAL_FALLBACK_SITES | {
    "_clamp_nonpositive", "build_weights", "_cumulative_moduli", "verify_run",
}


def _product_site(frame) -> str:
    """The function that asked for a product: the first caller outside the
    `Block` methods, the corner products that delegate to them and
    comprehensions."""
    operators_file = sys.modules["isodilation.operators"].__file__
    while (
        frame.f_code.co_filename == hermitian_module.__file__
        or frame.f_code.co_name.startswith("<")
        or (
            frame.f_code.co_filename == operators_file
            and frame.f_code.co_name in ("dot", "adjoint_dot", "congruence")
        )
    ):
        frame = frame.f_back
    return frame.f_code.co_name


def _dense_input(name: str):
    if name == "dense-3concave":
        examples = Path(__file__).resolve().parent.parent / "spec-examples"
        return parse_spec((examples / "dense-3concave.json").read_text())
    t = [[0.2, 0.3, 0.0], [0.0, -0.1, 0.25], [0.1, 0.0, 0.15j]]
    entries = [[[complex(z).real, complex(z).imag] for z in row] for row in t]
    return spec_from_dict({
        "schema_version": 1,
        "operator": {"kind": "dense", "entries": entries},
        "m": 3,
        "truncation": {"n_blocks": 6},
    })


def _dense_branch_calls(monkeypatch, name: str) -> tuple[dict, set]:
    """Run a dense input; count its Gram-Schmidt ranks and dense eigenbasis
    products (`Block.outer` on a refused block), and record the callers of
    the dense fallback."""
    calls = {"gram_schmidt": 0, "dense_outer": 0}
    fallback_sites = set()
    gram_schmidt = verifier._gram_schmidt_rank
    dense_product = hermitian_module.dense_product

    def counting_gram_schmidt(*args):
        calls["gram_schmidt"] += 1
        return gram_schmidt(*args)

    def recording_dense_product(a, b):
        caller = sys._getframe(1)
        calls["dense_outer"] += caller.f_code is Block.outer.__code__
        fallback_sites.add(_product_site(caller))
        return dense_product(a, b)

    monkeypatch.setattr(verifier, "_gram_schmidt_rank", counting_gram_schmidt)
    _patch_every_binding(monkeypatch, "dense_product", recording_dense_product)
    result = run_pipeline(_dense_input(name))
    assert result.overall and result.path == "three_concave"
    return calls, fallback_sites


class TestStructurePaths:
    """On a shift corner every orbit block has disjoint column supports,
    every eigenbasis is a permutation, U and the powers of T are real
    monomial matrices and the weights real diagonal, so the rank kernel's
    Gram-Schmidt, the dense eigenbasis products and every dense fallback
    of a structure path never run; a dense input takes them all.  A change
    that sends the shift path back to dense work fails here."""

    def test_shift_run_takes_no_dense_branch(self, monkeypatch):
        def banned(*args, **kwargs):
            raise AssertionError("dense branch used")

        monkeypatch.setattr(verifier, "_gram_schmidt_rank", banned)
        _patch_every_binding(monkeypatch, "dense_product", banned)
        # the strict-2concave demo is the N = 48 spec of the shift-m2 workload
        result = run_pipeline(demo_spec("strict-2concave"))
        assert result.overall, [c.name for c in result.verification.checks if not c.passed]
        names = {c.name for c in result.verification.checks}
        assert {"minimality", "badea_minimality", "diagonal_dense_agreement"} <= names

    def test_dense_run_takes_both_dense_branches(self, monkeypatch):
        calls, sites = _dense_branch_calls(monkeypatch, "dense-3concave")
        assert calls["gram_schmidt"] > 0 and calls["dense_outer"] > 0
        assert sites == _NORMAL_FALLBACK_SITES

    def test_non_normal_run_takes_every_fallback(self, monkeypatch):
        calls, sites = _dense_branch_calls(monkeypatch, "non-normal")
        assert calls["gram_schmidt"] > 0 and calls["dense_outer"] > 0
        assert sites == _DENSE_FALLBACK_SITES

    def test_structure_is_read_per_stored_object(self, monkeypatch):
        # lint: a shift run makes every block with its structure, the
        # corner and its leading blocks too, so the one reader never runs,
        # while the run still asks for products; reading on every `@` was
        # measured slower than the products it saves
        reads = {"real_monomial": 0}
        reader = hermitian_module.real_monomial

        def counting(x):
            reads["real_monomial"] += 1
            return reader(x)

        _patch_every_binding(monkeypatch, "real_monomial", counting)
        # the products asked of a `Block` from outside the hermitian module
        products = {"count": 0}
        for name in ("dot", "adjoint_dot", "congruence", "then"):
            monkeypatch.setattr(Block, name, self._counted(getattr(Block, name), products))
        # the largest spec of the shift-m2 workload
        spec = {**DEMOS["strict-2concave"], "truncation": {"N": 192, "n_blocks": 6}}
        result = run_pipeline(spec_from_dict(spec))
        assert result.overall and result.model.dim_h == 190
        assert reads["real_monomial"] == 0, reads
        assert products["count"] > 0, products

    @staticmethod
    def _counted(method, counts):
        def counting(self, *args):
            counts["count"] += sys._getframe(1).f_code.co_filename != hermitian_module.__file__
            return method(self, *args)

        return counting

    def test_no_array_has_its_structure_read_twice(self, monkeypatch):
        # a dense input's blocks are read, each once (twelve on this
        # input): the corner, each eigenbasis, U and the weight stack
        reads: dict = {}
        reader = hermitian_module.real_monomial

        def counting(x):
            key = (x.shape, np.ascontiguousarray(x).tobytes())
            reads[key] = reads.get(key, 0) + 1
            return reader(x)

        _patch_every_binding(monkeypatch, "real_monomial", counting)
        result = run_pipeline(_dense_input("non-normal"))
        assert result.overall
        assert max(reads.values()) == 1, sorted(reads.values())
