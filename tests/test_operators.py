"""Corner construction, defect forms, exact windows, classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isodilation.errors import WeightRuleError, WindowExhaustedError
from isodilation.hermitian import Block, max_abs, real_monomial
from isodilation.operators import (
    DefectForms,
    OperatorCorner,
    WeightRule,
    classify,
    defect_form,
    dense_corner,
    make_shift_corner,
)
from isodilation.specfile import RULE_PARAMS

RULES = st.one_of(
    st.just(WeightRule.dirichlet()),
    st.floats(0.55, 1.9).map(WeightRule.constant),
    st.floats(0.05, 0.95).map(WeightRule.geometric_concave),
    st.tuples(
        st.lists(st.floats(0.5, 2.0), min_size=1, max_size=6),
        st.floats(0.5, 2.0),
    ).map(lambda tv: WeightRule.table(tv[0], tv[1])),
)


class TestWeightRule:
    def test_dirichlet_squares(self):
        rule = WeightRule.dirichlet()
        assert rule.weight_sq(1) == pytest.approx(2.0)
        assert rule.weight_sq(2) == pytest.approx(1.5)

    def test_geometric(self):
        rule = WeightRule.geometric_concave(0.5)
        assert rule.weight_sq(1) == pytest.approx(1.5)
        assert rule.weight_sq(2) == pytest.approx(1.25)

    def test_table_with_tail(self):
        rule = WeightRule.table([2.0, 3.0], 1.0)
        assert rule.weight(1) == 2.0
        assert rule.weight(2) == 3.0
        assert rule.weight(9) == 1.0

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: WeightRule.constant(0.0),
            lambda: WeightRule.constant(-1.0),
            lambda: WeightRule.geometric_concave(0.0),
            lambda: WeightRule.geometric_concave(1.0),
            lambda: WeightRule.geometric_concave(1.5),
            lambda: WeightRule.table([], 1.0),
            lambda: WeightRule.table([1.0, -2.0], 1.0),
            lambda: WeightRule.table([1.0], 0.0),
            lambda: WeightRule("no-such-rule"),
        ],
    )
    def test_invalid_parameters(self, bad):
        with pytest.raises(WeightRuleError):
            bad()


# one rule of every kind in the catalog
RULE_EXAMPLES = {
    "constant": WeightRule.constant(1.3),
    "dirichlet": WeightRule.dirichlet(),
    "geometric_concave": WeightRule.geometric_concave(0.5),
    "table": WeightRule.table([1.2, 0.8, 1.5], 1.1),
}


class TestShiftCorner:
    def test_unweighted(self):
        corner = make_shift_corner(WeightRule.constant(1.0), 3)
        assert np.allclose(corner.matrix, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert corner.exact and corner.lower_band == 1 and corner.upper_band == 0

    def test_dirichlet_subdiagonal(self):
        corner = make_shift_corner(WeightRule.dirichlet(), 3)
        sub = np.diagonal(corner.matrix, -1).real
        assert sub == pytest.approx([math.sqrt(2), math.sqrt(1.5)])

    def test_geometric_subdiagonal(self):
        corner = make_shift_corner(WeightRule.geometric_concave(0.5), 3)
        sub = np.diagonal(corner.matrix, -1).real
        assert sub == pytest.approx([math.sqrt(1.5), math.sqrt(1.25)])

    def test_needs_two_dims(self):
        with pytest.raises(ValueError):
            make_shift_corner(WeightRule.dirichlet(), 1)

    def test_band_violation_detected(self):
        # diagonal inside a (0, 0) band is fine
        OperatorCorner(np.eye(2, dtype=np.complex128), 0, 0, True)
        with pytest.raises(ValueError):
            OperatorCorner(np.tril(np.ones((3, 3), dtype=np.complex128)), 1, 0, True)

    @staticmethod
    def _loop_built(rule, n):
        """The dense corner as it was built before the monomial: a complex
        zero matrix with w_j written at (j, j - 1)."""
        mat = np.zeros((n, n), dtype=np.complex128)
        for j in range(1, n):
            mat[j, j - 1] = rule.weight(j)
        return mat

    @pytest.mark.parametrize("n", [2, 3, 48])
    @pytest.mark.parametrize("kind", sorted(RULE_EXAMPLES))
    def test_monomial_corner_is_the_loop_built_matrix(self, kind, n):
        rule = RULE_EXAMPLES[kind]
        corner = make_shift_corner(rule, n)
        assert "mat" not in vars(corner.block)
        ref = self._loop_built(rule, n)
        assert corner.matrix.dtype == ref.dtype and corner.matrix.shape == ref.shape
        assert np.array_equal(corner.matrix.view(np.uint64), ref.view(np.uint64))
        # its structure is the one the reader finds in the dense matrix
        cols, vals = real_monomial(ref)
        assert np.array_equal(corner.block.mono[0], cols)
        assert np.array_equal(corner.block.mono[1].view(np.uint64), vals.view(np.uint64))

    @pytest.mark.parametrize("kind", sorted(RULE_EXAMPLES))
    def test_leading_block_is_the_dense_slice(self, kind):
        corner = make_shift_corner(RULE_EXAMPLES[kind], 12)
        ref = self._loop_built(RULE_EXAMPLES[kind], 12)
        for k in range(1, 13):
            lead = corner.leading(k)
            assert lead.n == k and lead.rule is corner.rule
            assert (lead.lower_band, lead.upper_band, lead.exact) == (1, 0, True)
            assert np.array_equal(lead.matrix.view(np.uint64), ref[:k, :k].view(np.uint64))
            assert lead is corner.leading(k)
        assert corner.leading(12) is corner

    def test_leading_block_drops_entries_past_its_columns(self):
        # an upper shift's leading block loses the entry in column k of its
        # last row, which becomes an empty row
        mono = Block.monomial((4, 4), np.array([1, 2, 3, 0]), np.array([1.5, 2.5, 3.5, 0.0]))
        corner = OperatorCorner(mono, 0, 1, True)
        for k in range(1, 5):
            lead = corner.leading(k)
            assert np.array_equal(lead.matrix, corner.matrix[:k, :k])
        assert list(corner.leading(2).block.mono[0]) == [1, 0]

    def test_monomial_band_violation_raises_the_dense_error(self):
        cols, vals = np.array([0, 0, 0]), np.array([0.0, 1.0, 2.0])
        dense = Block.monomial((3, 3), cols, vals).mat.copy()
        with pytest.raises(ValueError) as dense_error:
            OperatorCorner(dense, 1, 0, True)
        with pytest.raises(ValueError) as mono_error:
            OperatorCorner(Block.monomial((3, 3), cols, vals), 1, 0, True)
        assert str(mono_error.value) == str(dense_error.value)
        assert str(mono_error.value) == "entry (2,0) = (2+0j) lies outside the declared band"
        # inside a wider band both are fine
        OperatorCorner(Block.monomial((3, 3), cols, vals), 2, 0, True)

    def test_matrix_is_read_only(self):
        corner = make_shift_corner(WeightRule.dirichlet(), 5)
        for t in (corner, corner.leading(3), dense_corner(np.eye(3))):
            with pytest.raises(ValueError):
                t.matrix[1, 0] = 7.0


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _kernel_and_dense(t, rng):
    """(kernel, dense) pairs of T x, T* x and T* g T on vectors and blocks."""
    n, mat = t.n, t.matrix
    pairs = []
    for shape in ((n,), (n, 1), (n, 7), (n, n)):
        x = _complex(rng, shape)
        pairs.append((t.dot(x), mat @ x))
        pairs.append((t.adjoint_dot(x), mat.conj().T @ x))
    g = _complex(rng, (n, n))
    pairs.append((t.congruence(g), mat.conj().T @ g @ mat))
    return pairs


def _same_values(got, ref):
    """Equal entry by entry to the last bit, except that the sign of a zero
    is not checked (-0.0 == 0.0): BLAS can leave -0.0 in an entry whose
    terms are all zero, where the kernel writes 0.0."""
    return got.shape == ref.shape and np.array_equal(got, ref)


class TestBandKernel:
    def test_examples_cover_every_rule(self):
        assert sorted(RULE_EXAMPLES) == sorted(RULE_PARAMS)

    @pytest.mark.parametrize("kind", sorted(RULE_EXAMPLES))
    def test_shift_corner_matches_dense(self, kind):
        # the corner's block is a real monomial whose one diagonal is a run
        t = make_shift_corner(RULE_EXAMPLES[kind], 23)
        rows, cols, _ = t.block._entries
        assert (rows, cols) == (slice(1, 23), slice(0, 22))
        for got, ref in _kernel_and_dense(t, np.random.default_rng(1)):
            assert _same_values(got, ref)

    def test_diagonal_corner_matches_dense(self):
        t = dense_corner(np.diag(np.linspace(-1.5, 2.0, 9)))
        rows, cols, _ = t.block._entries
        assert (rows, cols) == (slice(0, 9), slice(0, 9))
        for got, ref in _kernel_and_dense(t, np.random.default_rng(2)):
            assert _same_values(got, ref)

    def test_fortran_ordered_entries_read_like_their_c_ordered_copy(self):
        m = np.asfortranarray(_complex(np.random.default_rng(8), (5, 5)))
        t = dense_corner(m)
        assert t.matrix.flags.c_contiguous
        assert np.array_equal(t.matrix, dense_corner(np.ascontiguousarray(m)).matrix)

    def test_zero_corner_reads_as_a_monomial(self):
        # the zero corner, dense before the block type, is the monomial
        # with no nonzero: every product is +0.0
        t = dense_corner(np.zeros((3, 3)))
        assert t.block.mono is not None
        for got, ref in _kernel_and_dense(t, np.random.default_rng(7)):
            assert _same_values(got, ref)
            assert not np.any(np.signbit(got.view(np.float64)))

    @pytest.mark.parametrize(
        "entries",
        [
            _complex(np.random.default_rng(6), (8, 8)),
            [[0.6 - 0.7j]],
            np.diag([0.5j, 1.0, 2.0], -1),
            np.diag([1.0, 2.0, 3.0]) + np.diag([0.5, 0.25], -1),
            np.diag([1.0, 2.0, 3.0], 1) + np.diag([0.5, 0.25, 0.125], -1),
        ],
        ids=["dense", "complex-scalar", "complex-shift", "bidiagonal", "two-apart"],
    )
    def test_other_corners_take_dense_branch(self, monkeypatch, entries):
        # the slices serve a real monomial; anything else is the dense product
        def banned(*args, **kwargs):
            raise AssertionError("monomial product used")

        monkeypatch.setattr(Block, "_scatter", banned)
        t = dense_corner(entries)
        assert t.block.mono is None
        for got, ref in _kernel_and_dense(t, np.random.default_rng(7)):
            assert _same_values(got, ref)


class TestDefectForm:
    def test_identity_is_isometric(self):
        t = dense_corner(np.eye(3))
        beta = defect_form(t, 2)
        assert max_abs(beta.mat) == 0.0
        assert t.window_after(2) == 3

    def test_scalar_closed_form(self):
        t = dense_corner([[1 / math.sqrt(2)]])
        beta = defect_form(t, 3)
        assert beta.mat[0, 0].real == pytest.approx(-0.125, abs=1e-15)

    def test_dirichlet_vanishes_on_window(self):
        corner = make_shift_corner(WeightRule.dirichlet(), 6)
        beta = defect_form(corner, 2)
        assert corner.window_after(2) == 4
        assert max_abs(beta.mat[:4, :4]) < 1e-13

    def test_geometric_closed_form_diagonal(self):
        corner = make_shift_corner(WeightRule.geometric_concave(0.5), 12)
        beta = defect_form(corner, 2)
        w = corner.window_after(2)
        expected = np.array(
            [-(2.0 ** -(n + 2)) * (1 - 2.0 ** -(n + 1)) for n in range(w)]
        )
        assert np.max(np.abs(np.diagonal(beta.mat)[:w].real - expected)) < 1e-12

    def test_window_exhausted(self):
        corner = make_shift_corner(WeightRule.dirichlet(), 4)
        with pytest.raises(WindowExhaustedError):
            defect_form(corner, 4)
        forms = DefectForms(corner)
        forms.full(3)
        with pytest.raises(WindowExhaustedError):
            forms.full(4)

    @pytest.mark.parametrize(
        "corner",
        [
            make_shift_corner(WeightRule.geometric_concave(0.5), 12),
            dense_corner([[0.3, 0.2j], [0.1, -0.9]]),
            dense_corner([[1.3433962645066637]]),
        ],
        ids=["shift", "dense", "scalar"],
    )
    def test_shared_chain_gives_the_same_bits(self, corner):
        # full(k) steps from full(k - 1); defect_form steps from I
        forms = DefectForms(corner)
        for k in (1, 3, 2, 4):
            assert np.array_equal(forms.full(k).mat, defect_form(corner, k).mat)

    @settings(max_examples=30, deadline=None)
    @given(rule=RULES, m=st.integers(1, 4), n=st.integers(10, 20))
    def test_recurrence_identity(self, rule, m, n):
        # beta_m = T* beta_{m-1} T - beta_{m-1} on the shared exact window
        corner = make_shift_corner(rule, n)
        beta_m = defect_form(corner, m + 1)
        beta_prev = defect_form(corner, m)
        t = corner.matrix
        recur = t.conj().T @ beta_prev.mat @ t - beta_prev.mat
        w = corner.window_after(m + 1)
        assert max_abs(beta_m.mat[:w, :w] - recur[:w, :w]) <= 1e-11 * (
            1 + max_abs(beta_m.mat)
        )

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(-1.4, 1.4), m=st.integers(1, 5))
    def test_scalar_power_formula(self, t, m):
        beta = defect_form(dense_corner([[t]]), m)
        expected = (t * t - 1.0) ** m
        assert abs(beta.mat[0, 0].real - expected) <= 1e-14 * (1 + abs(expected))

    @settings(max_examples=25, deadline=None)
    @given(rule=RULES, m=st.integers(1, 3), n=st.integers(8, 14))
    def test_shift_defect_is_diagonal(self, rule, m, n):
        corner = make_shift_corner(rule, n)
        beta = defect_form(corner, m)
        w = corner.window_after(m)
        off = beta.mat[:w, :w] - np.diag(np.diagonal(beta.mat[:w, :w]))
        assert max_abs(off) <= 1e-13 * (1 + max_abs(beta.mat))

    @settings(max_examples=20, deadline=None)
    @given(rule=RULES, m=st.integers(1, 3), n=st.integers(8, 12))
    def test_window_consistency_under_enlargement(self, rule, m, n):
        small_corner = make_shift_corner(rule, n)
        small = defect_form(small_corner, m)
        large = defect_form(make_shift_corner(rule, 2 * n), m)
        w = small_corner.window_after(m)
        assert max_abs(small.mat[:w, :w] - large.mat[:w, :w]) <= 1e-13 * (
            1 + max_abs(large.mat)
        )


class TestClassify:
    def test_unweighted_shift_is_isometry(self):
        corner = make_shift_corner(WeightRule.constant(1.0), 10)
        cls = classify(DefectForms(corner), 2)
        assert cls.expansive.ok and cls.m_concave.ok and cls.m_isometric.ok

    def test_geometric_strictly_concave(self):
        corner = make_shift_corner(WeightRule.geometric_concave(0.5), 16)
        cls = classify(DefectForms(corner), 2)
        assert cls.expansive.ok
        assert cls.m_concave.ok
        assert not cls.m_isometric.ok
        assert cls.m_isometric.residual == pytest.approx(0.125, abs=1e-13)

    def test_scalar_three_concave(self):
        cls = classify(DefectForms(dense_corner([[1 / math.sqrt(2)]])), 3)
        assert not cls.expansive.ok
        assert cls.m_concave.ok
        assert cls.delta_psd.ok
        assert cls.delta_psd.residual == pytest.approx(0.25, abs=1e-14)

    def test_isometric_implies_concave(self):
        corner = make_shift_corner(WeightRule.dirichlet(), 16)
        cls = classify(DefectForms(corner), 2)
        assert cls.m_isometric.ok and cls.m_concave.ok

    def test_finite_expansive_nonunitary_is_never_concave(self):
        # documented consequence: a finite-dimensional operator that is
        # expansive and m-concave must be unitary
        for entries in ([[math.sqrt(2)]], np.diag([1.2, 1.0]), np.diag([1.5, 1.1, 1.0])):
            cls = classify(DefectForms(dense_corner(entries)), 2)
            assert cls.expansive.ok
            assert not cls.m_concave.ok

    def test_unitary_is_everything(self):
        f = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        cls = classify(DefectForms(dense_corner(f)), 2)
        assert cls.expansive.ok and cls.m_concave.ok and cls.m_isometric.ok
