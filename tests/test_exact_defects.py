"""Exact oracle for the defect forms, deterministic and in exact arithmetic.

Every float is a dyadic rational, so the binomial definition

    beta_m(n) = sum_k (-1)^(m-k) C(m, k) a_n a_(n+1) ... a_(n+k-1)

evaluates exactly in `fractions.Fraction` on the float inputs: for a shift,
a_n = w_(n+1)^2 is the float squared weight (`defect_diagonal`) or the
square of the stored float weight (`defect_form` on a shift corner); for a
1x1 corner [t], a = |t|^2 at every index and beta_m = (a - 1)^m.

The recursion computes b_k(n) = fl(P - b_(k-1)(n)), where P is the
computed product of a_n with b_(k-1)(n+1), rounded p times, so that
|P - a_n b_(k-1)(n+1)| <= gamma_p a_n |b_(k-1)(n+1)|, gamma_p = p u / (1 - p u),
u = 2^-53.  With e_k(n) = |b_k(n) - beta_k(n)|, e_0 = 0 and
|b_(k-1)| <= |beta_(k-1)| + e_(k-1), the last subtraction gives

    (1 - gamma_1) e_k(n) <= a_n e_(k-1)(n+1) + e_(k-1)(n)
                            + gamma_p a_n (|beta_(k-1)(n+1)| + e_(k-1)(n+1))
                            + gamma_1 |beta_k(n)|.

On a 1x1 corner the two previous entries are one number, so the first two
terms combine to |a - 1| e_(k-1).  The roundings per product are p = 1
for `defect_diagonal` (the float a_n times the entry), p = 2 on a shift
corner (w times the entry, then times w again) and p = 3 on a 1x1 corner
(t-bar g, then times t: two products and a sum in the real part).  The
bound is computed exactly from the exact forms; the tests check the
float forms against it with no slack.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from isodilation.builder import build_three_concave_model
from isodilation.diagonal import defect_diagonal
from isodilation.operators import WeightRule, defect_form, dense_corner, make_shift_corner

U = Fraction(1, 2**53)
N = 64
ORDERS = range(1, 6)

RULES = {
    "constant-1": WeightRule.constant(1.0),
    "constant-0.9": WeightRule.constant(0.9),
    "constant-1.1": WeightRule.constant(1.1),
    "dirichlet": WeightRule.dirichlet(),
    "geometric-0.5": WeightRule.geometric_concave(0.5),
    "geometric-0.97": WeightRule.geometric_concave(0.97),
    "table": WeightRule.table([1.7, 1.3, 1.2, 1.12, 1.08, 1.05, 1.03], 1.01),
}

# draws of the test's range on which the alternating binomial sum missed
# 1e-14 (1 + |expected|) at m = 5, a near-unitary complex scalar whose
# exact 3-defect is about -8.7e-18, and a deterministic grid of [-1.4, 1.4]
NEAR_UNITARY = math.sqrt(1 - 2.0571702694423545e-06) * cmath.exp(1j * 5.735012432197602)
SCALARS = [1.3477, 1.3742, 1.3710408658883209, 1.3433962645066637, NEAR_UNITARY]
SCALARS += [float(x) for x in np.linspace(-1.4, 1.4, 57)]
SCALARS += [0.8 * cmath.exp(0.3j), 1.2 * cmath.exp(2.0j), 1j]


def _gamma(p: int) -> Fraction:
    return p * U / (1 - p * U)


def _exact_shift_forms(a: list, m: int) -> list:
    """beta_k(n), k = 0..m, by the binomial definition; beta_k has
    len(a) + 1 - k entries."""
    forms = []
    for k in range(m + 1):
        row = []
        for n in range(len(a) + 1 - k):
            acc, prod = Fraction(0), Fraction(1)
            for j in range(k + 1):
                if j:
                    prod *= a[n + j - 1]
                acc += (-1) ** (k - j) * math.comb(k, j) * prod
            row.append(acc)
        forms.append(row)
    return forms


def _shift_bound(a: list, forms: list, p: int) -> list:
    """The forward-error bound e_m(n) of the module docstring."""
    g1, gp = _gamma(1), _gamma(p)
    err = [Fraction(0)] * len(forms[0])
    for k in range(1, len(forms)):
        prev = forms[k - 1]
        err = [
            (a[n] * err[n + 1] + err[n] + gp * a[n] * (abs(prev[n + 1]) + err[n + 1])
             + g1 * abs(forms[k][n])) / (1 - g1)
            for n in range(len(forms[k]))
        ]
    return err


def _scalar_bound(a: Fraction, m: int, p: int = 3) -> Fraction:
    g1, gp = _gamma(1), _gamma(p)
    err = Fraction(0)
    for k in range(1, m + 1):
        prev = abs(a - 1) ** (k - 1)
        err = (abs(a - 1) * err + gp * a * (prev + err) + g1 * abs(a - 1) ** k) / (1 - g1)
    return err


def _abs_sq(z: complex) -> Fraction:
    return Fraction(z.real) ** 2 + Fraction(z.imag) ** 2


@pytest.mark.parametrize("m", ORDERS)
@pytest.mark.parametrize("name", sorted(RULES))
def test_defect_diagonal_within_forward_error_bound(name, m):
    rule = RULES[name]
    a = [Fraction(rule.weight_sq(j)) for j in range(1, N + m)]
    forms = _exact_shift_forms(a, m)
    bound = _shift_bound(a, forms, p=1)
    got = defect_diagonal(rule, m, N)
    for n in range(N):
        assert abs(Fraction(float(got[n])) - forms[m][n]) <= bound[n], (n, float(got[n]))


@pytest.mark.parametrize("m", ORDERS)
@pytest.mark.parametrize("name", sorted(RULES))
def test_shift_defect_form_within_forward_error_bound(name, m):
    corner = make_shift_corner(RULES[name], N)
    w = corner.window_after(m)
    a = [Fraction(float(corner.matrix[j, j - 1].real)) ** 2 for j in range(1, N)]
    forms = _exact_shift_forms(a, m)
    bound = _shift_bound(a, forms, p=2)
    got = defect_form(corner, m).mat
    assert not np.any(got[:w, :w] - np.diag(np.diagonal(got[:w, :w])))
    for n in range(w):
        assert got[n, n].imag == 0.0
        assert abs(Fraction(float(got[n, n].real)) - forms[m][n]) <= bound[n], n


@pytest.mark.parametrize("m", ORDERS)
def test_scalar_defect_form_within_forward_error_bound(m):
    for t in SCALARS:
        a = _abs_sq(complex(t))
        got = defect_form(dense_corner([[t]]), m).mat[0, 0]
        assert got.imag == 0.0
        assert abs(Fraction(float(got.real)) - (a - 1) ** m) <= _scalar_bound(a, m), t


def test_near_unitary_scalar_builds_the_three_concave_dilation():
    """|t|^2 = 1 - 2.057e-6: the exact 3-defect (|t|^2 - 1)^3 is negative,
    so the 3-concave representer |t|^2 (|t|^2 - 1) is <= 0 and the
    construction exists; a 3-defect with the wrong sign, as the
    alternating sum computed it, makes the representer gate refuse it."""
    t = dense_corner([[NEAR_UNITARY]])
    a = _abs_sq(NEAR_UNITARY)
    beta3 = defect_form(t, 3).mat[0, 0].real
    assert abs(Fraction(beta3) - (a - 1) ** 3) <= _scalar_bound(a, 3)
    assert beta3 < 0.0
    model, weights = build_three_concave_model(t, 6)
    assert model.a.n == 1 and model.a.mat[0, 0].real <= 0.0
    assert weights.mat.shape == (6, 1, 1)
