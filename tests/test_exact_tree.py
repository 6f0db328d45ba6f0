"""Exact oracle: a shift's dilation is a weighted shift on a directed tree.

For a scalar shift the general-path dilation W = [T; U; S_1; S_2; ...] is a
weighted shift on a rooted directed tree (Jablonski, Jung and Stochel,
*Weighted shifts on directed trees*, Mem. AMS 216, no. 1017, 2012).  The
trunk vertex e_n has two children: e_(n+1), with weight w_(n+1), and the
branch vertex (1, n) of block 1, with weight q_n^(1/2).  The branch vertex
(k, n) of block k has one child, (k+1, n), with weight S_k(n).  The
children sets are disjoint, so W*^j W^j is diagonal in the vertex basis
and the m-isometry of W is one scalar identity per vertex.

With pi_n = |T^n e_0|^2 = w_1^2 ... w_n^2, the least metric
q_n = q_0 / pi_n (q_0 = beta_(m-1)(0)), A_n = beta_m(n) / q_n,
p_k(n) = 1 - C(k, m-1) A_n and S_k(n)^2 = p_k(n) / p_(k-1)(n):

    |W^j e_n|^2     = pi_(n+j)/pi_n + (q_0/pi_n) sum_(i<j) p_(j-i-1)(n+i),
    |W^j e_(k,n)|^2 = p_(k-1+j)(n) / p_(k-1)(n).

Every term is rational in the squared weights, and every float is a dyadic
rational, so `fractions.Fraction` evaluates them exactly.  The operator is
the corner's float weights, `Fraction(w_j)**2`, not the rule's `weight_sq`.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from isodilation import demo_spec, run_pipeline, spec_from_dict
from isodilation.operators import make_shift_corner
from isodilation.tolerances import DEFAULT_TOLERANCES
from test_exact_defects import _exact_shift_forms

TRUNK = {"strict-2concave": 40, "dirichlet-2iso": 40, "deep-table": 30}
BRANCH = 8


def _deep_table(c: float, count: int) -> list[float]:
    """Weights whose norm sequence is f(k) = (k+1)^2 - c sqrt(k+1):
    expansive and 3-concave, since sqrt has a positive third derivative."""
    f = [(k + 1) ** 2 - c * math.sqrt(k + 1) for k in range(count + 1)]
    return [math.sqrt(f[k] / f[k - 1]) for k in range(1, count + 1)]


def _spec(name: str):
    """A shift demo, or the deep table rule at c = 0.5 with the sizes of the
    smallest `shift-m3-deep` benchmark spec."""
    if name != "deep-table":
        return demo_spec(name)
    return spec_from_dict({
        "schema_version": 1,
        "operator": {
            "kind": "shift",
            "rule": {"name": "table", "values": _deep_table(0.5, 4 * 48 + 16), "tail_value": 1.0},
        },
        "m": 3,
        "truncation": {"N": 48, "n_blocks": 24},
    })


class Tree:
    """The exact tree of a dilation of a shift, given its squared weights
    w2[j - 1] = w_j^2 and the order m: by default the general path's, with
    the least metric and A_n = beta_m(n) / q_n; `metric` and `representer`
    replace them (the reference dilation's)."""

    def __init__(self, w2: list, m: int, metric: list | None = None, representer: list | None = None):
        self.m = m
        self.pi = [Fraction(1)]
        for a in w2:
            self.pi.append(self.pi[-1] * a)
        forms = _exact_shift_forms(w2, m)
        self.q = metric if metric is not None else [forms[m - 1][0] / p for p in self.pi]
        if representer is None:
            representer = [b / q for b, q in zip(forms[m], self.q)]
        self.a = representer

    def p(self, k: int, n: int) -> Fraction:
        return 1 - math.comb(k, self.m - 1) * self.a[n]

    def trunk_norm(self, j: int, n: int) -> Fraction:
        """|W^j e_n|^2, summed over the trunk path and each branch it
        leaves, for any metric q_n."""
        pi = self.pi
        branches = sum(pi[n + i] * self.q[n + i] * self.p(j - i - 1, n + i) for i in range(j))
        return (pi[n + j] + branches) / pi[n]

    def branch_norm(self, j: int, k: int, n: int) -> Fraction:
        return self.p(k - 1 + j, n) / self.p(k - 1, n)

    def defect(self, norms) -> Fraction:
        """sum_j (-1)^(m-j) C(m, j) |W^j x|^2 of one vertex x."""
        m = self.m
        return sum((-1) ** (m - j) * math.comb(m, j) * norms(j) for j in range(m + 1))


def _float_tree(spec) -> Tree:
    """The tree of the operator the pipeline builds: the corner's float
    weights."""
    corner = make_shift_corner(spec.rule, spec.n)
    w2 = [Fraction(float(corner.matrix[j, j - 1].real)) ** 2 for j in range(1, corner.n)]
    return Tree(w2, spec.m)


@pytest.mark.parametrize("name", sorted(TRUNK))
def test_m_isometry_defect_is_exactly_zero(name):
    spec = _spec(name)
    m, tree = spec.m, _float_tree(spec)
    q0 = tree.q[0]
    for n in range(TRUNK[name]):
        assert tree.q[n] > 0
        # the path sum is the closed form, with q_n = q_0 / pi_n
        for j in range(m + 1):
            closed = tree.pi[n + j] / tree.pi[n] + q0 / tree.pi[n] * sum(
                tree.p(j - i - 1, n + i) for i in range(j)
            )
            assert tree.trunk_norm(j, n) == closed
        assert tree.defect(lambda j: tree.trunk_norm(j, n)) == 0, n
        for k in range(1, BRANCH + 1):
            assert tree.defect(lambda j: tree.branch_norm(j, k, n)) == 0, (k, n)


@pytest.mark.parametrize("name", sorted(TRUNK))
def test_float_blocks_against_the_exact_tree(name):
    """The pipeline's U, A and S_1..S_8 on the window, read in window
    coordinates, against q_n, A_n and S_k(n)^2.  Largest differences
    measured: 3.6e-16 (U^2), 2.9e-13 (A) and 2.0e-12 (S_k^2, deep table,
    growing with C(k, m-1)); the bound is `agreement_tol`, the tolerance of
    the runtime diagonal cross-check."""
    spec = _spec(name)
    result, tree = run_pipeline(spec), _float_tree(spec)
    model, weights = result.model, result.assembled.weights.mat

    def window_diagonal(x):  # an H'-operator in window coordinates
        return np.diagonal(model.compression.congruence(x)).real

    u = np.diagonal(model.compression.adjoint_dot(model.u.mat)).real
    blocks = [(u**2, tree.q), (window_diagonal(model.a.mat), tree.a)]
    for k in range(1, BRANCH + 1):
        exact = [tree.p(k, n) / tree.p(k - 1, n) for n in range(model.dim_h)]
        blocks.append((window_diagonal(weights[k - 1]) ** 2, exact))
    for got, exact in blocks:
        worst = max(abs(Fraction(float(got[n])) - exact[n]) for n in range(model.dim_h))
        assert worst <= Fraction(DEFAULT_TOLERANCES.agreement_tol)


def _reference_tree(w2: list) -> Tree:
    """The m = 2 identity-weight reference: metric q - beta_1 and A = 0."""
    q = Tree(w2, 2).q
    beta_1 = _exact_shift_forms(w2, 1)[1]
    return Tree(w2, 2, [a - b for a, b in zip(q, beta_1)], [Fraction(0)] * len(beta_1))


def _gap_at_e0(w2: list) -> Fraction:
    """G_1 - G'_1 at e_0: |W e_0|^2 of the general dilation less that of
    the reference."""
    return Tree(w2, 2).trunk_norm(1, 0) - _reference_tree(w2).trunk_norm(1, 0)


def test_strict_two_concave_gap_at_e0():
    # on the rule's squared weights (w_1^2 = 1 + 1/2) the gap is beta_1(0)
    rule = demo_spec("strict-2concave").rule
    assert _gap_at_e0([Fraction(rule.weight_sq(j)) for j in range(1, 8)]) == Fraction(1, 2)
    # on the corner's float weights it is Fraction(w_1)^2 - 1: w_1 is
    # sqrt(3/2) rounded once, |delta| <= 2^-53 sqrt(3/2), so w_1^2 is within
    # 2 sqrt(3/2) 2^-53 + 2^-106 < 3 * 2^-53 of 3/2 (2.7e-16 below it).
    # The report's residual, 0.5000000000000002, reads 4.9e-16 above the
    # exact gap: its metric comes from the rule's w_1^2 = 3/2, its Grams
    # from the corner's float w_1, each with a few roundings of order 1
    corner = make_shift_corner(rule, 8)
    w2 = [Fraction(float(corner.matrix[j, j - 1].real)) ** 2 for j in range(1, 8)]
    gap = _gap_at_e0(w2)
    assert gap == w2[0] - 1
    assert abs(gap - Fraction(1, 2)) <= 3 * Fraction(1, 2**53)
    result = run_pipeline(demo_spec("strict-2concave"))
    cert = next(c for c in result.verification.checks if c.name == "nonisomorphism_certificate")
    assert abs(Fraction(cert.residual) - gap) <= 8 * Fraction(1, 2**53)
