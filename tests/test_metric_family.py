"""Every admissible metric gives a minimal dilation: a one-parameter family.

The general construction needs a T-invariant metric Q that dominates
beta_(m-1).  On a scalar shift the least one is q_n = q_0 / pi_n, and
every c Q with c >= 1 is admissible too: invariance is linear, and
c Q >= Q >= beta_(m-1).  Expansivity (pi_n >= 1) bounds c Q by c q_0, so
the dilation W_c is bounded; with c < 1 the dominance fails at n = 0.

For h, k in H, <W_c h, W_c k> = <(T*T + c Q) h, k>, so the first orbit
Grams differ by G_1 - G'_1 = (c - c') Q, and by the orbit-Gram invariant no
unitary fixing H intertwines two members: the minimal m-isometric
dilations of such a shift include a one-parameter family, where the paper
exhibits two.  Every invariant diagonal metric of a shift is q'_0 / pi_n,
so the c Q, c >= 1, are all its admissible diagonal metrics; whether
non-diagonal invariant metrics add further members is not claimed.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from isodilation import run_pipeline
from isodilation.builder import build_general_model
from isodilation.hermitian import hermitian, max_abs
from isodilation.qsolver import verify_q
from isodilation.verifier import nonisomorphism_certificate, orbit_grams, verify_run
from test_exact_tree import _float_tree, _spec

SCALES = (1.0, 1.5, 3.0)


@pytest.fixture(scope="module", params=["strict-2concave", "deep-table"])
def family(request):
    """The run of the least metric, and the dilation W_c with its metric
    c Q for each scale c, built on the run's defect forms."""
    spec = _spec(request.param)
    run = run_pipeline(spec)
    forms, q, m = run.forms, run.q, spec.m
    members = {}
    for c in SCALES:
        scaled = hermitian(c * q.q.mat, forms.tols.herm_tol)
        stein, dominance = verify_q(forms.corner, scaled, forms.on(m - 1, scaled.n), forms.tols)
        metric = dataclasses.replace(
            q, q=scaled, q_seq=c * q.q_seq, stein_residual=stein, dominance_residual=dominance
        )
        members[c] = (metric, build_general_model(forms, m, metric, spec.n_blocks))
    return spec, run, members


def test_every_member_passes_every_check(family):
    _, run, members = family
    for c, (metric, dilation) in members.items():
        report = verify_run(dilation, metric, None, run.tolerances)
        assert [check.name for check in report.checks if not check.passed] == [], c


def test_first_gram_gap_is_the_metric_gap(family):
    """Delta_1 = G_1 - G'_1 = (c - c') Q on window_after(1), and its
    diagonal is (c - c') q_n of the exact least metric on the corner's
    float weights."""
    spec, run, members = family
    q0 = run.q.q.mat
    exact_q = _float_tree(spec).q
    grams = {c: orbit_grams(dilation) for c, (_, dilation) in members.items()}
    for c, c_prime in itertools.combinations(SCALES, 2):
        win = members[c][1].model.corner.window_after(1)
        delta = grams[c].g[1].mat[:win, :win] - grams[c_prime].g[1].mat[:win, :win]
        assert max_abs(delta - (c - c_prime) * q0[:win, :win]) <= 1e-14
        worst = max(
            abs(Fraction(float(delta[n, n].real)) - Fraction(c - c_prime) * exact_q[n])
            for n in range(win)
        )
        assert worst <= Fraction(1e-14), (c, c_prime)


def test_certificate_separates_every_pair(family):
    _, run, members = family
    grams = {c: orbit_grams(dilation) for c, (_, dilation) in members.items()}
    for c, c_prime in itertools.combinations(SCALES, 2):
        check = nonisomorphism_certificate(
            grams[c], grams[c_prime], expected_found=True, tols=run.tolerances
        )
        assert check.passed and "certificate found" in check.window, (c, c_prime)
