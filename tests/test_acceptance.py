"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Criterion 4 is split into its two branches because they are independent
claims about different inputs.
"""

import math

import numpy as np

from isodilation.builder import assemble_dilation
from isodilation.diagonal import build_diagonal_model, dense_agreement_residual
from isodilation.hermitian import eigh, hermitian, max_abs, psd_root
from isodilation.tolerances import DEFAULT_TOLERANCES
from isodilation.verifier import (
    _cumulative_moduli,
    check_w_m_isometry,
    check_weight_shift_isometry,
)

SHIFT_DEMOS = ("dirichlet-2iso", "strict-2concave", "nonisomorphic-pair")
ALL_DEMOS = SHIFT_DEMOS + ("scalar-3concave", "zero-operator", "unitary")


def verdict(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def check_named(result, name: str):
    return next(c for c in result.verification.checks if c.name == name)


def test_criterion_1_scalar_three_concave_walkthrough(demos):
    r = demos.run("scalar-3concave")
    ok = r.path == "three_concave"
    a = r.model.a.mat[0, 0].real
    s = r.weights.mat[:3, 0, 0].real
    b = s[1]  # B = S_(m-1)
    expected_s = [1.0, math.sqrt(5) / 2, math.sqrt(7.0 / 5.0)]
    ok &= abs(a - (-0.25)) <= 1e-12
    ok &= abs(b - math.sqrt(5) / 2) <= 1e-12
    ok &= all(abs(x - y) <= 1e-12 for x, y in zip(s, expected_s))
    ok &= check_named(r, "w_m_isometry").residual <= 1e-10
    ok &= check_named(r, "dilation_property").residual <= 1e-12
    ok &= check_named(r, "powers_formula").residual <= 1e-11
    ok &= check_named(r, "minimality").residual == 0.0
    assert verdict(
        "criterion 1 (scalar 3-concave walkthrough)",
        ok,
        f"A={a:.15f}, B={b:.15f}, S={tuple(round(float(x), 9) for x in s)}",
    )


def test_criterion_2_dirichlet_shift(demos):
    r = demos.run("dirichlet-2iso")
    ok = r.path == "general_m"
    w = r.model.dim_h
    q_err = max(abs(r.q.q_seq[n] - 1.0 / (n + 1)) for n in range(w))
    ok &= q_err <= 1e-12
    a_norm = r.model.a.norm_max()
    ok &= a_norm <= 1e-12
    s_err = max(
        max_abs(s - np.eye(r.model.dim_hprime)) for s in r.weights.mat
    )
    ok &= s_err <= 1e-12
    ok &= check_named(r, "w_m_isometry").residual <= 1e-10
    ok &= check_named(r, "remark_consistency").passed
    assert verdict(
        "criterion 2 (Dirichlet shift)",
        ok,
        f"max|q_n - 1/(n+1)|={q_err:.2e}, |A|={a_norm:.2e}, max|S_n - I|={s_err:.2e}",
    )


def test_criterion_3_strict_two_concave(demos):
    r = demos.run("strict-2concave")
    ok = r.path == "general_m"
    w = r.model.dim_h
    diag = np.diagonal(r.model.defect_m.mat).real
    expected = np.array(
        [-(2.0 ** -(n + 2)) * (1 - 2.0 ** -(n + 1)) for n in range(w)]
    )
    beta_err = float(np.max(np.abs(diag - expected)))
    ok &= beta_err <= 1e-12
    ok &= not r.classification.m_isometric.ok
    ok &= abs(r.q.q0 - 0.5) <= 1e-12
    s1 = r.weights.mat[0]
    # B = (I - A)^(1/2), formed here by numpy.linalg.eigh, independently
    # of the weight stack and of the package's kernels
    eye = np.eye(r.model.dim_hprime)
    lam, v = np.linalg.eigh(eye - r.model.a.mat)
    b = (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.conj().T
    s1_vs_b = max_abs(s1 - b)
    s1_vs_i = max_abs(s1 - eye)
    ok &= s1_vs_b <= 1e-11
    ok &= s1_vs_i > 1e-3
    ok &= check_named(r, "w_m_isometry").residual <= 1e-10
    ok &= check_named(r, "minimality").residual == 0.0
    assert verdict(
        "criterion 3 (strict 2-concave shift)",
        ok,
        f"max defect err={beta_err:.2e}, q0={r.q.q0}, ||S1-I||={s1_vs_i:.4f}",
    )


def _gap_at_e0(result) -> float:
    general = result.assembled
    badea = result.badea_assembled
    w = general.dim_h
    xg = np.zeros(general.dim_total, dtype=complex)
    xg[0] = 1.0
    xb = np.zeros(badea.dim_total, dtype=complex)
    xb[0] = 1.0
    return abs(
        float(np.vdot(general.matrix @ xg, general.matrix @ xg).real)
        - float(np.vdot(badea.matrix @ xb, badea.matrix @ xb).real)
    )


def test_criterion_4_nonisomorphism_strict_branch(demos):
    r = demos.run("nonisomorphic-pair")
    ok = check_named(r, "w_m_isometry").residual <= 1e-10
    ok &= check_named(r, "badea_w_m_isometry").residual <= 1e-10
    ok &= check_named(r, "minimality").residual == 0.0
    ok &= check_named(r, "badea_minimality").residual == 0.0
    gap = _gap_at_e0(r)
    ok &= abs(gap - 0.5) <= 1e-10
    cert = check_named(r, "nonisomorphism_certificate")
    ok &= cert.residual > cert.tolerance  # certificate found
    assert verdict(
        "criterion 4 (non-isomorphism, strict shift)",
        ok,
        f"both dilations 2-isometric and minimal; gap at e0 = {gap:.12f}",
    )


def test_criterion_4_nonisomorphism_dirichlet_branch(demos):
    """Stated expectation: no certificate for the Dirichlet shift (gap <= 1e-12).

    The measured gap equals the 1-defect form <beta_1 e0, e0> = w_1^2 - 1 = 1,
    which is nonzero because the Dirichlet shift is 2-isometric but NOT
    isometric; a certificate therefore necessarily exists and this branch
    cannot pass as stated.  See the decisions ledger.  The assertion is kept
    faithful to the stated criterion rather than weakened.
    """
    r = demos.run("dirichlet-2iso")
    gap = _gap_at_e0(r)
    form = r.classification.expansive.residual  # min eig of the 1-defect
    verdict(
        "criterion 4 (non-isomorphism, Dirichlet branch)",
        gap <= 1e-12,
        f"gap at e0 = {gap:.12f} = <defect_1 e0, e0> (1-defect min eig {form:.3e})",
    )
    assert gap <= 1e-12, (
        "criterion as stated requires gap <= 1e-12 for Dirichlet, but the gap "
        f"equals <defect_1 e0, e0> = {gap:.12f}; the Dirichlet shift is not "
        "isometric, so the norm-gap certificate exists (see decisions ledger)"
    )


def test_criterion_5_equivalence_both_directions(demos):
    ok = True
    details = []
    for name in ("scalar-3concave", "dirichlet-2iso", "strict-2concave"):
        r = demos.run(name)
        crit = check_named(r, "criterion_identity").residual
        pdiff = check_named(r, "weight_shift_m_isometry").residual
        ok &= crit <= 1e-10 and pdiff <= 1e-11
        details.append(f"{name}: criterion={crit:.1e}, difference={pdiff:.1e}")
    # corrupted model: S_2 + 0.1 breaks the shift side, which the difference
    # check localizes, while the m = 2 criterion identity is untouched
    r = demos.run("strict-2concave")
    stack = r.weights.mat.copy()
    stack[1] += 0.1 * np.eye(r.model.dim_hprime)
    bad_dil = assemble_dilation(r.model, hermitian(stack), r.assembled.n_blocks)
    iso = check_w_m_isometry(bad_dil)
    bad_moduli = _cumulative_moduli(bad_dil.weights, r.tolerances.herm_tol)
    pdiff = check_weight_shift_isometry(bad_moduli, 2)
    ok &= (not iso.passed) and iso.residual > 1e-3
    ok &= not pdiff.passed
    details.append(f"corrupted: isometry residual={iso.residual:.2e}, difference fails")
    assert verdict("criterion 5 (equivalence, both directions)", ok, "; ".join(details))


def test_criterion_6_degenerate_cases(demos):
    unitary = demos.run("unitary")
    zero = demos.run("zero-operator")
    ok = unitary.overall and zero.overall
    ok &= unitary.model.dim_hprime == 0
    ok &= unitary.assembled.dim_total == unitary.model.dim_h
    ok &= max_abs(unitary.assembled.matrix - unitary.corner.matrix) == 0.0
    # the zero operator dilates to the unweighted shift: U = I and S_j = I
    ok &= zero.model.dim_hprime == 1
    ok &= abs(zero.model.u[0, 0] - 1.0) <= 1e-12
    n_total = zero.assembled.dim_total
    shift = np.zeros((n_total, n_total), dtype=complex)
    for j in range(1, n_total):
        shift[j, j - 1] = 1.0
    ok &= max_abs(zero.assembled.matrix - shift) <= 1e-12
    iso = check_w_m_isometry(zero.assembled, m=1)
    ok &= iso.residual <= 1e-12  # an isometry
    assert verdict(
        "criterion 6 (degenerate cases)",
        ok,
        f"unitary: W = T (dim H' = 0); zero: W = unweighted shift, "
        f"1-isometry residual {iso.residual:.1e}",
    )


def test_criterion_7_oracle_equivalence(demos):
    ok = True
    details = []
    for name in SHIFT_DEMOS:
        r = demos.run(name)
        agree = check_named(r, "diagonal_dense_agreement").residual
        # recompute independently of the pipeline wiring
        diag = build_diagonal_model(
            r.spec.rule,
            r.spec.m,
            r.model.dim_h,
            r.path,
            9,
            q_seq=r.q.q_seq if r.q is not None else None,
            tols=r.tolerances,
        )
        direct = dense_agreement_residual(r.assembled, diag)
        ok &= agree <= 1e-10 and direct <= 1e-10
        details.append(f"{name}: {max(agree, direct):.1e}")
    assert verdict("criterion 7 (oracle equivalence on shift demos)", ok, "; ".join(details))


def test_criterion_8_window_stability(demos):
    ok = True
    details = []
    for name in ALL_DEMOS:
        base = demos.run(name)
        doubled = demos.run(name, doubled=True)
        base_checks = {c.name: c for c in base.verification.checks}
        doubled_checks = {c.name: c for c in doubled.verification.checks}
        ok &= set(base_checks) == set(doubled_checks)
        worst = 0.0
        for cname, c in base_checks.items():
            d = doubled_checks[cname]
            drift = abs(d.residual - c.residual)
            allowed = 10.0 * c.tolerance
            ok &= drift <= allowed
            ok &= c.passed == d.passed
            if c.tolerance > 0:
                worst = max(worst, drift / c.tolerance)
        details.append(f"{name}: worst drift {worst:.2e}x tol")
    assert verdict("criterion 8 (window stability under doubling)", ok, "; ".join(details))


def test_criterion_9_kernel_properties():
    tols = DEFAULT_TOLERANCES
    rng = np.random.default_rng(0xC9)
    count = 0
    worst = {"eig": 0.0, "sqrt": 0.0, "pinv": 0.0}
    ok = True
    for trial in range(200):
        if trial < 8:
            n = 64
        else:
            n = int(rng.integers(2, 65))
        if trial % 2 == 0:
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            x = hermitian(g.conj().T @ g)
        else:
            # prescribed spectrum with explicit kernel directions
            zeros = int(rng.integers(0, max(n // 3, 1)))
            lam = np.concatenate(
                [np.zeros(zeros), rng.uniform(1e-4, 10.0, n - zeros)]
            )
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            basis = eigh(hermitian(g + g.conj().T)).basis
            x = hermitian(basis @ np.diag(lam) @ basis.conj().T)
        scale = 1.0 + x.norm_max()

        dec = eigh(x)
        ok &= dec.recon_residual <= tols.eig_tol * scale
        ok &= dec.basis_residual <= tols.eig_tol
        worst["eig"] = max(worst["eig"], dec.recon_residual / scale)

        # the root kernel the construction runs: R, R+ and the kept range
        kept, root, inv_root = psd_root(x, tols, dec, what="criterion 9")
        sqrt_res = max_abs(root @ root - x.mat)
        ok &= sqrt_res <= tols.sqrt_tol * scale
        worst["sqrt"] = max(worst["sqrt"], sqrt_res / scale)

        lam_kept = dec.values[kept]
        kappa = float(dec.values[-1] / lam_kept[0]) if lam_kept.size else 1.0
        pinv_res = max_abs(inv_root @ x.mat @ inv_root - dec.block.outer(kept))
        allowed = tols.sqrt_tol * (1.0 + kappa)
        ok &= pinv_res <= allowed
        worst["pinv"] = max(worst["pinv"], pinv_res / allowed)
        count += 1
    assert count == 200
    assert verdict(
        "criterion 9 (kernel properties, 200 random PSD up to dim 64)",
        ok,
        f"worst scaled residuals: eig={worst['eig']:.1e}, sqrt={worst['sqrt']:.1e}, "
        f"pinv={worst['pinv']:.1e} of allowance",
    )
