"""Seeded spec generators for the benchmark workloads.

Each generator returns ``(size, text)`` pairs, smallest first: the spec
text the program receives and its size (N or the dense dimension), which
decides which runs count as small and which as large.  The same seed
gives the same texts.  The program never sees the seed itself, only the
verifier seed passed to ``run_pipeline``.
"""

import json
import math

import numpy as np

# Path the pipeline must auto-select for every spec of the workload.
EXPECTED_PATH = {
    "shift-m2": "general_m",
    "dense-m3": "three_concave",
    "shift-m3-deep": "general_m",
}

_DENSE_CHECKS = {
    "form_welldefined", "b_square", "cumulative_matches_polynomial",
    "weight_shift_m_isometry", "dilation_property", "powers_formula",
    "w_m_isometry", "criterion_identity", "minimality", "remark_consistency",
}
_SHIFT_CHECKS = _DENSE_CHECKS | {
    "q_invariance", "q_dominance", "u_invariance", "diagonal_dense_agreement",
}

# Checks every report of the workload must list.
EXPECTED_CHECKS = {
    "shift-m2": _SHIFT_CHECKS | {
        "badea_dilation_property", "badea_w_m_isometry", "badea_minimality",
        "nonisomorphism_certificate",
    },
    "dense-m3": _DENSE_CHECKS,
    "shift-m3-deep": _SHIFT_CHECKS,
}


def _text(spec: dict) -> str:
    return json.dumps(spec, indent=2, sort_keys=True) + "\n"


def shift_m2(rng: np.random.Generator) -> list[tuple[int, str]]:
    """The ROADMAP shift grid; the seed reaches only the verifier."""
    return [
        (n, _text({
            "schema_version": 1,
            "operator": {"kind": "shift", "rule": {"name": "geometric_concave", "r": 0.5}},
            "m": 2,
            "truncation": {"N": n, "n_blocks": 6},
        }))
        for n in (48, 96, 192)
    ]


def _normal_contraction(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    v = q * (np.diag(r) / np.abs(np.diag(r)))  # Haar-distributed unitary
    z = rng.uniform(0.1, 0.95, dim) * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, dim))
    return (v * z) @ v.conj().T


def dense_m3(rng: np.random.Generator) -> list[tuple[int, str]]:
    """Two random normal contractions V diag(z) V* per dimension."""
    texts = []
    for dim in (8, 24, 48):
        for _ in range(2):
            t = _normal_contraction(rng, dim)
            entries = [[[float(x.real), float(x.imag)] for x in row] for row in t]
            texts.append((dim, _text({
                "schema_version": 1,
                "operator": {"kind": "dense", "entries": entries},
                "m": 3,
                "truncation": {"n_blocks": 6},
            })))
    return texts


def _deep_table(c: float, count: int) -> list[float]:
    # ||T^k e0||^2 proportional to f(k) = (k+1)^2 - c sqrt(k+1): strictly
    # 3-concave because sqrt has a positive third derivative.
    f = [(k + 1) ** 2 - c * math.sqrt(k + 1) for k in range(count + 1)]
    return [math.sqrt(f[k] / f[k - 1]) for k in range(1, count + 1)]


def shift_m3_deep(rng: np.random.Generator) -> list[tuple[int, str]]:
    """Strictly 3-concave table shifts with many thin blocks."""
    texts = []
    for n, n_blocks in ((48, 24), (64, 32)):
        c = float(rng.uniform(0.25, 0.75))
        values = _deep_table(c, 4 * n + 16)
        texts.append((n, _text({
            "schema_version": 1,
            "operator": {
                "kind": "shift",
                "rule": {"name": "table", "values": values, "tail_value": 1.0},
            },
            "m": 3,
            "truncation": {"N": n, "n_blocks": n_blocks},
        })))
    return texts


GENERATORS = {
    "shift-m2": shift_m2,
    "dense-m3": dense_m3,
    "shift-m3-deep": shift_m3_deep,
}
