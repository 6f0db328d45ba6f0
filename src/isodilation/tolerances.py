"""Tolerance configuration.

All comparisons in the package are residual checks scaled by (1 + max-norm
of the operand); exact identities of the underlying theory become bounds on
those residuals.  A single frozen `Tolerances` value travels through the
pipeline so every check reports the tolerance it was held to.
"""

import dataclasses
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # kernel tolerances (relative to 1 + max-norm)
    herm_tol: float = 1e-9       # allowed defect of X from X* at construction
    psd_tol: float = 1e-9        # allowed negative spill of a PSD spectrum
    sqrt_tol: float = 1e-9       # ||R^2 - X|| for principal square roots
    eig_tol: float = 1e-11       # eigendecomposition reconstruction/unitarity
    rank_tol: float = 1e-10      # relative eigenvalue cutoff for numerical rank
    # solver / builder tolerances
    stein_tol: float = 1e-10     # ||T*QT - Q|| and the U-invariance identity
    welldef_tol: float = 1e-8    # quotient form must vanish on the kernel
    # verification tolerances (pinned by the acceptance criteria)
    class_tol: float = 1e-10     # classification flags
    dilation_tol: float = 1e-12  # compression of powers reproduces powers
    powers_tol: float = 1e-11    # closed-form block formula for powers
    isometry_tol: float = 1e-10  # m-isometry defect of the assembled dilation
    criterion_tol: float = 1e-10 # scalar criterion identity
    difference_tol: float = 1e-11  # m-th forward difference of cumulative moduli
    cumulative_tol: float = 1e-10  # cumulative moduli match the polynomial
    agreement_tol: float = 1e-10   # diagonal fast path vs dense path
    cert_tol: float = 1e-6       # strict-inequality threshold for the norm-gap certificate

    def replace(self, **overrides) -> "Tolerances":
        """Return a copy with named tolerances overridden.

        Raises ValueError for unknown names and for values that are not
        finite and positive.
        """
        names = {f.name for f in dataclasses.fields(self)}
        for key, value in overrides.items():
            if key not in names:
                raise ValueError(f"unknown tolerance {key!r}")
            if not (0.0 < float(value) < math.inf):
                raise ValueError(f"tolerance {key} must be finite and positive, got {value!r}")
        return dataclasses.replace(self, **{k: float(v) for k, v in overrides.items()})


DEFAULT_TOLERANCES = Tolerances()

#: number of randomized trials per verification check
DEFAULT_TRIALS = 32

#: default seed for randomized windowed test vectors
DEFAULT_SEED = 0xD11A710

#: sweep budget for the cyclic Jacobi eigensolver
DEFAULT_JACOBI_SWEEPS = 64
