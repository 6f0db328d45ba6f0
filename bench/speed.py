"""Machine-speed probe, to report times at a fixed reference speed.

On a host shared with other load, the CPUs' speed for this process can
drift by 1.6x over seconds to minutes, and process CPU time drifts with
it.  The probe is fixed work that no change to the package can alter, in
two parts: interpreter-bound array work in the style of the package's
Jacobi sweeps, and dense complex products through BLAS with its default
threads, in the style of the verifier's products of W.  The first part
tracks the dense workload best and the second the large shift specs; their
sum tracks both.  The probe runs before every timed spec run, and a median
time is reported as ``time * REFERENCE_S / p``, where ``p`` is the median
probe time of the same run: seconds at the speed at which the probe takes
REFERENCE_S.
"""

import time

import numpy as np

REFERENCE_S = 0.015

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((24, 24)) + 1j * _RNG.standard_normal((24, 24))
_P = np.arange(0, 24, 2)
_Q = _P + 1
_M = _RNG.standard_normal((320, 320)) + 1j * _RNG.standard_normal((320, 320))


def probe() -> float:
    """Seconds taken by the fixed probe work."""
    start = time.perf_counter()
    a = _A.copy()
    for _ in range(100):
        apq = a[_P, _Q]
        mags = np.abs(apq) + 1.0
        phase = apq / mags
        c = 1.0 / np.sqrt(1.0 + mags)
        s = 0.5 * c
        rp = a[_P, :].copy()
        rq = a[_Q, :]
        a[_P, :] = c[:, None] * rp - (s * phase)[:, None] * rq
        a[_Q, :] = s[:, None] * rp + (c * phase)[:, None] * rq
        a = a / np.max(np.abs(a))
    total = 0
    for i in range(20000):
        total += i * i
    x = _M
    for _ in range(3):
        x = (_M @ x) / 300.0
    return time.perf_counter() - start
