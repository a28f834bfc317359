"""Loop-level numeric kernels, numba-compiled when available.

Set ``COVGLM_NUMBA=0`` to force the pure numpy/python fallbacks. Both paths
compute identical results; the numba path only matters for the two genuinely
loop-bound spots (pairwise trace products and the incomplete-gamma
iteration). ``benchmarks/bench_kernels.py`` times them against each other.
"""

import math
import os

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "pair_traces",
    "pair_traces_numpy",
    "gammainc_upper",
    "gammainc_upper_python",
]

_FPMIN = 1e-300
_EPS = 1e-15
_MAX_ITER = 500


def numba_requested():
    """True unless the COVGLM_NUMBA env flag disables the compiled path."""
    value = os.environ.get("COVGLM_NUMBA", "1").strip().lower()
    return value not in {"0", "false", "off", "no"}


def _as_batched(mats):
    """A (q, n, n) stack as (q, 1, n, n): one cluster."""
    return mats[:, None] if mats.ndim == 3 else mats


def pair_traces_numpy(mats):
    """sum_g tr(mats[i, g] @ mats[j, g]) for every pair of a (q, G, n, n)
    stack; a (q, n, n) stack is one cluster. One GEMM:
    tr(A B) = sum_kl A[k, l] B[l, k]."""
    mats = _as_batched(mats)
    q = mats.shape[0]
    flat = mats.reshape(q, -1)
    out = flat @ np.swapaxes(mats, -1, -2).reshape(q, -1).T
    return 0.5 * (out + out.T)


def _pair_traces_loops(mats):
    # tr(A B) = sum_kl A[k,l] * B[l,k]; symmetric in (i, j).
    q, n_clusters, n, _ = mats.shape
    out = np.empty((q, q))
    for i in range(q):
        for j in range(i, q):
            acc = 0.0
            for g in range(n_clusters):
                for k in range(n):
                    for l in range(n):
                        acc += mats[i, g, k, l] * mats[j, g, l, k]
            out[i, j] = acc
            out[j, i] = acc
    return out


def gammainc_upper_python(a, x):
    """Regularized upper incomplete gamma Q(a, x) for a > 0, x >= 0.

    Series representation below the x = a + 1 crossover, modified Lentz
    continued fraction above it; absolute error comfortably below 1e-12.
    """
    if x <= 0.0:
        return 1.0
    log_front = -x + a * math.log(x) - math.lgamma(a)
    if x < a + 1.0:
        # P(a, x) by series, return the complement.
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        p = total * math.exp(log_front)
        if p > 1.0:
            p = 1.0
        return 1.0 - p
    # Q(a, x) by continued fraction.
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    q = math.exp(log_front) * h
    if q < 0.0:
        q = 0.0
    elif q > 1.0:
        q = 1.0
    return q


NUMBA_ENABLED = False
pair_traces = pair_traces_numpy
gammainc_upper = gammainc_upper_python

if numba_requested():
    try:
        from numba import njit
    except ImportError:  # numba is an optional extra; keep the fallbacks
        pass
    else:
        _pair_traces_compiled = njit(cache=True)(_pair_traces_loops)

        def pair_traces(mats):
            """The compiled loops, over a (q, G, n, n) or (q, n, n) stack."""
            return _pair_traces_compiled(np.ascontiguousarray(_as_batched(mats)))

        gammainc_upper = njit(cache=True)(gammainc_upper_python)
        NUMBA_ENABLED = True
