"""Chi-square upper-tail probabilities.

For an integer df the regularized upper incomplete gamma function
Q(df/2, x), x = statistic/2, is a finite sum:

- even df = 2n: Q = e^-x (1 + x/1 + x^2/2! + ... + x^(n-1)/(n-1)!);
- odd df = 2n + 1: Q = erfc(sqrt x) + e^-x sum_{j=1..n} x^(j-1/2) / Gamma(j+1/2).

Each term is the previous one times x/j (even) or x/(j - 1/2) (odd). The
tables call this on short arrays, so a Python loop over floats with the
``math`` module costs less per call than any vectorised series.
"""

import math

import numpy as np

_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
# The terms can exceed the largest float, and e^-x leaves the normal
# floats past x = 708.4. So e^-x is applied in pieces of e^-512: to the
# terms whenever one grows past _TERM_CAP, and to their sum until the
# rest is at most _EXP_SAFE. Every subtraction from x is exact, so the
# result keeps full precision.
_EXP_SAFE = 700.0
_PIECE = 512.0
_EXP_PIECE = math.exp(-_PIECE)
_TERM_CAP = 1e150


def _tails(xs, df):
    """Q(df/2, x) for each x >= 0 of a list, at one integer df >= 1."""
    if df == 1.0:
        return [math.erfc(math.sqrt(x)) for x in xs]
    n = int(df) // 2
    odd = df % 2.0 == 1.0
    offset = 0.5 if odd else 0.0
    tails = []
    for x in xs:
        if odd:
            root = math.sqrt(x)
            head = math.erfc(root)
            term = _TWO_OVER_SQRT_PI * root  # x^(1/2) / Gamma(3/2)
        else:
            head = 0.0
            term = 1.0
        total = term
        rest = x  # the part of e^-x not yet applied to term and total
        for j in range(1, n):
            term *= x / (j + offset)
            total += term
            if term > _TERM_CAP:
                term *= _EXP_PIECE
                total *= _EXP_PIECE
                rest -= _PIECE
        if total == math.inf:  # x past 1e158, so e^-x wipes out every term
            total = 0.0
        while rest > _EXP_SAFE and total > 0.0:
            total *= _EXP_PIECE
            rest -= _PIECE
        # Rounding can carry a tail near 1 a few ulp past it.
        tails.append(min(head + total * math.exp(-rest), 1.0))
    return tails


def _invalid(statistic, df):
    """Raise the ValueError that names the first bad df, else statistic."""
    k = np.asarray(df, dtype=float)
    bad = ~(np.isfinite(k) & (k >= 1.0) & (k == np.floor(k)))
    if bad.any():
        shown = df if k.ndim == 0 else k[bad][0]
        raise ValueError(f"df must be a positive integer, got {shown!r}")
    w = np.asarray(statistic, dtype=float)
    shown = statistic if w.ndim == 0 else w[~(w >= 0.0)][0]
    raise ValueError(f"statistic must be nonnegative, got {shown!r}")


def chisq_sf(statistic, df):
    """Upper-tail probability P(X >= statistic) for X ~ chi-square(df).

    Parameters
    ----------
    statistic : float or array_like
        Observed statistic(s), each nonnegative.
    df : int or array_like
        Degrees of freedom, each a positive integer; an array broadcasts
        against ``statistic``.

    Returns
    -------
    float or numpy.ndarray
        The survival-function value Q(df/2, statistic/2), the regularized
        upper incomplete gamma function: a float when both arguments are
        scalars, an array of their broadcast shape otherwise. The cost
        of each entry grows linearly with its df.
    """
    w = np.asarray(statistic, dtype=float)
    k = np.asarray(df, dtype=float)
    # Halving each statistic is also the pass that validates it: the
    # conditional expression raises through _invalid on a bad entry.
    if k.ndim == 0:
        dof = k.item()
        if not (dof >= 1.0 and dof.is_integer()):
            _invalid(statistic, df)
        xs = [0.5 * v if v >= 0.0 else _invalid(statistic, df) for v in w.ravel().tolist()]
        tails = _tails(xs, dof)
    else:
        if w.shape != k.shape:
            w, k = np.broadcast_arrays(w, k)
        dofs = k.ravel().tolist()
        xs = [
            0.5 * v if v >= 0.0 and d >= 1.0 and d.is_integer() else _invalid(statistic, df)
            for v, d in zip(w.ravel().tolist(), dofs)
        ]
        tails = [_tails((x,), d)[0] for x, d in zip(xs, dofs)]
    if w.ndim == 0:
        return tails[0]
    return np.array(tails).reshape(w.shape)
