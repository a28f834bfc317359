"""Chi-square upper-tail probabilities."""

import numpy as np
from scipy.special import gammaincc


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
        scalars, an array of their broadcast shape otherwise.
    """
    k = np.asarray(df, dtype=float)
    bad = ~(np.isfinite(k) & (k >= 1.0) & (k == np.floor(k)))
    if bad.any():
        shown = df if k.ndim == 0 else k[bad][0]
        raise ValueError(f"df must be a positive integer, got {shown!r}")
    w = np.asarray(statistic, dtype=float)
    bad = ~(w >= 0.0)  # also true for NaN
    if bad.any():
        shown = statistic if w.ndim == 0 else w[bad][0]
        raise ValueError(f"statistic must be nonnegative, got {shown!r}")
    p = gammaincc(k / 2.0, w / 2.0)
    return float(p) if p.ndim == 0 else p
