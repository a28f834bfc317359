"""Chi-square upper-tail probabilities."""

import numpy as np
from scipy.special import gammaincc


def chisq_sf(statistic, df):
    """Upper-tail probability P(X >= statistic) for X ~ chi-square(df).

    Parameters
    ----------
    statistic : float or array_like
        Observed statistic(s), each nonnegative.
    df : int
        Degrees of freedom, must be a positive integer.

    Returns
    -------
    float or numpy.ndarray
        The survival-function value Q(df/2, statistic/2), the regularized
        upper incomplete gamma function: a float for a scalar statistic,
        an array of the statistic's shape otherwise.
    """
    if not float(df).is_integer() or df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    w = np.asarray(statistic, dtype=float)
    bad = ~(w >= 0.0)  # also true for NaN
    if bad.any():
        shown = statistic if w.ndim == 0 else w[bad][0]
        raise ValueError(f"statistic must be nonnegative, got {shown!r}")
    p = gammaincc(df / 2.0, w / 2.0)
    return float(p) if w.ndim == 0 else p
