"""Chi-square upper-tail probabilities."""

from scipy.special import gammaincc


def chisq_sf(statistic, df):
    """Upper-tail probability P(X >= statistic) for X ~ chi-square(df).

    Parameters
    ----------
    statistic : float
        Observed statistic, must be nonnegative.
    df : int
        Degrees of freedom, must be a positive integer.

    Returns
    -------
    float
        The survival-function value Q(df/2, statistic/2), the regularized
        upper incomplete gamma function.
    """
    if not float(df).is_integer() or df < 1:
        raise ValueError(f"df must be a positive integer, got {df!r}")
    w = float(statistic)
    if w < 0.0 or not w == w:
        raise ValueError(f"statistic must be nonnegative, got {statistic!r}")
    return float(gammaincc(df / 2.0, w / 2.0))
