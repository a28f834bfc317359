"""General linear hypotheses and the Wald statistic.

A hypothesis is a constraint matrix L over the testable parameters
theta* = (beta, tau) together with a right-hand side c; the statistic is
the quadratic form of L theta* - c in the metric of (L J L^T)^-1 with J
the theta* block of the inverse Godambe matrix, referred to a chi-square
with as many degrees of freedom as constraints.
"""

import functools
import re
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .chisq import chisq_sf
from .errors import DomainError, RankError, SingularHypothesisError, UnknownParameterError

_COMPACT = re.compile(r"^(beta|tau)(\d)(\d)$")
_UNDERSCORE = re.compile(r"^(beta|tau)(\d+)_(\d+)$")
_AMBIGUOUS = re.compile(r"^(beta|tau)\d{3,}$")
_NUMBER = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


@dataclass(frozen=True)
class Hypothesis:
    """Constraint rows L theta* = c with printable row text."""

    L: np.ndarray
    c: np.ndarray
    row_labels: tuple

    def __post_init__(self):
        self.L.flags.writeable = False
        self.c.flags.writeable = False


class TestResult(NamedTuple):
    """One table row: label, degrees of freedom, statistic, p-value."""

    __test__ = False  # domain type, not a pytest class

    label: str
    df: int
    statistic: float
    p_value: float


def _resolve_label(token, model):
    from .estimator import parameter_label

    match = _COMPACT.match(token) or _UNDERSCORE.match(token)
    if match is None:
        if _AMBIGUOUS.match(token):
            raise UnknownParameterError(
                f"ambiguous parameter name {token!r}: use the underscore "
                "form (e.g. beta1_12) for indices past one digit"
            )
        raise UnknownParameterError(
            f"cannot parse parameter name {token!r}; valid labels: "
            + ", ".join(model.theta_star_labels)
        )
    canonical = parameter_label(
        match.group(1), int(match.group(2)), int(match.group(3))
    )
    if canonical not in model.label_index:
        raise UnknownParameterError(
            f"no parameter {token!r} in this model; valid labels: "
            + ", ".join(model.theta_star_labels)
        )
    return model.label_index[canonical]


def parse_hypothesis(lines, model):
    """Parse constraint strings like 'beta11 = 0' or 'tau12 = tau22'.

    Each line contributes one row: +1 at the left-hand parameter and either
    a numeric right-hand side in c, or -1 at the right-hand parameter with
    a zero c entry.
    """
    if isinstance(lines, str):
        lines = [lines]
    h = len(model.theta_star_labels)
    rows = []
    rhs = []
    labels = []
    for line in lines:
        parts = line.split("=")
        if len(parts) != 2:
            raise UnknownParameterError(
                f"hypothesis {line!r} must have the form 'param = value' "
                "or 'param = param'"
            )
        left, right = parts[0].strip(), parts[1].strip()
        row = np.zeros(h)
        row[_resolve_label(left, model)] = 1.0
        if _NUMBER.match(right):
            rhs.append(float(right))
        else:
            row[_resolve_label(right, model)] -= 1.0
            rhs.append(0.0)
        rows.append(row)
        labels.append(f"{left} = {right}")
    return Hypothesis(
        L=np.array(rows), c=np.array(rhs), row_labels=tuple(labels)
    )


def _located(error, message, index, stacked):
    """``error(message)``; in a stack, it names and records the failing entry."""
    exc = error(f"{message} (stack entry {index})" if stacked else message)
    exc.index = int(index)
    return exc


def _singular_cause(block):
    """Why a symmetric L J L^T block has no Cholesky factor."""
    if np.isfinite(block).all():
        eigenvalues = np.linalg.eigvalsh(block)
        if eigenvalues[0] < -1e-8 * np.abs(eigenvalues).max():
            return (
                "L J L^T has a negative eigenvalue; the inverse Godambe "
                "matrix is indefinite on these parameters"
            )
    return (
        "L J L^T is singular; the hypothesis rows are redundant "
        "under this model's information matrix"
    )


def _running_sums(middle, gap):
    """Running sums of squares of w = C^-1 gap for each entry of a
    ``(m, n, n)`` stack of ``middle = C C^T``, each symmetrised first.

    Bordered by its gap, middle's factor gains w as its last row, found by
    forward substitution without pivoting: w's leading entries depend only
    on the leading block, so a zero gap reads exactly 0.0 and a leading
    block's rounding stays its own. The corner only has to exceed |w|^2
    for the bordered matrix to keep a factor. Raises
    ``np.linalg.LinAlgError`` when a factor fails.
    """
    m, n = gap.shape
    bordered = np.empty((m, n + 1, n + 1))
    bordered[:, :n, :n] = 0.5 * (middle + middle.transpose(0, 2, 1))
    bordered[:, n, :n] = bordered[:, :n, n] = gap
    bordered[:, n, n] = np.finfo(float).max
    whitened = np.linalg.cholesky(bordered)[:, n, :n]
    return np.cumsum(whitened * whitened, axis=1)


def _statistics(middle, gap, picks, alone, stacked):
    """Statistics picked (by the index ``picks``) from the running sums of
    one batched factor of a ``(middle, gap)`` stack.

    When ``middle`` has a non-finite entry, that factor fails, or a picked
    statistic reads NaN, ``alone()`` gives each statistic's own
    ``(middle, gap)`` stack, and each entry is factored alone. One whose
    gap is zero reads 0.0 unfactored, so no error names it; the first
    other one whose block is not finite or has no factor raises, named as
    entry i of the stack, and so does one whose block factors while its
    gap is not finite (a NaN or inf estimate); one whose block factors
    while its bordered factor fails has |w|^2 past the largest float and
    reads inf.
    """
    stats = np.nan
    if np.isfinite(middle).all():
        try:
            stats = _running_sums(middle, gap)[picks]
        except np.linalg.LinAlgError:
            pass
    if not np.isnan(stats).any():
        return stats
    middle, gap = alone()
    stats = np.zeros(len(gap))
    for i in np.flatnonzero(gap.any(axis=1)):
        block = middle[i]
        try:
            if not np.isfinite(block).all():
                raise np.linalg.LinAlgError
            block = 0.5 * (block + block.T)
            np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            raise _located(
                SingularHypothesisError, _singular_cause(block), i, stacked
            ) from None
        if not np.isfinite(gap[i]).all():
            raise _located(
                functools.partial(DomainError, origin="wald"),
                "L theta* - c is not finite; the estimates it reads hold a NaN or inf",
                i,
                stacked,
            )
        try:
            stats[i] = _running_sums(middle[i : i + 1], gap[i : i + 1])[0, -1]
        except np.linalg.LinAlgError:
            stats[i] = np.inf
    return stats


def _confined(constraint, theta, inverse_information, rhs):
    """``(L J L^T, L theta - c)`` for each entry of an ``(m, s, h)`` stack,
    each non-finite only where the entry's rows meet a non-finite entry of
    J or theta: in the plain products, 0 * nan and 0 * inf reach every
    entry."""
    used = constraint != 0
    bad = ~np.isfinite(inverse_information)
    finite = np.where(bad, 0.0, inverse_information)
    middle = constraint @ finite @ constraint.transpose(0, 2, 1)
    middle[(used @ bad @ used.transpose(0, 2, 1)).any(axis=(1, 2))] = np.nan
    bad = ~np.isfinite(theta)
    gap = constraint @ np.where(bad, 0.0, theta) - rhs
    gap[used @ bad] = np.nan
    return middle, gap


def _padded(theta, inverse_information, orders):
    """J[S, S] and theta[S] for each column order S, as one stack.

    Orders of unequal length are padded to the longest with columns of an
    identity block appended to J, whose theta entries are zero.
    """
    sizes = np.array([len(cols) for cols in orders])
    h, width = len(theta), sizes.max()
    mask = np.arange(width) < sizes[:, None]
    index = np.where(mask, 0, h + np.arange(width))
    index[mask] = np.concatenate(orders)
    padded = np.eye(h + width)
    padded[:h, :h] = inverse_information
    gap = np.concatenate([theta, np.zeros(width)])[index]
    return padded[index[:, :, None], index[:, None, :]], gap


def _column_sets(theta, inverse_information, sets):
    """Statistics and df of theta[S_i] = 0 for each column set S_i.

    The sets split into maximal runs in which each strictly contains the
    next (the type-I rows of a table); a set that stands alone is a run of
    one. Each run is factored once, its columns ordered innermost set
    first, so every set is a leading block: with J on that order factored
    as C C^T, the statistic of the leading n columns is the sum of the
    first n squares of w = C^-1 theta.
    """
    members = [set(cols) for cols in sets]
    orders, runs = [], []
    for i, (cols, unique) in enumerate(zip(sets, members)):
        if not len(cols) or len(unique) < len(cols):
            raise _located(RankError, "column set is empty or repeats a column", i, True)
        if i and unique < members[i - 1]:
            orders[-1] = list(cols) + [c for c in orders[-1] if c not in unique]
        else:
            orders.append(list(cols))
        runs.append(len(orders) - 1)
    sizes = np.array([len(cols) for cols in sets])
    middle, gap = _padded(theta, inverse_information, orders)
    alone = functools.partial(_padded, theta, inverse_information, sets)
    return _statistics(middle, gap, (runs, sizes - 1), alone, True), sizes


def wald_statistic(theta, inverse_information, constraint, rhs):
    """The Wald quadratic form for L theta = c.

    Returns ``(statistic, df)``; raises on a rank-deficient L or a middle
    matrix without a Cholesky factor (no pseudo-inverse is attempted; a
    singular L J L^T signals a redundant hypothesis the caller should fix,
    one with a negative eigenvalue an indefinite J). Rows with pairwise
    disjoint supports have full rank exactly when none is zero, so only
    hypotheses whose rows share a column are ranked by an SVD.

    ``constraint`` may also be a stack of m hypotheses with the same number
    of rows, shape ``(m, s, h)``, with ``rhs`` of shape ``(m, s)``; the
    result is then ``(statistics, s)`` with an array of m statistics, all
    computed in one batched pass. With ``rhs=None``, ``constraint`` is
    instead a list of m integer column sets S_i of any sizes, entry i tests
    theta[S_i] = 0 (its L J L^T is J[S_i, S_i], so no rank check is run;
    an empty set or a repeated column raises :class:`RankError`), and the
    result is ``(statistics, df)`` with the m set sizes as df.

    In either stack, a hypothesis that holds exactly (zero gap) has
    statistic 0.0 and no error names it. An error from a
    stack names the failing entry and sets it as the exception's ``index``
    attribute. A block of L J L^T that reads a NaN or inf entry of J raises
    as a singular block, and a gap that reads a NaN or inf entry of theta
    as a :class:`DomainError`; a statistic past the largest float reads
    inf.
    """
    if rhs is None:
        return _column_sets(theta, inverse_information, constraint)
    constraint = np.asarray(constraint, dtype=float)
    stacked = constraint.ndim == 3
    if not stacked:
        constraint = np.atleast_2d(constraint)[None]
    _, s, h = constraint.shape
    if h != len(theta):
        raise ValueError(
            f"constraint matrix has {h} columns for {len(theta)} parameters"
        )
    # Rows with pairwise-disjoint supports have full rank exactly when none
    # is zero; only entries whose rows share a column need an SVD.
    nonzero = constraint != 0
    deficient = ~nonzero.any(axis=2).all(axis=1)
    overlapping = (nonzero.sum(axis=1) > 1).any(axis=1)
    if overlapping.any():
        deficient[overlapping] = np.linalg.matrix_rank(constraint[overlapping]) < s
    if deficient.any():
        raise _located(
            RankError,
            f"constraint matrix has rank below its {s} rows",
            np.argmax(deficient),
            stacked,
        )
    rhs = np.asarray(rhs, dtype=float)
    # A non-finite entry of theta or J makes 0 * inf in these products;
    # ``_statistics`` then locates the entries that read it (``_confined``).
    with np.errstate(invalid="ignore"):
        gap = constraint @ theta - rhs
        middle = constraint @ inverse_information @ constraint.transpose(0, 2, 1)
    alone = functools.partial(_confined, constraint, theta, inverse_information, rhs)
    stats = _statistics(middle, gap, (slice(None), -1), alone, stacked)
    return (stats, s) if stacked else (float(stats[0]), s)


def wald_test(model, hypothesis):
    """Run a Wald test of a :class:`Hypothesis` against a fitted model."""
    stat, df = wald_statistic(
        model.theta_star, model.godambe_inv, hypothesis.L, hypothesis.c
    )
    return TestResult(
        label="; ".join(hypothesis.row_labels),
        df=df,
        statistic=stat,
        p_value=chisq_sf(stat, df),
    )
