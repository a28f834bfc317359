"""ANOVA/MANOVA tables of types I-III and their dispersion analogues.

All tables are rows of joint Wald tests; the three types differ only in
which coefficient spans each term's row tests:

* type I: the term's own span plus every later term's span (sequential
  leave-trailing-out), so degrees of freedom shrink down the table;
* type II: the term's span plus the span of every interaction whose
  variable set strictly contains it;
* type III: the term's span alone (fully marginal).

The intercept row tests everything for type I and the intercept alone for
types II and III. Multivariate tables expand the single-response rows over
identical predictors with an identity Kronecker factor, multiplying the
degrees of freedom by the number of responses.
"""

from dataclasses import dataclass

import numpy as np

from .chisq import chisq_sf
from .errors import OptionError, PredictorMismatch
from .formula import term_label
from .wald import TestResult, kron_hypothesis, wald_statistic

_ROMAN = {1: "I", 2: "II", 3: "III"}


@dataclass(frozen=True)
class TestTable:
    """A titled block of test rows, one table per printed Call."""

    __test__ = False  # domain type, not a pytest class

    title: str
    caption: str
    label_header: str
    rows: tuple


def _joint_row(model, label, columns):
    columns = np.asarray(sorted(columns), dtype=int)
    h = len(model.theta_star_labels)
    constraint = np.zeros((len(columns), h))
    constraint[np.arange(len(columns)), columns] = 1.0
    stat, df = wald_statistic(
        model.theta_star, model.godambe_inv, constraint, np.zeros(len(columns))
    )
    return TestResult(label=label, df=df, statistic=stat, p_value=chisq_sf(stat, df))


def _term_columns(design, offset):
    """(term, label, own columns) triples in table order."""
    out = []
    for term in design.terms:
        start, stop = design.term_spans[frozenset(term)]
        out.append((term, term_label(term), list(range(offset + start, offset + stop))))
    return out


def _selected_columns(kind, infos, index):
    term, _, own = infos[index]
    if kind == 1:
        cols = []
        for _, _, later in infos[index:]:
            cols.extend(later)
        return cols
    if kind == 3 or not term:
        return list(own)
    term_vars = frozenset(term)
    cols = list(own)
    for other, _, other_cols in infos:
        if other and frozenset(other) > term_vars:
            cols.extend(other_cols)
    return cols


def _check_kind(kind):
    if kind not in _ROMAN:
        raise OptionError(f"table type must be 1, 2 or 3, got {kind!r}")


def anova(model, kind):
    """Per-response ANOVA tables of the requested type (1, 2 or 3)."""
    _check_kind(kind)
    tables = []
    for r in range(model.n_responses):
        design = model.design[r]
        infos = _term_columns(design, model.beta_spans[r].start)
        rows = [
            _joint_row(model, label, _selected_columns(kind, infos, i))
            for i, (_, label, _) in enumerate(infos)
        ]
        tables.append(
            TestTable(
                title=f"ANOVA type {_ROMAN[kind]} using Wald statistic for fixed effects",
                caption=design.formula.text,
                label_header="Covariate",
                rows=tuple(rows),
            )
        )
    return tables


def _require_shared_predictor(model):
    first = model.design[0]
    signature = [
        (tuple(t), first.term_spans[frozenset(t)][1] - first.term_spans[frozenset(t)][0])
        for t in first.terms
    ]
    for design in model.design[1:]:
        other = [
            (tuple(t), design.term_spans[frozenset(t)][1] - design.term_spans[frozenset(t)][0])
            for t in design.terms
        ]
        if other != signature:
            raise PredictorMismatch(
                "multivariate tables need every response under the same "
                "linear predictor"
            )


def _predictor_caption(model):
    text = model.design[0].formula.text
    rhs = text.split("~", 1)[1] if "~" in text else text
    return "~ " + rhs.replace(" ", "")


def manova(model, kind):
    """Joint table over all responses; predictors must match.

    Each row expands the single-response constraint matrix over the
    stacked coefficients with an identity response-selector Kronecker
    factor, so every term is tested on all responses at once and the
    degrees of freedom multiply by the number of responses.
    """
    _check_kind(kind)
    _require_shared_predictor(model)
    n_resp = model.n_responses
    design = model.design[0]
    infos = _term_columns(design, 0)
    h = len(model.theta_star_labels)
    n_beta = model.n_beta
    rows = []
    for i, (_, label, _) in enumerate(infos):
        cols = _selected_columns(kind, infos, i)
        single = np.zeros((len(cols), design.n_columns))
        single[np.arange(len(cols)), sorted(cols)] = 1.0
        expanded = kron_hypothesis(np.eye(n_resp), single)
        constraint = np.zeros((expanded.shape[0], h))
        constraint[:, :n_beta] = expanded
        stat, df = wald_statistic(
            model.theta_star, model.godambe_inv, constraint, np.zeros(len(constraint))
        )
        rows.append(
            TestResult(label=label, df=df, statistic=stat, p_value=chisq_sf(stat, df))
        )
    table = TestTable(
        title=f"MANOVA type {_ROMAN[kind]} using Wald statistic for fixed effects",
        caption=_predictor_caption(model),
        label_header="Covariate",
        rows=tuple(rows),
    )
    return table


def named_groups(grouping, names, where=""):
    """Distinct group indices of ``grouping`` in order of first appearance.

    Raises :class:`OptionError`, prefixed with ``where``, unless ``names``
    holds exactly one name per group. The check needs no model, so the CLI
    runs it before fitting.
    """
    groups = list(dict.fromkeys(grouping))
    if len(names) != len(groups):
        raise OptionError(f"{where}{len(names)} names for {len(groups)} groups")
    return groups


def anova_dispersion(model, groupings, names):
    """Per-response dispersion tables: each row tests one tau group = 0.

    ``groupings[r]`` assigns a group index to every dispersion parameter of
    response r (equal indices are tested jointly); ``names[r]`` holds one
    printable label per group.
    """
    if len(groupings) != model.n_responses or len(names) != model.n_responses:
        raise OptionError("one grouping vector and one name list per response")
    tables = []
    for r in range(model.n_responses):
        tau_len = len(model.lambda_hat.tau[r])
        grouping = list(groupings[r])
        if len(grouping) != tau_len:
            raise OptionError(
                f"response {r + 1}: grouping has {len(grouping)} entries for "
                f"{tau_len} dispersion parameters"
            )
        groups = named_groups(grouping, names[r], f"response {r + 1}: ")
        span = model.tau_star_spans[r]
        rows = []
        for gi, g in enumerate(groups):
            cols = [span.start + d for d, val in enumerate(grouping) if val == g]
            rows.append(_joint_row(model, names[r][gi], cols))
        tables.append(
            TestTable(
                title="ANOVA type III using Wald statistic for dispersion parameters",
                caption=model.design[r].formula.text,
                label_header="Dispersion",
                rows=tuple(rows),
            )
        )
    return tables


def manova_dispersion(model, grouping, names):
    """Joint dispersion table: each row tests a tau group across responses."""
    grouping = list(grouping)
    for r in range(model.n_responses):
        if len(model.lambda_hat.tau[r]) != len(grouping):
            raise PredictorMismatch(
                "joint dispersion tables need the same matrix-predictor "
                "length for every response"
            )
    groups = named_groups(grouping, names)
    rows = []
    for gi, g in enumerate(groups):
        cols = []
        for r in range(model.n_responses):
            span = model.tau_star_spans[r]
            cols.extend(span.start + d for d, val in enumerate(grouping) if val == g)
        rows.append(_joint_row(model, names[gi], cols))
    return TestTable(
        title="MANOVA type III using Wald statistic for dispersion parameters",
        caption=_predictor_caption(model),
        label_header="Covariate",
        rows=tuple(rows),
    )
