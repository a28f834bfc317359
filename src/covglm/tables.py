"""ANOVA/MANOVA tables of types I-III and their dispersion analogues.

Every row is a joint Wald test of theta*[S] = 0 for a set S of columns,
and each table function tests all of its rows in one column-set Wald
call. The three types differ only in which coefficient spans each term's
row tests:

* type I: the term's own span plus every later term's span (sequential
  leave-trailing-out), so degrees of freedom shrink down the table;
* type II: the term's span plus the span of every interaction whose
  variable set strictly contains it;
* type III: the term's span alone (fully marginal).

The intercept row tests everything for type I and the intercept alone for
types II and III. Multivariate tables take a row's columns on every
response (the identity Kronecker expansion of the single-response row)
over identical predictors, multiplying the degrees of freedom by the
number of responses.
"""

import itertools
from dataclasses import dataclass

from .chisq import chisq_sf
from .errors import OptionError, PredictorMismatch, RankError, SingularHypothesisError
from .formula import term_label
from .wald import TestResult, wald_statistic

_ROMAN = {1: "I", 2: "II", 3: "III"}


@dataclass(frozen=True)
class TestTable:
    """A titled block of test rows, one table per printed Call."""

    __test__ = False  # domain type, not a pytest class

    title: str
    caption: str
    label_header: str
    rows: tuple


def _test_rows(model, tests):
    """Rows testing theta*[S] = 0 for each (columns S, label, row name).

    One column-set Wald call and one chi-square call cover every row; an
    error is prefixed with the failing row's name.
    """
    sets, labels, names = zip(*tests)
    try:
        stats, df = wald_statistic(model.theta_star, model.godambe_inv, sets, None)
    except (RankError, SingularHypothesisError) as exc:
        raise type(exc)(f"{names[exc.index]}: {exc}") from None
    rows = zip(labels, df.tolist(), stats.tolist(), chisq_sf(stats, df).tolist())
    return tuple(itertools.starmap(TestResult, rows))


def _response_tables(model, tests, title, label_header):
    """One table per response from its list of tests, all in one batch."""
    rows = iter(_test_rows(model, [t for response in tests for t in response]))
    return [
        TestTable(
            title=title,
            caption=design.formula.text,
            label_header=label_header,
            rows=tuple(itertools.islice(rows, len(response))),
        )
        for design, response in zip(model.design, tests)
    ]


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
        return [c for _, _, later in infos[index:] for c in later]
    if kind == 3 or not term:
        return own
    wider = [c for t, _, cols in infos if t and set(t) > set(term) for c in cols]
    return own + wider


def _check_kind(kind):
    if kind not in _ROMAN:
        raise OptionError(f"table type must be 1, 2 or 3, got {kind!r}")


def anova(model, kind):
    """Per-response ANOVA tables of the requested type (1, 2 or 3)."""
    _check_kind(kind)
    tests = []
    for r, (design, span) in enumerate(zip(model.design, model.beta_spans)):
        infos = _term_columns(design, span.start)
        where = f"(response {r + 1})"
        tests.append(
            [
                (_selected_columns(kind, infos, i), label, f"term {label} {where}")
                for i, (_, label, _) in enumerate(infos)
            ]
        )
    return _response_tables(
        model,
        tests,
        f"ANOVA type {_ROMAN[kind]} using Wald statistic for fixed effects",
        "Covariate",
    )


def _require_shared_predictor(model):
    def signature(design):
        return [(tuple(t), design.span(t)[1] - design.span(t)[0]) for t in design.terms]

    if any(signature(d) != signature(model.design[0]) for d in model.design[1:]):
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

    Each row tests a term's columns on every response at once (the
    single-response selector expanded with an identity response-selector
    Kronecker factor), so the degrees of freedom multiply by the number of
    responses.
    """
    _check_kind(kind)
    _require_shared_predictor(model)
    infos = _term_columns(model.design[0], 0)
    tests = []
    for i, (_, label, _) in enumerate(infos):
        cols = _selected_columns(kind, infos, i)
        joint = [span.start + c for span in model.beta_spans for c in cols]
        tests.append((joint, label, f"term {label} (all responses)"))
    return TestTable(
        title=f"MANOVA type {_ROMAN[kind]} using Wald statistic for fixed effects",
        caption=_predictor_caption(model),
        label_header="Covariate",
        rows=_test_rows(model, tests),
    )


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
    tests = []
    for r in range(model.n_responses):
        tau_len = len(model.lambda_hat.tau[r])
        grouping = list(groupings[r])
        if len(grouping) != tau_len:
            raise OptionError(
                f"response {r + 1}: grouping has {len(grouping)} entries for "
                f"{tau_len} dispersion parameters"
            )
        groups = named_groups(grouping, names[r], f"response {r + 1}: ")
        start = model.tau_star_spans[r].start
        tests.append([])
        for g, name in zip(groups, names[r]):
            cols = [start + d for d, val in enumerate(grouping) if val == g]
            tests[-1].append((cols, name, f"dispersion {name} (response {r + 1})"))
    return _response_tables(
        model,
        tests,
        "ANOVA type III using Wald statistic for dispersion parameters",
        "Dispersion",
    )


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
    tests = []
    for g, name in zip(groups, names):
        own = [d for d, val in enumerate(grouping) if val == g]
        cols = [span.start + d for span in model.tau_star_spans for d in own]
        tests.append((cols, name, f"dispersion {name} (all responses)"))
    return TestTable(
        title="MANOVA type III using Wald statistic for dispersion parameters",
        caption=_predictor_caption(model),
        label_header="Covariate",
        rows=_test_rows(model, tests),
    )
