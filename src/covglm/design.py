"""Design-matrix construction with term metadata.

Factors are dummy-coded with treatment contrasts: levels are ordered by
lexicographic sort of their string values, the first level is the reference
and gets no column. Interaction columns are elementwise products of the
constituent main-effect columns, first constituent varying slowest. The
term -> column-span map drives all downstream degrees-of-freedom logic.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DegenerateFactor, MissingColumnError
from .formula import Formula


@dataclass(frozen=True)
class DesignInfo:
    """The coding of a design: its terms, columns and factor levels.

    ``term_spans`` maps each term (the intercept is the empty tuple) to a
    ``(start, stop)`` column range; spans partition the columns in term
    order. ``level_maps`` records the ordered levels of every factor so
    that synthetic observations can be encoded consistently later. The
    matrix itself stays with the data it was built from
    (``BoundModel.x``).
    """

    formula: Formula
    terms: tuple
    term_spans: dict
    column_labels: tuple
    level_maps: dict
    var_kinds: dict

    @property
    def n_columns(self):
        return len(self.column_labels)

    def span(self, term):
        return self.term_spans[frozenset(term)]


def finite_numeric(data, name):
    """A numeric column as floats, with an infinite value a DataError."""
    values = np.asarray(data.numeric(name), dtype=float)
    if not np.isfinite(values).all():
        raise DataError(f"column {name!r} has non-finite values")
    return values


def _variable_order(formula):
    seen = []
    for term in formula.terms:
        for v in term:
            if v not in seen:
                seen.append(v)
    return seen


def _var_encoding(var, kind, levels, values):
    """Columns and labels contributed by one variable.

    Numeric variables contribute their single column; factors contribute
    one indicator column per non-reference level.
    """
    if kind == "numeric":
        return [np.asarray(values, dtype=float)], [var]
    values = np.asarray(values, dtype=object)
    cols = [(values == level).astype(float) for level in levels[1:]]
    return cols, [f"{var}={level}" for level in levels[1:]]


def _term_columns(term, var_data):
    """All columns of one term: the cross product of its variables' columns.

    A product of finite values may overflow; ``build_design`` rejects the
    non-finite entries that leaves, so numpy's warning is silenced here.
    """
    encodings = [_var_encoding(v, *var_data[v]) for v in term]
    columns = []
    labels = []
    for parts in itertools.product(*[list(zip(c, l)) for c, l in encodings]):
        col = parts[0][0].copy()
        for other, _ in parts[1:]:
            with np.errstate(over="ignore", invalid="ignore"):
                col = col * other
        columns.append(col)
        labels.append(":".join(label for _, label in parts))
    return columns, labels


def _assemble(formula, var_data, n):
    columns = [np.ones(n)]
    labels = ["Intercept"]
    spans = {frozenset(()): (0, 1)}
    terms = ((),) + tuple(formula.terms)
    for term in formula.terms:
        start = len(columns)
        cols, labs = _term_columns(term, var_data)
        columns.extend(cols)
        labels.extend(labs)
        spans[frozenset(term)] = (start, len(columns))
    X = np.column_stack(columns) if columns else np.empty((n, 0))
    return X, terms, spans, tuple(labels)


def build_design(formula, data):
    """The coding and the read-only design matrix of a formula over a
    dataset, as ``(DesignInfo, X)``.

    The dataset must already be restricted to complete rows for the bound
    columns; factors need at least two observed levels.
    """
    var_data = {}
    level_maps = {}
    var_kinds = {}
    for var in _variable_order(formula):
        if not data.has(var):
            raise MissingColumnError(f"formula references unknown column {var!r}")
        kind = data.kind(var)
        var_kinds[var] = kind
        if kind == "factor":
            values = data.factor(var)
            levels = sorted({v for v in values if v is not None})
            if len(levels) < 2:
                shown = levels[0] if levels else "<none>"
                raise DegenerateFactor(
                    f"factor {var!r} has a single observed level {shown!r}"
                )
            level_maps[var] = tuple(levels)
            var_data[var] = (kind, levels, values)
        else:
            var_data[var] = (kind, None, finite_numeric(data, var))
    X, terms, spans, labels = _assemble(formula, var_data, data.n_rows)
    if not np.isfinite(X).all():
        raise DataError("design matrix contains non-finite entries")
    X.flags.writeable = False
    design = DesignInfo(
        formula=formula,
        terms=terms,
        term_spans=spans,
        column_labels=labels,
        level_maps=level_maps,
        var_kinds=var_kinds,
    )
    return design, X


def encode_combinations(design, assignments, numeric_values=None):
    """Encode synthetic observations against an existing design.

    Each entry of ``assignments`` maps factor names to levels; unassigned
    factors sit at their reference level and numeric variables take the
    value given in ``numeric_values`` (default 0.0). Returns an
    ``(len(assignments), k)`` matrix, one row per assignment.
    """
    numeric_values = numeric_values or {}
    n = len(assignments)
    var_data = {}
    for var, kind in design.var_kinds.items():
        if kind == "factor":
            levels = list(design.level_maps[var])
            values = [a.get(var, levels[0]) for a in assignments]
            for level in values:
                if level not in levels:
                    raise DataError(f"unknown level {level!r} for factor {var!r}")
            var_data[var] = (kind, levels, np.array(values, dtype=object))
        else:
            value = float(numeric_values.get(var, 0.0))
            var_data[var] = (kind, None, np.full(n, value))
    X, _, _, _ = _assemble(design.formula, var_data, n)
    return X
