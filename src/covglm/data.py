"""CSV-backed datasets with numeric/factor type inference.

A column is numeric iff every non-missing entry parses as a decimal number;
otherwise it is a factor. Missing entries are the empty string and the
tokens ``NA``/``NaN`` (case-insensitive). Inference can be overridden per
column through the model-spec file.
"""

import csv

import numpy as np

from .errors import DataError

_MISSING_TOKENS = {"", "na", "nan"}


def _is_missing(token):
    return token.strip().lower() in _MISSING_TOKENS


def _numeric(cells):
    """``(values, None)``, the cells as floats with NaN where missing, or
    ``(None, i)`` at the first cell ``i`` that does not parse."""
    values = np.empty(len(cells))
    for i, cell in enumerate(cells):
        try:
            values[i] = np.nan if _is_missing(cell) else float(cell)
        except ValueError:
            return None, i
    return values, None


class Dataset:
    """Immutable columnar dataset.

    Numeric columns are float64 arrays with NaN for missing entries; factor
    columns are object arrays of strings with None for missing entries.
    """

    def __init__(self, columns, kinds):
        self._columns = dict(columns)
        self._kinds = dict(kinds)
        lengths = {len(v) for v in self._columns.values()}
        if len(lengths) > 1:
            raise DataError("columns have inconsistent lengths")
        self._n = lengths.pop() if lengths else 0

    @classmethod
    def from_csv(cls, path, column_types=None):
        """Load a headered CSV file, inferring column kinds.

        ``column_types`` maps column names to 'numeric' or 'factor' and
        overrides inference for those columns.
        """
        column_types = column_types or {}
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file (header row required)") from None
            rows = [row for row in reader if any(cell.strip() for cell in row)]
        names = [h.strip() for h in header]
        if len(set(names)) != len(names):
            raise DataError(f"{path}: duplicate column names in header")
        raw = {name: [] for name in names}
        for rownum, row in enumerate(rows, start=2):
            if len(row) != len(names):
                raise DataError(
                    f"{path}: row {rownum} has {len(row)} fields, expected {len(names)}"
                )
            for name, cell in zip(names, row):
                raw[name].append(cell.strip())
        for forced in column_types:
            if forced not in raw:
                raise DataError(f"column type override names unknown column {forced!r}")
        columns = {}
        kinds = {}
        for name in names:
            cells = raw[name]
            forced = column_types.get(name)
            if forced not in (None, "numeric", "factor"):
                raise DataError(
                    f"column {name!r}: invalid type override {forced!r} "
                    "(use 'numeric' or 'factor')"
                )
            values, bad = (None, None) if forced == "factor" else _numeric(cells)
            if bad is not None and forced == "numeric":
                raise DataError(
                    f"column {name!r} forced numeric but entry {cells[bad]!r} "
                    f"(row {bad + 2}) does not parse"
                )
            if values is not None:
                columns[name] = values
                kinds[name] = "numeric"
            else:
                values = np.array(
                    [None if _is_missing(c) else c for c in cells], dtype=object
                )
                columns[name] = values
                kinds[name] = "factor"
        return cls(columns, kinds)

    @property
    def n_rows(self):
        return self._n

    @property
    def names(self):
        return tuple(self._columns)

    def has(self, name):
        return name in self._columns

    def kind(self, name):
        self._require(name)
        return self._kinds[name]

    def column(self, name):
        self._require(name)
        return self._columns[name]

    def numeric(self, name):
        self._require(name)
        if self._kinds[name] != "numeric":
            raise DataError(f"column {name!r} is a factor, expected numeric")
        return self._columns[name]

    def factor(self, name):
        self._require(name)
        if self._kinds[name] != "factor":
            raise DataError(f"column {name!r} is numeric, expected a factor")
        return self._columns[name]

    def missing_mask(self, names):
        """Boolean mask of rows missing a value in any of the named columns."""
        mask = np.zeros(self._n, dtype=bool)
        for name in names:
            col = self.column(name)
            if self._kinds[name] == "numeric":
                mask |= np.isnan(col)
            else:
                mask |= np.array([v is None for v in col], dtype=bool)
        return mask

    def subset(self, keep):
        """New dataset restricted to rows where ``keep`` is True."""
        keep = np.asarray(keep, dtype=bool)
        columns = {name: col[keep] for name, col in self._columns.items()}
        return Dataset(columns, self._kinds)

    def _require(self, name):
        if name not in self._columns:
            raise DataError(f"no column named {name!r} in the dataset")
