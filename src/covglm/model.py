"""Declarative model specification and its binding to a dataset.

A model is a list of response specifications: formula, link, variance
function (with fixed power), matrix linear predictor, optional offset
column (link scale) and optional binomial trial column. The JSON file
format is documented in the README; ``load_model_spec`` reads it.
"""

import json
import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .covariance import RowClusters
from .design import build_design, finite_numeric
from .errors import DataError, MissingColumnError, ModelSpecError
from .families import LINK_KINDS, VARIANCE_KINDS, Link, VarianceFn
from .formula import Formula, parse_formula

log = logging.getLogger("covglm")


@dataclass(frozen=True)
class MatrixComponent:
    """One matrix of the matrix linear predictor.

    ``identity`` is the N x N identity; ``grouping`` is A A^T for the
    indicator matrix A of the named factor column (shared-group
    covariance, the repeated-measures structure).
    """

    kind: str
    column: str = None

    def __post_init__(self):
        if self.kind not in ("identity", "grouping"):
            raise ModelSpecError(f"unknown matrix predictor kind {self.kind!r}")
        if self.kind == "grouping" and not self.column:
            raise ModelSpecError("grouping matrix predictor needs a 'column'")


@dataclass(frozen=True)
class ResponseSpec:
    formula: Formula
    link: Link
    variance: VarianceFn
    matrix_pred: tuple
    offset_column: str = None
    ntrial_column: str = None

    def __post_init__(self):
        if not self.matrix_pred:
            raise ModelSpecError(
                f"response {self.formula.response!r}: matrix predictor is empty"
            )
        if self.ntrial_column is not None and self.variance.kind != "binomialP":
            raise ModelSpecError(
                f"response {self.formula.response!r}: ntrial requires the "
                "binomialP variance"
            )


@dataclass(frozen=True)
class ModelSpec:
    """Full model: one spec per response plus column-type overrides."""

    responses: tuple
    column_types: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.responses) < 1:
            raise ModelSpecError("a model needs at least one response")

    @property
    def n_responses(self):
        return len(self.responses)

    def bound_columns(self):
        """All data columns the model reads."""
        cols = []
        for resp in self.responses:
            cols.append(resp.formula.response)
            for term in resp.formula.terms:
                cols.extend(term)
            if resp.offset_column:
                cols.append(resp.offset_column)
            if resp.ntrial_column:
                cols.append(resp.ntrial_column)
            for comp in resp.matrix_pred:
                if comp.kind == "grouping":
                    cols.append(comp.column)
        seen = []
        for c in cols:
            if c not in seen:
                seen.append(c)
        return seen


def parse_model_spec(obj):
    """Build a :class:`ModelSpec` from a parsed JSON document."""
    if not isinstance(obj, dict) or "responses" not in obj:
        raise ModelSpecError("model spec must be an object with a 'responses' list")
    entries = obj["responses"]
    if not isinstance(entries, list) or not entries:
        raise ModelSpecError("'responses' must be a non-empty list")
    responses = []
    for i, entry in enumerate(entries):
        where = f"responses[{i}]"
        if not isinstance(entry, dict):
            raise ModelSpecError(f"{where}: expected an object")
        for key in ("formula", "link", "variance"):
            if key not in entry:
                raise ModelSpecError(f"{where}: missing required field {key!r}")
        link = entry["link"]
        if link not in LINK_KINDS:
            raise ModelSpecError(f"{where}: unknown link {link!r}")
        variance = entry["variance"]
        if variance not in VARIANCE_KINDS:
            raise ModelSpecError(f"{where}: unknown variance {variance!r}")
        power = float(entry.get("power", 1.0))
        raw_pred = entry.get("matrix_pred", [{"kind": "identity"}])
        if not isinstance(raw_pred, list) or not raw_pred:
            raise ModelSpecError(f"{where}: matrix_pred must be a non-empty list")
        comps = []
        for j, comp in enumerate(raw_pred):
            if not isinstance(comp, dict) or "kind" not in comp:
                raise ModelSpecError(f"{where}: matrix_pred[{j}] needs a 'kind'")
            comps.append(MatrixComponent(comp["kind"], comp.get("column")))
        responses.append(
            ResponseSpec(
                formula=parse_formula(entry["formula"]),
                link=Link(link),
                variance=VarianceFn(variance, power),
                matrix_pred=tuple(comps),
                offset_column=entry.get("offset_column"),
                ntrial_column=entry.get("ntrial_column"),
            )
        )
    column_types = obj.get("column_types", {})
    if not isinstance(column_types, dict):
        raise ModelSpecError("'column_types' must be an object")
    return ModelSpec(responses=tuple(responses), column_types=dict(column_types))


def load_model_spec(path):
    with open(path, encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ModelSpecError(f"{path}: not valid JSON ({exc})") from None
    return parse_model_spec(obj)


def model_spec_json(spec):
    """Canonical JSON form of a model spec (used for hashing and fit files)."""
    entries = []
    for resp in spec.responses:
        entry = {
            "formula": resp.formula.text,
            "link": resp.link.kind,
            "variance": resp.variance.kind,
            "power": resp.variance.power,
            "matrix_pred": [
                {"kind": c.kind} if c.kind == "identity" else {"kind": c.kind, "column": c.column}
                for c in resp.matrix_pred
            ],
        }
        if resp.offset_column:
            entry["offset_column"] = resp.offset_column
        if resp.ntrial_column:
            entry["ntrial_column"] = resp.ntrial_column
        entries.append(entry)
    doc = {"responses": entries}
    if spec.column_types:
        doc["column_types"] = dict(sorted(spec.column_types.items()))
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def grouping_matrix(values):
    """Level codes of group membership. They represent Z = A A^T for the
    indicator matrix A: Z_ab = 1 exactly where rows a and b share a code."""
    _, codes = np.unique(np.asarray(values), return_inverse=True)
    return codes


def _pair_count(a, b):
    """tr(Z_a Z_b) from level codes: the number of ordered row pairs that
    share a level of both, the sum of squared counts of the (a, b) pairs."""
    return float(np.sum(np.unique(a * (b.max() + 1) + b, return_counts=True)[1] ** 2))


def rank_tolerance(matrix):
    """``np.linalg.matrix_rank``'s default tolerance for ``matrix``; inf
    when its largest singular value is within a factor max(shape) of
    overflow."""
    with np.errstate(over="ignore"):
        return np.linalg.norm(matrix, 2) * max(matrix.shape) * np.finfo(float).eps


def redundant_columns(matrix):
    """Indices of the columns that add no rank to the columns before them.

    This is R's aliasing order. Every leading block is ranked at the whole
    matrix's ``matrix_rank`` tolerance, so exactly as many columns are
    named as the whole matrix lacks in rank.
    """
    tol = rank_tolerance(matrix)
    ranks = [0] + [
        np.linalg.matrix_rank(matrix[:, :j], tol=tol) for j in range(1, matrix.shape[1] + 1)
    ]
    return [j for j in range(matrix.shape[1]) if ranks[j + 1] == ranks[j]]


def _check_identifiable(name, components, codes):
    """Raise unless the Z_d of one response are linearly independent.

    Z_d is redundant, and its tau not identifiable, when its column of the
    Gram matrix tr(Z_i Z_j) adds no rank to the columns before it.
    """
    gram = np.array([[_pair_count(a, b) for b in codes] for a in codes])
    rank = np.linalg.matrix_rank(gram)
    if rank < len(codes):
        labels = [c.kind if c.kind == "identity" else f"grouping({c.column})" for c in components]
        redundant = [labels[d] for d in redundant_columns(gram)]
        raise ModelSpecError(
            f"response {name!r}: matrix predictor components {', '.join(labels)} "
            f"are linearly dependent (rank {rank} of {len(codes)}); "
            f"redundant: {', '.join(redundant)}"
        )


@dataclass(frozen=True)
class BoundModel:
    """A model spec resolved against data: the coding of each response's
    design and its read-only design matrix ``x[r]``, responses, and Z_d of
    response r as ``z_codes[r][d]``, one level code per row (identity:
    0..N-1; grouping: ``grouping_matrix``). A response without an offset
    column has an offset of zeros."""

    spec: ModelSpec
    designs: tuple
    x: tuple
    y: tuple
    offsets: tuple
    ntrials: tuple
    z_codes: tuple
    n_obs: int
    n_dropped: int

    @property
    def n_responses(self):
        return len(self.designs)

    @cached_property
    def clusters(self):
        """Row clusters of ``z_codes``, found once per bound model."""
        return RowClusters.of(self.z_codes)

    @cached_property
    def z_blocks(self):
        """The cluster blocks of every Z_d, formed once per bound model."""
        return self.clusters.z_blocks(self.z_codes)

    @cached_property
    def z_owner(self):
        """The response of every Z_d, in the flat order of ``z_blocks``."""
        return np.repeat(np.arange(self.n_responses), [len(c) for c in self.z_codes])


def complete_rows(spec, data):
    """Restrict a dataset to rows complete in every bound column.

    Returns ``(subset, n_dropped)``; the drop count is logged.
    """
    cols = spec.bound_columns()
    for col in cols:
        if not data.has(col):
            raise MissingColumnError(f"model references unknown column {col!r}")
    mask = data.missing_mask(cols)
    n_dropped = int(mask.sum())
    if n_dropped:
        log.info("dropped %d rows with missing values in bound columns", n_dropped)
        data = data.subset(~mask)
    return data, n_dropped


def bind(spec, data):
    """Bind a model spec to a dataset, producing everything fitting needs."""
    data, n_dropped = complete_rows(spec, data)
    n = data.n_rows
    if n == 0:
        raise DataError("no rows after missing-data removal")
    designs = []
    xs = []
    ys = []
    offsets = []
    ntrials = []
    z_codes = []
    for resp in spec.responses:
        name = resp.formula.response
        y = finite_numeric(data, name)
        design, x = build_design(resp.formula, data)
        designs.append(design)
        xs.append(x)
        offset = resp.offset_column
        offsets.append(finite_numeric(data, offset) if offset else np.zeros(n))
        if resp.ntrial_column:
            nt = finite_numeric(data, resp.ntrial_column)
            if not np.all(nt > 0) or not np.all(nt == np.round(nt)):
                raise ModelSpecError(
                    f"response {name!r}: ntrial column must hold positive integers"
                )
            if np.any(y < 0) or np.any(y > 1):
                raise ModelSpecError(
                    f"response {name!r}: with ntrial, responses must be "
                    "proportions in [0, 1]"
                )
            ntrials.append(nt)
        else:
            ntrials.append(None)
        codes = tuple(
            grouping_matrix(data.factor(c.column)) if c.kind == "grouping" else np.arange(n)
            for c in resp.matrix_pred
        )
        _check_identifiable(name, resp.matrix_pred, codes)
        z_codes.append(codes)
        ys.append(y)
    return BoundModel(
        spec=spec,
        designs=tuple(designs),
        x=tuple(xs),
        y=tuple(ys),
        offsets=tuple(offsets),
        ntrials=tuple(ntrials),
        z_codes=tuple(z_codes),
        n_obs=n,
        n_dropped=n_dropped,
    )
