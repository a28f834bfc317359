"""Multiple-comparison tests over factor-level combinations.

The adjusted-means matrix has one row per observed combination of the
requested factors, each row being the design encoding of that combination
(other factors at their reference level, numeric covariates at their
sample mean). Differencing every pair of rows yields the contrast matrix;
all contrasts of a function's tables are Wald-tested as one stack, with
p-values Bonferroni-corrected per table.
"""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .chisq import chisq_sf
from .design import encode_combinations
from .errors import DataError, OptionError, RankError, SingularHypothesisError
from .model import complete_rows
from .tables import TestTable, _predictor_caption, _require_shared_predictor
from .wald import TestResult, wald_statistic


@dataclass(frozen=True)
class ContrastSet:
    """Adjusted-means rows, their pairwise differences, and labels."""

    means: np.ndarray
    contrasts: np.ndarray
    combo_labels: tuple
    contrast_labels: tuple


def _observed_combos(design, factors, data):
    if not factors:
        raise DataError("at least one factor is required for comparisons")
    for name in factors:
        if name not in design.var_kinds:
            raise DataError(
                f"{name!r} is not a variable of formula {design.formula.text!r}"
            )
        if design.var_kinds[name] != "factor":
            raise DataError(f"{name!r} is numeric; comparisons need a factor")
    observed = set(
        zip(*[tuple(data.factor(name)) for name in factors])
    )
    combos = []
    for combo in itertools.product(*[design.level_maps[f] for f in factors]):
        if combo in observed:
            combos.append(combo)
        else:
            warnings.warn(
                f"dropping unobserved combination {':'.join(combo)}",
                stacklevel=2,
            )
    return combos


def pairwise_contrasts(means):
    """Differences of every unordered pair of rows (i < j), stacked.

    Pairs run in lexicographic order: (0, 1), (0, 2), ..., (1, 2), ...
    """
    i, j = np.triu_indices(means.shape[0], k=1)
    return means[i] - means[j]


def contrast_set(model, response, factors, data):
    data, _ = complete_rows(model.spec, data)
    return _contrast_set(model.design[response], factors, data)


def _contrast_set(design, factors, data):
    """:func:`contrast_set` over data already restricted to complete rows."""
    numeric_means = {
        v: float(np.mean(data.numeric(v)))
        for v, k in design.var_kinds.items()
        if k == "numeric"
    }
    combos = _observed_combos(design, factors, data)
    assignments = [dict(zip(factors, combo)) for combo in combos]
    means = encode_combinations(design, assignments, numeric_means)
    combo_labels = tuple(":".join(combo) for combo in combos)
    labels = tuple(
        f"{combo_labels[i]}-{combo_labels[j]}"
        for i, j in zip(*np.triu_indices(len(combo_labels), k=1))
    )
    return ContrastSet(
        means=means,
        contrasts=pairwise_contrasts(means),
        combo_labels=combo_labels,
        contrast_labels=labels,
    )


def _contrast_rows(model, blocks):
    """Table rows for each ``(constraints, labels, where)`` block.

    Every block holds an ``(m, s, h)`` stack of contrast constraints with
    the same s. One stacked Wald call and one chi-square call cover every
    block; p-values are multiplied by their block's number of contrasts m
    and capped at one (Bonferroni).
    """
    stacks, label_blocks, wheres = zip(*blocks)
    counts = [len(stack) for stack in stacks]
    labels = [label for block in label_blocks for label in block]
    constraints = np.concatenate(stacks)
    try:
        stats, df = wald_statistic(
            model.theta_star,
            model.godambe_inv,
            constraints,
            np.zeros(constraints.shape[:2]),
        )
    except (RankError, SingularHypothesisError) as exc:
        # The stack entry is renumbered within its block, as its table counts.
        block = np.searchsorted(np.cumsum(counts), exc.index, side="right")
        local = exc.index - sum(counts[:block])
        reason = str(exc).removesuffix(f" (stack entry {exc.index})")
        raise type(exc)(
            f"contrast {labels[exc.index]} ({wheres[block]}): {reason} "
            f"(stack entry {local})"
        ) from None
    p_values = np.minimum(1.0, chisq_sf(stats, df) * np.repeat(counts, counts))
    rows = zip(labels, itertools.repeat(df), stats.tolist(), p_values.tolist())
    rows = itertools.starmap(TestResult, rows)
    return [tuple(itertools.islice(rows, m)) for m in counts]


def multiple_comparisons(model, effects, data):
    """Per-response pairwise comparisons with Bonferroni correction.

    ``effects[r]`` names the factors whose level combinations are compared
    for response r. Every contrast is a single-constraint Wald test, and
    one stacked Wald call covers every response; the reported p-values are
    multiplied by the response's number of contrasts and capped at one.
    """
    if len(effects) != model.n_responses:
        raise OptionError("one factor list per response")
    data, _ = complete_rows(model.spec, data)
    h = len(model.theta_star_labels)
    shared = {}  # designs with the same terms over the same rows encode alike
    blocks = []
    for r in range(model.n_responses):
        key = (model.design[r].terms, tuple(effects[r]))
        if key not in shared:
            shared[key] = _contrast_set(model.design[r], list(effects[r]), data)
        cs = shared[key]
        constraints = np.zeros((len(cs.contrasts), 1, h))
        constraints[:, 0, model.beta_spans[r]] = cs.contrasts
        blocks.append((constraints, cs.contrast_labels, f"response {r + 1}"))
    return [
        TestTable(
            title="Multiple comparisons test for each outcome using Wald statistic",
            caption=design.formula.text,
            label_header="Contrast",
            rows=rows,
        )
        for design, rows in zip(model.design, _contrast_rows(model, blocks))
    ]


def joint_multiple_comparisons(model, effects, data):
    """Multivariate comparisons: each contrast tested across all responses.

    Requires identical predictors; each contrast row expands over the
    stacked coefficients with an identity Kronecker factor, giving one
    R-constraint test per contrast.
    """
    _require_shared_predictor(model)
    cs = contrast_set(model, 0, list(effects), data)
    h = len(model.theta_star_labels)
    constraints = np.zeros((len(cs.contrasts), model.n_responses, h))
    for r in range(model.n_responses):
        constraints[:, r, model.beta_spans[r]] = cs.contrasts
    return TestTable(
        title="Multivariate multiple comparisons test using Wald statistic",
        caption=_predictor_caption(model),
        label_header="Contrast",
        rows=_contrast_rows(
            model, [(constraints, cs.contrast_labels, "all responses")]
        )[0],
    )
