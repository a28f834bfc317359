"""Degenerate inputs through the CLI: each either fits or fails in one line.

Every case runs ``covglm summary`` on a small CSV with a short iteration
budget. The exit code must be 0 (fit), 2 (printed under a non-convergence
warning) or 1, and an exit of 1 must come with exactly one stderr line. An
exception other than ``CovglmError`` escapes ``run`` and fails the test.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import PROPERTY_SETTINGS
from hypothesis import given
from hypothesis import strategies as st

from covglm.cli import run

N = 40
SHORT = 24
IDENTITY = [{"kind": "identity"}]
GROUPED = [{"kind": "identity"}, {"kind": "grouping", "column": "g"}]


def _response(formula, link="identity", variance="constant", matrix_pred=IDENTITY):
    return {
        "formula": formula,
        "link": link,
        "variance": variance,
        "matrix_pred": matrix_pred,
    }


def _all_zero_counts(variance):
    rng = np.random.default_rng(1)
    columns = {"y": np.zeros(N), "x": rng.normal(size=N)}
    return columns, [_response("y ~ x", "log", variance)]


def _single_group():
    rng = np.random.default_rng(2)
    x = rng.normal(size=N)
    columns = {"y": 1.0 + x + rng.normal(size=N), "x": x, "g": ["G1"] * N}
    return columns, [_response("y ~ x", matrix_pred=GROUPED)]


def _logit_separation():
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.uniform(-3, -0.5, N // 2), rng.uniform(0.5, 3, N // 2)])
    columns = {"y": (x > 0).astype(float), "x": x}
    return columns, [_response("y ~ x", "logit", "binomialP")]


def _constant_covariate():
    rng = np.random.default_rng(4)
    columns = {"y": rng.normal(size=N), "x": np.full(N, 2.5)}
    return columns, [_response("y ~ x")]


def _correlation_toward_one():
    # Nearly duplicated responses drive the fitted correlation against 1.
    rng = np.random.default_rng(5)
    x = rng.normal(size=N)
    y1 = 1.0 + 0.5 * x + rng.normal(size=N)
    columns = {"y1": y1, "y2": y1 + 1e-4 * rng.normal(size=N), "x": x}
    return columns, [_response("y1 ~ x"), _response("y2 ~ x")]


def _infinite(column):
    # "inf" parses as a number; bind must reject it, naming the column.
    rng = np.random.default_rng(6)
    columns = {
        "y": rng.poisson(5.0, size=N).astype(float),
        "x": rng.normal(size=N),
        "lexp": np.zeros(N),
        "trials": np.full(N, 10.0),
    }
    columns[column][N // 2] = np.inf
    if column == "trials":
        columns["y"] = rng.binomial(10, 0.4, size=N) / 10.0
        response = dict(_response("y ~ x", "logit", "binomialP"), ntrial_column="trials")
    else:
        response = dict(_response("y ~ x", "log", "tweedie"), offset_column="lexp")
    return columns, [response]


def _overflowing_interaction():
    # x and z are finite, but their product overflows in one row.
    rng = np.random.default_rng(7)
    columns = {"y": rng.normal(size=N), "x": rng.normal(size=N), "z": rng.normal(size=N)}
    columns["x"][N // 2] = columns["z"][N // 2] = 1e200
    return columns, [_response("y ~ x * z")]


def _huge_response():
    # Residuals of order 1e300 overflow u u^T in the Pearson function.
    rng = np.random.default_rng(8)
    columns = {"y": 1e300 * (1.0 + 0.1 * rng.normal(size=N)), "x": rng.normal(size=N)}
    return columns, [_response("y ~ x")]


def _huge_log_mean():
    # Means of order 1e300 overflow the covariance of every halved
    # coefficient step of the first iteration.
    rng = np.random.default_rng(13)
    columns = {"y": 1e300 * rng.uniform(1.0, 2.0, size=N), "x": rng.normal(size=N)}
    return columns, [_response("y ~ x", "log", "tweedie")]


def _negative_counts():
    # A log-link step toward the negative counts overflows exp(eta).
    rng = np.random.default_rng(12)
    columns = {"y": -rng.poisson(5.0, size=N).astype(float), "x": rng.normal(size=N)}
    return columns, [_response("y ~ x", "log", "poisson_tweedie")]


def _huge_constant_variance_log_mean():
    # Under the constant variance the covariance ignores the mean, so only
    # the estimating functions, D^T C^-1 D of order 1e308, overflow.
    rng = np.random.default_rng(14)
    columns = {"y": 1e154 * rng.uniform(1.0, 2.0, size=SHORT), "x": rng.normal(size=SHORT)}
    return columns, [_response("y ~ x", "log")]


def _alternating_huge_response():
    # Responses alternating 1e250 and 1 under a log link and the constant
    # variance.
    rng = np.random.default_rng(15)
    y = np.where(np.arange(SHORT) % 2 == 0, 1e250, 1.0)
    return {"y": y, "x": rng.normal(size=SHORT)}, [_response("y ~ x", "log")]


def _huge_tweedie_response():
    # The fit runs out of iterations and r^4 in the fourth-cumulant term
    # overflows; the non-finite sandwich is the one reported line.
    rng = np.random.default_rng(16)
    columns = {"y": 1e100 * rng.uniform(1.0, 2.0, size=SHORT), "x": rng.normal(size=SHORT)}
    return columns, [_response("y ~ x", "log", "tweedie")]


def _huge_tweedie_power():
    # mu**400 overflows for means past about 6.
    rng = np.random.default_rng(10)
    columns = {"y": rng.uniform(5.0, 25.0, size=N), "x": rng.normal(size=N)}
    return columns, [dict(_response("y ~ x", "log", "tweedie"), power=400.0)]


def _unresolvable_scale():
    # Half the covariate is of order 1e200: the intercept's column norm is
    # under the rank test's tolerance, though the columns are independent.
    rng = np.random.default_rng(11)
    x = rng.normal(size=N)
    x[: N // 2] *= 1e200
    return {"y": rng.normal(size=N), "x": x}, [_response("y ~ x")]


def _covariate_near_overflow():
    # One covariate of 1e308: the rank test's tolerance, the largest
    # singular value times the row count, overflows.
    rng = np.random.default_rng(17)
    x = rng.normal(size=N)
    x[0] = 1e308
    return {"y": rng.normal(size=N), "x": x}, [_response("y ~ x")]


INFINITE = {
    "inf-response": "y",
    "inf-offset": "lexp",
    "inf-trials": "trials",
    "inf-covariate": "x",
}

CASES = {
    **{case: (lambda column=column: _infinite(column)) for case, column in INFINITE.items()},
    "all-zero-tweedie": lambda: _all_zero_counts("tweedie"),
    "all-zero-poisson_tweedie": lambda: _all_zero_counts("poisson_tweedie"),
    "single-group": _single_group,
    "logit-separation": _logit_separation,
    "constant-covariate": _constant_covariate,
    "rho-toward-one": _correlation_toward_one,
    "overflow-interaction": _overflowing_interaction,
    "huge-response": _huge_response,
    "huge-log-mean": _huge_log_mean,
    "huge-log-mean-constant-variance": _huge_constant_variance_log_mean,
    "alternating-huge-response": _alternating_huge_response,
    "huge-tweedie-response": _huge_tweedie_response,
    "negative-counts": _negative_counts,
    "tweedie-power-400": _huge_tweedie_power,
    "unresolvable-scale": _unresolvable_scale,
    "covariate-near-overflow": _covariate_near_overflow,
}


def _summary(case, tmp_path, capsys, *options):
    """Exit code and stderr of ``covglm summary`` on one case, with any
    further command-line ``options``."""
    columns, responses = CASES[case]()
    names = list(columns)
    lines = [",".join(names)]
    for row in zip(*(columns[name] for name in names)):
        lines.append(",".join(str(value) for value in row))
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(lines) + "\n")
    spec_path = tmp_path / "model.json"
    spec_path.write_text(json.dumps({"responses": responses}))
    code = run(
        [
            "summary",
            "--data", str(data_path),
            "--model", str(spec_path),
            "--max-iter", "15",
            *options,
        ]
    )
    return code, capsys.readouterr().err


@pytest.mark.parametrize("case", sorted(CASES))
def test_degenerate_input_fits_or_fails_in_one_line(case, tmp_path, capsys):
    code, err = _summary(case, tmp_path, capsys)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.count("\n") == 1
        assert err.startswith("error [")


def test_overflowing_interaction_is_a_data_error(tmp_path, capsys):
    code, err = _summary("overflow-interaction", tmp_path, capsys)
    assert code == 1
    assert err == "error [data]: design matrix contains non-finite entries\n"


@pytest.mark.parametrize("case", sorted(INFINITE))
def test_non_finite_column_is_a_data_error_naming_it(case, tmp_path, capsys):
    code, err = _summary(case, tmp_path, capsys)
    assert code == 1
    assert err == f"error [data]: column {INFINITE[case]!r} has non-finite values\n"


def test_unresolvable_column_scale_is_named_as_such(tmp_path, capsys):
    code, err = _summary("unresolvable-scale", tmp_path, capsys)
    assert code == 1
    assert err.startswith("error [estimator]: design for response 'y': its columns differ ")
    assert "in scale by more than the rank test can resolve" in err
    assert "redundant" not in err


def test_covariate_near_overflow_is_an_unresolvable_scale(tmp_path, capsys):
    # The overflowing rank tolerance reads as infinite, so the intercept's
    # column is named as beyond the rank test's resolution.
    code, err = _summary("covariate-near-overflow", tmp_path, capsys)
    assert code == 1
    assert "in scale by more than the rank test can resolve" in err


def test_failing_starting_point_closes_the_trace_file(tmp_path, capsys, monkeypatch):
    # The starting covariance fails before the first iteration; the
    # --trace file opened for the fit is closed all the same.
    from covglm import estimator

    traces = []
    original_init = estimator._Trace.__init__

    def recording_init(self, path):
        original_init(self, path)
        traces.append(self)

    monkeypatch.setattr(estimator._Trace, "__init__", recording_init)
    trace_path = tmp_path / "trace.tsv"
    code, err = _summary("tweedie-power-400", tmp_path, capsys, "--trace", str(trace_path))
    assert code == 1
    assert err.startswith("error [covariance]: ")
    (trace,) = traces
    assert trace.handle.closed


@pytest.mark.parametrize(
    "case",
    [
        "huge-log-mean-constant-variance",
        "alternating-huge-response",
        "huge-tweedie-response",
    ],
)
def test_overflowing_fit_systems_fail_in_one_line(case, tmp_path, capsys):
    code, err = _summary(case, tmp_path, capsys)
    assert code == 1
    assert err.count("\n") == 1
    assert "non-finite entries" in err


_LINK_RANGES = {"identity": (-1.0, 10.0), "log": (0.0, 10.0), "logit": (0.0, 1.0)}
_VARIANCES = ["constant", "tweedie", "poisson_tweedie", "binomialP"]
_POWERS = [-1.0, 0.0, 1.0, 1.0, 1.5, 2.0, 50.0, 400.0]
# Mostly unscaled, so that a good share of the draws get as far as a fit.
_SCALES = [1.0, 1.0, 1.0, 1e-300, 1e100, 1e154, 1e200, 1e300]
_COVARIATE_SCALES = [1.0] * 6 + [1e-300, 1e300]
_TOKENS = ["nan", "inf", "-inf", "", "NA", "1e308", "-1e308"]


@st.composite
def _cells(draw, values, scales=_SCALES):
    """The values times one of ``scales`` as CSV cells, with at most one
    cell replaced by NaN, infinity, empty or overflowing tokens."""
    scale = draw(st.sampled_from(scales))
    cells = [repr(float(v) * scale) for v in values]
    for i, token in draw(
        st.lists(st.tuples(st.integers(0, len(cells) - 1), st.sampled_from(_TOKENS)), max_size=1)
    ):
        cells[i] = token
    return cells


@st.composite
def _csv_and_spec(draw):
    """A CSV of 1-24 rows and a spec of 1-2 responses over it: any link,
    variance kind and power, identity or grouped Z (a factor with empty
    cells and levels that may hold one row)."""
    n = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    links = draw(st.lists(st.sampled_from(sorted(_LINK_RANGES)), min_size=1, max_size=2))
    columns = {
        f"y{r}": draw(_cells(rng.uniform(*_LINK_RANGES[link], size=n)))
        for r, link in enumerate(links)
    }
    columns["x"] = draw(_cells(rng.normal(size=n), _COVARIATE_SCALES))
    columns["g"] = draw(st.lists(st.sampled_from(["a", "b", "c", ""]), min_size=n, max_size=n))
    responses = [
        {
            "formula": f"y{r} ~ x",
            "link": link,
            "variance": draw(st.sampled_from(_VARIANCES)),
            "power": draw(st.sampled_from(_POWERS)),
            "matrix_pred": draw(st.sampled_from([IDENTITY, GROUPED])),
        }
        for r, link in enumerate(links)
    ]
    lines = [",".join(columns)] + [",".join(row) for row in zip(*columns.values())]
    return "\n".join(lines) + "\n", {"responses": responses}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY_SETTINGS
@given(case=_csv_and_spec())
def test_any_csv_and_spec_fits_or_fails_in_one_line(case):
    # ``run`` turns every CovglmError into exit 1 and one stderr line; any
    # other exception, a raw RuntimeWarning included, escapes and fails.
    csv_text, spec = case
    with tempfile.TemporaryDirectory() as tmp:
        data_path, spec_path = Path(tmp, "data.csv"), Path(tmp, "model.json")
        data_path.write_text(csv_text)
        spec_path.write_text(json.dumps(spec))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(
                [
                    "summary",
                    "--data", str(data_path),
                    "--model", str(spec_path),
                    "--max-iter", "5",
                ]
            )
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().count("\n") == 1
        assert err.getvalue().startswith("error [")
