import dataclasses
import json
import logging
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY_SETTINGS, make_dataset, subprocess_env
from covglm.cli import run
from covglm.errors import FitFileError
from covglm.estimator import FitOptions, fit
from covglm.families import Link
from covglm.model import load_model_spec, parse_model_spec
from covglm.report import render_linear_hypothesis, render_report, render_summary
from covglm.serialize import FORMAT_VERSION, load_fit, save_fit
from covglm.tables import anova, anova_dispersion, manova, manova_dispersion
from covglm.wald import parse_hypothesis, wald_test

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _write_inputs(tmp_path, seed=0, n=90, levels=("a", "b", "c")):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    f = np.array(levels)[rng.integers(0, 3, size=n)]
    y1 = 1.0 + 0.8 * x + (f == levels[1]) * 0.7 + rng.normal(size=n)
    y2 = -0.5 + 0.3 * x + rng.normal(size=n)
    lines = ["y1,y2,x,f"]
    for row in zip(y1, y2, x, f):
        lines.append(f"{float(row[0])},{float(row[1])},{float(row[2])},{row[3]}")
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(lines) + "\n")
    spec = {
        "responses": [
            {
                "formula": "y1 ~ x + f",
                "link": "identity",
                "variance": "constant",
                "matrix_pred": [{"kind": "identity"}],
            },
            {
                "formula": "y2 ~ x + f",
                "link": "identity",
                "variance": "constant",
                "matrix_pred": [{"kind": "identity"}],
            },
        ],
        "column_types": {"f": "factor"},
    }
    spec_path = tmp_path / "model.json"
    spec_path.write_text(json.dumps(spec))
    return data_path, spec_path


def _fitted(tmp_path):
    data_path, spec_path = _write_inputs(tmp_path)
    from covglm.data import Dataset

    spec = load_model_spec(spec_path)
    data = Dataset.from_csv(data_path, spec.column_types)
    return fit(spec, data), data_path, spec_path


# Per variance kind: its link and a response drawn around the mean.
_KIND_LINKS = {
    "constant": "identity",
    "tweedie": "log",
    "poisson_tweedie": "log",
    "binomialP": "logit",
}


def _draw_response(rng, kind, mu):
    if kind == "constant":
        return mu + rng.normal(size=len(mu))
    if kind == "tweedie":
        return rng.gamma(2.0, mu / 2.0)
    if kind == "poisson_tweedie":
        return rng.poisson(mu).astype(float)
    return rng.binomial(10, mu) / 10.0


def _random_model(seed, kinds, grouped, offset, n=36):
    """Data and spec of R = len(kinds) responses on ``x + f``."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    f = np.array(["a", "b", "c"], dtype=object)[np.arange(n) % 3]
    columns = {
        "x": x,
        "f": f,
        "g": np.array([f"g{i % 6}" for i in range(n)], dtype=object),
        "off": rng.uniform(-0.2, 0.2, size=n),
        "trials": np.full(n, 10.0),
    }
    responses = []
    for r, (kind, group) in enumerate(zip(kinds, grouped), start=1):
        eta = 0.3 + 0.4 * x + 0.2 * (f == "b") + (columns["off"] if offset else 0.0)
        mu = Link(_KIND_LINKS[kind]).inverse(eta)
        columns[f"y{r}"] = _draw_response(rng, kind, mu)
        entry = {
            "formula": f"y{r} ~ x + f",
            "link": _KIND_LINKS[kind],
            "variance": kind,
            "power": 2.0 if kind == "tweedie" else 1.0,
            "matrix_pred": [{"kind": "identity"}]
            + ([{"kind": "grouping", "column": "g"}] if group else []),
        }
        if offset:
            entry["offset_column"] = "off"
        if kind == "binomialP":
            entry["ntrial_column"] = "trials"
        responses.append(entry)
    spec = parse_model_spec({"responses": responses, "column_types": {"f": "factor"}})
    return make_dataset(columns), spec


def _assert_same_bits(a, b):
    """Equal values, every float and float array compared by its bytes."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            _assert_same_bits(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, (tuple, list)):
        assert isinstance(b, type(a)) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same_bits(x, y)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_same_bits(a[key], b[key])
    elif isinstance(a, float):
        assert isinstance(b, float) and np.float64(a).tobytes() == np.float64(b).tobytes()
    else:
        assert type(a) is type(b) and a == b


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**16),
    kinds=st.lists(st.sampled_from(sorted(_KIND_LINKS)), min_size=1, max_size=3),
    grouped=st.lists(st.booleans(), min_size=3, max_size=3),
    offset=st.booleans(),
)
def test_round_trip_bit_for_bit(tmp_path_factory, seed, kinds, grouped, offset):
    data, spec = _random_model(seed, kinds, grouped, offset)
    model = fit(spec, data, FitOptions(max_iter=10))
    path = tmp_path_factory.mktemp("fit") / "model.fit"
    save_fit(model, path)
    _assert_same_bits(model, load_fit(path))


def test_truncated_file_fails_checksum(tmp_path):
    model, _, _ = _fitted(tmp_path)
    path = tmp_path / "model.fit"
    save_fit(model, path)
    raw = path.read_text()
    path.write_text(raw[: len(raw) // 2])
    with pytest.raises(FitFileError, match="checksum|truncated"):
        load_fit(path)


def test_corrupted_payload_fails_checksum(tmp_path):
    model, _, _ = _fitted(tmp_path)
    path = tmp_path / "model.fit"
    save_fit(model, path)
    doc = json.loads(path.read_text())
    doc["payload"]["iterations"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(FitFileError, match="checksum"):
        load_fit(path)


def test_version_mismatch(tmp_path):
    model, _, _ = _fitted(tmp_path)
    path = tmp_path / "model.fit"
    save_fit(model, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(FitFileError, match="version"):
        load_fit(path)


def test_fit_file_stores_no_design_matrix(tmp_path):
    model, _, _ = _fitted(tmp_path)
    path = tmp_path / "model.fit"
    save_fit(model, path)
    doc = json.loads(path.read_text())
    assert doc["version"] == FORMAT_VERSION == 2
    coding = {"formula", "terms", "spans", "column_labels", "level_maps", "var_kinds"}
    assert [set(d) for d in doc["payload"]["designs"]] == [coding, coding]


def _hunting_reports(model):
    """The summary, every table of the Hunting analysis that needs no data,
    and an lht block, as one text."""
    tables = []
    for kind in (1, 2, 3):
        tables.extend(anova(model, kind))
        tables.append(manova(model, kind))
    tables.extend(
        anova_dispersion(
            model, [[0, 1], [0, 1]], [["tau10", "tau11"], ["tau20", "tau21"]]
        )
    )
    tables.append(manova_dispersion(model, [0, 1], ["tau0", "tau1"]))
    hypothesis = parse_hypothesis(["beta11 = 0", "beta21 = 0"], model)
    return (
        render_summary(model)
        + render_report(tables)
        + render_linear_hypothesis(hypothesis, wald_test(model, hypothesis))
    )


def test_version_1_fit_file_gives_its_reports(tmp_path):
    # Written by format version 1, which also stored each design matrix;
    # the reports were rendered from it by the same version.
    path = FIXTURES / "hunting_tiny_v1.fit"
    doc = json.loads(path.read_text())
    assert doc["version"] == 1
    assert all("x" in d for d in doc["payload"]["designs"])
    model = load_fit(path)
    assert _hunting_reports(model) == (FIXTURES / "hunting_tiny_v1_reports.txt").read_text()
    resaved = tmp_path / "resaved.fit"
    save_fit(model, resaved)
    assert json.loads(resaved.read_text())["version"] == FORMAT_VERSION
    _assert_same_bits(model, load_fit(resaved))


def test_load_then_tables_match_fit_then_tables(tmp_path):
    model, _, _ = _fitted(tmp_path)
    path = tmp_path / "model.fit"
    save_fit(model, path)
    loaded = load_fit(path)
    for kind in (1, 2, 3):
        assert render_report(anova(loaded, kind)) == render_report(anova(model, kind))


def test_cli_fit_then_anova(tmp_path, capsys):
    data_path, spec_path = _write_inputs(tmp_path)
    fit_path = tmp_path / "cached.fit"
    code = run(
        [
            "fit",
            "--data",
            str(data_path),
            "--model",
            str(spec_path),
            "--save",
            str(fit_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "converged: yes" in out
    code = run(["anova", "--fit", str(fit_path), "--type", "2"])
    assert code == 0
    table_out = capsys.readouterr().out
    assert table_out.startswith("ANOVA type II using Wald statistic for fixed effects")
    assert "Call: y1 ~ x + f" in table_out
    assert "Covariate Df" in table_out


def test_cli_fit_and_load_reports_identical(tmp_path, capsys):
    data_path, spec_path = _write_inputs(tmp_path)
    fit_path = tmp_path / "cached.fit"
    run(["fit", "--data", str(data_path), "--model", str(spec_path), "--save", str(fit_path)])
    capsys.readouterr()
    assert run(["anova", "--data", str(data_path), "--model", str(spec_path)]) == 0
    direct = capsys.readouterr().out
    assert run(["anova", "--fit", str(fit_path)]) == 0
    cached = capsys.readouterr().out
    assert direct == cached


def test_cli_reports_are_deterministic(tmp_path, capsys):
    data_path, spec_path = _write_inputs(tmp_path)
    assert run(["manova", "--data", str(data_path), "--model", str(spec_path), "--type", "3"]) == 0
    first = capsys.readouterr().out
    assert run(["manova", "--data", str(data_path), "--model", str(spec_path), "--type", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_lht(tmp_path, capsys):
    data_path, spec_path = _write_inputs(tmp_path)
    code = run(
        [
            "lht",
            "--data",
            str(data_path),
            "--model",
            str(spec_path),
            "--hypothesis",
            "beta11 = 0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Linear hypothesis test" in out
    assert "1 beta11 = 0" in out
    lines = [l for l in out.splitlines() if l.strip()]
    assert lines[-2].split() == ["Df", "Chi", "Pr(>Chi)"]
    assert lines[-1].split()[1] == "1"


def test_cli_multcomp(tmp_path, capsys):
    data_path, spec_path = _write_inputs(tmp_path)
    code = run(
        [
            "multcomp",
            "--data",
            str(data_path),
            "--model",
            str(spec_path),
            "--effects",
            "f",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Multiple comparisons test for each outcome" in out
    assert "a-b" in out


@pytest.mark.parametrize("mode", [[], ["--multivariate"]])
def test_cli_multcomp_reads_column_types_from_the_fit(tmp_path, capsys, mode):
    # Levels that look numeric load as a factor only under the spec's types.
    data_path, spec_path = _write_inputs(tmp_path, levels=("10", "20", "30"))
    fit_path = tmp_path / "model.fit"
    inputs = ["--data", str(data_path), "--model", str(spec_path)]
    assert run(["fit", *inputs, "--save", str(fit_path)]) == 0
    capsys.readouterr()
    reports = []
    cached = ["--fit", str(fit_path), "--data", str(data_path)]
    for source in (inputs, cached, [*cached, "--model", str(spec_path)]):
        assert run(["multcomp", *source, "--effects", "f", *mode]) == 0
        reports.append(capsys.readouterr().out)
    assert "10-20" in reports[0]
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_cli_logs_each_iteration_at_debug(tmp_path, caplog):
    data_path, spec_path = _write_inputs(tmp_path)
    with caplog.at_level(logging.DEBUG, logger="covglm"):
        assert run(["summary", "--data", str(data_path), "--model", str(spec_path)]) == 0
    iterations = [r for r in caplog.records if r.getMessage().startswith("iteration 1\t")]
    assert [r.levelno for r in iterations] == [logging.DEBUG]


def test_cli_dispersion_tables(tmp_path, capsys):
    data_path, spec_path = _write_inputs(tmp_path)
    code = run(
        [
            "anova-disp",
            "--data",
            str(data_path),
            "--model",
            str(spec_path),
            "--groups",
            "0;0",
            "--names",
            "tau10;tau20",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "dispersion parameters" in out
    assert "tau10" in out
    code = run(
        [
            "manova-disp",
            "--data",
            str(data_path),
            "--model",
            str(spec_path),
            "--groups",
            "0",
            "--names",
            "tau0",
        ]
    )
    assert code == 0
    assert "MANOVA type III" in capsys.readouterr().out


def test_cli_summary(tmp_path, capsys):
    data_path, spec_path = _write_inputs(tmp_path)
    assert run(["summary", "--data", str(data_path), "--model", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "Model fit summary" in out
    assert "beta10" in out
    assert "rho12" in out
    assert "Converged: yes" in out


def test_cli_empty_csv_is_an_error(tmp_path, capsys):
    data_path, spec_path = _write_inputs(tmp_path)
    empty = tmp_path / "empty.csv"
    empty.write_text("y1,y2,x,f\n")
    code = run(["anova", "--data", str(empty), "--model", str(spec_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "no rows after missing-data removal" in err
    assert err.startswith("error [")


def test_cli_unidentifiable_matrix_predictor_is_one_line_error(tmp_path, capsys):
    # One grouping level per row makes the grouping Z equal the identity.
    rng = np.random.default_rng(4)
    n = 60
    x = rng.normal(size=n)
    y = rng.poisson(np.exp(0.5 + 0.3 * x)) + 0.5
    lines = ["y,x,g"] + [f"{y[i]},{x[i]},G{i}" for i in range(n)]
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(lines) + "\n")
    spec = {
        "responses": [
            {
                "formula": "y ~ x",
                "link": "log",
                "variance": "tweedie",
                "matrix_pred": [
                    {"kind": "identity"},
                    {"kind": "grouping", "column": "g"},
                ],
            }
        ]
    }
    spec_path = tmp_path / "model.json"
    spec_path.write_text(json.dumps(spec))
    save = tmp_path / "out.fit"
    code = run(
        ["fit", "--data", str(data_path), "--model", str(spec_path), "--save", str(save)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error [model]: response 'y'")
    assert "identity, grouping(g)" in err
    assert not save.exists()


def test_cli_error_on_missing_inputs(capsys):
    code = run(["anova"])
    assert code == 1
    assert "error [" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,needs_model",
    [
        (["summary", "--alpha", "1.5"], False),
        (["summary", "--max-iter", "0"], False),
        (["summary", "--tol", "0"], False),
        (["anova-disp", "--groups", "a", "--names", "a"], False),
        (["anova-disp", "--groups", "0", "--names", "a,b"], False),
        (["manova-disp", "--groups", "0", "--names", "a,b"], False),
        (["anova-disp", "--groups", "0;0", "--names", "a"], False),
    ],
    ids=[
        "alpha",
        "max-iter",
        "tol",
        "groups-not-int",
        "anova-names",
        "manova-names",
        "anova-lists",
    ],
)
def test_cli_bad_option_value_is_one_line_error(
    argv, needs_model, tmp_path, capsys, monkeypatch
):
    # A value that is wrong whatever the model is rejected before fitting.
    if not needs_model:
        monkeypatch.setattr(
            "covglm.cli.fit", lambda *a, **k: pytest.fail("fitted before the check")
        )
    data_path, spec_path = _write_inputs(tmp_path, n=40)
    code = run(argv + ["--data", str(data_path), "--model", str(spec_path)])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error [")


def test_cli_spec_hash_guard(tmp_path, capsys):
    data_path, spec_path = _write_inputs(tmp_path)
    fit_path = tmp_path / "cached.fit"
    run(["fit", "--data", str(data_path), "--model", str(spec_path), "--save", str(fit_path)])
    capsys.readouterr()
    other = json.loads(spec_path.read_text())
    other["responses"][0]["formula"] = "y1 ~ x"
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    code = run(["anova", "--fit", str(fit_path), "--model", str(other_path)])
    assert code == 1
    assert "different model spec" in capsys.readouterr().err


def test_cli_exit_two_on_non_convergence(tmp_path, capsys):
    data_path, spec_path = _write_inputs(tmp_path)
    code = run(
        [
            "anova",
            "--data",
            str(data_path),
            "--model",
            str(spec_path),
            "--max-iter",
            "1",
            "--tol",
            "1e-12",
        ]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert out.startswith("WARNING: estimation did not converge")
    assert "ANOVA" in out


def test_cli_entry_point_subprocess(tmp_path):
    data_path, spec_path = _write_inputs(tmp_path)
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "covglm.cli",
            "anova",
            "--data",
            str(data_path),
            "--model",
            str(spec_path),
            "--type",
            "3",
        ],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert result.returncode == 0
    assert result.stdout.startswith("ANOVA type III")


def test_model_spec_parse_errors():
    with pytest.raises(Exception, match="responses"):
        parse_model_spec({"nope": []})
    with pytest.raises(Exception, match="unknown link"):
        parse_model_spec(
            {"responses": [{"formula": "y ~ x", "link": "probit", "variance": "constant"}]}
        )
