import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import subprocess_env
from covglm.cli import run
from covglm.errors import FitFileError
from covglm.estimator import fit
from covglm.model import load_model_spec, parse_model_spec
from covglm.report import render_report
from covglm.serialize import load_fit, save_fit
from covglm.tables import anova


def _write_inputs(tmp_path, seed=0, n=90):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    f = np.array(["a", "b", "c"])[rng.integers(0, 3, size=n)]
    y1 = 1.0 + 0.8 * x + (f == "b") * 0.7 + rng.normal(size=n)
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
        ]
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


def test_round_trip_bit_for_bit(tmp_path):
    model, _, _ = _fitted(tmp_path)
    path = tmp_path / "model.fit"
    save_fit(model, path)
    loaded = load_fit(path)
    assert loaded.beta_hat.tobytes() == model.beta_hat.tobytes()
    assert loaded.lambda_hat.rho.tobytes() == model.lambda_hat.rho.tobytes()
    for a, b in zip(loaded.lambda_hat.tau, model.lambda_hat.tau):
        assert a.tobytes() == b.tobytes()
    assert loaded.joint_inverse.tobytes() == model.joint_inverse.tobytes()
    assert loaded.theta_star_labels == model.theta_star_labels
    assert loaded.converged == model.converged
    assert loaded.iterations == model.iterations


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
        (["anova-disp", "--groups", "0", "--names", "a,b"], True),
        (["manova-disp", "--groups", "0", "--names", "a,b"], True),
    ],
    ids=["alpha", "max-iter", "tol", "groups-not-int", "anova-names", "manova-names"],
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
