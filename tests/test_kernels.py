import subprocess
import sys

import numpy as np
import pytest

from conftest import subprocess_env
from covglm import _kernels


def test_pair_traces_numpy_reference():
    rng = np.random.default_rng(0)
    mats = rng.normal(size=(4, 9, 9))
    out = _kernels.pair_traces_numpy(mats)
    for i in range(4):
        for j in range(4):
            assert out[i, j] == pytest.approx(np.trace(mats[i] @ mats[j]), rel=1e-12)
    assert np.allclose(out, out.T)


def test_dispatched_kernel_matches_numpy():
    rng = np.random.default_rng(1)
    mats = np.ascontiguousarray(rng.normal(size=(5, 20, 20)))
    assert np.allclose(
        _kernels.pair_traces(mats), _kernels.pair_traces_numpy(mats), atol=1e-10
    )


def test_gammainc_limits():
    assert _kernels.gammainc_upper_python(3.0, 0.0) == 1.0
    assert _kernels.gammainc_upper_python(0.5, 200.0) < 1e-12


def test_gammainc_series_cf_continuity():
    # The series/continued-fraction switch sits at x = a + 1; values on
    # either side of it must agree smoothly.
    for a in (0.5, 1.0, 4.5, 30.0):
        below = _kernels.gammainc_upper_python(a, a + 1 - 1e-9)
        above = _kernels.gammainc_upper_python(a, a + 1 + 1e-9)
        assert abs(below - above) < 1e-8


def test_env_flag_disables_numba():
    env = subprocess_env(COVGLM_NUMBA="0")
    code = (
        "from covglm import _kernels\n"
        "assert not _kernels.NUMBA_ENABLED\n"
        "assert _kernels.pair_traces is _kernels.pair_traces_numpy\n"
        "assert _kernels.gammainc_upper is _kernels.gammainc_upper_python\n"
        "print('fallback ok')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert "fallback ok" in result.stdout


def test_default_flag_enables_numba_when_importable():
    # With the flag unset, the compiled kernels are used exactly when numba
    # imports; otherwise the numpy/python fallbacks are. "Importable" is
    # decided by importing numba, as _kernels does: an installed numba that
    # rejects the installed NumPy raises ImportError and counts as absent.
    env = subprocess_env()
    env.pop("COVGLM_NUMBA", None)
    code = (
        "try:\n"
        "    import numba\n"
        "except ImportError:\n"
        "    importable = False\n"
        "else:\n"
        "    importable = True\n"
        "from covglm import _kernels\n"
        "import numpy as np\n"
        "if importable:\n"
        "    assert _kernels.NUMBA_ENABLED\n"
        "    m = np.ascontiguousarray(np.arange(8.0).reshape(2, 2, 2))\n"
        "    a = _kernels.pair_traces(m)\n"
        "    b = _kernels.pair_traces_numpy(m)\n"
        "    assert np.allclose(a, b)\n"
        "else:\n"
        "    assert not _kernels.NUMBA_ENABLED\n"
        "    assert _kernels.pair_traces is _kernels.pair_traces_numpy\n"
        "    assert _kernels.gammainc_upper is _kernels.gammainc_upper_python\n"
        "print('numba ok')\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert "numba ok" in result.stdout


def test_full_fit_identical_under_both_paths(tmp_path):
    # End-to-end agreement: the numpy fallback reproduces the numba path
    # up to summation-order rounding on a small fit.
    script = tmp_path / "run_fit.py"
    script.write_text(
        "import numpy as np\n"
        "from covglm.estimator import fit\n"
        "from covglm.model import ModelSpec, ResponseSpec, MatrixComponent\n"
        "from covglm.families import Link, VarianceFn\n"
        "from covglm.formula import parse_formula\n"
        "from covglm.data import Dataset\n"
        "rng = np.random.default_rng(5)\n"
        "n = 60\n"
        "x = rng.normal(size=n)\n"
        "y = 0.5 + 0.9 * x + rng.normal(size=n)\n"
        "data = Dataset({'y': y, 'x': x}, {'y': 'numeric', 'x': 'numeric'})\n"
        "spec = ModelSpec(responses=(ResponseSpec(\n"
        "    formula=parse_formula('y ~ x'), link=Link('identity'),\n"
        "    variance=VarianceFn('constant'),\n"
        "    matrix_pred=(MatrixComponent('identity'),)),))\n"
        "m = fit(spec, data, None)\n"
        "print(','.join(repr(float(v)) for v in m.beta_hat))\n"
        "print(','.join(repr(float(v)) for v in m.joint_inverse.ravel()))\n"
    )
    outputs = {}
    for flag in ("0", "1"):
        env = subprocess_env(COVGLM_NUMBA=flag)
        result = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.strip().splitlines()
        outputs[flag] = [np.array([float(v) for v in l.split(",")]) for l in lines]
    for a, b in zip(outputs["0"], outputs["1"]):
        assert np.allclose(a, b, rtol=1e-10, atol=1e-12)
