"""numpy is covglm's only runtime dependency.

Both checks run in a child interpreter, because this test process has
already imported scipy for the oracle tests.
"""

import subprocess
import sys
from pathlib import Path

from conftest import subprocess_env

ROOT = Path(__file__).resolve().parent.parent

# Every analysis of the two published shapes, on their tiny variants from
# covbench/datagen.py, with any scipy import raising ImportError.
BLOCKED_ANALYSIS = r"""
import sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
sys.path.insert(0, sys.argv[1])
import datagen
from covglm import (
    anova, fit, load_model_spec, manova, multiple_comparisons, parse_hypothesis, wald_test,
)

for name, data, effects in (
    ("hunting", datagen.hunting_data(0, 48), ["METHOD", "SEX"]),
    ("soya", datagen.soya_data(0, 2), ["water", "pot"]),
):
    model = fit(load_model_spec(f"{sys.argv[2]}/{name}_model.json"), data)
    tables = [manova(model, kind) for kind in (1, 2, 3)]
    for kind in (1, 2, 3):
        tables.extend(anova(model, kind))
    tables.extend(multiple_comparisons(model, [effects] * model.n_responses, data))
    lht = wald_test(model, parse_hypothesis(["beta11 = 0", "beta21 = 0"], model))
    p_values = [row.p_value for table in tables for row in table.rows] + [lht.p_value]
    assert all(0.0 <= p <= 1.0 for p in p_values), name
    print(name, len(p_values))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _run(*args):
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        timeout=300,
    )


def test_import_loads_no_scipy():
    result = _run(
        "-c",
        "import sys, covglm; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_analyses_run_with_scipy_blocked():
    result = _run(
        "-W", "error::RuntimeWarning",
        "-c", BLOCKED_ANALYSIS,
        str(ROOT / "covbench"),
        str(ROOT / "fixtures"),
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["hunting", "soya"]
    assert lines[2] == "[]"
