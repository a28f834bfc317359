"""The benchmark's tracer must find every function it wraps.

``covbench/tracing.py`` replaces module attributes of covglm by name; a
refactor that drops or renames one of them silently loses that layer's
timings and counts. The tracer is loaded read-only from its file.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "covbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("covbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
SITES = [
    (name, module_name, path)
    for name, sites in tracing.TARGETS.items()
    for module_name, path in sites
]


@pytest.mark.parametrize(
    "name,module_name,path", SITES, ids=[f"{m}.{p}" for _, m, p in SITES]
)
def test_every_wrap_site_resolves(name, module_name, path):
    assert tracing._resolve(module_name, path) is not None, (
        f"{name}: {module_name}.{path} is gone; the benchmark would report "
        "it missing"
    )
