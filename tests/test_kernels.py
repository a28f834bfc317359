import numpy as np
import pytest

from covglm import _kernels


def test_pair_traces_reference():
    rng = np.random.default_rng(0)
    mats = rng.normal(size=(4, 1, 9, 9))
    out = _kernels.pair_traces(mats)
    for i in range(4):
        for j in range(4):
            expected = np.trace(mats[i, 0] @ mats[j, 0])
            assert out[i, j] == pytest.approx(expected, rel=1e-12)
    assert np.allclose(out, out.T)
