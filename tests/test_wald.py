import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY_SETTINGS, gaussian_spec, simulate_gaussian, subprocess_env
from covglm.chisq import chisq_sf
from covglm.errors import (
    RankError,
    SingularHypothesisError,
    UnknownParameterError,
)
from covglm.estimator import fit
from covglm.wald import (
    TestResult,
    _located,
    _padded,
    _singular_cause,
    parse_hypothesis,
    wald_statistic,
    wald_test,
)


@pytest.fixture(scope="module")
def simple_fit():
    data, _, _ = simulate_gaussian(17)
    return fit(gaussian_spec("y ~ x1 + x2 + x3"), data)


def test_parse_single_zero_constraint(simple_fit):
    hyp = parse_hypothesis(["beta11 = 0"], simple_fit)
    assert hyp.L.shape == (1, len(simple_fit.theta_star_labels))
    col = simple_fit.label_index["beta11"]
    assert hyp.L[0, col] == 1.0
    assert np.count_nonzero(hyp.L) == 1
    assert hyp.c[0] == 0.0


def test_parse_equality_of_parameters(simple_fit):
    hyp = parse_hypothesis(["beta11 = beta12"], simple_fit)
    a = simple_fit.label_index["beta11"]
    b = simple_fit.label_index["beta12"]
    assert hyp.L[0, a] == 1.0
    assert hyp.L[0, b] == -1.0
    assert hyp.c[0] == 0.0


def test_parse_numeric_forms(simple_fit):
    hyp = parse_hypothesis(["beta11 = 1.5", "beta12 = -2e-3"], simple_fit)
    assert np.allclose(hyp.c, [1.5, -0.002])


def test_unknown_label_lists_valid(simple_fit):
    with pytest.raises(UnknownParameterError, match="beta10"):
        parse_hypothesis(["beta99 = 0"], simple_fit)


def test_ambiguous_compact_label(simple_fit):
    with pytest.raises(UnknownParameterError, match="underscore"):
        parse_hypothesis(["beta111 = 0"], simple_fit)


def test_malformed_line(simple_fit):
    with pytest.raises(UnknownParameterError):
        parse_hypothesis(["beta11"], simple_fit)


def test_tau_label(simple_fit):
    hyp = parse_hypothesis(["tau10 = 0"], simple_fit)
    assert hyp.L[0, simple_fit.label_index["tau10"]] == 1.0


def test_kron_expansion():
    g = np.eye(2)
    f = np.array([[0.0, 1.0]])
    expected = np.array([[0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    assert np.array_equal(np.kron(g, f), expected)


def test_kron_with_scalar_selector():
    f = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert np.array_equal(np.kron(np.array([[1.0]]), f), f)


def test_kron_identities():
    assert np.array_equal(np.kron(np.eye(3), np.eye(2)), np.eye(6))


def test_scalar_statistic():
    stat, df = wald_statistic(
        np.array([2.0]), np.array([[4.0]]), np.array([[1.0]]), np.array([0.0])
    )
    assert stat == pytest.approx(1.0)
    assert df == 1


def test_statistic_zero_iff_constraint_met(simple_fit):
    theta = simple_fit.theta_star
    identity = np.eye(len(theta))
    stat, df = wald_statistic(theta, simple_fit.godambe_inv, identity, theta)
    assert stat == 0.0
    assert df == len(theta)
    # Any c differing from L theta gives a strictly positive statistic.
    off = theta.copy()
    off[0] += 1e-3
    stat_off, _ = wald_statistic(theta, simple_fit.godambe_inv, identity, off)
    assert stat_off > 0


def test_single_parameter_matches_bruteforce():
    rng = np.random.default_rng(2)
    theta = rng.normal(size=5)
    a = rng.normal(size=(5, 5))
    j_inv = a @ a.T + np.eye(5)
    for idx in range(5):
        row = np.zeros((1, 5))
        row[0, idx] = 1.0
        stat, _ = wald_statistic(theta, j_inv, row, np.zeros(1))
        assert stat == pytest.approx(theta[idx] ** 2 / j_inv[idx, idx], rel=1e-10)


def test_row_transformation_invariance():
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = int(rng.integers(3, 8))
        s = int(rng.integers(1, min(h, 4) + 1))
        theta = rng.normal(size=h)
        a = rng.normal(size=(h, h))
        j_inv = a @ a.T + h * np.eye(h)
        constraint = rng.normal(size=(s, h))
        rhs = rng.normal(size=s)
        w0, _ = wald_statistic(theta, j_inv, constraint, rhs)
        m = rng.normal(size=(s, s)) + 3 * np.eye(s)
        w1, _ = wald_statistic(theta, j_inv, m @ constraint, m @ rhs)
        assert w1 == pytest.approx(w0, rel=1e-8, abs=1e-8)


def test_additivity_under_diagonal_information():
    theta = np.array([1.0, -2.0, 0.5])
    j_inv = np.diag([0.5, 2.0, 1.5])
    singles = []
    for idx in range(2):
        row = np.zeros((1, 3))
        row[0, idx] = 1.0
        stat, _ = wald_statistic(theta, j_inv, row, np.zeros(1))
        singles.append(stat)
    joint = np.zeros((2, 3))
    joint[0, 0] = 1.0
    joint[1, 1] = 1.0
    stat, df = wald_statistic(theta, j_inv, joint, np.zeros(2))
    assert df == 2
    assert stat == pytest.approx(sum(singles), rel=1e-12)


def test_rank_deficient_hypothesis_rejected():
    theta = np.zeros(4)
    j_inv = np.eye(4)
    constraint = np.array([[1.0, 0, 0, 0], [2.0, 0, 0, 0]])
    with pytest.raises(RankError):
        wald_statistic(theta, j_inv, constraint, np.array([0.0, 1.0]))


def test_singular_middle_matrix():
    theta = np.array([1.0, 1.0])
    j_inv = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
    constraint = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SingularHypothesisError):
        wald_statistic(theta, j_inv, constraint, np.zeros(2))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        wald_statistic(np.zeros(3), np.eye(3), np.zeros((1, 4)), np.zeros(1))


def test_wald_test_labels_and_delegation(simple_fit):
    hyp = parse_hypothesis(["beta11 = 0", "beta12 = 0"], simple_fit)
    result = wald_test(simple_fit, hyp)
    assert result.df == 2
    assert result.label == "beta11 = 0; beta12 = 0"
    assert result.p_value == chisq_sf(result.statistic, 2)
    assert result.statistic >= 0


def _spd(rng, h, rank=None):
    """A random symmetric positive (semi-)definite h x h matrix."""
    a = rng.normal(size=(h, rank or h))
    return a @ a.T + (0.0 if rank else 0.5) * np.eye(h)


def _rel(a, b):
    return np.max(np.abs(a - b) / np.abs(b))


@pytest.mark.parametrize("s", [1, 3])
def test_stack_matches_loop_of_single_hypotheses(s):
    rng = np.random.default_rng(40 + s)
    h, m = 9, 25
    theta = rng.normal(size=h)
    j_inv = _spd(rng, h)
    constraint = rng.normal(size=(m, s, h))
    rhs = rng.normal(size=(m, s))
    stats, df = wald_statistic(theta, j_inv, constraint, rhs)
    assert df == s
    assert isinstance(stats, np.ndarray) and stats.shape == (m,)
    loop = [wald_statistic(theta, j_inv, L, c) for L, c in zip(constraint, rhs)]
    assert all(isinstance(stat, float) and d == s for stat, d in loop)
    assert _rel(stats, np.array([stat for stat, _ in loop])) <= 1e-12


def test_stack_zero_gap_row_is_exactly_zero_even_if_singular():
    rng = np.random.default_rng(44)
    h = 5
    theta = rng.normal(size=h)
    j_inv = _spd(rng, h, rank=h - 1)
    null = np.linalg.svd(j_inv)[2][-1]  # L J L^T = 0 along this row
    constraint = np.stack([rng.normal(size=(1, h)), null[None], rng.normal(size=(1, h))])
    rhs = np.array([[0.0], [null @ theta], [1.0]])
    stats, _ = wald_statistic(theta, j_inv, constraint, rhs)
    assert stats[1] == 0.0
    assert stats[0] > 0 and stats[2] > 0
    for i in (0, 2):
        single, _ = wald_statistic(theta, j_inv, constraint[i], rhs[i])
        assert stats[i] == pytest.approx(single, rel=1e-12)


def test_stack_all_zero_row_raises_rank_error_naming_entry():
    rng = np.random.default_rng(45)
    constraint = rng.normal(size=(4, 1, 6))
    constraint[2] = 0.0
    with pytest.raises(RankError, match="stack entry 2") as info:
        wald_statistic(rng.normal(size=6), _spd(rng, 6), constraint, np.zeros((4, 1)))
    assert info.value.index == 2


def test_stack_singular_middle_on_live_row_raises():
    rng = np.random.default_rng(46)
    h = 5
    theta = rng.normal(size=h) + 1.0
    j_inv = _spd(rng, h, rank=h - 1)
    null = np.linalg.svd(j_inv)[2][-1]
    constraint = np.stack([rng.normal(size=(1, h)), null[None]])
    with pytest.raises(SingularHypothesisError, match="stack entry 1") as info:
        wald_statistic(theta, j_inv, constraint, np.zeros((2, 1)))
    assert info.value.index == 1


def test_single_row_stack_checks_rank_without_svd(monkeypatch):
    # A one-row constraint has full rank exactly when it is nonzero.
    def no_svd(*args, **kwargs):
        raise AssertionError("matrix_rank called on single-row constraints")

    monkeypatch.setattr(np.linalg, "matrix_rank", no_svd)
    constraint = np.zeros((3, 1, 4))
    constraint[0, 0, 1] = 1.0
    constraint[1, 0, 3] = 1e-150
    stats, df = wald_statistic(np.ones(4), np.eye(4), constraint[:2], np.zeros((2, 1)))
    assert df == 1 and stats[0] == pytest.approx(1.0)
    with pytest.raises(RankError, match="stack entry 2") as info:
        wald_statistic(np.ones(4), np.eye(4), constraint, np.zeros((3, 1)))
    assert info.value.index == 2


@pytest.mark.parametrize("s", [1, 2, 4])
def test_single_hypothesis_is_a_stack_of_one(s):
    # One solve path: the 2-D form is bit-identical to its one-entry stack.
    rng = np.random.default_rng(50 + s)
    h = 8
    for _ in range(20):
        theta = rng.normal(size=h)
        j_inv = _spd(rng, h)
        constraint = rng.normal(size=(s, h))
        rhs = rng.normal(size=s)
        single, df = wald_statistic(theta, j_inv, constraint, rhs)
        stack, _ = wald_statistic(theta, j_inv, constraint[None], rhs[None])
        assert isinstance(single, float) and df == s
        assert single == stack[0]


def test_import_loads_no_scipy_linalg():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, covglm; print('scipy.linalg' in sys.modules)"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
        check=True,
    )
    assert result.stdout == "False\n"


def test_single_hypothesis_errors_keep_their_message():
    with pytest.raises(RankError, match=r"rank below its 1 rows$"):
        wald_statistic(np.ones(3), np.eye(3), np.zeros((1, 3)), np.zeros(1))


_SCALES = st.floats(min_value=1e-3, max_value=1e3) | st.floats(
    min_value=-1e3, max_value=-1e-3
)


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**16),
    m=st.integers(1, 4),
    s=st.integers(1, 3),
    scales=st.lists(_SCALES, min_size=12, max_size=12),
)
def test_row_scaling_leaves_statistic_unchanged(seed, m, s, scales):
    rng = np.random.default_rng(seed)
    h = 6
    theta = rng.normal(size=h)
    j_inv = _spd(rng, h)
    constraint = rng.normal(size=(m, s, h))
    rhs = rng.normal(size=(m, s))
    factors = np.array(scales[: m * s]).reshape(m, s)
    scaled = (factors[..., None] * constraint, factors * rhs)
    stats, _ = wald_statistic(theta, j_inv, constraint, rhs)
    scaled_stats, _ = wald_statistic(theta, j_inv, *scaled)
    assert _rel(scaled_stats, stats) <= 1e-10
    for i in range(m):
        single, _ = wald_statistic(theta, j_inv, constraint[i], rhs[i])
        scaled_single, _ = wald_statistic(theta, j_inv, scaled[0][i], scaled[1][i])
        assert abs(scaled_single - single) <= 1e-10 * single


def _selector(columns, h):
    """The 0/1 constraint matrix whose rows pick ``columns`` of theta."""
    constraint = np.zeros((len(columns), h))
    constraint[np.arange(len(columns)), columns] = 1.0
    return constraint


def test_column_sets_match_selector_matrices():
    rng = np.random.default_rng(47)
    h = 11
    theta = rng.normal(size=h)
    j_inv = _spd(rng, h)
    sets = [rng.choice(h, size=size, replace=False) for size in (1, 4, 2, 7, 1, 11)]
    sets.append(list(range(3)))  # plain lists of ints are sets too
    stats, df = wald_statistic(theta, j_inv, sets, None)
    assert isinstance(stats, np.ndarray) and stats.shape == (len(sets),)
    assert df.tolist() == [len(cols) for cols in sets]
    loop = [
        wald_statistic(theta, j_inv, _selector(cols, h), np.zeros(len(cols)))
        for cols in sets
    ]
    assert df.tolist() == [d for _, d in loop]
    assert _rel(stats, np.array([stat for stat, _ in loop])) <= 1e-12


def test_column_set_zero_gap_over_singular_block_is_exactly_zero():
    rng = np.random.default_rng(48)
    h = 6
    theta = rng.normal(size=h)
    theta[[1, 4]] = 0.0
    j_inv = _spd(rng, h)
    j_inv[4, :] = j_inv[:, 4] = j_inv[1, :] = j_inv[:, 1] = 0.0  # J[S, S] = 0
    stats, df = wald_statistic(theta, j_inv, [[0, 2, 3], [1, 4], [5]], None)
    assert stats[1] == 0.0
    assert stats[0] > 0 and stats[2] > 0
    assert df.tolist() == [3, 2, 1]


@pytest.mark.parametrize("bad", [[], [2, 0, 2]])
def test_column_set_empty_or_repeated_raises_rank_error(bad):
    rng = np.random.default_rng(49)
    sets = [[0, 1], [3], bad]
    with pytest.raises(RankError, match="stack entry 2") as info:
        wald_statistic(rng.normal(size=4), _spd(rng, 4), sets, None)
    assert info.value.index == 2


def test_column_set_singular_block_raises_naming_entry():
    rng = np.random.default_rng(50)
    h = 5
    theta = rng.normal(size=h) + 1.0
    j_inv = _spd(rng, h)
    j_inv[3, :] = j_inv[:, 3] = j_inv[:, 2] = j_inv[2, :] = 1.0  # J[{2,3},{2,3}] rank 1
    with pytest.raises(SingularHypothesisError, match="stack entry 1") as info:
        wald_statistic(theta, j_inv, [[0, 1], [2, 3], [4]], None)
    assert info.value.index == 1


def test_disjoint_row_stack_checks_rank_without_svd(monkeypatch):
    # Rows with pairwise-disjoint supports have full rank exactly when none
    # is zero, however their norms differ.
    def no_svd(*args, **kwargs):
        raise AssertionError("matrix_rank called on disjoint-row constraints")

    rng = np.random.default_rng(51)
    h = 7
    theta = rng.normal(size=h)
    j_inv = _spd(rng, h)
    constraint = np.zeros((4, 3, h))
    for entry in constraint:
        for row, cols in zip(entry, np.array_split(rng.permutation(h)[:6], 3)):
            row[cols] = rng.normal(size=len(cols))
    unit = constraint.copy()
    constraint[1, 2] *= 1e-150
    monkeypatch.setattr(np.linalg, "matrix_rank", no_svd)
    stats, df = wald_statistic(theta, j_inv, constraint[:3], np.zeros((3, 3)))
    scaled, _ = wald_statistic(theta, j_inv, unit[:3], np.zeros((3, 3)))
    assert df == 3 and _rel(stats, scaled) <= 1e-12
    constraint[2, 1] = 0.0
    with pytest.raises(RankError, match="stack entry 2") as info:
        wald_statistic(theta, j_inv, constraint, np.zeros((4, 3)))
    assert info.value.index == 2


def test_overlapping_rows_are_ranked_by_svd(monkeypatch):
    ranked = []
    real = np.linalg.matrix_rank

    def counted(matrices, *args, **kwargs):
        ranked.append(np.shape(matrices))
        return real(matrices, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counted)
    rng = np.random.default_rng(52)
    h = 5
    constraint = np.zeros((3, 2, h))
    constraint[:, 0, 0] = constraint[:, 1, 1] = 1.0  # disjoint
    constraint[1, 1] = [1.0, 1.0, 0.0, 0.0, 2.0]  # shares column 0 with row 0
    stats, _ = wald_statistic(rng.normal(size=h), _spd(rng, h), constraint, np.zeros((3, 2)))
    assert ranked == [(1, 2, h)] and np.all(stats > 0)
    ranked.clear()
    constraint[2, 1] = constraint[2, 0]  # a duplicated row
    with pytest.raises(RankError, match="stack entry 2") as info:
        wald_statistic(np.ones(h), np.eye(h), constraint, np.zeros((3, 2)))
    assert ranked == [(2, 2, h)] and info.value.index == 2


def _padded_path(theta, j_inv, sets):
    """Statistics of column sets with every set padded and factored alone,
    its gap whitened by a general solve: the reference for the bordered
    factors. A set whose gap is zero reads 0.0 unfactored; the first live
    set without a factor raises as ``wald_statistic`` does."""
    middle, gap = _padded(theta, j_inv, sets)
    stats = np.zeros(len(sets))
    for i in np.flatnonzero(gap.any(axis=1)):
        block = 0.5 * (middle[i] + middle[i].T)
        try:
            chol = np.linalg.cholesky(block)
        except np.linalg.LinAlgError:
            raise _located(SingularHypothesisError, _singular_cause(block), i, True) from None
        whitened = np.linalg.solve(chol, gap[i])
        stats[i] = whitened @ whitened
    return stats


def _chain(rng, columns, length):
    """``length`` strictly nested sets over ``columns``, outermost first,
    each set's columns in a random order."""
    cuts = np.sort(rng.choice(np.arange(1, len(columns)), size=length - 1, replace=False))
    sets = [columns] + [columns[cut:] for cut in cuts]
    return [rng.permutation(cols).tolist() for cols in sets]


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**16),
    groups=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    zeroed=st.lists(st.integers(0, 11), max_size=8),
)
def test_nested_chains_match_padded_path(seed, groups, zeroed):
    # Each group is a chain of that many nested sets, or (0) one set that
    # need not nest with its neighbours. Zeroed theta entries make some
    # sets hold exactly, inner ones of a live chain among them.
    rng = np.random.default_rng(seed)
    h = 12
    theta = rng.normal(size=h)
    theta[zeroed] = 0.0
    j_inv = _spd(rng, h)
    sets = []
    for length in groups:
        columns = rng.permutation(h)[: int(rng.integers(max(length, 1), h + 1))]
        if length:
            sets.extend(_chain(rng, columns, length) if length > 1 else [columns.tolist()])
        else:
            sets.append(columns.tolist())
    stats, df = wald_statistic(theta, j_inv, sets, None)
    expected = _padded_path(theta, j_inv, sets)
    assert df.tolist() == [len(cols) for cols in sets]
    held = expected == 0.0
    assert np.all(stats[held] == 0.0)
    assert np.all(np.abs(stats - expected)[~held] <= 1e-12 * expected[~held])


def _spy(monkeypatch, name):
    """Record the shape of each argument passed to ``np.linalg.<name>``."""
    calls = []
    real = getattr(np.linalg, name)

    def counted(a, *args):
        calls.append(np.shape(a))
        return real(a, *args)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_nested_chains_share_one_factor(monkeypatch):
    # Every form of wald_statistic makes one batched factorization, each
    # entry bordered by its gap, and no solve: two type-I chains (two
    # responses' rows) take one factor each, lone sets (type-II rows) one
    # each, and a constraint stack or a single hypothesis one per entry.
    rng = np.random.default_rng(53)
    h = 10
    theta = rng.normal(size=h)
    j_inv = _spd(rng, h)
    chains = [[0, 1, 2, 3, 4], [2, 3, 4], [4], [5, 6, 7, 8, 9], [7, 8, 9], [9]]
    lone = [[0, 1], [2], [3, 4, 5], [1, 6], [7, 8, 9]]
    constraint, rhs = rng.normal(size=(4, 3, h)), rng.normal(size=(4, 3))
    gaps = constraint @ theta - rhs
    middles = constraint @ j_inv @ constraint.transpose(0, 2, 1)
    expected = [
        _padded_path(theta, j_inv, chains),
        _padded_path(theta, j_inv, lone),
        np.array([g @ np.linalg.solve(m, g) for m, g in zip(middles, gaps)]),
    ]
    factored, solved = _spy(monkeypatch, "cholesky"), _spy(monkeypatch, "solve")
    stats, _ = wald_statistic(theta, j_inv, chains, None)
    assert factored == [(2, 6, 6)] and _rel(stats, expected[0]) <= 1e-12
    factored.clear()
    stats, _ = wald_statistic(theta, j_inv, lone, None)
    assert factored == [(5, 4, 4)] and _rel(stats, expected[1]) <= 1e-12
    factored.clear()
    stats, _ = wald_statistic(theta, j_inv, constraint, rhs)
    assert factored == [(4, 4, 4)] and _rel(stats, expected[2]) <= 1e-12
    factored.clear()
    stat, _ = wald_statistic(theta, j_inv, constraint[0], rhs[0])
    assert factored == [(1, 4, 4)] and stat == stats[0]
    assert solved == []


def test_chain_zero_gap_over_singular_block_reads_exactly_zero():
    rng = np.random.default_rng(54)
    h = 6
    theta = rng.normal(size=h)
    theta[[1, 4, 5]] = 0.0
    j_inv = _spd(rng, h)
    j_inv[4, :] = j_inv[:, 4] = j_inv[1, :] = j_inv[:, 1] = 0.0  # J[S, S] = 0
    sets = [[0, 2, 3], [2, 3], [5, 1, 4], [4, 1]]
    stats, df = wald_statistic(theta, j_inv, sets, None)
    assert stats[2] == 0.0 and stats[3] == 0.0
    assert stats[0] > 0 and stats[1] > 0
    assert _rel(stats[:2], _padded_path(theta, j_inv, sets)[:2]) <= 1e-12
    assert df.tolist() == [3, 2, 3, 2]
    # With the outer set live, its singular block is the error, as before.
    theta[5] = 1.0
    with pytest.raises(SingularHypothesisError) as padded:
        _padded_path(theta, j_inv, sets)
    with pytest.raises(SingularHypothesisError, match="stack entry 2") as info:
        wald_statistic(theta, j_inv, sets, None)
    assert str(info.value) == str(padded.value)
    assert info.value.index == padded.value.index == 2


def test_chain_zero_gap_reads_exactly_zero_on_badly_scaled_information():
    # A zero gap's whitened entries come from forward substitution over
    # its own leading block alone, so no rounding from the outer columns
    # reaches them, however badly J is scaled.
    for seed in range(10):
        rng = np.random.default_rng(seed)
        h = 12
        a = rng.normal(size=(h, h)) * np.exp(3 * rng.normal(size=h))
        j_inv = a @ a.T + 1e-3 * np.eye(h)
        theta = rng.normal(size=h)
        theta[6:] = 0.0
        sets = [rng.permutation(np.arange(lo, h)).tolist() for lo in (0, 3, 6)]
        stats, _ = wald_statistic(theta, j_inv, sets, None)
        assert stats[2] == 0.0 and np.all(stats[:2] > 0)


def test_chain_statistics_keep_relative_accuracy_on_badly_scaled_information():
    # J = D A D with A well conditioned and D spread over many orders of
    # magnitude; the statistic of theta = D phi is phi^T A^-1 phi on each
    # set, whatever D is. Inner sets carry gaps a billion times smaller
    # than the outer ones, so an error that scaled with the outer
    # statistics would swamp theirs.
    worst_chain = worst_padded = 0.0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        h = 12
        a = rng.normal(size=(h, h))
        scaled = a @ a.T / h + 0.5 * np.eye(h)
        d = np.exp(3 * rng.normal(size=h))
        j_inv = d[:, None] * scaled * d
        phi = rng.normal(size=h) * np.where(np.arange(h) < 6, 1e3, 1e-6)
        sets = [rng.permutation(np.arange(lo, h)).tolist() for lo in (0, 3, 6, 9)]
        exact = np.array([phi[s] @ np.linalg.solve(scaled[np.ix_(s, s)], phi[s]) for s in sets])
        stats, _ = wald_statistic(d * phi, j_inv, sets, None)
        padded = _padded_path(d * phi, j_inv, sets)
        worst_chain = max(worst_chain, np.max(np.abs(stats - exact) / exact))
        worst_padded = max(worst_padded, np.max(np.abs(stats - padded) / padded))
    assert worst_chain <= 1e-12 and worst_padded <= 1e-12


def test_singular_block_inside_chain_names_the_padded_paths_entry():
    rng = np.random.default_rng(55)
    h = 5
    theta = rng.normal(size=h) + 1.0
    j_inv = _spd(rng, h)
    j_inv[2, :] = j_inv[:, 2] = 0.0  # every set holding column 2 is singular
    sets = [[0, 4], [4], [0, 1, 2, 3], [1, 2, 3], [3]]  # two chains
    with pytest.raises(SingularHypothesisError) as padded:
        _padded_path(theta, j_inv, sets)
    with pytest.raises(SingularHypothesisError, match="stack entry 2") as info:
        wald_statistic(theta, j_inv, sets, None)
    assert str(info.value) == str(padded.value)
    assert info.value.index == padded.value.index == 2
    assert "the hypothesis rows are redundant" in str(info.value)


def test_indefinite_block_error_names_the_cause():
    rng = np.random.default_rng(56)
    h = 4
    j_inv = _spd(rng, h)
    j_inv[2, 2] = -1.0
    with pytest.raises(SingularHypothesisError, match="stack entry 1") as info:
        wald_statistic(rng.normal(size=h) + 1.0, j_inv, [[0], [1, 2], [3]], None)
    assert "the inverse Godambe matrix is indefinite" in str(info.value)
    assert "redundant" not in str(info.value)


def test_statistic_past_the_largest_float_reads_inf():
    # |w|^2 of the outer set overflows, so no bordered factor of its run
    # exists while every block factors; each set is then taken alone, and
    # an inner set keeps its finite statistic.
    j_inv = 1e-300 * np.eye(4)
    theta = np.array([1e5, 1.0, 2.0, 3.0])
    for sets, finite in (([[0, 1, 2, 3], [1, 2, 3]], 1.4e301), ([[0, 1], [2, 3]], 1.3e301)):
        stats, df = wald_statistic(theta, j_inv, sets, None)
        assert stats[0] == np.inf and stats[1] == pytest.approx(finite, rel=1e-12)
        assert chisq_sf(stats, df).tolist() == [0.0, 0.0]
    stats, df = wald_statistic(theta, j_inv, _selector([0, 1], 4)[None], np.zeros((1, 2)))
    assert stats.tolist() == [np.inf] and chisq_sf(stats, df).tolist() == [0.0]


def test_result_rows_are_immutable_records():
    row = TestResult(label="x", df=2, statistic=3.5, p_value=0.25)
    assert repr(row) == "TestResult(label='x', df=2, statistic=3.5, p_value=0.25)"
    assert row == TestResult(label="x", df=2, statistic=3.5, p_value=0.25)
    assert row != row._replace(p_value=0.5)
    with pytest.raises(AttributeError):
        row.statistic = 1.0
