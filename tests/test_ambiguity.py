"""Worst-case generator: frozen examples, brute-force oracles, properties."""

import numpy as np
import pytest

from gctrl import AmbiguitySet, as_symmetric, contains, g_matrix, g_scalar
from gctrl.ambiguity import contains_stack, g_stack

SET_1D = AmbiguitySet(dim=1, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
SET_2D = AmbiguitySet(dim=2, sigma_lo_sq=0.25, sigma_hi_sq=1.0)


def brute_scalar(alpha, set_, direction="upper", n=4001):
    """Independent oracle: dense grid over the variance interval."""
    levels = np.linspace(set_.sigma_lo_sq, set_.sigma_hi_sq, n)
    vals = 0.5 * alpha * levels
    return float(np.max(vals) if direction == "upper" else np.min(vals))


def _candidate_stack(set_, n_angles=360, n_levels=41):
    """Rotated diagonal matrices inside the box, d=2, stacked for the oracle."""
    lo, hi = set_.sigma_lo_sq, set_.sigma_hi_sq
    levels = np.linspace(lo, hi, n_levels)
    angles = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    c, s = np.cos(angles), np.sin(angles)
    rots = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
    v1, v2 = np.meshgrid(levels, levels, indexing="ij")
    diags = np.zeros((n_levels * n_levels, 2, 2))
    diags[:, 0, 0] = v1.ravel()
    diags[:, 1, 1] = v2.ravel()
    cands = np.einsum("aij,djk,alk->adil", rots, diags, rots)
    return cands.reshape(-1, 2, 2)


_STACK_CACHE = {}


def brute_matrix(a, set_, direction="upper"):
    """Independent oracle: grid search over rotated diagonals in the box."""
    key = (set_.sigma_lo_sq, set_.sigma_hi_sq)
    if key not in _STACK_CACHE:
        _STACK_CACHE[key] = _candidate_stack(set_)
    vals = 0.5 * np.einsum("kij,ij->k", _STACK_CACHE[key], np.asarray(a, dtype=float))
    return float(np.max(vals) if direction == "upper" else np.min(vals))


def test_scalar_zero_is_zero():
    assert g_scalar(0.0, SET_1D) == 0.0
    assert g_scalar(0.0, SET_1D, "lower") == 0.0


def test_scalar_positive_alpha_picks_high_variance():
    # brute_scalar(2, ...) == 1.0 exactly (grid includes the endpoint)
    assert brute_scalar(2.0, SET_1D) == 1.0
    assert g_scalar(2.0, SET_1D) == 1.0


def test_scalar_negative_alpha_picks_low_variance():
    assert brute_scalar(-2.0, SET_1D) == -0.25
    assert g_scalar(-2.0, SET_1D) == -0.25


def test_scalar_lower_direction_mirrors():
    assert g_scalar(2.0, SET_1D, "lower") == 0.25
    assert g_scalar(-2.0, SET_1D, "lower") == -1.0
    for alpha in (-3.0, -0.5, 0.0, 0.7, 4.0):
        assert g_scalar(alpha, SET_1D, "upper") >= g_scalar(alpha, SET_1D, "lower")


def test_scalar_requires_dim_one():
    with pytest.raises(ValueError):
        g_scalar(1.0, SET_2D)


def test_scalar_accepts_arrays_elementwise():
    rng = np.random.default_rng(8)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]
    alphas = np.concatenate([edges, rng.normal(scale=3.0, size=50)]).reshape(8, 7)
    for direction in ("upper", "lower"):
        out = g_scalar(alphas, SET_1D, direction)
        ref = np.array([g_scalar(a, SET_1D, direction) for a in alphas.ravel()])
        assert out.shape == alphas.shape
        assert out.tobytes() == ref.tobytes()
    with pytest.raises(ValueError, match="1-dimensional"):
        g_scalar(alphas, SET_2D)
    with pytest.raises(ValueError, match="direction"):
        g_scalar(alphas, SET_1D, "sideways")


def test_matrix_zero_matrix_value_zero_tiebreak_high():
    gv = g_matrix(np.zeros((2, 2)), SET_2D)
    assert gv.value == 0.0
    assert np.allclose(gv.maximizer, np.eye(2) * SET_2D.sigma_hi_sq)
    gv_lo = g_matrix(np.zeros((2, 2)), SET_2D, "lower")
    assert np.allclose(gv_lo.maximizer, np.eye(2) * SET_2D.sigma_lo_sq)


def test_matrix_indefinite_example_frozen():
    a = np.diag([1.0, -1.0])
    gv = g_matrix(a, SET_2D)
    # frozen from the rotation-grid oracle; 0.5 * (1*1 - 0.25*1)
    assert gv.value == pytest.approx(0.375, abs=1e-12)
    assert brute_matrix(a, SET_2D) == pytest.approx(0.375, abs=1e-9)
    assert contains(SET_2D, gv.maximizer)


def test_matrix_dim1_reduces_to_scalar():
    for alpha in (-2.0, -0.3, 0.0, 1.5, 4.0):
        gv = g_matrix(np.array([[alpha]]), SET_1D)
        assert gv.value == g_scalar(alpha, SET_1D)
        gv = g_matrix(np.array([[alpha]]), SET_1D, "lower")
        assert gv.value == g_scalar(alpha, SET_1D, "lower")


def test_matrix_rejects_asymmetric_and_wrong_dim():
    with pytest.raises(ValueError):
        g_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]), SET_2D)
    with pytest.raises(ValueError):
        g_matrix(np.eye(3), SET_2D)


def test_contains_examples():
    assert contains(SET_2D, SET_2D.sigma_hi_sq * np.eye(2))
    assert contains(SET_2D, np.diag([0.25, 1.0]))
    assert not contains(SET_2D, np.diag([2.0, 0.25]))
    assert not contains(SET_2D, np.array([[0.5, 1.0], [0.0, 0.5]]))  # asymmetric


def test_set_invariants():
    with pytest.raises(ValueError):
        AmbiguitySet(dim=1, sigma_lo_sq=1.0, sigma_hi_sq=0.25)
    with pytest.raises(ValueError):
        AmbiguitySet(dim=1, sigma_lo_sq=0.0, sigma_hi_sq=1.0)
    with pytest.raises(ValueError):
        AmbiguitySet(dim=0, sigma_lo_sq=0.25, sigma_hi_sq=1.0)
    assert AmbiguitySet(dim=1, sigma_lo_sq=0.5, sigma_hi_sq=0.5).degenerate


def _random_sym(rng, d):
    a = rng.normal(size=(d, d))
    return 0.5 * (a + a.T)


def test_subadditivity_and_homogeneity_random():
    rng = np.random.default_rng(42)
    for _ in range(300):
        d = int(rng.integers(1, 4))
        set_ = AmbiguitySet(dim=d, sigma_lo_sq=0.1 + rng.uniform(0, 0.5),
                            sigma_hi_sq=1.0 + rng.uniform(0, 1.0))
        a, b = _random_sym(rng, d), _random_sym(rng, d)
        assert g_matrix(a + b, set_).value <= (
            g_matrix(a, set_).value + g_matrix(b, set_).value + 1e-12
        )
        lam = rng.uniform(0.0, 10.0)
        assert g_matrix(lam * a, set_).value == pytest.approx(
            lam * g_matrix(a, set_).value, abs=1e-12
        )


def test_achievability_random():
    rng = np.random.default_rng(43)
    for _ in range(300):
        d = int(rng.integers(1, 4))
        set_ = AmbiguitySet(dim=d, sigma_lo_sq=0.3, sigma_hi_sq=1.7)
        a = _random_sym(rng, d)
        for direction in ("upper", "lower"):
            gv = g_matrix(a, set_, direction)
            assert contains(set_, gv.maximizer)
            assert 0.5 * float(np.sum(a * gv.maximizer)) == pytest.approx(
                gv.value, abs=1e-12
            )


def test_brute_force_agreement_d2_random():
    rng = np.random.default_rng(44)
    for _ in range(25):
        a = _random_sym(rng, 2)
        exact = g_matrix(a, SET_2D).value
        brute = brute_matrix(a, SET_2D)
        # grid never exceeds the true sup; rotation resolution bounds the gap
        assert brute <= exact + 1e-9
        scale = 1.0 + float(np.abs(np.linalg.eigvalsh(a)).sum())
        assert exact - brute <= 2e-4 * scale


def test_as_symmetric_promotes_scalar():
    m = as_symmetric(0.5)
    assert m.shape == (1, 1) and m[0, 0] == 0.5


def test_degenerate_set_directions_coincide():
    set_ = AmbiguitySet(dim=2, sigma_lo_sq=0.49, sigma_hi_sq=0.49)
    rng = np.random.default_rng(45)
    for _ in range(50):
        a = _random_sym(rng, 2)
        up = g_matrix(a, set_, "upper").value
        lo = g_matrix(a, set_, "lower").value
        assert up == pytest.approx(lo, abs=1e-12)


def test_rotation_grid_matches_the_loop_over_angles_then_levels():
    from gctrl.verify import _rotation_grid

    us = np.linspace(0.0, 1.0, 5)
    expected = []
    for th in np.linspace(0.0, np.pi, 7, endpoint=False):
        r = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        expected += [r @ np.diag([u1, u2]) @ r.T for u1 in us for u2 in us]
    assert np.array_equal(_rotation_grid(7, 5), np.asarray(expected))
    assert _rotation_grid().shape == (96 * 17 * 17, 2, 2)


def _stack_with_zero_eigenvalues(rng, d, n=300):
    """n random symmetric d x d matrices, the first tenth diagonal with exact zeros on the
    diagonal (so exactly zero eigenvalues), one of them the zero matrix; and per-member
    variance bounds."""
    a = rng.normal(size=(n, d, d))
    a = 0.5 * (a + a.swapaxes(-1, -2))
    diagonal = rng.normal(size=(n // 10, d)) * (rng.uniform(size=(n // 10, d)) < 0.5)
    a[: n // 10] = 0.0
    a[: n // 10, np.arange(d), np.arange(d)] = diagonal
    a[0] = 0.0
    lo = rng.uniform(0.05, 1.0, n)
    return a, lo, lo + rng.uniform(0.0, 2.0, n)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("direction", ["upper", "lower"])
def test_each_member_of_a_stack_has_the_bits_of_its_own_call(d, direction):
    a, lo, hi = _stack_with_zero_eigenvalues(np.random.default_rng(50 + d), d)
    stack = g_stack(a, lo, hi, direction)
    assert stack.value.shape == (len(a),) and stack.maximizer.shape == a.shape
    zeros = 0
    for i in range(len(a)):
        one = g_matrix(a[i], AmbiguitySet(dim=d, sigma_lo_sq=lo[i], sigma_hi_sq=hi[i]), direction)
        assert stack.value[i].tobytes() == np.float64(one.value).tobytes()
        assert stack.maximizer[i].tobytes() == one.maximizer.tobytes()
        w, q = np.linalg.eigh(a[i])
        # A zero eigenvalue takes the high variance (upper) or the low one (lower).
        tie = hi[i] if direction == "upper" else lo[i]
        for j in np.flatnonzero(w == 0.0):
            zeros += 1
            assert q[:, j] @ stack.maximizer[i] @ q[:, j] == pytest.approx(tie, abs=1e-12)
    assert zeros >= len(a) // 20


def test_stack_takes_scalars_and_broadcasts_scalar_bounds():
    for alpha in (-1.5, 0.0, 0.7):
        for direction in ("upper", "lower"):
            one = g_matrix(alpha, SET_1D, direction)
            stacked = g_stack(alpha, SET_1D.sigma_lo_sq, SET_1D.sigma_hi_sq, direction)
            assert stacked.value.shape == () and stacked.maximizer.shape == (1, 1)
            assert float(stacked.value) == one.value == g_scalar(alpha, SET_1D, direction)
            assert stacked.maximizer.tobytes() == one.maximizer.tobytes()
    a, _, _ = _stack_with_zero_eigenvalues(np.random.default_rng(60), 2, n=40)
    stack = g_stack(a, SET_2D.sigma_lo_sq, SET_2D.sigma_hi_sq)
    for i in range(len(a)):
        one = g_matrix(a[i], SET_2D)
        assert stack.value[i] == one.value
        assert stack.maximizer[i].tobytes() == one.maximizer.tobytes()


def test_stack_rejects_an_asymmetric_member():
    a = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])
    with pytest.raises(ValueError, match="not symmetric"):
        g_stack(a, 0.25, 1.0)
    with pytest.raises(ValueError, match="square"):
        g_stack(np.zeros((3, 2, 3)), 0.25, 1.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_contains_on_a_stack_answers_as_each_member_alone(d):
    rng = np.random.default_rng(70 + d)
    a, lo, hi = _stack_with_zero_eigenvalues(rng, d, n=120)
    inside = g_stack(a, lo, hi).maximizer
    lams = np.concatenate([inside, a, inside * 1.5])
    lams[1, 0, -1] += 0.5 * (d > 1)  # a member that is not symmetric
    lo, hi = np.tile(lo, 3), np.tile(hi, 3)
    answers = contains_stack(lams, lo, hi)
    expected = [contains(AmbiguitySet(dim=d, sigma_lo_sq=lo[i], sigma_hi_sq=hi[i]), lams[i])
                for i in range(len(lams))]
    assert answers.dtype == bool and answers.tolist() == expected
    assert all(expected[2:120]) and not all(expected[120:])
    assert expected[1] == (d == 1)
