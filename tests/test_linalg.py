"""The package's one cosine kernel, `selection.cosines_to_vector`.

Every cosine in the package (similarity, diversity, affinity, commit
ranking, the gradient diagnostic) goes through it, so its conventions are
pinned here: a zero-norm operand scores 0, never NaN, and results are
clamped into [-1, 1] after the division.
"""

import math

import numpy as np
import pytest

from coresel.errors import DimensionError
from coresel.selection import cosines_to_vector


def oracle_cosine(u, v):
    # Independent scalar-loop reference: no numpy vector ops.
    dot = sum(float(a) * float(b) for a, b in zip(u, v))
    nu = math.sqrt(sum(float(a) ** 2 for a in u))
    nv = math.sqrt(sum(float(b) ** 2 for b in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return max(-1.0, min(1.0, dot / (nu * nv)))


def cosine(u, v):
    """Cosine of one pair through the row-wise kernel."""
    return float(cosines_to_vector(np.asarray([u], dtype=np.float64), np.asarray(v, dtype=np.float64))[0])


def test_cosine_worked_example():
    # Oracle: dot=1, norms 1 and sqrt(2) -> 1/sqrt(2) = 0.7071067811865475.
    assert oracle_cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.70710678, abs=1e-8)
    assert cosine([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.70710678, abs=1e-8)


def test_cosine_zero_norm_convention():
    assert cosine([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]) == 0.0
    assert cosine([1.0, 2.0], [0.0, 0.0]) == 0.0
    assert cosine([0.0], [0.0]) == 0.0
    rows = np.array([[1.0, 2.0], [0.0, 0.0], [-3.0, 1.0]])
    assert cosines_to_vector(rows, np.array([2.0, 1.0]))[1] == 0.0


def test_cosine_matches_oracle_and_stays_in_range():
    rng = np.random.default_rng(20240811)
    for _ in range(2000):
        n = int(rng.integers(1, 12))
        rows = rng.normal(size=(5, n)) * 10.0 ** rng.integers(-3, 4)
        v = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        got = cosines_to_vector(rows, v)
        assert np.all(got >= -1.0) and np.all(got <= 1.0)
        assert got == pytest.approx([oracle_cosine(r, v) for r in rows], abs=1e-10)


def test_cosine_parallel_vectors_hit_the_bounds():
    assert cosine([1.0, 0.0], [1.0, 0.0]) == 1.0
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
    rng = np.random.default_rng(7)
    for _ in range(200):
        u = rng.normal(size=8)
        got = cosines_to_vector(np.stack([3.5 * u, -2.0 * u]), u)
        assert got[0] == pytest.approx(1.0, abs=1e-12) and got[0] <= 1.0
        assert got[1] == pytest.approx(-1.0, abs=1e-12) and got[1] >= -1.0


def test_cosine_positive_scale_invariance():
    rng = np.random.default_rng(99)
    for _ in range(500):
        rows = rng.normal(size=(3, 6))
        v = rng.normal(size=6)
        base = cosines_to_vector(rows, v)
        assert cosines_to_vector(17.0 * rows, v) == pytest.approx(base, abs=1e-12)
        assert cosines_to_vector(rows, 0.001 * v) == pytest.approx(base, abs=1e-12)


def test_shape_errors():
    with pytest.raises(DimensionError):
        cosines_to_vector(np.ones((1, 2)), np.ones(3))
    with pytest.raises(DimensionError):
        cosines_to_vector(np.ones((2, 2)), np.ones((2, 2)))
