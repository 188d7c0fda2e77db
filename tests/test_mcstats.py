import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vbcast.densemat import Operator, Rng
from vbcast.mcstats import ZERO_DEVIATION, MatrixSamplingEstimate, MatrixWelford, SamplingEstimate

from dense_mp_sampling import update_batch


def test_welford_matches_direct_formulas():
    rng = Rng(1)
    xs = rng.gen.standard_normal((500, 3, 3)) + 1j * rng.gen.standard_normal((500, 3, 3))
    acc = MatrixWelford((3, 3))
    # uneven chunking must not change the result
    for lo, hi in ((0, 7), (7, 200), (200, 201), (201, 500)):
        update_batch(acc, xs[lo:hi])
    assert acc.n == 500
    assert_allclose(acc.mean, xs.mean(axis=0), atol=1e-12)
    se_re, se_im = acc.stderr()
    assert_allclose(se_re, xs.real.std(axis=0, ddof=1) / np.sqrt(500), atol=1e-12)
    assert_allclose(se_im, xs.imag.std(axis=0, ddof=1) / np.sqrt(500), atol=1e-12)


def test_welford_empty_batch_is_noop():
    acc = MatrixWelford((2, 2))
    update_batch(acc, np.zeros((0, 2, 2), dtype=complex))
    assert acc.n == 0


def test_stderr_needs_two_samples():
    acc = MatrixWelford((2, 2))
    update_batch(acc, np.ones((1, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        acc.stderr()


def test_scalar_zscore():
    est = SamplingEstimate(mean=1.1, stderr=0.05, n=100, exact=1.0)
    assert est.zscore() == pytest.approx(2.0)
    exactish = SamplingEstimate(mean=1.0, stderr=0.0, n=100, exact=1.0)
    assert exactish.zscore() == 0.0
    broken = SamplingEstimate(mean=2.0, stderr=0.0, n=100, exact=1.0)
    assert broken.zscore() == np.inf
    with pytest.raises(ValueError):
        SamplingEstimate(mean=1.0, stderr=0.1, n=10).zscore()


def test_matrix_max_zscore():
    mean = Operator([[1.0, 0.0], [0.0, 1.0]])
    exact = Operator([[1.0, 0.0], [0.0, 0.9]])
    se = 0.02 * np.ones((2, 2))
    est = MatrixSamplingEstimate(mean=mean, stderr_re=se, stderr_im=se, n=50, exact=exact)
    assert est.max_zscore() == pytest.approx(5.0)
    with pytest.raises(ValueError):
        MatrixSamplingEstimate(mean=mean, stderr_re=se, stderr_im=se, n=50).max_zscore()


def test_matrix_zero_stderr_handling():
    mean = Operator([[1.0, 0.0], [0.0, 1.0]])
    se = np.zeros((2, 2))
    same = MatrixSamplingEstimate(mean=mean, stderr_re=se, stderr_im=se, n=5, exact=mean)
    assert same.max_zscore() == 0.0
    other = MatrixSamplingEstimate(
        mean=mean, stderr_re=se, stderr_im=se, n=5, exact=Operator(np.zeros((2, 2)))
    )
    assert other.max_zscore() == np.inf


@pytest.mark.parametrize(
    "delta, want", ((ZERO_DEVIATION, 0.0), (math.nextafter(ZERO_DEVIATION, math.inf), math.inf))
)
def test_zero_stderr_boundary_agrees(delta, want):
    # a deviation with zero stderr scores the same in the scalar and the entrywise z-score, at the threshold too
    assert SamplingEstimate(mean=delta, stderr=0.0, n=5, exact=0.0).zscore() == want
    zero = np.zeros((1, 1))
    est = MatrixSamplingEstimate(Operator([[delta]]), zero, zero, n=5, exact=Operator(zero))
    assert est.max_zscore() == want
    est = MatrixSamplingEstimate(Operator([[1j * delta]]), zero, zero, n=5, exact=Operator(zero))
    assert est.max_zscore() == want


def test_merge_halves_matches_update_batch():
    rng = Rng(2)
    xs = rng.gen.standard_normal((301, 4, 4)) + 1j * rng.gen.standard_normal((301, 4, 4))
    whole = MatrixWelford((4, 4))
    update_batch(whole, xs)
    merged = MatrixWelford((4, 4))
    for half in (xs[:150], xs[150:]):
        mean = half.mean(axis=0)
        m2_re = ((half.real - mean.real) ** 2).sum(axis=0)
        m2_im = ((half.imag - mean.imag) ** 2).sum(axis=0)
        merged.merge(half.shape[0], mean, m2_re, m2_im)
    assert merged.n == whole.n == 301
    assert_allclose(merged.mean, whole.mean, rtol=0, atol=1e-12)
    assert_allclose(merged.m2_re, whole.m2_re, rtol=1e-12)
    assert_allclose(merged.m2_im, whole.m2_im, rtol=1e-12)


def test_merge_zero_samples_is_noop():
    acc = MatrixWelford((2, 2))
    update_batch(acc, np.arange(12, dtype=complex).reshape(3, 2, 2) * (1 + 2j))
    before = (acc.n, acc.mean.copy(), acc.m2_re.copy(), acc.m2_im.copy())
    acc.merge(0, np.full((2, 2), 7.0 + 1j), np.ones((2, 2)), np.ones((2, 2)))
    assert acc.n == before[0]
    assert np.array_equal(acc.mean, before[1])
    assert np.array_equal(acc.m2_re, before[2])
    assert np.array_equal(acc.m2_im, before[3])
    empty = MatrixWelford((2, 2))
    empty.merge(0, np.ones((2, 2), dtype=complex), np.ones((2, 2)), np.ones((2, 2)))
    assert empty.n == 0
    assert not empty.mean.any() and not empty.m2_re.any() and not empty.m2_im.any()
