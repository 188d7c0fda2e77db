import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from pytest import mark, raises

from vbcast import qsample
from vbcast.densemat import Rng, _csum, random_density, random_hermitian
from vbcast.supermap import AffineDecomposition
from vbcast.broadcast import antisym, canonical_b, canonical_decomposition, cloner
from vbcast.qsample import _trace, _value_table, estimate_with_trace, write_trace_csv

from dense_maps import identity
from random_fixtures import random_channel


def estimate(dec, rho, o1, o2, n, rng):
    """The final estimate of a one-checkpoint run."""
    return estimate_with_trace(dec, rho, o1, o2, n, rng, n_checkpoints=1)[0]


def sample_split(dec, n=100, rng=None):
    """The final estimate of n draws of a split at a fixed state, identity observables; rng None draws nothing."""
    d = dec.map_plus.d_in
    return estimate(dec, random_density(d, Rng(0)), identity(d), identity(d), n, rng)


@mark.parametrize("d", (2, 3, 4, 5))
def test_overhead_is_exactly_d(d):
    # the overhead of a split the sampler accepts
    dec = canonical_decomposition(d)
    sample_split(dec, rng=Rng(1))
    assert float(dec.lambda_plus) + float(dec.lambda_minus) == pytest.approx(d, abs=1e-14)


def test_rejects_non_cptp_component():
    d = 2
    with raises(ValueError, match="plus-part is not CPTP"):
        sample_split(AffineDecomposition(1.0, 0.0, canonical_b(d), cloner(d)))


def test_rejects_empty_and_zero():
    # a split always has two parts, so the empty mixture is the all-zero one
    dec = canonical_decomposition(2)
    with raises(ValueError, match="all-zero"):
        sample_split(AffineDecomposition(0.0, 0.0, dec.map_plus, dec.map_minus))


def test_rejects_dim_mismatch():
    dec = AffineDecomposition(1.0, 0.0, cloner(2), random_channel(3, 9, Rng(0)))
    with raises(ValueError, match="dimensions"):
        sample_split(dec)


def test_rejects_negative_weight_before_any_draw():
    # probabilities of -1 and 2 once sent the binomial draw into an endless loop; the split is checked
    # first, and with no generator (rng None) any draw would raise AttributeError instead
    with raises(ValueError, match="non-negative"):
        sample_split(AffineDecomposition(-1.0, 2.0, cloner(2), antisym(2)), n=10**6)


def test_rejects_component_that_is_not_covariant():
    # a dense channel has no six coefficients to read, so the sampler names it instead of sampling it
    d = 2
    rho = random_density(d, Rng(0))
    for dec, name in (
        (AffineDecomposition(1.0, 0.0, cloner(d), random_channel(d, d * d, Rng(1))), "map_minus"),
        (AffineDecomposition(1.0, 0.0, random_channel(d, d * d, Rng(1)), cloner(d)), "map_plus"),
    ):
        with raises(ValueError, match=f"{name} is not covariant"):
            estimate_with_trace(dec, rho, identity(d), identity(d), 100, Rng(0))


def test_rejects_observables_of_the_wrong_size():
    # O1 and O2 act on the two d-dimensional outputs; rows of another size are not truncated into a value
    d = 2
    dec = canonical_decomposition(d)
    rng = Rng(1)
    rho, o = random_density(d, rng), random_hermitian(d, rng)
    for o1, o2 in ((identity(3), o), (o, identity(3)), (identity(1), identity(1))):
        with raises(ValueError, match="Hermitian 2x2"):
            estimate_with_trace(dec, rho, o1, o2, 100, Rng(2))


@mark.parametrize("n_checkpoints", (0, -3))
def test_rejects_fewer_than_one_checkpoint(n_checkpoints):
    dec = canonical_decomposition(2)
    rho = random_density(2, Rng(0))
    with raises(ValueError, match="1 checkpoint"):
        estimate_with_trace(dec, rho, identity(2), identity(2), 100, Rng(0), n_checkpoints=n_checkpoints)


def test_estimator_unbiased():
    d = 2
    dec = canonical_decomposition(d)
    rng = Rng(21)
    rho = random_density(d, rng)
    o1 = random_hermitian(d, rng)
    o2 = random_hermitian(d, rng)
    est = estimate(dec, rho, o1, o2, 40000, Rng(22))
    assert abs(est.zscore()) < 5.0
    # the correlator identity fixes the exact value
    want = float(np.real(np.trace(rho.mat @ o1.mat @ o2.mat)))
    assert est.exact == pytest.approx(want, abs=1e-12)


def test_single_shot_values_bounded_by_overhead():
    # each draw is L times a channel's exact expectation, so |draw| <= L * ||O1 (x) O2||_inf, and the sample
    # stderr after n draws is at most L*||O||/sqrt(n-1)
    d = 2
    dec = canonical_decomposition(d)
    rng = Rng(25)
    rho = random_density(d, rng)
    o1 = random_hermitian(d, rng)
    o2 = random_hermitian(d, rng)
    bound = (dec.lambda_plus + dec.lambda_minus) * np.abs(np.linalg.eigvalsh(np.kron(o1.mat, o2.mat))).max()
    assert max(map(abs, _value_table(dec, rho, o1, o2)[1])) <= bound + 1e-12
    n = 2000
    est = estimate(dec, rho, o1, o2, n, Rng(26))
    assert est.stderr <= bound / np.sqrt(n - 1) + 1e-12


def test_stderr_scales_as_inverse_sqrt_n():
    d = 2
    dec = canonical_decomposition(d)
    rng = Rng(27)
    rho = random_density(d, rng)
    o1 = random_hermitian(d, rng)
    o2 = random_hermitian(d, rng)
    a = estimate(dec, rho, o1, o2, 20000, Rng(28))
    b = estimate(dec, rho, o1, o2, 80000, Rng(29))
    ratio = a.stderr / b.stderr
    assert 2.0 * 0.85 < ratio < 2.0 * 1.15


def test_deterministic():
    d = 2
    dec = canonical_decomposition(d)
    rho = random_density(d, Rng(30))
    o = identity(d)
    a = estimate(dec, rho, o, o, 1000, Rng(31))
    b = estimate(dec, rho, o, o, 1000, Rng(31))
    assert a.mean == b.mean and a.stderr == b.stderr


def test_needs_two_draws():
    dec = canonical_decomposition(2)
    rho = random_density(2, Rng(0))
    with raises(ValueError):
        estimate(dec, rho, identity(2), identity(2), 1, Rng(0))


def test_trace_rows():
    d = 2
    dec = canonical_decomposition(d)
    rng = Rng(32)
    rho = random_density(d, rng)
    o1 = random_hermitian(d, rng)
    o2 = random_hermitian(d, rng)
    est, rows = estimate_with_trace(dec, rho, o1, o2, 5000, Rng(33), n_checkpoints=10)
    ns = [m for m, _, _ in rows]
    assert ns == sorted(ns)
    assert ns[-1] == 5000
    assert rows[-1][1] == est.mean
    assert abs(est.zscore()) < 5.0


# (n, p, seed): the geometric branch (n p < 10), BTRS (n p >= 10), p > 1/2 through the failures, and the edges
BINOMIAL_CASES = [
    (1, 0.3, 50), (7, 0.2, 51), (40, 0.1, 52), (30, 0.5, 53), (60, 0.8, 54), (200, 0.35, 55), (25, 0.97, 56),
]


@mark.parametrize("n, p, seed", BINOMIAL_CASES)
def test_binomial_frequencies_match_pmf(n, p, seed):
    # chi-square of 20000 draws against the math.comb pmf, cells with expected count >= 5 kept, the rest pooled
    rng, draws = Rng(seed), 20000
    seen = [0] * (n + 1)
    for _ in range(draws):
        seen[rng.binomial(n, p)] += 1
    pmf = [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    cells, pooled = [], [0, 0.0]
    for k in range(n + 1):
        if pmf[k] * draws >= 5:
            cells.append((seen[k], pmf[k] * draws))
        else:
            pooled[0] += seen[k]
            pooled[1] += pmf[k] * draws
    if pooled[1] > 0:
        cells.append(tuple(pooled))
    chi2 = sum((o - e) ** 2 / e for o, e in cells)
    dof = len(cells) - 1
    assert chi2 < dof + 6 * math.sqrt(2 * dof), (chi2, dof)
    mean = sum(k * c for k, c in enumerate(seen)) / draws
    assert abs(mean - n * p) < 6 * math.sqrt(n * p * (1 - p) / draws)


@mark.parametrize("n", (0, 1, 5, 10**12))
def test_binomial_edges(n):
    rng = Rng(57)
    assert rng.binomial(n, 0.0) == 0
    assert rng.binomial(n, 1.0) == n
    assert 0 <= rng.binomial(n, 0.5) <= n
    assert 0 <= rng.binomial(n, 1e-30) <= n


@mark.parametrize("p", (-5e-324, 1 + 2**-52, math.nan, -0.5, 1.5))
def test_binomial_rejects_p_outside_the_unit_interval(p):
    # such a p once sent the geometric skips backwards, and the draw never returned
    with raises(ValueError, match="0 <= p <= 1"):
        Rng(58).binomial(10, p)


def test_trace_matches_materialised_draws():
    # the value table rebuilt from the dense channels, the segments laid out as one draw per shot
    d = 2
    dec = canonical_decomposition(d)
    rng = Rng(38)
    rho = random_density(d, rng)
    o1 = random_hermitian(d, rng)
    o2 = random_hermitian(d, rng)
    n = 3000
    est, rows = estimate_with_trace(dec, rho, o1, o2, n, Rng(39), n_checkpoints=7)
    assert len(rows) == 7 and rows[-1][0] == n

    weights = np.array([dec.lambda_plus, -dec.lambda_minus])
    l1 = np.abs(weights).sum()
    obs = np.kron(o1.mat, o2.mat)
    outs = [ch.apply(rho).mat for ch in (dec.map_plus, dec.map_minus)]
    probs = np.abs(weights) / l1
    vals = l1 * np.sign(weights) * np.array([np.real(np.trace(o @ obs)) for o in outs])
    _, table_vals, table_probs = _value_table(dec, rho, o1, o2)
    assert table_vals == pytest.approx(vals.tolist(), abs=1e-12)
    assert table_probs == pytest.approx(probs.tolist(), abs=1e-12)
    # replay the segments from the same stream, in order, as one array of n draws
    replay = Rng(39)
    draws, done = [], 0
    for m, _, _ in rows:
        first = replay.binomial(m - done, table_probs[0])
        draws.extend(np.repeat(vals, [first, m - done - first]))
        done = m
    draws = np.array(draws)
    assert draws.size == n
    for m, mean, stderr in rows:
        assert mean == pytest.approx(draws[:m].mean(), abs=1e-12)
        assert stderr == pytest.approx(draws[:m].std(ddof=1) / np.sqrt(m), abs=1e-12)
    assert (est.mean, est.stderr, est.n) == (rows[-1][1], rows[-1][2], n)


@mark.parametrize("d", (2, 6))
def test_rows_recomputed_from_segment_counts(d):
    # each checkpoint's mean and stderr are those of the draws so far, rebuilt from the per-segment counts
    dec = canonical_decomposition(d)
    rng = Rng(41)
    rho, o1, o2 = random_density(d, rng), random_hermitian(d, rng), random_hermitian(d, rng)
    n = 20001
    _, rows = estimate_with_trace(dec, rho, o1, o2, n, Rng(42), n_checkpoints=5)
    _, vals, probs = _value_table(dec, rho, o1, o2)
    assert len(vals) == 2
    replay = Rng(42)
    counts = np.zeros(len(vals))
    done = 0
    for m, mean, stderr in rows:
        first = replay.binomial(m - done, probs[0])
        counts += [first, m - done - first]
        done = m
        draws = np.repeat(vals, counts.astype(int))
        assert draws.size == m
        assert mean == pytest.approx(draws.mean(), abs=1e-12)
        assert stderr == pytest.approx(draws.std(ddof=1) / np.sqrt(m), abs=1e-12)
    assert [m for m, _, _ in rows] == [4000, 8000, 12000, 16000, 20001]


@mark.parametrize("d", (2, 6))
def test_counts_match_choice_bincount(d):
    # a segment's per-value counts have the law of Generator.choice's indices reduced by bincount
    dec = canonical_decomposition(d)
    rng = Rng(41)
    rho, o1, o2 = random_density(d, rng), random_hermitian(d, rng), random_hermitian(d, rng)
    _, vals, probs = _value_table(dec, rho, o1, o2)
    segments, m = 2000, 50
    drawn, gen = Rng(42), Rng(43).gen
    ours = np.array([[c, m - c] for c in (drawn.binomial(m, probs[0]) for _ in range(segments))])
    theirs = np.array(
        [np.bincount(gen.choice(len(vals), size=m, p=probs), minlength=len(vals)) for _ in range(segments)]
    )
    assert (ours.sum(axis=1) == m).all() and (ours >= 0).all()

    # pooled over the segments: two-sample chi-square, cells with expected count < 5 pooled into one
    keep = segments * m * np.array(probs) >= 5
    table = np.array([ours.sum(axis=0), theirs.sum(axis=0)])
    table = np.column_stack([table[:, keep], table[:, ~keep].sum(axis=1)])
    table = table[:, table.sum(axis=0) > 0]
    expected = table.sum(axis=0) / 2
    chi2 = ((table - expected) ** 2 / expected).sum()
    dof = table.shape[1] - 1
    assert chi2 < dof + 6 * math.sqrt(2 * dof), (chi2, dof)

    # per segment: the mean value of each source has the table's mean and variance / m
    v = np.array(vals)
    mu = np.dot(probs, v)
    var = np.dot(probs, (v - mu) ** 2)
    kurt = np.dot(probs, (v - mu) ** 4) / var**2 - 3
    for counts in (ours, theirs):
        means = counts @ v / m
        assert abs(means.mean() - mu) < 6 * math.sqrt(var / m / segments)
        spread = math.sqrt(2 / (segments - 1) + kurt / m / segments)
        assert abs(means.var(ddof=1) / (var / m) - 1) < 6 * spread


def test_same_seed_and_stream_same_rows():
    dec = canonical_decomposition(3)
    rng = Rng(45)
    rho, o1, o2 = random_density(3, rng), random_hermitian(3, rng), random_hermitian(3, rng)
    a = estimate_with_trace(dec, rho, o1, o2, 10**6, Rng(46, 2), n_checkpoints=9)[1]
    b = estimate_with_trace(dec, rho, o1, o2, 10**6, Rng(46, 2), n_checkpoints=9)[1]
    c = estimate_with_trace(dec, rho, o1, o2, 10**6, Rng(46, 3), n_checkpoints=9)[1]
    assert a == b and a != c


def test_rows_match_dense_value_table():
    # the six trace invariants give each component's value as the dense Tr[C(rho) (O1 (x) O2)] does
    for d in (2, 3, 6):
        dec = canonical_decomposition(d)
        rng = Rng(47 + d)
        rho, o1, o2 = random_density(d, rng), random_hermitian(d, rng), random_hermitian(d, rng)
        exact, vals, probs = _value_table(dec, rho, o1, o2)
        obs = np.kron(o1.mat, o2.mat)
        dense = [np.real(np.trace(ch.apply(rho).mat @ obs)) for ch in (dec.map_plus, dec.map_minus)]
        assert vals == pytest.approx([d * dense[0], -d * dense[1]], abs=1e-12)
        assert probs == [(d + 1) / (2 * d), (d - 1) / (2 * d)]
        assert exact == pytest.approx(np.real(np.trace(rho.mat @ o1.mat @ o2.mat)), abs=1e-13)


def test_trace_csv():
    dec = canonical_decomposition(2)
    rho = random_density(2, Rng(34))
    _, rows = estimate_with_trace(dec, rho, identity(2), identity(2), 100, Rng(35), n_checkpoints=5)
    buf = io.StringIO()
    write_trace_csv(buf, rows)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "n,running_mean,running_stderr"
    assert len(lines) == 1 + len(rows)


def test_general_decomposition_sampler():
    # sampler built from any valid two-channel split, not just the canonical one
    d = 2
    dec = AffineDecomposition(1.0, 0.0, cloner(d), antisym(d))
    rho = random_density(d, Rng(36))
    est = estimate(dec, rho, identity(d), identity(d), 100, Rng(37))
    assert est.mean == pytest.approx(1.0)  # TP target, identity observable


def _rounded_sum(values) -> complex:
    """The exact sum of complex floats, each part summed as Fractions and rounded once."""
    return complex(*(float(sum(Fraction(getattr(z, part)) for z in values)) for part in ("real", "imag")))


def test_sums_are_correctly_rounded():
    # the builtin sum compensates float rounding only from Python 3.12 on; each of these sums is rounded once
    gen = random.Random(5)
    cancelling = [1e16 + 1e16j, 1.0 - 1.0j, -1e16 - 1e16j, 1e-3 + 3e-17j]
    assert _csum(cancelling) == _rounded_sum(cancelling) == 1.001 - 1j
    for n in (1, 7, 50):
        values = [complex(gen.uniform(-1, 1) * 10 ** gen.randint(-20, 20), gen.gauss(0, 1e8)) for _ in range(n)]
        assert _csum(values) == _rounded_sum(values)
        a = [[complex(gen.gauss(0, 1e9), gen.gauss(0, 1)) for _ in range(n)] for _ in range(n)]
        b = [[complex(gen.gauss(0, 1), gen.gauss(0, 1e-9)) for _ in range(n)] for _ in range(n)]
        assert _trace(a) == _rounded_sum([a[i][i] for i in range(n)])
        assert _trace(a, b) == _rounded_sum([a[i][j] * b[j][i] for i in range(n) for j in range(n)])


def test_running_moments_are_correctly_rounded(monkeypatch):
    # counts (1, 4) of the values (2e16 + 4, -5e15): the weighted sum cancels to exactly 4
    vals = [2e16 + 4, -5e15]
    monkeypatch.setattr(qsample, "_value_table", lambda *args: (0.0, vals, [0.2, 0.8]))
    monkeypatch.setattr(Rng, "binomial", lambda self, k, p: 1)
    est, _ = estimate_with_trace(None, None, None, None, 5, Rng(0), n_checkpoints=1)
    assert est.mean == 4.0 / 5
    terms = [c * (v - est.mean) ** 2 for c, v in zip((1, 4), vals)]
    assert est.stderr == (float(sum(map(Fraction, terms))) / 4 / 5) ** 0.5
