import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from pytest import mark, raises

from vbcast import qsample
from vbcast.broadcast import antisym, canonical_b, classical_bcl, cloner, family_b_lambda
from vbcast.densemat import Rng, _csum, random_density, random_hermitian
from vbcast.diamond import diamond_bracket
from vbcast.hovm import depolarizing_mp, exact_mp_map
from vbcast.qsample import _jordan_split, _trace, _value_table, estimate_with_trace, write_trace_csv
from vbcast.supermap import covariant_blocks, covariant_map

from dense_maps import dense, dense_choi, exact_cp, identity


def estimate(m, rho, o1, o2, n, rng):
    """The final estimate of a one-checkpoint run."""
    return estimate_with_trace(m, rho, o1, o2, n, rng, n_checkpoints=1)[0]


def sample_map(m, n=100, rng=None):
    """The final estimate of n draws of a map at a fixed state, identity observables; rng None draws nothing."""
    d = m.d_in
    return estimate(m, random_density(d, Rng(0)), identity(d), identity(d), n, rng)


def random_hptp(gen):
    """A seeded covariant HPTP map at d = 2..5 with a rational Jordan split.

    Small integer Hermitian coefficients, divided exactly by Tr C / d, with
    Tr C = x_id d^3 + (x_(12) + x_(13) + x_(23)) d^2 + (x_c + x_c') d: partial
    transposition keeps each table element's trace, d to its number of
    cycles.  Draws of trace 0, or whose max(s^2, w) is not a square, are skipped.
    """
    while True:
        d, xs = gen.randint(2, 5), [gen.randint(-4, 4) for _ in range(4)]
        c = complex(gen.randint(-4, 4), gen.randint(-4, 4) * gen.randint(0, 1))
        trace = xs[0] * d**3 + sum(xs[1:]) * d * d + 2 * int(c.real) * d
        if trace:
            m = covariant_map(d, [x * d for x in [*xs, c, c.conjugate()]], trace)
            _, _, _, s, w = covariant_blocks(d, m.exact)
            if math.isqrt(max(s * s, w)) ** 2 == max(s * s, w):
                return m


def _rounded(value: Fraction, direction: int) -> float:
    """value rounded to a float down (direction -1) or up (1)."""
    x = float(value)
    return x if Fraction(x) * direction >= value * direction else math.nextafter(x, direction * math.inf)


def assert_jordan_split(m):
    """m = lambda+ plus - lambda- minus exactly, with CPTP parts, lambda+ - lambda- = 1, at the diamond norm."""
    lp, lm, den, plus, minus = _jordan_split(m)
    assert ((plus * lp - minus * lm) / den).exact == m.exact
    assert all(exact_cp(part) and part.is_tp() for part in (plus, minus))
    assert lp - lm == den and lm >= 0
    overhead, res = Fraction(lp + lm, den), diamond_bracket(m)
    assert (res.lower_bound, res.upper_bound) == (_rounded(overhead, -1), _rounded(overhead, 1))
    assert Fraction(res.lower_bound) <= overhead <= Fraction(res.upper_bound)


@mark.parametrize("d", range(2, 7))
def test_jordan_split_of_b_is_the_papers(d):
    # B = (d + 1)/2 B+ - (d - 1)/2 B-, with the parts' coefficients exactly those of cloner and antisym
    lp, lm, den, plus, minus = _jordan_split(canonical_b(d))
    assert (plus.exact, minus.exact) == (cloner(d).exact, antisym(d).exact)
    assert (Fraction(lp, den), Fraction(lm, den)) == (Fraction(d + 1, 2), Fraction(d - 1, 2))
    assert_jordan_split(canonical_b(d))


@mark.parametrize("d", range(2, 7))
def test_jordan_split_of_named_maps(d):
    # the channels B+, B-, M' are their own split, lambda- = 0; M is HPTP but not CP
    for m in (cloner(d), antisym(d), exact_mp_map(d), depolarizing_mp(d)):
        assert_jordan_split(m)
    for channel in (cloner(d), antisym(d), depolarizing_mp(d)):
        assert _jordan_split(channel)[1] == 0
    assert _jordan_split(exact_mp_map(d))[1] > 0


def test_jordan_split_of_random_maps():
    # seeded integer maps, with the 2 x 2 block's eigenvalues straddling 0 and not; lambda+ plus and
    # lambda- minus are the positive and negative parts of the dense Choi's eigendecomposition
    gen, seen = random.Random(7), {True: 0, False: 0}
    while min(seen.values()) < 12:
        m = random_hptp(gen)
        _, _, _, s, w = covariant_blocks(m.d_in, m.exact)
        seen[s * s < w] += 1
        assert_jordan_split(m)
        lp, lm, den, plus, minus = _jordan_split(m)
        vals, vecs = np.linalg.eigh(dense_choi(m).mat)
        positive = (vecs * np.clip(vals, 0, None)) @ vecs.conj().T
        assert np.abs(dense_choi(plus).mat * (lp / den) - positive).max() < 1e-12
        assert np.abs(dense_choi(minus).mat * (lm / den) - (positive - dense_choi(m).mat)).max() < 1e-12


@mark.parametrize("d", (2, 3, 4, 5))
def test_overhead_is_exactly_d(d):
    # the overhead of B's derived split, which cli reports as l1_overhead
    assert estimate_with_trace(canonical_b(d), random_density(d, Rng(0)), identity(d), identity(d), 100, Rng(1))[2] == d


def test_rejects_negative_weight_before_any_draw():
    # probabilities of -1 and 2 once sent the binomial draw into an endless loop; a map whose split cannot be
    # drawn is refused first, and with no generator (rng None) any draw would raise AttributeError instead.
    # B_lambda:0.3's split holds an irrational root; a skewed 3-cycle breaks HP and a scaled B breaks TP,
    # each by one exact rational step
    d = 2
    for m, match in (
        (family_b_lambda(d, 0.3), "irrational"),
        (covariant_map(d, [0, 0, 0, 0, 0.5, 0.5 + 1j]), "Hermitian-preserving"),
        (canonical_b(d) * 2, "trace-preserving"),
    ):
        with raises(ValueError, match=match):
            sample_map(m, n=10**6)


def test_rejects_component_that_is_not_covariant():
    # a dense or pattern map has no six coefficients to read, so the sampler names it instead of sampling it;
    # with no generator (rng None) a draw would raise AttributeError instead
    d = 2
    for m in (dense(canonical_b(d)), classical_bcl(d)):
        with raises(ValueError, match="not covariant"):
            sample_map(m, n=10**6)


@mark.parametrize("d", (2, 3, 4, 5, 6))
def test_b_lambda_split_is_irrational(d):
    with raises(ValueError, match="irrational"):
        _jordan_split(family_b_lambda(d, 0.3))


def test_rejects_dim_mismatch():
    # the state must be d x d for the map's input dimension d
    with raises(ValueError, match="rho must be"):
        estimate(canonical_b(2), random_density(3, Rng(0)), identity(2), identity(2), 100, None)


def test_rejects_observables_of_the_wrong_size():
    # O1 and O2 act on the two d-dimensional outputs; rows of another size are not truncated into a value
    d = 2
    target = canonical_b(d)
    rng = Rng(1)
    rho, o = random_density(d, rng), random_hermitian(d, rng)
    for o1, o2 in ((identity(3), o), (o, identity(3)), (identity(1), identity(1))):
        with raises(ValueError, match="Hermitian 2x2"):
            estimate_with_trace(target, rho, o1, o2, 100, Rng(2))


@mark.parametrize("n_checkpoints", (0, -3))
def test_rejects_fewer_than_one_checkpoint(n_checkpoints):
    target = canonical_b(2)
    rho = random_density(2, Rng(0))
    with raises(ValueError, match="1 checkpoint"):
        estimate_with_trace(target, rho, identity(2), identity(2), 100, Rng(0), n_checkpoints=n_checkpoints)


def test_estimator_unbiased():
    d = 2
    target = canonical_b(d)
    rng = Rng(21)
    rho = random_density(d, rng)
    o1 = random_hermitian(d, rng)
    o2 = random_hermitian(d, rng)
    est = estimate(target, rho, o1, o2, 40000, Rng(22))
    assert abs(est.zscore()) < 5.0
    # the correlator identity fixes the exact value
    want = float(np.real(np.trace(rho.mat @ o1.mat @ o2.mat)))
    assert est.exact == pytest.approx(want, abs=1e-12)


def test_single_shot_values_bounded_by_overhead():
    # each draw is L times a channel's exact expectation, so |draw| <= L * ||O1 (x) O2||_inf, and the sample
    # stderr after n draws is at most L*||O||/sqrt(n-1)
    d = 2
    target = canonical_b(d)
    rng = Rng(25)
    rho = random_density(d, rng)
    o1 = random_hermitian(d, rng)
    o2 = random_hermitian(d, rng)
    bound = d * np.abs(np.linalg.eigvalsh(np.kron(o1.mat, o2.mat))).max()
    assert max(map(abs, _value_table(target, rho, o1, o2)[1])) <= bound + 1e-12
    n = 2000
    est = estimate(target, rho, o1, o2, n, Rng(26))
    assert est.stderr <= bound / np.sqrt(n - 1) + 1e-12


def test_stderr_scales_as_inverse_sqrt_n():
    d = 2
    target = canonical_b(d)
    rng = Rng(27)
    rho = random_density(d, rng)
    o1 = random_hermitian(d, rng)
    o2 = random_hermitian(d, rng)
    a = estimate(target, rho, o1, o2, 20000, Rng(28))
    b = estimate(target, rho, o1, o2, 80000, Rng(29))
    ratio = a.stderr / b.stderr
    assert 2.0 * 0.85 < ratio < 2.0 * 1.15


def test_deterministic():
    d = 2
    target = canonical_b(d)
    rho = random_density(d, Rng(30))
    o = identity(d)
    a = estimate(target, rho, o, o, 1000, Rng(31))
    b = estimate(target, rho, o, o, 1000, Rng(31))
    assert a.mean == b.mean and a.stderr == b.stderr


def test_needs_two_draws():
    target = canonical_b(2)
    rho = random_density(2, Rng(0))
    with raises(ValueError):
        estimate(target, rho, identity(2), identity(2), 1, Rng(0))


def test_trace_rows():
    d = 2
    target = canonical_b(d)
    rng = Rng(32)
    rho = random_density(d, rng)
    o1 = random_hermitian(d, rng)
    o2 = random_hermitian(d, rng)
    est, rows, _ = estimate_with_trace(target, rho, o1, o2, 5000, Rng(33), n_checkpoints=10)
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
    target = canonical_b(d)
    rng = Rng(38)
    rho = random_density(d, rng)
    o1 = random_hermitian(d, rng)
    o2 = random_hermitian(d, rng)
    n = 3000
    est, rows, _ = estimate_with_trace(target, rho, o1, o2, n, Rng(39), n_checkpoints=7)
    assert len(rows) == 7 and rows[-1][0] == n

    weights = np.array([(d + 1) / 2, -(d - 1) / 2])
    l1 = np.abs(weights).sum()
    obs = np.kron(o1.mat, o2.mat)
    outs = [ch.apply(rho).mat for ch in (cloner(d), antisym(d))]
    probs = np.abs(weights) / l1
    vals = l1 * np.sign(weights) * np.array([np.real(np.trace(o @ obs)) for o in outs])
    _, table_vals, table_probs, _ = _value_table(target, rho, o1, o2)
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
    target = canonical_b(d)
    rng = Rng(41)
    rho, o1, o2 = random_density(d, rng), random_hermitian(d, rng), random_hermitian(d, rng)
    n = 20001
    _, rows, _ = estimate_with_trace(target, rho, o1, o2, n, Rng(42), n_checkpoints=5)
    _, vals, probs, _ = _value_table(target, rho, o1, o2)
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
    target = canonical_b(d)
    rng = Rng(41)
    rho, o1, o2 = random_density(d, rng), random_hermitian(d, rng), random_hermitian(d, rng)
    _, vals, probs, _ = _value_table(target, rho, o1, o2)
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
    target = canonical_b(3)
    rng = Rng(45)
    rho, o1, o2 = random_density(3, rng), random_hermitian(3, rng), random_hermitian(3, rng)
    a = estimate_with_trace(target, rho, o1, o2, 10**6, Rng(46, 2), n_checkpoints=9)[1]
    b = estimate_with_trace(target, rho, o1, o2, 10**6, Rng(46, 2), n_checkpoints=9)[1]
    c = estimate_with_trace(target, rho, o1, o2, 10**6, Rng(46, 3), n_checkpoints=9)[1]
    assert a == b and a != c


def test_rows_match_dense_value_table():
    # the six trace invariants give each component's value as the dense Tr[C(rho) (O1 (x) O2)] does
    for d in (2, 3, 6):
        target = canonical_b(d)
        rng = Rng(47 + d)
        rho, o1, o2 = random_density(d, rng), random_hermitian(d, rng), random_hermitian(d, rng)
        exact, vals, probs, overhead = _value_table(target, rho, o1, o2)
        obs = np.kron(o1.mat, o2.mat)
        dense = [np.real(np.trace(ch.apply(rho).mat @ obs)) for ch in (cloner(d), antisym(d))]
        assert vals == pytest.approx([d * dense[0], -d * dense[1]], abs=1e-12)
        assert overhead == d
        assert probs == [(d + 1) / (2 * d), (d - 1) / (2 * d)]
        assert exact == pytest.approx(np.real(np.trace(rho.mat @ o1.mat @ o2.mat)), abs=1e-13)


def test_trace_csv():
    target = canonical_b(2)
    rho = random_density(2, Rng(34))
    _, rows, _ = estimate_with_trace(target, rho, identity(2), identity(2), 100, Rng(35), n_checkpoints=5)
    buf = io.StringIO()
    write_trace_csv(buf, rows)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "n,running_mean,running_stderr"
    assert len(lines) == 1 + len(rows)


def test_general_decomposition_sampler():
    # the sampler splits any covariant HPTP map with a rational split, not just B: the channels B+ and M'
    # (lambda- = 0, so every draw is Tr m(rho) = 1), M, and seeded integer maps
    gen = random.Random(8)
    for m in [cloner(3), depolarizing_mp(3), exact_mp_map(3)] + [random_hptp(gen) for _ in range(5)]:
        d = m.d_in
        rho, eye = random_density(d, Rng(36)), identity(d)
        est, _, overhead = estimate_with_trace(m, rho, eye, eye, 10**5, Rng(37), n_checkpoints=1)
        assert est.exact == pytest.approx(1.0, abs=1e-12)
        if overhead == 1:  # a channel: every draw is Tr m(rho), up to rounding
            assert est.mean == pytest.approx(1.0, abs=1e-12)
        else:
            assert abs(est.zscore()) < 5


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
    monkeypatch.setattr(qsample, "_value_table", lambda *args: (0.0, vals, [0.2, 0.8], 1.0))
    monkeypatch.setattr(Rng, "binomial", lambda self, k, p: 1)
    est, _, _ = estimate_with_trace(None, None, None, None, 5, Rng(0), n_checkpoints=1)
    assert est.mean == 4.0 / 5
    terms = [c * (v - est.mean) ** 2 for c, v in zip((1, 4), vals)]
    assert est.stderr == (float(sum(map(Fraction, terms))) / 4 / 5) ** 0.5
