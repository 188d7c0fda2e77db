import io
from types import SimpleNamespace

import numpy as np
import pytest
from pytest import mark, raises

from vbcast.densemat import Rng, random_density, random_hermitian
from vbcast.supermap import AffineDecomposition
from vbcast.broadcast import antisym, canonical_b, canonical_decomposition, cloner
from vbcast.diamond import hptp_upper
from vbcast.qsample import DRAW_CHUNK, _value_table, estimate_with_trace, write_trace_csv

from dense_maps import identity
from random_fixtures import random_channel


def estimate(dec, rho, o1, o2, n, rng, shot_noise=False):
    """The final estimate of a one-checkpoint run."""
    return estimate_with_trace(dec, rho, o1, o2, n, rng, n_checkpoints=1, shot_noise=shot_noise)[0]


@mark.parametrize("d", (2, 3, 4, 5))
def test_overhead_is_exactly_d(d):
    assert hptp_upper(canonical_decomposition(d)) == pytest.approx(d, abs=1e-14)


def test_rejects_non_cptp_component():
    d = 2
    with raises(ValueError):
        hptp_upper(AffineDecomposition(1.0, 0.0, canonical_b(d), cloner(d)))


def test_rejects_empty_and_zero():
    # a split always has two parts, so the empty mixture is the all-zero one
    dec = canonical_decomposition(2)
    with raises(ValueError):
        hptp_upper(AffineDecomposition(0.0, 0.0, dec.map_plus, dec.map_minus))


def test_rejects_dim_mismatch():
    dec = AffineDecomposition(1.0, 0.0, cloner(2), random_channel(3, 9, Rng(0)))
    with raises(ValueError):
        hptp_upper(dec)
    rho = random_density(2, Rng(0))
    with raises(ValueError):
        estimate_with_trace(dec, rho, identity(2), identity(2), 100, Rng(0))


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


def test_shot_noise_mode_unbiased():
    d = 2
    dec = canonical_decomposition(d)
    rng = Rng(23)
    rho = random_density(d, rng)
    o1 = random_hermitian(d, rng)
    o2 = random_hermitian(d, rng)
    est = estimate(dec, rho, o1, o2, 40000, Rng(24), shot_noise=True)
    assert abs(est.zscore()) < 5.0


def test_single_shot_values_bounded_by_overhead():
    # |estimate per draw| <= L * ||O1 (x) O2||_inf, so the sample stderr
    # after n draws is at most L*||O||/sqrt(n-1)
    d = 2
    dec = canonical_decomposition(d)
    rng = Rng(25)
    rho = random_density(d, rng)
    o1 = random_hermitian(d, rng)
    o2 = random_hermitian(d, rng)
    norm = np.abs(np.linalg.eigvalsh(np.kron(o1.mat, o2.mat))).max()
    n = 2000
    est = estimate(dec, rho, o1, o2, n, Rng(26), shot_noise=True)
    assert est.stderr <= hptp_upper(dec) * norm / np.sqrt(n - 1) + 1e-12


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


@mark.parametrize("shot_noise", (False, True))
def test_trace_matches_materialised_draws(shot_noise):
    # one size-n draw and its running mean/stderr, the pre-count formulation
    d = 2
    dec = canonical_decomposition(d)
    rng = Rng(38)
    rho = random_density(d, rng)
    o1 = random_hermitian(d, rng)
    o2 = random_hermitian(d, rng)
    n = 3000
    est, rows = estimate_with_trace(
        dec, rho, o1, o2, n, Rng(39), n_checkpoints=7, shot_noise=shot_noise
    )
    assert len(rows) == 7 and rows[-1][0] == n

    weights = np.array([dec.lambda_plus, -dec.lambda_minus])
    l1 = np.abs(weights).sum()
    obs = np.kron(o1.mat, o2.mat)
    outs = [ch.apply(rho).mat for ch in (dec.map_plus, dec.map_minus)]
    gen = Rng(39).gen
    if shot_noise:
        evals, evecs = np.linalg.eigh(obs)
        born = np.array([np.real(np.diag(evecs.conj().T @ o @ evecs)) for o in outs])
        born = np.clip(born, 0.0, None)
        born /= born.sum(axis=1, keepdims=True)
        joint = (np.abs(weights)[:, None] / l1 * born).reshape(-1)
        comp, eig = np.divmod(gen.choice(joint.size, size=n, p=joint / joint.sum()), evals.size)
        draws = l1 * np.sign(weights)[comp] * evals[eig]
    else:
        vals = l1 * np.sign(weights) * np.array([np.real(np.trace(o @ obs)) for o in outs])
        draws = vals[gen.choice(vals.size, size=n, p=np.abs(weights) / l1)]
    for m, mean, stderr in rows:
        assert mean == pytest.approx(draws[:m].mean(), abs=1e-12)
        assert stderr == pytest.approx(draws[:m].std(ddof=1) / np.sqrt(m), abs=1e-12)
    final = estimate(dec, rho, o1, o2, n, Rng(39), shot_noise=shot_noise)
    assert (final.mean, final.stderr, final.n) == (est.mean, est.stderr, n)


@mark.parametrize("d", (2, 6))
@mark.parametrize("shot_noise", (False, True))
def test_counts_match_choice_bincount(d, shot_noise):
    # the cdf counts of each segment against Generator.choice's indices reduced by bincount
    dec = canonical_decomposition(d)
    rng = Rng(41)
    rho, o1, o2 = random_density(d, rng), random_hermitian(d, rng), random_hermitian(d, rng)
    _, rows = estimate_with_trace(dec, rho, o1, o2, 20000, Rng(42), n_checkpoints=5, shot_noise=shot_noise)
    _, vals, probs = _value_table(dec, rho, o1, o2, shot_noise)
    assert vals.size == (2 * d * d if shot_noise else 2)
    gen = Rng(42).gen
    counts = np.zeros(vals.size)
    done = 0
    for m, mean, _ in rows:
        counts += np.bincount(gen.choice(vals.size, size=m - done, p=probs), minlength=vals.size)
        done = m
        assert mean == counts @ vals / m


def test_segments_drawn_in_bounded_chunks():
    # a segment once drew all of its uniforms at once: 197.5 MB peak RSS for sample --n 2e8
    dec = canonical_decomposition(2)
    rng = Rng(43)
    rho, o1, o2 = random_density(2, rng), random_hermitian(2, rng), random_hermitian(2, rng)
    n = 2 * DRAW_CHUNK + 3
    sizes = []
    recorded = Rng(44)
    gen = recorded.gen
    recorded.gen = SimpleNamespace(random=lambda size: (sizes.append(size), gen.random(size))[1])
    _, rows = estimate_with_trace(dec, rho, o1, o2, n, recorded, n_checkpoints=1)
    assert max(sizes) == DRAW_CHUNK and sum(sizes) == n
    # consecutive draws continue one stream, so the chunks count what one size-n choice draws
    _, vals, probs = _value_table(dec, rho, o1, o2, False)
    counts = np.zeros(vals.size)
    counts += np.bincount(Rng(44).gen.choice(vals.size, size=n, p=probs), minlength=vals.size)
    assert len(rows) == 1 and rows[0][1] == counts @ vals / n


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
    assert hptp_upper(dec) == pytest.approx(1.0)
    rho = random_density(d, Rng(36))
    est = estimate(dec, rho, identity(d), identity(d), 100, Rng(37))
    assert est.mean == pytest.approx(1.0)  # TP target, identity observable
