import io
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from pytest import mark, raises
from vbcast import hovm
from vbcast.broadcast import canonical_b

from vbcast.densemat import (
    Operator,
    Rng,
    random_density,
)
from vbcast.hovm import (
    _mp_moments,
    depolarizing_mp,
    exact_mp_map,
    sample_mp_blocks,
    theorem3_weight,
    verify_theorem3,
    write_sampling_csv,
)
from vbcast.mcstats import MatrixWelford

from dense_covariant import moment_operator, sym_projector
from dense_maps import absmax, dense_choi, eigh, exact_cp, identity, is_psd, jamiolkowski, partial_trace, swap, trace
from dense_mp_sampling import dense_sample_chunk, dense_sample_mp_blocks, entrywise_sampling_csv, update_batch
from finite_hovm import FiniteHOVM, m_psi, rho_psi
from random_fixtures import basis_state, random_pure, random_pure_vector

SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.diag([1.0, -1.0]).astype(complex),
)


def bloch(n):
    m = np.eye(2, dtype=complex) / 2
    for c, s in zip(n, SIGMA):
        m += c * s / 2
    return Operator(m)


# eigenstates of X, Y, Z: a projective 3-design on the qubit
STABILIZER = [bloch(v) for v in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))]

# tetrahedron: a 2-design but not a 3-design
TETRAHEDRON = [
    bloch(v)
    for v in (
        (0, 0, 1),
        (2 * np.sqrt(2) / 3, 0, -1 / 3),
        (-np.sqrt(2) / 3, np.sqrt(2 / 3), -1 / 3),
        (-np.sqrt(2) / 3, -np.sqrt(2 / 3), -1 / 3),
    )
]


class TestMomentOperators:
    @mark.parametrize("d", (2, 3, 4))
    def test_first(self, d):
        assert_allclose(moment_operator(d, 1).mat, np.eye(d) / d)

    @mark.parametrize("d", (2, 3, 4))
    def test_second(self, d):
        mom2 = moment_operator(d, 2)
        assert_allclose(mom2.mat, (np.eye(d * d) + swap(d).mat) / (d * (d + 1)))
        assert trace(mom2) == pytest.approx(1.0)
        assert is_psd(mom2)
        p = sym_projector(d).mat
        assert_allclose(p @ mom2.mat @ p, mom2.mat, atol=1e-13)

    @mark.parametrize("d", (2, 3))
    def test_third_permutation_invariant(self, d):
        mom3 = moment_operator(d, 3).mat
        g12 = np.kron(swap(d).mat, np.eye(d))
        g23 = np.kron(np.eye(d), swap(d).mat)
        for g in (g12, g23, g12 @ g23, g23 @ g12, g12 @ g23 @ g12):
            assert_allclose(g @ mom3 @ g.conj().T, mom3, atol=1e-13)
            assert_allclose(g @ mom3, mom3 @ g, atol=1e-13)
        assert np.trace(mom3) == pytest.approx(1.0)

    @mark.parametrize("d", (2, 3))
    def test_third_collapses_to_second(self, d):
        # tracing out one factor of the third moment leaves the second
        mom3 = moment_operator(d, 3)
        mom2 = moment_operator(d, 2)
        red = partial_trace(mom3, (d * d, d), keep="first")
        assert_allclose(red.mat, mom2.mat, atol=1e-13)

    def test_monte_carlo_agreement(self):
        d, n = 2, 20000
        rng = Rng(13)
        acc = MatrixWelford((d * d, d * d))
        for start in range(0, n, 5000):
            count = min(5000, n - start)
            vecs = np.empty((count, d), dtype=complex)
            for k in range(count):
                vecs[k] = random_pure_vector(d, rng)
            pair = np.einsum("ci,cj->cij", vecs, vecs.conj())
            update_batch(acc, np.einsum("cij,ckl->cikjl", pair, pair).reshape(count, d * d, d * d))
        delta = acc.mean - moment_operator(d, 2).mat
        se_re, se_im = acc.stderr()
        z_re = np.abs(delta.real) / np.maximum(se_re, 1e-30)
        z_im = np.abs(delta.imag) / np.maximum(se_im, 1e-30)
        assert max(z_re.max(), z_im.max()) < 5.0

    def test_unsupported_orders(self):
        with raises(ValueError):
            moment_operator(2, 0)
        with raises(ValueError):
            moment_operator(2, 4)


class TestVirtualStates:
    @mark.parametrize("d", (2, 3, 4))
    def test_rho_psi_spectrum(self, d):
        psi = random_pure(d, Rng(d))
        r = rho_psi(psi, d)
        assert trace(r) == pytest.approx(1.0)
        vals, _ = eigh(r)
        assert vals[0] == pytest.approx((d + 1) / 2)
        assert_allclose(vals[1:], -0.5 * np.ones(d - 1), atol=1e-12)

    def test_m_psi_averages_to_identity(self):
        # degree-1 integrand: any 1-design reproduces the Haar mean
        total = sum(m_psi(p, 2).mat for p in STABILIZER) / len(STABILIZER)
        assert_allclose(total, np.eye(2), atol=1e-12)

    def test_rejects_mixed_state(self):
        with raises(ValueError):
            rho_psi(Operator(np.eye(2) * 0.5), 2)
        with raises(ValueError):
            rho_psi(basis_state(3, 0), 2)


class TestExactMpMap:
    @mark.parametrize("d", (2, 3, 4))
    def test_hp_tp_not_cp(self, d):
        m = exact_mp_map(d)
        assert m.is_hp() and m.is_tp()
        assert not exact_cp(m)
        vals, _ = eigh(dense_choi(m))
        assert vals[-1] < -0.1

    @mark.parametrize("d", (2, 3, 4, 5))
    def test_theorem3_residual(self, d):
        assert verify_theorem3(canonical_b(d)) < 1e-10

    def test_theorem3_weights(self):
        assert theorem3_weight(2) == pytest.approx(0.75)
        assert theorem3_weight(3) == pytest.approx(0.64)

    def test_depolarizing_counterpart(self):
        d = 3
        m = depolarizing_mp(d)
        assert exact_cp(m) and m.is_tp()
        rho = random_density(d, Rng(1))
        assert_allclose(m.apply(rho).mat, np.eye(d * d) / (d * d), atol=1e-13)
        assert_allclose(jamiolkowski(m).mat, np.eye(d**3) / (d * d), atol=1e-13)


class TestFiniteHOVM:
    def test_tetrahedron_is_valid(self):
        hovm = FiniteHOVM.from_pure_states(2, TETRAHEDRON)
        total = sum(e.mat for e in hovm.effects)
        assert_allclose(total, np.eye(2), atol=1e-12)
        w = hovm.weights(random_density(2, Rng(0)))
        assert w.sum() == pytest.approx(1.0)

    def test_stabilizer_design_reproduces_exact_map(self):
        # six stabilizer states are a 3-design, so the finite average
        # coincides with the Haar integral exactly
        hovm = FiniteHOVM.from_pure_states(2, STABILIZER)
        assert absmax(hovm.as_supermap().choi.mat - dense_choi(exact_mp_map(2)).mat) < 1e-12

    def test_tetrahedron_is_not_a_3_design(self):
        hovm = FiniteHOVM.from_pure_states(2, TETRAHEDRON)
        assert absmax(hovm.as_supermap().choi.mat - dense_choi(exact_mp_map(2)).mat) > 1e-3

    def test_rejects_non_1_design(self):
        with raises(ValueError):
            FiniteHOVM.from_pure_states(2, [basis_state(2, 0), basis_state(2, 0)])

    def test_rejects_bad_effects(self):
        half = Operator(np.eye(2) * 0.5)
        with raises(ValueError):
            FiniteHOVM((half,), (half,))
        with raises(ValueError):
            FiniteHOVM((identity(2),), (identity(2),))  # prep trace 2
        with raises(ValueError):
            FiniteHOVM((identity(2),), (half, half))
        with raises(ValueError):
            FiniteHOVM((), ())


class TestMonteCarlo:
    def test_unbiased(self):
        est = sample_mp_blocks(random_density(2, Rng(3)), 2, 20000, 10, Rng(4))[-1][1]
        assert est.n == 20000
        assert est.max_zscore() < 5.0

    def test_deterministic(self):
        rho = random_density(2, Rng(5))
        a = sample_mp_blocks(rho, 2, 500, 10, Rng(6))[-1][1]
        b = sample_mp_blocks(rho, 2, 500, 10, Rng(6))[-1][1]
        assert_allclose(a.mean.mat, b.mean.mat)

    def test_stderr_shrinks(self):
        rho = random_density(2, Rng(7))
        small = sample_mp_blocks(rho, 2, 2000, 10, Rng(8))[-1][1]
        large = sample_mp_blocks(rho, 2, 32000, 10, Rng(8))[-1][1]
        assert large.stderr_re.max() < small.stderr_re.max()

    def test_input_validation(self):
        with raises(ValueError):
            sample_mp_blocks(random_density(2, Rng(0)), 2, 1, 1, Rng(0))
        with raises(ValueError):
            sample_mp_blocks(identity(2), 2, 100, 10, Rng(0))  # trace 2

    def test_blocks_cumulative(self):
        blocks = sample_mp_blocks(random_density(2, Rng(9)), 2, 1000, n_blocks=4, rng=Rng(10))
        assert [b for b, _ in blocks] == [1, 2, 3, 4]
        ns = [est.n for _, est in blocks]
        assert ns == sorted(ns)
        assert ns[-1] == 1000

    def test_blocks_need_enough_samples(self):
        with raises(ValueError):
            sample_mp_blocks(random_density(2, Rng(0)), 2, 5, n_blocks=4, rng=Rng(0))

    def test_csv_layout(self):
        blocks = sample_mp_blocks(random_density(2, Rng(11)), 2, 400, n_blocks=2, rng=Rng(12))
        buf = io.StringIO()
        write_sampling_csv(buf, blocks)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "sample_block,entry_row,entry_col,re_mean,im_mean,re_stderr,im_stderr"
        assert len(lines) == 1 + 2 * 16  # two blocks of 4x4 entries
        assert "np.float64" not in buf.getvalue()

    @mark.parametrize("d", (2, 3, 6))
    def test_csv_matches_entrywise_writer(self, d):
        # the CLI's rho and draws; every entry, block and stderr, byte for byte
        blocks = sample_mp_blocks(random_density(d, Rng(1, 10)), d, 2000, n_blocks=10, rng=Rng(1, 12))
        got, want = io.StringIO(), io.StringIO()
        write_sampling_csv(got, blocks)
        entrywise_sampling_csv(want, blocks)
        assert got.getvalue() == want.getvalue()
        assert got.getvalue().count("\n") == 1 + 10 * d**4


def _structurally_real(d):
    """The (ik, ik) and (ik, ki) entries of a d^2 x d^2 matrix."""
    return np.eye(d * d, dtype=bool) | (swap(d).mat.real != 0)


class TestMomentSampler:
    """The moment-based sampler against the materialising reference in dense_mp_sampling."""

    @mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_block_moments_match_reference(self, d):
        rho = random_density(d, Rng(d, 10))
        k, mean, m2_re, m2_im = _mp_moments(rho.mat, d, 1000, Rng(d, 12))
        ref = MatrixWelford((d * d, d * d))
        update_batch(ref, dense_sample_chunk(rho.mat, d, 1000, Rng(d, 12)))
        assert k == ref.n == 1000
        for got, want in ((mean, ref.mean), (m2_re, ref.m2_re), (m2_im, ref.m2_im)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_structurally_real_entries_are_exact(self, d):
        real = _structurally_real(d)
        assert real.sum() == 2 * d * d - d
        rho = random_density(d, Rng(1, 10))
        _, mean, _, m2_im = _mp_moments(rho.mat, d, 500, Rng(1, 12))
        assert not mean.imag[real].any() and not m2_im[real].any()
        est = sample_mp_blocks(rho, d, 1000, 2, Rng(1, 12))[-1][1]
        ref = dense_sample_mp_blocks(rho, d, 1000, 2, Rng(1, 12))[-1][1]
        for e in (est, ref):
            assert not e.stderr_im[real].any() and not e.mean.mat.imag[real].any()
            assert (e.stderr_im[~real] > 0).all()

    # the CLI's rho and draws; d = 6 takes 10^4 samples, not the benchmark's 5 * 10^4, to keep the
    # materialising reference near 0.4 s
    @mark.parametrize("d,n", [(2, 100000), (3, 100000), (6, 10000)])
    @mark.parametrize("seed", [1, 2, 3])
    def test_block_zscores_match_reference(self, d, n, seed):
        rho = random_density(d, Rng(seed, 10))
        got = sample_mp_blocks(rho, d, n, 10, Rng(seed, 12))
        want = dense_sample_mp_blocks(rho, d, n, 10, Rng(seed, 12))
        for (b, e), (b_ref, e_ref) in zip(got, want):
            assert b == b_ref and e.n == e_ref.n
            assert abs(e.max_zscore() - e_ref.max_zscore()) < 1e-9
            assert np.abs(e.mean.mat - e_ref.mean.mat).max() <= 1e-12 * np.abs(e_ref.mean.mat).max()

    def test_memory_stays_below_sample_tensor(self):
        # the (5000, 36, 36) complex sample tensor of one block alone is 104 MB
        rho = random_density(6, Rng(1, 10))
        tracemalloc.start()
        try:
            sample_mp_blocks(rho, 6, 50000, 10, Rng(1, 12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    # blocks above MP_CHUNK: 3500 samples a block, drawn and merged as chunks of 1000, 1000, 1000 and 500
    def test_chunked_block_matches_merged_chunks(self, monkeypatch):
        monkeypatch.setattr(hovm, "MP_CHUNK", 1000)
        d = 6
        rho = random_density(d, Rng(1, 10))
        got = sample_mp_blocks(rho, d, 7000, 2, Rng(1, 12))
        ref, rng = MatrixWelford((d * d, d * d)), Rng(1, 12)
        for block, (_, est) in enumerate(got, 1):
            for count in (1000, 1000, 1000, 500):
                ref.merge(*_mp_moments(rho.mat, d, count, rng))
            assert est.n == ref.n == 3500 * block
            for a, b in ((est.mean.mat, ref.mean), *zip((est.stderr_re, est.stderr_im), ref.stderr())):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    def test_chunked_memory_stays_flat(self, monkeypatch):
        # one block of 20000 samples unchunked holds about 20 times one chunk's work arrays
        monkeypatch.setattr(hovm, "MP_CHUNK", 1000)
        rho = random_density(6, Rng(1, 10))
        _mp_moments(rho.mat, 6, 1000, Rng(0))  # builds the cached layout outside the trace
        tracemalloc.start()
        try:
            _mp_moments(rho.mat, 6, 1000, Rng(1))
            one = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            sample_mp_blocks(rho, 6, 40000, 2, Rng(1, 12))
            chunked = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunked < 1.5 * one
