import numpy as np
import pytest
from numpy.testing import assert_allclose
from pytest import mark, raises

from vbcast.densemat import (
    Operator,
    Rng,
    random_density,
    random_hermitian,
    swap,
    trace_norm,
)
from vbcast.supermap import SuperMap

from dense_covariant import antisym_projector, sym_projector
from dense_maps import (
    absmax,
    conjugate,
    dagger,
    dense_add,
    dense_scale,
    dense_sub,
    eigh,
    identity,
    is_psd,
    is_unitary,
    kron,
    partial_trace,
    trace,
)
from random_fixtures import basis_state, haar_unitary, random_pure, random_pure_vector, substream, zeros

dims = (2, 3, 4, 5)


class TestOperator:
    def test_construction(self):
        o = Operator([[1, 2], [3, 4]])
        assert o.mat.dtype == np.complex128
        assert o.rows == o.cols == 2

    def test_immutable(self):
        o = identity(2)
        with raises(ValueError):
            o.mat[0, 0] = 7.0

    def test_nonsquare_allowed(self):
        o = Operator(np.ones((4, 2)))
        assert o.rows == 4 and o.cols == 2

    def test_arithmetic(self):
        # the tests' dense sum, difference and scalar multiple of maps d = 1 -> 2, on their Chois
        a = SuperMap(1, 2, Operator([[1, 0], [0, 2]]))
        b = SuperMap(1, 2, Operator([[0, 1], [1, 0]]))
        assert_allclose(dense_add(a, b).choi.mat, [[1, 1], [1, 2]])
        assert_allclose(dense_sub(a, b).choi.mat, [[1, -1], [-1, 2]])
        assert_allclose(dense_scale(a, 2.5).choi.mat, [[2.5, 0], [0, 5]])

    def test_dagger_trace(self):
        o = Operator([[1j, 2], [0, 3]])
        assert_allclose(dagger(o).mat, [[-1j, 0], [2, 3]])
        assert trace(o) == pytest.approx(3 + 1j)

    def test_predicates(self):
        assert identity(3).is_hermitian()
        assert is_unitary(identity(3))
        assert is_psd(identity(3))
        assert not Operator([[0, 1], [0, 0]]).is_hermitian()
        assert not is_psd(Operator([[1, 0], [0, -1]]))


class TestKronSwap:
    @mark.parametrize("d", dims)
    def test_swap_exchanges_factors(self, d):
        rng = Rng(d)
        a, b = random_hermitian(d, rng), random_hermitian(d, rng)
        s = swap(d)
        assert_allclose(s.mat @ kron(a, b).mat @ s.mat, kron(b, a).mat, atol=1e-13)

    @mark.parametrize("d", dims)
    def test_swap_involution(self, d):
        s = swap(d)
        assert_allclose(s.mat @ s.mat, np.eye(d * d))
        assert s.is_hermitian() and is_unitary(s)

    def test_swap_qubit_spectrum(self):
        vals, _ = eigh(swap(2))
        assert_allclose(vals, [1.0, 1.0, 1.0, -1.0])

    @mark.parametrize("d", dims)
    def test_projector_resolution(self, d):
        p, q = sym_projector(d), antisym_projector(d)
        assert_allclose(p.mat + q.mat, np.eye(d * d), atol=1e-13)
        assert_allclose(p.mat @ p.mat, p.mat, atol=1e-13)
        assert_allclose(q.mat @ q.mat, q.mat, atol=1e-13)
        assert_allclose(p.mat @ q.mat, np.zeros((d * d, d * d)), atol=1e-13)
        assert trace(p).real == pytest.approx(d * (d + 1) / 2)
        assert trace(q).real == pytest.approx(d * (d - 1) / 2)

    def test_basis_state(self):
        e = basis_state(3, 1)
        assert_allclose(e.mat, np.diag([0.0, 1.0, 0.0]))
        assert absmax(zeros(2)) == 0.0


class TestPartialTrace:
    @mark.parametrize("d1,d2", [(2, 2), (2, 3), (3, 2), (4, 3)])
    def test_product_input(self, d1, d2):
        rng = Rng(d1 * 10 + d2)
        a, b = random_hermitian(d1, rng), random_hermitian(d2, rng)
        ab = kron(a, b)
        assert_allclose(
            partial_trace(ab, (d1, d2), keep="first").mat,
            a.mat * trace(b),
            atol=1e-13,
        )
        assert_allclose(
            partial_trace(ab, (d1, d2), keep="second").mat,
            b.mat * trace(a),
            atol=1e-13,
        )

    def test_trace_consistency(self):
        rng = Rng(3)
        x = random_density(6, rng)
        for keep in ("first", "second"):
            red = partial_trace(x, (2, 3), keep=keep)
            assert trace(red) == pytest.approx(trace(x))

    def test_bad_dims(self):
        with raises(ValueError):
            partial_trace(identity(6), (2, 2), keep="first")
        with raises(ValueError):
            partial_trace(identity(4), (2, 2), keep="both")


class TestEigh:
    @mark.parametrize("d", dims)
    def test_reconstruction_descending(self, d):
        h = random_hermitian(d, Rng(d + 100))
        vals, vecs = eigh(h)
        assert np.all(np.diff(vals) <= 1e-12)
        v = vecs.mat
        assert_allclose(v @ np.diag(vals) @ v.conj().T, h.mat, atol=1e-12)

    def test_rejects_nonhermitian(self):
        with raises(ValueError):
            eigh(Operator([[0, 1], [0, 0]]))

    def test_known_spectrum(self):
        vals, _ = eigh(Operator(np.diag([3.0, -1.0, 2.0])))
        assert_allclose(vals, [3.0, 2.0, -1.0])


class TestTraceNorm:
    @mark.parametrize("d", dims)
    def test_hermitian_equals_abs_eigsum(self, d):
        h = random_hermitian(d, Rng(d + 7))
        vals, _ = eigh(h)
        assert trace_norm(h) == pytest.approx(np.abs(vals).sum())

    def test_unitary(self):
        u = haar_unitary(4, Rng(0))
        assert trace_norm(u) == pytest.approx(4.0)


class TestRandom:
    def test_rng_reproducible(self):
        a = Rng(42, stream=3).gen.standard_normal(5)
        b = Rng(42, stream=3).gen.standard_normal(5)
        c = Rng(42, stream=4).gen.standard_normal(5)
        assert_allclose(a, b)
        assert np.abs(a - c).max() > 1e-3

    @mark.parametrize("seed, stream", [(-1, 0), (0, -1), (-5, -5)])
    def test_rng_rejects_negative_seed_or_stream(self, seed, stream):
        # random.Random takes any int, so Rng keeps the non-negative rule numpy's SeedSequence enforced
        with pytest.raises(ValueError, match="non-negative"):
            Rng(seed, stream)

    def test_rng_streams_differ(self):
        draws = {(seed, stream): Rng(seed, stream).random() for seed in (0, 1, 10) for stream in (0, 1, 10)}
        assert len(set(draws.values())) == len(draws)

    def test_substream_independent(self):
        r = Rng(9)
        a = substream(r, 0).gen.standard_normal(4)
        b = substream(r, 1).gen.standard_normal(4)
        assert np.abs(a - b).max() > 1e-3

    @mark.parametrize("d", dims)
    def test_haar_unitary_is_unitary(self, d):
        u = haar_unitary(d, Rng(d))
        assert is_unitary(u)

    def test_haar_first_moment(self):
        # averaging U e_00 U^dag over the Haar measure gives I/d
        d, n = 2, 4000
        rng = Rng(17)
        e = basis_state(d, 0)
        acc = np.zeros((d, d), dtype=complex)
        for _ in range(n):
            u = haar_unitary(d, rng)
            acc += conjugate(u, e).mat
        assert np.abs(acc / n - np.eye(d) / d).max() < 0.05

    @mark.parametrize("d", dims)
    def test_random_density(self, d):
        rho = random_density(d, Rng(d + 1))
        assert is_psd(rho)
        assert trace(rho) == pytest.approx(1.0)

    @mark.parametrize("d", dims)
    def test_random_pure(self, d):
        psi = random_pure(d, Rng(d + 2))
        assert_allclose(psi.mat @ psi.mat, psi.mat, atol=1e-12)
        assert trace(psi) == pytest.approx(1.0)
        v = random_pure_vector(d, Rng(d + 2))
        assert np.linalg.norm(v) == pytest.approx(1.0)

    @mark.parametrize("d", dims)
    def test_random_hermitian(self, d):
        assert random_hermitian(d, Rng(d + 3)).is_hermitian()
