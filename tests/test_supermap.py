import math
import random
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vbcast.densemat import Operator, Rng, random_density, random_hermitian, swap
from vbcast.supermap import SuperMap, surd, surd_sign

from dense_maps import (
    apply,
    apply_left,
    apply_right,
    compose,
    dense_scale,
    dense_sub,
    from_action,
    hs_adjoint,
    identity,
    identity_map,
    is_cp,
    is_psd,
    is_tp,
    jamiolkowski,
    kron,
    omega,
    tensor,
    trace,
)
from random_fixtures import _haar_qr, ginibre_columns, random_channel


def test_omega():
    d = 3
    om = omega(d)
    assert trace(om) == pytest.approx(d)
    assert_allclose(om.mat @ om.mat, d * om.mat, atol=1e-13)
    assert np.linalg.matrix_rank(om.mat) == 1


def test_identity_map():
    d = 3
    m = identity_map(d)
    rho = random_density(d, Rng(0))
    assert_allclose(apply(m, rho).mat, rho.mat, atol=1e-14)
    assert_allclose(m.choi.mat, omega(d).mat)
    assert is_cp(m) and is_tp(m) and m.is_hp()


def test_identity_choi_spectrum():
    vals = np.linalg.eigvalsh(identity_map(2).choi.mat)
    assert_allclose(sorted(vals), [0.0, 0.0, 0.0, 2.0], atol=1e-13)


def test_jamiolkowski_of_identity_is_swap():
    for d in (2, 3):
        assert_allclose(jamiolkowski(identity_map(d)).mat, swap(d).mat, atol=1e-13)


def test_from_action_roundtrip():
    d = 2
    u = np.array([[0, 1], [1, 0]], dtype=complex)
    m = from_action(d, d, lambda x: Operator(u @ x.mat @ u.conj().T))
    rho = random_density(d, Rng(1))
    assert_allclose(apply(m, rho).mat, u @ rho.mat @ u.conj().T, atol=1e-14)
    again = SuperMap(d, d, m.choi)
    assert_allclose(again.choi.mat, m.choi.mat)


def test_apply_linearity():
    m = random_channel(3, 2, Rng(2))
    rng = Rng(3)
    a, b = random_hermitian(3, rng), random_hermitian(3, rng)
    lhs = apply(m, a.mat + 2.0 * b.mat)
    rhs = apply(m, a).mat + 2.0 * apply(m, b).mat
    assert_allclose(lhs.mat, rhs, atol=1e-13)


def test_random_channel_is_cptp():
    for d_in, d_out in [(2, 2), (2, 4), (3, 2)]:
        m = random_channel(d_in, d_out, Rng(d_in * 7 + d_out))
        assert is_cp(m), (d_in, d_out)
        assert is_tp(m), (d_in, d_out)
        rho = random_density(d_in, Rng(0))
        out = apply(m, rho)
        assert is_psd(out)
        assert trace(out) == pytest.approx(1.0)


def test_random_channel_is_leading_haar_columns():
    # the thin QR of the drawn columns equals those columns of the full Haar QR of any square
    # Ginibre matrix that starts with them, and the draw takes only those columns from the stream
    for d_in, d_out in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        rng, ref_rng = Rng(d_in + 10 * d_out), Rng(d_in + 10 * d_out)
        m = random_channel(d_in, d_out, rng)
        n = d_out * d_out * d_in
        z = np.concatenate([ginibre_columns(n, d_in, ref_rng), ginibre_columns(n, n - d_in, Rng(0))], axis=1)
        v = _haar_qr(z)[:, :d_in]
        kraus = v.reshape(d_out, d_in * d_out, d_in).transpose(1, 0, 2)
        want = np.einsum("eui,evj->uivj", kraus, kraus.conj()).reshape(d_out * d_in, d_out * d_in)
        assert_allclose(m.choi.mat, want, atol=1e-14)
        assert rng.gen.standard_normal() == ref_rng.gen.standard_normal()


def test_compose_matches_sequential_apply():
    f = random_channel(2, 3, Rng(10))
    g = random_channel(3, 2, Rng(11))
    rho = random_density(2, Rng(12))
    assert_allclose(
        apply(compose(g, f), rho).mat,
        apply(g, apply(f, rho)).mat,
        atol=1e-13,
    )


def test_compose_dim_mismatch():
    f = random_channel(2, 3, Rng(0))
    with pytest.raises(ValueError):
        compose(f, f)


def test_tensor_on_product_states():
    f = random_channel(2, 2, Rng(20))
    g = random_channel(3, 3, Rng(21))
    a = random_density(2, Rng(22))
    b = random_density(3, Rng(23))
    assert_allclose(
        apply(tensor(f, g), kron(a, b)).mat,
        kron(apply(f, a), apply(g, b)).mat,
        atol=1e-13,
    )


def test_hs_adjoint_pairing():
    # <A, m(B)> == <m*(A), B> in the Hilbert-Schmidt inner product
    m = random_channel(3, 4, Rng(30))
    ma = hs_adjoint(m)
    rng = Rng(31)
    for _ in range(10):
        a = random_hermitian(4, rng)
        b = random_hermitian(3, rng)
        lhs = np.vdot(a.mat, apply(m, b).mat)
        rhs = np.vdot(apply(ma, a).mat, b.mat)
        assert abs(lhs - rhs) < 1e-12


def test_hs_adjoint_involution_and_unitality():
    m = random_channel(3, 3, Rng(32))
    assert_allclose(hs_adjoint(hs_adjoint(m)).choi.mat, m.choi.mat, atol=1e-13)
    # adjoint of a TP map is unital
    assert_allclose(apply(hs_adjoint(m), identity(3)).mat, np.eye(3), atol=1e-12)


def test_apply_right_left_on_products():
    m = random_channel(2, 3, Rng(40))
    rng = Rng(41)
    x = random_hermitian(4, rng)
    y = random_hermitian(2, rng)
    assert_allclose(
        apply_right(m, kron(x, y), d_left=4).mat,
        kron(x, apply(m, y)).mat,
        atol=1e-13,
    )
    assert_allclose(
        apply_left(m, kron(y, x), d_right=4).mat,
        kron(apply(m, y), x).mat,
        atol=1e-13,
    )


def test_arithmetic_and_hp():
    f = random_channel(2, 2, Rng(50))
    g = random_channel(2, 2, Rng(51))
    h = dense_sub(dense_scale(f, 0.5), dense_scale(g, 0.5))
    assert h.is_hp()
    rho = random_density(2, Rng(52))
    assert_allclose(
        apply(h, rho).mat,
        0.5 * apply(f, rho).mat - 0.5 * apply(g, rho).mat,
        atol=1e-13,
    )
    assert apply(h, rho).is_hermitian()


def test_arithmetic_dim_mismatch():
    with pytest.raises(ValueError):
        random_channel(2, 2, Rng(0)) + random_channel(3, 3, Rng(0))


def test_choi_shape_validation():
    with pytest.raises(ValueError):
        SuperMap(2, 2, identity(5))


def _surd_draw(rng, i):
    """A seeded (p, q, w, r): both signs, square and non-square w, near-cancellation every 4th, near 2^+-1000 every 4th."""
    p, q, r = rng.randint(-(2**60), 2**60), rng.randint(-(2**30), 2**30), rng.randint(1, 2**60)
    w = rng.randint(0, 2**50) ** 2 if rng.random() < 0.5 else rng.randint(0, 2**100)
    if i % 4 == 1:  # p + q sqrt(w) within a few units of 0
        root = math.isqrt(q * q * w)
        p = (-root if q > 0 else root) + rng.randint(-2, 2)
    if i % 4 == 3 and p + q * math.isqrt(w):
        shift = rng.choice((-1, 1)) * rng.randint(990, 1010) - math.frexp((p + q * math.isqrt(w)) / r)[1]
        p, q, r = (p << shift, q << shift, r) if shift > 0 else (p, q, r << -shift)
    return p, q, w, r


def _surd_ends(p, q, w, r, bits=512):
    """Two Fractions with p + q sqrt(w) over r between them, from sqrt(w) to ``bits`` bits; equal when w is a square."""
    root = math.isqrt(w << 2 * bits)
    ends = {(Fraction(p) + Fraction(q * n, 2**bits)) / r for n in (root, root + (root * root != w << 2 * bits))}
    return min(ends), max(ends)


def test_surd_rounds_once():
    # nearest is the correctly rounded value; down and up are the floats next to it on either side, equal when it is one
    rng = random.Random(0)
    for i in range(20000):
        p, q, w, r = _surd_draw(rng, i)
        lo, hi = _surd_ends(p, q, w, r)
        want = float(lo)
        assert float(hi) == want, (p, q, w, r)  # the reference itself is certain
        assert surd(p, q, w, r) == want, (p, q, w, r)
        down, up = surd(p, q, w, r, "down"), surd(p, q, w, r, "up")
        assert down <= lo and hi <= up and math.nextafter(down, math.inf) > hi and math.nextafter(up, -math.inf) < lo
        assert (down == up) == (lo == hi == Fraction(want)), (p, q, w, r)
        assert surd_sign(p, q, w) == (lo > 0) - (hi < 0), (p, q, w, r)


@pytest.mark.parametrize("digits", (50, 300, 600, 601))
def test_surd_below_the_float_range_keeps_its_sign(digits):
    # p + q sqrt(2) cancels to a tiny nonzero value, which over 2^1100 rounds to a zero of its own sign
    q = 10**digits
    p = -math.isqrt(2 * q * q)
    for sign in (1, -1):
        value = surd(sign * p, sign * q, 2, 2**1100)
        assert value == 0.0 and math.copysign(1.0, value) == sign == surd_sign(sign * p, sign * q, 2)


def test_surd_rejects_an_unknown_mode():
    with pytest.raises(KeyError):
        surd(1, 1, 2, 1, "dwon")


@pytest.mark.parametrize("p, q, w", [(2**1100, 1, 3), (0, 1, 4**1100), (-(2**1100), -1, 2**100 + 1), (3, -(2**1100), 5)])
@pytest.mark.parametrize("mode", ("nearest", "down", "up"))
def test_surd_past_the_float_range_overflows(p, q, w, mode):
    with pytest.raises(OverflowError):
        surd(p, q, w, 1, mode)
