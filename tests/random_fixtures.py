"""Seeded random and basis fixtures for the tests.

Haar unitaries, Haar pure states, Stinespring-random channels, child
streams of an ``Rng``, zero and basis-state operators.  The library itself
draws only densities and Hermitian observables (``vbcast.densemat``).
Every fixture draws from a ``vbcast.densemat.Rng``, so seeded test data is
reproducible.
"""

import numpy as np

from vbcast.densemat import Operator, Rng
from vbcast.supermap import SuperMap


def zeros(rows: int, cols: int | None = None) -> Operator:
    return Operator(np.zeros((rows, cols if cols is not None else rows)))


def basis_state(d: int, i: int) -> Operator:
    """Projector |i><i| onto a computational basis state."""
    m = np.zeros((d, d))
    m[i, i] = 1.0
    return Operator(m)


def substream(rng: Rng, i: int) -> Rng:
    """Independent child stream of ``rng``, deterministic in (seed, stream, i)."""
    child = Rng(rng.seed, rng.stream)
    ss = np.random.SeedSequence(entropy=rng.seed, spawn_key=(rng.stream, int(i)))
    child._gen = np.random.Generator(np.random.PCG64(ss))
    return child


def ginibre_columns(rows: int, cols: int, rng: Rng) -> np.ndarray:
    """A rows x cols complex Ginibre matrix, real part drawn first (as ``vbcast.densemat`` draws a square one)."""
    g = rng.gen.standard_normal((rows, cols)) + 1j * rng.gen.standard_normal((rows, cols))
    return g / np.sqrt(2)


def _haar_qr(z: np.ndarray) -> np.ndarray:
    """Q factor of a Ginibre matrix with R's diagonal made positive.

    The phase fix makes the columns Haar-distributed rather than merely
    orthonormal.  The thin QR of a matrix's leading columns gives the same
    columns as the full QR.
    """
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases[np.newaxis, :]


def haar_unitary(d: int, rng: Rng) -> Operator:
    """Haar-random unitary via the phase-fixed QR of a complex Ginibre matrix."""
    return Operator(_haar_qr(ginibre_columns(d, d, rng)))


def random_pure(d: int, rng: Rng) -> Operator:
    """Haar-random rank-1 projector |psi><psi|."""
    v = rng.gen.standard_normal(d) + 1j * rng.gen.standard_normal(d)
    v = v / np.linalg.norm(v)
    return Operator(np.outer(v, v.conj()))


def random_pure_vector(d: int, rng: Rng) -> np.ndarray:
    """Haar-random unit vector (the ket behind random_pure)."""
    v = rng.gen.standard_normal(d) + 1j * rng.gen.standard_normal(d)
    return v / np.linalg.norm(v)


def random_channel(d_in: int, d_out: int, rng: Rng) -> SuperMap:
    """Haar-random CPTP map via a Stinespring isometry.

    The isometry V: C^d_in -> C^d_out (x) C^d_env with d_env = d_in*d_out is
    the phase-fixed QR of a Ginibre draw of only d_in columns, which are the
    leading columns of a Haar unitary on C^d_out (x) C^d_env; the channel
    traces out the environment.
    """
    d_env = d_in * d_out
    v = _haar_qr(ginibre_columns(d_out * d_env, d_in, rng))
    # Kraus operators indexed by the environment basis.
    kraus = v.reshape(d_out, d_env, d_in).transpose(1, 0, 2)
    c4 = np.einsum("eui,evj->uivj", kraus, kraus.conj())
    n = d_out * d_in
    return SuperMap(d_in, d_out, Operator(c4.reshape(n, n)))
