"""Hermitian operator-valued measure over pure states and the induced map.

Over Haar-random pure states psi the pairs (M_psi, rho_psi) with

    rho_psi = (1/2) [ (d+2) psi - I ],      M_psi = d * rho_psi

form an operator-valued measure whose measure-and-prepare average

    M(rho) = Integral  Tr[M_psi rho] * (rho_psi (x) rho_psi)  d psi

is a virtual broadcaster up to depolarizing noise: the canonical B is the
affine combination  p * M + (1 - p) * M'  with  p = 4(d+1)/(d+2)^2  and M'
the fully depolarizing map to I/d (x) I/d.  The integral reduces to Haar
moment operators of order <= 3, so everything here is exact; blockwise
Monte-Carlo sampling of the same integral (``sample_mp_blocks``) checks it.

Each Monte-Carlo sample is a weight times rho_psi (x) rho_psi, and the
Hermitian rho_psi has d^2 real coordinates (Re on i <= j, Im on i < j).  A
block of samples is reduced to two real Gram matrices over those
coordinates, one for the mean and one for the squared deviations, and both
are gathered with signs into the d^2 x d^2 layout; the (count, d^2, d^2)
sample tensor is never built.  The (ik, ik) and (ik, ki) entries of every
sample are real, so the imaginary mean and squared deviations there are
set to exactly zero rather than left at GEMM roundoff.
"""

from __future__ import annotations

import functools

import numpy as np

from .broadcast import covariant_map
from .densemat import Operator, Rng, swap
from .mcstats import MatrixSamplingEstimate, MatrixWelford
from .supermap import SuperMap


def exact_mp_map(d: int) -> SuperMap:
    """The measure-and-prepare average, exactly, from the Haar moments.

    Its Jamiolkowski operator is the third Haar moment of (d+2)psi - I
    scaled by d/8, expanded into the order-0..3 moments; the order-2 terms
    on the three factor pairs sum to (3I + P_(12) + P_(13) + P_(23))/(d(d+1)).
    Each moment weighs a cycle type alike, so the same six coefficients build the Choi.
    """
    a = d + 2
    m3 = np.full(6, 1.0 / (d * (d + 1) * (d + 2)))
    j2 = np.array([3, 1, 1, 1, 0, 0]) / (d * (d + 1))
    e0 = np.array([1, 0, 0, 0, 0, 0])
    return covariant_map(d, (d / 8.0) * (a**3 * m3 - a**2 * j2 + (3 * a / d - 1) * e0))


def depolarizing_mp(d: int) -> SuperMap:
    """The fully depolarizing counterpart  rho -> Tr[rho] I/d (x) I/d."""
    return covariant_map(d, np.array([1, 0, 0, 0, 0, 0]) / (d * d))


def theorem3_weight(d: int) -> float:
    """Mixing weight p = 4(d+1)/(d+2)^2 in B = p M + (1-p) M'."""
    return 4.0 * (d + 1) / (d + 2) ** 2


def verify_theorem3(b: SuperMap) -> float:
    """Max-entry residual of  C(b) = p C(M) + (1-p) C(M')  at d = b.d_in."""
    d = b.d_in
    p = theorem3_weight(d)
    mix = p * exact_mp_map(d) + (1.0 - p) * depolarizing_mp(d)
    return (b.choi - mix.choi).absmax()


# ---------------------------------------------------------------------------
# Monte-Carlo sampling of the measure-and-prepare integral


def _check_density(rho: Operator, d: int):
    if rho.rows != d or rho.cols != d:
        raise ValueError(f"rho must be {d}x{d}")
    if not rho.is_hermitian(1e-9) or abs(rho.trace() - 1.0) > 1e-9:
        raise ValueError("rho must be a unit-trace Hermitian matrix")


@functools.cache
def _moment_layout(d: int):
    """Gather maps from the Hermitian coordinates of rho_psi to rho_psi (x) rho_psi, built once per d.

    rho_psi[i, j] = u[p] + 1j s t[q], with u = Re rho_psi on i <= j,
    t = Im rho_psi on i < j, (p, q) the places of the pair {i, j} in them
    and s = +1, -1, 0 for i < j, i > j, i = j.  Entry (ik, jl) of the
    d^2 x d^2 layout multiplies rho_psi[i, j] by rho_psi[k, l]; for both
    factors, per entry, the maps give the column of u in h = [u, t] and in
    g = [u^2, t^2, u t on i < j], the column of t in both, the column of u t
    in g, and s.  Where s = 0 the t and u t columns are 0, a valid column
    that s multiplies away.  Also returned: the triangle indices and the
    mask of the 2d^2 - d structurally real entries.
    """
    nu = d * (d + 1) // 2
    rows, cols = np.triu_indices(d)
    off = rows != cols
    ucol = np.zeros((d, d), dtype=np.intp)
    ucol[rows, cols] = ucol[cols, rows] = np.arange(nu)
    tcol = np.zeros((d, d), dtype=np.intp)
    tcol[rows[off], cols[off]] = tcol[cols[off], rows[off]] = nu + np.arange(nu - d)
    xcol = np.where(tcol > 0, tcol + nu - d, 0)
    idx = np.arange(d)
    sign = np.sign(idx[np.newaxis, :] - idx[:, np.newaxis]).astype(float)
    i, k, j, l = np.indices((d,) * 4).reshape(4, d * d, d * d)
    per_factor = (ucol, tcol, xcol, sign)
    maps = tuple(m[i, j] for m in per_factor) + tuple(m[k, l] for m in per_factor)
    real = np.eye(d * d, dtype=bool) | (swap(d).mat.real != 0)
    for arr in (rows, cols, off, real, *maps):
        arr.flags.writeable = False
    return rows, cols, off, maps, real


def _mp_moments(rho: np.ndarray, d: int, count: int, rng: Rng):
    """Moments (count, mean, m2_re, m2_im) of `count` samples of Tr[M_psi rho] rho_psi (x) rho_psi.

    A sample is w * (rho_psi (x) rho_psi), and the Hermitian rho_psi holds d^2
    real coordinates: u = Re rho_psi on i <= j and t = Im rho_psi on i < j,
    taken straight from the pair products v_i conj(v_j).  Every entry of a
    sample is w rho_psi[i, j] rho_psi[k, l], so the block sums are signed
    gathers (``_moment_layout``) of two real Gram matrices: the mean from
    K = (w h)^T h over h = [u, t] (d^2 columns), and the sums of (Re x)^2
    and (Im x)^2 from g^T g over g = w [u^2, t^2, u t on i < j]
    ((3d^2 - d)/2 columns).  No (count, d^2, d^2) tensor and no complex
    GEMM is formed.

    Exact-zero rule: every sample is Hermitian and invariant under swapping
    its two outputs, so its (ik, ik) and (ik, ki) entries are real.  The
    GEMMs leave roundoff there, and a zero standard error with a nonzero
    deviation scores as an infinite z-score, so ``mean.imag`` and ``m2_im``
    are set to exactly 0 on those 2d^2 - d entries.
    """
    a = d + 2
    rows, cols, off, (u1, t1, x1, s1, u2, t2, x2, s2), real = _moment_layout(d)
    v = rng.gen.standard_normal((count, d)) + 1j * rng.gen.standard_normal((count, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    overlap = np.einsum("ci,ij,cj->c", v.conj(), rho, v).real
    weight = (d / 2.0) * (a * overlap - 1.0)
    pair = (a / 2.0) * (v[:, rows] * v[:, cols].conj())
    u = pair.real
    u[:, ~off] -= 0.5
    t = pair.imag[:, off]
    h = np.concatenate([u, t], axis=1)
    k = (weight[:, np.newaxis] * h).T @ h
    g = weight[:, np.newaxis] * np.concatenate([u * u, t * t, u[:, off] * t], axis=1)
    gram = g.T @ g

    s12 = s1 * s2
    mean = np.empty((d * d, d * d), dtype=np.complex128)
    mean.real = (k[u1, u2] - s12 * k[t1, t2]) / count
    mean.imag = (s2 * k[u1, t2] + s1 * k[t1, u2]) / count
    cross = 2.0 * s12 * gram[x1, x2]
    sq_re = gram[u1, u2] + s12 * s12 * gram[t1, t2] - cross
    sq_im = s2 * s2 * gram[u1, t2] + s1 * s1 * gram[t1, u2] + cross
    m2_re = np.maximum(sq_re - count * mean.real**2, 0.0)
    m2_im = np.maximum(sq_im - count * mean.imag**2, 0.0)
    mean.imag[real] = 0.0
    m2_im[real] = 0.0
    return count, mean, m2_re, m2_im


def sample_mp_blocks(
    rho: Operator, d: int, n_samples: int, n_blocks: int, rng: Rng
) -> list[tuple[int, MatrixSamplingEstimate]]:
    """Blockwise running estimates (for CSV traces); block index starts at 1."""
    _check_density(rho, d)
    if n_blocks < 1 or n_samples < 2 * n_blocks:
        raise ValueError("need at least 2 samples per block")
    exact = exact_mp_map(d).apply(rho)
    acc = MatrixWelford((d * d, d * d))
    per = n_samples // n_blocks
    out = []
    for b in range(1, n_blocks + 1):
        take = per if b < n_blocks else n_samples - per * (n_blocks - 1)
        acc.merge(*_mp_moments(rho.mat, d, take, rng))
        se_re, se_im = acc.stderr()
        out.append(
            (b, MatrixSamplingEstimate(Operator(acc.mean), se_re, se_im, acc.n, exact))
        )
    return out


def write_sampling_csv(fp, blocks: list[tuple[int, MatrixSamplingEstimate]]):
    """CSV rows (sample_block, entry_row, entry_col, re_mean, im_mean, re_stderr, im_stderr)."""
    fp.write("sample_block,entry_row,entry_col,re_mean,im_mean,re_stderr,im_stderr\n")
    for b, est in blocks:
        m = est.mean.mat
        for r in range(m.shape[0]):
            for c in range(m.shape[1]):
                fp.write(
                    f"{b},{r},{c},{float(m[r, c].real)!r},{float(m[r, c].imag)!r},"
                    f"{float(est.stderr_re[r, c])!r},{float(est.stderr_im[r, c])!r}\n"
                )
