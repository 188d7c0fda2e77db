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

Each Monte-Carlo sample is a weight w times rho_psi (x) rho_psi.  The draws
are held coordinate-major, scaled so that their pair products are the d^2
real Hermitian coordinates h of rho_psi, and w = d Tr[rho_psi rho] = d (r . h)
reads off the same coordinates.  A chunk of at most ``MP_CHUNK`` samples
reduces to two real Gram matrices over h, for the mean and the squared
deviations, gathered with signs into the d^2 x d^2 layout; no per-sample
d^2 x d^2 tensor is built, and memory does not grow with n.  The imaginary
mean and squared deviations on the structurally real (ik, ik) and (ik, ki)
entries are exactly zero.
"""

from __future__ import annotations

import functools

from . import _lazy
from .densemat import Operator, Rng, check_density
from .supermap import SuperMap, covariant_map

np = _lazy("numpy")
mcstats = _lazy("vbcast.mcstats")  # only sample_mp_blocks reads it
MP_CHUNK = 1 << 14  # samples drawn and reduced at once: a 15 MB peak of work arrays at d = 6


def exact_mp_map(d: int) -> SuperMap:
    """The measure-and-prepare average, exactly, from the Haar moments.

    Its Jamiolkowski operator is the third Haar moment of (d+2)psi - I
    scaled by d/8, expanded into the order-0..3 moments; the order-2 terms
    on the three factor pairs sum to (3I + P_(12) + P_(13) + P_(23))/(d(d+1)).
    Each moment weighs a cycle type alike, so the same six coefficients build
    the Choi.  With a = d + 2, coefficient k is
    (d/8) (a^3 / (d (d+1) (d+2)) - a^2 j_k / (d (d+1)) + (3a/d - 1) [k = id])
    for the order-2 weights j = (3, 1, 1, 1, 0, 0): the integer
    a^2 (1 - j_k) + 2 (d+1)(d+3) [k = id] over 8 (d+1).
    """
    a = d + 2
    j2 = (3, 1, 1, 1, 0, 0)
    e0 = (1, 0, 0, 0, 0, 0)
    return covariant_map(d, [a * a * (1 - j) + 2 * (d + 1) * (d + 3) * e for j, e in zip(j2, e0)], 8 * (d + 1))


def depolarizing_mp(d: int) -> SuperMap:
    """The fully depolarizing counterpart  rho -> Tr[rho] I/d (x) I/d."""
    return covariant_map(d, (1, 0, 0, 0, 0, 0), d * d)


def theorem3_weight(d: int) -> float:
    """Mixing weight p = 4(d+1)/(d+2)^2 in B = p M + (1-p) M'."""
    return 4.0 * (d + 1) / (d + 2) ** 2


def verify_theorem3(b: SuperMap) -> float:
    """Max-entry residual of  C(b) = p C(M) + (1-p) C(M')  at d = b.d_in.

    The mix is formed exactly, as (4 (d+1) M + d^2 M') / (d+2)^2, since
    p = 4(d+1)/(d+2)^2 and 1 - p = d^2/(d+2)^2.
    """
    d = b.d_in
    mix = (4 * (d + 1) * exact_mp_map(d) + d * d * depolarizing_mp(d)) / (d + 2) ** 2
    return (b - mix).choi_absmax()


# ---------------------------------------------------------------------------
# Monte-Carlo sampling of the measure-and-prepare integral


@functools.cache
def _moment_layout(d: int):
    """Gather maps from the Hermitian coordinates of rho_psi to rho_psi (x) rho_psi, built once per d.

    rho_psi[i, j] = u[p] + 1j s t[q], with u = Re rho_psi on i <= j,
    t = Im rho_psi on i < j, (p, q) the places of the pair {i, j} in them
    and s = +1, -1, 0 for i < j, i > j, i = j.  Entry (ik, jl) of the
    d^2 x d^2 layout multiplies rho_psi[i, j] by rho_psi[k, l]; for both
    factors, per entry, the maps give the row of u in h = [u, t] and in
    g = [u^2, t^2, u t on i < j], the row of t in both, the row of u t in
    g, and s.  Where s = 0 the t and u t rows are 0, a valid row that s
    multiplies away.  Also returned: the triangle indices and the
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
    real = ((i == j) & (k == l)) | ((i == l) & (k == j))  # the identity's and SWAP's entries
    for arr in (rows, cols, off, real, *maps):
        arr.flags.writeable = False
    return rows, cols, off, maps, real


def _mp_moments(rho: np.ndarray, d: int, count: int, rng: Rng):
    """Moments (count, mean, m2_re, m2_im) of `count` samples of Tr[M_psi rho] rho_psi (x) rho_psi.

    The Hermitian rho_psi has d^2 real coordinates h = [u, t], u = Re rho_psi
    on i <= j and t = Im rho_psi on i < j (``np.triu_indices`` order).  With
    Re v over Im v, one column per sample scaled by sqrt((d+2) / (2 |v|^2)),
    row block i of u is vr[i:] vr[i] + vi[i:] vi[i] (less 1/2 on the diagonal)
    and of t vr[i+1:] vi[i] - vi[i+1:] vr[i], from contiguous rows.  The weight
    is w = Tr[M_psi rho] = d Tr[rho_psi rho] = d (r . h), r = (rho_ii;
    2 Re rho_ij; 2 Im rho_ij).  The sums are signed gathers (``_moment_layout``)
    of two real Gram matrices: the mean from K = (w h) h^T, and the sums of
    (Re x)^2 and (Im x)^2 from g g^T over g = w [u^2, t^2, u t on i < j].

    Exact-zero rule: every sample is Hermitian and invariant under swapping
    its two outputs, so its (ik, ik) and (ik, ki) entries are real.  The
    GEMMs leave roundoff there, and a zero standard error with a nonzero
    deviation scores as an infinite z-score, so ``mean.imag`` and ``m2_im``
    are set to exactly 0 on those 2d^2 - d entries.
    """
    rows, cols, off, (u1, t1, x1, s1, u2, t2, x2, s2), real = _moment_layout(d)
    nu, dd = rows.size, d * d
    v = np.empty((2 * d, count))
    v[:d] = rng.gen.standard_normal((count, d)).T
    v[d:] = rng.gen.standard_normal((count, d)).T
    v *= np.sqrt((d + 2) / (2.0 * np.einsum("ij,ij->j", v, v)))
    vr, vi = v[:d], v[d:]
    h = np.empty((dd, count))
    p, q = 0, nu
    for i in range(d):
        u, t = h[p : p + d - i], h[q : q + d - i - 1]
        np.add(np.multiply(vr[i:], vr[i], out=u), vi[i:] * vi[i], out=u)
        u[0] -= 0.5
        np.subtract(np.multiply(vr[i + 1 :], vi[i], out=t), vi[i + 1 :] * vr[i], out=t)
        p, q = p + d - i, q + d - i - 1
    r = np.concatenate((np.where(off, 2.0, 1.0) * rho[rows, cols].real, 2.0 * rho[rows[off], cols[off]].imag))
    g = np.empty((dd + nu - d, count))
    wh = np.multiply(d * (r @ h), h, out=g[:dd])
    np.multiply(wh[:nu][off], h[nu:], out=g[dd:])
    k = wh @ h.T
    wh *= h  # K has read w h; these rows of g become w h^2
    gram = g @ g.T

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
) -> list[tuple[int, mcstats.MatrixSamplingEstimate]]:
    """Blockwise running estimates (for CSV traces), block index from 1, drawn in chunks of <= ``MP_CHUNK``."""
    check_density(rho, d)
    if n_blocks < 1 or n_samples < 2 * n_blocks:
        raise ValueError("need at least 2 samples per block")
    exact = exact_mp_map(d).apply(rho)
    acc = mcstats.MatrixWelford((d * d, d * d))
    per = n_samples // n_blocks
    out = []
    for b in range(1, n_blocks + 1):
        take = per if b < n_blocks else n_samples - per * (n_blocks - 1)
        for start in range(0, take, MP_CHUNK):
            acc.merge(*_mp_moments(rho.mat, d, min(MP_CHUNK, take - start), rng))
        se_re, se_im = acc.stderr()
        out.append((b, mcstats.MatrixSamplingEstimate(Operator(acc.mean), se_re, se_im, acc.n, exact)))
    return out


def write_sampling_csv(fp, blocks: list[tuple[int, mcstats.MatrixSamplingEstimate]]):
    """CSV rows (sample_block, entry_row, entry_col, re_mean, im_mean, re_stderr, im_stderr).

    Each block's four matrices are converted to Python floats once, and its
    rows are written with one join.
    """
    fp.write("sample_block,entry_row,entry_col,re_mean,im_mean,re_stderr,im_stderr\n")
    for b, est in blocks:
        m = est.mean.mat
        cols = m.shape[1]
        parts = (m.real, m.imag, est.stderr_re, est.stderr_im)
        cells = zip(*(np.ravel(a).tolist() for a in parts))
        fp.write(
            "".join(
                f"{b},{k // cols},{k % cols},{re!r},{im!r},{se_re!r},{se_im!r}\n"
                for k, (re, im, se_re, se_im) in enumerate(cells)
            )
        )
