"""Materialising reference for the measure-and-prepare Monte-Carlo sampler.

Every sample Tr[M_psi rho] rho_psi (x) rho_psi is built as a full d^2 x d^2
matrix and the (count, d^2, d^2) stack is merged into a ``MatrixWelford`` by
``update_batch``.  It makes the same random draws as
``vbcast.hovm.sample_mp_blocks``, so tests compare block means, M2 and
z-scores with the moment-based sampler.  ``entrywise_sampling_csv`` is the
CSV writer that formats one numpy scalar at a time, the reference for
``vbcast.hovm.write_sampling_csv``.
"""

import numpy as np

from vbcast.densemat import Operator, Rng
from vbcast.hovm import exact_mp_map
from vbcast.mcstats import MatrixSamplingEstimate, MatrixWelford


def update_batch(acc: MatrixWelford, xs: np.ndarray):
    """Merge a batch of samples, shape (k, rows, cols), into ``acc``."""
    k = xs.shape[0]
    if k == 0:
        return
    bmean = xs.mean(axis=0)
    bm2_re = ((xs.real - bmean.real) ** 2).sum(axis=0)
    bm2_im = ((xs.imag - bmean.imag) ** 2).sum(axis=0)
    acc.merge(k, bmean, bm2_re, bm2_im)


def dense_sample_chunk(rho: np.ndarray, d: int, count: int, rng: Rng) -> np.ndarray:
    """Draw `count` samples of Tr[M_psi rho] rho_psi (x) rho_psi, shape (count, d^2, d^2)."""
    a = d + 2
    v = rng.gen.standard_normal((count, d)) + 1j * rng.gen.standard_normal((count, d))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    overlap = np.einsum("ci,ij,cj->c", v.conj(), rho, v).real
    weight = (d / 2.0) * (a * overlap - 1.0)
    proj = np.einsum("ci,cj->cij", v, v.conj())
    rp = (a * proj - np.eye(d)[np.newaxis]) / 2.0
    pair = np.einsum("cij,ckl->cikjl", rp, rp).reshape(count, d * d, d * d)
    return weight[:, np.newaxis, np.newaxis] * pair


def dense_sample_mp_blocks(
    rho: Operator, d: int, n_samples: int, n_blocks: int, rng: Rng
) -> list[tuple[int, MatrixSamplingEstimate]]:
    """Blockwise running estimates, block index starting at 1, as the library returns them."""
    exact = exact_mp_map(d).apply(rho)
    acc = MatrixWelford((d * d, d * d))
    per = n_samples // n_blocks
    out = []
    for b in range(1, n_blocks + 1):
        take = per if b < n_blocks else n_samples - per * (n_blocks - 1)
        update_batch(acc, dense_sample_chunk(rho.mat, d, take, rng))
        se_re, se_im = acc.stderr()
        out.append((b, MatrixSamplingEstimate(Operator(acc.mean), se_re, se_im, acc.n, exact)))
    return out


def entrywise_sampling_csv(fp, blocks: list[tuple[int, MatrixSamplingEstimate]]):
    """CSV rows (sample_block, entry_row, entry_col, re_mean, im_mean, re_stderr, im_stderr), one write per entry."""
    fp.write("sample_block,entry_row,entry_col,re_mean,im_mean,re_stderr,im_stderr\n")
    for b, est in blocks:
        m = est.mean.mat
        for r in range(m.shape[0]):
            for c in range(m.shape[1]):
                fp.write(
                    f"{b},{r},{c},{float(m[r, c].real)!r},{float(m[r, c].imag)!r},"
                    f"{float(est.stderr_re[r, c])!r},{float(est.stderr_im[r, c])!r}\n"
                )
