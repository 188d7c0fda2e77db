"""Dense references for the uniqueness certificate.

``table_column_uniqueness`` evaluates every residual entry on the six
table elements, one column of length 2d^4 + d^6 + d^3 each, and ranks
those columns; ``vbcast.broadcast.verify_uniqueness`` reads the same system
off the equality patterns of the labels and takes its ranks exactly, and
the tests compare the two at d = 2..6 for every subset of the axioms.
Here ranks are numerical: singular values at or above 1e-8 times the
largest (``svd_rank``).  ``dense_verify_uniqueness`` goes without the commutant span:
the unknowns are all d^6 real parameters of a Hermitian Choi operator, and
covariance enters as sampled constraints under Haar unitaries.  Tests
compare its nullities at small d.  ``dense_basis_uniqueness`` ranks the
same residuals on the dense orthonormal basis of the covariant span.
"""

import numpy as np

from vbcast.broadcast import UniquenessCertificate, _b_lambda_coeffs, canonical_b
from vbcast.densemat import Rng, swap

from dense_axioms import classical_residual, marginal_residuals, permutation_residual
from dense_covariant import commutant_basis, commutant_table
from dense_maps import dense_choi, omega
from random_fixtures import haar_unitary


def svd_rank(a: np.ndarray) -> int:
    """Numerical rank: the singular values at or above 1e-8 times the largest."""
    if a.size == 0:
        return 0
    svals = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(svals >= 1e-8 * svals[0])) if svals[0] > 0 else 0


def residual_rows(
    c: np.ndarray, d: int, include_broadcasting: bool, include_permutation: bool, include_classical: bool
) -> np.ndarray:
    """The marginal, permutation and classical residuals of the Choi c that are included, as one flat vector."""
    res = marginal_residuals(c, d) if include_broadcasting else []
    if include_permutation:
        res.append(permutation_residual(c, d))
    if include_classical:
        res.append(classical_residual(c, d))
    return np.concatenate([r.ravel() for r in res]) if res else np.zeros(0)


def table_column_uniqueness(
    d: int, include_broadcasting: bool = True, include_permutation: bool = True, include_classical: bool = True
) -> UniquenessCertificate:
    """The uniqueness certificate from the dense residual columns of the six table elements.

    The unknowns are the numerical rank of the dense table's Gram matrix,
    the dimension of its span; the rank is that of the real residual
    columns, which is their rank over the six complex coefficients.
    """
    switches = (include_broadcasting, include_permutation, include_classical)
    table = commutant_table(d)
    # The targets and the table elements are real, so every residual column is real.
    offset = residual_rows(np.zeros(table.shape[1:]), d, *switches).real
    cols = np.empty((offset.size, 6))
    for k, t in enumerate(table):
        cols[:, k] = residual_rows(t.astype(float), d, *switches).real - offset
    residual = float(np.abs(cols @ np.real(_b_lambda_coeffs(0.0)) + offset).max(initial=0.0))

    flat = table.reshape(6, -1).astype(float)
    unknowns = svd_rank(flat @ flat.T)
    rank = svd_rank(cols)
    return UniquenessCertificate(
        constraint_rows=2 * offset.size,
        unknowns=unknowns,
        rank=rank,
        nullity=unknowns - rank,
        candidate_residual=residual,
    )


def _coeffs_from_hermitian(c: np.ndarray) -> np.ndarray:
    """Real coefficient vector of a Hermitian matrix: diagonal, Re(upper), Im(upper)."""
    iu = np.triu_indices(c.shape[0], k=1)
    return np.concatenate([np.real(np.diagonal(c)), c[iu].real, c[iu].imag])


def _hermitian_basis_stack(n: int) -> np.ndarray:
    """Basis matrices dual to :func:`_coeffs_from_hermitian`, shape (n^2, n, n)."""
    iu = np.triu_indices(n, k=1)
    k = iu[0].size
    stack = np.zeros((n * n, n, n), dtype=np.complex128)
    for i in range(n):
        stack[i, i, i] = 1.0
    for t in range(k):
        i, j = iu[0][t], iu[1][t]
        stack[n + t, i, j] = 1.0
        stack[n + t, j, i] = 1.0
        stack[n + k + t, i, j] = 1.0j
        stack[n + k + t, j, i] = -1.0j
    return stack


def dense_verify_uniqueness(
    d: int,
    n_unitaries: int = 20,
    rng: Rng | None = None,
    include_broadcasting: bool = True,
    include_permutation: bool = True,
    include_classical: bool = True,
) -> UniquenessCertificate:
    """The full real linear system on Hermitian Choi unknowns.

    Broadcasting marginals on a basis, SWAP-conjugation invariance and
    classical consistency in the computational basis, each where included,
    and covariance under ``n_unitaries`` sampled Haar unitaries; reports
    the rank and nullity of its homogeneous part and the affine residual of
    the canonical map.
    """
    if n_unitaries < 2:
        raise ValueError("need at least 2 Haar unitaries for a meaningful certificate")
    if rng is None:
        rng = Rng(0)

    n = d**3
    nparam = n * n
    stack = _hermitian_basis_stack(n)  # (nparam, n, n)

    blocks: list[np.ndarray] = []  # complex constraint outputs, shape (nparam, m)
    targets: list[np.ndarray] = []  # affine right-hand sides, shape (m,)

    # Broadcasting: Tr_S1[C] = Omega and Tr_S2[C] = Omega on (leftover (x) input).
    if include_broadcasting:
        t6 = stack.reshape(nparam, d, d, d, d, d, d)
        om = omega(d).mat.reshape(-1)
        blocks.append(np.einsum("kpxypuv->kxyuv", t6).reshape(nparam, -1))
        targets.append(om)
        blocks.append(np.einsum("kxpyupv->kxyuv", t6).reshape(nparam, -1))
        targets.append(om)

    # Permutation symmetry: SWAP-conjugated Choi equals itself.
    if include_permutation:
        sw = np.kron(swap(d).mat, np.eye(d))
        perm = np.matmul(np.matmul(sw[None, :, :], stack), sw[None, :, :]) - stack
        blocks.append(perm.reshape(nparam, -1))
        targets.append(np.zeros(n * n))

    # Classical consistency: the diagonal of m(E_ii) matches the |ii><ii| pattern.
    # Off-diagonal entries of the decohered chain vanish identically, so only
    # these d*d^2 coordinates carry information.
    if include_classical:
        c4 = stack.reshape(nparam, d * d, d, d * d, d)
        cl_block = np.empty((nparam, d, d * d), dtype=np.complex128)
        tgt = np.zeros((d, d * d))
        for i in range(d):
            cl_block[:, i, :] = np.einsum("krr->kr", c4[:, :, i, :, i])
            tgt[i, i * d + i] = 1.0
        blocks.append(cl_block.reshape(nparam, -1))
        targets.append(tgt.reshape(-1))

    # Covariance under sampled Haar unitaries: (U (x) U (x) Ubar)-conjugation fixes C.
    for _ in range(n_unitaries):
        u = haar_unitary(d, rng).mat
        w = np.kron(np.kron(u, u), u.conj())
        cov = np.matmul(np.matmul(w[None, :, :], stack), w.conj().T[None, :, :]) - stack
        blocks.append(cov.reshape(nparam, -1))
        targets.append(np.zeros(n * n))

    # Stack real rows: [Re; Im] of every constraint coordinate, columns = unknowns.
    n_rows = 2 * sum(b.shape[1] for b in blocks)
    a = np.empty((n_rows, nparam))
    b_vec = np.empty(n_rows)
    at = 0
    for blk, tgt in zip(blocks, targets):
        m_out = blk.shape[1]
        a[at : at + m_out] = blk.real.T
        b_vec[at : at + m_out] = np.asarray(tgt).real
        at += m_out
        a[at : at + m_out] = blk.imag.T
        b_vec[at : at + m_out] = np.asarray(tgt).imag
        at += m_out

    rank = svd_rank(a)
    c_b = _coeffs_from_hermitian(dense_choi(canonical_b(d)).mat)
    residual = float(np.abs(a @ c_b - b_vec).max())

    return UniquenessCertificate(
        constraint_rows=n_rows,
        unknowns=nparam,
        rank=rank,
        nullity=nparam - rank,
        candidate_residual=residual,
    )


def dense_basis_uniqueness(
    d: int, include_broadcasting: bool = True, include_permutation: bool = True, include_classical: bool = True
) -> UniquenessCertificate:
    """The uniqueness system with each dense basis element's residuals as one column."""

    def rows(c: np.ndarray) -> np.ndarray:
        flat = residual_rows(c, d, include_broadcasting, include_permutation, include_classical)
        return np.concatenate([flat.real, flat.imag])

    basis = commutant_basis(d)
    offset = rows(np.zeros_like(basis[0]))
    a = np.stack([rows(e) - offset for e in basis], axis=1)
    rank = svd_rank(a)
    coeffs = np.einsum("kij,ji->k", basis, dense_choi(canonical_b(d)).mat).real
    return UniquenessCertificate(
        constraint_rows=a.shape[0],
        unknowns=a.shape[1],
        rank=rank,
        nullity=a.shape[1] - rank,
        candidate_residual=float(np.abs(a @ coeffs + offset).max(initial=0.0)),
    )
