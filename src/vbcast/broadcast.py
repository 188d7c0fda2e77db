"""The virtual broadcasting map, its relatives, and its characterizing axioms.

The canonical broadcaster is the HPTP map

    B(rho) = (1/2) { rho (x) I , SWAP }

whose two marginals both reproduce rho.  This module constructs B, the
optimal-cloner and antisymmetric channels whose affine combination it is,
the decohered/classical variants, and the one-parameter commutator family
B_lambda, all from closed-form Choi operators.

A map d -> d^2 is covariant exactly when its Choi operator commutes with
U (x) U (x) Ubar.  By mixed Schur-Weyl duality (the walled Brauer algebra
B_{2,1}(d); Benkart et al., J. Algebra 166 (1994)) such operators span the
input-factor partial transposes of the six permutations of three factors.
Those six 0/1 matrices are the cached int8 ``commutant_table``.  Their
Gram matrix is the integer  Tr[P_s^T P_t] = d^c(t s^-1), c counting
cycles, so the span's orthonormal Hermitian basis is a 6 x k coefficient
frame (k = 5 at d = 2, 6 above) and no dense basis is ever built.
``check_axioms`` reads all four axioms from the Choi operator, with no
sampling: covariance as the distance to that span, whose projection needs
only the six overlaps of the Choi with the table, and broadcasting,
permutation symmetry and classical consistency as linear residuals.
``verify_uniqueness`` solves those three over the span's k coefficients:
it evaluates the residuals on the six table elements, reduces those
columns to their 6 x 6 triangular QR factor R, and takes the singular
values of R times the frame.  The dense system on all Hermitian Choi
unknowns, kept in the tests as a reference, gives the same nullities at
d = 2, 3.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .densemat import S3, Operator
from .supermap import AffineDecomposition, SuperMap, omega


def _require_dim(d: int):
    if d < 2:
        raise ValueError(f"broadcasting maps need dimension >= 2, got {d}")


@functools.cache
def commutant_table(d: int) -> np.ndarray:
    """The permutations of ``S3`` transposed on the input factor: (6, d^3, d^3), int8, read-only."""
    _require_dim(d)
    table = np.zeros((6,) + (d,) * 6, dtype=np.int8)
    i = np.indices((d, d, d)).reshape(3, -1)
    for k, s in enumerate(S3):  # P_sigma^T3 is 1 at row (i_s0, i_s1, i_2), column (i_0, i_1, i_s2)
        table[k, i[s[0]], i[s[1]], i[2], i[0], i[1], i[s[2]]] = 1
    table.flags.writeable = False
    return table.reshape(6, d**3, d**3)


def covariant_map(d: int, coeffs) -> SuperMap:
    """The covariant map d -> d^2 whose Choi is  sum_k coeffs[k] commutant_table(d)[k]."""
    _require_dim(d)
    if len(coeffs) != 6:
        raise ValueError(f"a covariant map needs 6 coefficients, got {len(coeffs)}")
    choi = np.zeros((d**3, d**3), dtype=np.complex128)
    for c, term in zip(coeffs, commutant_table(d)):
        choi += c * term
    return SuperMap(d, d * d, Operator(choi))


def canonical_b(d: int) -> SuperMap:
    """The virtual broadcasting map rho -> (1/2){rho (x) I, SWAP}."""
    return family_b_lambda(d, 0.0)


def _b_lambda_coeffs(lam: float) -> tuple:
    return (0, 0, 0, 0, 0.5 - 1j * lam, 0.5 + 1j * lam)


def family_b_lambda(d: int, lam: float) -> SuperMap:
    """Commutator deformation (1/2){rho (x) I, S} + i*lam*[rho (x) I, S].

    HPTP and trace-preserving for every real lam; permutation-symmetric
    only at lam = 0.  Its Choi is (1/2){Omega_13, S_12} + i*lam*[Omega_13, S_12]
    with S_12 = P_(12) and Omega_13 = P_(13) partially transposed on the input.
    """
    return covariant_map(d, _b_lambda_coeffs(lam))


def cloner(d: int) -> SuperMap:
    """Optimal universal cloning channel  rho -> 2/(d+1) P+ (I (x) rho) P+."""
    _require_dim(d)
    return covariant_map(d, np.array([0, 0, 1, 1, 1, 1]) / (2 * (d + 1)))


def antisym(d: int) -> SuperMap:
    """Antisymmetric counterpart  rho -> 2/(d-1) P- (I (x) rho) P-."""
    _require_dim(d)
    return covariant_map(d, np.array([0, 0, 1, 1, -1, -1]) / (2 * (d - 1)))


def canonical_decomposition(d: int) -> AffineDecomposition:
    """B = (d+1)/2 * cloner - (d-1)/2 * antisym, both parts CPTP."""
    return AffineDecomposition((d + 1) / 2, (d - 1) / 2, cloner(d), antisym(d))


def _basis_or_identity(d: int, basis: Operator | None) -> np.ndarray:
    if basis is None:
        return np.eye(d, dtype=np.complex128)
    if basis.rows != d or basis.cols != d:
        raise ValueError(f"basis must be {d}x{d}, got {basis.rows}x{basis.cols}")
    if not basis.is_unitary():
        raise ValueError("basis must be unitary")
    return basis.mat


def decoherence(d: int, basis: Operator | None = None) -> SuperMap:
    """Full decoherence in the given orthonormal basis (columns of ``basis``).

    Choi  sum_i |b_i><b_i| (x) |conj b_i><conj b_i|.
    """
    v = _basis_or_identity(d, basis)
    x = np.einsum("ai,bi->iab", v, v.conj()).reshape(d, d * d)
    return SuperMap(d, d, Operator(x.T @ x.conj()))


def classical_bcl(d: int, basis: Operator | None = None) -> SuperMap:
    """Classical broadcaster  |b_i><b_j| -> delta_ij |b_i b_i><b_i b_i|.

    Choi  sum_i |b_i b_i><b_i b_i| (x) |conj b_i><conj b_i|.
    """
    _require_dim(d)
    v = _basis_or_identity(d, basis)
    x = np.einsum("ai,bi,ci->iabc", v, v, v.conj()).reshape(d, d**3)
    return SuperMap(d, d * d, Operator(x.T @ x.conj()))


# ---------------------------------------------------------------------------
# the commutant core


def _cycles(p: tuple[int, ...]) -> int:
    """Number of cycles of a permutation of three factors."""
    return len({frozenset((i, p[i], p[p[i]])) for i in range(3)})


def commutant_gram(d: int) -> np.ndarray:
    """Gram matrix  Tr[P_s^T P_t] = d^c(t s^-1)  of the table elements, c counting cycles: (6, 6), float.

    Partial transposition preserves the Hilbert-Schmidt product, and
    P_s^T P_t fixes the basis states whose labels agree on each cycle.
    """
    _require_dim(d)
    cycles = [_cycles(tuple(t[s.index(i)] for i in range(3))) for s in S3 for t in S3]
    return np.power(float(d), cycles).reshape(6, 6)


@functools.cache
def commutant_frame(d: int) -> np.ndarray:
    """Coefficients W over the table of an orthonormal Hermitian basis  E_k = sum_j W[j, k] P_j^T3.

    Shape (6, k), complex, read-only; k is 5 at d = 2, where the
    three-factor antisymmetrizer vanishes, and 6 for d >= 3.  The basis
    orthonormalises the Hermitian elements  P_0..P_3, P_4 + P_5 and
    i(P_4 - P_5)  (the two 3-cycles are adjoint to each other) through
    their Gram matrix, whose spectrum cuts the rank.
    """
    herm = np.eye(6, dtype=np.complex128)  # row a: the table coefficients of Hermitian element a
    herm[4, 5], herm[5, 4], herm[5, 5] = 1, 1j, -1j
    gram = (herm.conj() @ commutant_gram(d) @ herm.T).real
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > 1e-10 * vals[-1]
    frame = herm.T @ (vecs[:, keep] / np.sqrt(vals[keep]))
    frame.flags.writeable = False
    return frame


def commutant_projection(choi: Operator, d: int) -> Operator:
    """Orthogonal projection of a Choi operator on C^d (x) C^d (x) C^d onto the covariant span.

    This is the Haar twirl  Integral W C W+ dU  with W = U (x) U (x) Ubar.
    Each overlap  <P_j^T3, C>  sums C over the d^3 entries where table
    element j is 1; the frame turns the six overlaps into coefficients.
    """
    flat = choi.mat.ravel()
    overlaps = np.array([flat[np.flatnonzero(t)].sum() for t in commutant_table(d).reshape(6, -1)])
    frame = commutant_frame(d)
    return covariant_map(d, frame @ (frame.conj().T @ overlaps)).choi


def _permutation_residual(c: np.ndarray, d: int) -> np.ndarray:
    """S_12 C S_12 - C: swapping the two outputs must leave the Choi unchanged."""
    c6 = c.reshape((d,) * 6)
    return c6.transpose(1, 0, 2, 4, 3, 5) - c6


def _classical_residual(c: np.ndarray, d: int) -> np.ndarray:
    """C[(ab,i),(ab,i)] - delta_{a=b=i}: the Choi diagonal against classical copying.

    These entries are the Choi of (D (x) D) . m . D, and the classical
    broadcaster's Choi is delta_{a=b=i} there and zero everywhere else.
    """
    target = np.zeros((d, d, d))
    idx = np.arange(d)
    target[idx, idx, idx] = 1.0
    return np.diagonal(c).reshape(d, d, d) - target


def _marginal_residuals(c: np.ndarray, d: int) -> list[np.ndarray]:
    """Tr_out1[C] - Omega and Tr_out2[C] - Omega: both marginals are the identity map."""
    c6 = c.reshape((d,) * 6)
    om = omega(d).mat.reshape(d, d, d, d)
    return [np.einsum("pxypuv->xyuv", c6) - om, np.einsum("xpyupv->xyuv", c6) - om]


def _residual_rows(c: np.ndarray, d: int, include_permutation: bool, include_classical: bool) -> np.ndarray:
    """The marginal, then permutation and classical residuals of the Choi c, as one flat vector."""
    res = _marginal_residuals(c, d)
    if include_permutation:
        res.append(_permutation_residual(c, d))
    if include_classical:
        res.append(_classical_residual(c, d))
    return np.concatenate([r.ravel() for r in res])


# ---------------------------------------------------------------------------
# axiom checking


@dataclass(frozen=True)
class AxiomReport:
    """Max-absolute-entry residuals of the four broadcasting axioms.

    Each is the largest absolute entry of a linear residual of the Choi
    operator C: broadcasting is the worse of the two marginal residuals
    ``Tr_out1[C] - Omega`` and ``Tr_out2[C] - Omega``, covariance is
    ``C - Pi(C)`` for the projection Pi onto the covariant span, permutation
    symmetry is ``S_12 C S_12 - C``, and classical consistency compares the
    Choi diagonal with the classical broadcaster's.
    """

    broadcasting: float
    covariance: float
    permutation: float
    classical: float

    def max_residual(self) -> float:
        return max(self.broadcasting, self.covariance, self.permutation, self.classical)

    def passes(self, tol: float) -> bool:
        return self.max_residual() < tol


def check_axioms(m: SuperMap) -> AxiomReport:
    """Measure a candidate broadcaster d -> d^2 exactly against the four defining axioms."""
    d = m.d_in
    if m.d_out != d * d:
        raise ValueError(f"broadcaster must map d -> d^2, got {m.d_in} -> {m.d_out}")
    c = m.choi.mat
    return AxiomReport(
        broadcasting=max(float(np.abs(r).max()) for r in _marginal_residuals(c, d)),
        covariance=(m.choi - commutant_projection(m.choi, d)).absmax(),
        permutation=float(np.abs(_permutation_residual(c, d)).max()),
        classical=float(np.abs(_classical_residual(c, d)).max()),
    )


# ---------------------------------------------------------------------------
# uniqueness certificate


@dataclass(frozen=True)
class UniquenessCertificate:
    """Certificate that the axioms admit exactly one solution.

    The unknowns are the real coefficients of a Choi operator in the
    commutant basis, so covariance holds by construction; the broadcasting,
    permutation and classical residuals are the constraint rows.
    ``nullity`` counts singular values below 1e-8 times the largest;
    ``singular_value_gap`` is the smallest retained singular value in units
    of that threshold, and ``candidate_residual`` is the violation of the
    affine system by the canonical map's Choi.
    """

    constraint_rows: int
    unknowns: int
    nullity: int
    candidate_residual: float
    singular_value_gap: float


def verify_uniqueness(
    d: int, include_permutation: bool = True, include_classical: bool = True
) -> UniquenessCertificate:
    """Certify that broadcasting + covariance (+ permutation + classical) force B.

    Evaluates the axioms' linear residuals on each table element, which
    through ``commutant_frame`` gives the real system over the 5 or 6
    covariant coefficients, then reports the nullity of its homogeneous
    part and the affine residual of the canonical map, read from B's own
    six coefficients.  The ``include_*`` switches allow
    dropping axiom groups to exhibit the extra solution families that
    appear without them.
    """
    _require_dim(d)
    table = commutant_table(d)
    # The targets and the table elements are real, so every residual column is real.
    offset = _residual_rows(np.zeros(table.shape[1:]), d, include_permutation, include_classical).real
    cols = np.empty((offset.size, 6))
    for k, t in enumerate(table):
        cols[:, k] = _residual_rows(t.astype(float), d, include_permutation, include_classical).real - offset
    residual = float(np.abs(cols @ np.real(_b_lambda_coeffs(0.0)) + offset).max())

    # The real system [cols Re W; cols Im W] over the frame coefficients has
    # the singular values of [R Re W; R Im W], R the triangular factor of cols.
    r = np.linalg.qr(cols[cols.any(axis=1)], mode="r")
    frame = commutant_frame(d)
    svals = np.linalg.svd(np.concatenate([r @ frame.real, r @ frame.imag]), compute_uv=False)
    threshold = 1e-8 * svals[0]
    nullity = int(np.sum(svals < threshold))
    kept = svals[svals >= threshold]
    gap = float(kept.min() / threshold) if kept.size else 0.0

    return UniquenessCertificate(
        constraint_rows=2 * offset.size,
        unknowns=frame.shape[1],
        nullity=nullity,
        candidate_residual=residual,
        singular_value_gap=gap,
    )
