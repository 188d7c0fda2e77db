"""The virtual broadcasting map, its relatives, and its characterizing axioms.

The canonical broadcaster is the HPTP map

    B(rho) = (1/2) { rho (x) I , SWAP }

whose two marginals both reproduce rho.  This module constructs B, the
optimal-cloner and antisymmetric channels whose affine combination it is,
the decohered/classical variants, and the one-parameter commutator family
B_lambda, all from closed-form Choi operators.

Covariant maps are six coefficients over the table of partially
transposed factor permutations (``vbcast.supermap``).  The orthonormal
Hermitian basis of their span is a 6 x k coefficient frame (k = 5 at
d = 2, 6 above), from the integer Gram matrix
Tr[P_s^T P_t] = d^c(t s^-1), c counting cycles, so no dense basis is
ever built.  ``check_axioms`` reads all four axioms exactly, with no
sampling.  On a covariant map, covariance is 0 by construction, and each
linear residual (both marginals, permutation symmetry, classical
consistency) takes one value per equality pattern of its labels
(``_axiom_patterns``), so its largest entry is a maximum over at most 203
rows of six numbers.  On a dense map, covariance is the distance to the
span, whose projection needs only the six overlaps of the Choi with the
table, and the residuals are taken entry by entry.
``verify_uniqueness`` solves the three linear axioms over the span's k
coefficients: it QR-factors the pattern rows, each weighted by the square
root of its number of entries, which gives the Gram matrix, and so the
singular values, of the full residual system on the six table elements;
that dense system is kept in the tests as the reference.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .densemat import S3, Operator
from .supermap import (
    AffineDecomposition,
    SuperMap,
    _cycles,
    _require_dim,
    commutant_table,
    covariant_map,
    equality_patterns,
    omega,
    table_entries,
)


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


@functools.cache
def _axiom_patterns(d: int) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each axiom residual of a covariant Choi as (rows, target, count) over the patterns that occur at d.

    On count[j] entries the residual of  C = sum_k x_k P_k^T3  equals
    rows[j] @ x - target[j], and those entries cover it; rows are (n, 6)
    float.  A marginal entry sums the traced label over the k groups of its
    other four labels' pattern and over d - k new values, which all give
    one pattern.  Permutation symmetry compares each pattern with the one
    that swaps the two outputs; classical consistency reads the diagonal
    patterns (a, b, i, a, b, i).  Keys: "marginal1", "marginal2",
    "permutation", "classical"; the arrays are shared and read-only.
    """
    _require_dim(d)
    quad = equality_patterns(4)  # labels (x, y, u, v) of the marginal entry (xy, uv)
    k4 = quad.max(axis=1) + 1
    x, y, u, v = quad.T
    marginals = []
    for traced in ((0, 3), (1, 4)):  # the positions of out1 and out1', or of out2 and out2'
        rows = np.zeros((len(quad), 6))
        for p in range(5):
            labels = np.empty((len(quad), 6), dtype=np.intp)
            labels[:, traced] = p
            labels[:, [i for i in range(6) if i not in traced]] = quad
            rows += np.where(p < k4, 1.0, np.where(p == k4, d - k4, 0.0))[:, np.newaxis] * table_entries(labels)
        marginals.append((rows, ((x == y) & (u == v)).astype(float), k4))

    six = equality_patterns(6)
    perm = table_entries(six[:, [1, 0, 2, 4, 3, 5]]) - table_entries(six)
    tri = equality_patterns(3)
    a, b, i = tri.T
    classical = table_entries(tri[:, [0, 1, 2, 0, 1, 2]]), ((a == b) & (b == i)).astype(float), tri.max(axis=1) + 1
    systems = {
        "marginal1": marginals[0],
        "marginal2": marginals[1],
        "permutation": (perm, np.zeros(len(six)), six.max(axis=1) + 1),
        "classical": classical,
    }
    out = {}
    for name, (rows, target, groups) in systems.items():
        count = np.array([math.perm(d, int(g)) for g in groups])
        keep = count > 0
        arrays = rows[keep], target[keep], count[keep]
        for arr in arrays:
            arr.flags.writeable = False
        out[name] = arrays
    return out


# ---------------------------------------------------------------------------
# axiom checking


class AxiomReport(NamedTuple):
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
    if m.coeffs is not None:
        worst = {
            name: float(np.abs(rows @ m.coeffs - target).max())
            for name, (rows, target, _) in _axiom_patterns(d).items()
        }
        return AxiomReport(
            broadcasting=max(worst["marginal1"], worst["marginal2"]),
            covariance=0.0,
            permutation=worst["permutation"],
            classical=worst["classical"],
        )
    c = m.choi.mat
    return AxiomReport(
        broadcasting=max(float(np.abs(r).max()) for r in _marginal_residuals(c, d)),
        covariance=(m.choi - commutant_projection(m.choi, d)).absmax(),
        permutation=float(np.abs(_permutation_residual(c, d)).max()),
        classical=float(np.abs(_classical_residual(c, d)).max()),
    )


# ---------------------------------------------------------------------------
# uniqueness certificate


class UniquenessCertificate(NamedTuple):
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

    Reads the axioms' linear residuals on the six table elements off their
    equality patterns (``_axiom_patterns``), which through
    ``commutant_frame`` gives the real system over the 5 or 6 covariant
    coefficients, then reports the nullity of its homogeneous part and the
    affine residual of the canonical map, read from B's own six
    coefficients.  ``constraint_rows`` counts the rows of the full real
    system, 2 (2d^4 + d^6 + d^3) with every axiom included.  The
    ``include_*`` switches allow dropping axiom groups to exhibit the extra
    solution families that appear without them.
    """
    systems = _axiom_patterns(d)
    names = ["marginal1", "marginal2"] + ["permutation"] * include_permutation + ["classical"] * include_classical
    rows, target, count = (np.concatenate(parts) for parts in zip(*(systems[n] for n in names)))
    residual = float(np.abs(rows @ np.real(_b_lambda_coeffs(0.0)) - target).max())

    # Row j stands for count[j] equal rows of the residual system on the six
    # table elements; weighting it by sqrt(count[j]) keeps that system's Gram
    # matrix, so its triangular factor R up to row signs.  The real system
    # over the frame coefficients has the singular values of [R Re W; R Im W].
    r = np.linalg.qr(np.sqrt(count)[:, np.newaxis] * rows, mode="r")
    frame = commutant_frame(d)
    svals = np.linalg.svd(np.concatenate([r @ frame.real, r @ frame.imag]), compute_uv=False)
    threshold = 1e-8 * svals[0]
    nullity = int(np.sum(svals < threshold))
    kept = svals[svals >= threshold]
    gap = float(kept.min() / threshold) if kept.size else 0.0

    return UniquenessCertificate(
        constraint_rows=2 * int(count.sum()),
        unknowns=frame.shape[1],
        nullity=nullity,
        candidate_residual=residual,
        singular_value_gap=gap,
    )
