"""Dense references for the covariant Chois, written as the paper's formulas.

The library builds every U (x) U (x) Ubar-covariant Choi from six
coefficients over the partially transposed factor permutations, laid out
by equality pattern (``vbcast.supermap.pattern_positions`` and
``pattern_floats``); the tests compare those against
``commutant_table``, the dense int8 table of the six, and against the
products and moment sums below, which are built from the dense factor
permutations and Haar moment operators defined here.  The dense orthonormal
basis of the covariant span and its projection are the references for the
library's six-coefficient versions.
"""

import functools

import numpy as np

from vbcast.densemat import S3, Operator, swap
from vbcast.supermap import _require_dim

from dense_maps import identity, kron, omega


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


def table_sum_choi(d: int, coeffs) -> np.ndarray:
    """sum_k coeffs[k] commutant_table(d)[k], summed term by term into a zero complex array."""
    choi = np.zeros((d**3, d**3), dtype=np.complex128)
    for c, term in zip(coeffs, commutant_table(d)):
        choi += c * term
    return choi


def permutation_operators(d: int) -> tuple[Operator, ...]:
    """The factor permutations P_sigma of C^d (x) C^d (x) C^d, in the order of ``S3``.

    P_sigma |i_0 i_1 i_2> = |i_sigma(0) i_sigma(1) i_sigma(2)>, so P_(12) is
    SWAP (x) I and P_(13) exchanges the outer factors.
    """
    n = d**3
    eye = np.eye(n).reshape(d, d, d, n)
    return tuple(Operator(eye.transpose(*perm, 3).reshape(n, n)) for perm in S3)


def moment_operator(d: int, order: int) -> Operator:
    """Exact Haar moment operators  Integral psi^(x)k d psi  for order k = 1, 2, 3.

    Order 2 is (I + S)/(d(d+1)); order 3 sums the six factor permutations
    P_sigma of C^d (x) C^d (x) C^d divided by d(d+1)(d+2).
    """
    if order == 1:
        return Operator(np.eye(d) / d)
    if order == 2:
        return Operator((np.eye(d * d) + swap(d).mat) / (d * (d + 1)))
    if order == 3:
        total = sum(p.mat for p in permutation_operators(d))
        return Operator(total / (d * (d + 1) * (d + 2)))
    raise ValueError(f"moment operators implemented for orders 1-3, got {order}")


def sym_projector(d: int) -> Operator:
    """P+ = (I + S)/2 on C^d (x) C^d."""
    return Operator((np.eye(d * d) + swap(d).mat) / 2)


def antisym_projector(d: int) -> Operator:
    """P- = (I - S)/2 on C^d (x) C^d."""
    return Operator((np.eye(d * d) - swap(d).mat) / 2)


def choi_projector(d: int, sign: int) -> Operator:
    """The sandwich (P_s (x) I)(I (x) Omega)(P_s (x) I); the Choi of B_s is 2/(d + s) times it."""
    p = sym_projector(d) if sign > 0 else antisym_projector(d)
    pw = kron(p, identity(d)).mat
    return Operator(pw @ kron(identity(d), omega(d)).mat @ pw)


def dense_b_lambda(d: int, lam: float) -> np.ndarray:
    """(1/2){Omega_13, S_12} + i lam [Omega_13, S_12], with Omega_13 = P_(13) transposed on the input."""
    _, s12, p13, *_ = permutation_operators(d)
    om13 = p13.mat.reshape((d,) * 6).transpose(0, 1, 5, 3, 4, 2).reshape(d**3, d**3)
    left, right = om13 @ s12.mat, s12.mat @ om13
    return (left + right) / 2 + 1j * lam * (left - right)


def dense_mp_choi(d: int) -> np.ndarray:
    """Choi of the measure-and-prepare map from its Jamiolkowski form (d/8) E[((d+2)psi - I)^(x)3].

    Expanded into the Haar moments of order 0..3, then reordered from
    in (x) out to out (x) in with the input factor transposed.
    """
    a = d + 2
    eye3, p12, p13, p23, *_ = (p.mat for p in permutation_operators(d))
    j2 = (3 * eye3 + p12 + p13 + p23) / (d * (d + 1))
    j = (d / 8.0) * (a**3 * moment_operator(d, 3).mat - a**2 * j2 + 3.0 * a / d * eye3 - eye3)
    return j.reshape(d, d * d, d, d * d).transpose(1, 2, 3, 0).reshape(d**3, d**3)


@functools.cache
def commutant_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis of the Choi operators covariant under U (x) U (x) Ubar.

    Shape (k, d^3, d^3), orthonormal in <A, B> = Tr[A B].  The basis spans
    the partial transposes P_sigma^T3 of the six factor permutations; k is
    5 at d = 2, where the three-factor antisymmetrizer vanishes, and 6 for
    d >= 3.  The rank is cut on the Gram matrix's spectrum, because the raw
    operators are linearly dependent at d = 2.  Built once per d; the
    returned array is shared and read-only.
    """
    q = commutant_table(d).astype(np.complex128)
    # Transpositions are self-adjoint; the two 3-cycles are adjoint to each other.
    herm = np.stack([*q[:4], q[4] + q[5], 1j * (q[4] - q[5])])
    gram = np.einsum("aij,bji->ab", herm, herm).real
    vals, vecs = np.linalg.eigh(gram)
    keep = vals > 1e-10 * vals[-1]
    basis = np.einsum("ak,aij->kij", vecs[:, keep] / np.sqrt(vals[keep]), herm)
    basis.flags.writeable = False
    return basis


def dense_commutant_projection(choi: Operator, d: int) -> Operator:
    """The projection onto the covariant span, summed over the dense basis."""
    basis = commutant_basis(d)
    return Operator(np.tensordot(np.einsum("kij,ji->k", basis, choi.mat), basis, axes=1))
