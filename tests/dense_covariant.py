"""Dense references for the covariant Chois, written as the paper's formulas.

The library builds every U (x) U (x) Ubar-covariant Choi from six
coefficients over ``vbcast.broadcast.commutant_table``; the tests compare
those against the products and moment sums below, which are built from the
dense factor permutations and Haar moment operators defined here.
"""

import numpy as np

from vbcast.densemat import S3, Operator, identity, kron, swap
from vbcast.supermap import omega


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
