"""Dense reference for the axiom residuals, read entry by entry off the Choi.

``vbcast.broadcast.check_axioms`` reads the four axioms of a covariant or
pattern map exactly, off the equality patterns of the Choi's six labels,
and refuses a dense map.  ``dense_check_axioms`` takes any map d -> d^2
through its dense Choi: the marginal, permutation and classical residuals
entry by entry, and covariance as the distance to ``commutant_projection``,
which solves the Gram's leading block in floats.  The tests compare the
two on every named map and use this one for random channels.
"""

import numpy as np

from vbcast.broadcast import AxiomReport, _bareiss, commutant_gram
from vbcast.densemat import Operator
from vbcast.supermap import SuperMap, covariant_map

from dense_covariant import commutant_table
from dense_maps import absmax, dense_choi, omega


def commutant_projection(choi: Operator, d: int) -> Operator:
    """Orthogonal projection of a Choi operator on C^d (x) C^d (x) C^d onto the covariant span.

    This is the Haar twirl  Integral W C W+ dU  with W = U (x) U (x) Ubar.
    Each overlap  <P_j^T3, C>  sums C over the d^3 entries where table
    element j is 1, and the coefficients x solve  Gram x = overlaps.  With
    k the Gram's rank, the first k table elements are independent, so the
    leading k x k block is solved against the first k overlaps and the
    rest of x is zero.
    """
    flat = choi.mat.ravel()
    overlaps = np.array([flat[term.ravel().astype(bool)].sum() for term in commutant_table(d)])
    gram = commutant_gram(d)
    k = _bareiss(gram)[0]
    x = np.zeros(6, dtype=complex)
    x[:k] = np.linalg.solve(np.array(gram, dtype=float)[:k, :k], overlaps[:k])
    return dense_choi(covariant_map(d, x))


def permutation_residual(c: np.ndarray, d: int) -> np.ndarray:
    """S_12 C S_12 - C: swapping the two outputs must leave the Choi unchanged."""
    c6 = c.reshape((d,) * 6)
    return c6.transpose(1, 0, 2, 4, 3, 5) - c6


def classical_residual(c: np.ndarray, d: int) -> np.ndarray:
    """C[(ab,i),(ab,i)] - delta_{a=b=i}: the Choi diagonal against classical copying.

    These entries are the Choi of (D (x) D) . m . D, and the classical
    broadcaster's Choi is delta_{a=b=i} there and zero everywhere else.
    """
    target = np.zeros((d, d, d))
    idx = np.arange(d)
    target[idx, idx, idx] = 1.0
    return np.diagonal(c).reshape(d, d, d) - target


def marginal_residuals(c: np.ndarray, d: int) -> list[np.ndarray]:
    """Tr_out1[C] - Omega and Tr_out2[C] - Omega: both marginals are the identity map."""
    c6 = c.reshape((d,) * 6)
    om = omega(d).mat.reshape(d, d, d, d)
    return [np.einsum("pxypuv->xyuv", c6) - om, np.einsum("xpyupv->xyuv", c6) - om]


def dense_check_axioms(m: SuperMap) -> AxiomReport:
    """The four axiom residuals of a map d -> d^2, each the largest absolute entry of its dense residual."""
    d = m.d_in
    if m.d_out != d * d:
        raise ValueError(f"broadcaster must map d -> d^2, got {m.d_in} -> {m.d_out}")
    choi = dense_choi(m)
    c = choi.mat
    return AxiomReport(
        broadcasting=max(float(np.abs(r).max()) for r in marginal_residuals(c, d)),
        covariance=absmax(c - commutant_projection(choi, d).mat),
        permutation=float(np.abs(permutation_residual(c, d)).max()),
        classical=float(np.abs(classical_residual(c, d)).max()),
    )
