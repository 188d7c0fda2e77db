"""States over time induced by a broadcasting map.

A channel E: S1 -> S2 applied to the second output of a broadcaster b
yields the bipartite operator

    E * rho = (id (x) E)( b(rho) )

-- Hermitian, unit trace, generally non-positive -- whose marginals are
the input rho and the output E(rho) when b broadcasts.  For the canonical
B it is the symmetric bloom  (1/2){rho (x) I, J[E]}, with J[E] =
(id (x) E)(SWAP) the Jamiolkowski operator of E (Fullwood and Parzygnat,
"On quantum states over time", Proc. R. Soc. A, 2022).

The construction is linear in b, so over all unitaries U, V, channels E
and states rho each axiom of * is equivalent to the same axiom of b, and
``vbcast.broadcast.check_axioms(b)`` reads them all exactly:

- Covariance, (U (x) V)(E * rho)(U (x) V)+ = (Ad_V E Ad_U+) * (U rho U+).
  Substituting E = Ad_V+ E' Ad_U turns it into
  (id (x) E')[(Ad_U (x) Ad_U) b(rho) - b(U rho U+)] = 0, which holds for
  every E' (take E' = id) exactly when b is covariant.
- Permutation symmetry at E = id, where id * rho = b(rho).
- Classical consistency.  With E_cl = D E D for the decoherence D,
  (D (x) D)(E_cl * D rho) = (id (x) E_cl)[(D (x) D) b D(rho)], which
  equals (id (x) E_cl)(B_cl(rho)) for every E (take E = id) exactly when
  (D (x) D) b D = B_cl.
- Broadcasting.  For trace-preserving E, Tr_2 (id (x) E) X = Tr_2 X and
  Tr_1 (id (x) E) X = E(Tr_1 X), so the marginals of E * rho are rho and
  E(rho) for every E exactly when b broadcasts.

Post-processing, (F . E) * rho = (id (x) F)(E * rho), holds by
construction for every b.
"""

from __future__ import annotations

from . import _lazy
from .densemat import Operator
from .supermap import SuperMap

np = _lazy("numpy")


def star(e: SuperMap, rho: Operator, b: SuperMap) -> Operator:
    """E * rho = (id (x) E)(b(rho)) for a broadcaster b: d -> d*d, on (input system, output system).

    E is a dense map, read off its Choi, and b a covariant one (``SuperMap.apply``).
    """
    d = b.d_in
    if b.d_out != d * d:
        raise ValueError("broadcaster must map d -> d^2")
    if e.d_in != d:
        raise ValueError(f"channel input dim {e.d_in} does not match state dim {d}")
    if rho.rows != d or rho.cols != d:
        raise ValueError(f"rho must be {d}x{d}")
    c4 = e.choi.mat.reshape(e.d_out, d, e.d_out, d)  # [out, in, out', in']
    x4 = b.apply(rho).mat.reshape(d, d, d, d)
    n = d * e.d_out
    return Operator(np.einsum("uivj,aibj->aubv", c4, x4).reshape(n, n))
