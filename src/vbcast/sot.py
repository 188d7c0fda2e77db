"""States over time induced by the virtual broadcasting map.

A channel E: S1 -> S2 applied to the second output of a broadcaster b
yields the bipartite operator

    E * rho = (id (x) E)( b(rho) )

-- Hermitian, unit trace, generally non-positive -- whose marginals are
the input rho and the output E(rho).  The construction is linear in b, so
each of its axioms holds exactly when the same axiom holds for b:
``check_sot_axioms`` returns the broadcaster's exact axiom report, with no
sampling.  Post-processing, (F . E) * rho = (id (x) F)(E * rho), holds by
construction for every b, so it needs no check here.
"""

from __future__ import annotations

from typing import NamedTuple

from .densemat import Operator, partial_trace
from .supermap import SuperMap, apply_right
from .broadcast import AxiomReport, check_axioms


class StateOverTime(NamedTuple):
    """Bipartite operator over (input system, output system)."""

    operator: Operator
    d1: int
    d2: int

    def marginals(self) -> tuple[Operator, Operator]:
        """(first-system, second-system) partial traces."""
        dims = (self.d1, self.d2)
        return (
            partial_trace(self.operator, dims, keep="first"),
            partial_trace(self.operator, dims, keep="second"),
        )


def star(e: SuperMap, rho: Operator, b: SuperMap) -> StateOverTime:
    """E * rho = (id (x) E)(b(rho)) for a broadcaster b: d -> d*d."""
    d = b.d_in
    if b.d_out != d * d:
        raise ValueError("broadcaster must map d -> d^2")
    if e.d_in != d:
        raise ValueError(f"channel input dim {e.d_in} does not match state dim {d}")
    if rho.rows != d or rho.cols != d:
        raise ValueError(f"rho must be {d}x{d}")
    op = apply_right(e, b.apply(rho), d_left=d)
    return StateOverTime(operator=op, d1=d, d2=e.d_out)


def check_sot_axioms(b: SuperMap) -> AxiomReport:
    """Exact axiom residuals of * built on b: those of :func:`~vbcast.broadcast.check_axioms`.

    Over all unitaries U, V, channels E and states rho, each axiom of * is
    equivalent to the same axiom of b:

    - Covariance, (U (x) V)(E * rho)(U (x) V)+ = (Ad_V E Ad_U+) * (U rho U+).
      Substituting E = Ad_V+ E' Ad_U turns it into
      (id (x) E')[(Ad_U (x) Ad_U) b(rho) - b(U rho U+)] = 0, which holds for
      every E' (take E' = id) exactly when b is covariant.
    - Permutation symmetry at E = id, where id * rho = b(rho).
    - Classical consistency.  With E_cl = D E D for the decoherence D,
      (D (x) D)(E_cl * D rho) = (id (x) E_cl)[(D (x) D) b D(rho)], which
      equals (id (x) E_cl)(B_cl(rho)) for every E (take E = id) exactly
      when (D (x) D) b D = B_cl.
    - Broadcasting.  For trace-preserving E, Tr_2 (id (x) E) X = Tr_2 X and
      Tr_1 (id (x) E) X = E(Tr_1 X), so the marginals of E * rho are rho and
      E(rho) for every E exactly when b broadcasts.
    """
    return check_axioms(b)

