"""States over time induced by the virtual broadcasting map.

A channel E: S1 -> S2 applied to the second output of a broadcaster b
yields the bipartite operator

    E * rho = (id (x) E)( b(rho) )

-- Hermitian, unit trace, generally non-positive -- whose marginals are
the input rho and the output E(rho).  The construction is linear in b, so
each of its axioms holds exactly when the same axiom holds for b:
``check_sot_axioms`` returns the broadcaster's exact axiom report, with no
sampling.  It also respects post-processing in both Schroedinger and
Heisenberg pictures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densemat import Operator, Rng, partial_trace, random_density, random_hermitian
from .supermap import SuperMap, apply_right, random_channel
from .broadcast import AxiomReport, check_axioms


@dataclass(frozen=True)
class StateOverTime:
    """Bipartite operator over (input system, output system) plus its source."""

    operator: Operator
    d1: int
    d2: int
    channel: SuperMap
    input_state: Operator

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
    return StateOverTime(operator=op, d1=d, d2=e.d_out, channel=e, input_state=rho)


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


@dataclass(frozen=True)
class PostprocessingResiduals:
    """Residuals of the two post-processing identities."""

    composition: float
    heisenberg: float


def _random_effect(d: int, rng: Rng) -> Operator:
    """Random Hermitian P with 0 <= P <= I, full spread."""
    h = random_hermitian(d, rng).mat
    vals = np.linalg.eigvalsh(h)
    lo, hi = vals[0], vals[-1]
    return Operator((h - lo * np.eye(d)) / (hi - lo))


def check_postprocessing_equivalence(
    b: SuperMap, n_cases: int = 50, rng: Rng | None = None, star_fn=None
) -> PostprocessingResiduals:
    """Check (F . E) * rho = (id (x) F)(E * rho) and its Heisenberg twin.

    The Heisenberg residual compares Tr_S2[(I (x) F*(P)) (E * rho)] with
    Tr_S2[(I (x) P) ((F.E) * rho)] over random binary effects P.  A custom
    ``star_fn(e, rho)`` may be supplied to probe broken constructions.
    """
    if rng is None:
        rng = Rng(0)
    d = b.d_in
    if star_fn is None:
        star_fn = lambda e, rho: star(e, rho, b).operator  # noqa: E731

    r_comp = 0.0
    r_heis = 0.0
    for _ in range(n_cases):
        rho = random_density(d, rng)
        e = random_channel(d, d, rng)
        f = random_channel(d, d, rng)
        p = _random_effect(d, rng)

        fe = f.compose(e)
        lhs = star_fn(fe, rho)
        mid = star_fn(e, rho)
        rhs = apply_right(f, mid, d_left=d)
        r_comp = max(r_comp, float(np.abs(lhs.mat - rhs.mat).max()))

        fstar_p = f.hs_adjoint().apply(p)
        heis = partial_trace(
            Operator(mid.mat @ np.kron(np.eye(d), fstar_p.mat)), (d, d), keep="first"
        )
        schro = partial_trace(
            Operator(lhs.mat @ np.kron(np.eye(d), p.mat)), (d, d), keep="first"
        )
        r_heis = max(r_heis, float(np.abs(heis.mat - schro.mat).max()))

    return PostprocessingResiduals(composition=r_comp, heisenberg=r_heis)
