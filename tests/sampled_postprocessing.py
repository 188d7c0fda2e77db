"""Sampled reference for the post-processing property of states over time.

For every star of the form E * rho = (id (x) E)(b(rho)),
(F . E) * rho = (id (x) F)(E * rho) holds by construction, whatever b is,
so these residuals test ``star``, ``compose``, ``apply_right`` and ``hs_adjoint``
rather than the broadcaster.  A custom ``star_fn`` probes constructions
that break the property.
"""

from dataclasses import dataclass

import numpy as np

from vbcast.densemat import Operator, Rng, random_density, random_hermitian
from vbcast.supermap import SuperMap

from dense_maps import apply, apply_right, compose, hs_adjoint, partial_trace, star
from random_fixtures import random_channel


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
        star_fn = lambda e, rho: star(e, rho, b)  # noqa: E731

    r_comp = 0.0
    r_heis = 0.0
    for _ in range(n_cases):
        rho = random_density(d, rng)
        e = random_channel(d, d, rng)
        f = random_channel(d, d, rng)
        p = _random_effect(d, rng)

        fe = compose(f, e)
        lhs = star_fn(fe, rho)
        mid = star_fn(e, rho)
        rhs = apply_right(f, mid, d_left=d)
        r_comp = max(r_comp, float(np.abs(lhs.mat - rhs.mat).max()))

        fstar_p = apply(hs_adjoint(f), p)
        heis = partial_trace(
            Operator(mid.mat @ np.kron(np.eye(d), fstar_p.mat)), (d, d), keep="first"
        )
        schro = partial_trace(
            Operator(lhs.mat @ np.kron(np.eye(d), p.mat)), (d, d), keep="first"
        )
        r_heis = max(r_heis, float(np.abs(heis.mat - schro.mat).max()))

    return PostprocessingResiduals(composition=r_comp, heisenberg=r_heis)
