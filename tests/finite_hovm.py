"""Finite operator-valued measures over pure states, a reference for the Haar integral.

The pairs (M_psi, rho_psi) with rho_psi = (1/2)[(d+2) psi - I] and
M_psi = d rho_psi, averaged over a finite set of pure states instead of
Haar measure, give a measure-and-prepare map.  Over a projective 3-design
it equals ``vbcast.hovm.exact_mp_map`` exactly, which the tests check.
"""

from dataclasses import dataclass

import numpy as np

from vbcast.densemat import DEFAULT_TOL, Operator
from vbcast.supermap import SuperMap

from dense_maps import from_action, kron, trace


def _check_pure(psi: Operator, d: int, tol: float = DEFAULT_TOL):
    if psi.rows != d or psi.cols != d:
        raise ValueError(f"psi must be {d}x{d}, got {psi.rows}x{psi.cols}")
    if not psi.is_hermitian(tol):
        raise ValueError("psi must be Hermitian")
    if abs(trace(psi) - 1.0) > tol or np.abs(psi.mat @ psi.mat - psi.mat).max() > tol:
        raise ValueError("psi must be a rank-1 projector")


def rho_psi(psi: Operator, d: int) -> Operator:
    """Virtual state (1/2)[(d+2) psi - I]; trace 1, one negative eigenvalue."""
    _check_pure(psi, d)
    return Operator(((d + 2) * psi.mat - np.eye(d)) / 2)


def m_psi(psi: Operator, d: int) -> Operator:
    """Measure density d * rho_psi; integrates to I over Haar psi."""
    return Operator(d * rho_psi(psi, d).mat)


@dataclass(frozen=True)
class FiniteHOVM:
    """Finite operator-valued measure: effects summing to I, trace-1 preparations.

    Preparations may be virtual (non-positive) states; only hermiticity and
    unit trace are required.
    """

    effects: tuple[Operator, ...]
    preparations: tuple[Operator, ...]

    def __post_init__(self):
        if len(self.effects) != len(self.preparations):
            raise ValueError("effects and preparations must pair up")
        if not self.effects:
            raise ValueError("measure must have at least one outcome")
        d = self.effects[0].rows
        total = np.zeros((d, d), dtype=np.complex128)
        for e in self.effects:
            if not e.is_hermitian(1e-10):
                raise ValueError("effects must be Hermitian")
            total += e.mat
        if np.abs(total - np.eye(d)).max() > 1e-10:
            raise ValueError("effects must sum to the identity within 1e-10")
        for p in self.preparations:
            if not p.is_hermitian(1e-10) or abs(trace(p) - 1.0) > 1e-10:
                raise ValueError("preparations must be Hermitian with unit trace")

    @classmethod
    def from_pure_states(cls, d: int, psis: list[Operator]) -> "FiniteHOVM":
        """Equal-weight measure over pure states; valid iff they average to I/d."""
        effects = tuple(Operator(m_psi(psi, d).mat / len(psis)) for psi in psis)
        preps = tuple(kron(rho_psi(psi, d), rho_psi(psi, d)) for psi in psis)
        return cls(effects, preps)

    def weights(self, rho: Operator) -> np.ndarray:
        """Outcome weights Tr[effect_k rho]; sum to Tr[rho]."""
        return np.array([float(np.real(np.trace(e.mat @ rho.mat))) for e in self.effects])

    def as_supermap(self) -> SuperMap:
        """The induced measure-and-prepare map."""
        d = self.effects[0].rows
        d_out = self.preparations[0].rows

        def action(x: Operator) -> Operator:
            out = np.zeros((d_out, d_out), dtype=np.complex128)
            for e, p in zip(self.effects, self.preparations):
                out += np.trace(e.mat @ x.mat) * p.mat
            return Operator(out)

        return from_action(d, d_out, action)
