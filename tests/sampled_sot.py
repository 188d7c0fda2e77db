"""Sampled reference for the state-over-time axioms, without the Choi reduction.

Each case draws a state, Haar unitaries U and V and a random channel E,
builds Ad_U, Ad_U+ and Ad_V as Choi operators and checks the three axioms
of E * rho directly.  Tests compare its residuals with the broadcaster's
own exact axioms, ``vbcast.broadcast.check_axioms``: each axiom of * holds
exactly when b has it (``vbcast.sot``).
"""

import numpy as np

from vbcast.broadcast import classical_bcl, decoherence
from vbcast.densemat import Rng, random_density
from vbcast.supermap import SuperMap

from dense_maps import apply, apply_right, compose, conjugate, dagger, from_action, identity_map, star, swap, tensor
from random_fixtures import haar_unitary, random_channel


def _star(e: SuperMap, rho, b: SuperMap):
    """``star`` for a covariant b; for any other b the same (id (x) E)(b(rho)), on b's dense Choi."""
    return star(e, rho, b) if b.coeffs is not None else apply_right(e, apply(b, rho), d_left=b.d_in)


def sampled_sot_axioms(b: SuperMap, n_cases: int, rng: Rng) -> dict[str, float]:
    """Worst covariance, permutation and classical residuals over n_cases draws."""
    d = b.d_in
    r_cov = 0.0
    r_perm = 0.0
    r_cl = 0.0
    dec = decoherence(d)
    bcl = classical_bcl(d)
    for _ in range(n_cases):
        rho = random_density(d, rng)
        u = haar_unitary(d, rng)
        v = haar_unitary(d, rng)
        e = random_channel(d, d, rng)

        # covariance: (U (x) V)(E * rho)(U (x) V)+ = (V E U+) * (U rho U+)
        ad_u = from_action(d, d, lambda x, u=u: conjugate(u, x))
        ad_udag = from_action(d, d, lambda x, u=u: conjugate(dagger(u), x))
        ad_v = from_action(d, d, lambda x, v=v: conjugate(v, x))
        uv = np.kron(u.mat, v.mat)
        lhs = uv @ _star(e, rho, b).mat @ uv.conj().T
        e_rot = compose(compose(ad_v, e), ad_udag)
        rhs = _star(e_rot, apply(ad_u, rho), b).mat
        r_cov = max(r_cov, float(np.abs(lhs - rhs).max()))

        # permutation symmetry at E = id
        t = _star(identity_map(d), rho, b).mat
        sw = swap(d).mat
        r_perm = max(r_perm, float(np.abs(sw @ t @ sw - t).max()))

        # classical consistency for decohered channels
        e_cl = compose(compose(dec, e), dec)
        lhs_cl = apply(tensor(dec, dec), _star(e_cl, apply(dec, rho), b))
        rhs_cl = apply_right(e_cl, apply(bcl, rho), d_left=d)
        r_cl = max(r_cl, float(np.abs(lhs_cl.mat - rhs_cl.mat).max()))

    return {"covariance": r_cov, "permutation": r_perm, "classical": r_cl}
