"""Sampled reference for the broadcasting axiom, without the Choi residuals.

Draws states (alternating full-rank and pure, since e.g. the optimal
cloner's deficit peaks on pure inputs) and takes the worst trace-norm
distance between either marginal of the output and the input.  Tests
compare it with the exact ``vbcast.broadcast.check_axioms``, which reads
the marginal residuals off the Choi's equality patterns, and with the dense
reference ``dense_axioms.dense_check_axioms`` for random channels.
"""

from vbcast.densemat import Rng, random_density, trace_norm
from vbcast.supermap import SuperMap

from dense_maps import apply, partial_trace
from random_fixtures import random_pure


def sampled_broadcasting(m: SuperMap, n_states: int, rng: Rng) -> float:
    """Worst marginal trace distance ||Tr_k m(rho) - rho||_1 over n_states draws."""
    d = m.d_in
    worst = 0.0
    for k in range(n_states):
        rho = random_pure(d, rng) if k % 2 else random_density(d, rng)
        out = apply(m, rho)
        m1 = partial_trace(out, (d, d), keep="first")
        m2 = partial_trace(out, (d, d), keep="second")
        worst = max(worst, trace_norm(m1.mat - rho.mat), trace_norm(m2.mat - rho.mat))
    return float(worst)
